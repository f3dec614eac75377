"""Per-element embedding table: the transfer artifact.

One d-vector per atomic number, the L2-normalized mean of that element's
node embeddings under a frozen encoder. Rows for elements never seen are
zero and flagged absent. Serialization keeps 17 significant digits so a
CSV or JSON round trip is bitwise lossless.
"""

from dataclasses import dataclass
from pathlib import Path
import csv
import json

import numpy as np

from .elements import MAX_Z, symbol_to_z, z_to_symbol
from .errors import ParseError, ValidationError, reading


def format_float17(x: float) -> str:
    """Format a float with 17 significant digits (lossless for float64)."""
    return f"{float(x):.17g}"


@dataclass
class ElementEmbeddingTable:
    vectors: np.ndarray  # (118, d)
    counts: np.ndarray  # (118,) occurrences per element

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.vectors.ndim != 2 or self.vectors.shape[0] != MAX_Z:
            raise ValidationError(f"vectors must be ({MAX_Z}, d)")
        if self.counts.shape != (MAX_Z,) or self.counts.min() < 0:
            raise ValidationError("counts must be 118 nonnegative integers")
        if not np.all(np.isfinite(self.vectors)):
            raise ValidationError("embedding table contains non-finite values")
        absent = self.counts == 0
        if np.any(self.vectors[absent] != 0.0):
            raise ValidationError("absent elements must have all-zero rows")
        norms = np.linalg.norm(self.vectors[~absent], axis=1)
        if norms.size and np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValidationError("present rows must have unit L2 norm")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def present(self) -> np.ndarray:
        return self.counts > 0


def table_from_sums(sums: np.ndarray, counts: np.ndarray) -> ElementEmbeddingTable:
    """Normalize per-element running sums into a table; absent rows stay zero."""
    sums = np.asarray(sums, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    vectors = np.zeros_like(sums)
    for idx in np.flatnonzero(counts):
        mean = sums[idx] / counts[idx]
        norm = float(np.linalg.norm(mean))
        if norm < 1e-12:
            raise ValidationError(
                f"mean embedding for Z={idx + 1} has no direction to normalize"
            )
        vectors[idx] = mean / norm
    return ElementEmbeddingTable(vectors=vectors, counts=counts)


def save_table_csv(table: ElementEmbeddingTable, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = ["Z", "symbol", "count"] + [f"e{k}" for k in range(table.dim)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for z in range(1, MAX_Z + 1):
            row = table.vectors[z - 1]
            writer.writerow(
                [z, z_to_symbol(z), int(table.counts[z - 1])]
                + [format_float17(x) for x in row]
            )


def _table_from_rows(source: str, dim: int, rows) -> ElementEmbeddingTable:
    """Table from (where, Z, symbol, count, vector) rows, as both loaders
    read them from `source`, which must list an element. Each vector must
    hold dim values, checked before the table is allocated; each Z must lie
    in 1..MAX_Z, come once and match its symbol, and each count must lie
    in 0..2**63 - 1 (int64). `where` names the row in the error."""
    if not rows:
        raise ParseError(f"{source} lists no element")
    for where, _, _, _, vector in rows:
        if len(vector) != dim:
            raise ParseError(f"{where}: vector has {len(vector)} values, "
                             f"expected dim {dim}")
    vectors = np.zeros((MAX_Z, dim))
    counts = np.zeros(MAX_Z, dtype=np.int64)
    seen = set()
    for where, z, symbol, count, vector in rows:
        if not 1 <= z <= MAX_Z:
            raise ParseError(f"{where}: Z={z} out of range")
        if z in seen:
            raise ParseError(f"{where}: duplicate Z={z}")
        if not 0 <= count < 2**63:
            raise ParseError(f"{where}: count={count} out of range")
        if symbol_to_z(symbol) != z:
            raise ParseError(f"{where}: symbol/Z mismatch")
        seen.add(z)
        vectors[z - 1] = vector
        counts[z - 1] = count
    return ElementEmbeddingTable(vectors=vectors, counts=counts)


def load_table_csv(path) -> ElementEmbeddingTable:
    with reading(path), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:3] != ["Z", "symbol", "count"]:
            raise ParseError(f"{path}: unexpected CSV header {header[:3]}")
        dim = len(header) - 3
        if dim < 1 or header[3:] != [f"e{k}" for k in range(dim)]:
            raise ParseError(f"{path}: malformed embedding columns")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}:{line_no}: wrong column count")
            try:
                rows.append((f"{path}:{line_no}", int(row[0]), row[1],
                             int(row[2]), [float(x) for x in row[3:]]))
            except ValueError as exc:
                raise ParseError(f"{path}:{line_no}: {exc}") from exc
    return _table_from_rows(f"{path}: embedding CSV", dim, rows)


def save_table_json(table: ElementEmbeddingTable, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    elements = []
    for z in range(1, MAX_Z + 1):
        elements.append({
            "z": z,
            "symbol": z_to_symbol(z),
            "count": int(table.counts[z - 1]),
            "vector": [float(x) for x in table.vectors[z - 1]],
        })
    with open(path, "w") as fh:
        json.dump({"dim": table.dim, "elements": elements}, fh, indent=1)
        fh.write("\n")


_JSON_KINDS = {int: "integer", float: "number", str: "string"}


def load_table_json(path) -> ElementEmbeddingTable:
    """A table from JSON whose dim, z and count are JSON integers, symbol a
    string and vector a list of JSON numbers; a bool, or a number written
    as a string, is none of them."""
    with reading(path), open(path, encoding="utf-8") as fh:
        obj = json.load(fh)

    def typed(value, what: str, *kinds):
        if type(value) not in kinds:
            raise ParseError(f"{path}: {what} must be a JSON "
                             f"{_JSON_KINDS[kinds[-1]]}, got {value!r:.40}")
        return value

    try:
        dim = typed(obj["dim"], "dim", int)
        return _table_from_rows(f"{path}: embedding JSON", dim, [
            (f"{path}: element {k}", typed(e["z"], f"element {k} z", int),
             typed(e["symbol"], f"element {k} symbol", str),
             typed(e["count"], f"element {k} count", int),
             [typed(x, f"element {k} vector", int, float) for x in e["vector"]])
            for k, e in enumerate(obj["elements"])])
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed embedding JSON: {exc}") from exc


def load_table(path) -> ElementEmbeddingTable:
    """Dispatch on extension: .csv or .json."""
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return load_table_csv(path)
    if suffix == ".json":
        return load_table_json(path)
    raise ValidationError(f"unknown embedding table format: {path}")


def project_2d(table: ElementEmbeddingTable):
    """Top-2 principal components of the present rows.

    Returns (zs, coords): atomic numbers of present elements and their
    (P, 2) projected coordinates. Component signs are fixed by forcing the
    largest-magnitude loading positive, so output is deterministic.
    """
    zs = np.flatnonzero(table.present) + 1
    if zs.size < 3:
        raise ValidationError("2-D projection needs at least 3 present elements")
    rows = table.vectors[zs - 1]
    centered = rows - rows.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / zs.size
    eigvals, eigvecs = np.linalg.eigh(cov)
    components = eigvecs[:, np.argsort(eigvals)[::-1][:2]]
    for k in range(2):
        lead = np.argmax(np.abs(components[:, k]))
        if components[lead, k] < 0.0:
            components[:, k] = -components[:, k]
    return zs, centered @ components
