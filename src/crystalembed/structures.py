"""Crystal structures: the core record type plus CIF-subset and JSON-lines I/O.

The CIF support is deliberately minimal: cell parameters and one atom_site
loop, P1 only. Symmetry operators are never expanded; a CIF whose symmetry
loop lists more than the identity is rejected. JSON-lines is the
primary interchange format.
"""

from __future__ import annotations

import json
import math
import shlex
from dataclasses import dataclass
from itertools import chain
from numbers import Real

import numpy as np

from .elements import MAX_Z, symbol_to_z
from .errors import ParseError, ValidationError, reading
from .embeddings import format_float17


def _wrap_frac(coords: np.ndarray) -> np.ndarray:
    """Wrap fractional coordinates into [0, 1)."""
    wrapped = np.mod(coords, 1.0)
    # np.mod can return 1.0 for tiny negative inputs
    wrapped[wrapped >= 1.0] = 0.0
    return wrapped


@dataclass
class CrystalStructure:
    """One crystal: lattice rows in Angstrom, fractional sites, atomic numbers.

    Coordinates are wrapped into [0, 1) on construction; all other invariants
    (positive-determinant lattice, Z in 1..118, N >= 1) are enforced eagerly.
    """

    lattice: np.ndarray
    frac_coords: np.ndarray
    atomic_numbers: np.ndarray
    label: float | None = None
    id: str = ""

    def __post_init__(self):
        self.lattice = np.asarray(self.lattice, dtype=np.float64)
        self.frac_coords = np.asarray(self.frac_coords, dtype=np.float64)
        self.atomic_numbers = np.asarray(self.atomic_numbers, dtype=np.int64)
        if self.lattice.shape != (3, 3):
            raise ValidationError(f"lattice must be 3x3, got {self.lattice.shape}")
        if not np.all(np.isfinite(self.lattice)):
            raise ValidationError("lattice contains non-finite entries")
        with np.errstate(over="ignore"):
            det = np.linalg.det(self.lattice)
        if not (np.isfinite(det) and det > 0):
            raise ValidationError(
                f"lattice determinant must be finite and > 0, got {det}")
        if self.frac_coords.ndim != 2 or self.frac_coords.shape[1] != 3:
            raise ValidationError(
                f"frac_coords must be Nx3, got {self.frac_coords.shape}"
            )
        if not np.all(np.isfinite(self.frac_coords)):
            raise ValidationError("frac_coords contains non-finite entries")
        n = self.frac_coords.shape[0]
        if n < 1:
            raise ValidationError("structure must contain at least one site")
        if self.atomic_numbers.shape != (n,):
            raise ValidationError(
                f"atomic_numbers length {self.atomic_numbers.shape} does not "
                f"match {n} sites"
            )
        if np.any(self.atomic_numbers < 1) or np.any(self.atomic_numbers > MAX_Z):
            raise ValidationError("atomic numbers must lie in 1..118")
        if self.label is not None:
            # a bool is an int, and float() would also take a numeric string
            if isinstance(self.label, bool) or not isinstance(self.label, Real):
                raise ValidationError(
                    f"label must be a real number, got {self.label!r}")
            try:
                self.label = float(self.label)
            except OverflowError:  # an int past float64
                self.label = math.inf
            if not math.isfinite(self.label):
                raise ValidationError("label must be finite")
        self.frac_coords = _wrap_frac(self.frac_coords)

    @property
    def num_sites(self) -> int:
        return self.frac_coords.shape[0]

    def cart_coords(self) -> np.ndarray:
        """Cartesian positions in Angstrom (rows)."""
        return self.frac_coords @ self.lattice


def lattice_from_cell(a, b, c, alpha, beta, gamma) -> np.ndarray:
    """Cell parameters (Angstrom, degrees) to a lattice matrix.

    Standard crystallographic convention: a along x, b in the xy-plane.
    """
    for name, v in (("a", a), ("b", b), ("c", c)):
        if not (v > 0 and math.isfinite(v)):
            raise ValidationError(f"cell length {name} must be positive, got {v}")
    for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not (0.0 < v < 180.0):
            raise ValidationError(
                f"cell angle {name} must lie in (0, 180) degrees, got {v}"
            )
    ar, br, gr = math.radians(alpha), math.radians(beta), math.radians(gamma)
    cos_a, cos_b, cos_g = math.cos(ar), math.cos(br), math.cos(gr)
    sin_g = math.sin(gr)
    cy = (cos_a - cos_b * cos_g) / sin_g
    cz_sq = 1.0 - cos_b * cos_b - cy * cy
    if cz_sq <= 0.0:
        raise ValidationError(
            f"degenerate cell: angles ({alpha}, {beta}, {gamma}) admit no "
            f"right-handed lattice"
        )
    return np.array(
        [
            [a, 0.0, 0.0],
            [b * cos_g, b * sin_g, 0.0],
            [c * cos_b, c * cy, c * math.sqrt(cz_sq)],
        ]
    )


_CELL_TAGS = (
    "_cell_length_a",
    "_cell_length_b",
    "_cell_length_c",
    "_cell_angle_alpha",
    "_cell_angle_beta",
    "_cell_angle_gamma",
)


def _cif_number(token: str, context: str) -> float:
    """Parse a CIF numeric token, stripping a trailing uncertainty '(..)'."""
    t = token.strip()
    if "(" in t:
        t = t[: t.index("(")]
    try:
        return float(t)
    except ValueError:
        raise ParseError(f"non-numeric CIF value {token!r} for {context}") from None


# loops listing symmetry operations, one per row, as "x,y,z"-style triplets
_SYMOP_TAGS = ("_symmetry_equiv_pos_as_xyz", "_space_group_symop_operation_xyz")


def _cif_loops(lines):
    """Yield (lower-cased headers, data rows) of every loop_ block.

    A loop's rows end at a blank line, a tag, a comment, or the next loop_
    or data_ block.
    """
    i = 0
    while i < len(lines):
        if lines[i].strip().lower() != "loop_":
            i += 1
            continue
        j = i + 1
        headers: list[str] = []
        while j < len(lines) and lines[j].strip().startswith("_"):
            headers.append(lines[j].strip().split()[0].lower())
            j += 1
        rows: list[str] = []
        while j < len(lines):
            row = lines[j].strip()
            if not row or row.startswith(("_", "#")) or row.lower().startswith(
                ("loop_", "data_")
            ):
                break
            rows.append(row)
            j += 1
        yield headers, rows
        i = j


def _check_symmetry_identity(headers: list[str], rows: list[str]) -> None:
    """Reject a symmetry loop with any operation besides the identity.

    Sites are read as the full cell, so a CIF that lists only the asymmetric
    unit plus operations would silently lose every generated site.
    """
    col = next(headers.index(t) for t in _SYMOP_TAGS if t in headers)
    for row in rows:
        try:
            tokens = shlex.split(row)
        except ValueError:
            raise ParseError(f"unbalanced quotes in symmetry row: {row!r}") from None
        if len(tokens) <= col:
            raise ParseError(f"short symmetry row: {row!r}")
        # an unquoted operation with spaces spills over into later tokens
        op = "".join(tokens[col:]) if col == len(headers) - 1 else tokens[col]
        if op.replace(" ", "").lower() not in ("x,y,z", "+x,+y,+z"):
            raise ParseError(
                f"CIF symmetry operation {op!r} is not the identity; symmetry "
                "expansion is not supported, so list every site of the cell (P1)"
            )


def parse_cif(text: str) -> CrystalStructure:
    """Parse the supported CIF subset into a CrystalStructure.

    Requires the six cell tags and one atom_site loop carrying an element
    symbol column (type_symbol or label) and fractional coordinates. Sites
    with fractional occupancy are rejected, and so is a symmetry-operation
    loop holding anything beyond the identity.
    """
    lines = text.splitlines()
    cell: dict[str, float] = {}
    struct_id = "cif"

    # single-value tags and the data_ block name
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("data_") and struct_id == "cif":
            struct_id = stripped[len("data_"):] or "cif"
        parts = stripped.split()
        if len(parts) >= 2 and parts[0] in _CELL_TAGS:
            cell[parts[0]] = _cif_number(parts[1], parts[0])
    for tag in _CELL_TAGS:
        if tag not in cell:
            raise ParseError(f"missing required CIF tag {tag}")

    # the symmetry loops, then the first atom_site loop
    symbols: list[str] = []
    coords: list[list[float]] = []
    found_loop = False
    for headers, rows in _cif_loops(lines):
        if any(t in headers for t in _SYMOP_TAGS):
            _check_symmetry_identity(headers, rows)
        if found_loop or not any(h.startswith("_atom_site_fract") for h in headers):
            continue
        found_loop = True

        def col(name: str) -> int | None:
            return headers.index(name) if name in headers else None

        fx, fy, fz = (col(f"_atom_site_fract_{ax}") for ax in "xyz")
        if fx is None or fy is None or fz is None:
            raise ParseError("atom_site loop lacks _atom_site_fract_{x,y,z}")
        sym_col = col("_atom_site_type_symbol")
        if sym_col is None:
            sym_col = col("_atom_site_label")
        if sym_col is None:
            raise ParseError(
                "atom_site loop lacks _atom_site_type_symbol/_atom_site_label"
            )
        occ_col = col("_atom_site_occupancy")

        for row in rows:
            tokens = row.split()
            if len(tokens) < len(headers):
                raise ParseError(f"short atom_site row: {row!r}")
            if occ_col is not None:
                occ = _cif_number(tokens[occ_col], "_atom_site_occupancy")
                if abs(occ - 1.0) > 1e-6:
                    raise ValidationError(
                        f"fractional occupancy {occ} not supported"
                    )
            symbols.append(tokens[sym_col])
            coords.append(
                [
                    _cif_number(tokens[fx], "_atom_site_fract_x"),
                    _cif_number(tokens[fy], "_atom_site_fract_y"),
                    _cif_number(tokens[fz], "_atom_site_fract_z"),
                ]
            )
    if not found_loop:
        raise ParseError("missing atom_site loop")
    if not symbols:
        raise ParseError("atom_site loop contains no sites")

    lattice = lattice_from_cell(
        cell["_cell_length_a"],
        cell["_cell_length_b"],
        cell["_cell_length_c"],
        cell["_cell_angle_alpha"],
        cell["_cell_angle_beta"],
        cell["_cell_angle_gamma"],
    )
    numbers = [symbol_to_z(s) for s in symbols]
    return CrystalStructure(
        lattice=lattice,
        frac_coords=np.array(coords),
        atomic_numbers=np.array(numbers),
        id=struct_id,
    )


def parse_jsonl(line: str) -> CrystalStructure:
    """Parse one JSON-lines record into a CrystalStructure. The lattice is 9
    JSON numbers in row-major order, frac_coords N rows of 3 JSON numbers and
    atomic_numbers N JSON integers; a bool or a string is neither."""
    with reading("malformed JSON record"):
        obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    # np.asarray would coerce a bool, a numeric string or, to int64, a float
    for key, kinds in (("lattice", (int, float)), ("frac_coords", (int, float)),
                       ("atomic_numbers", (int,))):
        if key not in obj:
            raise ParseError(f"missing field {key!r} in record {obj.get('id', '?')!r}")
        # a list left among scalars is ragged: np.asarray rejects it below
        level, types = [obj[key]], {type(obj[key])}
        while types == {list}:
            level = list(chain.from_iterable(level))
            types = set(map(type, level))
        if not types <= {list, *kinds}:
            bad = next(v for v in level if type(v) not in (list, *kinds))
            what = "numbers" if float in kinds else "integers"
            raise ValidationError(
                f"field {key!r} must hold JSON {what}, got {bad!r:.40}")
    try:
        lattice = np.asarray(obj["lattice"], dtype=np.float64)
        frac = np.asarray(obj["frac_coords"], dtype=np.float64)
        numbers = np.asarray(obj["atomic_numbers"], dtype=np.int64)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValidationError(f"malformed array field: {exc}") from None
    if lattice.shape != (9,):
        raise ValidationError(
            f"lattice must hold 9 reals row-major, got shape {lattice.shape}"
        )
    return CrystalStructure(
        lattice=lattice.reshape(3, 3),
        frac_coords=frac,
        atomic_numbers=numbers,
        label=obj.get("label"),
        id=str(obj.get("id", "")),
    )


def serialize_jsonl(s: CrystalStructure) -> str:
    """Serialize to a single JSON line: fixed key order, 17-digit floats."""
    f = format_float17
    parts = [
        f'"id": {json.dumps(s.id)}',
        '"lattice": [' + ", ".join(f(x) for x in s.lattice.ravel()) + "]",
        '"frac_coords": ['
        + ", ".join("[" + ", ".join(f(x) for x in row) + "]" for row in s.frac_coords)
        + "]",
        '"atomic_numbers": [' + ", ".join(str(int(z)) for z in s.atomic_numbers) + "]",
    ]
    if s.label is not None:
        parts.append(f'"label": {f(s.label)}')
    return "{" + ", ".join(parts) + "}"


def load_cif(path) -> CrystalStructure:
    """Read one CIF file; an error names the file."""
    with reading(path), open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_cif(text)
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_jsonl(path) -> list[CrystalStructure]:
    """Read a JSON-lines dataset file, skipping blank lines."""
    out = []
    with reading(path), open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(parse_jsonl(line))
            except (ParseError, ValidationError) as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from None
    return out


def save_jsonl(path, structures) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in structures:
            fh.write(serialize_jsonl(s) + "\n")
