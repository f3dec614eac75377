"""Single-file checkpoint format.

Layout: one JSON header line (format tag, config snapshot, epoch, loss
history, optimizer scalars, array directory), then the raw bytes of every
array as little-endian float64 in directory order. Everything that goes in
is float64, so a round trip is bitwise exact.
"""

from dataclasses import dataclass, fields
from pathlib import Path
import json

import numpy as np

from .errors import ParseError, ValidationError

FORMAT_NAME = "crystalembed-checkpoint"
FORMAT_VERSION = 1


@dataclass
class CheckpointData:
    config: dict
    epoch: int
    history: list
    adam: dict
    arrays: dict  # name -> float64 ndarray, insertion order = file order
    path: str = ""


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def save_checkpoint(
    path,
    arrays: dict,
    config: dict,
    epoch: int,
    history: list,
    adam: dict,
) -> None:
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "epoch": int(epoch),
        "config": _jsonable(config),
        "history": _jsonable(history),
        "adam": _jsonable(adam),
        "arrays": [
            {"name": name, "shape": list(arr.shape)}
            for name, arr in arrays.items()
        ],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for arr in arrays.values():
            a = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
            if not np.all(np.isfinite(a)):
                raise ValidationError("refusing to checkpoint non-finite values")
            fh.write(a.astype("<f8").tobytes())


def load_checkpoint(path) -> CheckpointData:
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise ParseError(f"{path}: missing checkpoint header line")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: bad checkpoint header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise ParseError(f"{path}: not a {FORMAT_NAME} file")
    if header.get("version") != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version "
                         f"{header.get('version')}")
    for f in fields(CheckpointData):
        if f.name != "path" and f.name not in header:
            raise ParseError(f"{path}: checkpoint header lacks {f.name!r}")
    body = raw[nl + 1:]
    arrays = {}
    offset = 0
    for entry in header["arrays"]:
        shape = tuple(int(s) for s in entry["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(body):
            raise ParseError(f"{path}: truncated array data for {entry['name']}")
        arr = np.frombuffer(body[offset:offset + nbytes], dtype="<f8").copy()
        arrays[entry["name"]] = arr.reshape(shape).astype(np.float64)
        offset += nbytes
    if offset != len(body):
        raise ParseError(f"{path}: {len(body) - offset} trailing bytes")
    return CheckpointData(
        config=header["config"],
        epoch=int(header["epoch"]),
        history=header["history"],
        adam=header["adam"],
        arrays=arrays,
        path=str(path),
    )
