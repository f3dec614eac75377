"""Single-file checkpoint format.

Layout: one JSON header line (format tag, config snapshot, epoch, loss
history, optimizer scalars, array directory), then the raw bytes of every
array as little-endian float64 in directory order. Everything that goes in
is float64, so a round trip is bitwise exact. A save checks every array
before it writes, into a sibling `<name>.partial` file that then replaces
the file at the path, so a refused or interrupted save leaves that file as
it was.
"""

from dataclasses import dataclass, fields
from pathlib import Path
import json
import math
import os

import numpy as np

from .errors import ParseError, ValidationError, reading

FORMAT_NAME = "crystalembed-checkpoint"
FORMAT_VERSION = 1


@dataclass
class CheckpointData:
    config: dict
    epoch: int
    history: list
    adam: dict
    arrays: dict  # name -> float64 ndarray, insertion order = file order


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
        "config": config,
        "history": history,
        "adam": adam,
        "arrays": [
            {"name": name, "shape": list(arr.shape)}
            for name, arr in arrays.items()
        ],
    }
    # NumPy arrays and scalars in the header become lists and numbers
    head = json.dumps(header, sort_keys=True,
                      default=lambda obj: obj.tolist()).encode("utf-8")
    for arr in arrays.values():
        if not np.all(np.isfinite(np.asarray(arr, dtype=np.float64))):
            raise ValidationError("refusing to checkpoint non-finite values")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "wb") as fh:
            fh.write(head + b"\n")
            for arr in arrays.values():
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(partial, path)
    except BaseException:  # an interrupt too: the file at path stays whole
        partial.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> CheckpointData:
    with reading(path):
        head, newline, body = Path(path).read_bytes().partition(b"\n")
        if not newline:
            raise ParseError(f"{path}: missing checkpoint header line")
        header = json.loads(head.decode("utf-8"))
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise ParseError(f"{path}: not a {FORMAT_NAME} file")
    if header.get("version") != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version "
                         f"{header.get('version')}")
    kinds = {f.name: f.type for f in fields(CheckpointData)}
    kinds["arrays"] = list  # a directory in the header, a dict once loaded
    for key, kind in kinds.items():
        if key not in header:
            raise ParseError(f"{path}: checkpoint header lacks {key!r}")
        if type(header[key]) is not kind:  # JSON values: a bool is no int
            raise ParseError(f"{path}: checkpoint header {key!r} must be "
                             f"{kind.__name__}, got {header[key]!r:.40}")
    arrays = {}
    offset = 0
    for entry in header["arrays"]:
        shape = entry.get("shape") if type(entry) is dict else None
        if not (type(shape) is list and type(entry.get("name")) is str
                and all(type(n) is int and n >= 0 for n in shape)):
            raise ParseError(f"{path}: checkpoint array entry {entry!r:.60} needs "
                             "a string 'name' and a 'shape' of sizes >= 0")
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(body):
            raise ParseError(f"{path}: truncated array data for {entry['name']}")
        arr = np.frombuffer(body[offset:offset + nbytes], dtype="<f8")
        if not np.isfinite(arr).all():
            raise ParseError(f"{path}: array {entry['name']} holds non-finite values")
        arrays[entry["name"]] = arr.reshape(shape).astype(np.float64)
        offset += nbytes
    if offset != len(body):
        raise ParseError(f"{path}: {len(body) - offset} trailing bytes")
    return CheckpointData(
        config=header["config"],
        epoch=header["epoch"],
        history=header["history"],
        adam=header["adam"],
        arrays=arrays,
    )
