"""Seeded mutation fuzzing of the files `main` reads.

Each family takes one valid input (JSONL records, CIF text, a --config
file, a CSV or JSON embedding table, a checkpoint header), applies one
random edit to it, by value or by byte, and runs the command that reads it
through `cli.main` in-process. `main` maps every fault it knows to an exit
code and lets any other exception through (`entry` turns that into exit 4
with its traceback), so an exception out of `main` is a bug. The method
follows Miller, Fredriksen & So, "An Empirical Study of the Reliability of
UNIX Utilities" (CACM 1990).

SEED and MUTATIONS are fixed: a crash found here is fixed in the program,
never dodged by another seed or a smaller count.
"""

import json
import re

import numpy as np
import pytest

from crystalembed.cli import main
from crystalembed.structures import save_jsonl, serialize_jsonl
from crystalembed.synthetic import (make_labeled_structures,
                                    make_pretraining_structures)

SEED = 26
MUTATIONS = 300  # per family
FAMILIES = ("jsonl", "cif", "config", "csv", "json", "checkpoint")

# values at the edges of what each format can say: zero and signs, IEEE
# overflow and its spellings, integers past int32, near and past int64, and
# every JSON type in place of any other
INTERESTING = [b"0", b"-1", b"0.5", b"-0.0", b"1e400", b"-1e400", b"NaN",
               b"Infinity", b"2147483648", b"4611686018427387904",
               b"99999999999999999999", b"true", b"null", b'""', b'"x"',
               b"[]", b"{}"]
BYTES = b'0123456789-+.eE,:[]{}" \n\tx\x00\xff'
# a JSON string, a number, or a word (a literal, a symbol, a bare CSV field)
VALUE = re.compile(rb'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|\w+')


def mutate(data: bytes, rng) -> bytes:
    """data after one edit: a value replaced by an interesting one or by
    another value of data, or one byte inserted, replaced or deleted."""
    op = int(rng.integers(5))
    if op < 2:
        values = list(VALUE.finditer(data))
        m = values[int(rng.integers(len(values)))]
        pool = INTERESTING if op == 0 else [v.group() for v in values]
        return data[:m.start()] + pool[int(rng.integers(len(pool)))] + data[m.end():]
    k = int(rng.integers(len(data) + 1))
    byte = BYTES[int(rng.integers(len(BYTES)))].to_bytes(1, "little")
    return data[:k] + (byte, byte, b"")[op - 2] + data[k + (op > 2):]


TABLE_CSV = b"""Z,symbol,count,e0,e1
1,H,3,0.6,0.8
8,O,2,1.0,0.0
26,Fe,1,0.0,-1.0
79,Au,5,-0.8,0.6
"""
TABLE_JSON = json.dumps({"dim": 2, "elements": [
    {"z": z, "symbol": s, "count": c, "vector": v} for z, s, c, v in
    ((1, "H", 3, [0.6, 0.8]), (8, "O", 2, [1.0, 0.0]),
     (26, "Fe", 1, [0.0, -1.0]), (79, "Au", 5, [-0.8, 0.6]))]}).encode()
CIF = b"""data_nacl
_cell_length_a 5.6
_cell_length_b 5.6
_cell_length_c 5.6
_cell_angle_alpha 90.0
_cell_angle_beta 90.0
_cell_angle_gamma 90.0
loop_
_atom_site_type_symbol
_atom_site_fract_x
_atom_site_fract_y
_atom_site_fract_z
Na 0.0 0.0 0.0
Cl 0.5 0.5 0.5
"""
# a tiny model; epochs is pinned by flag instead, since a long run is valid
# input, not a fault
CONFIG = json.dumps({
    "dim": 4, "num_layers": 1, "rbf_count": 4, "cutoff": 4.0, "batch_size": 2,
    "lr": 0.01, "temperature": 0.5, "mask_ratio": 0.15, "drop_ratio": 0.15,
    "node_loss_scope": "all", "class_weights": [0.1, 1.0, 1.0, 1.0, 1.0, 1.0],
    "seed": 3}).encode()


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """family -> (file name, valid input, bytes that follow it in the file,
    argv that reads the file at a path)."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "pre.jsonl"
    save_jsonl(data, make_pretraining_structures(4, seed=1))
    (root / "cfg.json").write_bytes(CONFIG)
    assert main(["pretrain", "--data", str(data), "--config",
                 str(root / "cfg.json"), "--epochs", "1",
                 "--out", str(root / "run")]) == 0
    head, _, rest = (root / "run" / "final.ckpt").read_bytes().partition(b"\n")
    records = [*make_labeled_structures(1, seed=5),
               *make_pretraining_structures(1, seed=2)]
    return {
        "jsonl": ("in.jsonl", "".join(serialize_jsonl(s) + "\n"
                                      for s in records).encode(), b"",
                  lambda path: ["ingest", path]),
        "cif": ("in.cif", CIF, b"", lambda path: ["ingest", path]),
        "config": ("cfg.json", CONFIG, b"", lambda path: [
            "pretrain", "--data", str(data), "--config", path, "--epochs", "1"]),
        "csv": ("t.csv", TABLE_CSV, b"", lambda path: ["project", "--table", path]),
        "json": ("t.json", TABLE_JSON, b"",
                 lambda path: ["project", "--table", path]),
        "checkpoint": ("c.ckpt", head, b"\n" + rest, lambda path: [
            "extract", "--checkpoint", path, "--data", str(data)]),
    }


@pytest.mark.parametrize("family", FAMILIES)
def test_mutated_input_exits_with_a_code(family, seeds, tmp_path, capsys):
    """main returns 0-3 on every mutation, 1 only from ingest, and a run
    that fails leaves no effective config behind."""
    name, valid, tail, argv = seeds[family]

    def run(body, case_dir):
        case_dir.mkdir()
        (case_dir / name).write_bytes(body + tail)
        return main([*argv(str(case_dir / name)), "--out", str(case_dir / "out")])

    assert run(valid, tmp_path / "valid") == 0
    command = argv("")[0]
    allowed = (0, 1, 2, 3) if command == "ingest" else (0, 2, 3)
    rng = np.random.default_rng([SEED, FAMILIES.index(family)])
    faults = []
    for k in range(MUTATIONS):
        body = mutate(valid, rng)
        case_dir = tmp_path / f"case{k}"
        try:
            code = run(body, case_dir)
        except Exception as exc:  # any escape is the finding
            faults.append(f"{k}: {type(exc).__name__}: {exc} <- {body[:160]!r}")
            continue
        config = case_dir / "out" / f"{command}_config.json"
        if code not in allowed or (code > 1 and config.exists()):
            faults.append(f"{k}: exit {code} <- {body[:160]!r}")
    capsys.readouterr()
    assert faults == []
