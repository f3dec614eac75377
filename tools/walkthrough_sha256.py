"""Run the README's CLI walkthrough against a checkout and hash its outputs.

    python3 tools/walkthrough_sha256.py <checkout>

Generates the README's synthetic corpora and runs its six subcommands, as
the walkthrough lists them, on <checkout>/src, in a fresh temporary
directory, with OPENBLAS_NUM_THREADS=1. Prints `sha256  path` for every
file written, paths relative to that directory in sorted order. A log.jsonl
is hashed with the wall_ms timing removed from each record. Two checkouts
that print the same lines wrote the same bits.
"""

import hashlib
import json
import os
from pathlib import Path
import subprocess
import sys
import tempfile

CORPORA = """
from crystalembed import (save_jsonl, make_pretraining_structures,
                          make_labeled_structures)
save_jsonl("pre.jsonl", make_pretraining_structures(48, seed=3))
save_jsonl("lab.jsonl", make_labeled_structures(64, seed=11))
"""

SMALL = ["--dim", "16", "--num-layers", "1", "--rbf-count", "4", "--epochs", "60",
         "--batch-size", "8"]
COMMANDS = [
    ["ingest", "pre.jsonl", "--cutoff", "5.0", "--out", "ing"],
    ["pretrain", "--data", "ing/dataset.jsonl", "--out", "run", "--dim", "16",
     "--num-layers", "2", "--rbf-count", "8", "--epochs", "160",
     "--batch-size", "16"],
    ["extract", "--checkpoint", "run/final.ckpt", "--data", "ing/dataset.jsonl",
     "--out", "emb", "--format", "csv"],
    ["downstream", "--data", "lab.jsonl", "--out", "ds", "--mode", "pretrained",
     "--table", "emb/embeddings.csv", *SMALL],
    ["sweep", "--data", "lab.jsonl", "--table", "emb/embeddings.csv", "--out",
     "sw", *SMALL],
    ["project", "--table", "emb/embeddings.csv", "--out", "proj"],
]


def digest(path: Path) -> str:
    if path.name != "log.jsonl":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for record in records:
        record.pop("wall_ms")
    return hashlib.sha256("".join(
        json.dumps(record) + "\n" for record in records).encode()).hexdigest()


def main(checkout: str) -> None:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(checkout).resolve() / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        runs = [["-c", CORPORA]] + [["-m", "crystalembed.cli", *c] for c in COMMANDS]
        for args in runs:
            subprocess.run([sys.executable, *args], cwd=work, env=env, check=True,
                           stdout=subprocess.DEVNULL)
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            print(f"{digest(path)}  {path.relative_to(work)}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
