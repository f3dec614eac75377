"""Rewrites reference.json from the current program.

    python3 perfbench/reference.py

The stored values are what the correctness checks compare against, so run
this only for a change that is meant to move them, and say so in the change.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from workloads import REFERENCE_PATH, WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as work:
        record = {name: w.reference_record(Path(work))
                  for name, w in WORKLOADS.items()}
    REFERENCE_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
