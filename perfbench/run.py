"""Benchmark of the crystalembed pipeline: one workload per process.

    python3 perfbench/run.py --workload pretrain-small --seed 3 --seconds 24 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory. With --trace 0 the last line of standard output is a JSON
object whose metrics are the end-to-end figures, the same four for every
workload:

    setup_s      median of at least three set-ups: corpus generation, graph
                 builds, model init, warm-up (work moved into set-up shows here)
    pass_s       median time of one pass over the corpus: a pretrain epoch
                 (a pretrain() call over its epochs), one ingest-then-extract
                 round, or one label-fraction sweep
    op_ms.p50    median time of one operation: a pretrain step, the ingest
                 of one file, or one supervised run of the sweep
    peak_rss_mb  peak resident set of the workload process

With --trace 1 the metrics are the per-layer figures of tracing.PER_LAYER.
Lines before the last one name the environment, the workload-specific
figures (pretrain_step_ms.p50, ingest_structs_per_s, sweep_s, ...) and every
correctness check. `failed` counts failed operations and failed checks, so
failed / attempted is the error rate, printed as error_rate; it is not a JSON
metric because it reads 0 on every correct run. The exit code is 0 only when
every check passed; 2 when the checkout has no crystalembed sources.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Pinned before NumPy loads; at most nproc, and one thread keeps runs steady
# on a shared machine.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, help="workload seed (default: frozen seed)")
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _die(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_library():
    src = ROOT / "src"
    if not (src / "crystalembed" / "__init__.py").is_file():
        _die(f"no crystalembed sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import crystalembed
    if Path(crystalembed.__file__).resolve().parent != src / "crystalembed":
        _die(f"imported crystalembed from {crystalembed.__file__}, not from {src}")


def _declared(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    _import_library()
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    print(f"workload {workload.name} seed {seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + json.dumps(harness.environment(), sort_keys=True))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        outcome = harness.run_workload(workload, seed, args.seconds,
                                       bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = _declared(bool(args.trace))
    produced = {name: unit for name, (_, unit) in outcome.metrics.items()}
    if produced and produced != declared:
        outcome.fail("metrics named as in BENCHMARK.json",
                     str(sorted(set(produced.items()) ^ set(declared.items()))))
    for name, value, unit, note in outcome.named:
        print(f"metric {name} = {value:.6g} {unit} ({note})")
    print(f"metric error_rate = {outcome.failed / max(outcome.attempted, 1):.6g} "
          f"ratio ({outcome.failed} of {outcome.attempted} operations and "
          f"checks failed)")
    tally = {}
    for check in outcome.checks:
        tally.setdefault(check.name, []).append(check)
    for name, checks in tally.items():
        bad = [c for c in checks if not c.ok]
        print(f"check {'FAILED' if bad else 'ok'}: {name} "
              f"({len(checks) - len(bad)}/{len(checks)} passed)"
              + (f" -- {bad[0].detail}" if bad and bad[0].detail else ""))
    correct = outcome.correct
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
