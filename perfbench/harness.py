"""Runs one workload: repeated setup, timed passes, checks, traced phase.

Untraced run (trace=0): set up, then run passes until the next one would
overrun the time budget (at least one), then run the workload's reference
checks. Set-up is timed again between passes, so its median samples the
whole run rather than one moment of a machine whose speed drifts. Only the
workload's operation function is wrapped, so the end-to-end figures carry
no tracing cost.

Traced run (trace=1): set up once and time untraced passes for half the
budget; then, with every layer wrapped, set up again and run one pass under
the root span. Counts of the traced phase therefore repeat exactly for a
seed. The per-layer metrics come from that phase; tracing overhead is the
traced minus the untraced median operation time.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import crystalembed as ce
import tracing
from workloads import Check

# set-up is timed at least SETUP_REPEATS times, and again after any pass
# while set-up has taken under SETUP_SHARE of the time spent in passes
SETUP_REPEATS = 3
SETUP_SHARE = 0.25
TRACED_PASSES = 1

END_TO_END = {"setup_s": "s", "pass_s": "s", "op_ms.p50": "ms",
              "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    metrics: dict  # name -> (value, unit)
    attempted: int
    failed: int
    checks: list = field(default_factory=list)
    named: list = field(default_factory=list)  # (name, value, unit, note)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and bool(self.metrics)

    def fail(self, name: str, detail: str) -> None:
        self.checks.append(Check(name, False, detail))
        self.attempted += 1
        self.failed += 1


def _ops_of_pass(tracer, pass_idx, op_span) -> int:
    return sum(1 for i in range(pass_idx + 1, len(tracer.spans))
               if tracer.spans[i][0] == op_span)


def _run_passes(workload, state, work, tracer, seconds, max_passes=None,
                check=True, after_pass=None):
    """Run passes under bench.pass spans; returns (ops, failed, outputs, checks).

    A pass that raises counts as one failed operation and ends the timing.
    after_pass(pass_ns) runs untimed after each pass.
    """
    ops = 0
    outputs, checks, pass_ns = [], [], []
    while True:
        gc.collect()
        try:
            with tracer.span("bench.pass") as idx:
                output = workload.run_pass(state, work, tracer)
        except Exception:  # the program failed: count it and stop timing
            checks.append(Check("pass completed", False,
                                traceback.format_exc(limit=-3)))
            return ops + 1, 1, outputs, checks
        ops += _ops_of_pass(tracer, idx, workload.op_span) + workload.extra_ops_per_pass
        pass_ns.append(tracer.spans[idx][2] - tracer.spans[idx][1])
        if check:
            checks += workload.check_pass(state, output)
        else:
            outputs.append(output)
        if after_pass is not None:
            after_pass(pass_ns)
        if max_passes is not None and len(pass_ns) >= max_passes:
            break
        if (sum(pass_ns) + statistics.median(pass_ns)) / 1e9 > seconds:
            break
    return ops, 0, outputs, checks


def _durations(tracer, name):
    """Nanoseconds of each call of span `name` made in a measured pass."""
    return [end - start for i, (n, start, end, _, _) in enumerate(tracer.spans)
            if n == name and (n == "bench.pass" or tracer.inside(i, "bench.pass"))]


def _op_tracer(workload):
    """A tracer that wraps only the workload's operation function."""
    tracer = tracing.Tracer()
    if workload.op is not None:
        module, attr, name = workload.op
        tracer.wrap(getattr(ce, module), attr, name)
    return tracer


def _setup_timed(workload, seed, work):
    t0 = time.perf_counter()
    state = workload.setup(seed, work)
    return time.perf_counter() - t0, state


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 work: Path) -> Outcome:
    if trace:
        return _run_traced(workload, seed, seconds, work)
    setup_s = []

    def set_up_again(pass_ns):
        if sum(setup_s) < SETUP_SHARE * sum(pass_ns) / 1e9:
            gc.collect()
            setup_s.append(_setup_timed(workload, seed, work)[0])

    elapsed, state = _setup_timed(workload, seed, work)
    setup_s.append(elapsed)
    with _op_tracer(workload) as tracer:
        ops, failed, _, checks = _run_passes(workload, state, work, tracer,
                                             seconds, after_pass=set_up_again)
    while len(setup_s) < SETUP_REPEATS:
        setup_s.append(_setup_timed(workload, seed, work)[0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks += workload.final_checks(state, seed, work)
    durations = lambda name: _durations(tracer, name)  # noqa: E731
    metrics = {}
    if failed == 0:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "pass_s": statistics.median(durations("bench.pass")) / 1e9
            / workload.epochs_per_pass,
            "op_ms.p50": statistics.median(durations(workload.op_span)) / 1e6,
            "peak_rss_mb": peak_rss_mb,
        }
    named = workload.named(durations) if failed == 0 else []
    named += [("setup_s", metrics.get("setup_s", float("nan")), "s",
               f"median of {len(setup_s)} set-ups"),
              ("peak_rss_mb", metrics.get("peak_rss_mb", float("nan")), "MB",
               "ru_maxrss of the workload process")]
    return _outcome(metrics, END_TO_END, ops, failed, checks, named)


def _run_traced(workload, seed, seconds, work) -> Outcome:
    _, state = _setup_timed(workload, seed, work)
    with _op_tracer(workload) as plain:
        ops, failed, _, checks = _run_passes(workload, state, work, plain,
                                             seconds / 2)
    untraced_ns = _durations(plain, workload.op_span)
    del plain
    gc.collect()
    with tracing.traced(ce) as (tracer, builds, guard):
        with tracer.span(tracing.ROOT):
            with tracer.span("bench.setup"):
                state = workload.setup(seed, work)
            t_ops, t_failed, outputs, _ = _run_passes(
                workload, state, work, tracer, seconds,
                max_passes=TRACED_PASSES, check=False)
    ops, failed = ops + t_ops, failed + t_failed
    for output in outputs:
        checks += workload.check_pass(state, output)
    # a refactor that bypasses a wrapper must show up as missing, not as zero
    missing = sorted(set(workload.expected) - tracer.fired())
    checks.append(Check("every expected span fired", not missing,
                        "never fired: " + ", ".join(missing)))
    checks += workload.final_checks(state, seed, work)
    metrics = {}
    if failed == 0:
        peak = tracing.build_peak_mb(builds, ce.periodic_graph.build_periodic_graph)
        overhead = tracing.overhead_pct(untraced_ns,
                                        _durations(tracer, workload.op_span))
        metrics = tracing.layer_metrics(
            tracer, builds, guard,
            epochs_per_pretrain=workload.epochs_per_pass,
            peak_mb=peak, overhead_pct=overhead)
    return _outcome(metrics, tracing.PER_LAYER, ops, failed, checks, [])


def _outcome(values, units, ops, failed, checks, named) -> Outcome:
    failed += sum(not c.ok for c in checks)
    return Outcome(
        metrics={name: (values[name], units[name]) for name in values},
        attempted=ops + len(checks), failed=failed, checks=checks, named=named)


# -- environment -----------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out[f"l{level}"] = size
    return out


def _blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        **_caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
