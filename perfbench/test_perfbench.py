"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import crystalembed as ce
import harness
import tracing
import workloads
from workloads import WORKLOADS, graph_stats, supercell, supercell_stats

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNTS = ("autograd.tensors_per_step", "periodic_graph.edges",
          "periodic_graph.builds", "periodic_graph.validations",
          "encoder.calls", "decoders.adj_pairs", "structures.parsed",
          "autograd.op.matmul.calls", "autograd.op.bilinear.calls")


def smoke(name):
    """The named workload at smoke size; its reference runs stay frozen."""
    w = copy.copy(WORKLOADS[name])
    if name == "pretrain-small":
        w.cells, w.cfg = 4, replace(w.cfg, batch_size=2, epochs=1)
    elif name == "pretrain-supercell":
        w.cells, w.k, w.cfg = 2, 2, replace(w.cfg, dim=8, batch_size=2, epochs=1)
    elif name == "ingest-extract":
        w.files, w.supercell_ks = 1, (2,)
    else:
        w.cfg = replace(w.cfg, epochs=1)
    return w


def declared(trace):
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("make", [ce.make_pretraining_structures,
                                  ce.make_labeled_structures])
def test_supercell_graph_stats_are_exact(make, k):
    for base in make(3, seed=5):
        got = graph_stats(ce.build_periodic_graph(supercell(base, k), 5.0))
        edges, hist = supercell_stats(ce.build_periodic_graph(base, 5.0), k)
        assert got[0] == edges == k ** 3 * ce.build_periodic_graph(base, 5.0).num_edges
        assert np.array_equal(got[1], hist)


def test_supercell_stats_catch_a_dropped_edge():
    base = ce.make_pretraining_structures(1, seed=0)[0]
    graph = ce.build_periodic_graph(supercell(base, 2), 5.0)
    i, j = graph.src[0], graph.dst[0]
    keep = ~(((graph.src == i) & (graph.dst == j)) | ((graph.src == j) & (graph.dst == i)))
    cut = copy.copy(graph)
    cut.src, cut.dst = graph.src[keep], graph.dst[keep]
    checks = workloads.supercell_checks([base], [2], [cut])
    assert not any(c.ok for c in checks)


def test_self_times_sum_to_root():
    ticks = iter(range(0, 10_000, 7))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    with tracer.span(tracing.ROOT):
        with tracer.span("encoder.encode"):
            with tracer.span("autograd.op.matmul"):
                pass
            with tracer.span("autograd.op.add"):
                pass
        with tracer.span("bench.pass"):
            with tracer.span("optim.adam"):
                pass
    root = tracer.spans[0]
    assert sum(tracer.self_ns()) == root[2] - root[1]
    metrics = tracing.layer_metrics(tracer, tracing.BuildLog(),
                                    tracing.GuardCounter(), 0, 0.0, 0.0)
    shares = sum(metrics[f"{layer}.self_share"] for layer in tracing.LAYERS)
    assert shares + metrics["trace.unattributed_share"] == pytest.approx(1.0)
    assert metrics["autograd.op.matmul.calls"] == 1


def test_self_times_sum_to_root_on_a_traced_pass(tmp_path):
    w = smoke("pretrain-small")
    with tracing.traced(ce) as (tracer, _, _):
        with tracer.span(tracing.ROOT):
            state = w.setup(0, tmp_path)
            w.run_pass(state, tmp_path, tracer)
    root = tracer.spans[0]
    assert root[0] == tracing.ROOT
    assert sum(tracer.self_ns()) == root[2] - root[1]
    assert not hasattr(ce.training.pretrain, "__wrapped__")  # restored


def test_missing_span_fails_loudly(tmp_path):
    with pytest.raises(KeyError):
        tracing.Tracer().wrap(ce.training, "no_such_function", "training.none")
    # a workload whose expected span is bypassed reports a failed check
    w = smoke("pretrain-small")
    w.expected = w.expected | {"encoder.never_called"}
    outcome = harness.run_workload(w, 3, 0.01, True, tmp_path)
    assert not outcome.correct
    assert any(not c.ok and "encoder.never_called" in c.detail
               for c in outcome.checks)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_reports_declared_metrics(name, trace, tmp_path):
    outcome = harness.run_workload(smoke(name), WORKLOADS[name].default_seed,
                                   0.01, trace, tmp_path)
    assert [c for c in outcome.checks if not c.ok] == []
    assert outcome.correct and outcome.attempted > 0
    assert {n: u for n, (_, u) in outcome.metrics.items()} == declared(trace)
    values = [v for v, _ in outcome.metrics.values()]
    assert all(np.isfinite(values))
    if not trace:
        assert all(v > 0 for v in values)


@pytest.mark.parametrize("name", ["pretrain-small", "ingest-extract"])
def test_traced_counts_repeat_exactly(name, tmp_path):
    runs = []
    for i in range(2):
        (tmp_path / str(i)).mkdir()
        runs.append(harness.run_workload(smoke(name), 3, 0.01, True, tmp_path / str(i)))
    for run in runs:
        assert run.correct
    for key in COUNTS:
        assert runs[0].metrics[key] == runs[1].metrics[key], key
    assert runs[0].metrics["periodic_graph.edges"][0] > 0


def test_benchmark_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert declared(False) == harness.END_TO_END
    assert declared(True) == tracing.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_command_prints_one_result_line():
    proc = _run(HERE.parent, "--workload", "pretrain-small", "--seed", "1",
                "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared(False)
    assert "metric pretrain_step_ms.p50" in proc.stdout


def test_command_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "pretrain-small", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
