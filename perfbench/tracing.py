"""Span recorder and per-layer metrics for the traced benchmark run.

Spans are recorded from outside the program. `Tracer.wrap` replaces a public
name in the namespace of the module that calls it (`crystalembed.training.encode`,
`crystalembed.autograd.matmul`, `Tensor.backward`, ...), so a call made through
that name opens a span on entry and closes it on exit. Each span holds its
name, start and end (integer nanoseconds), the index of its parent span and
one number describing the call (edges, pairs, FLOPs, bytes). Spans stay in
memory until the run ends.

A span's self time is its duration minus the durations of its children, so
the self times of all spans under one root add up to the root's duration
exactly. The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import logging
import os
import statistics
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

# the crystalembed modules, in pipeline order; each is one layer
LAYERS = ("structures", "periodic_graph", "augmentation", "encoder",
          "decoders", "contrastive", "autograd", "optim", "checkpoint",
          "training", "embeddings", "downstream")

AUTOGRAD_OPS = ("matmul", "bilinear", "row_gather", "row_scatter_add",
                "concat", "take", "softmax_rows", "logsumexp_rows",
                "l2_normalize_rows", "log", "silu", "sigmoid", "add", "mul")

ROOT = "bench.run"


class Tracer:
    """Records nested spans; restores every wrapped name on close."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, value]
        self.tensors = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0, parent, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = self.clock()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, value=None,
             count_tensors: bool = False) -> None:
        """Route calls through owner.attr into span `name`.

        value(args, result) gives the span's number; with count_tensors the
        number is the Tensors constructed during the call. A missing
        attribute raises KeyError, so a renamed function fails loudly.
        """
        fn = owner.__dict__[attr]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            before = tracer.tensors
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if value is not None:
                tracer.spans[idx][4] = value(args, result)
            elif count_tensors:
                tracer.spans[idx][4] = tracer.tensors - before
            return result

        self._patch(owner, attr, traced)

    def count_constructions(self, cls) -> None:
        """Count instances of cls built while wrapped (for Tensor)."""
        init = cls.__dict__["__init__"]
        tracer = self

        def counted(obj, *args, **kwargs):
            tracer.tensors += 1
            init(obj, *args, **kwargs)

        self._patch(cls, "__init__", counted)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading the record ---------------------------------------------

    def self_ns(self) -> list[int]:
        """Self time of every span: its duration minus its children's."""
        if self._stack:
            raise RuntimeError(f"span {self.spans[self._stack[-1]][0]!r} is still open")
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def fired(self) -> set[str]:
        return {s[0] for s in self.spans}

    def inside(self, idx: int, name: str) -> bool:
        """True when span idx has an ancestor called name."""
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


# -- what the traced run wraps ---------------------------------------------

def _images(structure, cutoff: float) -> int:
    """Lattice images build_periodic_graph searches (its own bound rule)."""
    reach = cutoff * np.linalg.norm(np.linalg.inv(structure.lattice), axis=0)
    bounds = np.ceil(reach).astype(int) + 1
    return int(np.prod(2 * bounds + 1))


class BuildLog:
    """Distinct structures built and the largest displacement array."""

    def __init__(self):
        self.keys: set[bytes] = set()
        self.largest = (0, None, 0.0)  # (disp bytes, structure, cutoff)

    def record(self, args, graph) -> int:
        s, cutoff = args[0], float(args[1])
        self.keys.add(s.lattice.tobytes() + s.frac_coords.tobytes()
                      + s.atomic_numbers.tobytes() + repr(cutoff).encode())
        disp = _images(s, cutoff) * s.num_sites ** 2 * 3 * 8
        if disp > self.largest[0]:
            self.largest = (disp, s, cutoff)
        return graph.num_edges


class GuardCounter(logging.Handler):
    """Rows that hit the l2_normalize_rows eps guard, from its warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.hits = 0

    def emit(self, record):
        if str(record.msg).startswith("l2_normalize_rows"):
            self.hits += int(record.args[0])


def _matmul_flops(args, _):
    a, b = args[0].data.shape, args[1].data.shape
    return 2 * a[0] * a[1] * b[1]


def _bilinear_flops(args, _):
    # as reshape+matmul: (P x D) @ (D x K*E), then multiply by hj and sum over E
    p, d = args[0].data.shape
    _, k, e = args[1].data.shape
    return 2 * p * k * e * (d + 1)


def install(tracer: Tracer, ce, builds: BuildLog) -> None:
    """Wrap every layer boundary the benchmark observes.

    ce is a namespace holding the imported crystalembed modules.
    """
    w = tracer.wrap
    tr, ds, cli = ce.training, ce.downstream, ce.cli
    w(ce.structures, "parse_jsonl", "structures.parse")
    for owner in (ce.structures, cli):
        w(owner, "load_jsonl", "structures.load")
    w(cli, "save_jsonl", "structures.save")
    for owner in (ce.periodic_graph, cli, ds):
        w(owner, "build_periodic_graph", "periodic_graph.build", builds.record)
    for owner in (tr, cli):
        w(owner, "multiplicity_targets", "periodic_graph.targets")
    w(ce.periodic_graph.PeriodicGraph, "__post_init__", "periodic_graph.validate")
    w(tr, "two_views", "augmentation.two_views")
    w(ce.augmentation, "augment", "augmentation.augment")
    w(tr, "encode", "encoder.encode", lambda a, _: a[1].graph.num_edges)
    w(tr, "encode_graph", "encoder.encode", lambda a, _: a[1].num_edges)
    w(ds, "apply_layers", "encoder.apply_layers", lambda a, _: a[1].num_edges)
    w(tr, "node_probs", "decoders.node_probs")
    w(tr, "node_nll", "decoders.node_nll")
    w(tr, "adjacency_probs", "decoders.adjacency_probs", lambda a, _: len(a[2]))
    w(tr, "adj_weighted_ce", "decoders.adj_weighted_ce")
    w(tr, "project", "contrastive.project")
    w(tr, "info_nce", "contrastive.info_nce")
    w(ce.autograd.Tensor, "backward", "autograd.backward")
    tracer.count_constructions(ce.autograd.Tensor)
    flops = {"matmul": _matmul_flops, "bilinear": _bilinear_flops}
    for op in AUTOGRAD_OPS:
        w(ce.autograd, op, f"autograd.op.{op}", flops.get(op))
    for owner in (tr, ds):
        w(owner, "adam_step", "optim.adam",
          lambda a, _: sum(p.data.size for p in a[1]))
    w(tr, "save_checkpoint", "checkpoint.save",
      lambda a, _: os.path.getsize(a[0]))
    w(tr, "load_checkpoint", "checkpoint.load")
    w(tr, "pretrain", "training.pretrain")
    w(tr, "pretrain_step", "training.pretrain_step", count_tensors=True)
    w(tr, "extract_embeddings", "embeddings.extract", lambda a, _: len(a[1]))
    w(ds, "label_fraction_sweep", "downstream.sweep")
    w(ds, "train_supervised", "downstream.run", count_tensors=True)
    w(ds.DownstreamModel, "predict", "downstream.predict")
    w(ds, "evaluate_mae", "downstream.eval")


@contextmanager
def traced(ce):
    """Install every wrapper and the guard counter; yields (tracer, builds, guard)."""
    builds, guard = BuildLog(), GuardCounter()
    logger = logging.getLogger(ce.autograd.__name__)
    logger.addHandler(guard)
    try:
        with Tracer() as tracer:
            install(tracer, ce, builds)
            yield tracer, builds, guard
    finally:
        logger.removeHandler(guard)


def build_peak_mb(builds: BuildLog, build) -> float:
    """tracemalloc peak of rebuilding the largest structure built."""
    _, structure, cutoff = builds.largest
    if structure is None:
        return 0.0
    tracemalloc.start()
    try:
        build(structure, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


# -- per-layer metrics -----------------------------------------------------

PER_LAYER = {
    "structures.parse_ms": "ms",
    "structures.parsed": "count",
    "periodic_graph.build_ms": "ms",
    "periodic_graph.builds": "count",
    "periodic_graph.edges": "count",
    "periodic_graph.build_peak_mb": "MB",
    "periodic_graph.disp_mb_computed": "MB",
    "periodic_graph.targets_ms": "ms",
    "periodic_graph.build_reuse": "ratio",
    "periodic_graph.validations": "count",
    "periodic_graph.validate_ms": "ms",
    "augmentation.two_views_ms": "ms",
    "augmentation.views": "count",
    "encoder.encode_ms": "ms",
    "encoder.calls": "count",
    "encoder.edges_per_call": "count",
    "encoder.apply_layers_ms": "ms",
    "decoders.node_ms": "ms",
    "decoders.adj_ms": "ms",
    "decoders.adj_pairs": "count",
    "contrastive.project_ms": "ms",
    "contrastive.info_nce_ms": "ms",
    "autograd.backward_ms": "ms",
    "autograd.tensors_per_step": "count",
    **{f"autograd.op.{op}.{kind}": unit for op in AUTOGRAD_OPS
       for kind, unit in (("calls", "count"), ("ms", "ms"))},
    "autograd.op.matmul.gflops": "GFLOP/s",
    "autograd.op.bilinear.gflops": "GFLOP/s",
    "autograd.eps_guard_hits": "count",
    "autograd.eps_guard_rate": "ratio",
    "optim.adam_ms": "ms",
    "optim.params": "count",
    "checkpoint.save_ms": "ms",
    "checkpoint.saves_per_epoch": "ratio",
    "checkpoint.bytes": "bytes",
    "checkpoint.load_ms": "ms",
    "training.step_self_ms": "ms",
    "training.pretrain_self_ms": "ms",
    "embeddings.extract_ms": "ms",
    "embeddings.extract_self_ms": "ms",
    "downstream.run_ms": "ms",
    "downstream.predict_ms": "ms",
    "downstream.eval_ms": "ms",
    "downstream.graph_build_ms": "ms",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.unattributed_share": "ratio",
    "trace.overhead_pct": "%",
}

# counts and rates: more is better only for throughput-like ratios
HIGHER_IS_BETTER = {"autograd.op.matmul.gflops", "autograd.op.bilinear.gflops",
                    "periodic_graph.build_reuse"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, builds: BuildLog, guard: GuardCounter,
                  epochs_per_pretrain: int, peak_mb: float,
                  overhead_pct: float) -> dict:
    """Per-layer metrics of one traced phase under a single root span.

    Times named *_ms are means per call; counts are totals over the phase;
    shares are self time over the root span's duration.
    """
    roots = [i for i, s in enumerate(tracer.spans) if s[3] < 0]
    if [tracer.spans[i][0] for i in roots] != [ROOT]:
        raise RuntimeError(f"traced phase needs the single root span {ROOT!r}")
    self_ns = tracer.self_ns()
    calls, total, own, value = {}, {}, {}, {}
    for (name, start, end, _, v), s in zip(tracer.spans, self_ns):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + end - start
        own[name] = own.get(name, 0) + s
        value[name] = value.get(name, 0) + v
    root_ns = total[ROOT]

    def n(*names):
        return sum(calls.get(x, 0) for x in names)

    def ms(*names):
        return sum(total.get(x, 0) for x in names) / 1e6

    def per_call(*names, by=None):
        return _ratio(ms(*names), n(*(by or names)))

    def v(name):
        return value.get(name, 0)

    # per optimizer step of the measured passes, so a warm-up step of
    # another batch size does not move it
    step_tensors = step_count = 0
    for i, (name, _, _, _, made) in enumerate(tracer.spans):
        if name in ("training.pretrain_step", "downstream.run", "optim.adam") \
                and tracer.inside(i, "bench.pass"):
            if name == "optim.adam":
                step_count += 1
            else:
                step_tensors += made
    downstream_build_ns = sum(
        end - start for i, (name, start, end, _, _) in enumerate(tracer.spans)
        if name == "periodic_graph.build" and tracer.inside(i, "downstream.run"))
    encoder_calls = n("encoder.encode", "encoder.apply_layers")
    shares = {layer: 0 for layer in LAYERS}
    for name, s in own.items():
        layer = name.split(".", 1)[0]
        if layer in shares:
            shares[layer] += s
    out = {
        "structures.parse_ms": per_call("structures.parse"),
        "structures.parsed": n("structures.parse"),
        "periodic_graph.build_ms": per_call("periodic_graph.build"),
        "periodic_graph.builds": n("periodic_graph.build"),
        "periodic_graph.edges": v("periodic_graph.build"),
        "periodic_graph.build_peak_mb": peak_mb,
        "periodic_graph.disp_mb_computed": builds.largest[0] / 1e6,
        "periodic_graph.targets_ms": per_call("periodic_graph.targets"),
        "periodic_graph.build_reuse": _ratio(len(builds.keys),
                                             n("periodic_graph.build")),
        "periodic_graph.validations": n("periodic_graph.validate"),
        "periodic_graph.validate_ms": per_call("periodic_graph.validate"),
        "augmentation.two_views_ms": per_call("augmentation.two_views"),
        "augmentation.views": n("augmentation.augment"),
        "encoder.encode_ms": per_call("encoder.encode"),
        "encoder.calls": encoder_calls,
        "encoder.edges_per_call": _ratio(
            v("encoder.encode") + v("encoder.apply_layers"), encoder_calls),
        "encoder.apply_layers_ms": per_call("encoder.apply_layers"),
        "decoders.node_ms": per_call("decoders.node_probs", "decoders.node_nll",
                                     by=["decoders.node_probs"]),
        "decoders.adj_ms": per_call("decoders.adjacency_probs",
                                    "decoders.adj_weighted_ce",
                                    by=["decoders.adjacency_probs"]),
        "decoders.adj_pairs": v("decoders.adjacency_probs"),
        "contrastive.project_ms": per_call("contrastive.project"),
        "contrastive.info_nce_ms": per_call("contrastive.info_nce"),
        "autograd.backward_ms": per_call("autograd.backward"),
        "autograd.tensors_per_step": _ratio(step_tensors, step_count),
        "autograd.op.matmul.gflops": _ratio(v("autograd.op.matmul"),
                                            total.get("autograd.op.matmul", 0)),
        "autograd.op.bilinear.gflops": _ratio(
            v("autograd.op.bilinear"), total.get("autograd.op.bilinear", 0)),
        "autograd.eps_guard_hits": guard.hits,
        "autograd.eps_guard_rate": _ratio(guard.hits,
                                          n("autograd.op.l2_normalize_rows")),
        "optim.adam_ms": per_call("optim.adam"),
        "optim.params": _ratio(v("optim.adam"), n("optim.adam")),
        "checkpoint.save_ms": per_call("checkpoint.save"),
        "checkpoint.saves_per_epoch": _ratio(
            n("checkpoint.save"), n("training.pretrain") * epochs_per_pretrain),
        "checkpoint.bytes": _ratio(v("checkpoint.save"), n("checkpoint.save")),
        "checkpoint.load_ms": per_call("checkpoint.load"),
        "training.step_self_ms": _ratio(own.get("training.pretrain_step", 0) / 1e6,
                                        n("training.pretrain_step")),
        "training.pretrain_self_ms": _ratio(own.get("training.pretrain", 0) / 1e6,
                                            n("training.pretrain")),
        "embeddings.extract_ms": _ratio(ms("embeddings.extract"),
                                        v("embeddings.extract")),
        "embeddings.extract_self_ms": _ratio(
            own.get("embeddings.extract", 0) / 1e6, n("embeddings.extract")),
        "downstream.run_ms": per_call("downstream.run"),
        "downstream.predict_ms": per_call("downstream.predict"),
        "downstream.eval_ms": per_call("downstream.eval"),
        "downstream.graph_build_ms": _ratio(downstream_build_ns / 1e6,
                                            n("downstream.run")),
        "trace.unattributed_share": 1.0 - sum(shares.values()) / root_ns,
        "trace.overhead_pct": overhead_pct,
    }
    for op in AUTOGRAD_OPS:
        out[f"autograd.op.{op}.calls"] = n(f"autograd.op.{op}")
        out[f"autograd.op.{op}.ms"] = per_call(f"autograd.op.{op}")
    for layer, s in shares.items():
        out[f"{layer}.self_share"] = s / root_ns
    return {name: out[name] for name in PER_LAYER}


def overhead_pct(untraced_ns, traced_ns) -> float:
    """Traced minus untraced median operation time, in percent of untraced."""
    base = statistics.median(untraced_ns)
    return (statistics.median(traced_ns) - base) / base * 100.0
