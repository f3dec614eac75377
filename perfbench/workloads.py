"""The four benchmark workloads and the correctness checks on their outputs.

Each workload builds its inputs from the workload seed (the default seed is
the frozen acceptance seed), runs passes over them through the library's
public functions and checks what each pass produced. A pass is a pretrain()
call (timed per epoch), one ingest-then-extract round, or one label-fraction
sweep. Supercells are made only of two-site cells with the commonest edge
count, so the work of a run does not change with the seed.

- pretrain-small: pretrain() on 48 two-site cells (N=2), dim 16, batch 16.
  Steps are bound by Python and tape overhead.
- pretrain-supercell: the same path on 3x3x3 supercells (N=54, 1,485 scored
  pairs), dim 64, batch 4. Steps are bound by arithmetic; the control for
  tape-overhead changes.
- ingest-extract: the `ingest` subcommand in-process on JSONL files holding
  cells of N=2, 16, 54 and 128, then load_state and extract_embeddings over
  the ingested structures. Forward-only; stresses parsing and graph builds.
- transfer-sweep: label_fraction_sweep over 64 labeled cells, fractions
  1.0/0.5/0.25, both modes, one seed. The only workload that measures
  `downstream`.

Stored reference values live in reference.json; `python3 perfbench/reference.py`
rewrites them from the current program (do so only when a change is meant to
alter the numbers, and say so).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import statistics
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import crystalembed as ce
import crystalembed.cli  # noqa: F401  (not imported by the package itself)
from tracing import AUTOGRAD_OPS

CUTOFF = 5.0
REFERENCE_PATH = Path(__file__).with_name("reference.json")
# Losses after a few Adam steps: a reassociated float64 sum moves them by
# ~1e-12 relative, a wrong gradient by far more than 1e-6.
LOSS_RTOL = 1e-6
# Forward-only unit vectors: reassociation moves them by ~1e-15.
TABLE_ATOL = 1e-9
NUM_ELEMENTS = len(ce.synthetic.SYNTHETIC_ELEMENTS)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


# -- supercells and their exact graph statistics --------------------------

def supercell(s, k: int):
    """k x k x k supercell of s. Site c*N + i is site i of cell c, where
    cells run over (a, b, c) in 0..k-1 in C order."""
    cells = np.array(list(itertools.product(range(k), repeat=3)), dtype=np.float64)
    frac = ((s.frac_coords[None, :, :] + cells[:, None, :]) / k).reshape(-1, 3)
    return ce.structures.CrystalStructure(
        lattice=s.lattice * k, frac_coords=frac,
        atomic_numbers=np.tile(s.atomic_numbers, len(cells)),
        label=s.label, id=f"{s.id}x{k}")


def supercell_stats(base_graph, k: int):
    """Exact (directed edge count, multiplicity histogram) of the k-supercell.

    Each base edge (i, j, o) leaving cell a lands in cell (a + o) mod k, so
    the supercell has k^3 copies of every base edge and its pair counts
    follow from the base edge list alone.
    """
    n = base_graph.num_nodes
    cells = np.array(list(itertools.product(range(k), repeat=3)))
    cell_index = cells @ np.array([k * k, k, 1])
    size = n * k ** 3
    counts = np.zeros((size, size), dtype=np.int64)
    for i, j, o in zip(base_graph.src, base_graph.dst, base_graph.offsets):
        dst_cells = np.mod(cells + o, k) @ np.array([k * k, k, 1])
        np.add.at(counts, (cell_index * n + i, dst_cells * n + j), 1)
    np.fill_diagonal(counts, counts.diagonal() // 2)
    classes = np.minimum(counts, ce.NUM_MULTIPLICITY_CLASSES - 1)
    return k ** 3 * base_graph.num_edges, _histogram(classes)


def _histogram(classes) -> np.ndarray:
    upper = classes[np.triu_indices(classes.shape[0])]
    return np.bincount(upper, minlength=ce.NUM_MULTIPLICITY_CLASSES)


def graph_stats(graph):
    """(directed edge count, multiplicity histogram) as the library sees it."""
    classes = ce.periodic_graph.multiplicity_targets(graph).classes
    return graph.num_edges, _histogram(classes)


def supercell_checks(bases, ks, graphs) -> list[Check]:
    """Edge counts and histograms of built supercells against the oracle."""
    edge_bad, hist_bad = [], []
    for base, k, graph in zip(bases, ks, graphs):
        base_graph = ce.periodic_graph.build_periodic_graph(base, CUTOFF)
        edges, hist = supercell_stats(base_graph, k)
        got_edges, got_hist = graph_stats(graph)
        if got_edges != edges:
            edge_bad.append(f"{base.id} k={k}: {got_edges} != {edges}")
        if not np.array_equal(got_hist, hist):
            hist_bad.append(f"{base.id} k={k}: {got_hist.tolist()} != {hist.tolist()}")
    n = len(graphs)
    return [Check(f"edge counts = k^3 x base ({n} structures)", not edge_bad,
                  "; ".join(edge_bad[:3])),
            Check(f"multiplicity histograms exact ({n} structures)", not hist_bad,
                  "; ".join(hist_bad[:3]))]


def _finite_losses(history, name="every loss finite") -> Check:
    bad = [rec["epoch"] for rec in history
           if not all(math.isfinite(rec[key]) for key in ce.training.LOSS_KEYS)]
    return Check(name, not bad, f"non-finite epochs {bad}")


def _close(name: str, got, want, rtol=0.0, atol=0.0) -> Check:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    ok = got.shape == want.shape and np.allclose(got, want, rtol=rtol, atol=atol)
    return Check(name, bool(ok), "" if ok else f"got {got.ravel()[:6].tolist()}, "
                                              f"want {want.ravel()[:6].tolist()}")


def table_checks(table) -> list[Check]:
    """The transfer contract of an extracted per-element table."""
    present = table.present
    norms = np.linalg.norm(table.vectors[present], axis=1)
    return [
        Check(f"{NUM_ELEMENTS} elements present", int(present.sum()) == NUM_ELEMENTS,
              f"{int(present.sum())} present"),
        Check("present rows unit norm",
              bool(norms.size and np.max(np.abs(norms - 1.0)) < 1e-9)),
        Check("absent rows zero", bool(np.all(table.vectors[~present] == 0.0))),
    ]


def stored_reference(name: str) -> dict:
    return json.loads(REFERENCE_PATH.read_text())[name]


def _model(cfg, seed: int = 0):
    return ce.model.init_model_params(
        np.random.default_rng(seed), cfg.dim, cfg.num_layers, cfg.rbf_count,
        cfg.cutoff, cfg.temperature, cfg.class_weights)


def _build_all(structures):
    return [ce.periodic_graph.build_periodic_graph(s, CUTOFF) for s in structures]


def _common_edges(cells):
    """Per-cell directed edge counts and the commonest of them.

    Supercells are made only of cells with the commonest count (28 for the
    two-site corpus at cutoff 5), so a k-supercell has N=2k^3 and 28k^3
    edges whatever the seed, and the work of a run does not drift with it.
    """
    edges = [g.num_edges for g in _build_all(cells)]
    return edges, Counter(edges).most_common(1)[0][0]


# -- workloads -------------------------------------------------------------

class Workload:
    """One set of inputs. op names the span whose calls are the operations
    timed for op_ms.p50, as (module, attribute, span name), or None when the
    workload opens its operation spans itself."""

    name = ""
    why = ""
    default_seed = 0
    op = None
    op_span = ""
    epochs_per_pass = 1  # pretrain epochs per pass; pass_s is per epoch
    extra_ops_per_pass = 0  # operations in a pass besides op_span calls
    expected = frozenset()  # spans the traced run must see

    def setup(self, seed: int, work: Path):
        raise NotImplementedError

    def run_pass(self, state, work: Path, tracer):
        raise NotImplementedError

    def check_pass(self, state, output) -> list[Check]:
        raise NotImplementedError

    def final_checks(self, state, seed: int, work: Path) -> list[Check]:
        raise NotImplementedError

    def reference_record(self, work: Path) -> dict:
        raise NotImplementedError

    def named(self, durations) -> list[tuple]:
        """Workload-specific names for the end-to-end figures, as
        (name, value, unit, note); durations(span) lists the nanoseconds of
        that span's calls inside measured passes."""
        raise NotImplementedError


PRETRAIN_EXPECTED = frozenset({
    "periodic_graph.build", "periodic_graph.targets", "periodic_graph.validate",
    "augmentation.two_views", "augmentation.augment", "encoder.encode",
    "decoders.node_probs", "decoders.node_nll", "decoders.adjacency_probs",
    "decoders.adj_weighted_ce", "contrastive.project", "contrastive.info_nce",
    "autograd.backward", "optim.adam", "checkpoint.save", "training.pretrain",
    "training.pretrain_step", *(f"autograd.op.{op}" for op in AUTOGRAD_OPS),
})

ENCODE_OPS = frozenset(f"autograd.op.{op}" for op in (
    "matmul", "row_gather", "row_scatter_add", "concat", "silu", "sigmoid",
    "add", "mul"))


class Pretrain(Workload):
    op = ("training", "pretrain_step", "training.pretrain_step")
    op_span = "training.pretrain_step"
    default_seed = 3
    expected = PRETRAIN_EXPECTED

    def __init__(self, name, why, cells, k, cfg, ref_cells, ref_epochs):
        self.name, self.why = name, why
        self.cells, self.k = cells, k
        self.cfg = ce.training.PretrainConfig(cutoff=CUTOFF, **cfg)
        # the reference run is fixed here, whatever sizes are set later
        self.ref_cells, self.ref_k = ref_cells, k
        self.ref_cfg = replace(self.cfg, epochs=ref_epochs)

    @property
    def epochs_per_pass(self):
        return self.cfg.epochs

    corpus = 48  # supercells come from the commonest cells of this corpus

    def _structures(self, cells: int, k: int, seed: int):
        base = ce.synthetic.make_pretraining_structures(
            cells if k == 1 else self.corpus, seed=seed)
        if k == 1:
            return base, base
        edges, common = _common_edges(base)
        base = [s for s, e in zip(base, edges) if e == common][:cells]
        return base, [supercell(s, k) for s in base]

    def setup(self, seed, work):
        graphs = _build_all(self._structures(self.cells, self.k, seed)[1])
        # warm-up: one step of a throwaway model on the smallest contrastive
        # batch, which allocates every per-graph array shape of a real step
        model = _model(self.cfg)
        opt = ce.optim.AdamState.for_params(model.tensors(), lr=self.cfg.lr)
        ce.training.pretrain_step(graphs[:2], model, opt, self.cfg, [0, 1])
        return graphs

    def run_pass(self, graphs, work, tracer):
        return ce.training.pretrain(graphs, self.cfg, work / "pretrain").history

    def check_pass(self, graphs, history):
        return [_finite_losses(history),
                Check("one log record per epoch", len(history) == self.cfg.epochs)]

    def _reference_history(self, work):
        _, structures = self._structures(self.ref_cells, self.ref_k,
                                         self.default_seed)
        return ce.training.pretrain(_build_all(structures), self.ref_cfg,
                                    work / "reference").history

    def reference_record(self, work):
        return {"cells": self.ref_cells, "k": self.ref_k,
                "config": self.ref_cfg.to_dict(),
                "history": self._reference_history(work)}

    def final_checks(self, graphs, seed, work):
        want = stored_reference(self.name)["history"]
        got = self._reference_history(work)
        keys = ce.training.LOSS_KEYS
        checks = [_finite_losses(got, "reference losses finite"), _close(
            f"losses after {self.ref_cfg.epochs} epochs match reference "
            f"(rtol {LOSS_RTOL:g})",
            [[r[key] for key in keys] for r in got],
            [[r[key] for key in keys] for r in want], rtol=LOSS_RTOL)]
        if self.k > 1:
            base, _ = self._structures(self.cells, self.k, seed)
            checks += supercell_checks(base, [self.k] * len(base), graphs)
        return checks

    def named(self, durations):
        steps = sorted(durations(self.op_span))
        pass_ns = durations("bench.pass")
        out = [("pretrain_step_ms.p50", statistics.median(steps) / 1e6, "ms",
                f"n={len(steps)} steps")]
        # a p90 needs at least ten samples beyond it
        if len(steps) >= 100:
            p90 = steps[math.ceil(0.9 * len(steps)) - 1]
            beyond = sum(x > p90 for x in steps)
            out.append(("pretrain_step_ms.p90", p90 / 1e6, "ms",
                        f"n={len(steps)} steps, {beyond} beyond"))
        out.append(("pretrain_epoch_s",
                    statistics.median(pass_ns) / 1e9 / self.cfg.epochs,
                    "s", f"n={len(pass_ns)} pretrain() calls of "
                         f"{self.cfg.epochs} epochs"))
        return out


class IngestExtract(Workload):
    op_span = "cli.ingest"
    default_seed = 3
    extra_ops_per_pass = 1  # the extraction
    files = 4
    per_file = 20  # consecutive corpus cells, so every element appears
    # the commonest cells of a file become supercells of N = 16, 54 and 128;
    # the rest stay two-site cells (N = 2)
    supercell_ks = (2, 2, 2, 3, 3, 4)
    cfg = ce.training.PretrainConfig(dim=16, num_layers=2, rbf_count=8,
                                     cutoff=CUTOFF, batch_size=16, epochs=1)
    expected = frozenset({
        "structures.load", "structures.parse", "structures.save",
        "periodic_graph.build", "periodic_graph.targets",
        "periodic_graph.validate", "checkpoint.load", "embeddings.extract",
        "encoder.encode", "cli.ingest", "bench.extract", *ENCODE_OPS})
    name = "ingest-extract"
    why = ("read path: JSONL ingest of N=2..128 cells, checkpoint load and "
           "forward-only extraction; parsing and O(N^2) graph builds dominate")

    def _layout(self, seed):
        """(base cell, supercell factor) of every structure, file by file."""
        bases = ce.synthetic.make_pretraining_structures(
            self.files * self.per_file, seed=seed)
        edges, common = _common_edges(bases)
        layout = []
        for f in range(self.files):
            ks = iter(self.supercell_ks)
            lo = f * self.per_file
            for base, e in zip(bases[lo:lo + self.per_file],
                               edges[lo:lo + self.per_file]):
                layout.append((base, next(ks, 1) if e == common else 1))
            if next(ks, None) is not None:
                raise ValueError(f"seed {seed}: file {f} has too few cells "
                                 f"with {common} edges to make its supercells")
        return layout

    def setup(self, seed, work):
        layout = self._layout(seed)
        paths = []
        for f in range(self.files):
            chunk = layout[f * self.per_file:(f + 1) * self.per_file]
            paths.append(work / f"input{f}.jsonl")
            ce.structures.save_jsonl(
                paths[-1], [b if k == 1 else supercell(b, k) for b, k in chunk])
        ckpt = work / "model.ckpt"
        model = _model(self.cfg, seed)
        opt = ce.optim.AdamState.for_params(model.tensors(), lr=self.cfg.lr)
        ce.training.save_state(ckpt, model, opt, self.cfg, 0, [])
        state = {"paths": paths, "ckpt": ckpt, "layout": layout}
        # warm-up: one file through ingest and extraction
        self._ingest(paths[0], work / "warmup")
        self._extract(state, [work / "warmup"])
        return state

    @staticmethod
    def _ingest(path, out) -> tuple[int, str]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = ce.cli.main(["ingest", str(path), "--cutoff", str(CUTOFF),
                                "--out", str(out)])
        return code, sink.getvalue()

    @staticmethod
    def _extract(state, outs):
        model, _, cfg, _, _ = ce.training.load_state(state["ckpt"])
        structures = [s for out in outs
                      for s in ce.structures.load_jsonl(out / "dataset.jsonl")]
        graphs = [ce.periodic_graph.build_periodic_graph(s, cfg.cutoff)
                  for s in structures]
        return graphs, ce.training.extract_embeddings(model, graphs)

    def run_pass(self, state, work, tracer):
        outs, codes = [], []
        for f, path in enumerate(state["paths"]):
            outs.append(work / f"ingested{f}")
            with tracer.span("cli.ingest"):
                codes.append(self._ingest(path, outs[-1]))
        with tracer.span("bench.extract"):
            graphs, table = self._extract(state, outs)
        return outs, codes, graphs, table

    def _oracle(self, state):
        if "oracle" not in state:
            layout = state["layout"]
            stats = [supercell_stats(
                ce.periodic_graph.build_periodic_graph(b, CUTOFF), k)
                for b, k in layout]
            structures = [b if k == 1 else supercell(b, k) for b, k in layout]
            model, _, _, _, _ = ce.training.load_state(state["ckpt"])
            table = ce.training.extract_embeddings(model, _build_all(structures))
            state["oracle"] = (stats, table)
        return state["oracle"]

    def check_pass(self, state, output):
        outs, codes, graphs, table = output
        stats, want_table = self._oracle(state)
        checks = [Check("ingest exit code 0", all(c == 0 for c, _ in codes),
                        "; ".join(msg.strip() for c, msg in codes if c != 0))]
        per_file = self.per_file
        for f, out in enumerate(outs):
            report = json.loads((out / "stats.json").read_text())
            want = stats[f * per_file:(f + 1) * per_file]
            hist = np.sum([h for _, h in want], axis=0)
            edges = [e for e, _ in want]
            checks.append(Check(
                f"ingest stats of file {f} match oracle",
                report["num_structures"] == per_file and report["num_failed"] == 0
                and report["multiplicity_histogram"]
                == {str(c): int(x) for c, x in enumerate(hist)}
                and report["edge_counts"]["min"] == min(edges)
                and report["edge_counts"]["max"] == max(edges),
                json.dumps(report)[:200]))
        got = [graph_stats(g) for g in graphs]
        checks.append(Check(
            f"per-structure edge counts and histograms exact ({len(stats)})",
            len(got) == len(stats) and all(
                e == we and np.array_equal(h, wh)
                for (e, h), (we, wh) in zip(got, stats))))
        checks += table_checks(table)
        checks.append(Check("table equals extraction before ingest (bitwise)",
                            np.array_equal(table.vectors, want_table.vectors)
                            and np.array_equal(table.counts, want_table.counts)))
        return checks

    def _reference_table(self):
        graphs = _build_all(ce.synthetic.make_pretraining_structures(
            48, seed=self.default_seed))
        return ce.training.extract_embeddings(_model(self.cfg, 0), graphs)

    def reference_record(self, work):
        table = self._reference_table()
        return {"vectors": {str(z + 1): table.vectors[z].tolist()
                            for z in np.flatnonzero(table.present)}}

    def final_checks(self, state, seed, work):
        want = stored_reference(self.name)["vectors"]
        table = self._reference_table()
        zs = [int(z) for z in want]
        return table_checks(table) + [_close(
            "frozen-corpus table matches reference",
            table.vectors[np.array(zs) - 1], [want[str(z)] for z in zs],
            atol=TABLE_ATOL)]

    def named(self, durations):
        structures = self.per_file
        op_ns, extract_ns = durations(self.op_span), durations("bench.extract")
        return [
            ("ingest_structs_per_s", structures * len(op_ns) / (sum(op_ns) / 1e9),
             "1/s", f"n={len(op_ns)} files of {structures} structures"),
            ("extract_graphs_per_s",
             self.files * structures * len(extract_ns) / (sum(extract_ns) / 1e9),
             "1/s", f"n={len(extract_ns)} extractions of "
                    f"{self.files * structures} graphs"),
        ]


class TransferSweep(Workload):
    op = ("downstream", "train_supervised", "downstream.run")
    op_span = "downstream.run"
    default_seed = 11
    name = "transfer-sweep"
    why = ("label-fraction sweep, both modes: per-graph predict loops, "
           "apply_layers, backward and Adam on batches of 8; rebuilds graphs per run")
    cfg = ce.downstream.DownstreamConfig(dim=16, num_layers=1, rbf_count=4,
                                         cutoff=CUTOFF, epochs=60,
                                         batch_size=8, lr=1e-2)
    fractions = (1.0, 0.5, 0.25)
    labeled = 64
    ref_epochs = 2
    expected = frozenset({
        "downstream.sweep", "downstream.run", "downstream.predict",
        "downstream.eval", "periodic_graph.build", "encoder.apply_layers",
        "embeddings.extract", "autograd.backward", "optim.adam",
        *ENCODE_OPS})

    def _table(self, seed):
        graphs = _build_all(ce.synthetic.make_pretraining_structures(48, seed=seed))
        encoder_cfg = ce.training.PretrainConfig(dim=self.cfg.dim, num_layers=2,
                                                 rbf_count=8, cutoff=CUTOFF)
        return ce.training.extract_embeddings(_model(encoder_cfg, 0), graphs)

    def setup(self, seed, work):
        labeled = ce.synthetic.make_labeled_structures(self.labeled, seed=seed)
        table = self._table(seed)
        for mode in ce.downstream.MODES:  # warm-up: one epoch per mode
            ce.downstream.train_supervised(
                labeled, replace(self.cfg, mode=mode, epochs=1), table)
        return {"labeled": labeled, "table": table}

    def run_pass(self, state, work, tracer):
        return ce.downstream.label_fraction_sweep(
            state["labeled"], self.cfg, state["table"],
            fractions=self.fractions, n_runs=1)

    def check_pass(self, state, report):
        try:
            ce.downstream.validate_report(report)
            valid, detail = True, ""
        except ce.ValidationError as exc:
            valid, detail = False, str(exc)
        maes = [m for r in report["records"] for m in r["maes"]]
        first = state.setdefault("first_report", report)
        return [
            Check("validate_report passes", valid, detail),
            Check(f"{2 * len(self.fractions)} finite MAEs",
                  len(maes) == 2 * len(self.fractions)
                  and all(math.isfinite(m) for m in maes), str(maes)),
            Check("sweep repeats bitwise", report == first),
        ]

    def _reference_maes(self):
        labeled = ce.synthetic.make_labeled_structures(self.labeled,
                                                       seed=self.default_seed)
        table = self._table(Pretrain.default_seed)
        return [ce.downstream.train_supervised(
                    labeled, replace(self.cfg, mode=mode, epochs=self.ref_epochs),
                    table)[1].maes[0]
                for mode in ce.downstream.MODES]

    def reference_record(self, work):
        return {"epochs": self.ref_epochs, "maes": self._reference_maes()}

    def final_checks(self, state, seed, work):
        want = stored_reference(self.name)["maes"]
        return [_close(f"test MAEs after {self.ref_epochs} epochs match reference "
                       f"(rtol {LOSS_RTOL:g})", self._reference_maes(), want,
                       rtol=LOSS_RTOL)]

    def named(self, durations):
        pass_ns = durations("bench.pass")
        runs = len(durations(self.op_span)) // len(pass_ns)
        return [("sweep_s", statistics.median(pass_ns) / 1e9, "s",
                 f"n={len(pass_ns)} sweeps of {runs} runs")]


WORKLOADS = {w.name: w for w in (
    Pretrain("pretrain-small",
             "frozen acceptance corpus, N=2 cells, dim 16: steps bound by "
             "Python and tape overhead",
             cells=48, k=1,
             cfg=dict(dim=16, num_layers=2, rbf_count=8, batch_size=16,
                      epochs=5, seed=0),
             ref_cells=48, ref_epochs=2),
    Pretrain("pretrain-supercell",
             "3x3x3 supercells, N=54 and 1,485 pairs, dim 64: steps bound by "
             "arithmetic; control for tape-overhead changes",
             cells=8, k=3,
             cfg=dict(dim=64, num_layers=2, rbf_count=8, batch_size=4,
                      epochs=1, seed=0),
             ref_cells=2, ref_epochs=2),
    IngestExtract(),
    TransferSweep(),
)}
