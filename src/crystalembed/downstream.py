"""Supervised property regression on labeled crystals.

Two modes share one architecture (message-passing layers, mean pool, linear
head) and differ only in where initial atom features come from: a trainable
per-element lookup learned from scratch (baseline), or frozen rows of a
pretrained element embedding table passed through a small trainable linear
adapter (pretrained). `_check_table` is the one table check; a pretrained
run makes it over every structure before its first step. The label-fraction
sweep shrinks the training split while leaving validation and test
untouched, then compares the two modes.
"""

from dataclasses import asdict, dataclass, fields, replace
import math

import numpy as np

from . import autograd as ag
from .autograd import ParameterGroup, Tensor
from .elements import MAX_Z, z_to_symbol
from .embeddings import ElementEmbeddingTable
from .encoder import apply_layers, init_layers
from .errors import FeaturizationError, ValidationError, from_dict, require_finite
from .optim import AdamState, adam_step
from .periodic_graph import (GraphBatch, PeriodicGraph, batch_graphs,
                             build_periodic_graph)

MODES = ("baseline", "pretrained")


@dataclass
class DownstreamConfig:
    mode: str = "baseline"
    dim: int = 16
    num_layers: int = 1
    rbf_count: int = 4
    cutoff: float = 5.0
    label_fraction: float = 1.0
    epochs: int = 60
    lr: float = 1e-2
    batch_size: int = 16
    adapter_noise: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        require_finite(self)
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}")
        if not 0.0 < self.label_fraction <= 1.0:
            raise ValidationError("label_fraction must lie in (0, 1]")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be >= 1")
        if self.lr <= 0.0 or self.cutoff <= 0.0:
            raise ValidationError("lr and cutoff must be positive")
        if self.dim < 1 or self.num_layers < 0 or self.rbf_count < 1:
            raise ValidationError("bad encoder dimensions")
        if self.adapter_noise < 0.0:
            raise ValidationError("adapter_noise must be nonnegative")

    to_dict = asdict
    from_dict = classmethod(from_dict)


def _check_table(table: ElementEmbeddingTable | None, dim: int,
                 atomic_numbers) -> None:
    """The one table check: table exists, has width dim and holds a row for
    every element of atomic_numbers. ValidationError for the first two,
    FeaturizationError naming every missing element."""
    if table is None:
        raise ValidationError("pretrained mode requires an embedding table")
    if table.dim != dim:
        raise ValidationError(
            f"embedding table dim {table.dim} != configured dim {dim}")
    numbers = np.asarray(atomic_numbers, dtype=np.int64)
    missing = sorted(set(numbers[~table.present[numbers - 1]].tolist()))
    if missing:
        names = ", ".join(f"{z_to_symbol(z)} (Z={z})" for z in missing)
        raise FeaturizationError(f"elements absent from embedding table: {names}")


@dataclass
class DownstreamModel(ParameterGroup):
    """Atom features, message-passing layers, mean pool, linear head. A
    baseline model learns `lookup`; a pretrained one reads the held `table`
    through `adapter_w` and `adapter_b`. The other mode's fields are None."""
    cfg: DownstreamConfig
    lookup: Tensor | None
    adapter_w: Tensor | None
    adapter_b: Tensor | None
    table: ElementEmbeddingTable | None
    layers: list
    head_w: Tensor
    head_b: Tensor

    def features(self, graph: PeriodicGraph) -> Tensor:
        """The (N, dim) initial atom features; in pretrained mode an element
        absent from the table is a FeaturizationError naming it."""
        if self.cfg.mode == "baseline":
            return ag.row_gather(self.lookup, graph.atomic_numbers - 1)
        _check_table(self.table, self.cfg.dim, graph.atomic_numbers)
        rows = ag.constant(self.table.vectors[graph.atomic_numbers - 1])
        return ag.add(ag.matmul(rows, self.adapter_w), self.adapter_b)

    def predict(self, batch: GraphBatch) -> Tensor:
        """One prediction per graph of the batch, (B, 1), from one forward
        pass over its disjoint union."""
        h = apply_layers(self.layers, batch.graph, self.features(batch.graph),
                         self.cfg.rbf_count, self.cfg.cutoff)
        pooled = ag.segment_mean(h, batch.segments, batch.num_graphs)
        return ag.add(ag.matmul(pooled, self.head_w), self.head_b)


def init_downstream_model(cfg: DownstreamConfig, rng: np.random.Generator,
                          table: ElementEmbeddingTable | None = None
                          ) -> DownstreamModel:
    """A fresh model drawn from rng: the feature parameters, then the layers,
    then the head. baseline draws a 118 x dim lookup and ignores table;
    pretrained checks table and draws a near-identity adapter."""
    lookup = adapter_w = adapter_b = None
    if cfg.mode == "baseline":
        table = None
        lookup = ag.parameter(rng.normal(size=(MAX_Z, cfg.dim)),
                              "downstream.lookup")
    else:
        _check_table(table, cfg.dim, ())
        adapter_w = ag.parameter(
            np.eye(cfg.dim) + cfg.adapter_noise * rng.normal(size=(cfg.dim, cfg.dim)),
            "downstream.adapter_w")
        adapter_b = ag.parameter(np.zeros(cfg.dim), "downstream.adapter_b")
    layers = init_layers(rng, cfg.dim, cfg.num_layers, cfg.rbf_count,
                         "downstream")
    head_w = ag.parameter(rng.normal(0.0, cfg.dim ** -0.5, size=(cfg.dim, 1)),
                          "downstream.head_w")
    head_b = ag.parameter(np.zeros(1), "downstream.head_b")
    return DownstreamModel(cfg, lookup, adapter_w, adapter_b, table, layers,
                           head_w, head_b)


def split_indices(n: int, seed: int):
    """80/10/10 train/val/test by seeded shuffle; remainder goes to test."""
    if n < 10:
        raise ValidationError("need at least 10 labeled structures to split")
    rng = np.random.default_rng(np.random.SeedSequence((seed & (2**63 - 1), 10)))
    order = rng.permutation(n)
    n_train = int(math.floor(0.8 * n))
    n_val = int(math.floor(0.1 * n))
    return (order[:n_train],
            order[n_train:n_train + n_val],
            order[n_train + n_val:])


def _batch_mae(model: DownstreamModel, batch: GraphBatch, labels) -> Tensor:
    preds = model.predict(batch)
    target = ag.constant(np.asarray(labels, dtype=np.float64).reshape(-1, 1))
    return ag.mean_all(ag.abs_(ag.sub(preds, target)))


def evaluate_mae(model: DownstreamModel, batch: GraphBatch, labels) -> float:
    """The batch's MAE from a forward pass that records nothing."""
    with ag.no_grad():
        return float(_batch_mae(model, batch, labels).data)


@dataclass
class EvalReport:
    dim: int
    fraction: float
    mode: str
    seeds: list
    maes: list
    mean: float
    std: float | None
    improvement_pct: float | None = None

    to_dict = asdict


def summarize_runs(dim, fraction, mode, seeds, maes,
                   improvement_pct=None) -> EvalReport:
    maes = [float(m) for m in maes]
    if len(maes) != len(seeds) or not maes:
        raise ValidationError("one MAE per seed required")
    std = float(np.std(maes, ddof=1)) if len(maes) >= 2 else None
    return EvalReport(dim=dim, fraction=float(fraction), mode=mode,
                      seeds=[int(s) for s in seeds], maes=maes,
                      mean=float(np.mean(maes)), std=std,
                      improvement_pct=improvement_pct)


def improvement_pct(baseline: float, method: float) -> float:
    """Relative MAE reduction in percent: positive means method wins."""
    if baseline == 0.0:
        raise ValidationError("baseline MAE of zero has no relative improvement")
    return (baseline - method) / baseline * 100.0


def _split(n: int, cfg: DownstreamConfig):
    """split_indices with the training rows cut to cfg.label_fraction."""
    train_idx, val_idx, test_idx = split_indices(n, cfg.seed)
    keep = int(round(cfg.label_fraction * len(train_idx)))
    if keep < 1:
        raise ValidationError(
            f"label_fraction {cfg.label_fraction} leaves no training samples")
    return train_idx[:keep], val_idx, test_idx


def train_supervised(structures, cfg: DownstreamConfig,
                     table: ElementEmbeddingTable | None = None, *,
                     graphs=None):
    """Train one model; returns (model, single-run EvalReport).

    graphs, when given, are the structures' periodic graphs at cfg.cutoff,
    in the same order, so several runs can share one build of them; each is
    checked against its structure's sites before the split.
    Test MAE is reported at the best-validation epoch, not the last one.
    """
    structures = list(structures)
    for s in structures:
        if s.label is None:
            raise ValidationError(f"structure {s.id!r} has no label")
    if cfg.mode == "pretrained":  # every split's elements, before any step
        _check_table(table, cfg.dim,
                     [z for s in structures for z in s.atomic_numbers])
    if graphs is None:
        graphs = [build_periodic_graph(s, cfg.cutoff) for s in structures]
    elif len(graphs) != len(structures) or any(g.cutoff != cfg.cutoff
                                               for g in graphs):
        raise ValidationError(f"graphs= needs one graph per structure, built "
                              f"at cutoff {cfg.cutoff}")
    else:
        for i, (s, g) in enumerate(zip(structures, graphs)):
            if not np.array_equal(g.atomic_numbers, s.atomic_numbers):
                raise ValidationError(f"graphs[{i}] is not the graph of "
                                      f"structure {s.id!r}: its sites differ")
    labels = np.array([s.label for s in structures])  # CrystalStructure made each a float

    train_idx, val_idx, test_idx = _split(len(graphs), cfg)

    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed & (2**63 - 1), 11)))
    model = init_downstream_model(cfg, rng, table)
    params = model.tensors()
    opt = AdamState.for_params(params, lr=cfg.lr)

    # the evaluation sets do not change during a run: batch each once
    val_batch = batch_graphs([graphs[i] for i in val_idx])
    test_batch = batch_graphs([graphs[i] for i in test_idx])
    val_labels = labels[val_idx]
    best_val = float("inf")
    best_snapshot = [p.data.copy() for p in params]
    for epoch in range(1, cfg.epochs + 1):
        epoch_rng = np.random.default_rng(
            np.random.SeedSequence((cfg.seed & (2**63 - 1), 12, epoch)))
        order = epoch_rng.permutation(len(train_idx))
        for lo in range(0, len(order), cfg.batch_size):
            chunk = train_idx[order[lo:lo + cfg.batch_size]]
            loss = _batch_mae(model, batch_graphs([graphs[i] for i in chunk]),
                              labels[chunk])
            for p in params:
                p.zero_grad()
            loss.backward()
            adam_step(opt, params)
        val_mae = evaluate_mae(model, val_batch, val_labels)
        if val_mae < best_val:
            best_val = val_mae
            best_snapshot = [p.data.copy() for p in params]
    for p, data in zip(params, best_snapshot):
        p.data = data
    test_mae = evaluate_mae(model, test_batch, labels[test_idx])
    report = summarize_runs(cfg.dim, cfg.label_fraction, cfg.mode,
                            [cfg.seed], [test_mae])
    return model, report


def label_fraction_sweep(structures, cfg: DownstreamConfig,
                         table: ElementEmbeddingTable,
                         fractions=(1.0, 0.5, 0.25), n_runs: int = 4,
                         base_seed: int = 0) -> dict:
    """Both modes x all fractions x n_runs paired seeds.

    Within one (fraction, run) cell both modes share a split seed, so their
    MAEs are directly comparable. Every run's config and split, and the
    table against cfg.dim and the data's elements, are checked, and every
    structure's graph built once, before the first run trains.
    """
    if n_runs < 1:
        raise ValidationError("n_runs must be >= 1")
    if not fractions:
        raise ValidationError("fractions must name at least one label fraction")
    structures = list(structures)
    seeds = [base_seed + run for run in range(n_runs)]  # shared by both modes
    runs = {(fraction, mode): [replace(cfg, mode=mode, label_fraction=fraction,
                                       seed=seed) for seed in seeds]
            for fraction in fractions for mode in MODES}
    for run_cfgs in runs.values():
        for run_cfg in run_cfgs:
            _split(len(structures), run_cfg)
    _check_table(table, cfg.dim,
                np.concatenate([s.atomic_numbers for s in structures]))
    graphs = [build_periodic_graph(s, cfg.cutoff) for s in structures]
    records, rows = [], []
    for fraction in fractions:
        maes = {mode: [] for mode in MODES}
        for mode in MODES:
            for run_cfg in runs[fraction, mode]:
                _, rep = train_supervised(structures, run_cfg,
                                          table if mode == "pretrained" else None,
                                          graphs=graphs)
                maes[mode].append(rep.maes[0])
        base_maes, pre_maes = maes["baseline"], maes["pretrained"]
        baseline_rep = summarize_runs(cfg.dim, fraction, "baseline", seeds, base_maes)
        pretrained_rep = summarize_runs(
            cfg.dim, fraction, "pretrained", seeds, pre_maes,
            improvement_pct=improvement_pct(
                float(np.mean(base_maes)), float(np.mean(pre_maes))))
        records.extend([baseline_rep.to_dict(), pretrained_rep.to_dict()])
        rows.append({
            "fraction": float(fraction),
            "baseline": baseline_rep.to_dict(),
            "pretrained": pretrained_rep.to_dict(),
            "improvement_pct": pretrained_rep.improvement_pct,
            "pretrained_wins": int(sum(p < b for p, b
                                       in zip(pre_maes, base_maes))),
        })
    report = {"dim": cfg.dim, "n_runs": n_runs,
              "fractions": [float(f) for f in fractions],
              "records": records, "rows": rows}
    validate_report(report)
    return report


def validate_report(report: dict) -> None:
    """Schema check for the sweep report, whose records carry the annotated
    fields of EvalReport; raises ValidationError."""
    record_types = {f.name: f.type for f in fields(EvalReport)}
    for key in ("dim", "n_runs", "fractions", "records", "rows"):
        if key not in report:
            raise ValidationError(f"report missing key {key!r}")
    for record in report["records"]:
        if set(record) != set(record_types):
            raise ValidationError(
                f"record keys {sorted(record)} != {sorted(record_types)}")
        for key, types in record_types.items():
            if not isinstance(record[key], types):
                raise ValidationError(f"record field {key!r} has wrong type")
        if record["mode"] not in MODES:
            raise ValidationError(f"bad mode {record['mode']!r}")
        if len(record["maes"]) != len(record["seeds"]):
            raise ValidationError("maes/seeds length mismatch")
    for row in report["rows"]:
        for key in ("fraction", "baseline", "pretrained", "improvement_pct",
                    "pretrained_wins"):
            if key not in row:
                raise ValidationError(f"row missing key {key!r}")


def render_sweep_table(report: dict) -> str:
    """Plain-text table: Dim | %Labeled | Baseline | Pretrained | Improv.%"""
    def cell(rec):
        if rec["std"] is None:
            return f"{rec['mean']:.4f}"
        return f"{rec['mean']:.4f} ± {rec['std']:.4f}"

    header = f"{'Dim':>4}  {'%Labeled':>8}  {'Baseline':>19}  " \
             f"{'Pretrained':>19}  {'Improv.%':>9}"
    lines = [header, "-" * len(header)]
    for row in report["rows"]:
        lines.append(
            f"{report['dim']:>4}  {row['fraction'] * 100:>7.0f}%  "
            f"{cell(row['baseline']):>19}  {cell(row['pretrained']):>19}  "
            f"{row['improvement_pct']:>+8.2f}%"
        )
    return "\n".join(lines)
