"""Pretraining loop: dual-branch loss, seeded epochs, checkpointing, and
frozen-encoder per-element embedding extraction.

Determinism contract: (seed, config, dataset order) fixes the whole loss
trajectory bit for bit on one thread. Every random draw comes from a seed
sequence keyed on (config seed, epoch number), so resuming from an epoch-k
checkpoint replays exactly the draws an uninterrupted run would make.

Batch layout: a step over B graphs draws two views of each and encodes all
2B of them as one disjoint-union graph (`batch_views`), in the order
[g0 view a, g0 view b, g1 view a, ...]. View v owns union nodes
node_offsets[v]:node_offsets[v + 1], and a per-node segment id (v) tells
every node, scored pair and pooled row which view it belongs to. Each view
keeps the weight it would have on its own, whatever its size:
- L_node is each view's mean NLL over its scored nodes, averaged over views;
- L_adj is each view's class-weighted pair CE, averaged over views; pairs
  are (i, j), i <= j, within one view, and their classes come from that
  graph's own targets, kept on the graph once made (`pair_targets`);
- the projector pools each view by a per-segment mean, so InfoNCE sees 2B
  rows in which row i ^ 1 is the other view of row i's graph.
"""

from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
import json
import math
import time

import numpy as np

from . import autograd as ag
from .augmentation import batch_views, two_views
from .checkpoint import load_checkpoint, save_checkpoint
from .contrastive import info_nce, project
from .decoders import (
    DEFAULT_CLASS_WEIGHTS,
    adj_weighted_ce,
    adjacency_probs,
    node_nll,
    node_probs,
)
from .elements import MAX_Z
from .embeddings import ElementEmbeddingTable, table_from_sums
from .encoder import MAX_SIZE, encode, encode_graph
from .errors import ParseError, ValidationError, from_dict, require_finite
from .model import ModelParams, init_model_params
from .optim import AdamState, adam_step
from .periodic_graph import batch_graphs, multiplicity_targets

LOSS_KEYS = ("L_node", "L_adj", "L_infonce", "L_total")


@dataclass
class PretrainConfig:
    dim: int = 64
    num_layers: int = 2
    rbf_count: int = 16
    cutoff: float = 5.0
    alpha: float = 225.0
    beta: float = 4.0
    gamma: float = 3.0
    lr: float = 3e-2
    batch_size: int = 128
    epochs: int = 100
    mask_ratio: float = 0.15
    drop_ratio: float = 0.15
    temperature: float = 0.1
    class_weights: tuple = DEFAULT_CLASS_WEIGHTS
    node_loss_scope: str = "all"
    seed: int = 0

    def __post_init__(self):
        require_finite(self)
        if min(self.alpha, self.beta, self.gamma) < 0.0:
            raise ValidationError("loss weights must be nonnegative")
        if self.batch_size < 2:
            raise ValidationError("batch_size must be >= 2 for in-batch negatives")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if not (0 < self.dim <= MAX_SIZE and 0 <= self.num_layers <= MAX_SIZE
                and 0 < self.rbf_count <= MAX_SIZE):
            raise ValidationError("bad encoder dimensions")
        if self.cutoff <= 0.0 or self.lr <= 0.0 or self.temperature <= 0.0:
            raise ValidationError("cutoff, lr, and temperature must be positive")
        if not (0.0 <= self.mask_ratio < 1.0 and 0.0 <= self.drop_ratio < 1.0):
            raise ValidationError("augmentation ratios must lie in [0, 1)")
        if self.node_loss_scope not in ("all", "masked"):
            raise ValidationError("node_loss_scope must be 'all' or 'masked'")
        if self.node_loss_scope == "masked" and self.mask_ratio == 0.0:
            raise ValidationError("masked-node loss scope needs mask_ratio > 0")
        self.class_weights = tuple(float(w) for w in self.class_weights)

    to_dict = asdict
    from_dict = classmethod(from_dict)


def pair_targets(g) -> np.ndarray:
    """The multiplicity class of every pair (i, j), i <= j, of g in
    np.triu_indices order, as int8; computed once per graph and kept on it
    (the graph's edges must not change after construction)."""
    if g._pair_classes is None:
        classes = multiplicity_targets(g).classes
        g._pair_classes = classes[np.triu_indices(g.num_nodes)].astype(np.int8)
    return g._pair_classes


def _view_pairs(batch) -> np.ndarray:
    """(P, 2) union node pairs (i, j), i <= j, within each view, view by
    view in np.triu_indices order: union node u pairs with u and every
    later node of its view."""
    u = np.arange(batch.graph.num_nodes)
    count = batch.node_offsets[1:][batch.segments] - u
    first = np.cumsum(count) - count
    i = np.repeat(u, count)
    return np.column_stack([i, np.repeat(u - first, count) + np.arange(len(i))])


def pretrain_losses(graphs, model: ModelParams, cfg: PretrainConfig, view_seeds):
    """Build the combined loss graph for one batch; returns tensors.

    Reconstruction targets (true elements, pair multiplicities) come from
    each ORIGINAL graph; predictions come from the two corrupted views, all
    2B of which are encoded, decoded and projected in one disjoint-union
    pass (see the module docstring for the layout).
    """
    if len(graphs) < 2:
        raise ValidationError("pretraining batch needs at least 2 graphs")
    if len(view_seeds) != len(graphs):
        raise ValidationError("one view seed per graph required")
    views = [view for g, seed in zip(graphs, view_seeds)
             for view in two_views(g, cfg.mask_ratio, cfg.drop_ratio, seed)]
    batch = batch_views(views)
    h = encode(model.encoder, batch)
    scope = batch.masked_nodes if cfg.node_loss_scope == "masked" else None
    loss_node = node_nll(node_probs(h, model.node_decoder),
                         batch.graph.atomic_numbers, scope, batch.segments)
    # both views of a graph score its unordered pairs against its own targets
    pairs = _view_pairs(batch)
    classes = np.concatenate([c for g in graphs for c in (pair_targets(g),) * 2])
    loss_adj = adj_weighted_ce(
        adjacency_probs(h, model.adj_decoder, pairs, batch.segments),
        classes, model.adj_decoder.class_weights, batch.segments[pairs[:, 0]])
    loss_nce = info_nce(project(h, model.projector, batch.segments),
                        model.projector.temperature)
    total = ag.add(
        ag.add(ag.scale(loss_node, cfg.alpha), ag.scale(loss_adj, cfg.beta)),
        ag.scale(loss_nce, cfg.gamma),
    )
    return loss_node, loss_adj, loss_nce, total


def pretrain_step(graphs, model: ModelParams, opt: AdamState,
                  cfg: PretrainConfig, view_seeds) -> dict:
    """One optimizer step on a batch; returns the four loss scalars."""
    losses = pretrain_losses(graphs, model, cfg, view_seeds)
    params = model.tensors()
    for p in params:
        p.zero_grad()
    losses[-1].backward()  # the total
    adam_step(opt, params)
    return {key: float(t.data) for key, t in zip(LOSS_KEYS, losses)}


def _epoch_seeds(seed: int, epoch: int, n: int):
    """Shuffle order and per-position view seeds for one epoch."""
    ss = np.random.SeedSequence(entropy=seed & (2**63 - 1), spawn_key=(1, epoch))
    words = ss.generate_state(n + 1, dtype=np.uint64)
    order = np.random.default_rng(int(words[0])).permutation(n)
    return order, [int(w) for w in words[1:]]


# the optimizer's scalars go in the checkpoint header; m and v are arrays
ADAM_HEADER = tuple(f.name for f in fields(AdamState) if f.init)


def model_arrays(model: ModelParams, opt: AdamState) -> dict:
    arrays = {name: t.data for name, t in model.named().items()}
    for name in model.named():
        arrays[f"adam.m.{name}"] = opt.m[name]
        arrays[f"adam.v.{name}"] = opt.v[name]
    return arrays


def save_state(path, model: ModelParams, opt: AdamState, cfg: PretrainConfig,
               epoch: int, history: list) -> None:
    save_checkpoint(
        path,
        arrays=model_arrays(model, opt),
        config=cfg.to_dict(),
        epoch=epoch,
        history=history,
        adam={name: getattr(opt, name) for name in ADAM_HEADER},
    )


def load_state(path):
    """Rebuild (model, optimizer, config, epoch, history) from a checkpoint
    whose arrays are exactly its config's parameters and their Adam moments."""
    ck = load_checkpoint(path)
    cfg = PretrainConfig.from_dict(ck.config)
    model = init_model_params(
        np.random.default_rng(0), cfg.dim, cfg.num_layers, cfg.rbf_count,
        cfg.cutoff, cfg.temperature, cfg.class_weights,
    )
    wrong = set(ADAM_HEADER) ^ set(ck.adam)
    if wrong:
        raise ParseError(f"{path}: checkpoint adam header keys {sorted(wrong)} "
                         f"are missing or unknown")
    opt = from_dict(AdamState, ck.adam).allocate(model.tensors())
    unread = dict(ck.arrays)
    for name, tensor in model.named().items():
        for key in (name, f"adam.m.{name}", f"adam.v.{name}"):
            if unread.pop(key, None) is None:
                raise ValidationError(f"{path}: checkpoint missing array {key}")
            if ck.arrays[key].shape != tensor.data.shape:
                raise ValidationError(
                    f"{path}: array {key} has shape {ck.arrays[key].shape}, "
                    f"expected {tensor.data.shape}"
                )
        tensor.data = ck.arrays[name]
        opt.m[name][...] = ck.arrays[f"adam.m.{name}"]
        opt.v[name][...] = ck.arrays[f"adam.v.{name}"]
    if unread:
        raise ValidationError(
            f"{path}: checkpoint holds array {next(iter(unread))}, "
            f"which the model its config builds does not read")
    for k, rec in enumerate(ck.history):
        if not (isinstance(rec, dict) and type(rec.get("epoch")) is int
                and all(type(rec.get(key)) in (int, float)
                        and math.isfinite(rec[key]) for key in LOSS_KEYS)):
            raise ParseError(
                f"{path}: checkpoint history entry {k} ({rec!r}) needs an int "
                f"'epoch' and a finite number under each of {list(LOSS_KEYS)}")
    if [rec["epoch"] for rec in ck.history] != list(range(1, ck.epoch + 1)):
        raise ParseError(f"{path}: checkpoint history epochs must run 1..{ck.epoch}")
    return model, opt, cfg, ck.epoch, list(ck.history)


@dataclass
class PretrainResult:
    model: ModelParams
    opt: AdamState
    history: list = field(default_factory=list)
    best_path: str = ""
    final_path: str = ""
    log_path: str = ""


def pretrain(graphs, cfg: PretrainConfig, out_dir, resume_from=None) -> PretrainResult:
    """Full pretraining run over PeriodicGraphs; writes logs and checkpoints.

    Per-epoch JSON-lines log records carry wall_ms for profiling; the loss
    fields are deterministic, the timing field is not. Checkpoints embed the
    loss history without timings so their bytes are reproducible.
    """
    graphs = list(graphs)
    if len(graphs) < 2:
        raise ValidationError(f"pretraining needs at least 2 graphs, got {len(graphs)}")
    if any(g.cutoff != cfg.cutoff for g in graphs):
        raise ValidationError(f"pretraining needs graphs built at cutoff {cfg.cutoff}")
    if resume_from is not None:
        model, opt, saved_cfg, start_epoch, history = load_state(resume_from)
        # only the stop point may move
        if replace(saved_cfg, epochs=cfg.epochs) != cfg:
            raise ValidationError("resume config differs from checkpoint config")
        if cfg.epochs < start_epoch:
            raise ValidationError(f"resume asks for {cfg.epochs} epochs, but the "
                                  f"checkpoint has run {start_epoch}")
        log_mode = "a"
    else:
        init_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed & (2**63 - 1), spawn_key=(0,)))
        model = init_model_params(
            init_rng, cfg.dim, cfg.num_layers, cfg.rbf_count, cfg.cutoff,
            cfg.temperature, cfg.class_weights,
        )
        opt = AdamState.for_params(model.tensors(), lr=cfg.lr)
        start_epoch = 0
        history = []
        log_mode = "w"
    for g in graphs:  # made before the first step, which reads them
        pair_targets(g)
    # only once the resume state has loaded and matched: a failed resume
    # leaves no directory behind
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "log.jsonl"
    best_path = out_dir / "best.ckpt"
    final_path = out_dir / "final.ckpt"

    best_total = min((rec["L_total"] for rec in history), default=float("inf"))
    n = len(graphs)
    with open(log_path, log_mode) as log:
        for epoch in range(start_epoch + 1, cfg.epochs + 1):
            t0 = time.perf_counter()
            order, seeds = _epoch_seeds(cfg.seed, epoch, n)
            slices = [order[lo:lo + cfg.batch_size]
                      for lo in range(0, n, cfg.batch_size)]
            if slices[-1].size < 2 and len(slices) > 1:
                # a trailing singleton cannot form a contrastive pair;
                # fold it into the previous batch
                slices[-2:] = [np.concatenate(slices[-2:])]
            sums = {key: 0.0 for key in LOSS_KEYS}
            for batch_idx in slices:
                batch = [graphs[i] for i in batch_idx]
                batch_seeds = [seeds[i] for i in batch_idx]
                step_losses = pretrain_step(batch, model, opt, cfg, batch_seeds)
                for key in LOSS_KEYS:
                    sums[key] += step_losses[key] * len(batch)
            record = {"epoch": epoch}
            record.update({key: sums[key] / n for key in LOSS_KEYS})
            history.append(dict(record))
            wall_ms = (time.perf_counter() - t0) * 1000.0
            log.write(json.dumps({**record, "wall_ms": wall_ms}) + "\n")
            log.flush()
            if record["L_total"] < best_total:
                best_total = record["L_total"]
                save_state(best_path, model, opt, cfg, epoch, history)
    save_state(final_path, model, opt, cfg, cfg.epochs, history)
    if not best_path.exists():
        save_state(best_path, model, opt, cfg, cfg.epochs, history)
    return PretrainResult(
        model=model, opt=opt, history=history,
        best_path=str(best_path), final_path=str(final_path),
        log_path=str(log_path),
    )


def _unions(graphs, max_edges: int):
    """Consecutive runs of graphs, each filled in input order while its
    edges stay within max_edges; a larger graph is a run of its own. An
    edgeless graph counts as one edge, so at most max_edges graphs share
    a run. Extraction passes one encoder tile's edges, so the fixed cost of
    a union's pass (its batch, its tile bookkeeping) is paid once per tile
    of work."""
    run, edges = [], 0
    for g in graphs:
        size = max(g.num_edges, 1)
        if run and edges + size > max_edges:
            yield run
            run, edges = [], 0
        run.append(g)
        edges += size
    if run:
        yield run


def extract_embeddings(model: ModelParams, graphs) -> ElementEmbeddingTable:
    """Mean node embedding per element over clean graphs, L2-normalized.

    Forward-only, so it runs under `autograd.no_grad`, encoding the graphs
    as disjoint unions of at most one encoder tile of edges each,
    `autograd.tile_edges(dim)` (`_unions`): 2,048 edges at dim 16, so
    dozens of two-site cells share one pass, and the encoder layer runs
    each union as one tile (a larger graph is encoded alone, in tiles).
    Each union's per-(graph, element) sums are folded into the running sums
    graph by graph, the order in which encoding the graphs one at a time
    would add them, so the table does not depend on how they are grouped.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValidationError("cannot extract embeddings from an empty dataset")
    if any(g.cutoff != model.encoder.cutoff for g in graphs):
        raise ValidationError(
            f"extraction needs graphs built at cutoff {model.encoder.cutoff}")
    sums = np.zeros((MAX_Z, model.encoder.dim))
    counts = np.zeros(MAX_Z, dtype=np.int64)
    with ag.no_grad():
        for run in _unions(graphs, ag.tile_edges(model.encoder.dim)):
            batch = batch_graphs(run)
            z = batch.graph.atomic_numbers - 1
            h = encode_graph(model.encoder, batch.graph)
            # one slot per (graph, element) pair present, graph-major
            key = batch.segments * MAX_Z + z
            present = np.zeros(len(run) * MAX_Z, dtype=bool)
            present[key] = True
            slot = np.cumsum(present) - 1
            pair_sums = ag.row_scatter_add(h, slot[key], slot[-1] + 1)
            # each pair's sum onto its element's running sum, in graph order
            np.add.at(sums, np.flatnonzero(present) % MAX_Z, pair_sums.data)
            counts += np.bincount(z, minlength=MAX_Z)
    return table_from_sums(sums, counts)
