"""Stochastic graph corruption: node masking and edge dropping.

A view is a pair of masks over its source graph (kept edges, masked nodes),
so the clean reconstruction targets and the original edge multiset stay
recoverable and no per-view graph has to be built for training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .periodic_graph import GraphBatch, PeriodicGraph, batch_graphs


@dataclass
class AugmentedView:
    """A corrupted view as masks over its source graph: keep flags the
    directed edges of `source` the view retains."""

    source: PeriodicGraph
    keep: np.ndarray  # (E,) bool over source edges
    masked_nodes: np.ndarray  # sorted node indices


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def augment(
    g: PeriodicGraph, mask_ratio: float, drop_ratio: float, seed: int
) -> AugmentedView:
    """One corrupted view of g, deterministic for a fixed seed.

    round(mask_ratio * N) nodes are flagged as masked (at least one whenever
    mask_ratio > 0); round(drop_ratio * unordered-edge-count) unordered edges
    are removed together with their mirrors, so a view keeps or drops whole
    connections, as `batch_graphs` requires.
    """
    for name, r in (("mask_ratio", mask_ratio), ("drop_ratio", drop_ratio)):
        if not (0.0 <= r < 1.0):
            raise ValidationError(f"{name} must lie in [0, 1), got {r}")
    rng = np.random.default_rng(int(seed) & (2**64 - 1))

    n_mask = _round_half_up(mask_ratio * g.num_nodes)
    if mask_ratio > 0.0 and n_mask == 0:
        n_mask = 1
    masked = np.sort(rng.choice(g.num_nodes, size=n_mask, replace=False))

    # one flag per connection, read by both of its directed halves
    n_groups, inverse = g.edge_groups()
    alive = np.ones(n_groups, dtype=bool)
    n_drop = _round_half_up(drop_ratio * n_groups)
    alive[rng.choice(n_groups, size=n_drop, replace=False)] = False
    return AugmentedView(source=g, keep=alive[inverse],
                         masked_nodes=masked.astype(np.int64))


def batch_views(views) -> GraphBatch:
    """Every view's kept edges in one disjoint-union graph; view b is
    segment b and its masked nodes move to union indices."""
    views = list(views)
    batch = batch_graphs([v.source for v in views], [v.keep for v in views])
    batch.masked_nodes = np.concatenate([
        v.masked_nodes + lo for v, lo in zip(views, batch.node_offsets)])
    return batch


def two_views(
    g: PeriodicGraph, mask_ratio: float, drop_ratio: float, seed: int
) -> tuple[AugmentedView, AugmentedView]:
    """Two independent views from deterministic sub-seeds of `seed`."""
    words = np.random.SeedSequence(int(seed) & (2**64 - 1)).generate_state(
        2, dtype=np.uint64
    )
    return (
        augment(g, mask_ratio, drop_ratio, int(words[0])),
        augment(g, mask_ratio, drop_ratio, int(words[1])),
    )
