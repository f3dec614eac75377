"""Periodic multigraph construction under periodic boundary conditions.

A node pair can be connected through several lattice images, so edges carry
an integer image offset and the graph is a multigraph. Directed edges are
stored in canonical (src, dst, offset) order and the edge set is closed
under reversal: (i, j, o) always has the mirror (j, i, -o).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .structures import CrystalStructure

DIRECTION_NORM_TOL = 1e-9
NUM_MULTIPLICITY_CLASSES = 6  # unordered connection counts 0..4, then "5+"


def _lex_order(src, dst, offsets):
    """Canonical edge order: lexicographic by (src, dst, offset)."""
    return np.lexsort((offsets[:, 2], offsets[:, 1], offsets[:, 0], dst, src))


@dataclass
class PeriodicGraph:
    """Directed multigraph over the atoms of one unit cell."""

    num_nodes: int
    atomic_numbers: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    offsets: np.ndarray
    distances: np.ndarray
    directions: np.ndarray
    cutoff: float
    _groups: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self):
        self.atomic_numbers = np.asarray(self.atomic_numbers, dtype=np.int64)
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.offsets = np.asarray(self.offsets, dtype=np.int64).reshape(-1, 3)
        self.distances = np.asarray(self.distances, dtype=np.float64)
        self.directions = np.asarray(self.directions, dtype=np.float64).reshape(-1, 3)
        self._check()

    def _check(self):
        e = len(self.src)
        if not (
            len(self.dst) == e
            and self.offsets.shape == (e, 3)
            and self.distances.shape == (e,)
            and self.directions.shape == (e, 3)
        ):
            raise ValidationError("edge array lengths disagree")
        if self.atomic_numbers.shape != (self.num_nodes,):
            raise ValidationError("atomic_numbers length != num_nodes")
        if e == 0:
            return
        if self.src.min() < 0 or self.src.max() >= self.num_nodes:
            raise ValidationError("edge src index out of range")
        if self.dst.min() < 0 or self.dst.max() >= self.num_nodes:
            raise ValidationError("edge dst index out of range")
        if np.any(self.distances <= 0) or np.any(self.distances > self.cutoff):
            raise ValidationError("edge distance outside (0, cutoff]")
        norms = np.linalg.norm(self.directions, axis=1)
        if np.any(np.abs(norms - 1.0) > DIRECTION_NORM_TOL):
            raise ValidationError("direction vectors must have unit norm")
        zero_self = (self.src == self.dst) & np.all(self.offsets == 0, axis=1)
        if np.any(zero_self):
            raise ValidationError("self edge with zero offset")
        # every unordered connection needs as many (i, j, o) halves as
        # (j, i, -o) halves
        num_groups, inverse = self.edge_groups()
        reverse = self._reverse_half()
        unbalanced = (np.bincount(inverse[reverse], minlength=num_groups)
                      != np.bincount(inverse[~reverse], minlength=num_groups))
        bad = np.flatnonzero(unbalanced[inverse])
        if bad.size:
            i, j, o = self.edge_keys()[bad[0]]
            raise ValidationError(f"edge ({i}, {j}, {o}) lacks its mirror")

    @property
    def num_edges(self) -> int:
        return len(self.src)

    def edge_keys(self) -> list[tuple[int, int, tuple[int, int, int]]]:
        """Directed edge identities as hashable tuples."""
        return [
            (int(i), int(j), (int(o[0]), int(o[1]), int(o[2])))
            for i, j, o in zip(self.src, self.dst, self.offsets)
        ]

    def edge_multiset(self) -> Counter:
        return Counter(self.edge_keys())

    def _reverse_half(self) -> np.ndarray:
        """True where (j, i, -o) sorts before the edge's own (i, j, o)."""
        o = self.offsets
        first = o[np.arange(len(o)), np.argmax(o != 0, axis=1)]
        return (self.dst < self.src) | ((self.dst == self.src) & (first > 0))

    def unordered_keys(self) -> np.ndarray:
        """Canonical unordered key per directed edge, as an (E, 5) int array.

        The key of (i, j, o) is the lexicographic minimum of (i, j, o) and
        (j, i, -o); the two halves of an unordered connection share it.
        """
        fwd = np.column_stack([self.src, self.dst, self.offsets])
        rev = np.column_stack([self.dst, self.src, -self.offsets])
        return np.where(self._reverse_half()[:, None], rev, fwd)

    def edge_groups(self) -> tuple[int, np.ndarray]:
        """(number of unordered connections, connection id of every directed
        edge), ids in sorted key order as np.unique numbers them. Computed
        once per graph and kept, so the edge arrays must not change after
        construction."""
        if self._groups is None:
            keys = self.unordered_keys()
            order = np.lexsort(keys.T[::-1])
            ordered = keys[order]
            starts = np.ones(len(keys), dtype=bool)
            starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
            inverse = np.empty(len(keys), dtype=np.int64)
            inverse[order] = np.cumsum(starts) - 1
            self._groups = (int(starts.sum()), inverse)
        return self._groups


@dataclass
class GraphBatch:
    """Disjoint union of B graphs as one PeriodicGraph.

    Graph b owns union nodes node_offsets[b]:node_offsets[b + 1] and
    segments[v] is the graph that owns union node v. masked_nodes lists
    union nodes whose features the encoder hides (empty unless set).
    """

    graph: PeriodicGraph
    node_offsets: np.ndarray  # (B + 1,)
    segments: np.ndarray  # (sum of N,)
    masked_nodes: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def num_graphs(self) -> int:
        return len(self.node_offsets) - 1


def batch_graphs(graphs, edge_masks=None) -> GraphBatch:
    """Place graphs side by side in one validated graph.

    edge_masks[b], when given, selects the directed edges of graph b that
    are kept; edge order within each graph is preserved.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValidationError("cannot batch an empty list of graphs")
    if edge_masks is None:
        edge_masks = [slice(None)] * len(graphs)
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    node_offsets = np.concatenate([[0], np.cumsum(sizes)])

    def stack(attr):
        return np.concatenate([getattr(g, attr)[m]
                               for g, m in zip(graphs, edge_masks)])

    src, dst = stack("src"), stack("dst")
    kept = [len(g.src[m]) for g, m in zip(graphs, edge_masks)]
    shift = np.repeat(node_offsets[:-1], kept)
    union = PeriodicGraph(
        num_nodes=int(node_offsets[-1]),
        atomic_numbers=np.concatenate([g.atomic_numbers for g in graphs]),
        src=src + shift,
        dst=dst + shift,
        offsets=stack("offsets"),
        distances=stack("distances"),
        directions=stack("directions"),
        cutoff=max(g.cutoff for g in graphs),
    )
    segments = np.repeat(np.arange(len(graphs), dtype=np.int64), sizes)
    return GraphBatch(union, node_offsets, segments)


def build_periodic_graph(s: CrystalStructure, cutoff: float) -> PeriodicGraph:
    """All directed pairs (i, j, o) with 0 < |r_j + o.L - r_i| <= cutoff.

    The image-offset search box is derived from the inverse lattice per axis,
    so heavily skewed cells keep all their edges.
    """
    if not (cutoff > 0 and math.isfinite(cutoff)):
        raise ValidationError(f"cutoff must be positive, got {cutoff}")
    det = np.linalg.det(s.lattice)
    if det < 1e-12:
        raise ValidationError(f"degenerate lattice (det={det})")
    inv = np.linalg.inv(s.lattice)
    # cartesian -> fractional is r @ inv; column norms bound how far one
    # cutoff length reaches along each fractional axis
    reach = cutoff * np.linalg.norm(inv, axis=0)
    bounds = np.ceil(reach).astype(int) + 1

    grids = np.meshgrid(*(np.arange(-b, b + 1) for b in bounds), indexing="ij")
    all_offsets = np.stack([g.ravel() for g in grids], axis=1)

    r = s.cart_coords()
    n = s.num_sites
    base = r[None, :, :] - r[:, None, :]  # [i, j] = r_j - r_i
    shift = all_offsets.astype(np.float64) @ s.lattice
    disp = base[None, :, :, :] + shift[:, None, None, :]
    dist = np.linalg.norm(disp, axis=-1)
    mask = (dist > 0.0) & (dist <= cutoff)

    o_idx, i_idx, j_idx = np.nonzero(mask)
    distances = dist[o_idx, i_idx, j_idx]
    directions = disp[o_idx, i_idx, j_idx] / distances[:, None]
    offsets = all_offsets[o_idx]

    order = _lex_order(i_idx, j_idx, offsets)
    return PeriodicGraph(
        num_nodes=n,
        atomic_numbers=s.atomic_numbers.copy(),
        src=i_idx[order],
        dst=j_idx[order],
        offsets=offsets[order],
        distances=distances[order],
        directions=directions[order],
        cutoff=float(cutoff),
    )


@dataclass
class MultiplicityTargets:
    """Unordered image-connection counts per node pair, clamped to 5 ('5+')."""

    classes: np.ndarray

    def __post_init__(self):
        self.classes = np.asarray(self.classes, dtype=np.int64)
        n = self.classes.shape[0]
        if self.classes.shape != (n, n):
            raise ValidationError("classes must be square")
        if not np.array_equal(self.classes, self.classes.T):
            raise ValidationError("classes must be symmetric")
        if self.classes.min() < 0 or self.classes.max() >= NUM_MULTIPLICITY_CLASSES:
            raise ValidationError("classes must lie in 0..5")


def multiplicity_targets(g: PeriodicGraph) -> MultiplicityTargets:
    """Count unordered image connections per pair; diagonal +-o pairs count once."""
    n = g.num_nodes
    counts = np.bincount(g.src * n + g.dst, minlength=n * n).reshape(n, n)
    # directed self edges come in +-o pairs; one unordered connection each
    diag = counts.diagonal().copy() // 2
    np.fill_diagonal(counts, diag)
    return MultiplicityTargets(classes=np.minimum(counts, NUM_MULTIPLICITY_CLASSES - 1))


def all_unordered_pairs(num_nodes: int) -> list[tuple[int, int]]:
    """Every unordered node pair (i, j) with i <= j, in row-major order."""
    return [(i, j) for i in range(num_nodes) for j in range(i, num_nodes)]
