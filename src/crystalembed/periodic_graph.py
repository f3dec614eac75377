"""Periodic multigraph construction under periodic boundary conditions.

A node pair can be connected through several lattice images, so edges carry
an integer image offset and the graph is a multigraph. Directed edges are
stored in canonical (src, dst, offset) order and the edge set is closed
under reversal: (i, j, o) always has the mirror (j, i, -o).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .elements import MAX_Z
from .errors import ValidationError
from .structures import CrystalStructure

DIRECTION_NORM_TOL = 1e-9
NUM_MULTIPLICITY_CLASSES = 6  # unordered connection counts 0..4, then "5+"
BIN_REACH_RTOL = 1e-9  # rounding slack on the bins an edge can span
# (site, bin shift) pairs one search may enumerate. The repo's corpora need
# at most 11,664; a one-site cell at 0.91 of the cap (452,718 edges) peaks
# at 216 MB of tracemalloc
MAX_SEARCH_PAIRS = 1_000_000


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
    # int8 multiplicity class of every pair i <= j, np.triu_indices order;
    # filled and kept by training.pair_targets
    _pair_classes: np.ndarray | None = field(default=None, init=False,
                                             repr=False, compare=False)

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
        if np.any((self.atomic_numbers < 1) | (self.atomic_numbers > MAX_Z)):
            raise ValidationError(f"atomic numbers must lie in 1..{MAX_Z}")
        # the initial values let an edgeless graph pass, also one of no nodes
        if self.src.min(initial=0) < 0 or self.src.max(initial=-1) >= self.num_nodes:
            raise ValidationError("edge src index out of range")
        if self.dst.min(initial=0) < 0 or self.dst.max(initial=-1) >= self.num_nodes:
            raise ValidationError("edge dst index out of range")
        if np.any(self.distances <= 0) or np.any(self.distances > self.cutoff):
            raise ValidationError("edge distance outside (0, cutoff]")
        x, y, z = self.directions.T
        # np.linalg.norm's order of adds over a row of 3, so equal bits
        norms = np.sqrt((x * x + y * y) + z * z)
        if np.any(np.abs(norms - 1.0) > DIRECTION_NORM_TOL):
            raise ValidationError("direction vectors must have unit norm")
        keys = _edge_keys(self.num_nodes, self.src, self.dst, self.offsets)
        # _edge_keys has bounded the offsets, so negating them cannot wrap
        mirrors = _edge_keys(self.num_nodes, self.dst, self.src, -self.offsets)
        if np.any(keys == mirrors):
            raise ValidationError("self edge with zero offset")
        # every unordered connection needs as many (i, j, o) halves as
        # (j, i, -o) halves
        reverse = mirrors < keys
        unique, inverse = np.unique(np.minimum(keys, mirrors), return_inverse=True)
        num_groups = len(unique)
        unbalanced = (np.bincount(inverse[reverse], minlength=num_groups)
                      != np.bincount(inverse[~reverse], minlength=num_groups))
        if unbalanced.any():
            k = np.flatnonzero(unbalanced[inverse])[0]
            o = tuple(self.offsets[k].tolist())
            raise ValidationError(
                f"edge ({self.src[k]}, {self.dst[k]}, {o}) lacks its mirror")
        self._groups = (num_groups, inverse)

    @property
    def num_edges(self) -> int:
        return len(self.src)

    def edge_groups(self) -> tuple[int, np.ndarray]:
        """(number of unordered connections, connection id of every directed
        edge), ids in sorted key order as np.unique numbers them. The key of
        a connection is the smaller of its two halves' edge keys. Numbered
        by the check of a constructed graph, so the edge arrays must not
        change after construction; a batch_graphs union has none."""
        return self._groups


def _edge_keys(n: int, src, dst, offsets) -> np.ndarray:
    """One int64 per directed edge that sorts as the tuple (i, j, o) does:
    i, j and the offsets shifted by their largest magnitude m are the digits
    of a mixed-radix number with radices n, n and 2m + 1."""
    n = int(n)
    m = max(int(offsets.max()), -int(offsets.min())) if len(offsets) else 0
    w = 2 * m + 1
    if n * n * w ** 3 >= 2 ** 63:
        raise ValidationError(
            f"edge offsets up to {m} in magnitude over {n} nodes do not fit "
            f"one int64 edge key")
    key = src * n + dst
    for o in offsets.T:
        key = key * w + (o + m)
    return key


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
    """Place graphs side by side in one graph, trusted without a new check.

    edge_masks[b], when given, flags the directed edges of graph b that are
    kept; edge order within each graph is preserved. Precondition: a mask
    keeps or drops both halves of every connection, as `augment`'s do. The
    union then only shifts the node indices of graphs that were validated
    when they were built, so every invariant carries over.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValidationError("cannot batch an empty list of graphs")
    keep = slice(None) if edge_masks is None else np.concatenate(edge_masks)
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    node_offsets = np.concatenate([[0], np.cumsum(sizes)])
    shift = np.repeat(node_offsets[:-1], [g.num_edges for g in graphs])[keep]

    def stack(attr):
        return np.concatenate([getattr(g, attr) for g in graphs])[keep]

    # skip the dataclass __init__, whose __post_init__ runs _check
    union = PeriodicGraph.__new__(PeriodicGraph)
    vars(union).update(
        num_nodes=int(node_offsets[-1]),
        atomic_numbers=np.concatenate([g.atomic_numbers for g in graphs]),
        src=stack("src") + shift,
        dst=stack("dst") + shift,
        offsets=stack("offsets"),
        distances=stack("distances"),
        directions=stack("directions"),
        cutoff=max(g.cutoff for g in graphs),
        _groups=None,
        _pair_classes=None,
    )
    segments = np.repeat(np.arange(len(graphs), dtype=np.int64), sizes)
    return GraphBatch(union, node_offsets, segments)


def build_periodic_graph(s: CrystalStructure, cutoff: float) -> PeriodicGraph:
    """All directed pairs (i, j, o) with 0 < |r_j + o.L - r_i| <= cutoff.

    Linked-cell search (Allen & Tildesley, Computer Simulation of Liquids):
    sites are binned on a grid of fractional cells at least one cutoff reach
    wide per axis, the reach taken from the inverse lattice so heavily skewed
    cells keep all their edges. Each site is paired only with the sites of
    the bins within that reach, each periodic image of a bin visited once,
    so time and memory are linear in the candidate pairs, not in N^2 times
    the lattice images. At most N bins are allocated, so a mostly-vacuum
    cell cannot ask for a huge bin table.
    """
    if not (cutoff > 0 and math.isfinite(cutoff)):
        raise ValidationError(f"cutoff must be positive, got {cutoff}")
    det = np.linalg.det(s.lattice)
    if det < 1e-12:
        raise ValidationError(f"degenerate lattice (det={det})")
    inv = np.linalg.inv(s.lattice)
    # cartesian -> fractional is r @ inv; column norms bound how far one
    # cutoff length reaches along each fractional axis
    with np.errstate(over="ignore"):  # an infinite reach is rejected next
        reach = (cutoff * np.linalg.norm(inv, axis=0)).tolist()
    # a reach of x needs over 2x shifts, so this also bounds the grid below;
    # it rejects inf and nan too
    if not all(x <= MAX_SEARCH_PAIRS for x in reach):
        raise ValidationError(
            f"structure {s.id!r}: cutoff {cutoff} reaches {reach} cells along "
            f"the fractional axes, too far to search")
    n = s.num_sites
    # bins per axis at least one reach wide, at most n bins in all
    nb = [max(1, int(1.0 / max(x, 1.0 / n))) for x in reach]
    while nb[0] * nb[1] * nb[2] > n:
        nb[nb.index(max(nb))] //= 2
    # bin shifts an edge can span; the slack keeps rounding from dropping
    # an edge at exactly the cutoff
    m = [math.ceil(x * k * (1 + BIN_REACH_RTOL)) for x, k in zip(reach, nb)]
    widths = [2 * k + 1 for k in m]
    num_shifts = math.prod(widths)
    if n * num_shifts > MAX_SEARCH_PAIRS:
        raise ValidationError(
            f"structure {s.id!r}: cutoff {cutoff} needs {n * num_shifts} "
            f"(site, bin shift) pairs, over the {MAX_SEARCH_PAIRS} one search "
            f"may take; the cell is too small or too skewed")
    shifts = np.indices(widths).reshape(3, -1).T - m

    # frac_coords lie in [0, 1); sites sorted by flat bin id
    strides = np.array([nb[1] * nb[2], nb[2], 1])
    nb = np.array(nb)
    bins = np.minimum((s.frac_coords * nb).astype(np.int64), nb - 1)
    site_bin = bins @ strides
    order = np.argsort(site_bin, kind="stable")
    counts = np.bincount(site_bin, minlength=strides[0] * nb[0])
    starts = np.cumsum(counts) - counts

    # each (site, shift) pair names one wrapped bin and its lattice image;
    # shifts are distinct, so no (j, offset) candidate is emitted twice
    images, wrapped = np.divmod(bins[:, None, :] + shifts, nb)
    images = images.reshape(-1, 3)
    flat = (wrapped @ strides).ravel()
    per_pair = counts[flat]
    pair = np.repeat(np.arange(len(flat)), per_pair)
    # candidate c is site starts[bin] + (c - first candidate of its pair)
    lag = np.cumsum(per_pair) - per_pair - starts[flat]
    i_idx = pair // len(shifts)
    j_idx = order[np.arange(len(pair)) - lag[pair]]

    # coordinates as (3, .) rows: each gather is one 1-D take per axis
    r = s.cart_coords().T
    disp = np.take(r, j_idx, axis=1)
    disp -= np.take(r, i_idx, axis=1)
    disp += np.take((images.astype(np.float64) @ s.lattice).T, pair, axis=1)
    sq = disp * disp
    # np.linalg.norm's order of adds over a row of 3, so equal bits
    dist = sq[0] + sq[1]
    dist += sq[2]
    np.sqrt(dist, out=dist)
    del sq
    keep = np.flatnonzero((dist > 0.0) & (dist <= cutoff))
    i_idx, j_idx, offsets = i_idx[keep], j_idx[keep], images[pair[keep]]
    # canonical edge order: lexicographic by (src, dst, offset); the keys
    # are distinct, so any sort kind gives this one order
    order = np.argsort(_edge_keys(n, i_idx, j_idx, offsets))
    keep = keep[order]
    distances = dist[keep]
    directions = np.empty((len(keep), 3))
    np.divide(np.take(disp, keep, axis=1), distances, out=directions.T)
    return PeriodicGraph(
        num_nodes=n,
        atomic_numbers=s.atomic_numbers.copy(),
        src=i_idx[order],
        dst=j_idx[order],
        offsets=offsets[order],
        distances=distances,
        directions=directions,
        cutoff=float(cutoff),
    )


@dataclass
class MultiplicityTargets:
    """Unordered image-connection counts per node pair, clamped to 5 ('5+')."""

    classes: np.ndarray  # (N, N) int64 in 0..5, symmetric: multiplicity_targets'


def multiplicity_targets(g: PeriodicGraph) -> MultiplicityTargets:
    """Count unordered image connections per pair; diagonal +-o pairs count once."""
    n = g.num_nodes
    counts = np.bincount(g.src * n + g.dst, minlength=n * n).reshape(n, n)
    # directed self edges come in +-o pairs; one unordered connection each
    np.fill_diagonal(counts, counts.diagonal() // 2)
    return MultiplicityTargets(classes=np.minimum(counts, NUM_MULTIPLICITY_CLASSES - 1))
