"""Independent oracles and small builders shared across the test suite.

Everything here is deliberately naive (brute force, explicit loops) so it
stays independent of the library code paths it checks.
"""

import json
import math
from collections import Counter
from itertools import product
from types import SimpleNamespace

import numpy as np

from crystalembed import autograd as ag
from crystalembed.elements import MAX_Z
from crystalembed.embeddings import format_float17, table_from_sums
from crystalembed.encoder import edge_features, encode_graph
from crystalembed.periodic_graph import (BIN_REACH_RTOL,
                                         NUM_MULTIPLICITY_CLASSES,
                                         PeriodicGraph, build_periodic_graph,
                                         multiplicity_targets)
from crystalembed.structures import CrystalStructure
from crystalembed.synthetic import make_pretraining_structures


def brute_force_edges(structure, cutoff, pad=2):
    """Enumerate a generously padded offset box and return the directed edge
    multiset {(i, j, (o1, o2, o3)): count} with 0 < dist <= cutoff."""
    lat = structure.lattice
    r = structure.frac_coords @ lat
    inv = np.linalg.inv(lat)
    bounds = np.ceil(cutoff * np.linalg.norm(inv, axis=0)).astype(int) + 1 + pad
    edges = Counter()
    n = len(r)
    for o1, o2, o3 in product(*(range(-b, b + 1) for b in bounds)):
        shift = np.array([o1, o2, o3], dtype=float) @ lat
        for i in range(n):
            for j in range(n):
                d = np.linalg.norm(r[j] + shift - r[i])
                if 0.0 < d <= cutoff:
                    edges[(i, j, (o1, o2, o3))] += 1
    return edges


def build_periodic_graph_by_rows(s, cutoff):
    """`build_periodic_graph`'s linked-cell search on (P, 3) coordinate rows:
    row gathers, np.linalg.norm over each row and one lexsort over the
    offset columns. The column-wise builder must match it bit for bit."""
    inv = np.linalg.inv(s.lattice)
    reach = (cutoff * np.linalg.norm(inv, axis=0)).tolist()
    n = s.num_sites
    nb = [max(1, int(1.0 / max(x, 1.0 / n))) for x in reach]
    while nb[0] * nb[1] * nb[2] > n:
        nb[nb.index(max(nb))] //= 2
    m = [math.ceil(x * k * (1 + BIN_REACH_RTOL)) for x, k in zip(reach, nb)]
    shifts = np.indices([2 * k + 1 for k in m]).reshape(3, -1).T - m

    strides = np.array([nb[1] * nb[2], nb[2], 1])
    nb = np.array(nb)
    bins = np.minimum((s.frac_coords * nb).astype(np.int64), nb - 1)
    site_bin = bins @ strides
    order = np.argsort(site_bin, kind="stable")
    counts = np.bincount(site_bin, minlength=strides[0] * nb[0])
    starts = np.cumsum(counts) - counts

    images, wrapped = np.divmod(bins[:, None, :] + shifts, nb)
    images = images.reshape(-1, 3)
    flat = (wrapped @ strides).ravel()
    per_pair = counts[flat]
    pair = np.repeat(np.arange(len(flat)), per_pair)
    lag = np.cumsum(per_pair) - per_pair - starts[flat]
    i_idx = pair // len(shifts)
    j_idx = order[np.arange(len(pair)) - lag[pair]]

    r = s.cart_coords()
    disp = (r[j_idx] - r[i_idx]) + (images.astype(np.float64) @ s.lattice)[pair]
    dist = np.linalg.norm(disp, axis=-1)
    keep = np.flatnonzero((dist > 0.0) & (dist <= cutoff))
    i_idx, j_idx, offsets = i_idx[keep], j_idx[keep], images[pair[keep]]
    distances = dist[keep]
    directions = disp[keep] / distances[:, None]

    order = np.lexsort((offsets[:, 2], offsets[:, 1], offsets[:, 0], j_idx, i_idx))
    return PeriodicGraph(
        num_nodes=n, atomic_numbers=s.atomic_numbers.copy(),
        src=i_idx[order], dst=j_idx[order], offsets=offsets[order],
        distances=distances[order], directions=directions[order],
        cutoff=float(cutoff))


def unordered_key_rows(g):
    """Canonical unordered key per directed edge, as an (E, 5) int array.

    The key of (i, j, o) is the lexicographic minimum of (i, j, o) and
    (j, i, -o); the two halves of an unordered connection share it.
    """
    o = g.offsets
    first = o[np.arange(len(o)), np.argmax(o != 0, axis=1)]
    reverse = (g.dst < g.src) | ((g.dst == g.src) & (first > 0))
    return np.where(reverse[:, None],
                    np.column_stack([g.dst, g.src, -o]),
                    np.column_stack([g.src, g.dst, o]))


def edge_groups_by_rows(g):
    """`PeriodicGraph.edge_groups` over the (E, 5) unordered-key rows: one
    lexsort of the rows, group starts where any column changes."""
    keys = unordered_key_rows(g)
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    return int(starts.sum()), inverse


def brute_force_multiplicities(edges, n):
    """Unordered image-connection counts from a directed edge multiset."""
    counts = np.zeros((n, n), dtype=int)
    for (i, j, _o), c in edges.items():
        counts[i, j] += c
    for i in range(n):
        counts[i, i] //= 2
    return np.minimum(counts, 5)


def edge_keys_by_digits(n, src, dst, offsets):
    """`periodic_graph._edge_keys` one mixed-radix digit at a time: i, j,
    then each offset shifted by the largest magnitude m, radix 2m + 1."""
    m = max(int(offsets.max()), -int(offsets.min())) if len(offsets) else 0
    w = 2 * m + 1
    key = src * n + dst
    for o in offsets.T:
        key = key * w + (o + m)
    return key


def multiplicity_histogram_by_triangle(g):
    """`cli._multiplicity_histogram` from the upper triangle, i <= j, of
    the multiplicity classes, each pair read once."""
    classes = multiplicity_targets(g).classes
    return np.bincount(classes[np.triu_indices(g.num_nodes)],
                       minlength=NUM_MULTIPLICITY_CLASSES)


def serialize_jsonl_by_value(s):
    """`structures.serialize_jsonl` with one format_float17 call per
    NumPy value."""
    f = format_float17
    parts = [
        f'"id": {json.dumps(s.id)}',
        '"lattice": [' + ", ".join(f(x) for x in s.lattice.ravel()) + "]",
        '"frac_coords": ['
        + ", ".join("[" + ", ".join(f(x) for x in row) + "]" for row in s.frac_coords)
        + "]",
        '"atomic_numbers": [' + ", ".join(str(int(z)) for z in s.atomic_numbers) + "]",
    ]
    if s.label is not None:
        parts.append(f'"label": {f(s.label)}')
    return "{" + ", ".join(parts) + "}"


def ingest_extract_layout(seed, files=4, per_file=20, ks=(2, 2, 2, 3, 3, 4)):
    """The structures of perfbench's ingest-extract files at a seed: runs
    of per_file consecutive synthetic cells, in which the cells with the
    corpus's commonest edge count at cutoff 5 become k-supercells, k taken
    from ks in order."""
    cells = make_pretraining_structures(files * per_file, seed=seed)
    edges = [build_periodic_graph(c, 5.0).num_edges for c in cells]
    common = Counter(edges).most_common(1)[0][0]
    out = []
    for f in range(files):
        k_of = iter(ks)
        for c, e in zip(cells[f * per_file:(f + 1) * per_file],
                        edges[f * per_file:(f + 1) * per_file]):
            k = next(k_of, 1) if e == common else 1
            out.append(c if k == 1 else supercell(c, k))
    return out


def edge_keys(g):
    """Directed edge identities (i, j, (o1, o2, o3)), in stored order."""
    return [(int(g.src[e]), int(g.dst[e]), tuple(int(x) for x in g.offsets[e]))
            for e in range(g.num_edges)]


def edge_multiset(g):
    """{(i, j, (o1, o2, o3)): count} over the directed edges of g."""
    return Counter(edge_keys(g))


def _graph_from_edges(g, edges):
    """A validated graph over g's nodes holding g's edges at indices `edges`."""
    edges = np.asarray(edges, dtype=np.int64)
    return PeriodicGraph(
        num_nodes=g.num_nodes, atomic_numbers=g.atomic_numbers.copy(),
        src=g.src[edges], dst=g.dst[edges], offsets=g.offsets[edges],
        distances=g.distances[edges], directions=g.directions[edges],
        cutoff=g.cutoff)


def kept_edges(view):
    """Indices of the source edges a view keeps."""
    return [e for e in range(view.source.num_edges) if view.keep[e]]


def dropped_edges(view):
    """Indices of the source edges a view drops."""
    return [e for e in range(view.source.num_edges) if not view.keep[e]]


def view_graph(view):
    """The edges a view keeps, as a graph of their own in source order."""
    return _graph_from_edges(view.source, kept_edges(view))


def reconstruct_original(view):
    """Merge a view's dropped edges back into its kept ones and sort them by
    (src, dst, offset); gives the source graph exactly."""
    keys = edge_keys(view.source)
    merged = kept_edges(view) + dropped_edges(view)
    return _graph_from_edges(view.source, sorted(merged, key=lambda e: keys[e]))


def one_segment(n):
    """Segment ids that put all n rows in one graph, for single-view calls."""
    return np.zeros(n, dtype=np.int64)


def all_unordered_pairs(num_nodes):
    """Every unordered node pair (i, j) with i <= j, in row-major order."""
    return [(i, j) for i in range(num_nodes) for j in range(i, num_nodes)]


def cubic_structure(a=1.0, numbers=(11,), coords=((0.0, 0.0, 0.0)), sid="cubic"):
    coords = np.atleast_2d(coords)
    return CrystalStructure(
        lattice=a * np.eye(3),
        frac_coords=coords,
        atomic_numbers=np.array(numbers),
        id=sid,
    )


def rocksalt_structure(a=1.0):
    return CrystalStructure(
        lattice=a * np.eye(3),
        frac_coords=np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]]),
        atomic_numbers=np.array([11, 17]),
        id="rocksalt",
    )


def random_structure(rng, max_sites=6, skewed=False):
    """Random small cell; skewed=True forces one angle >= 60 deg off 90."""
    from crystalembed.structures import lattice_from_cell

    while True:
        lengths = rng.uniform(2.0, 6.0, size=3)
        if skewed:
            angles = np.array(
                [
                    rng.uniform(60.0, 120.0),
                    rng.uniform(60.0, 120.0),
                    rng.choice([rng.uniform(20.0, 30.0), rng.uniform(150.0, 160.0)]),
                ]
            )
        else:
            angles = rng.uniform(60.0, 120.0, size=3)
        try:
            lat = lattice_from_cell(*lengths, *angles)
        except Exception:
            continue
        n = int(rng.integers(1, max_sites + 1))
        return CrystalStructure(
            lattice=lat,
            frac_coords=rng.random((n, 3)),
            atomic_numbers=rng.integers(1, 119, size=n),
            id="random",
        )


def supercell(structure, k):
    """k x k x k supercell; site c * N + i is site i of the c-th cell."""
    cells = np.array(list(product(range(k), repeat=3)), dtype=float)
    frac = (structure.frac_coords[None, :, :] + cells[:, None, :]) / k
    return CrystalStructure(
        lattice=structure.lattice * k,
        frac_coords=frac.reshape(-1, 3),
        atomic_numbers=np.tile(structure.atomic_numbers, len(cells)),
        id=f"{structure.id}x{k}",
    )


def extract_one_graph_at_a_time(model, graphs):
    """The element table from one encoder pass per graph, each graph's
    per-element sums added to the running sums in input order."""
    sums = np.zeros((MAX_Z, model.encoder.dim))
    counts = np.zeros(MAX_Z, dtype=np.int64)
    for g in graphs:
        h = encode_graph(model.encoder, g)
        sums += ag.row_scatter_add(h, g.atomic_numbers - 1, MAX_Z).data
        counts += np.bincount(g.atomic_numbers - 1, minlength=MAX_Z)
    return table_from_sums(sums, counts)


def gated_message_by_ops(h, feats, src, dst, weights):
    """One encoder layer as the composition `ag.gated_message` replaces, every
    op on the tape: two gathers, a concat, two two-layer SiLU MLPs, the
    sigmoid gate, the product, the scatter and the residual add."""
    w1m, b1m, w2m, b2m, w1g, b1g, w2g, b2g = weights

    def mlp(x, w1, b1, w2, b2):
        return ag.add(ag.matmul(ag.silu(ag.add(ag.matmul(x, w1), b1)), w2), b2)

    x = ag.concat([ag.row_gather(h, dst), ag.row_gather(h, src), feats], axis=1)
    msg = mlp(x, w1m, b1m, w2m, b2m)
    gate = ag.sigmoid(mlp(x, w1g, b1g, w2g, b2g))
    return ag.add(h, ag.row_scatter_add(ag.mul(msg, gate), dst, h.data.shape[0]))


def lifted_gated_message_by_ops(h, feats, src, dst, weights):
    """The composition `ag.gated_message` runs, every op on the tape: the
    first layers joined by columns (message | gate) and split by rows into
    W_dst, W_src and W_e, the node products h @ W_dst + b1 and h @ W_src
    gathered to the edges and added to feats @ W_e, one SiLU over both
    halves, then the two second layers on its column halves."""
    w1m, b1m, w2m, b2m, w1g, b1g, w2g, b2g = weights
    d = h.data.shape[1]
    w1 = ag.concat([w1m, w1g], axis=1)

    def rows(t, lo, hi):
        return ag.row_gather(t, np.arange(lo, hi))

    def cols(t, lo, hi):
        return ag.transpose(rows(ag.transpose(t), lo, hi))

    a = ag.add(ag.add(
        ag.row_gather(ag.add(ag.matmul(h, rows(w1, 0, d)), ag.concat([b1m, b1g])), dst),
        ag.row_gather(ag.matmul(h, rows(w1, d, 2 * d)), src)),
        ag.matmul(feats, rows(w1, 2 * d, w1.data.shape[0])))
    hidden = ag.silu(a)
    msg = ag.add(ag.matmul(cols(hidden, 0, d), w2m), b2m)
    gate = ag.sigmoid(ag.add(ag.matmul(cols(hidden, d, 2 * d), w2g), b2g))
    return ag.add(h, ag.row_scatter_add(ag.mul(msg, gate), dst, h.data.shape[0]))


def apply_layers_by_ops(layers, graph, h0, rbf_count, cutoff,
                        layer_by_ops=gated_message_by_ops):
    """`encoder.apply_layers` with every layer unfused, each one
    `layer_by_ops` (the unlifted composition unless given)."""
    if graph.src.size == 0:
        return h0
    feats = ag.constant(edge_features(
        graph.distances, graph.directions, rbf_count, cutoff))
    h = h0
    for layer in layers:
        h = layer_by_ops(h, feats, graph.src, graph.dst, layer.tensors())
    return h


def structures_equal(a: CrystalStructure, b: CrystalStructure) -> bool:
    """Field-wise exact equality (serialization is lossless at 17 digits)."""
    return (
        a.id == b.id
        and np.array_equal(a.lattice, b.lattice)
        and np.array_equal(a.frac_coords, b.frac_coords)
        and np.array_equal(a.atomic_numbers, b.atomic_numbers)
        and (a.label is None) == (b.label is None)
        and (a.label is None or a.label == b.label)
    )


def grad_check(f, params, h: float = 1e-5, floor: float = 1e-2) -> float:
    """Max relative error between analytic gradients and central differences.

    f() must rebuild its graph from the current param data and return a
    scalar Tensor. Relative error per coordinate is
    |analytic - numeric| / max(|analytic|, |numeric|, floor); the floor turns
    disagreements between tiny gradients into an absolute criterion.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    loss = f()
    loss.backward()
    analytic = [np.array(p.grad) if p.grad is not None else np.zeros_like(p.data)
                for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.ravel()
        ga_flat = ga.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            f_plus = float(f().data)
            flat[k] = orig - h
            f_minus = float(f().data)
            flat[k] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(ga_flat[k]), abs(numeric), floor)
            worst = max(worst, abs(ga_flat[k] - numeric) / denom)
    return worst


def adam_state_by_parameter(params, lr):
    """Adam's defaults with one pair of moment arrays per parameter, the
    state adam_step_by_parameter updates."""
    return SimpleNamespace(lr=lr, beta1=0.9, beta2=0.999, eps=1e-8, step=0,
                           m={p.name: np.zeros_like(p.data) for p in params},
                           v={p.name: np.zeros_like(p.data) for p in params})


def adam_step_by_parameter(state, params):
    """optim.adam_step run one parameter at a time on each parameter's own
    moments, the layout before moments were bucketed: the bucketed update
    must equal it bit for bit."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.m[p.name]
        v = state.v[p.name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
