import math
import tracemalloc

import numpy as np
import pytest

from crystalembed import autograd as ag
from crystalembed.augmentation import augment, batch_views, two_views
from crystalembed.encoder import (
    EncoderParams,
    apply_layers,
    edge_features,
    encode,
    encode_graph,
    init_encoder_params,
    initial_embeddings,
)
from crystalembed.errors import NumericsError, ShapeError, ValidationError
from crystalembed.periodic_graph import (PeriodicGraph, batch_graphs,
                                         build_periodic_graph)
from crystalembed.structures import CrystalStructure
from crystalembed.synthetic import make_pretraining_structures

from helpers import (apply_layers_by_ops, cubic_structure, gated_message_by_ops,
                     grad_check, lifted_gated_message_by_ops, supercell, view_graph)


def small_params(seed=0, dim=4, num_layers=2, rbf_count=4, cutoff=4.0):
    rng = np.random.default_rng(seed)
    return init_encoder_params(rng, dim, num_layers, rbf_count, cutoff)


class TestEdgeFeatures:
    def test_peak_at_center(self):
        # centers for K=4, cutoff=4 are 0, 4/3, 8/3, 4
        out = edge_features(np.array([4.0 / 3.0]), np.array([[1.0, 0.0, 0.0]]),
                            rbf_count=4, cutoff=4.0)
        assert out.shape == (1, 7)
        assert abs(out[0, 1] - 1.0) < 1e-15

    def test_direction_passthrough(self):
        out = edge_features(np.array([1.0]), np.array([[0.0, 0.0, 1.0]]),
                            rbf_count=4, cutoff=4.0)
        assert np.array_equal(out[0, -3:], [0.0, 0.0, 1.0])

    def test_hand_evaluation_k4(self):
        # sigma = 1, centers 0, 4/3, 8/3, 4; distance 1
        out = edge_features(np.array([1.0]), np.array([[1.0, 0.0, 0.0]]),
                            rbf_count=4, cutoff=4.0)
        expected = [
            math.exp(-0.5),
            math.exp(-((1.0 - 4.0 / 3.0) ** 2) / 2.0),
            math.exp(-((1.0 - 8.0 / 3.0) ** 2) / 2.0),
            math.exp(-4.5),
        ]
        assert np.allclose(out[0, :4], expected, atol=1e-15)

    def test_out_of_range_distance_rejected(self):
        with pytest.raises(ValidationError):
            edge_features(np.array([4.5]), np.zeros((1, 3)), 4, 4.0)
        with pytest.raises(ValidationError):
            edge_features(np.array([0.0]), np.zeros((1, 3)), 4, 4.0)

    def test_cutoff_boundary_allowed(self):
        out = edge_features(np.array([4.0]), np.array([[0.0, 1.0, 0.0]]), 4, 4.0)
        assert abs(out[0, 3] - 1.0) < 1e-15  # last center sits at the cutoff


class TestInitialEmbeddings:
    def test_rows_come_from_table(self):
        p = small_params()
        h = initial_embeddings(p, np.array([1, 5, 118]))
        assert np.array_equal(h.data[0], p.atom_table.data[0])
        assert np.array_equal(h.data[1], p.atom_table.data[4])
        assert np.array_equal(h.data[2], p.atom_table.data[117])

    def test_masked_row_is_mask_vector(self):
        p = small_params()
        h = initial_embeddings(p, np.array([8, 9, 10]), masked_nodes=[1])
        assert np.array_equal(h.data[1], p.mask_vector.data)
        assert np.array_equal(h.data[0], p.atom_table.data[7])

    def test_mask_vector_receives_gradient(self):
        p = small_params()
        h = initial_embeddings(p, np.array([8, 9]), masked_nodes=[0])
        ag.sum_all(h).backward()
        assert np.array_equal(p.mask_vector.grad, np.ones(p.dim))
        assert np.array_equal(p.atom_table.grad[7], np.zeros(p.dim))
        assert np.array_equal(p.atom_table.grad[8], np.ones(p.dim))

    def test_bad_inputs(self):
        p = small_params()
        with pytest.raises(ValidationError):
            initial_embeddings(p, np.array([0]))
        with pytest.raises(ValidationError):
            initial_embeddings(p, np.array([119]))
        with pytest.raises(ValidationError):
            initial_embeddings(p, np.array([1, 2]), masked_nodes=[5])


class TestEncode:
    def test_no_edges_leaves_initial_state(self):
        p = small_params()
        g = PeriodicGraph(
            num_nodes=2,
            atomic_numbers=np.array([6, 7]),
            src=np.zeros(0, dtype=np.int64),
            dst=np.zeros(0, dtype=np.int64),
            offsets=np.zeros((0, 3), dtype=np.int64),
            distances=np.zeros(0),
            directions=np.zeros((0, 3)),
            cutoff=p.cutoff,
        )
        h = encode_graph(p, g)
        h0 = initial_embeddings(p, g.atomic_numbers)
        assert np.array_equal(h.data, h0.data)

    def test_edgeless_union_backward_reaches_every_parameter(self):
        # apply_layers runs its layers on an edgeless union as on any graph
        p = small_params(seed=4)
        lone = build_periodic_graph(cubic_structure(9.0, numbers=(8,)), p.cutoff)
        pair = build_periodic_graph(cubic_structure(
            10.0, numbers=(6, 7), coords=[[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]]),
            p.cutoff)
        g = batch_graphs([lone, pair, lone]).graph
        assert g.num_edges == 0 and g.num_nodes == 4
        mix = np.random.default_rng(0).normal(size=(4, p.dim))
        h = apply_layers(p.layers, g, initial_embeddings(p, g.atomic_numbers),
                         p.rbf_count, p.cutoff)
        assert h.name == h._parents[0].name == "gated_message"  # two layers
        ag.sum_all(ag.mul(h, ag.constant(mix))).backward()
        # each atom's table row takes its own upstream rows, nothing more
        want = np.zeros_like(p.atom_table.data)
        np.add.at(want, g.atomic_numbers - 1, mix)
        assert np.array_equal(p.atom_table.grad, want)
        for t in (w for layer in p.layers for w in layer.tensors()):
            assert np.array_equal(t.grad, np.zeros_like(t.data)), t.name

    def test_isolated_node_keeps_initial_state(self):
        # a = 10 puts both atoms out of range of everything
        p = small_params(cutoff=4.0)
        s = cubic_structure(10.0, numbers=(6, 7),
                            coords=[[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])
        g = build_periodic_graph(s, cutoff=4.0)
        assert g.src.size == 0
        h = encode_graph(p, g)
        assert np.array_equal(h.data, initial_embeddings(p, g.atomic_numbers).data)

    def test_permutation_equivariance(self):
        p = small_params(seed=3)
        lattice = 4.0 * np.eye(3)
        frac = np.array([
            [0.0, 0.0, 0.0],
            [0.45, 0.1, 0.2],
            [0.2, 0.6, 0.3],
            [0.7, 0.7, 0.9],
        ])
        numbers = np.array([6, 8, 11, 17])
        perm = np.array([2, 0, 3, 1])
        s1 = CrystalStructure(lattice, frac, numbers)
        s2 = CrystalStructure(lattice, frac[perm], numbers[perm])
        h1 = encode_graph(p, build_periodic_graph(s1, cutoff=4.0))
        h2 = encode_graph(p, build_periodic_graph(s2, cutoff=4.0))
        # h2 row k describes original site perm[k]; summation order over
        # incoming edges differs, so compare to addition roundoff
        assert np.max(np.abs(h2.data - h1.data[perm])) < 1e-12

    def test_symmetric_cell_equal_embeddings(self):
        # two identical atoms on interpenetrating cubic sublattices; each
        # sees the same environment, so their embeddings must agree
        p = small_params(seed=5)
        s = CrystalStructure(
            4.0 * np.eye(3),
            np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]]),
            np.array([11, 11]),
        )
        h = encode_graph(p, build_periodic_graph(s, cutoff=4.0))
        assert np.max(np.abs(h.data[0] - h.data[1])) < 1e-9

    def test_masking_changes_output(self):
        p = small_params(seed=1)
        g = build_periodic_graph(cubic_structure(3.0, numbers=(11,)), cutoff=4.0)
        plain = encode_graph(p, g)
        masked = encode_graph(p, g, masked_nodes=[0])
        assert not np.allclose(plain.data, masked.data)

    def test_encode_view_matches_encode_graph(self):
        p = small_params(seed=2)
        s = CrystalStructure(
            4.0 * np.eye(3),
            np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.25, 0.25, 0.75]]),
            np.array([11, 17, 8]),
        )
        g = build_periodic_graph(s, cutoff=4.0)
        view = augment(g, mask_ratio=0.4, drop_ratio=0.2, seed=9)
        assert np.array_equal(
            encode(p, batch_views([view])).data,
            encode_graph(p, view_graph(view), view.masked_nodes).data,
        )

    def test_identity_view_encodes_like_plain_graph(self):
        p = small_params(seed=2)
        g = build_periodic_graph(cubic_structure(3.0, numbers=(26,)), cutoff=4.0)
        unchanged = augment(g, 0.0, 0.0, 0)
        assert np.array_equal(encode(p, batch_views([unchanged])).data,
                              encode_graph(p, g).data)

    def test_deterministic_init_and_encode(self):
        g = build_periodic_graph(cubic_structure(3.0, numbers=(13,)), cutoff=4.0)
        a = encode_graph(small_params(seed=7), g).data
        b = encode_graph(small_params(seed=7), g).data
        assert np.array_equal(a, b)

    def test_shape_and_finiteness(self):
        p = small_params()
        s = CrystalStructure(
            3.5 * np.eye(3),
            np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]),
            np.array([3, 9, 9]),
        )
        h = encode_graph(p, build_periodic_graph(s, cutoff=4.0))
        assert h.data.shape == (3, p.dim)
        assert np.all(np.isfinite(h.data))


class TestEncoderGradients:
    def test_grad_check_three_atom_graph(self):
        p = small_params(seed=11, dim=3, num_layers=2, rbf_count=4, cutoff=4.0)
        s = CrystalStructure(
            3.0 * np.eye(3),
            np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.1, 0.2, 0.6]]),
            np.array([6, 8, 14]),
        )
        g = build_periodic_graph(s, cutoff=4.0)
        mix = np.random.default_rng(0).normal(size=(3, 3))

        def f():
            return ag.sum_all(ag.mul(encode_graph(p, g, masked_nodes=[1]),
                                     ag.constant(mix)))

        err = grad_check(f, p.tensors(), h=1e-5, floor=1e-3)
        assert err < 1e-4, err


@pytest.fixture(scope="module")
def mixed_batch():
    """Two views each of two N=2 cells and of a k=2 supercell (N=16), with
    masked nodes and dropped edges, as one disjoint union."""
    cells = make_pretraining_structures(2, seed=4)
    graphs = [build_periodic_graph(s, 5.0)
              for s in [*cells, supercell(cells[0], 2)]]
    assert [g.num_nodes for g in graphs] == [2, 2, 16]
    batch = batch_views([v for i, g in enumerate(graphs)
                         for v in two_views(g, 0.3, 0.2, seed=i)])
    assert len(batch.masked_nodes) > 0
    assert batch.graph.num_edges < 2 * sum(g.num_edges for g in graphs)
    return batch


def _grads_by(run, leaves, mix):
    for t in leaves:
        t.zero_grad()
    out = run()
    ag.sum_all(ag.mul(out, ag.constant(mix))).backward()
    return out.data, [t.grad for t in leaves]


def _assert_close(got, want, name=None):
    """Within 1e-12 of want, relative to its largest entry: the lifted first
    layer reassociates the unfused composition's sums."""
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


def _layers_against_both_oracles(run, leaves, mix):
    """run(layer) against the lifted composition bitwise and against the
    unfused one within 1e-12: output and every leaf's gradient."""
    out, grads = _grads_by(lambda: run(ag.gated_message), leaves, mix)
    want_out, want = _grads_by(lambda: run(lifted_gated_message_by_ops), leaves, mix)
    assert np.array_equal(out, want_out)
    for t, got, expected in zip(leaves, grads, want):
        assert np.array_equal(got, expected), t.name
    want_out, want = _grads_by(lambda: run(gated_message_by_ops), leaves, mix)
    _assert_close(out, want_out)
    for t, got, expected in zip(leaves, grads, want):
        _assert_close(got, expected, t.name)


class TestGatedMessageIsTheComposition:
    """ag.gated_message against the taped lifted ops it replaces, bitwise,
    and against the unfused layer within 1e-12."""

    @pytest.mark.parametrize("dim", [8, 64])
    def test_output_and_every_input_gradient(self, mixed_batch, dim):
        g = mixed_batch.graph
        rng = np.random.default_rng(dim)
        p = init_encoder_params(rng, dim, num_layers=2, rbf_count=4, cutoff=5.0)
        h0 = ag.parameter(initial_embeddings(
            p, g.atomic_numbers, mixed_batch.masked_nodes).data, "h0")
        feats = ag.Tensor(edge_features(g.distances, g.directions, 4, 5.0),
                          requires_grad=True)
        leaves = [h0, feats, *(t for layer in p.layers for t in layer.tensors())]

        def run(op):
            h = h0
            for layer in p.layers:
                h = op(h, feats, g.src, g.dst, layer.tensors())
            return h

        _layers_against_both_oracles(run, leaves, rng.normal(size=h0.data.shape))

    @pytest.mark.parametrize("dim", [8, 64])
    def test_encoder_parameters(self, mixed_batch, dim):
        p = init_encoder_params(np.random.default_rng(dim + 1), dim,
                                num_layers=2, rbf_count=4, cutoff=5.0)
        mix = np.random.default_rng(0).normal(size=(mixed_batch.graph.num_nodes, dim))

        def run(op):
            if op is ag.gated_message:
                return encode(p, mixed_batch)
            h0 = initial_embeddings(p, mixed_batch.graph.atomic_numbers,
                                    mixed_batch.masked_nodes)
            return apply_layers_by_ops(p.layers, mixed_batch.graph, h0,
                                       p.rbf_count, p.cutoff, op)

        _layers_against_both_oracles(run, p.tensors(), mix)

    @pytest.mark.parametrize("case", ["one-atom cell", "nodes without edges"])
    def test_edge_cases_of_the_lift(self, case):
        # a one-atom cell's edges are all periodic self-images (src == dst);
        # in the union, the nodes of the edgeless cells receive no message
        one = build_periodic_graph(cubic_structure(a=2.0), 2.5)
        assert one.num_edges == 6 and np.array_equal(one.src, one.dst)
        if case == "one-atom cell":
            g = one
        else:
            lone = build_periodic_graph(cubic_structure(a=9.0, numbers=(8,)), 2.5)
            pair = build_periodic_graph(cubic_structure(
                a=3.0, numbers=(11, 17), coords=((0, 0, 0), (0.5, 0.5, 0.5))), 2.7)
            g = batch_graphs([lone, one, pair, lone]).graph
            assert lone.num_edges == 0 and pair.num_edges == 16
            assert sorted(set(g.dst.tolist())) == [1, 2, 3]
        rng = np.random.default_rng(7)
        p = init_encoder_params(rng, 3, num_layers=1, rbf_count=2, cutoff=3.0)
        h0 = ag.parameter(rng.normal(size=(g.num_nodes, 3)), "h0")
        feats = ag.Tensor(edge_features(g.distances, g.directions, 2, 3.0),
                          requires_grad=True)
        weights = p.layers[0].tensors()
        leaves = [h0, feats, *weights]

        def run(op):
            return op(h0, feats, g.src, g.dst, weights)

        _layers_against_both_oracles(run, leaves, rng.normal(size=h0.data.shape))
        mix = ag.constant(rng.normal(size=h0.data.shape))
        err = grad_check(lambda: ag.sum_all(ag.mul(run(ag.gated_message), mix)),
                         leaves)
        assert err < 1e-6, err

    def test_zero_edges(self):
        # the layer adds an empty message sum: h's bits out, the upstream
        # gradient passed to h bit for bit, and all-zero weight gradients
        rng = np.random.default_rng(3)
        p = init_encoder_params(rng, 4, num_layers=1, rbf_count=2, cutoff=3.0)
        h = ag.parameter(rng.normal(size=(3, 4)), "h")
        weights = p.layers[0].tensors()
        none = np.zeros(0, dtype=np.int64)
        out = ag.gated_message(h, ag.constant(np.zeros((0, 5))), none, none,
                               weights)
        assert out.data.tobytes() == h.data.tobytes()
        g = rng.normal(size=(3, 4))
        ag.sum_all(ag.mul(out, ag.constant(g))).backward()
        assert h.grad.tobytes() == g.tobytes()
        for t in weights:
            assert t.grad.tobytes() == np.zeros_like(t.data).tobytes(), t.name

    def test_one_tape_entry_per_layer(self, mixed_batch):
        p = small_params(dim=4, num_layers=3, rbf_count=4, cutoff=5.0)
        h = encode(p, mixed_batch)
        names = []
        while h.name != "row_gather":  # the initial embeddings
            names.append(h.name)
            h = h._parents[0]
        assert names == ["gated_message"] * 3


def test_gated_message_keeps_one_edge_array_for_its_rule():
    # between its forward and its backward a layer holds its (N, 2d) node
    # rows, its (E, d) gate and small arrays (the output, the stacked first
    # layer); its rule remakes msg. 1.2 (E, d) arrays beyond the node rows
    # here, 2.2 when the layer kept msg as well
    cell = make_pretraining_structures(2, seed=3)[0]
    g = build_periodic_graph(supercell(cell, 4), 5.0)
    assert (g.num_nodes, g.num_edges) == (128, 1792)
    dim, rng = 64, np.random.default_rng(0)
    p = init_encoder_params(rng, dim, num_layers=1, rbf_count=8, cutoff=5.0)
    h = ag.parameter(rng.normal(size=(g.num_nodes, dim)), "h")
    feats = ag.constant(edge_features(g.distances, g.directions, 8, 5.0))
    node_rows, edge_array = 2 * g.num_nodes * 2 * dim * 8, g.num_edges * dim * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ag.gated_message(h, feats, g.src, g.dst, p.layers[0].tensors())
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < node_rows + 1.5 * edge_array, (held - node_rows) / edge_array
    ag.sum_all(out).backward()
    assert np.isfinite(h.grad).all()


def _one_tile(monkeypatch):
    monkeypatch.setattr(ag, "EDGE_TILE_BYTES", 2**62)


def _tiles_of(monkeypatch, edges, dim):
    """Tiles of at most `edges` edges at width dim."""
    monkeypatch.setattr(ag, "EDGE_TILE_BYTES", 16 * dim * edges)


def _two_layer_run(g, dim, order=None, seed=0):
    """A run of two gated layers on graph g's edges, taken in `order`
    (default: as given): () -> (output, [grad of h0, of feats, of every
    weight])."""
    order = np.arange(g.num_edges) if order is None else order
    rng = np.random.default_rng(seed)
    p = init_encoder_params(rng, dim, num_layers=2, rbf_count=4, cutoff=5.0)
    h0 = ag.parameter(rng.normal(size=(g.num_nodes, dim)), "h0")
    feats = ag.Tensor(edge_features(g.distances, g.directions, 4, 5.0)[order],
                      requires_grad=True)
    src, dst = g.src[order], g.dst[order]
    leaves = [h0, feats, *(t for layer in p.layers for t in layer.tensors())]
    mix = rng.normal(size=h0.data.shape)

    def run():
        h = h0
        for layer in p.layers:
            h = ag.gated_message(h, feats, src, dst, layer.tensors())
        return h

    return lambda: _grads_by(run, leaves, mix)


@pytest.fixture(scope="module")
def tile_batches():
    """Two views each of an N=2 cell, a k=2 supercell (N=16) and a k=3
    supercell (N=54), as one union; and two views each of two k=3
    supercells."""
    cells = make_pretraining_structures(2, seed=4)
    mixed = [build_periodic_graph(s, 5.0)
             for s in (cells[0], supercell(cells[0], 2), supercell(cells[1], 3))]
    assert [g.num_nodes for g in mixed] == [2, 16, 54]
    k3 = [build_periodic_graph(supercell(s, 3), 5.0) for s in cells]
    batches = {name: batch_views([v for i, g in enumerate(graphs)
                                  for v in two_views(g, 0.3, 0.2, seed=i)]).graph
               for name, graphs in (("mixed", mixed), ("k=3", k3))}
    # nodes with more incoming edges than the smallest tiles hold
    assert all(np.bincount(g.dst).max() > 3 for g in batches.values())
    return batches


class TestEdgeTiles:
    """gated_message in tiles of a few edges against the same layer in one
    tile: the output bitwise, every input gradient within 1e-12, as the
    sums over edges are added tile by tile."""

    @pytest.mark.parametrize("batch, order", [
        ("mixed", "given"), ("k=3", "given"), ("k=3", "permuted")])
    @pytest.mark.parametrize("dim, edges", [(8, 2), (8, 37), (64, 3), (64, 100)])
    def test_output_bitwise_and_gradients_close(self, monkeypatch, tile_batches,
                                                batch, order, dim, edges):
        g = tile_batches[batch]
        perm = (np.random.default_rng(1).permutation(g.num_edges)
                if order == "permuted" else None)
        run = _two_layer_run(g, dim, perm)
        _one_tile(monkeypatch)
        want_out, want = run()
        _tiles_of(monkeypatch, edges, dim)
        assert len(ag._edge_tiles(g.num_edges, dim)) == -(-g.num_edges // edges)
        out, got = run()
        assert np.array_equal(out, want_out)
        for got_grad, want_grad in zip(got, want):
            _assert_close(got_grad, want_grad)

    def test_tiles_of_one_edge(self, monkeypatch, tile_batches):
        # a one-row product is a matrix-vector one in NumPy, with other sums
        # than the matrix-matrix product's rows, so here the output too is
        # only within 1e-12
        run = _two_layer_run(tile_batches["mixed"], 8)
        _one_tile(monkeypatch)
        want_out, want = run()
        _tiles_of(monkeypatch, 1, 8)
        out, got = run()
        _assert_close(out, want_out)
        for got_grad, want_grad in zip(got, want):
            _assert_close(got_grad, want_grad)

    @pytest.mark.parametrize("edges", [1, 2, 5])
    def test_grad_check(self, monkeypatch, edges):
        # the union of test_edge_cases_of_the_lift: self-image edges and
        # nodes without edges, here with its edges reversed
        one = build_periodic_graph(cubic_structure(a=2.0), 2.5)
        lone = build_periodic_graph(cubic_structure(a=9.0, numbers=(8,)), 2.5)
        pair = build_periodic_graph(cubic_structure(
            a=3.0, numbers=(11, 17), coords=((0, 0, 0), (0.5, 0.5, 0.5))), 2.7)
        g = batch_graphs([lone, one, pair, lone]).graph
        order = np.arange(g.num_edges)[::-1]
        rng = np.random.default_rng(7)
        p = init_encoder_params(rng, 3, num_layers=1, rbf_count=2, cutoff=3.0)
        h0 = ag.parameter(rng.normal(size=(g.num_nodes, 3)), "h0")
        feats = ag.Tensor(edge_features(g.distances, g.directions, 2, 3.0)[order],
                          requires_grad=True)
        weights = p.layers[0].tensors()
        mix = ag.constant(rng.normal(size=h0.data.shape))
        _tiles_of(monkeypatch, edges, 3)
        assert len(ag._edge_tiles(g.num_edges, 3)) > 1

        def f():
            return ag.sum_all(ag.mul(ag.gated_message(
                h0, feats, g.src[order], g.dst[order], weights), mix))

        err = grad_check(f, [h0, feats, *weights])
        assert err < 1e-6, err

    def test_zero_edges(self, monkeypatch):
        # one empty tile: h's bits out, g passed to h bit for bit, and
        # all-zero weight gradients
        _tiles_of(monkeypatch, 1, 4)
        rng = np.random.default_rng(3)
        p = init_encoder_params(rng, 4, num_layers=1, rbf_count=2, cutoff=3.0)
        h = ag.parameter(rng.normal(size=(3, 4)), "h")
        weights = p.layers[0].tensors()
        none = np.zeros(0, dtype=np.int64)
        out = ag.gated_message(h, ag.constant(np.zeros((0, 5))), none, none,
                               weights)
        assert out.data.tobytes() == h.data.tobytes()
        g = rng.normal(size=(3, 4))
        ag.sum_all(ag.mul(out, ag.constant(g))).backward()
        assert h.grad.tobytes() == g.tobytes()
        for t in weights:
            assert t.grad.tobytes() == np.zeros_like(t.data).tobytes(), t.name

    @pytest.mark.parametrize("longer", ["src", "dst", "feats"])
    def test_one_entry_per_edge(self, longer):
        # the tiles cut the edge order, so no array may hold edges the others
        # lack
        rng = np.random.default_rng(0)
        p = init_encoder_params(rng, 4, num_layers=1, rbf_count=2, cutoff=3.0)
        edges = {"src": np.array([0, 1, 2]), "dst": np.array([1, 2, 0]),
                 "feats": rng.normal(size=(3, 5))}
        edges[longer] = np.concatenate([edges[longer], edges[longer][:1]])
        with pytest.raises(ShapeError, match="one entry per edge"):
            ag.gated_message(ag.parameter(rng.normal(size=(3, 4)), "h"),
                             ag.constant(edges["feats"]), edges["src"],
                             edges["dst"], p.layers[0].tensors())

    @pytest.mark.parametrize("half", ["message", "gate"])
    def test_nonfinite_gradient_in_an_early_tile_names_its_part(self, monkeypatch,
                                                                half):
        # the half's first layer is 0, so its hidden layer is silu(0) = 0 and
        # the forward finite; its second layer is 1e308, so the gradient
        # through it overflows where the upstream gradient is not 0: on the
        # edges into node 0, all in the first of five tiles. (The message
        # is then 1, so the gate's logit gradient is 0.25 per column.)
        d, rng = 8, np.random.default_rng(0)
        src = np.array([1, 2, 3, 1, 2, 3, 0, 0, 3, 2])
        dst = np.array([0, 0, 1, 2, 3, 1, 2, 3, 2, 1])
        mlp = {"message": [np.zeros((2 * d + 2, d)), np.zeros(d),
                           np.full((d, d), 1e308), np.zeros(d)],
               "gate": [np.zeros((2 * d + 2, d)), np.zeros(d),
                        np.full((d, d), 1e308), np.zeros(d)]}
        other = "gate" if half == "message" else "message"
        mlp[other] = [rng.normal(size=(2 * d + 2, d)), np.zeros(d),
                      rng.normal(size=(d, d)), np.zeros(d)]
        if half == "gate":
            mlp[other][2:] = [np.zeros((d, d)), np.ones(d)]  # msg = 1
        h_data, feats = rng.normal(size=(4, d)), rng.normal(size=(10, 2))
        upstream = np.zeros((4, d))
        upstream[0] = 1.0

        def failure():
            weights = [ag.parameter(w, f"w{i}") for i, w in
                       enumerate(mlp["message"] + mlp["gate"])]
            out = ag.gated_message(ag.parameter(h_data, "h"), ag.constant(feats),
                                   src, dst, weights)
            with np.errstate(over="ignore"), pytest.raises(NumericsError) as exc:
                ag.sum_all(ag.mul(out, ag.constant(upstream))).backward()
            return str(exc.value)

        _one_tile(monkeypatch)
        want = failure()
        assert want == ("backward: non-finite gradient inside gated_message, "
                        f"at the {half} MLP's hidden layer")
        _tiles_of(monkeypatch, 2, d)
        assert ag._edge_tiles(len(dst), d)[0] == slice(0, 2)
        assert failure() == want


def test_gated_message_keeps_one_tile_of_gate():
    # between its forward and its backward a layer holds its node rows (p_dst,
    # p_src and the output), the last tile's gate, of at most
    # EDGE_TILE_BYTES // (16 d) rows of d float64s, and a few small arrays,
    # however many edges: 0.23 and 0.26 MB beyond the node rows here, where a
    # layer keeping its (E, d) gate held 1.06 and 1.94 MB
    cells = make_pretraining_structures(2, seed=3)
    dim = 64
    for k in (4, 5):
        g = build_periodic_graph(supercell(cells[0], k), 5.0)
        assert g.num_edges > ag.EDGE_TILE_BYTES // (16 * dim)
        rng = np.random.default_rng(0)
        p = init_encoder_params(rng, dim, num_layers=1, rbf_count=8, cutoff=5.0)
        h = ag.parameter(rng.normal(size=(g.num_nodes, dim)), "h")
        feats = ag.constant(edge_features(g.distances, g.directions, 8, 5.0))
        node_rows = g.num_nodes * (2 * 2 * dim + dim) * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ag.gated_message(h, feats, g.src, g.dst, p.layers[0].tensors())
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held - node_rows < ag.EDGE_TILE_BYTES // 2 + 2**14, (k, held)
        ag.sum_all(out).backward()
        assert np.isfinite(h.grad).all()


class TestParamValidation:
    def test_wrong_table_shape_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            EncoderParams(
                atom_table=ag.parameter(rng.normal(size=(117, 4)), "t"),
                mask_vector=ag.parameter(rng.normal(size=4), "m"),
                layers=[],
                dim=4,
            )

    def test_init_shapes(self):
        p = small_params(dim=5, num_layers=3, rbf_count=6, cutoff=5.0)
        assert len(p.layers) == 3
        assert p.atom_table.data.shape == (118, 5)
        in_dim = 2 * 5 + 9
        for layer in p.layers:
            assert layer.msg_w1.data.shape == (in_dim, 5)
            assert layer.gate_w2.data.shape == (5, 5)
        names = [t.name for t in p.tensors()]
        assert len(names) == len(set(names))
