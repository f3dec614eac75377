import re
import tracemalloc
from itertools import product

import numpy as np
import pytest
from helpers import (
    all_unordered_pairs,
    brute_force_edges,
    brute_force_multiplicities,
    build_periodic_graph_by_rows,
    cubic_structure,
    edge_groups_by_rows,
    edge_keys,
    edge_keys_by_digits,
    edge_multiset,
    random_structure,
    rocksalt_structure,
    supercell,
    unordered_key_rows,
)

from crystalembed.augmentation import batch_views, two_views
from crystalembed.errors import ValidationError
from crystalembed.structures import CrystalStructure, lattice_from_cell
from crystalembed.periodic_graph import (
    MAX_SEARCH_PAIRS,
    PeriodicGraph,
    _edge_keys,
    batch_graphs,
    build_periodic_graph,
    multiplicity_targets,
)
from crystalembed.synthetic import make_labeled_structures, make_pretraining_structures


class TestBuildPeriodicGraph:
    def test_short_cutoff_yields_no_edges(self):
        g = build_periodic_graph(cubic_structure(a=1.0), cutoff=0.5)
        assert g.num_edges == 0

    def test_simple_cubic_six_self_edges(self):
        s = cubic_structure(a=1.0)
        g = build_periodic_graph(s, cutoff=1.05)
        assert edge_multiset(g) == brute_force_edges(s, 1.05)
        assert g.num_edges == 6
        assert np.allclose(g.distances, 1.0)
        offsets = {tuple(o) for o in g.offsets}
        assert offsets == {
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
        }

    def test_rocksalt_cross_edges(self):
        s = rocksalt_structure(a=1.0)
        g = build_periodic_graph(s, cutoff=0.9)
        assert edge_multiset(g) == brute_force_edges(s, 0.9)
        na_cl = (g.src == 0) & (g.dst == 1)
        cl_na = (g.src == 1) & (g.dst == 0)
        assert na_cl.sum() == 8 and cl_na.sum() == 8
        assert np.allclose(g.distances, np.sqrt(3.0) / 2.0)

    def test_direction_unit_norm(self):
        g = build_periodic_graph(rocksalt_structure(), cutoff=0.9)
        assert np.allclose(np.linalg.norm(g.directions, axis=1), 1.0, atol=1e-9)

    def test_reversal_closure(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            s = random_structure(rng, max_sites=4)
            g = build_periodic_graph(s, cutoff=4.0)
            edges = edge_multiset(g)
            mirrored = {(j, i, tuple(-x for x in o)): c for (i, j, o), c in edges.items()}
            assert edges == mirrored

    def test_matches_oracle_on_random_cells(self):
        rng = np.random.default_rng(7)
        for k in range(10):
            s = random_structure(rng, max_sites=4, skewed=(k % 2 == 0))
            g = build_periodic_graph(s, cutoff=3.5)
            assert edge_multiset(g) == brute_force_edges(s, 3.5), s.lattice

    def test_bad_cutoff_rejected(self):
        with pytest.raises(ValidationError):
            build_periodic_graph(cubic_structure(), cutoff=0.0)
        with pytest.raises(ValidationError):
            build_periodic_graph(cubic_structure(), cutoff=-2.0)


def _cell(lattice, frac_coords):
    frac_coords = np.asarray(frac_coords, dtype=float)
    return CrystalStructure(lattice=np.asarray(lattice, dtype=float),
                            frac_coords=frac_coords,
                            atomic_numbers=np.full(len(frac_coords), 8),
                            id="cell")


class TestLinkedCellRegimes:
    """Bin layouts of the linked-cell search, each against the oracle."""

    def test_cutoff_longer_than_cell_on_every_axis(self):
        # one bin per axis, neighbour shifts reach several images
        s = cubic_structure(a=1.0, numbers=(11, 17),
                            coords=((0.1, 0.2, 0.3), (0.6, 0.5, 0.9)))
        g = build_periodic_graph(s, cutoff=2.3)
        assert edge_multiset(g) == brute_force_edges(s, 2.3)
        assert np.abs(g.offsets).max() > 1

    def test_one_thin_axis(self):
        rng = np.random.default_rng(31)
        s = _cell(np.diag([8.0, 8.0, 1.5]), rng.random((8, 3)))
        g = build_periodic_graph(s, cutoff=2.0)
        assert g.num_edges > 0
        assert edge_multiset(g) == brute_force_edges(s, 2.0)

    def test_skewed_cells(self):
        rng = np.random.default_rng(37)
        for _ in range(6):
            s = random_structure(rng, max_sites=5, skewed=True)
            assert edge_multiset(build_periodic_graph(s, 3.0)) == \
                brute_force_edges(s, 3.0), s.lattice
        # two bins per axis of a larger skewed cell
        s = _cell(lattice_from_cell(12.0, 12.0, 6.0, 80.0, 100.0, 30.0),
                  rng.random((12, 3)))
        g = build_periodic_graph(s, 2.0)
        assert g.num_edges > 0
        assert edge_multiset(g) == brute_force_edges(s, 2.0)

    def test_sites_on_the_cell_faces(self):
        # 2 bins per axis; sites at 0 and just below 1 neighbour each other
        # through the periodic boundary
        edge = [0.0, 1.0 - 1e-12, np.nextafter(1.0, 0.0)]
        frac = [(x, y, z) for x in edge[:2] for y in edge[:2] for z in edge]
        s = _cell(6.0 * np.eye(3), frac)
        g = build_periodic_graph(s, cutoff=2.9)
        assert g.num_edges > 0
        assert edge_multiset(g) == brute_force_edges(s, 2.9)

    def test_edge_at_exactly_the_cutoff(self):
        s = cubic_structure(a=1.0)
        g = build_periodic_graph(s, cutoff=1.0)
        assert edge_multiset(g) == brute_force_edges(s, 1.0)
        assert g.num_edges == 6 and np.all(g.distances == 1.0)
        # the same with two bins per axis, neighbours on the bin edges
        frac = [(x, y, z) for x in (0, 0.5) for y in (0, 0.5) for z in (0, 0.5)]
        s = _cell(2.0 * np.eye(3), frac)
        g = build_periodic_graph(s, cutoff=1.0)
        assert edge_multiset(g) == brute_force_edges(s, 1.0)
        assert g.num_edges == 6 * 8

    def test_mostly_vacuum_cell_caps_the_bins(self):
        s = _cell(50.0 * np.eye(3), [(0.5, 0.5, 0.5), (0.52, 0.5, 0.5)])
        base = build_periodic_graph(s, cutoff=2.0)
        assert edge_multiset(base) == brute_force_edges(s, 2.0)
        assert base.num_edges == 2
        # 128 sites in a 200 A box: uncapped, cutoff 2 asks for 10^6 bins
        big = supercell(s, 4)
        tracemalloc.start()
        try:
            g = build_periodic_graph(big, cutoff=2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.num_edges == 64 * base.num_edges
        assert np.allclose(g.distances, 1.0)
        assert peak < 1e6

    def test_memory_bounded_on_a_250_site_supercell(self):
        base = make_pretraining_structures(1, seed=0)[0]
        s = supercell(base, 5)
        tracemalloc.start()
        try:
            g = build_periodic_graph(s, cutoff=5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.num_sites == 250
        assert g.num_edges == 125 * build_periodic_graph(base, 5.0).num_edges
        # the (images x N x N x 3) displacement array alone was ~500 MB
        assert peak < 16e6


class TestSearchBounds:
    @pytest.mark.parametrize("row", [(1e308, 3.0, 0.0), (1e30, 3.0, 0.0)])
    def test_unsearchable_reach_rejected_naming_the_structure(self, row):
        s = _cell([(4.0, 0.0, 0.0), row, (0.0, 0.0, 4.0)], [(0.0, 0.0, 0.0)])
        with pytest.raises(ValidationError,
                           match=r"structure 'cell': cutoff 5\.0 reaches"):
            build_periodic_graph(s, cutoff=5.0)

    def test_tiny_cell_rejected_before_its_shift_grid_is_allocated(self):
        # 1e-3 A: 10,001 bin shifts per axis, once 21.8 TiB of grid
        s = _cell(1e-3 * np.eye(3), [(0.0, 0.0, 0.0)])
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError,
                               match=f"structure 'cell': cutoff 5.0 needs "
                                     f"1000900270027 .* over the {MAX_SEARCH_PAIRS} "):
                build_periodic_graph(s, cutoff=5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def _row_oracle_cells():
    """Both synthetic corpora, k = 2..4 supercells, a skewed triclinic cell
    and a one-site cell."""
    pretraining = make_pretraining_structures(48, seed=3)
    yield from pretraining
    yield from make_labeled_structures(64, seed=11)
    yield from (supercell(s, k) for s in pretraining[:2] for k in (2, 3, 4))
    rng = np.random.default_rng(41)
    yield _cell(lattice_from_cell(6.0, 7.0, 5.0, 70.0, 100.0, 40.0),
                rng.random((6, 3)))
    yield cubic_structure(a=2.5)


@pytest.mark.parametrize("cutoff", [3.0, 5.0, 6.5])
def test_build_matches_the_row_wise_search_bitwise(cutoff):
    edges = 0
    for s in _row_oracle_cells():
        got = build_periodic_graph(s, cutoff)
        want = build_periodic_graph_by_rows(s, cutoff)
        edges += got.num_edges
        for name in ("src", "dst", "offsets", "distances", "directions"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.array_equal(a, b), (s.id, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (s.id, name)
            assert a.flags.c_contiguous, (s.id, name)
        num_groups, inverse = edge_groups_by_rows(want)
        assert got.edge_groups()[0] == num_groups
        assert np.array_equal(got.edge_groups()[1], inverse), s.id
    assert edges > 0


class TestMultiplicityTargets:
    def test_cubic_self_class_three(self):
        g = build_periodic_graph(cubic_structure(a=1.0), cutoff=1.05)
        t = multiplicity_targets(g)
        assert t.classes[0, 0] == 3

    def test_rocksalt_clamped_to_five(self):
        g = build_periodic_graph(rocksalt_structure(a=1.0), cutoff=0.9)
        t = multiplicity_targets(g)
        assert t.classes[0, 1] == 5 and t.classes[1, 0] == 5

    def test_empty_graph_all_zero(self):
        g = build_periodic_graph(cubic_structure(a=1.0), cutoff=0.5)
        assert np.array_equal(multiplicity_targets(g).classes, np.zeros((1, 1), int))

    def test_matches_oracle_counts(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            s = random_structure(rng, max_sites=5)
            g = build_periodic_graph(s, cutoff=3.0)
            expected = brute_force_multiplicities(
                brute_force_edges(s, 3.0), s.num_sites
            )
            assert np.array_equal(multiplicity_targets(g).classes, expected)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_classes_match_ufunc_scatter_counts(self, k):
        # reference: np.add.at counts of (src, dst), diagonal halved, clamped
        for s in make_pretraining_structures(3, seed=k):
            g = build_periodic_graph(supercell(s, k), cutoff=5.0)
            counts = np.zeros((g.num_nodes, g.num_nodes), dtype=np.int64)
            np.add.at(counts, (g.src, g.dst), 1)
            np.fill_diagonal(counts, counts.diagonal() // 2)
            classes = multiplicity_targets(g).classes
            assert classes.dtype == np.int64
            assert np.array_equal(classes, np.minimum(counts, 5))

    def test_symmetry_always(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            s = random_structure(rng, max_sites=6, skewed=True)
            t = multiplicity_targets(build_periodic_graph(s, cutoff=3.0))
            assert np.array_equal(t.classes, t.classes.T)
            assert t.classes.max() <= 5


def test_all_unordered_pairs_order():
    assert all_unordered_pairs(3) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def test_unordered_keys_pair_up():
    g = build_periodic_graph(rocksalt_structure(a=1.0), cutoff=0.9)
    keys = [tuple(k) for k in unordered_key_rows(g)]
    from collections import Counter

    counts = Counter(keys)
    assert all(c == 2 for c in counts.values())
    assert len(counts) == g.num_edges // 2



def _graph_kwargs(g, idx, extra=None):
    """g's edge arrays at the indices idx, plus one appended edge if given."""
    arrays = [g.src[idx], g.dst[idx], g.offsets[idx], g.distances[idx],
              g.directions[idx]]
    if extra is not None:
        arrays = [np.concatenate([a, np.reshape(x, (1,) + a.shape[1:])])
                  for a, x in zip(arrays, extra)]
    src, dst, offsets, distances, directions = arrays
    return dict(num_nodes=g.num_nodes, atomic_numbers=g.atomic_numbers,
                src=src, dst=dst, offsets=offsets, distances=distances,
                directions=directions, cutoff=g.cutoff)


def _mirror_index(g, e):
    i, j, o = edge_keys(g)[e]
    return edge_keys(g).index((j, i, tuple(-x for x in o)))


class TestGraphValidation:
    @pytest.mark.parametrize("drop", [0, 5, 27])
    def test_missing_mirror_rejected_naming_survivor(self, drop):
        g = build_periodic_graph(rocksalt_structure(a=1.0), cutoff=1.05)
        assert g.num_edges == 28
        survivor = edge_keys(g)[_mirror_index(g, drop)]
        i, j, o = survivor
        with pytest.raises(ValidationError,
                           match=re.escape(f"edge ({i}, {j}, {o}) lacks its mirror")):
            PeriodicGraph(**_graph_kwargs(g, np.delete(np.arange(28), drop)))

    def test_zero_offset_self_edge_rejected(self):
        # distance and direction are valid, so only the self-edge rule fires
        g = build_periodic_graph(rocksalt_structure(a=1.0), cutoff=1.05)
        edge = (0, 0, (0, 0, 0), 0.5, (1.0, 0.0, 0.0))
        with pytest.raises(ValidationError, match="self edge with zero offset"):
            PeriodicGraph(**_graph_kwargs(g, np.arange(g.num_edges), edge))

    @pytest.mark.parametrize("offsets", [[2**40, -2**40],
                                         [np.iinfo(np.int64).min]])
    def test_offsets_beyond_one_int64_edge_key_rejected(self, offsets):
        # self edges of one node; only a search bounds the offsets, not
        # raw arrays, and INT64_MIN has no mirror at all
        e = len(offsets)
        with pytest.raises(ValidationError, match="one int64 edge key"):
            PeriodicGraph(num_nodes=1, atomic_numbers=[1], src=[0] * e,
                          dst=[0] * e, offsets=[(o, 0, 0) for o in offsets],
                          distances=[1.0] * e, directions=[(1.0, 0.0, 0.0)] * e,
                          cutoff=2.0)

    def test_largest_offsets_that_fit_one_edge_key_accepted(self):
        # (2m + 1)^3 < 2^63 holds up to m = 2^20 - 1
        m = 2**20 - 1
        g = PeriodicGraph(num_nodes=1, atomic_numbers=[1], src=[0, 0],
                          dst=[0, 0], offsets=[(m, -m, m), (-m, m, -m)],
                          distances=[1.0, 1.0],
                          directions=[(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)],
                          cutoff=2.0)
        assert g.edge_groups()[0] == 1

    def test_repeated_mirror_pair_accepted(self):
        g = build_periodic_graph(rocksalt_structure(a=1.0), cutoff=1.05)
        idx = np.concatenate([np.arange(g.num_edges), [3, _mirror_index(g, 3)]])
        assert PeriodicGraph(**_graph_kwargs(g, idx)).num_edges == g.num_edges + 2


    @pytest.mark.parametrize("z", [0, 119])
    @pytest.mark.parametrize("cutoff", [1.05, 0.5])
    def test_atomic_number_outside_periodic_table_rejected(self, z, cutoff):
        # also on an edgeless graph, whose edge checks pass on empty arrays
        g = build_periodic_graph(rocksalt_structure(a=1.0), cutoff=cutoff)
        kwargs = _graph_kwargs(g, np.arange(g.num_edges))
        kwargs["atomic_numbers"] = [11, z]
        with pytest.raises(ValidationError,
                           match=r"atomic numbers must lie in 1\.\.118"):
            PeriodicGraph(**kwargs)


class TestBatchGraphs:
    def test_offsets_segments_and_shifted_edges(self):
        a = build_periodic_graph(rocksalt_structure(a=1.0), cutoff=1.05)
        b = build_periodic_graph(cubic_structure(), cutoff=1.05)
        batch = batch_graphs([a, b, a])
        assert batch.node_offsets.tolist() == [0, 2, 3, 5]
        assert batch.segments.tolist() == [0, 0, 1, 2, 2]
        u = batch.graph
        assert u.num_edges == 2 * a.num_edges + b.num_edges
        tail = slice(a.num_edges + b.num_edges, None)
        assert np.array_equal(u.src[tail], a.src + 3)
        assert np.array_equal(u.dst[tail], a.dst + 3)
        assert np.array_equal(u.offsets[tail], a.offsets)
        assert u.atomic_numbers.tolist() == [11, 17, 11, 11, 17]

    def test_edge_masks_keep_order(self):
        g = build_periodic_graph(rocksalt_structure(a=1.0), cutoff=1.05)
        u = batch_graphs([g], [g.src != g.dst]).graph
        assert edge_keys(u) == [k for k in edge_keys(g) if k[0] != k[1]]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            batch_graphs([])

    def test_unmasked_unions_pass_the_full_check(self):
        # an unmasked union is built without _check; its invariants follow
        # from its validated parts, so running the check must find nothing
        pretraining = make_pretraining_structures(48, seed=3)
        corpora = [pretraining, make_labeled_structures(64, seed=11),
                   [supercell(s, k) for s in pretraining[:3] for k in (2, 3)]]
        for structures in corpora:
            graphs = [build_periodic_graph(s, 5.0) for s in structures]
            for chunk in (graphs, graphs[::-1], graphs[1::2]):
                batch = batch_graphs(chunk)
                batch.graph._check()
                assert batch.graph.num_edges == sum(g.num_edges for g in chunk)
                assert batch.graph.edge_groups()[0] == batch.graph.num_edges // 2

    @pytest.mark.parametrize("drop_ratio", [0.0, 0.15, 0.5, 0.9])
    def test_views_keep_or_drop_whole_connections(self, drop_ratio):
        # batch_graphs trusts its masks to keep whole connections instead of
        # checking each union it builds
        pretraining = make_pretraining_structures(48, seed=3)
        corpora = [pretraining, make_labeled_structures(64, seed=11),
                   [supercell(s, k) for s in pretraining[:3] for k in (2, 3)]]
        for structures in corpora:
            graphs = [build_periodic_graph(s, 5.0) for s in structures]
            for seed in (0, 7, 2**40 + 3):
                views = [view for b, g in enumerate(graphs)
                         for view in two_views(g, 0.15, drop_ratio, seed + b)]
                for view in views:
                    n_groups, inverse = view.source.edge_groups()
                    alive = np.zeros(n_groups, dtype=bool)
                    alive[inverse[view.keep]] = True
                    assert np.array_equal(alive[inverse], view.keep)
                union = batch_views(views).graph
                union._check()
                assert union.edge_groups()[0] == union.num_edges // 2


def test_edge_groups_number_connections_like_np_unique():
    # augment draws group ids from the RNG, so their numbering is fixed
    rng = np.random.default_rng(23)
    for k in range(10):
        s = random_structure(rng, max_sites=5, skewed=(k % 2 == 0))
        g = build_periodic_graph(s, cutoff=3.5)
        groups, inverse = np.unique(unordered_key_rows(g), axis=0,
                                    return_inverse=True)
        num_groups, got = g.edge_groups()
        assert num_groups == len(groups) == g.num_edges // 2
        assert np.array_equal(got, inverse.ravel())


def test_edgeless_graph_has_no_connections():
    g = build_periodic_graph(rocksalt_structure(a=1.0), cutoff=0.5)
    assert g.num_edges == 0
    num_groups, inverse = g.edge_groups()
    assert num_groups == 0
    assert inverse.tolist() == [] and inverse.dtype == np.int64


class TestEdgeKeys:
    """_edge_keys, one expression, against the digit-by-digit loop."""

    @staticmethod
    def assert_keys_match(n, src, dst, offsets):
        for args in ((n, src, dst, offsets), (n, dst, src, -offsets)):
            want = edge_keys_by_digits(*args)
            got = _edge_keys(*args)
            assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_built_graphs(self):
        rng = np.random.default_rng(28)
        cases = [(random_structure(rng, skewed=k % 2 == 1), 2.5)
                 for k in range(20)]
        cases += [(supercell(make_pretraining_structures(1, seed=3)[0], k), 5.0)
                  for k in (1, 2, 3)]
        cases += [(cubic_structure(a=1.0), 0.5)]  # no edges
        for s, cutoff in cases:
            g = build_periodic_graph(s, cutoff)
            self.assert_keys_match(g.num_nodes, g.src, g.dst, g.offsets)

    @pytest.mark.parametrize("n, m", [(1, 2**20 - 1), (2, 2**19), (5, 2**18)])
    def test_largest_offsets_that_fit(self, n, m):
        # (n^2) (2m + 1)^3 < 2^63 for each case; the corners of the offset
        # cube and random offsets within it
        rng = np.random.default_rng(n)
        corners = np.array(list(product((-m, m), repeat=3)))
        offsets = np.concatenate([corners, rng.integers(-m, m + 1, (200, 3))])
        src = rng.integers(0, n, len(offsets))
        dst = rng.integers(0, n, len(offsets))
        self.assert_keys_match(n, src, dst, offsets)
        keys = _edge_keys(n, src, dst, offsets)
        rows = np.column_stack([src, dst, offsets])
        assert np.array_equal(np.argsort(keys, kind="stable"),
                              np.lexsort(rows.T[::-1]))


class TestCutoffReach:
    """The reach an unsearchable cell's error names has the bits of
    cutoff * np.linalg.norm(inv, axis=0), overflow to inf included."""

    @staticmethod
    def lattices():
        fixed = [[[1e6, 0, 0], [0, 1e-9, 0], [0, 0, 1]],
                 [[1, 0, 0], [0.999999, 1e-7, 0], [0.3, 0.7, 2]],
                 [[4, 0, 0], [1e308, 3, 0], [0, 0, 4]],
                 [[4, 0, 0], [1e30, 3, 0], [0, 0, 4]],
                 [[3e-4, 0, 0], [1e-4, 2e-4, 0], [0.5, 0.25, 1e-4]]]
        rng = np.random.default_rng(28)
        rand = []
        for _ in range(200):
            # a rotated cell with one short axis: that axis reaches past
            # MAX_SEARCH_PAIRS cells, and the inverse's column for it holds
            # three entries of one magnitude, whose sum's bits depend on
            # the order of adds
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            q *= np.sign(np.linalg.det(q))
            rand.append(np.diag([1.0, 2.0, 10.0 ** -rng.uniform(6, 9)]) @ q)
        return [np.array(L, dtype=float) for L in fixed] + rand

    def test_reach_has_the_norms_bits(self):
        for lattice in self.lattices():
            s = CrystalStructure(lattice, np.zeros((1, 3)), [1], id="far")
            with np.errstate(over="ignore"):
                want = (5.0 * np.linalg.norm(np.linalg.inv(lattice), axis=0)).tolist()
            with pytest.raises(ValidationError,
                               match=re.escape(f"reaches {want} cells")):
                build_periodic_graph(s, 5.0)
