import re

import numpy as np
import pytest
from helpers import (
    brute_force_edges,
    brute_force_multiplicities,
    cubic_structure,
    random_structure,
    rocksalt_structure,
    supercell,
)

from crystalembed.errors import ValidationError
from crystalembed.periodic_graph import (
    PeriodicGraph,
    all_unordered_pairs,
    batch_graphs,
    build_periodic_graph,
    multiplicity_targets,
)
from crystalembed.synthetic import make_pretraining_structures


class TestBuildPeriodicGraph:
    def test_short_cutoff_yields_no_edges(self):
        g = build_periodic_graph(cubic_structure(a=1.0), cutoff=0.5)
        assert g.num_edges == 0

    def test_simple_cubic_six_self_edges(self):
        s = cubic_structure(a=1.0)
        g = build_periodic_graph(s, cutoff=1.05)
        assert g.edge_multiset() == brute_force_edges(s, 1.05)
        assert g.num_edges == 6
        assert np.allclose(g.distances, 1.0)
        offsets = {tuple(o) for o in g.offsets}
        assert offsets == {
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
        }

    def test_rocksalt_cross_edges(self):
        s = rocksalt_structure(a=1.0)
        g = build_periodic_graph(s, cutoff=0.9)
        assert g.edge_multiset() == brute_force_edges(s, 0.9)
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
            edges = g.edge_multiset()
            mirrored = {(j, i, tuple(-x for x in o)): c for (i, j, o), c in edges.items()}
            assert edges == mirrored

    def test_matches_oracle_on_random_cells(self):
        rng = np.random.default_rng(7)
        for k in range(10):
            s = random_structure(rng, max_sites=4, skewed=(k % 2 == 0))
            g = build_periodic_graph(s, cutoff=3.5)
            assert g.edge_multiset() == brute_force_edges(s, 3.5), s.lattice

    def test_bad_cutoff_rejected(self):
        with pytest.raises(ValidationError):
            build_periodic_graph(cubic_structure(), cutoff=0.0)
        with pytest.raises(ValidationError):
            build_periodic_graph(cubic_structure(), cutoff=-2.0)


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
    keys = [tuple(k) for k in g.unordered_keys()]
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
    i, j, o = g.edge_keys()[e]
    return g.edge_keys().index((j, i, tuple(-x for x in o)))


class TestGraphValidation:
    @pytest.mark.parametrize("drop", [0, 5, 27])
    def test_missing_mirror_rejected_naming_survivor(self, drop):
        g = build_periodic_graph(rocksalt_structure(a=1.0), cutoff=1.05)
        assert g.num_edges == 28
        survivor = g.edge_keys()[_mirror_index(g, drop)]
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

    def test_repeated_mirror_pair_accepted(self):
        g = build_periodic_graph(rocksalt_structure(a=1.0), cutoff=1.05)
        idx = np.concatenate([np.arange(g.num_edges), [3, _mirror_index(g, 3)]])
        assert PeriodicGraph(**_graph_kwargs(g, idx)).num_edges == g.num_edges + 2


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
        assert u.edge_keys() == [k for k in g.edge_keys() if k[0] != k[1]]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            batch_graphs([])


def test_edge_groups_number_connections_like_np_unique():
    # augment draws group ids from the RNG, so their numbering is fixed
    rng = np.random.default_rng(23)
    for k in range(10):
        s = random_structure(rng, max_sites=5, skewed=(k % 2 == 0))
        g = build_periodic_graph(s, cutoff=3.5)
        groups, inverse = np.unique(g.unordered_keys(), axis=0,
                                    return_inverse=True)
        num_groups, got = g.edge_groups()
        assert num_groups == len(groups) == g.num_edges // 2
        assert np.array_equal(got, inverse.ravel())
