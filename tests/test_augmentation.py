import numpy as np
import pytest
from helpers import (cubic_structure, dropped_edges, edge_keys, edge_multiset,
                     random_structure, reconstruct_original, rocksalt_structure,
                     view_graph)

from crystalembed.augmentation import augment, batch_views, two_views
from crystalembed.errors import ValidationError
from crystalembed.periodic_graph import build_periodic_graph
from crystalembed.structures import CrystalStructure


def _ten_unordered_edge_graph():
    # A at origin, B at (0.5, 0.5, 0) in a unit cube, cutoff 1.05:
    # 4 A-B image connections + 3 A-A + 3 B-B = 10 unordered edges
    s = CrystalStructure(
        lattice=np.eye(3),
        frac_coords=np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0]]),
        atomic_numbers=np.array([11, 17]),
        id="ten",
    )
    g = build_periodic_graph(s, cutoff=1.05)
    assert g.num_edges == 20
    return g


class TestAugment:
    def test_zero_ratios_identity(self):
        g = build_periodic_graph(rocksalt_structure(), cutoff=0.9)
        v = augment(g, 0.0, 0.0, seed=99)
        assert edge_multiset(view_graph(v)) == edge_multiset(g)
        assert len(v.masked_nodes) == 0
        assert len(dropped_edges(v)) == 0

    def test_same_seed_same_view(self):
        g = build_periodic_graph(rocksalt_structure(), cutoff=1.2)
        a = augment(g, 0.3, 0.3, seed=42)
        b = augment(g, 0.3, 0.3, seed=42)
        assert np.array_equal(a.masked_nodes, b.masked_nodes)
        assert edge_multiset(view_graph(a)) == edge_multiset(view_graph(b))

    def test_exact_drop_count(self):
        g = _ten_unordered_edge_graph()
        v = augment(g, 0.0, 0.3, seed=7)
        assert view_graph(v).num_edges == 14
        assert len(dropped_edges(v)) == 6  # 3 unordered pairs = 6 directed edges

    def test_at_least_one_masked(self):
        g = build_periodic_graph(cubic_structure(), cutoff=1.05)
        v = augment(g, 0.05, 0.0, seed=1)  # round(0.05 * 1) == 0, bumped to 1
        assert len(v.masked_nodes) == 1

    def test_mask_count_rounding(self):
        rng = np.random.default_rng(0)
        s = random_structure(rng, max_sites=6)
        g = build_periodic_graph(s, cutoff=3.0)
        for ratio in (0.15, 0.4, 0.75):
            v = augment(g, ratio, 0.0, seed=5)
            expected = max(1, int(np.floor(ratio * g.num_nodes + 0.5)))
            assert len(v.masked_nodes) == expected

    def test_view_closed_under_reversal(self):
        g = _ten_unordered_edge_graph()
        v = augment(g, 0.2, 0.4, seed=3)
        edges = edge_multiset(view_graph(v))
        mirrored = {(j, i, tuple(-x for x in o)): c for (i, j, o), c in edges.items()}
        assert edges == mirrored

    def test_reconstruction_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            s = random_structure(rng, max_sites=5)
            g = build_periodic_graph(s, cutoff=3.5)
            v = augment(g, 0.3, 0.45, seed=int(rng.integers(2**63)))
            merged = reconstruct_original(v)
            assert edge_multiset(merged) == edge_multiset(g)
            assert np.array_equal(merged.src, g.src)
            assert np.array_equal(merged.offsets, g.offsets)
            assert np.array_equal(merged.distances, g.distances)

    def test_bad_ratio_rejected(self):
        g = build_periodic_graph(cubic_structure(), cutoff=1.05)
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValidationError):
                augment(g, bad, 0.0, seed=0)
            with pytest.raises(ValidationError):
                augment(g, 0.0, bad, seed=0)

    def test_different_seeds_differ(self):
        s = CrystalStructure(
            lattice=4.0 * np.eye(3),
            frac_coords=np.random.default_rng(1).random((12, 3)),
            atomic_numbers=np.full(12, 6),
            id="many",
        )
        g = build_periodic_graph(s, cutoff=3.0)
        masks = {tuple(augment(g, 0.25, 0.0, seed=k).masked_nodes) for k in range(24)}
        assert len(masks) > 12


class TestTwoViews:
    def test_reproducible(self):
        g = build_periodic_graph(rocksalt_structure(), cutoff=1.2)
        va1, vb1 = two_views(g, 0.3, 0.3, seed=42)
        va2, vb2 = two_views(g, 0.3, 0.3, seed=42)
        assert np.array_equal(va1.masked_nodes, va2.masked_nodes)
        assert np.array_equal(vb1.masked_nodes, vb2.masked_nodes)
        assert edge_multiset(view_graph(va1)) == edge_multiset(view_graph(va2))
        assert edge_multiset(view_graph(vb1)) == edge_multiset(view_graph(vb2))

    def test_zero_ratios_both_equal_original(self):
        g = build_periodic_graph(rocksalt_structure(), cutoff=0.9)
        va, vb = two_views(g, 0.0, 0.0, seed=11)
        assert edge_multiset(view_graph(va)) == edge_multiset(g)
        assert edge_multiset(view_graph(vb)) == edge_multiset(g)

    def test_masking_frequency(self):
        n = 20
        s = CrystalStructure(
            lattice=10.0 * np.eye(3),
            frac_coords=np.random.default_rng(2).random((n, 3)),
            atomic_numbers=np.full(n, 14),
            id="freq",
        )
        g = build_periodic_graph(s, cutoff=2.0)
        ratio, draws = 0.15, 1000
        hits = np.zeros(n)
        for k in range(draws):
            va, vb = two_views(g, ratio, 0.0, seed=k)
            hits[va.masked_nodes] += 1
            hits[vb.masked_nodes] += 1
        freq = hits / (2 * draws)
        sigma = np.sqrt(ratio * (1 - ratio) / (2 * draws))
        assert np.all(np.abs(freq - ratio) <= 3 * sigma)

    def test_identity_view(self):
        g = build_periodic_graph(rocksalt_structure(), cutoff=0.9)
        v = augment(g, 0.0, 0.0, 0)
        assert edge_multiset(view_graph(v)) == edge_multiset(g)
        assert len(v.masked_nodes) == 0


def _fcc_graph():
    s = CrystalStructure(
        lattice=np.eye(3),
        frac_coords=np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0],
                              [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]),
        atomic_numbers=np.array([29, 29, 79, 79]),
        id="fcc",
    )
    g = build_periodic_graph(s, cutoff=0.75)
    assert g.num_edges == 48
    return g


# (seed, view) -> (masked nodes, dropped directed-edge indices), recorded
# from the implementation that built every view as its own graph
RECORDED_FCC = {  # mask_ratio 0.5, drop_ratio 0.3
    (0, 0): ([2, 3], [1, 9, 14, 16, 18, 22, 29, 31, 32, 33, 38, 41, 46, 47]),
    (0, 1): ([2, 3], [0, 6, 7, 10, 15, 18, 19, 23, 24, 25, 28, 29, 37, 40]),
    (7, 0): ([1, 2], [2, 8, 9, 11, 13, 16, 21, 31, 33, 36, 38, 39, 42, 46]),
    (7, 1): ([0, 1], [0, 1, 11, 14, 15, 17, 20, 22, 30, 32, 36, 41, 43, 47]),
    (2**40 + 3, 0): ([0, 3], [2, 5, 6, 13, 16, 17, 19, 20, 25, 26, 28, 30,
                              31, 43]),
    (2**40 + 3, 1): ([0, 1], [6, 9, 17, 21, 25, 30, 32, 33, 35, 38, 42, 44,
                              46, 47]),
}
RECORDED_TEN = {  # mask_ratio 0.3, drop_ratio 0.3
    (0, 0): ([1], [0, 1, 4, 5, 9, 10]),
    (0, 1): ([1], [0, 5, 8, 11, 16, 17]),
    (7, 0): ([1], [2, 3, 6, 13, 16, 17]),
    (7, 1): ([1], [0, 1, 4, 5, 6, 13]),
    (2**40 + 3, 0): ([0], [6, 9, 10, 13, 14, 19]),
    (2**40 + 3, 1): ([0], [0, 2, 3, 5, 6, 13]),
}


class TestViewsAsMasks:
    @pytest.mark.parametrize("make, ratios, recorded", [
        (_fcc_graph, (0.5, 0.3), RECORDED_FCC),
        (_ten_unordered_edge_graph, (0.3, 0.3), RECORDED_TEN),
    ])
    def test_recorded_views(self, make, ratios, recorded):
        g = make()
        for (seed, which), (masked, dropped) in recorded.items():
            view = two_views(g, *ratios, seed)[which]
            assert view.masked_nodes.tolist() == masked
            assert np.flatnonzero(~view.keep).tolist() == dropped
            # the materialised graph holds exactly the kept edges, in order
            kept = [k for e, k in enumerate(edge_keys(g)) if e not in dropped]
            assert edge_keys(view_graph(view)) == kept
            assert len(dropped_edges(view)) == len(dropped)

    def test_batch_views_shifts_masks_and_edges(self):
        g = _fcc_graph()
        views = list(two_views(g, 0.5, 0.3, 7)) + [augment(g, 0.0, 0.0, 0)]
        batch = batch_views(views)
        assert batch.masked_nodes.tolist() == [1, 2, 4, 5]
        assert batch.segments.tolist() == [0] * 4 + [1] * 4 + [2] * 4
        for v, view in enumerate(views):
            mine = batch.segments[batch.graph.src] == v
            assert np.array_equal(batch.graph.src[mine] - 4 * v,
                                  view_graph(view).src)
            assert np.array_equal(batch.graph.offsets[mine],
                                  view_graph(view).offsets)
