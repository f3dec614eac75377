import math

import numpy as np
import pytest

from crystalembed import autograd as ag
from crystalembed.augmentation import augment
from crystalembed.decoders import (
    DEFAULT_CLASS_WEIGHTS,
    AdjDecoderParams,
    NodeDecoderParams,
    adj_weighted_ce,
    adjacency_probs,
    init_adj_decoder,
    init_node_decoder,
    node_nll,
    node_probs,
)
from crystalembed.errors import ValidationError
from crystalembed.periodic_graph import build_periodic_graph, multiplicity_targets

from helpers import (all_unordered_pairs, dropped_edges, grad_check, one_segment,
                     reconstruct_original, rocksalt_structure, view_graph)


def rand_h(rng, n, d):
    return ag.parameter(rng.normal(size=(n, d)), "h")


def classes_of(counts, pairs):
    """Target class of every (i, j) pair from an N x N class matrix."""
    return counts[pairs[:, 0], pairs[:, 1]]


class TestNodeProbs:
    def test_zero_params_give_uniform(self):
        rng = np.random.default_rng(0)
        p = NodeDecoderParams(
            w=ag.parameter(np.zeros((118, 4)), "w"),
            b=ag.parameter(np.zeros(118), "b"),
        )
        probs = node_probs(rand_h(rng, 3, 4), p)
        assert np.allclose(probs.data, 1.0 / 118.0, atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        p = init_node_decoder(rng, 4)
        probs = node_probs(rand_h(rng, 5, 4), p)
        assert probs.data.shape == (5, 118)
        assert np.allclose(probs.data.sum(axis=1), 1.0, atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        p = init_node_decoder(rng, 4)
        h = rng.normal(size=(4, 4))
        for c in (1e-6, 0.5, 3.0, 1e6):
            a = node_probs(ag.constant(h), p).data
            b = node_probs(ag.constant(c * h), p).data
            assert np.max(np.abs(a - b)) < 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        p = init_node_decoder(rng, 4)
        h = rng.normal(size=(3, 4))
        got = node_probs(ag.constant(h), p).data
        for i in range(3):
            hn = h[i] / np.linalg.norm(h[i])
            logits = p.w.data @ hn + p.b.data
            e = np.exp(logits - logits.max())
            assert np.allclose(got[i], e / e.sum(), atol=1e-12)


class TestNodeNll:
    def test_perfect_predictions_zero_loss(self):
        probs = np.full((2, 118), 1e-30)
        probs[0, 7] = 1.0  # Z=8
        probs[1, 0] = 1.0  # Z=1
        loss = node_nll(ag.constant(probs), np.array([8, 1]), None, one_segment(2))
        assert loss.data == 0.0

    def test_uniform_predictions_log118(self):
        probs = np.full((3, 118), 1.0 / 118.0)
        loss = node_nll(ag.constant(probs), np.array([1, 50, 118]), None,
                        one_segment(3))
        assert abs(loss.data - math.log(118.0)) < 1e-15
        assert abs(loss.data - 4.770684624465665) < 1e-12

    def test_two_node_hand_case(self):
        probs = np.full((2, 118), 1e-9)
        probs[0, 10] = 0.5
        probs[1, 20] = 0.25
        loss = node_nll(ag.constant(probs), np.array([11, 21]), None, one_segment(2))
        expected = (-math.log(0.5) - math.log(0.25)) / 2.0
        assert abs(loss.data - expected) < 1e-15
        assert abs(loss.data - 1.039720770839918) < 1e-12

    def test_scope_restricts_mean(self):
        probs = np.full((2, 118), 1e-9)
        probs[0, 10] = 0.5
        probs[1, 20] = 0.25
        loss = node_nll(ag.constant(probs), np.array([11, 21]), [1], one_segment(2))
        assert abs(loss.data - (-math.log(0.25))) < 1e-15

    def test_segments_weigh_graphs_equally(self):
        probs = np.full((3, 118), 1e-9)
        probs[0, 10], probs[1, 20], probs[2, 30] = 0.5, 0.25, 0.125
        numbers, segments = np.array([11, 21, 31]), np.array([0, 1, 1])
        loss = node_nll(ag.constant(probs), numbers, None, segments)
        expected = (math.log(2.0) + (math.log(4.0) + math.log(8.0)) / 2.0) / 2.0
        assert abs(loss.data - expected) < 1e-15
        with pytest.raises(ValidationError, match="scope is empty"):
            node_nll(ag.constant(probs), numbers, [1, 2], segments)

    def test_empty_scope_rejected(self):
        probs = np.full((1, 118), 1.0 / 118.0)
        with pytest.raises(ValidationError):
            node_nll(ag.constant(probs), np.array([1]), [], one_segment(1))

    def test_length_mismatch_rejected(self):
        probs = np.full((2, 118), 1.0 / 118.0)
        with pytest.raises(ValidationError):
            node_nll(ag.constant(probs), np.array([1]), None, one_segment(2))


class TestAdjacencyProbs:
    def test_zero_params_give_uniform(self):
        rng = np.random.default_rng(0)
        p = AdjDecoderParams(
            w_b=ag.parameter(np.zeros((4, 6, 4)), "wb"),
            b_b=ag.parameter(np.zeros(6), "bb"),
            w_a=ag.parameter(np.zeros((6, 6)), "wa"),
            b_a=ag.parameter(np.zeros(6), "ba"),
        )
        pairs = np.array([[0, 0], [0, 1], [1, 2]])
        probs = adjacency_probs(rand_h(rng, 3, 4), p, pairs, one_segment(3))
        assert probs.data.shape == (3, 6)
        assert np.allclose(probs.data, 1.0 / 6.0, atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        p = init_adj_decoder(rng, 4)
        h = rng.normal(size=(3, 4))
        pairs = np.asarray(all_unordered_pairs(3))
        got = adjacency_probs(ag.constant(h), p, pairs, one_segment(3)).data
        hn = h / np.linalg.norm(h, axis=1, keepdims=True)
        for row, (i, j) in enumerate(pairs):
            s = np.zeros(6)
            for k in range(6):
                for d1 in range(4):
                    for d2 in range(4):
                        s[k] += hn[i, d1] * p.w_b.data[d1, k, d2] * hn[j, d2]
            s += p.b_b.data
            logits = p.w_a.data @ s + p.b_a.data
            e = np.exp(logits - logits.max())
            assert np.allclose(got[row], e / e.sum(), atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        p = init_adj_decoder(rng, 4)
        h = rng.normal(size=(3, 4))
        pairs = np.asarray(all_unordered_pairs(3))
        a = adjacency_probs(ag.constant(h), p, pairs, one_segment(3)).data
        b = adjacency_probs(ag.constant(100.0 * h), p, pairs,
                            one_segment(3)).data
        assert np.max(np.abs(a - b)) < 1e-12

    def test_unordered_convention_enforced(self):
        rng = np.random.default_rng(6)
        p = init_adj_decoder(rng, 4)
        with pytest.raises(ValidationError):
            adjacency_probs(rand_h(rng, 3, 4), p, np.array([[2, 1]]), one_segment(3))
        with pytest.raises(ValidationError):
            adjacency_probs(rand_h(rng, 3, 4), p, np.array([[0, 3]]), one_segment(3))


class TestAdjWeightedCe:
    def test_perfect_predictions_zero(self):
        probs = np.full((2, 6), 1e-30)
        probs[0, 1] = 1.0
        probs[1, 0] = 1.0
        counts = np.array([[0, 1], [1, 0]])
        pairs = np.array([[0, 1], [1, 1]])
        loss = adj_weighted_ce(ag.constant(probs), classes_of(counts, pairs),
                               DEFAULT_CLASS_WEIGHTS, one_segment(2))
        assert loss.data == 0.0

    def test_uniform_predictions_log6_any_weights(self):
        probs = np.full((3, 6), 1.0 / 6.0)
        counts = np.array([[0, 2], [2, 5]])
        pairs = np.array([[0, 0], [0, 1], [1, 1]])
        for weights in (DEFAULT_CLASS_WEIGHTS, (0.01, 3, 1, 4, 1, 5)):
            loss = adj_weighted_ce(ag.constant(probs),
                                   classes_of(counts, pairs), weights,
                                   one_segment(3))
            assert abs(loss.data - math.log(6.0)) < 1e-15
            assert abs(loss.data - 1.791759469228055) < 1e-12

    def test_two_pair_hand_case(self):
        # classes (0, 2), both predicted 0.5 on the true class:
        # (0.1 ln2 + 1 ln2) / 1.1 = ln 2
        probs = np.full((2, 6), 0.1)
        probs[0, 0] = 0.5
        probs[1, 2] = 0.5
        counts = np.array([[0, 2], [2, 0]])
        pairs = np.array([[0, 0], [0, 1]])
        loss = adj_weighted_ce(ag.constant(probs), classes_of(counts, pairs),
                               (0.1, 1.0, 1.0, 1.0, 1.0, 1.0), one_segment(2))
        assert abs(loss.data - math.log(2.0)) < 1e-15

    def test_segments_weigh_graphs_equally(self):
        probs = np.full((3, 6), 0.1)
        probs[0, 1], probs[1, 0], probs[2, 2] = 0.5, 0.25, 0.125
        weights = (0.1, 1.0, 1.0, 1.0, 1.0, 1.0)
        loss = adj_weighted_ce(ag.constant(probs), np.array([1, 0, 2]), weights,
                               np.array([0, 1, 1]))
        second = (0.1 * math.log(4.0) + math.log(8.0)) / 1.1
        assert abs(loss.data - (math.log(2.0) + second) / 2.0) < 1e-15
        with pytest.raises(ValidationError, match="sum to zero"):
            adj_weighted_ce(ag.constant(probs), np.array([1, 0, 0]),
                            (0.0, 1.0, 1.0, 1.0, 1.0, 1.0),
                            np.array([0, 1, 1]))

    def test_zero_weight_sum_rejected(self):
        probs = np.full((1, 6), 1.0 / 6.0)
        counts = np.zeros((2, 2), dtype=int)
        with pytest.raises(ValidationError):
            adj_weighted_ce(ag.constant(probs),
                            classes_of(counts, np.array([[0, 1]])), (0.0,) * 6,
                            one_segment(1))

    def test_row_count_mismatch_rejected(self):
        probs = np.full((1, 6), 1.0 / 6.0)
        counts = np.zeros((2, 2), dtype=int)
        with pytest.raises(ValidationError):
            adj_weighted_ce(ag.constant(probs),
                            classes_of(counts, np.array([[0, 0], [0, 1]])),
                            DEFAULT_CLASS_WEIGHTS, one_segment(1))


class TestParamValidation:
    def test_class_weight_ordering_enforced(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            init_adj_decoder(rng, 4, class_weights=(1.0,) * 6)
        with pytest.raises(ValidationError):
            init_adj_decoder(rng, 4, class_weights=(-0.1, 1, 1, 1, 1, 1))
        p = init_adj_decoder(rng, 4, class_weights=(0.2, 1, 1, 1, 2, 3))
        assert np.array_equal(p.class_weights, [0.2, 1, 1, 1, 2, 3])

    def test_node_decoder_shape_enforced(self):
        with pytest.raises(ValidationError):
            NodeDecoderParams(
                w=ag.parameter(np.zeros((100, 4)), "w"),
                b=ag.parameter(np.zeros(100), "b"),
            )


class TestDenoisingContract:
    def test_targets_come_from_original_graph(self):
        g = build_periodic_graph(rocksalt_structure(3.0), cutoff=3.0)
        before = multiplicity_targets(g)
        view = augment(g, mask_ratio=0.0, drop_ratio=0.4, seed=3)
        assert dropped_edges(view)
        # recomputing on the original (or its reconstruction) is unchanged,
        # while the corrupted view itself would give different counts
        assert np.array_equal(multiplicity_targets(g).classes, before.classes)
        restored = reconstruct_original(view)
        assert np.array_equal(multiplicity_targets(restored).classes,
                              before.classes)
        assert not np.array_equal(
            multiplicity_targets(view_graph(view)).classes, before.classes)


class TestDecoderGradients:
    def test_node_loss_gradients(self):
        rng = np.random.default_rng(7)
        h = rand_h(rng, 3, 4)
        p = init_node_decoder(rng, 4)
        numbers = np.array([6, 8, 26])

        def f():
            return node_nll(node_probs(h, p), numbers, None, one_segment(3))

        err = grad_check(f, [h] + p.tensors(), h=1e-5, floor=1e-3)
        assert err < 1e-4, err

    def test_adjacency_loss_gradients(self):
        rng = np.random.default_rng(8)
        h = rand_h(rng, 3, 4)
        p = init_adj_decoder(rng, 4)
        pairs = np.asarray(all_unordered_pairs(3))
        counts = np.array([[1, 0, 2], [0, 0, 5], [2, 5, 1]])

        def f():
            probs = adjacency_probs(h, p, pairs, one_segment(3))
            return adj_weighted_ce(probs, classes_of(counts, pairs),
                                   p.class_weights, one_segment(len(pairs)))

        err = grad_check(f, [h] + p.tensors(), h=1e-5, floor=1e-3)
        assert err < 1e-4, err
