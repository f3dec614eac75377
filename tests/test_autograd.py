from dataclasses import dataclass
import logging
import math
from itertools import combinations

import numpy as np
import pytest

from crystalembed import autograd as ag
from crystalembed.encoder import LayerParams, init_layers
from crystalembed.errors import NumericsError, ShapeError, ValidationError
from crystalembed.optim import BUCKET_VALUES, AdamState, adam_step

from helpers import (adam_state_by_parameter, adam_step_by_parameter, grad_check,
                     one_segment)


def rand_param(rng, shape, name="p"):
    return ag.parameter(rng.normal(size=shape), name)


class TestForwardValues:
    def test_silu_at_zero_and_one(self):
        x = ag.constant(np.array([0.0, 1.0]))
        y = ag.silu(x)
        assert y.data[0] == 0.0
        # independent evaluation of x * (1 / (1 + e^-x)) at x=1
        expected = 1.0 / (1.0 + math.exp(-1.0))
        assert abs(y.data[1] - expected) < 1e-15
        assert abs(y.data[1] - 0.7310585786300049) < 1e-12

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 5))
        out = ag.matmul(ag.constant(np.eye(3)), ag.constant(a))
        assert np.array_equal(out.data, a)

    def test_softmax_symmetry(self):
        out = ag.softmax_rows(ag.constant(np.array([[0.0, 0.0]])))
        assert np.array_equal(out.data, [[0.5, 0.5]])

    def test_softmax_large_values_stable(self):
        out = ag.softmax_rows(ag.constant(np.array([[1000.0, 0.0]])))
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] > 0.999999
        assert abs(out.data.sum() - 1.0) < 1e-12

    def test_softmax_123_against_mpmath(self):
        import mpmath

        mpmath.mp.dps = 50
        exps = [mpmath.e**k for k in (1, 2, 3)]
        total = sum(exps)
        expected = [float(e / total) for e in exps]
        out = ag.softmax_rows(ag.constant(np.array([[1.0, 2.0, 3.0]])))
        assert np.allclose(out.data[0], expected, atol=1e-15)
        assert np.allclose(
            out.data[0],
            [0.09003057317038046, 0.24472847105479764, 0.6652409557748219],
            atol=1e-12,
        )

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.normal(scale=100.0, size=(4, 7))
            out = ag.softmax_rows(ag.constant(x))
            assert np.all(np.abs(out.data.sum(axis=1) - 1.0) < 1e-12)

    def test_l2_normalize_345(self):
        out = ag.l2_normalize_rows(ag.constant(np.array([[3.0, 4.0]])))
        assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-15)

    def test_l2_normalize_unit_row_unchanged(self):
        row = np.array([[1.0, 0.0, 0.0]])
        out = ag.l2_normalize_rows(ag.constant(row))
        assert np.allclose(out.data, row, atol=1e-15)

    def test_l2_normalize_zero_row_guarded(self, caplog):
        with caplog.at_level(logging.WARNING, logger="crystalembed.autograd"):
            out = ag.l2_normalize_rows(ag.constant(np.zeros((2, 3))))
        assert np.array_equal(out.data, np.zeros((2, 3)))
        assert any("eps guard" in r.message for r in caplog.records)

    def test_bilinear_zero_weight_returns_bias(self):
        rng = np.random.default_rng(2)
        h = ag.constant(rng.normal(size=(5, 3)))
        b = ag.constant(np.arange(6.0))
        w = ag.constant(np.zeros((3, 6, 3)))
        out = ag.bilinear(h, w, b, np.array([[0, 1], [2, 2], [4, 3], [1, 0]]),
                          one_segment(5))
        assert np.array_equal(out.data, np.tile(np.arange(6.0), (4, 1)))

    def test_bilinear_d1_ramp(self):
        w = np.zeros((1, 6, 1))
        w[0, :, 0] = np.arange(6.0)
        out = ag.bilinear(
            ag.constant(np.ones((1, 1))),
            ag.constant(w),
            ag.constant(np.zeros(6)),
            np.array([[0, 0]]),
            one_segment(1),
        )
        assert np.array_equal(out.data, [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]])

    def test_bilinear_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(6, 4))
        w, b = rng.normal(size=(4, 6, 4)), rng.normal(size=6)
        pairs = np.array([[0, 5], [3, 3], [5, 0], [2, 4], [1, 2]])
        hi, hj = h[pairs[:, 0]], h[pairs[:, 1]]
        out = ag.bilinear(ag.constant(h), ag.constant(w), ag.constant(b), pairs,
                          one_segment(6))
        expected = np.zeros((5, 6))
        for p in range(5):
            for k in range(6):
                acc = 0.0
                for d1 in range(4):
                    for d2 in range(4):
                        acc += hi[p, d1] * w[d1, k, d2] * hj[p, d2]
                expected[p, k] = acc + b[k]
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_logsumexp_matches_naive(self):
        rng = np.random.default_rng(4)
        x = rng.normal(scale=3.0, size=(6, 5))
        out = ag.logsumexp_rows(ag.constant(x))
        assert np.allclose(out.data, np.log(np.exp(x).sum(axis=1)), atol=1e-12)

    def test_nonfinite_trips_error(self):
        with np.errstate(over="ignore"), pytest.raises(NumericsError):
            ag.scale(ag.constant(np.array([1e308])), 10.0)
        with pytest.raises(NumericsError):
            ag.constant(np.array([np.nan]))

    def test_log_nonpositive_rejected(self):
        with pytest.raises(NumericsError):
            ag.log(ag.constant(np.array([0.0])))

    def test_shape_errors(self):
        a = ag.constant(np.zeros((2, 3)))
        b = ag.constant(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            ag.add(a, b)
        with pytest.raises(ShapeError):
            ag.mul(a, b)
        with pytest.raises(ShapeError):
            ag.matmul(a, a)

    def test_segment_mean_matches_loop(self):
        x = np.arange(15.0).reshape(5, 3)
        segments = np.array([2, 0, 2, 1, 2])
        got = ag.segment_mean(ag.constant(x), segments, 3).data
        want = np.array([x[segments == s].mean(axis=0) for s in range(3)])
        assert np.allclose(got, want, rtol=1e-15, atol=0.0)
        with pytest.raises(ShapeError):
            ag.segment_mean(ag.constant(x), segments, 4)  # segment 3 empty


class TestBackward:
    def test_half_norm_squared_grad_is_x(self):
        x = ag.parameter(np.array([1.0, -2.0, 3.5]), "x")
        loss = ag.scale(ag.sum_all(ag.mul(x, x)), 0.5)
        loss.backward()
        assert np.array_equal(x.grad, x.data)

    def test_constant_loss_zero_grads(self):
        x = ag.parameter(np.array([1.0, 2.0]), "x")
        loss = ag.scale(ag.sum_all(x), 0.0)
        loss.backward()
        assert np.array_equal(x.grad, np.zeros(2))

    def test_fanout_accumulates(self):
        # z = x*y + x  =>  dz/dx = y + 1, dz/dy = x
        x = ag.parameter(np.array(2.0), "x")
        y = ag.parameter(np.array(3.0), "y")
        z = ag.add(ag.mul(x, y), x)
        z.backward()
        assert x.grad == 4.0 and y.grad == 2.0

    def test_backward_requires_scalar(self):
        x = ag.parameter(np.ones(3), "x")
        with pytest.raises(ShapeError):
            ag.mul(x, x).backward()

    def test_constants_get_no_gradient(self):
        x = ag.parameter(np.array([1.0, -2.0]), "x")
        c = ag.constant(np.array([3.0, 4.0]))
        doubled = ag.scale(c, 2.0)  # computed from constants alone
        ag.sum_all(ag.mul(x, doubled)).backward()
        assert c.grad is None and doubled.grad is None
        assert np.array_equal(x.grad, [6.0, 8.0])


class TestErrorsNameTheirSource:
    def test_nonfinite_forward_names_the_op(self):
        big = ag.constant(np.full((2, 2), 1e200))
        with np.errstate(over="ignore"), pytest.raises(
                NumericsError, match=r"^matmul: non-finite output$"):
            ag.matmul(big, big)

    def test_overflowing_backward_names_the_parameter(self):
        # each contribution is finite; their sum at the parameter is not
        w = ag.parameter(np.array(1e-300), "w_big")
        loss = ag.add(ag.scale(w, 1e308), ag.scale(w, 1e308))
        with np.errstate(over="ignore"), pytest.raises(
                NumericsError, match=r"non-finite gradient for parameter 'w_big'"):
            loss.backward()

    def test_overflow_inside_gated_message_names_the_part(self):
        # msg_w1 = 0 makes the message MLP's hidden layer silu(0) = 0, so the
        # forward is finite, but its gradient through msg_w2 = 1e308 is not
        rng = np.random.default_rng(0)
        d = 8
        weights = [ag.parameter(w, f"w{i}") for i, w in enumerate([
            np.zeros((2 * d + 2, d)), np.zeros(d), np.full((d, d), 1e308),
            np.zeros(d), rng.normal(size=(2 * d + 2, d)), np.zeros(d),
            rng.normal(size=(d, d)), np.zeros(d)])]
        h = ag.parameter(rng.normal(size=(3, d)), "h")
        out = ag.gated_message(h, ag.constant(rng.normal(size=(4, 2))),
                               [0, 1, 2, 0], [1, 2, 0, 0], weights)
        with np.errstate(over="ignore"), pytest.raises(
                NumericsError, match=r"^backward: non-finite gradient inside "
                r"gated_message, at the message MLP's hidden layer$"):
            ag.sum_all(out).backward()

    def test_nonfinite_intermediate_names_its_op(self):
        # d log(y)/dy = 1/y overflows for a subnormal y, the output of scale
        x = ag.parameter(np.array([1e-310]), "x")
        loss = ag.sum_all(ag.log(ag.scale(x, 1.0)))
        with np.errstate(over="ignore", divide="ignore"), pytest.raises(
                NumericsError, match=r"non-finite gradient at the output of scale$"):
            loss.backward()


class TestFinitenessGuard:
    """Every finiteness check reads one reduction over the whole array: 0-d
    and empty arrays pass when finite, and any NaN or +-inf anywhere fails
    with the message naming its source."""

    SHAPES = [(), (0,), (0, 3), (4,), (2, 3)]

    @staticmethod
    def _holding(shape, bad):
        data = np.ones(shape)
        if data.size:
            data.flat[data.size // 2] = bad
        return data

    @pytest.mark.parametrize("shape", SHAPES)
    def test_finite_and_empty_arrays_pass(self, shape):
        w = ag.parameter(np.ones(shape), "w")
        ag.sum_all(ag.mul(w, ag.constant(np.ones(shape)))).backward()
        assert w.grad.shape == shape

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(), (4,), (2, 3)])
    def test_tensor_values(self, shape, bad):
        data = self._holding(shape, bad)
        with pytest.raises(NumericsError, match=r"^w: non-finite values$"):
            ag.parameter(data, "w")
        with pytest.raises(NumericsError, match=r"^tensor: non-finite values$"):
            ag.constant(data)
        x = ag.parameter(np.ones(shape), "x")
        with pytest.raises(NumericsError, match=r"^op: non-finite output$"):
            ag.Tensor(data, (x,), lambda g: (g,), "op")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(), (4,), (2, 3)])
    def test_backward_sweep(self, shape, bad):
        def taped(leaf_rule, out_rule):
            w = ag.parameter(np.ones(shape), "w")
            mid = ag.Tensor(np.ones(shape), (w,), leaf_rule, "mid")
            return ag.Tensor(np.array(1.0), (mid,), out_rule, "out")

        ones = lambda g: (np.ones(shape),)  # noqa: E731
        spoilt = lambda g: (self._holding(shape, bad),)  # noqa: E731
        with pytest.raises(NumericsError, match=r"^backward: non-finite "
                           r"gradient for parameter 'w'$"):
            taped(spoilt, ones).backward()
        with pytest.raises(NumericsError, match=r"^backward: non-finite "
                           r"gradient at the output of mid$"):
            taped(ones, spoilt).backward()


class TestBackwardConsumesTheTape:
    def test_second_backward_raises(self):
        x = ag.parameter(np.array([1.0, 2.0]), "x")
        loss = ag.sum_all(ag.mul(x, x))
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(ValidationError, match="consumed"):
            loss.backward()
        assert np.array_equal(x.grad, first)

    def test_backward_through_a_consumed_intermediate_raises(self):
        x = ag.parameter(np.array([1.0, 2.0]), "x")
        sq = ag.mul(x, x)
        ag.sum_all(sq).backward()
        with pytest.raises(ValidationError, match="tape through mul"):
            ag.mean_all(sq).backward()

    def test_a_fresh_forward_accumulates_into_leaves(self):
        x = ag.parameter(np.array([1.0, -2.0]), "x")
        for _ in range(2):
            ag.sum_all(ag.mul(x, x)).backward()
        assert np.array_equal(x.grad, 4.0 * x.data)


class TestNoGrad:
    def test_results_are_off_the_tape(self):
        x = ag.parameter(np.array([1.0, -2.0]), "x")
        with ag.no_grad():
            y = ag.mul(x, x)
        assert not y.requires_grad
        assert y._parents == () and y._rule is None
        assert np.array_equal(y.data, [1.0, 4.0])
        assert ag.mul(x, x).requires_grad

    def test_values_match_a_recorded_forward_bitwise(self):
        rng = np.random.default_rng(0)
        x = rand_param(rng, (4, 3))
        w = rand_param(rng, (3, 2), "w")
        recorded = ag.silu(ag.matmul(x, w)).data
        with ag.no_grad():
            assert np.array_equal(ag.silu(ag.matmul(x, w)).data, recorded)

    def test_finiteness_is_still_checked(self):
        big = ag.parameter(np.full((2, 2), 1e200), "big")
        with ag.no_grad(), np.errstate(over="ignore"), pytest.raises(
                NumericsError, match=r"^matmul: non-finite output$"):
            ag.matmul(big, big)

    def test_recording_resumes_after_a_raising_body(self):
        x = ag.parameter(np.array([1.0, 2.0]), "x")
        with pytest.raises(RuntimeError, match="body"):
            with ag.no_grad():
                raise RuntimeError("body")
        assert ag.mul(x, x).requires_grad

    def test_scopes_nest(self):
        x = ag.parameter(np.array([1.0, 2.0]), "x")
        with ag.no_grad():
            with ag.no_grad():
                assert not ag.mul(x, x).requires_grad
            assert not ag.mul(x, x).requires_grad
        assert ag.mul(x, x).requires_grad


class TestBackwardFromOffTheTape:
    def test_a_result_made_under_no_grad_raises_naming_its_op(self):
        x = ag.parameter(np.array([1.0, 2.0]), "x")
        with ag.no_grad():
            loss = ag.sum_all(ag.mul(x, x))
        with pytest.raises(ValidationError, match="output of sum_all is not on the tape"):
            loss.backward()
        assert x.grad is None

    def test_a_result_of_constants_alone_raises(self):
        loss = ag.mean_all(ag.constant(np.array([1.0, 3.0])))
        with pytest.raises(ValidationError, match="output of mean_all"):
            loss.backward()


# an upstream gradient with -0.0, +0.0 and nonzero entries of both signs
SIGNED = np.array([[-0.0, 1.5, 0.0], [-2.0, -0.0, 3.25]])


def _alias_cases():
    """(name, parameters, builder of the pre-mix tensor from them, the oracle
    gradient of every parameter as a function of the upstream gradient g,
    which arrives at the parameters through an alias or a view of it)."""
    def params(*shapes):
        rng = np.random.default_rng(len(shapes))
        return [ag.parameter(rng.normal(size=s), f"p{i}")
                for i, s in enumerate(shapes)]

    return [
        ("add-two-params", params((2, 3), (2, 3)), lambda a, b: ag.add(a, b),
         lambda g: [g, g]),
        ("concat-rows", params((1, 3), (1, 3)),
         lambda a, b: ag.concat([a, b], axis=0), lambda g: [g[:1], g[1:]]),
        ("concat-cols", params((2, 1), (2, 2)),
         lambda a, b: ag.concat([a, b], axis=1), lambda g: [g[:, :1], g[:, 1:]]),
        ("reshape", params((3, 2)), lambda a: ag.reshape(a, (2, 3)),
         lambda g: [g.reshape(3, 2)]),
        ("transpose", params((3, 2)), lambda a: ag.transpose(a), lambda g: [g.T]),
        ("sub", params((2, 3), (2, 3)), lambda a, b: ag.sub(a, b),
         lambda g: [g, -g]),
    ]


class TestGradientsOwnTheirArrays:
    """A first contribution that aliases the upstream gradient is copied, and
    every gradient starts at +0.0 as a zero-filled buffer would."""

    @pytest.mark.parametrize("case", _alias_cases(), ids=lambda c: c[0])
    def test_alias_and_view_contributions(self, case):
        _, params, build, oracle = case
        out = build(*params)
        mixed = ag.mul(out, ag.constant(SIGNED))
        ag.sum_all(mixed).backward()
        for p, want in zip(params, oracle(SIGNED)):
            assert _same_bits(p.grad, 0.0 + want), p.name
            assert p.grad.flags.c_contiguous
        # intermediates drop their gradients; parameters keep theirs
        assert out.grad is None and mixed.grad is None
        # gradients are independent arrays
        for p in params:
            rest = [q for q in params if q is not p]
            before = [q.grad.copy() for q in rest]
            p.grad[...] = np.nan
            assert all(_same_bits(q.grad, b) for q, b in zip(rest, before))

    def test_add_of_a_tensor_to_itself(self):
        x = ag.parameter(np.ones((2, 3)), "x")
        twice = ag.add(x, x)
        ag.sum_all(ag.mul(twice, ag.constant(SIGNED))).backward()
        assert _same_bits(x.grad, (0.0 + SIGNED) + SIGNED)
        assert twice.grad is None

    def test_fan_out_through_a_view_and_an_alias(self):
        # x reaches the loss through a view (reshape) and an alias (add)
        x = ag.parameter(np.arange(6.0).reshape(2, 3), "x")
        y = ag.parameter(np.full((2, 3), 2.0), "y")
        flat = ag.reshape(x, (6,))
        loss = ag.add(ag.sum_all(ag.mul(ag.add(x, y), ag.constant(SIGNED))),
                      ag.sum_all(ag.mul(flat, ag.constant(SIGNED.ravel()))))
        loss.backward()
        assert _same_bits(x.grad, (0.0 + SIGNED) + SIGNED)
        assert _same_bits(y.grad, 0.0 + SIGNED)
        y.grad[0, 0] = 99.0
        assert x.grad[0, 0] == 0.0 and not np.signbit(x.grad[0, 0])


def _bilinear_oracle(hi, w, hj, b, g):
    """The einsum forms: output, then the gradients of sum(g * output) with
    respect to hi, w, hj and b."""
    return (np.einsum("pd,dke,pe->pk", hi, w, hj) + b,
            np.einsum("pk,dke,pe->pd", g, w, hj),
            np.einsum("pd,pk,pe->dke", hi, g, hj),
            np.einsum("pk,dke,pd->pe", g, w, hi),
            g.sum(axis=0))


def _assert_close(got, want, rtol=1e-12):
    """Max-abs error within rtol of the largest reference entry."""
    assert got.shape == want.shape
    err = np.max(np.abs(got - want), initial=0.0)
    assert err <= rtol * np.max(np.abs(want), initial=0.0), err


def _gathered_oracle(h, w, b, pairs, g):
    """_bilinear_oracle on the gathered rows hi = h[i], hj = h[j]: output,
    then the gradients with respect to h (both sides scatter-added), w and b."""
    i, j = pairs[:, 0], pairs[:, 1]
    fwd, d_hi, d_w, d_hj, d_b = _bilinear_oracle(h[i], w, h[j], b, g)
    d_h = np.zeros_like(h)
    np.add.at(d_h, i, d_hi)
    np.add.at(d_h, j, d_hj)
    return fwd, d_h, d_w, d_b


class TestBilinearAgainstEinsum:
    D, K = 64, 6

    def _inputs(self, nodes, pairs, seed):
        rng = np.random.default_rng(seed)
        w = rand_param(rng, (self.D, self.K, self.D), "w")
        w.data /= self.D
        return (rand_param(rng, (nodes, self.D), "h"), w,
                rand_param(rng, (self.K,), "b"), rng.normal(size=(pairs, self.K)))

    def _check_against_oracle(self, h, w, b, g, pairs, segments):
        out = ag.bilinear(h, w, b, pairs, segments)
        ag.sum_all(ag.mul(out, ag.constant(g))).backward()
        want = _gathered_oracle(h.data, w.data, b.data, pairs, g)
        for got, ref in zip((out.data, h.grad, w.grad, b.grad), want):
            _assert_close(got, ref)

    @pytest.mark.parametrize("pairs", [0, 1, 1485])
    def test_forward_and_gradients(self, pairs):
        # the 1,485 unordered pairs of 54 nodes, in a shuffled order
        h, w, b, g = self._inputs(54, pairs, seed=pairs)
        triu = np.column_stack(np.triu_indices(54))
        order = np.random.default_rng(pairs).permutation(len(triu))[:pairs]
        self._check_against_oracle(h, w, b, g, triu[order], one_segment(54))

    def test_same_tensor_on_both_sides(self):
        h, w, b, g = self._inputs(40, 40, seed=7)
        self._check_against_oracle(h, w, b, g, np.repeat(np.arange(40), 2).reshape(40, 2),
                                   one_segment(40))

    def test_mixed_block_sizes_in_one_call(self):
        # segments of 16, 1, 54, 2, 16 and 2 rows, their rows interleaved
        sizes = [16, 1, 54, 2, 16, 2]
        rng = np.random.default_rng(5)
        segments = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        pairs = np.concatenate([
            np.flatnonzero(segments == s)[np.column_stack(np.triu_indices(n))]
            for s, n in enumerate(sizes)])
        pairs = pairs[rng.permutation(len(pairs))]
        h, w, b, g = self._inputs(len(segments), len(pairs), seed=6)
        self._check_against_oracle(h, w, b, g, pairs, segments)

    def test_shuffled_repeated_pairs_accumulate(self):
        rng = np.random.default_rng(8)
        segments = np.repeat([0, 1], [5, 3])
        once = np.array([[0, 4], [4, 0], [2, 2], [5, 7], [6, 6], [1, 3]])
        pairs = np.concatenate([once, once, once[:2]])[rng.permutation(14)]
        h, w, b, g = self._inputs(8, len(pairs), seed=9)
        self._check_against_oracle(h, w, b, g, pairs, segments)

    def test_cross_segment_pair_rejected(self):
        h, w, b, _ = self._inputs(4, 0, seed=10)
        with pytest.raises(ShapeError):
            ag.bilinear(h, w, b, np.array([[0, 1], [1, 2]]), [0, 0, 1, 1])
        with pytest.raises(ShapeError):
            ag.bilinear(h, w, b, np.array([[0, 1]]), [0, 0, 1])


def _check(op_builder, shapes, seed, floor=1e-3):
    # Scalarize with a fixed random mixing tensor so every output entry
    # contributes to the loss with a distinct weight.
    rng = np.random.default_rng(seed)
    params = [rand_param(rng, s, f"p{i}") for i, s in enumerate(shapes)]
    probe = op_builder(*params)
    mix = np.random.default_rng(seed + 1).normal(size=probe.data.shape)

    def f():
        out = op_builder(*params)
        return ag.sum_all(ag.mul(out, ag.constant(mix)))

    return grad_check(f, params, h=1e-5, floor=floor)


# every differentiable op, as (builder from parameters, parameter shapes)
CORE_CASES = [
    (lambda a, b: ag.add(a, b), [(3, 4), (3, 4)]),
    (lambda a, b: ag.add(a, b), [(3, 4), (4,)]),
    (lambda a, b: ag.sub(a, b), [(2, 5), (2, 5)]),
    (lambda a, b: ag.mul(a, b), [(3, 3), (3, 3)]),
    (lambda a: ag.scale(a, -1.7), [(2, 3)]),
    (lambda a, b: ag.matmul(a, b), [(2, 3), (3, 4)]),
    (lambda a: ag.transpose(a), [(2, 4)]),
    (lambda a, b: ag.concat([a, b], axis=0), [(2, 3), (1, 3)]),
    (lambda a, b: ag.concat([a, b], axis=1), [(2, 2), (2, 3)]),
    (lambda a: ag.reshape(a, (6,)), [(2, 3)]),
    (lambda a: ag.silu(a), [(3, 3)]),
    (lambda a: ag.sigmoid(a), [(3, 3)]),
    (lambda a: ag.softmax_rows(a), [(3, 5)]),
    (lambda a: ag.logsumexp_rows(a), [(3, 5)]),
    (lambda a: ag.l2_normalize_rows(a), [(3, 4)]),
    (lambda a: ag.segment_mean(a, [1, 0, 1, 1], 2), [(4, 3)]),
    (lambda a: ag.mean_all(a), [(3, 3)]),
    (lambda a: ag.abs_(a), [(3, 3)]),
    (
        lambda h, w, b: ag.bilinear(
            h, w, b, np.array([[0, 1], [2, 4], [4, 2], [3, 3], [0, 1]]),
            [0, 0, 1, 1, 1]),
        [(5, 4), (4, 6, 4), (6,)],
    ),
    (
        lambda h, feats, *weights: ag.gated_message(
            h, feats, [0, 1, 2, 3, 1, 0], [1, 0, 3, 2, 1, 1], weights),
        [(4, 3), (6, 2), *[(8, 3), (3,), (3, 3), (3,)] * 2],
    ),
]


class TestGradCheckPerOp:
    """Each differentiable op at 20 random points, tolerance 1e-6."""

    @pytest.mark.parametrize("seed", range(20))
    def test_core_ops(self, seed):
        for case_idx, (op_builder, shapes) in enumerate(CORE_CASES):
            err = _check(op_builder, shapes, seed=1000 * seed + case_idx)
            assert err < 1e-6, (shapes, err)

    @pytest.mark.parametrize("seed", range(20))
    def test_log_positive_domain(self, seed):
        rng = np.random.default_rng(seed)
        x = ag.parameter(rng.uniform(0.5, 3.0, size=(3, 3)), "x")
        mix = rng.normal(size=(3, 3))

        def f():
            return ag.sum_all(ag.mul(ag.log(x), ag.constant(mix)))

        assert grad_check(f, [x], h=1e-6, floor=1e-3) < 1e-6

    @pytest.mark.parametrize("seed", range(20))
    def test_gather_scatter_take(self, seed):
        rng = np.random.default_rng(200 + seed)
        table = ag.parameter(rng.normal(size=(6, 4)), "table")
        idx = rng.integers(0, 6, size=9)
        dst = rng.integers(0, 5, size=9)
        rows = rng.integers(0, 6, size=7)
        cols = rng.integers(0, 4, size=7)
        mix1 = rng.normal(size=(5, 4))
        mix2 = rng.normal(size=7)

        def f():
            gathered = ag.row_gather(table, idx)
            spread = ag.row_scatter_add(gathered, dst, 5)
            taken = ag.take(table, rows, cols)
            return ag.add(
                ag.sum_all(ag.mul(spread, ag.constant(mix1))),
                ag.sum_all(ag.mul(taken, ag.constant(mix2))),
            )

        assert grad_check(f, [table], h=1e-5, floor=1e-3) < 1e-6


class TestOneRulePerOp:
    """An op records one rule, which returns one contribution per input, in
    input order, each shaped like its input; two contributions share memory
    only when both are the output's gradient or views of it."""

    @pytest.mark.parametrize("case_idx", range(len(CORE_CASES)))
    def test_rule_contract(self, case_idx):
        op_builder, shapes = CORE_CASES[case_idx]
        rng = np.random.default_rng(case_idx)
        out = op_builder(*[rand_param(rng, s) for s in shapes])
        g = rng.normal(size=out.data.shape)
        contributions = out._rule(g)
        assert isinstance(contributions, tuple)
        assert len(contributions) == len(out._parents)
        for c, p in zip(contributions, out._parents):
            assert isinstance(c, np.ndarray) and c.shape == p.data.shape
        for a, b in combinations(contributions, 2):
            if np.shares_memory(a, b):
                assert np.shares_memory(a, g) and np.shares_memory(b, g)


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p = ag.parameter(np.array([1.0, -2.0]), "w")
        state = AdamState.for_params([p], lr=0.1)
        before = p.data.copy()
        p.grad = np.zeros(2)
        adam_step(state, [p])
        assert np.array_equal(p.data, before)

    def test_single_scalar_first_step(self):
        # hand evaluation: m=0.1, v=1e-3, m_hat=1, v_hat=1
        # delta = -lr * 1 / (1 + eps)
        p = ag.parameter(np.array(0.0), "w")
        state = AdamState.for_params([p], lr=0.1)
        p.grad = np.array(1.0)
        adam_step(state, [p])
        expected = -0.1 * 1.0 / (1.0 + 1e-8)
        assert abs(p.data - expected) < 1e-15
        assert abs(p.data + 0.1) < 1e-8

    def test_two_runs_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(7)
            p = ag.parameter(rng.normal(size=(4, 3)), "w")
            state = AdamState.for_params([p], lr=0.05)
            for step in range(25):
                target = ag.constant(np.ones((4, 3)))
                diff = ag.sub(p, target)
                loss = ag.mean_all(ag.mul(diff, diff))
                p.zero_grad()
                loss.backward()
                adam_step(state, [p])
            return p.data

        assert np.array_equal(run(), run())

    def test_converges_on_quadratic(self):
        p = ag.parameter(np.array([5.0]), "w")
        state = AdamState.for_params([p], lr=0.3)
        for _ in range(400):
            loss = ag.mean_all(ag.mul(p, p))
            p.zero_grad()
            loss.backward()
            adam_step(state, [p])
        assert abs(p.data[0]) < 1e-3

    def test_shape_mismatch_rejected(self):
        p = ag.parameter(np.zeros(3), "w")
        state = AdamState.for_params([p])
        p.grad = np.zeros(4)
        with pytest.raises(ShapeError):
            adam_step(state, [p])

    @pytest.mark.parametrize("dim", [16, 64])
    def test_buckets_equal_the_per_parameter_update(self, dim):
        rng = np.random.default_rng(dim)
        # a 0-d parameter, one that straddles a bucket edge, one whose
        # gradient is never set, and the shapes of an encoder layer
        shapes = [(), (BUCKET_VALUES // dim + 3, dim), (7,), (2 * dim + 2, dim),
                  (dim,), (dim, dim)]
        params = [ag.parameter(rng.normal(size=s), f"p{k}")
                  for k, s in enumerate(shapes)]
        twins = [ag.parameter(p.data, p.name) for p in params]
        state = AdamState.for_params(params, lr=0.05)
        oracle = adam_state_by_parameter(twins, lr=0.05)
        sizes = np.array([p.data.size for p in params])
        ends = np.cumsum(sizes)
        edges = np.arange(BUCKET_VALUES, ends[-1], BUCKET_VALUES)
        assert ((ends[:, None] - sizes[:, None] < edges)
                & (edges < ends[:, None])).any()
        for _ in range(5):
            for k, (p, q) in enumerate(zip(params, twins)):
                p.grad = None if k == 2 else rng.normal(size=p.data.shape)
                q.grad = None if p.grad is None else p.grad.copy()
            adam_step(state, params)
            adam_step_by_parameter(oracle, twins)
            for p, q in zip(params, twins):
                assert np.array_equal(p.data, q.data), p.name
                assert np.array_equal(state.m[p.name], oracle.m[p.name])
                assert np.array_equal(state.v[p.name], oracle.v[p.name])
        assert state.step == oracle.step == 5

    def test_shape_mismatch_names_the_parameter(self):
        params = [ag.parameter(np.zeros((2, 3)), "a"),
                  ag.parameter(np.zeros(3), "b")]
        state = AdamState.for_params(params)
        params[1].grad = np.zeros(4)
        with pytest.raises(ShapeError, match=r"gradient shape \(4,\) != param "
                           r"shape \(3,\) for 'b'"):
            adam_step(state, params)
        assert np.array_equal(params[0].data, np.zeros((2, 3)))

    def test_parameters_must_be_those_of_the_state(self):
        a, b = ag.parameter(np.zeros(2), "a"), ag.parameter(np.zeros(2), "b")
        state = AdamState.for_params([a])
        with pytest.raises(ValidationError, match="2 parameters"):
            adam_step(state, [a, b])
        with pytest.raises(ValidationError, match="no moments for 'b'"):
            adam_step(state, [b])


def _ufunc_scatter(shape, index, values):
    """Reference scatter-add: np.add.at into zeros."""
    out = np.zeros(shape)
    np.add.at(out, index, values)
    return out


def _two_branch_sigmoid(x):
    """Reference sigmoid: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestScatterAddAgainstUfuncAt:
    """row_scatter_add and the gather gradients, bitwise against np.add.at on
    fresh zeros; duplicate indices wherever there are more entries than rows."""

    SIZES = [(6, 4, 0), (6, 4, 1), (6, 4, 40), (64, 16, 640), (5, 0, 7)]

    @pytest.mark.parametrize("rows, d, m", SIZES)
    def test_row_scatter_add_forward(self, rows, d, m):
        rng = np.random.default_rng(rows + m)
        idx, x = rng.integers(0, rows, size=m), rng.normal(size=(m, d))
        got = ag.row_scatter_add(ag.constant(x), idx, rows).data
        assert _same_bits(got, _ufunc_scatter((rows, d), idx, x))

    @pytest.mark.parametrize("rows, d, m", SIZES)
    def test_row_gather_gradient(self, rows, d, m):
        rng = np.random.default_rng(rows + m + 1)
        table = rand_param(rng, (rows, d), "table")
        idx, g = rng.integers(0, rows, size=m), rng.normal(size=(m, d))
        ag.sum_all(ag.mul(ag.row_gather(table, idx), ag.constant(g))).backward()
        assert _same_bits(table.grad, _ufunc_scatter((rows, d), idx, g))

    @pytest.mark.parametrize("rows, d, m", [s for s in SIZES if s[1]])
    def test_take_gradient(self, rows, d, m):
        rng = np.random.default_rng(rows + m + 2)
        table = rand_param(rng, (rows, d), "table")
        r, c = rng.integers(0, rows, size=m), rng.integers(0, d, size=m)
        g = rng.normal(size=m)
        taken = ag.take(table, r, c)
        assert np.array_equal(taken.data, table.data[r, c])
        ag.sum_all(ag.mul(taken, ag.constant(g))).backward()
        assert _same_bits(table.grad, _ufunc_scatter((rows, d), (r, c), g))

    def test_zero_rows_scatter_to_float64_zeros(self):
        # np.bincount of an empty input is int64, whatever its weights
        got = ag._scatter_rows(np.zeros(0, dtype=np.int64), np.zeros((0, 4)), 6)
        assert got.dtype == np.float64 and _same_bits(got, np.zeros((6, 4)))

    def test_dense_then_scatter_contributions(self):
        # integer values keep every sum exact, so the order the contributions
        # are added in cannot change a bit
        rng = np.random.default_rng(9)

        def ints(*shape):
            return rng.integers(-8, 9, size=shape).astype(float)

        table = ag.parameter(ints(6, 4), "table")
        dense, g_rows, g_take = ints(6, 4), ints(30, 4), ints(25)
        idx = rng.integers(0, 6, size=30)
        r, c = rng.integers(0, 6, size=25), rng.integers(0, 4, size=25)
        ag.add(
            ag.add(ag.sum_all(ag.mul(table, ag.constant(dense))),
                   ag.sum_all(ag.mul(ag.row_gather(table, idx), ag.constant(g_rows)))),
            ag.sum_all(ag.mul(ag.take(table, r, c), ag.constant(g_take))),
        ).backward()
        want = dense.copy()
        np.add.at(want, idx, g_rows)
        np.add.at(want, (r, c), g_take)
        assert _same_bits(table.grad, want)

    @pytest.mark.parametrize("op", [
        lambda a: ag.row_scatter_add(a, [0, -1], 3),
        lambda a: ag.row_scatter_add(a, [0, 3], 3),
        lambda a: ag.row_gather(a, [-1]),
        lambda a: ag.take(a, [0, 1], [0, -1]),
        lambda a: ag.take(a, [2, 0], [0, 0]),
    ], ids=["scatter-negative", "scatter-past-end", "gather-negative",
            "take-negative-col", "take-past-last-row"])
    def test_index_out_of_range(self, op):
        with pytest.raises(ShapeError, match="index out of range"):
            op(ag.constant(np.ones((2, 2))))


SIGMOID_EDGES = np.array([0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0])


@pytest.mark.parametrize("x", [
    SIGMOID_EDGES, np.random.default_rng(5).normal(scale=20.0, size=(40, 16)),
], ids=["edges", "random"])
def test_sigmoid_and_silu_match_two_branch_form_bitwise(x):
    s = _two_branch_sigmoid(x)
    assert _same_bits(ag.sigmoid(ag.constant(x)).data, s)
    assert _same_bits(ag.silu(ag.constant(x)).data, x * s)
    g = np.random.default_rng(6).normal(size=x.shape)
    for op, want in ((ag.sigmoid, g * s * (1.0 - s)),
                     (ag.silu, g * (s + x * s * (1.0 - s)))):
        p = ag.parameter(x, "x")
        ag.sum_all(ag.mul(op(p), ag.constant(g))).backward()
        assert _same_bits(p.grad, 0.0 + want)  # a gradient starts at +0.0


class TestParameterGroup:
    def test_a_tensor_field_added_to_a_group_is_listed(self):
        # the case a hand-kept list misses: the new weight would go
        # untrained, unsaved and unrestored
        @dataclass
        class WiderLayer(LayerParams):
            extra: ag.Tensor = None

        (layer,) = init_layers(np.random.default_rng(0), 2, 1, 1)
        extra = ag.parameter(np.zeros(3), "extra")
        wider = WiderLayer(*layer.tensors(), extra=extra)
        assert wider.tensors() == [*layer.tensors(), extra]

    def test_fields_in_order_groups_depth_first(self):
        @dataclass
        class Inner(ag.ParameterGroup):
            a: ag.Tensor
            b: ag.Tensor

        @dataclass
        class Plain:  # a dataclass that is not a group is not walked
            hidden: ag.Tensor

        @dataclass
        class Outer(ag.ParameterGroup):
            first: ag.Tensor
            inner: Inner
            items: list
            plain: Plain
            label: str
            last: ag.Tensor

        t = [ag.parameter(np.zeros(1), f"t{i}") for i in range(8)]
        outer = Outer(t[0], Inner(t[1], t[2]), [t[3], Inner(t[4], t[5])],
                      Plain(t[6]), "not a tensor", t[7])
        assert outer.tensors() == [t[0], t[1], t[2], t[3], t[4], t[5], t[7]]
