import logging
import math

import numpy as np
import pytest

from crystalembed import autograd as ag
from crystalembed.errors import NumericsError, ShapeError
from crystalembed.optim import AdamState, adam_step


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
        hi = ag.constant(rng.normal(size=(4, 3)))
        hj = ag.constant(rng.normal(size=(4, 3)))
        b = ag.constant(np.arange(6.0))
        w = ag.constant(np.zeros((3, 6, 3)))
        out = ag.bilinear(hi, w, hj, b)
        assert np.array_equal(out.data, np.tile(np.arange(6.0), (4, 1)))

    def test_bilinear_d1_ramp(self):
        w = np.zeros((1, 6, 1))
        w[0, :, 0] = np.arange(6.0)
        out = ag.bilinear(
            ag.constant(np.ones((1, 1))),
            ag.constant(w),
            ag.constant(np.ones((1, 1))),
            ag.constant(np.zeros(6)),
        )
        assert np.array_equal(out.data, [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]])

    def test_bilinear_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        hi, hj = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        w, b = rng.normal(size=(4, 6, 4)), rng.normal(size=6)
        out = ag.bilinear(
            ag.constant(hi), ag.constant(w), ag.constant(hj), ag.constant(b)
        )
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
        with pytest.raises(NumericsError):
            ag.exp(ag.constant(np.array([1000.0])))
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


class TestBilinearAgainstEinsum:
    D, K = 64, 6

    def _inputs(self, pairs, seed):
        rng = np.random.default_rng(seed)
        w = rand_param(rng, (self.D, self.K, self.D), "w")
        w.data /= self.D
        return (rand_param(rng, (pairs, self.D), "hi"), w,
                rand_param(rng, (pairs, self.D), "hj"),
                rand_param(rng, (self.K,), "b"), rng.normal(size=(pairs, self.K)))

    @pytest.mark.parametrize("pairs", [0, 1, 1485])
    def test_forward_and_gradients(self, pairs):
        hi, w, hj, b, g = self._inputs(pairs, seed=pairs)
        out = ag.bilinear(hi, w, hj, b)
        ag.sum_all(ag.mul(out, ag.constant(g))).backward()
        want = _bilinear_oracle(hi.data, w.data, hj.data, b.data, g)
        for got, ref in zip((out.data, hi.grad, w.grad, hj.grad, b.grad), want):
            _assert_close(got, ref)

    def test_same_tensor_on_both_sides(self):
        h, w, _, b, g = self._inputs(40, seed=7)
        out = ag.bilinear(h, w, h, b)
        ag.sum_all(ag.mul(out, ag.constant(g))).backward()
        fwd, d_hi, d_w, d_hj, d_b = _bilinear_oracle(h.data, w.data, h.data,
                                                     b.data, g)
        _assert_close(out.data, fwd)
        _assert_close(h.grad, d_hi + d_hj)
        _assert_close(w.grad, d_w)
        _assert_close(b.grad, d_b)


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

    return ag.grad_check(f, params, h=1e-5, floor=floor)


class TestGradCheckPerOp:
    """Each differentiable op at 20 random points, tolerance 1e-6."""

    @pytest.mark.parametrize("seed", range(20))
    def test_core_ops(self, seed):
        cases = [
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
            (lambda a: ag.exp(a), [(2, 2)]),
            (lambda a: ag.softmax_rows(a), [(3, 5)]),
            (lambda a: ag.logsumexp_rows(a), [(3, 5)]),
            (lambda a: ag.l2_normalize_rows(a), [(3, 4)]),
            (lambda a: ag.segment_mean(a, [1, 0, 1, 1], 2), [(4, 3)]),
            (lambda a: ag.mean_all(a), [(3, 3)]),
            (lambda a: ag.abs_(a), [(3, 3)]),
            (
                lambda hi, w, hj, b: ag.bilinear(hi, w, hj, b),
                [(3, 4), (4, 6, 4), (3, 4), (6,)],
            ),
        ]
        for case_idx, (op_builder, shapes) in enumerate(cases):
            err = _check(op_builder, shapes, seed=1000 * seed + case_idx)
            assert err < 1e-6, (shapes, err)

    @pytest.mark.parametrize("seed", range(20))
    def test_log_positive_domain(self, seed):
        rng = np.random.default_rng(seed)
        x = ag.parameter(rng.uniform(0.5, 3.0, size=(3, 3)), "x")
        mix = rng.normal(size=(3, 3))

        def f():
            return ag.sum_all(ag.mul(ag.log(x), ag.constant(mix)))

        assert ag.grad_check(f, [x], h=1e-6, floor=1e-3) < 1e-6

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

        assert ag.grad_check(f, [table], h=1e-5, floor=1e-3) < 1e-6


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p = ag.parameter(np.array([1.0, -2.0]), "w")
        state = AdamState.for_params([p], lr=0.1)
        before = p.data.copy()
        adam_step(state, [p], grads=[np.zeros(2)])
        assert np.array_equal(p.data, before)

    def test_single_scalar_first_step(self):
        # hand evaluation: m=0.1, v=1e-3, m_hat=1, v_hat=1
        # delta = -lr * 1 / (1 + eps)
        p = ag.parameter(np.array(0.0), "w")
        state = AdamState.for_params([p], lr=0.1)
        adam_step(state, [p], grads=[np.array(1.0)])
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
        with pytest.raises(ShapeError):
            adam_step(state, [p], grads=[np.zeros(4)])


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
