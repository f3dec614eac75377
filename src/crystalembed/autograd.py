"""Dense float64 tensors with reverse-mode differentiation.

Every operation records its inputs on the implicit tape (the operation
graph), with one gradient function per input that maps the output's gradient
to that input's contribution. `backward` runs one reverse-topological sweep
and accumulates the contributions additively across fan-out. Only tensors
that depend on a parameter are on the tape: constants, and anything computed
from constants alone, get no gradient. All values are checked finite after
every op. Broadcasting is limited to row-wise bias addition;
everything else demands exact shapes.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import NumericsError, ShapeError

logger = logging.getLogger(__name__)


class Tensor:
    """A node on the tape: float64 data plus gradient slot and parents."""

    __slots__ = ("data", "grad", "name", "requires_grad", "_parents", "_grad_fns")

    def __init__(self, data, parents=(), grad_fns=(), name=None,
                 requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(self.data)):
            raise NumericsError(
                f"non-finite values in tensor{' ' + name if name else ''}"
            )
        self.grad = None
        self.name = name
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        # off the tape, a tensor needs neither its inputs nor their rules
        self._parents = parents if self.requires_grad else ()
        self._grad_fns = grad_fns if self.requires_grad else ()

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, contribution):
        """Add one gradient contribution: an array, or (index, rows) to
        scatter-add with np.add.at."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        if isinstance(contribution, tuple):
            np.add.at(self.grad, *contribution)
        else:
            self.grad += contribution

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse sweep from this scalar, filling .grad along the tape."""
        if self.data.shape != ():
            raise ShapeError(f"backward needs a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            for p, grad_fn in zip(node._parents, node._grad_fns):
                if p.requires_grad:
                    p._accumulate(grad_fn(node.grad))
        for node in topo:
            if node.grad is not None and not np.all(np.isfinite(node.grad)):
                raise NumericsError("non-finite gradient encountered")

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, name={self.name!r})"


def parameter(data, name: str) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(np.array(data, dtype=np.float64), name=name, requires_grad=True)


def constant(data) -> Tensor:
    """A leaf that gets no gradient."""
    return Tensor(data)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a row-vector bias against a 2-D tensor."""
    if a.data.shape == b.data.shape:
        return Tensor(a.data + b.data, (a, b), (lambda g: g, lambda g: g))
    if a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]:
        return Tensor(a.data + b.data[None, :], (a, b),
                      (lambda g: g, lambda g: g.sum(axis=0)))
    raise ShapeError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub: incompatible shapes {a.data.shape} and {b.data.shape}")
    return Tensor(a.data - b.data, (a, b), (lambda g: g, lambda g: -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: incompatible shapes {a.data.shape} and {b.data.shape}")
    return Tensor(a.data * b.data, (a, b),
                  (lambda g: g * b.data, lambda g: g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return Tensor(a.data * c, (a,), (lambda g: c * g,))


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}"
        )
    return Tensor(a.data @ b.data, (a, b),
                  (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: need 2-D, got {a.data.shape}")
    return Tensor(a.data.T.copy(), (a,), (lambda g: g.T,))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: empty input")
    ndim = tensors[0].data.ndim
    if any(t.data.ndim != ndim for t in tensors) or axis >= ndim:
        raise ShapeError("concat: rank mismatch")
    ends = np.cumsum([t.data.shape[axis] for t in tensors])
    pieces = [(slice(None),) * axis + (slice(end - t.data.shape[axis], end),)
              for t, end in zip(tensors, ends)]
    return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                  tuple(tensors), tuple(lambda g, s=s: g[s] for s in pieces))


def reshape(a: Tensor, shape) -> Tensor:
    return Tensor(a.data.reshape(shape), (a,),
                  (lambda g: g.reshape(a.data.shape),))


def row_gather(a: Tensor, idx) -> Tensor:
    """Select rows of a 2-D tensor; gradients scatter-add back."""
    idx = np.asarray(idx, dtype=np.int64)
    if a.data.ndim != 2:
        raise ShapeError(f"row_gather: need 2-D, got {a.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise ShapeError("row_gather: index out of range")
    return Tensor(a.data[idx], (a,), (lambda g: (idx, g),))


def row_scatter_add(m: Tensor, idx, num_rows: int) -> Tensor:
    """Sum rows of m into num_rows buckets given by idx (empty m allowed)."""
    idx = np.asarray(idx, dtype=np.int64)
    if m.data.ndim != 2:
        raise ShapeError(f"row_scatter_add: need 2-D, got {m.data.shape}")
    if len(idx) != m.data.shape[0]:
        raise ShapeError("row_scatter_add: index length mismatch")
    out = np.zeros((num_rows, m.data.shape[1]))
    if idx.size:
        np.add.at(out, idx, m.data)
    return Tensor(out, (m,), (lambda g: g[idx],))


def take(a: Tensor, rows, cols) -> Tensor:
    """Gather a.data[rows, cols] into a 1-D tensor."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if a.data.ndim != 2 or rows.shape != cols.shape:
        raise ShapeError("take: need 2-D tensor and matching index arrays")
    return Tensor(a.data[rows, cols], (a,), (lambda g: ((rows, cols), g),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)
    return Tensor(s, (a,), (lambda g: g * s * (1.0 - s),))


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    s = _sigmoid(a.data)
    return Tensor(a.data * s, (a,),
                  (lambda g: g * (s + a.data * s * (1.0 - s)),))


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow becomes inf, caught by Tensor
        out = np.exp(a.data)
    return Tensor(out, (a,), (lambda g: g * out,))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise NumericsError("log: non-positive input")
    return Tensor(np.log(a.data), (a,), (lambda g: g / a.data,))


def abs_(a: Tensor) -> Tensor:
    """|x| with sign subgradient (0 at 0)."""
    sgn = np.sign(a.data)
    return Tensor(np.abs(a.data), (a,), (lambda g: g * sgn,))


def sum_all(a: Tensor) -> Tensor:
    return Tensor(a.data.sum(), (a,), (lambda g: g,))


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    if n == 0:
        raise ShapeError("mean_all: empty tensor")
    return Tensor(a.data.mean(), (a,), (lambda g: g / n,))


def segment_mean(a: Tensor, segments, num_segments: int) -> Tensor:
    """Mean of the rows of a 2-D tensor within each segment; (num_segments, d).

    Row r belongs to segment segments[r]; every segment needs a row. Built
    from row_scatter_add and mul, so it adds no backward rule of its own.
    """
    segments = np.asarray(segments, dtype=np.int64)
    sizes = np.bincount(segments, minlength=num_segments)
    if sizes.shape != (num_segments,) or np.any(sizes == 0):
        raise ShapeError("segment_mean: every segment needs at least one row")
    sums = row_scatter_add(a, segments, num_segments)
    inv = np.broadcast_to(1.0 / sizes[:, None], sums.data.shape)
    return mul(sums, constant(inv))


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction; rows sum to 1."""
    if a.data.ndim != 2 or a.data.shape[1] < 1:
        raise ShapeError(f"softmax_rows: need 2-D with columns, got {a.data.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def grad(g):
        inner = (g * s).sum(axis=1, keepdims=True)
        return s * (g - inner)

    return Tensor(s, (a,), (grad,))


def logsumexp_rows(a: Tensor) -> Tensor:
    """Row-wise log-sum-exp with max subtraction, returning a 1-D tensor."""
    if a.data.ndim != 2 or a.data.shape[1] < 1:
        raise ShapeError(f"logsumexp_rows: need 2-D with columns, got {a.data.shape}")
    m = a.data.max(axis=1, keepdims=True)
    e = np.exp(a.data - m)
    z = e.sum(axis=1, keepdims=True)
    out = (m + np.log(z)).ravel()
    soft = e / z

    return Tensor(out, (a,), (lambda g: soft * g[:, None],))


def l2_normalize_rows(a: Tensor, eps: float = 1e-12) -> Tensor:
    """Rows scaled to unit norm; rows with norm <= eps are divided by eps."""
    if a.data.ndim != 2:
        raise ShapeError(f"l2_normalize_rows: need 2-D, got {a.data.shape}")
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    small = norms <= eps
    n_small = int(small.sum())
    if n_small:
        logger.warning("l2_normalize_rows: %d near-zero rows hit the eps guard", n_small)
    denom = np.where(small, eps, norms)
    y = a.data / denom

    def grad(g):
        # unit-norm rows: project out the radial component; guarded rows are
        # a constant 1/eps scaling
        inner = (g * y).sum(axis=1, keepdims=True)
        full = (g - y * inner) / denom
        guarded = g / eps
        return np.where(small, guarded, full)

    return Tensor(y, (a,), (grad,))


def bilinear(hi: Tensor, w: Tensor, hj: Tensor, b: Tensor) -> Tensor:
    """Pairwise bilinear form: out[p, k] = hi[p] . w[:, k, :] . hj[p] + b[k]."""
    if (
        hi.data.ndim != 2
        or hj.data.shape != hi.data.shape
        or w.data.ndim != 3
        or w.data.shape[0] != hi.data.shape[1]
        or w.data.shape[2] != hj.data.shape[1]
        or b.data.shape != (w.data.shape[1],)
    ):
        raise ShapeError(
            f"bilinear: incompatible shapes {hi.data.shape}, {w.data.shape}, "
            f"{hj.data.shape}, {b.data.shape}"
        )
    # BLAS products over w2, w viewed as (d, k*d): row p of outer(g, h) holds
    # g[p, k] * h[p, e] at column k*d + e. Each (P, k*d) temporary lives only
    # inside the call that builds it; none is kept on the tape.
    p, d = hi.data.shape
    k = w.data.shape[1]
    w2 = w.data.reshape(d, k * d)

    def outer(g, h):
        return (g[:, :, None] * h[:, None, :]).reshape(p, k * d)

    out = np.einsum("pke,pe->pk", (hi.data @ w2).reshape(p, k, d), hj.data) + b.data
    return Tensor(out, (hi, w, hj, b), (
        lambda g: outer(g, hj.data) @ w2.T,
        lambda g: (hi.data.T @ outer(g, hj.data)).reshape(d, k, d),
        lambda g: outer(g, hi.data) @ w.data.transpose(1, 0, 2).reshape(k * d, d),
        lambda g: g.sum(axis=0)))


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
            f_plus = f().item()
            flat[k] = orig - h
            f_minus = f().item()
            flat[k] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(ga_flat[k]), abs(numeric), floor)
            worst = max(worst, abs(ga_flat[k] - numeric) / denom)
    return worst
