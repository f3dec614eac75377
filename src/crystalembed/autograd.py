"""Dense float64 tensors with reverse-mode differentiation.

Every operation records its inputs on the implicit tape (the operation
graph) and one rule, which maps the output's gradient g to a tuple of
contributions, one per input in input order, each an array shaped like its
input (gathers scatter-add theirs back with `_scatter_rows`): g itself, a
view of g, or an array the rule has just made. Since a gradient may adopt
what a rule returns, a rule never returns one new array for two inputs.
Only tensors that depend on a parameter are on the tape: constants, and
anything computed from constants alone, get no gradient. Every op names
itself on the tensor it makes, and a non-finite result raises
`NumericsError("<op>: non-finite output")`. Broadcasting is limited to
row-wise bias addition; everything else demands exact shapes.

`backward` consumes the tape: one backward per forward. Its reverse sweep
pops each tensor once its gradient is complete, checks that gradient finite
(naming the parameter, or the op that made the tensor) and passes it on. An
op result then drops its gradient, inputs and rule, so the sweep frees the
tape as it goes and keeps no intermediate gradient; leaves (parameters, and
tensors built with requires_grad=True and no inputs) keep theirs. A second
backward through a consumed tensor raises `ValidationError`, and so does a
backward from a tensor that is not on the tape at all.

Inside a `with no_grad():` scope nothing is recorded: op results require no
grad and keep neither their inputs nor their rules, so a forward-only pass
(extraction, evaluation) frees each intermediate as soon as it is dropped.
The finiteness check still runs. Leaving the scope, also by an exception,
restores the state it found, so scopes nest.

A composite op (`gated_message`) runs public ops off the tape, inside
`no_grad`, so its forward is theirs bit for bit, and puts one tensor on the
tape in their place. It runs its edge work in tiles of the edge order,
each of whose (t, 2d) arrays fits in EDGE_TILE_BYTES, and keeps node rows
and one tile's edge array, the last tile's gate; no array with a row for
every edge outlives its forward. Its rule walks the tiles last to first,
rebuilds every other array of a tile from the node rows with the forward's
own arithmetic, bit for bit, replays their rules in an order the sweep
could run them, and adds each tile's gradients to running sums.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import fields
import logging

import numpy as np

from .errors import NumericsError, ShapeError, ValidationError

logger = logging.getLogger(__name__)

NORM_EPS = 1e-12  # l2_normalize_rows divides rows of norm <= NORM_EPS by it
# gated_message runs its edge work in tiles whose (t, 2d) float64 arrays
# each fit in this many bytes: 512 edges at d = 64, 2,048 at d = 16
EDGE_TILE_BYTES = 2**19

_recording = True  # False inside no_grad()


@contextmanager
def no_grad():
    """Scope whose op results are off the tape (see the module docstring)."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    """A node on the tape: float64 data plus gradient slot and parents."""

    __slots__ = ("data", "grad", "name", "requires_grad", "_parents", "_rule")

    def __init__(self, data, parents=(), rule=None, name=None,
                 requires_grad=False):
        """name: the parameter's name, or for an op result the op's."""
        self.data = np.asarray(data, dtype=np.float64)
        # .all()'s test without its method dispatch, which dominates on
        # the small arrays most tensors hold
        if not np.logical_and.reduce(np.isfinite(self.data), axis=None):
            raise NumericsError(
                f"{name or 'tensor'}: non-finite {'output' if parents else 'values'}")
        self.grad = None
        self.name = name
        self.requires_grad = requires_grad or (
            _recording and any(p.requires_grad for p in parents))
        # off the tape, a tensor needs neither its inputs nor its rule
        self._parents = parents if self.requires_grad else ()
        self._rule = rule if self.requires_grad else None

    def _accumulate(self, contribution, g):
        """Add one gradient contribution, an array shaped like the data, made
        by a rule from its output's gradient g. The first becomes .grad: an
        array the rule made is adopted, a view of g (or an array laid out
        unlike the data) is copied once; either starts at +0.0, bitwise as a
        zero-filled buffer would."""
        if self.grad is not None:
            self.grad += contribution
        elif _adoptable(contribution, self.data, g):
            contribution += 0.0  # -0.0 becomes +0.0
            self.grad = contribution
        else:
            self.grad = np.add(contribution, 0.0, out=np.empty_like(self.data))

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse sweep from this scalar, filling the leaves' .grad and
        consuming the tape behind it (see the module docstring)."""
        if self.data.shape != ():
            raise ShapeError(f"backward needs a scalar, got shape {self.data.shape}")
        if not self.requires_grad:
            raise ValidationError(
                f"backward: the output of {self.name or 'a constant'} is not on "
                "the tape (made under no_grad, or from constants alone)")
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
            if node._parents is None:
                raise ValidationError(
                    f"backward: the tape through {node.name} was consumed by an "
                    "earlier backward; run the forward pass again")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:  # reverse topological order
            node = topo.pop()
            g, leaf = node.grad, not node._parents
            if not np.logical_and.reduce(np.isfinite(g), axis=None):
                where = (f"for parameter {node.name!r}" if leaf
                         else f"at the output of {node.name}")
                raise NumericsError(f"backward: non-finite gradient {where}")
            if leaf:  # keeps its gradient
                continue
            for p, c in zip(node._parents, node._rule(g)):
                if p.requires_grad:
                    p._accumulate(c, g)
            node.grad = node._parents = node._rule = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, name={self.name!r})"


def _adoptable(c, data: np.ndarray, g: np.ndarray) -> bool:
    """Whether c can be data's gradient as it is: an array of data's dtype
    and shape, laid out as np.empty_like(data) would be (which a reduction's
    summation order depends on), and sharing no memory with g."""
    return (isinstance(c, np.ndarray) and c.dtype == data.dtype
            and c.shape == data.shape and c.flags.c_contiguous
            and data.flags.c_contiguous and not np.may_share_memory(c, g))


def parameter(data, name: str) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(np.array(data, dtype=np.float64), name=name, requires_grad=True)


def constant(data) -> Tensor:
    """A leaf that gets no gradient."""
    return Tensor(data)


class ParameterGroup:
    """Base of a dataclass that holds parameters.

    `tensors()` lists its Tensor fields in field order and, depth first, the
    tensors of every ParameterGroup held in a field or a list field. That
    order is the checkpoint's array order and the layout of Adam's flat
    buffers, so reordering fields changes both, and a Tensor added as a
    field is trained, saved and restored without being listed anywhere.
    """

    def tensors(self) -> list[Tensor]:
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            for item in value if isinstance(value, list) else (value,):
                if isinstance(item, Tensor):
                    out.append(item)
                elif isinstance(item, ParameterGroup):
                    out.extend(item.tensors())
        return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a row-vector bias against a 2-D tensor."""
    if a.data.shape == b.data.shape:
        return Tensor(a.data + b.data, (a, b), lambda g: (g, g), "add")
    if a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]:
        return Tensor(a.data + b.data[None, :], (a, b),
                      lambda g: (g, g.sum(axis=0)), "add")
    raise ShapeError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub: incompatible shapes {a.data.shape} and {b.data.shape}")
    return Tensor(a.data - b.data, (a, b), lambda g: (g, -g), "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: incompatible shapes {a.data.shape} and {b.data.shape}")
    return Tensor(a.data * b.data, (a, b),
                  lambda g: (g * b.data, g * a.data), "mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return Tensor(a.data * c, (a,), lambda g: (c * g,), "scale")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}"
        )
    return Tensor(a.data @ b.data, (a, b),
                  lambda g: (g @ b.data.T, a.data.T @ g), "matmul")


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: need 2-D, got {a.data.shape}")
    return Tensor(a.data.T.copy(), (a,), lambda g: (g.T,), "transpose")


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
                  tuple(tensors), lambda g: tuple(g[s] for s in pieces), "concat")


def reshape(a: Tensor, shape) -> Tensor:
    return Tensor(a.data.reshape(shape), (a,),
                  lambda g: (g.reshape(a.data.shape),), "reshape")


def _index(op: str, idx, size: int) -> np.ndarray:
    """idx as int64, every entry in 0..size-1 (no wrap-around)."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise ShapeError(f"{op}: index out of range")
    return idx


def _scatter_rows(idx: np.ndarray, rows: np.ndarray, num_rows: int) -> np.ndarray:
    """out[idx[k]] += rows[k] for every k, into zeros((num_rows, d)): one
    np.bincount over flat positions, which adds each position's terms in
    index order, bitwise as NumPy's unbuffered in-place ufunc add does.
    Zero rows give zeros of rows' dtype (np.bincount's are int64)."""
    d = rows.shape[1]
    flat = (idx[:, None] * d + np.arange(d)).ravel()
    out = np.bincount(flat, weights=rows.ravel(), minlength=num_rows * d)
    return out.reshape(num_rows, d).astype(rows.dtype, copy=False)


def row_gather(a: Tensor, idx) -> Tensor:
    """Select rows of a 2-D tensor; gradients scatter-add back."""
    if a.data.ndim != 2:
        raise ShapeError(f"row_gather: need 2-D, got {a.data.shape}")
    idx = _index("row_gather", idx, a.data.shape[0])
    return Tensor(a.data[idx], (a,),
                  lambda g: (_scatter_rows(idx, g, a.data.shape[0]),), "row_gather")


def row_scatter_add(m: Tensor, idx, num_rows: int) -> Tensor:
    """Sum rows of m into num_rows buckets given by idx (empty m allowed)."""
    if m.data.ndim != 2:
        raise ShapeError(f"row_scatter_add: need 2-D, got {m.data.shape}")
    idx = _index("row_scatter_add", idx, num_rows)
    if len(idx) != m.data.shape[0]:
        raise ShapeError("row_scatter_add: index length mismatch")
    return Tensor(_scatter_rows(idx, m.data, num_rows), (m,), lambda g: (g[idx],),
                  "row_scatter_add")


def take(a: Tensor, rows, cols) -> Tensor:
    """Gather a.data[rows, cols] into a 1-D tensor."""
    if a.data.ndim != 2 or np.shape(rows) != np.shape(cols):
        raise ShapeError("take: need 2-D tensor and matching index arrays")
    n, c = a.data.shape
    flat = _index("take", rows, n) * c + _index("take", cols, c)
    return Tensor(a.data.ravel()[flat], (a,), lambda g: (_scatter_rows(
        flat.ravel(), g.reshape(-1, 1), n * c).reshape(n, c),), "take")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x), from e^-|x| so neither sign overflows; every step
    after the first writes into one of two buffers."""
    z = np.abs(x)
    np.negative(z, out=z)
    np.exp(z, out=z)
    s = np.maximum(z, x >= 0)  # 1 where x >= 0, as z <= 1; branch-free
    np.add(1.0, z, out=z)
    return np.divide(s, z, out=s)


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)
    return Tensor(s, (a,), lambda g: (g * s * (1.0 - s),), "sigmoid")


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    s = _sigmoid(a.data)
    return Tensor(a.data * s, (a,),
                  lambda g: (g * (s + a.data * s * (1.0 - s)),), "silu")


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise NumericsError("log: non-positive input")
    return Tensor(np.log(a.data), (a,), lambda g: (g / a.data,), "log")


def abs_(a: Tensor) -> Tensor:
    """|x| with sign subgradient (0 at 0)."""
    sgn = np.sign(a.data)
    return Tensor(np.abs(a.data), (a,), lambda g: (g * sgn,), "abs")


def sum_all(a: Tensor) -> Tensor:
    return Tensor(a.data.sum(), (a,), lambda g: (np.full(a.data.shape, g),),
                  "sum_all")


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    if n == 0:
        raise ShapeError("mean_all: empty tensor")
    return Tensor(a.data.mean(), (a,), lambda g: (np.full(a.data.shape, g / n),),
                  "mean_all")


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

    def rule(g):
        inner = (g * s).sum(axis=1, keepdims=True)
        return (s * (g - inner),)

    return Tensor(s, (a,), rule, "softmax_rows")


def logsumexp_rows(a: Tensor) -> Tensor:
    """Row-wise log-sum-exp with max subtraction, returning a 1-D tensor."""
    if a.data.ndim != 2 or a.data.shape[1] < 1:
        raise ShapeError(f"logsumexp_rows: need 2-D with columns, got {a.data.shape}")
    m = a.data.max(axis=1, keepdims=True)
    e = np.exp(a.data - m)
    z = e.sum(axis=1, keepdims=True)
    out = (m + np.log(z)).ravel()
    soft = e / z

    return Tensor(out, (a,), lambda g: (soft * g[:, None],), "logsumexp_rows")


def l2_normalize_rows(a: Tensor) -> Tensor:
    """Rows scaled to unit norm; rows with norm <= NORM_EPS are divided by it."""
    if a.data.ndim != 2:
        raise ShapeError(f"l2_normalize_rows: need 2-D, got {a.data.shape}")
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    small = norms <= NORM_EPS
    n_small = int(small.sum())
    if n_small:
        logger.warning("l2_normalize_rows: %d near-zero rows hit the eps guard", n_small)
    denom = np.where(small, NORM_EPS, norms)
    y = a.data / denom

    def rule(g):
        # unit-norm rows: project out the radial component; guarded rows are
        # a constant 1/NORM_EPS scaling
        inner = (g * y).sum(axis=1, keepdims=True)
        full = (g - y * inner) / denom
        guarded = g / NORM_EPS
        return (np.where(small, guarded, full),)

    return Tensor(y, (a,), rule, "l2_normalize_rows")


def bilinear(h: Tensor, w: Tensor, b: Tensor, pairs, segments) -> Tensor:
    """Bilinear scores of node pairs: out[p, k] = h[i] . w[:, k, :] . h[j] + b[k]
    for pairs[p] = (i, j).

    segments gives the segment of every row of h, and both nodes of a pair
    must share one. A segment of n rows is scored as one dense block holding
    S_k = (h W_k) h^T for every class k, made by one (n*k, d) x (d, n)
    product; segments of equal n are stacked into one batched product, so
    the Python loop runs over distinct sizes, not segments. Pairs pick their
    k scores from the blocks in the order given, and a repeated pair adds its
    gradient once per occurrence. Backward scatters the pair gradients into
    the blocks and stays in BLAS products; no per-pair (P, d) array is built.
    """
    if (
        h.data.ndim != 2
        or w.data.ndim != 3
        or w.data.shape[0] != h.data.shape[1]
        or w.data.shape[2] != h.data.shape[1]
        or b.data.shape != (w.data.shape[1],)
    ):
        raise ShapeError(
            f"bilinear: incompatible shapes {h.data.shape}, {w.data.shape}, "
            f"{b.data.shape}"
        )
    n, d = h.data.shape
    k = w.data.shape[1]
    pairs = _index("bilinear", pairs, n)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ShapeError(f"bilinear: pairs must be (P, 2), got {pairs.shape}")
    seg = np.asarray(segments, dtype=np.int64)
    if seg.shape != (n,) or (n and seg.min() < 0):
        raise ShapeError("bilinear: one nonnegative segment id per row required")
    i, j = pairs.T
    pair_seg = seg[i]
    if np.any(seg[j] != pair_seg):
        raise ShapeError("bilinear: a pair joins two segments")

    # rows grouped by segment (stable), each with its index inside it
    sizes = np.bincount(seg, minlength=1)
    starts = np.cumsum(sizes) - sizes
    order = np.argsort(seg, kind="stable")
    local = np.empty(n, dtype=np.int64)
    local[order] = np.arange(n) - starts[seg[order]]
    # every segment gets an (n, k, n) block in one flat buffer, entry
    # [i, c, j] scoring pair (i, j) in class c; a group stacks the blocks of
    # its equal-size segments
    base = np.zeros(len(sizes), dtype=np.int64)
    groups = []  # (member rows (m, s), first block entry)
    total = 0
    for s in sorted(set(sizes.tolist()) - {0}):
        ids = np.flatnonzero(sizes == s)
        base[ids] = total + np.arange(len(ids)) * (k * s * s)
        groups.append((order[starts[ids][:, None] + np.arange(s)], total))
        total += len(ids) * k * s * s
    s_p = sizes[pair_seg]
    flat = ((base[pair_seg] + local[i] * k * s_p + local[j])[:, None]
            + np.arange(k) * s_p[:, None])

    w2 = w.data.reshape(d, k * d)
    t = h.data @ w2  # row r holds h[r] . w[:, k, :] at columns k*d..(k+1)*d

    def group(rows, start):
        """A group's rows of h as (m, s, d), of t as (m, s*k, d) (one row
        per node and class), and the slice and shape of its blocks in the
        flat buffer."""
        m, s = rows.shape
        return (h.data[rows], t[rows].reshape(m, s * k, d),
                slice(start, start + m * s * k * s), (m, s * k, s))

    blocks = np.empty(total)
    for rows, start in groups:
        hg, tg, part, shape = group(rows, start)
        np.matmul(tg, hg.swapaxes(-1, -2), out=blocks[part].reshape(shape))

    def rule(g):
        """The gradients of h, w and b, from the gradient of t and, through
        the right factor, of h, both in node rows."""
        g_blocks = np.bincount(flat.ravel(), weights=g.ravel(), minlength=total)
        # the groups partition the rows, so every row is written once
        g_t, g_h = np.empty_like(t), np.empty_like(h.data)
        for rows, start in groups:
            hg, tg, part, shape = group(rows, start)
            gb = g_blocks[part].reshape(shape)
            g_t[rows.ravel()] = (gb @ hg).reshape(-1, k * d)
            g_h[rows.ravel()] = (gb.swapaxes(-1, -2) @ tg).reshape(-1, d)
        return g_t @ w2.T + g_h, (h.data.T @ g_t).reshape(d, k, d), g.sum(axis=0)

    return Tensor(blocks[flat] + b.data, (h, w, b), rule, "bilinear")


def _popped(g: np.ndarray, part: str) -> np.ndarray:
    """A gradient a composite op's rule made, as the sweep would hold it at
    the op it replays: started at +0.0 like `_accumulate` starts one, and
    checked finite, naming the part of the op it belongs to."""
    g += 0.0
    if not np.logical_and.reduce(np.isfinite(g), axis=None):
        raise NumericsError(
            f"backward: non-finite gradient inside gated_message, at {part}")
    return g


def _edge_tiles(num_edges: int, d: int) -> list[slice]:
    """Contiguous slices of the edge order, each of at most
    EDGE_TILE_BYTES // (16 d) edges, so that a (t, 2d) float64 array fits in
    EDGE_TILE_BYTES; one empty slice when there are no edges. Their sizes
    differ by at most one edge, so no slice holds a single edge unless all
    do: NumPy runs a one-row product as a matrix-vector one, whose sums
    differ from those of the matrix-matrix product's rows."""
    count = max(1, -(-num_edges // max(1, EDGE_TILE_BYTES // (16 * d))))
    ends = [k * num_edges // count for k in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]


def _span(idx: np.ndarray) -> tuple[int, int]:
    """The first row idx names and one past its last; (0, 0) if empty.
    ufunc reduce, as .min() dispatches at more cost than a tile's work."""
    if not len(idx):
        return 0, 0
    return int(np.minimum.reduce(idx)), int(np.maximum.reduce(idx)) + 1


def gated_message(h: Tensor, feats: Tensor, src, dst, weights) -> Tensor:
    """One residual gated message-passing layer, a CGCNN-style convolution
    (Xie & Grossman, PRL 2018), as one tape entry:

        msg = silu([h[dst] | h[src] | feats] @ msg_w1 + msg_b1) @ msg_w2 + msg_b2
        gate = sigmoid(silu([...] @ gate_w1 + gate_b1) @ gate_w2 + gate_b2)
        out = h + scatter_add(dst, msg * gate)             (N, d)

    weights are (msg_w1, msg_b1, msg_w2, msg_b2, gate_w1, gate_b1, gate_w2,
    gate_b2). The first layers are lifted before the gather, as in SchNet's
    cfconv (Schütt et al. 2017) and PyG's message passing (Fey & Lenssen
    2019): with W = [msg_w1 | gate_w1] split by rows into W_dst, W_src and
    W_e, and b1 = [msg_b1 | gate_b1], both pre-activations are

        a = (h @ W_dst + b1)[dst] + (h @ W_src)[src] + feats @ W_e   (E, 2d)

    so the two node products run on N rows and no (E, 2d + r) edge input is
    built. The edge work runs in tiles (`_edge_tiles`): contiguous runs of
    the given edge order, whose (t, 2d) float64 arrays each fit in
    EDGE_TILE_BYTES, as in the tiling of FlashAttention (Dao et al. 2022);
    src and dst may come in any order. Per tile, the forward runs these
    public ops under no_grad from the pre-activation to msg * gate; the
    tiles' products are joined into one (E, d) array, scattered onto dst
    once. So every node adds its terms in edge order, and the row products are row
    blocks of the one-tile products: the output is bitwise the one-tile
    layer's (except where a tile has one row, whose products NumPy runs as
    matrix-vector ones, with other sums). The layer keeps the node rows
    p_dst = h @ W_dst + b1 and p_src = h @ W_src, each (N, 2d), and the last
    tile's (t, d) gate; no (E, ·) array outlives the forward.

    The rule recomputes, as in Chen et al., "Training Deep Nets with
    Sublinear Memory Cost" (2016). It walks the tiles last to first. Per
    tile it rebuilds the pre-activation from p_dst and p_src gathered to the
    tile's edges and from feats @ W_e, added in the forward's order, and the
    hidden layer; from that it remakes msg, and every gate but the kept one,
    bit for bit the forward's. It then replays the rules of the message
    half and of the gate half, in an order the sweep could run them. The
    weight and bias gradients are running sums over the tiles. Each tile's
    pre-activation gradient, both halves at once, is scattered onto only
    the node rows its dst and src span, and gives that tile's rows of
    feats' gradient when feats is on the tape. So a one-tile union runs the untiled layer's
    arithmetic; with more tiles, sums over edges are added tile by tile. A
    non-finite gradient inside the layer names the part it appeared at.

    Memory, besides the kept arrays: the forward holds the tiles' products,
    (E, d) in all, per tile at most three (t, 2d) arrays at once (an add's
    inputs and output; silu's x, e^-|x| and s), and at its end the joined
    product and the scatter's (E, d) index. The rule holds the (t, d)
    arrays of one tile, about ten at its peak, besides its running sums:
    two (N, 2d) node-row sums, the (N, d) gradient of h, and feats' (E, r)
    gradient when feats needs one (measured at d = 64 and E = 3,500 or
    9,604: a forward peak of 2.5-2.6 (E, d) arrays above where it started,
    and a rule peak 10-11 (t, d) arrays above those sums).
    """
    w1m, b1m, w2m, b2m, w1g, b1g, w2g, b2g = weights
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    n, d = h.data.shape
    if src.shape != dst.shape or feats.data.shape[:1] != dst.shape:
        raise ShapeError("gated_message: src, dst and feats need one entry per edge")
    tiles = _edge_tiles(len(dst), d)
    with no_grad():
        w1 = concat([w1m, w1g], axis=1).data  # (2d + r, 2d): message | gate
        p_dst = add(matmul(h, Tensor(w1[:d])), concat([b1m, b1g]))
        p_src = matmul(h, Tensor(w1[d:2 * d]))
        w_e = Tensor(w1[2 * d:])
        gated = []
        for tile in tiles:  # each (t, 2d) array is dropped after its last read
            a = add(row_gather(p_dst, dst[tile]), row_gather(p_src, src[tile]))
            a = add(a, matmul(Tensor(feats.data[tile]), w_e))
            hidden = silu(a).data
            del a
            msg = add(matmul(Tensor(hidden[:, :d]), w2m), b2m)
            gate = sigmoid(add(matmul(Tensor(hidden[:, d:]), w2g), b2g))
            del hidden
            gated.append(mul(msg, gate))
            del msg
        if len(gated) > 1:  # one (E, d) array, scattered once
            gated = [Tensor(np.concatenate([t.data for t in gated]))]
        out = add(h, row_scatter_add(gated[0], dst, n))
    p_dst, p_src, kept_gate = p_dst.data, p_src.data, gate.data

    def rule(g):
        """Every input's gradient contribution, in input order, each a new
        array (feats' is None when feats is off the tape)."""
        w1 = np.concatenate([w1m.data, w1g.data], axis=1)
        g_h = g + 0.0  # the residual add's copy for h; the scatter's is equal
        halves = (slice(0, d), slice(d, 2 * d))
        # running sums over the tiles: the node-row gradients, and per MLP
        # half those of w2, b2 and w1's feats block, started by the first
        # tile the rule takes
        g_dst, g_src = np.zeros((n, 2 * d)), np.zeros((n, 2 * d))
        sums = None
        g_feats = np.empty(feats.data.shape) if feats.requires_grad else None

        def hidden(ends, cols):
            """One MLP half's hidden layer silu(a) = a * s on a tile's edges,
            and s, with its pre-activation a rebuilt as the forward added
            it."""
            tile_dst, tile_src, tile_feats = ends
            a = p_dst[:, cols][tile_dst]
            a += p_src[:, cols][tile_src]
            a += tile_feats @ w1[2 * d:, cols]
            s = _sigmoid(a)
            a *= s
            return a, s

        for tile in reversed(tiles):
            ends = tile_dst, tile_src, tile_feats = (dst[tile], src[tile],
                                                     feats.data[tile])
            spans = [(g_dst, tile_dst, *_span(tile_dst)),
                     (g_src, tile_src, *_span(tile_src))]
            g_in = g_h[tile_dst]  # the upstream gradient on the tile's edges
            hiddens, gate = [None, None], kept_gate
            if tile is not tiles[-1]:  # the gate, remade from its hidden layer
                hiddens[1] = hidden(ends, halves[1])
                gate = _sigmoid(hiddens[1][0] @ w2g.data + b2g.data)
            # per MLP half (message, gate): the rules of silu(a) @ w2 + b2 in
            # the sweep's order (the bias add's copy of g_out is an exact
            # no-op), giving the tile's shares of the weight gradients and
            # the half's pre-activation gradient
            g_a, shares = [], []
            for k, (cols, w2, which) in enumerate(zip(halves, (w2m, w2g),
                                                      ("message", "gate"))):
                a, s = hiddens[k] or hidden(ends, cols)
                hiddens[k] = None
                if which == "message":  # the forward's msg, for the gate half
                    msg = a @ w2.data
                    msg += b2m.data
                g_out = _popped(g_in * (msg if which == "gate" else gate),
                                f"the {which}")
                if which == "gate":  # through the gate's sigmoid, onto its logit
                    del msg
                    g_out *= gate
                    g_out *= 1.0 - gate
                    _popped(g_out, "the gate's logit")
                shares += [a.T @ g_out, g_out.sum(axis=0)]
                # silu's rule, g * (s + a*s*(1 - s)), made in place on a*s
                a *= np.subtract(1.0, s)
                a += s
                del s
                a *= _popped(g_out @ w2.data.T, f"the {which} MLP's hidden layer")
                del g_out
                _popped(a, f"the {which} MLP's pre-activation")
                shares.append(tile_feats.T @ a)  # the weight product's feats block
                g_a.append(a)
                del a
            # the gathers' rules, both halves at once, and feats' gradient
            g_a = np.concatenate(g_a, axis=1)
            for total, idx, lo, hi in spans:
                total[lo:hi] += _scatter_rows(idx - lo, g_a, hi - lo)
            if g_feats is not None:
                g_feats[tile] = g_a @ w1[2 * d:].T
            del g_a
            if sums is None:
                sums = shares
            else:
                for total, share in zip(sums, shares):
                    total += share
        _popped(g_dst, "the node rows h @ W_dst + b1")
        _popped(g_src, "the node rows h @ W_src")
        g_b1, g_hw = g_dst.sum(axis=0), (h.data.T @ g_dst, h.data.T @ g_src)
        g_w2m, g_b2m, g_wem, g_w2g, g_b2g, g_weg = sums
        g_w1 = [np.concatenate([g_hw[0][:, c], g_hw[1][:, c], we])
                for c, we in zip(halves, (g_wem, g_weg))]
        g_h += g_dst @ w1[:d].T
        g_h += g_src @ w1[d:2 * d].T
        return (g_h, g_feats, g_w1[0], g_b1[:d].copy(), g_w2m, g_b2m,
                g_w1[1], g_b1[d:].copy(), g_w2g, g_b2g)

    return Tensor(out.data, (h, feats, *weights), rule, "gated_message")
