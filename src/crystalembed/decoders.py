"""Reconstruction heads over node embeddings.

Two heads share the encoder output: a per-node element classifier (118-way
softmax over L2-normalized embeddings, trained with negative log-likelihood)
and a pairwise connection-count classifier (bilinear form then a 6-way
softmax over multiplicity classes 0..5, trained with class-weighted cross
entropy so the overwhelming zero class does not dominate).

Targets always come from the original graph; predictions come from embeddings
of the corrupted view. That asymmetry is what makes reconstruction denoising.
"""

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .elements import MAX_Z
from .errors import ValidationError
from .periodic_graph import NUM_MULTIPLICITY_CLASSES

DEFAULT_CLASS_WEIGHTS = (0.1, 1.0, 1.0, 1.0, 1.0, 1.0)


@dataclass
class NodeDecoderParams:
    w: Tensor  # (118, d)
    b: Tensor  # (118,)

    def __post_init__(self):
        if self.w.data.ndim != 2 or self.w.data.shape[0] != MAX_Z:
            raise ValidationError(f"node decoder weight must be ({MAX_Z}, d)")
        if self.b.data.shape != (MAX_Z,):
            raise ValidationError(f"node decoder bias must have {MAX_Z} entries")

    def tensors(self) -> list[Tensor]:
        return [self.w, self.b]


@dataclass
class AdjDecoderParams:
    w_b: Tensor  # (d, 6, d) bilinear form
    b_b: Tensor  # (6,)
    w_a: Tensor  # (6, 6) output mixing
    b_a: Tensor  # (6,)
    class_weights: np.ndarray = DEFAULT_CLASS_WEIGHTS

    def __post_init__(self):
        k = NUM_MULTIPLICITY_CLASSES
        if self.w_b.data.ndim != 3 or self.w_b.data.shape[1] != k:
            raise ValidationError("bilinear weight must be (d, 6, d)")
        if self.w_b.data.shape[0] != self.w_b.data.shape[2]:
            raise ValidationError("bilinear weight must be square in d")
        if self.b_b.data.shape != (k,) or self.b_a.data.shape != (k,):
            raise ValidationError("adjacency decoder biases must have 6 entries")
        if self.w_a.data.shape != (k, k):
            raise ValidationError("adjacency mixing must be (6, 6)")
        cw = np.asarray(self.class_weights, dtype=np.float64)
        if cw.shape != (k,) or np.any(cw < 0.0):
            raise ValidationError("class_weights must be 6 nonnegative reals")
        if np.any(cw[0] >= cw[1:]):
            raise ValidationError(
                "zero-multiplicity class must be weighted below every other class"
            )
        self.class_weights = cw

    def tensors(self) -> list[Tensor]:
        return [self.w_b, self.b_b, self.w_a, self.b_a]


def init_node_decoder(rng: np.random.Generator, dim: int) -> NodeDecoderParams:
    return NodeDecoderParams(
        w=ag.parameter(rng.normal(0.0, dim ** -0.5, size=(MAX_Z, dim)),
                       "decoder.node.w"),
        b=ag.parameter(np.zeros(MAX_Z), "decoder.node.b"),
    )


def init_adj_decoder(
    rng: np.random.Generator,
    dim: int,
    class_weights=DEFAULT_CLASS_WEIGHTS,
) -> AdjDecoderParams:
    k = NUM_MULTIPLICITY_CLASSES
    return AdjDecoderParams(
        w_b=ag.parameter(rng.normal(0.0, 1.0 / dim, size=(dim, k, dim)),
                         "decoder.adj.w_b"),
        b_b=ag.parameter(np.zeros(k), "decoder.adj.b_b"),
        w_a=ag.parameter(rng.normal(0.0, k ** -0.5, size=(k, k)),
                         "decoder.adj.w_a"),
        b_a=ag.parameter(np.zeros(k), "decoder.adj.b_a"),
        class_weights=class_weights,
    )


def node_probs(h: Tensor, params: NodeDecoderParams) -> Tensor:
    """Per-node element distribution: softmax(W (h/||h||) + b), rows sum to 1."""
    hn = ag.l2_normalize_rows(h)
    logits = ag.add(ag.matmul(hn, ag.transpose(params.w)), params.b)
    return ag.softmax_rows(logits)


def _segment_mean_nll(probs: Tensor, rows, cols, weights, segments,
                      empty: str) -> Tensor:
    """Mean over segments of each segment's weighted mean of -log p[row, col].

    segments gives the segment of every probability row (None: all rows are
    one segment); a segment whose picked weights sum to zero, or that has no
    picked entry, raises ValidationError(empty).
    """
    n = probs.data.shape[0]
    if segments is None:
        segments = np.zeros(n, dtype=np.int64)
    segments = np.asarray(segments, dtype=np.int64)
    if segments.shape != (n,):
        raise ValidationError("one segment id per probability row required")
    num_segments = int(segments.max(initial=0)) + 1
    picked_segments = segments[rows]
    totals = np.bincount(picked_segments, weights=weights, minlength=num_segments)
    if np.any(totals <= 0.0):
        raise ValidationError(empty)
    w = weights / (totals[picked_segments] * num_segments)
    picked = ag.take(probs, rows, cols)
    return ag.sum_all(ag.mul(ag.log(picked), ag.constant(-w)))


def node_nll(probs: Tensor, atomic_numbers: np.ndarray, scope=None,
             segments=None) -> Tensor:
    """Mean negative log-likelihood of the true element over scope.

    scope is a node index subset; None means every node. For a batch,
    segments gives the graph of every probability row and the loss is the
    mean over graphs of each graph's own mean over its scope rows.
    """
    numbers = np.asarray(atomic_numbers, dtype=np.int64)
    n = probs.data.shape[0]
    if numbers.shape != (n,):
        raise ValidationError("atomic_numbers length must match probability rows")
    if scope is None:
        rows = np.arange(n, dtype=np.int64)
    else:
        rows = np.asarray(scope, dtype=np.int64)
        if rows.size == 0:
            raise ValidationError("node loss scope is empty")
        if rows.min() < 0 or rows.max() >= n:
            raise ValidationError("scope index out of range")
    return _segment_mean_nll(probs, rows, numbers[rows] - 1, np.ones(rows.size),
                             segments, "node loss scope is empty")


def adjacency_probs(h: Tensor, params: AdjDecoderParams, pairs: np.ndarray) -> Tensor:
    """Multiplicity distribution for each unordered node pair; (|pairs|, 6).

    Embeddings are L2-normalized first; the bilinear form is evaluated once
    per pair in (i, j) order with i <= j.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    n = h.data.shape[0]
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ValidationError("pair index out of range")
    if np.any(pairs[:, 0] > pairs[:, 1]):
        raise ValidationError("pairs must be ordered i <= j")
    hn = ag.l2_normalize_rows(h)
    hi = ag.row_gather(hn, pairs[:, 0])
    hj = ag.row_gather(hn, pairs[:, 1])
    s = ag.bilinear(hi, params.w_b, hj, params.b_b)
    logits = ag.add(ag.matmul(s, ag.transpose(params.w_a)), params.b_a)
    return ag.softmax_rows(logits)


def adj_weighted_ce(
    probs: Tensor,
    classes: np.ndarray,
    class_weights,
    segments=None,
) -> Tensor:
    """Weighted cross entropy over pair multiplicity classes.

    classes holds the true class of every probability row. Returns
    sum_p w[c_p] * (-log p_p[c_p]) / sum_p w[c_p]; the weights are data, not
    parameters. For a batch, segments gives the graph of every row and the
    loss is the mean over graphs of each graph's own weighted mean.
    """
    classes = np.asarray(classes, dtype=np.int64)
    p = probs.data.shape[0]
    if classes.shape != (p,):
        raise ValidationError("one probability row per pair required")
    if p == 0:
        raise ValidationError("no pairs to score")
    cw = np.asarray(class_weights, dtype=np.float64)
    return _segment_mean_nll(probs, np.arange(p, dtype=np.int64), classes,
                             cw[classes], segments,
                             "class weights sum to zero over these pairs")
