"""Graph-level projection head and the InfoNCE objective.

A graph embedding is the mean of its node embeddings pushed through a
two-layer SiLU MLP. The batch loss treats the two augmented views of the
same structure as a positive pair and every other view in the batch as a
negative; similarity is cosine, scaled by a temperature.
"""

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import ParameterGroup, Tensor
from .errors import ValidationError


@dataclass
class ProjectorParams(ParameterGroup):
    w1: Tensor  # (d, d)
    b1: Tensor  # (d,)
    w2: Tensor  # (d, d)
    b2: Tensor  # (d,)
    temperature: float = 0.1

    def __post_init__(self):
        if self.w1.data.ndim != 2 or self.w2.data.ndim != 2:
            raise ValidationError("projector weights must be matrices")
        if self.w1.data.shape[1] != self.b1.data.shape[0]:
            raise ValidationError("projector hidden bias mismatch")
        if self.w1.data.shape[1] != self.w2.data.shape[0]:
            raise ValidationError("projector layer dims do not chain")
        if self.w2.data.shape[1] != self.b2.data.shape[0]:
            raise ValidationError("projector output bias mismatch")
        if not self.temperature > 0.0:
            raise ValidationError("temperature must be positive")


def init_projector(
    rng: np.random.Generator,
    dim: int,
    temperature: float = 0.1,
) -> ProjectorParams:
    return ProjectorParams(
        w1=ag.parameter(rng.normal(0.0, dim ** -0.5, size=(dim, dim)),
                        "projector.w1"),
        b1=ag.parameter(np.zeros(dim), "projector.b1"),
        w2=ag.parameter(rng.normal(0.0, dim ** -0.5, size=(dim, dim)),
                        "projector.w2"),
        b2=ag.parameter(np.zeros(dim), "projector.b2"),
        temperature=temperature,
    )


def project(h: Tensor, params: ProjectorParams, segments) -> Tensor:
    """Mean-pool node embeddings and apply the MLP; returns (S, d_z).

    segments gives the graph of each node row when h holds a batch of S
    graphs.
    """
    if h.data.ndim != 2 or h.data.shape[0] < 1:
        raise ValidationError("projection needs at least one node embedding")
    pooled = ag.segment_mean(h, segments, int(np.max(segments)) + 1)
    hidden = ag.silu(ag.add(ag.matmul(pooled, params.w1), params.b1))
    return ag.add(ag.matmul(hidden, params.w2), params.b2)


def info_nce(z: Tensor, temperature: float) -> Tensor:
    """Contrastive loss over 2N projected views; mean over all 2N anchors.

    The rows are laid out as [a0, b0, a1, b1, ...], so anchor i has the
    positive j = i ^ 1:
        -log( exp(sim_ij / t) / sum_{k != i} exp(sim_ik / t) )
    with sim = cosine similarity.
    """
    if not temperature > 0.0:
        raise ValidationError("temperature must be positive")
    rows = z.data.shape[0]
    if rows < 4 or rows % 2 != 0:
        raise ValidationError(
            "contrastive batch needs at least two view pairs (4 rows)"
        )

    zn = ag.l2_normalize_rows(z)
    sims = ag.scale(ag.matmul(zn, ag.transpose(zn)), 1.0 / temperature)
    anchors = np.arange(rows, dtype=np.int64)
    pos = ag.take(sims, anchors, anchors ^ 1)
    # every column except the diagonal, flattened row by row
    off_rows, off_cols = np.nonzero(~np.eye(rows, dtype=bool))
    denom = ag.logsumexp_rows(
        ag.reshape(ag.take(sims, off_rows, off_cols), (rows, rows - 1))
    )
    return ag.scale(ag.sum_all(ag.sub(denom, pos)), 1.0 / rows)
