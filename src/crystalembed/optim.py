"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor
from .errors import ShapeError


@dataclass
class AdamState:
    """First/second moment accumulators plus hyperparameters."""

    lr: float = 3e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params, lr=3e-2):
        state = cls(lr=lr)
        for p in params:
            state.m[p.name] = np.zeros_like(p.data)
            state.v[p.name] = np.zeros_like(p.data)
        return state


def adam_step(state: AdamState, params: list[Tensor]) -> None:
    """One in-place Adam update with bias correction from each parameter's
    accumulated .grad; a missing gradient counts as zero."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeError(
                f"adam_step: gradient shape {g.shape} != param shape {p.data.shape} "
                f"for {p.name!r}"
            )
        m = state.m[p.name]
        v = state.v[p.name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
