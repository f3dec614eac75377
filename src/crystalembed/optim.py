"""Adam optimizer over named parameter tensors.

The moments of all parameters live in flat buffers, and one step runs its
ufuncs bucket by bucket over them, as multi-tensor Adam and DDP gradient
buckets do (Kingma & Ba, ICLR 2015; Li et al., VLDB 2020). Buckets cut
the buffers at fixed offsets, so a parameter may straddle two. A bucket
is small enough that its temporaries stay in cache and large enough that
a model of many small parameters makes few ufunc calls. Adam is
elementwise, so the update is the per-parameter one bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor
from .errors import ShapeError, ValidationError

BUCKET_VALUES = 16_384  # values per ufunc call of adam_step (128 KiB each)


@dataclass
class AdamState:
    """Hyperparameters, step count and moment accumulators.

    m[name] and v[name] are views, shaped like the parameter, into flat
    float64 buffers laid out in parameter order; grads[name] views a third
    one, into which adam_step stages the gradients. allocate() makes them.
    """

    lr: float = 3e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    v: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    grads: dict[str, np.ndarray] = field(default_factory=dict, init=False,
                                         repr=False, compare=False)
    flat: tuple = field(default=(), init=False, repr=False, compare=False)

    @classmethod
    def for_params(cls, params, lr=3e-2):
        return cls(lr=lr).allocate(params)

    def allocate(self, params) -> AdamState:
        """Zero moments for params, the parameters every adam_step on
        this state updates."""
        params = list(params)
        self.flat = tuple(np.zeros(sum(p.data.size for p in params))
                          for _ in range(3))  # m, v, staged gradients
        lo = 0
        for p in params:
            hi = lo + p.data.size
            for buf, views in zip(self.flat, (self.m, self.v, self.grads)):
                views[p.name] = buf[lo:hi].reshape(p.data.shape)
            lo = hi
        return self


def adam_step(state: AdamState, params: list[Tensor]) -> None:
    """One in-place Adam update with bias correction from each parameter's
    accumulated .grad; a missing gradient counts as zero."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    grads = state.grads
    if len(params) != len(grads):
        raise ValidationError(f"adam_step: {len(params)} parameters, but the "
                              f"state holds moments for {len(grads)}")
    for p in params:
        staged = grads.get(p.name)
        if staged is None:
            raise ValidationError(f"adam_step: no moments for {p.name!r}")
        if staged.shape != p.data.shape:
            raise ShapeError(f"adam_step: moment shape {staged.shape} != param "
                             f"shape {p.data.shape} for {p.name!r}")
        if p.grad is None:
            staged.fill(0.0)
        elif p.grad.shape != p.data.shape:
            raise ShapeError(
                f"adam_step: gradient shape {p.grad.shape} != param shape "
                f"{p.data.shape} for {p.name!r}"
            )
        else:
            np.copyto(staged, p.grad)
    m_flat, v_flat, g_flat = state.flat
    for lo in range(0, g_flat.size, BUCKET_VALUES):
        m = m_flat[lo:lo + BUCKET_VALUES]
        v = v_flat[lo:lo + BUCKET_VALUES]
        g = g_flat[lo:lo + BUCKET_VALUES]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        # the update replaces the staged gradient
        np.divide(state.lr * (m / bc1), np.sqrt(v / bc2) + state.eps, out=g)
    for p in params:
        p.data -= grads[p.name]
