"""Adam with global-norm gradient clipping, updated in place.

``Adam.step`` scales every gradient array in place when their global norm
exceeds ``CLIP_NORM``, then updates its own moment arrays and each
parameter's value in place, through two scratch buffers that it keeps from
step to step and shares among the parameters: each is as large as the
largest parameter, or its float64 squares, and each update views its first
bytes with the parameter's dtype and shape.  The norm squares each gradient
into the first buffer in float64, so a step allocates no array of a
parameter's size.  Each operation keeps the order of value − lr·m̂ / (√v̂ + ε),
with m̂ = m / (1 − β1ᵗ) and v̂ = v / (1 − β2ᵗ), evaluated out of place, so the
update gives the same bits.  The decay rates, epsilon and clipping norm are
fixed; only the learning rate is set per optimizer.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1 = 0.9  # decay of the first moment estimate
BETA2 = 0.999  # decay of the second moment estimate
EPS = 1e-8
CLIP_NORM = 5.0  # global gradient norm above which gradients are scaled down


class OptimError(RuntimeError):
    pass


class Adam:
    """Tracks first/second moment estimates per parameter."""

    def __init__(self, params: list[Tensor], lr: float = 0.001):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        # a float32 parameter's float64 squares take twice its bytes
        size = max((max(p.value.nbytes, 8 * p.value.size) for p in self.params), default=0)
        self._scratch = (np.empty(size, np.uint8), np.empty(size, np.uint8))

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def _clip(self) -> float:
        """Scale the gradients in place so their global norm is at most
        ``CLIP_NORM``; returns the pre-clip norm.  Raises on a non-finite
        gradient, naming the parameter."""
        grads, total = [], 0.0
        with np.errstate(over="ignore"):  # an overflowed sum is recomputed below
            for p in self.params:
                g = p.grad
                if g is None:
                    continue
                tmp = self._scratch[0][:8 * g.size].view(np.float64).reshape(g.shape)
                sq = float(np.square(g, out=tmp, dtype=np.float64).sum())
                # a non-finite sum of squares has a non-finite entry or overflowed
                if not np.isfinite(sq) and not np.all(np.isfinite(g)):
                    raise OptimError(f"non-finite gradient in {p.name or 'unnamed parameter'}")
                grads.append(g)
                total += sq
        norm = float(np.sqrt(total))
        if not np.isfinite(norm):  # every entry is finite: scale by the largest first
            grads = [g.astype(np.float64, copy=False) for g in grads]
            big = max(float(np.abs(g).max(initial=0.0)) for g in grads)
            norm = big * float(np.sqrt(sum(float(((g / big) ** 2).sum()) for g in grads)))
        if norm > CLIP_NORM:
            scale = CLIP_NORM / norm
            for p in self.params:
                if p.grad is not None:
                    p.grad *= scale
        return norm

    def step(self) -> float:
        """Apply one bias-corrected update from the accumulated gradients;
        returns the pre-clip gradient norm."""
        norm = self._clip()
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            tmp, den = (buf[:p.value.nbytes].view(p.value.dtype).reshape(p.value.shape)
                        for buf in self._scratch)
            m *= BETA1  # m = β1·m + (1 − β1)·g
            np.multiply(g, 1.0 - BETA1, out=tmp)
            m += tmp
            v *= BETA2  # v = β2·v + (1 − β2)·g·g
            np.multiply(g, 1.0 - BETA2, out=tmp)
            tmp *= g
            v += tmp
            np.divide(m, c1, out=tmp)  # lr·m̂ / (√v̂ + ε)
            tmp *= self.lr
            np.divide(v, c2, out=den)
            np.sqrt(den, out=den)
            den += EPS
            tmp /= den
            p.value -= tmp
        return norm
