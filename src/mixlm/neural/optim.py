"""Adam with global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class OptimError(RuntimeError):
    pass


def adam_step(value: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float = 0.001, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8):
    """One bias-corrected Adam update; returns (new value, new m, new v)."""
    if t < 1:
        raise OptimError("Adam step count must be >= 1")
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return value - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def clip_gradients(params: list[Tensor], max_norm: float = 5.0) -> float:
    """Scale all gradients so their global norm is at most ``max_norm``.

    Returns the pre-clip norm.  Raises on non-finite gradients, naming the
    offending parameter.
    """
    total = 0.0
    for p in params:
        if p.grad is None:
            continue
        if not np.all(np.isfinite(p.grad)):
            raise OptimError(f"non-finite gradient in {p.name or 'unnamed parameter'}")
        total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


class Adam:
    """Tracks first/second moment estimates per parameter."""

    def __init__(self, params: list[Tensor], lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, clip_norm: float = 5.0):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.clip_norm = clip_norm
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> float:
        """Apply one update from the accumulated gradients; returns the
        pre-clip gradient norm."""
        norm = clip_gradients(self.params, self.clip_norm)
        self.t += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            p.value, self.m[i], self.v[i] = adam_step(
                p.value, p.grad, self.m[i], self.v[i], self.t,
                self.lr, self.beta1, self.beta2, self.eps)
        return norm
