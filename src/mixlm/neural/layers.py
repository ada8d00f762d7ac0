"""Network building blocks: feed-forward encoder, LSTM, softmax output,
standard dropout, and the block dropout used when count columns sit next to
an identity block.

All weights initialize uniformly in [-0.1, 0.1] except the LSTM forget-gate
bias, which starts at 1 so long-range memory survives early training.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def _init(rng: np.random.Generator, shape, scale=0.1) -> np.ndarray:
    return rng.uniform(-scale, scale, size=shape)


class FeedForward:
    """One affine layer with a tanh nonlinearity: h = tanh(x W + b)."""

    def __init__(self, in_size: int, hidden_size: int, rng: np.random.Generator,
                 prefix: str = "ff"):
        self.in_size = in_size
        self.W = T.param(_init(rng, (in_size, hidden_size)), f"{prefix}.W")
        self.b = T.param(np.zeros(hidden_size), f"{prefix}.b")

    def __call__(self, x: Tensor) -> Tensor:
        if x.value.shape[1] != self.in_size:
            raise ValueError(f"expected input width {self.in_size}, got {x.value.shape[1]}")
        return T.tanh(x @ self.W + self.b)

    def parameters(self) -> list[Tensor]:
        return [self.W, self.b]


class LSTM:
    """Single-layer LSTM, no peepholes; gate layout [input, forget, output,
    candidate] along the last axis; forget-gate bias starts at 1."""

    def __init__(self, in_size: int, hidden_size: int, rng: np.random.Generator,
                 prefix: str = "lstm"):
        self.in_size = in_size
        self.hidden_size = hidden_size
        self.W_x = T.param(_init(rng, (in_size, 4 * hidden_size)), f"{prefix}.W_x")
        self.W_h = T.param(_init(rng, (hidden_size, 4 * hidden_size)), f"{prefix}.W_h")
        b = np.zeros(4 * hidden_size)
        b[hidden_size:2 * hidden_size] = 1.0
        self.b = T.param(b, f"{prefix}.b")

    def initial_state(self, batch: int):
        z = np.zeros((batch, self.hidden_size))
        return T.constant(z), T.constant(z.copy())

    def step(self, x: Tensor, state):
        if x.value.shape[1] != self.in_size:
            raise ValueError(f"expected input width {self.in_size}, got {x.value.shape[1]}")
        h_prev, c_prev = state
        H = self.hidden_size
        gates = x @ self.W_x + h_prev @ self.W_h + self.b
        i = T.sigmoid(T.slice_cols(gates, 0, H))
        f = T.sigmoid(T.slice_cols(gates, H, 2 * H))
        o = T.sigmoid(T.slice_cols(gates, 2 * H, 3 * H))
        g = T.tanh(T.slice_cols(gates, 3 * H, 4 * H))
        c = f * c_prev + i * g
        h = o * T.tanh(c)
        return h, (h, c)

    def parameters(self) -> list[Tensor]:
        return [self.W_x, self.W_h, self.b]


class OutputLayer:
    """Affine map to K logits, then softmax; the one place that zeroes the
    weights of masked columns and renormalizes the rest."""

    def __init__(self, hidden_size: int, out_size: int, rng: np.random.Generator,
                 prefix: str = "out"):
        self.out_size = out_size
        self.W = T.param(_init(rng, (hidden_size, out_size)), f"{prefix}.W")
        self.b = T.param(np.zeros(out_size), f"{prefix}.b")

    def __call__(self, h: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Mixture weights: softmax(h W + b), zeroed at masked columns and
        rescaled to sum to 1 per row."""
        lam = T.softmax_rows(h @ self.W + self.b)
        if mask is None:
            return lam
        kept = lam * T.constant(mask.astype(lam.value.dtype))
        return kept / T.tsum(kept, axis=1, keepdims=True)

    def parameters(self) -> list[Tensor]:
        return [self.W, self.b]


def standard_dropout(x: Tensor, rate: float, rng: np.random.Generator,
                     training: bool) -> Tensor:
    """Inverted dropout: at train time zero each unit with probability
    ``rate`` and scale survivors by 1/(1-rate); identity elsewhere.

    Rate 0 is a true identity and consumes no randomness, so seeded runs
    with and without dropout configured stay comparable.
    """
    if not training or rate == 0.0:
        return x
    keep = (rng.random(x.value.shape) >= rate).astype(x.value.dtype)
    return x * T.constant(keep / (1.0 - rate))


def block_dropout_mask(batch: int, n_count: int, width: int, rate: float,
                       rng: np.random.Generator, training: bool) -> np.ndarray:
    """Per-example mask that zeroes all count columns with probability ``rate``.

    Multiplying mixture weights by this mask and renormalizing forces the
    dropped examples to explain the data with the identity block alone.
    Rate 0 (or evaluation mode) returns all-ones without consuming any
    random draws, keeping seeded runs bitwise comparable.
    """
    mask = np.ones((batch, width))
    if not training or rate == 0.0:
        return mask
    dropped = rng.random(batch) < rate
    mask[dropped, :n_count] = 0.0
    return mask

