"""Network building blocks: feed-forward encoder, LSTM, softmax output,
standard dropout, and the block dropout used when count columns sit next to
an identity block.

The LSTM step and the masked softmax output compute in numpy and enter the
autograd graph as fused nodes with hand-written backward passes: two nodes
per LSTM step (cell state and output) and one per output layer, instead of
one node per elementwise operation.  Training and evaluation run the same
forward.

All weights initialize uniformly in [-0.1, 0.1] except the LSTM forget-gate
bias, which starts at 1 so long-range memory survives early training.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def _init(rng: np.random.Generator, shape, scale=0.1) -> np.ndarray:
    return rng.uniform(-scale, scale, size=shape)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, evaluating each half only where it cannot overflow."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


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
        """One time step as two graph nodes, the cell state c and the output h.

        h is a child of c, so its backward runs first: it adds its share of
        dL/dc into c and leaves the output-gate gradient in the gate
        gradient array the two nodes share.  c's backward fills in the other
        three gates and sends the gate gradient on to x, h_prev, c_prev and
        the weights.
        """
        if x.value.shape[1] != self.in_size:
            raise ValueError(f"expected input width {self.in_size}, got {x.value.shape[1]}")
        h_prev, c_prev = state
        H = self.hidden_size
        W_x, W_h, b = self.W_x, self.W_h, self.b
        xv, hv, cv, Wx, Wh = x.value, h_prev.value, c_prev.value, W_x.value, W_h.value
        act = xv @ Wx + hv @ Wh + b.value
        act[:, :3 * H] = _sigmoid(act[:, :3 * H])
        act[:, 3 * H:] = np.tanh(act[:, 3 * H:])
        i, f, o, g = (act[:, k * H:(k + 1) * H] for k in range(4))
        c_val = f * cv + i * g
        tc = np.tanh(c_val)
        dz = np.zeros_like(act)  # dL/d(gate pre-activations)

        def c_backward(dc):
            dz[:, :H] = dc * g * i * (1.0 - i)
            dz[:, H:2 * H] = dc * cv * f * (1.0 - f)
            dz[:, 3 * H:] = dc * i * (1.0 - g * g)
            if c_prev.requires_grad:
                c_prev._accum(dc * f)
            if x.requires_grad:
                x._accum(dz @ Wx.T)
            if h_prev.requires_grad:
                h_prev._accum(dz @ Wh.T)
            W_x._accum(xv.T @ dz)
            W_h._accum(hv.T @ dz)
            b._accum(dz.sum(axis=0))

        c = Tensor(c_val, (x, h_prev, c_prev, W_x, W_h, b), c_backward)

        def h_backward(dh):
            dz[:, 2 * H:3 * H] = dh * tc * o * (1.0 - o)
            c._accum(dh * o * (1.0 - tc * tc))

        h = Tensor(o * tc, (c,), h_backward)
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
        """Mixture weights as one graph node: softmax(h W + b) over the
        unmasked columns, 0 at masked ones, each row summing to 1.

        A row needs at least one unmasked column.  The backward pass is
        dz = y·(g − Σ g·y), which is 0 at masked columns because y is.
        """
        W, b = self.W, self.b
        hv, Wv = h.value, W.value
        y = hv @ Wv
        y += b.value
        if mask is not None:
            y[mask == 0] = -np.inf
        y -= y.max(axis=1, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=1, keepdims=True)

        def backward(g):
            dz = g - np.einsum("ij,ij->i", g, y)[:, None]
            dz *= y
            if h.requires_grad:
                h._accum(dz @ Wv.T)
            W._accum(hv.T @ dz)
            b._accum(dz.sum(axis=0))

        return Tensor(y, (h, W, b), backward)

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

