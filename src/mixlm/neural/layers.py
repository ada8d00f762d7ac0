"""Network building blocks: feed-forward encoder, LSTM, masked softmax
output, and the block dropout used when count columns sit next to an
identity block.

Every layer computes in numpy and enters the autograd graph as fused nodes
with hand-written backward passes: one node per feed-forward layer, two per
LSTM step (cell state and output) and one per output layer, instead of one
node per elementwise operation.  Each rejects an input that is not a
(batch, width) matrix with ``ValueError``, and the LSTM a state that is not
(batch, hidden).  Training and evaluation run the same forward.

All weights initialize uniformly in [-0.1, 0.1] except the LSTM forget-gate
bias, which starts at 1 so long-range memory survives early training.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def _init(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(-0.1, 0.1, size=shape)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function in one pass that cannot overflow: with e = exp(-|x|),
    1/(1 + e) where x >= 0 and e/(1 + e) elsewhere."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _affine_backward(dz: np.ndarray, b: Tensor, *pairs: tuple[Tensor, Tensor]) -> None:
    """Send the gradient ``dz`` of z = Σ x W + b on to each input x that needs
    one, then to each weight W and to the bias."""
    for x, W in pairs:
        if x.requires_grad:
            x._accum(dz @ W.value.T)
    for x, W in pairs:
        W._accum(x.value.T @ dz)
    b._accum(dz.sum(axis=0))


def _check_input(x: Tensor, width: int) -> None:
    shape = x.value.shape
    if len(shape) != 2 or shape[1] != width:
        raise ValueError(f"expected a (batch, {width}) input, got shape {shape}")


class FeedForward:
    """One affine layer with a tanh nonlinearity: h = tanh(x W + b)."""

    def __init__(self, in_size: int, hidden_size: int, rng: np.random.Generator):
        self.in_size = in_size
        self.W = T.param(_init(rng, (in_size, hidden_size)), "ff.W")
        self.b = T.param(np.zeros(hidden_size), "ff.b")

    def __call__(self, x: Tensor) -> Tensor:
        """h as one graph node; the backward pass is dz = g·(1 − h²)."""
        _check_input(x, self.in_size)
        W, b = self.W, self.b
        y = np.tanh(x.value @ W.value + b.value)

        def backward(g):
            _affine_backward(g * (1.0 - y * y), b, (x, W))

        return Tensor(y, (x, W, b), backward)

    def parameters(self) -> list[Tensor]:
        return [self.W, self.b]


class LSTM:
    """Single-layer LSTM, no peepholes; gate layout [input, forget, output,
    candidate] along the last axis; forget-gate bias starts at 1."""

    def __init__(self, in_size: int, hidden_size: int, rng: np.random.Generator):
        self.in_size = in_size
        self.hidden_size = hidden_size
        self.W_x = T.param(_init(rng, (in_size, 4 * hidden_size)), "lstm.W_x")
        self.W_h = T.param(_init(rng, (hidden_size, 4 * hidden_size)), "lstm.W_h")
        b = np.zeros(4 * hidden_size)
        b[hidden_size:2 * hidden_size] = 1.0
        self.b = T.param(b, "lstm.b")

    def initial_state(self, batch: int):
        z = np.zeros((batch, self.hidden_size))
        return T.constant(z), T.constant(z.copy())

    def step(self, x: Tensor, state):
        """One time step as two graph nodes, the cell state c and the output h.

        h is a child of c, so its backward runs first: it makes the gate
        gradient array the two nodes share, adds its share of dL/dc into c
        and leaves the output-gate gradient in that array.  c's backward
        fills in the other three gates (making the array, with a zero
        output gate, when h had no gradient), sends the gate gradient on to
        x, h_prev, c_prev and the weights, and drops the array, so a step
        holds it only from its h's turn to the end of its c's.
        """
        _check_input(x, self.in_size)
        h_prev, c_prev = state
        H = self.hidden_size
        want = (x.value.shape[0], H)
        if h_prev.value.shape != want or c_prev.value.shape != want:
            raise ValueError(f"expected a {want} state, got {h_prev.value.shape} "
                             f"and {c_prev.value.shape}")
        W_x, W_h, b = self.W_x, self.W_h, self.b
        cv = c_prev.value
        act = x.value @ W_x.value + h_prev.value @ W_h.value + b.value
        act[:, :3 * H] = _sigmoid(act[:, :3 * H])
        act[:, 3 * H:] = np.tanh(act[:, 3 * H:])
        i, f, o, g = (act[:, k * H:(k + 1) * H] for k in range(4))
        c_val = f * cv + i * g
        tc = np.tanh(c_val)
        dz = None  # dL/d(gate pre-activations), while backward is in this step

        def c_backward(dc):
            nonlocal dz
            if dz is None:
                dz = np.zeros_like(act)
            dz[:, :H] = dc * g * i * (1.0 - i)
            dz[:, H:2 * H] = dc * cv * f * (1.0 - f)
            dz[:, 3 * H:] = dc * i * (1.0 - g * g)
            if c_prev.requires_grad:
                c_prev._accum(dc * f)
            _affine_backward(dz, b, (x, W_x), (h_prev, W_h))
            dz = None

        c = Tensor(c_val, (x, h_prev, c_prev, W_x, W_h, b), c_backward)

        def h_backward(dh):
            nonlocal dz
            dz = np.empty_like(act)  # c's backward writes the other three gates
            dz[:, 2 * H:3 * H] = dh * tc * o * (1.0 - o)
            c._accum(dh * o * (1.0 - tc * tc))

        h = Tensor(o * tc, (c,), h_backward)
        return h, (h, c)

    def parameters(self) -> list[Tensor]:
        return [self.W_x, self.W_h, self.b]


class OutputLayer:
    """Affine map to K logits, then softmax; the one place that zeroes the
    weights of masked columns and renormalizes the rest."""

    def __init__(self, hidden_size: int, out_size: int, rng: np.random.Generator):
        self.in_size = hidden_size
        self.out_size = out_size
        self.W = T.param(_init(rng, (hidden_size, out_size)), "out.W")
        self.b = T.param(np.zeros(out_size), "out.b")

    def __call__(self, h: Tensor, mask: np.ndarray) -> Tensor:
        """Mixture weights as one graph node: softmax(h W + b) over the
        columns where ``mask`` is non-zero, 0 at the others, each row summing
        to 1.

        A mask that is not (batch, out_size) or has a row with no unmasked
        column raises ``ValueError``.  The backward pass is
        dz = y·(g − Σ g·y), which is 0 at masked columns because y is.
        """
        _check_input(h, self.in_size)
        off = np.asarray(mask) == 0
        if off.shape != (h.value.shape[0], self.out_size):
            raise ValueError(f"expected a ({h.value.shape[0]}, {self.out_size}) mask, "
                             f"got shape {off.shape}")
        empty = np.flatnonzero(off.all(axis=1))
        if len(empty):
            raise ValueError(f"mask row {empty[0]} has no unmasked column")
        W, b = self.W, self.b
        y = h.value @ W.value
        y += b.value
        y[off] = -np.inf
        y -= y.max(axis=1, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=1, keepdims=True)

        def backward(g):
            dz = g - np.einsum("ij,ij->i", g, y)[:, None]
            dz *= y
            _affine_backward(dz, b, (h, W))

        return Tensor(y, (h, W, b), backward)

    def parameters(self) -> list[Tensor]:
        return [self.W, self.b]


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

