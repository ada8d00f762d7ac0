"""Reverse-mode automatic differentiation over dense numpy arrays.

Every operation builds a node recording its parents and a closure that maps
the node's output gradient to parent-gradient contributions.  Calling
``backward`` on a scalar loss walks the graph once in reverse topological
order.  Each tensor owns its gradient array and contributions are added into
it in place; row and column scatters write straight into it.  Only the
handful of operations the model families need is provided here; the network
layers build their own fused nodes with hand-written backward passes (one
node for the LSTM cell state, one for its output, one for the masked softmax
output).  Everything runs on plain numpy so 64-bit is the default and 32-bit
works by feeding float32 arrays in.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("value", "grad", "parents", "_backward", "requires_grad", "name")

    def __init__(self, value, parents=(), backward=None, requires_grad=False, name=None):
        self.value = value if isinstance(value, np.ndarray) else np.asarray(value, dtype=np.float64)
        self.parents = tuple(parents)
        self._backward = backward
        self.requires_grad = requires_grad or any(p.requires_grad for p in self.parents)
        self.grad = None
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def _accum(self, g):
        """Add a gradient contribution into this tensor's own gradient array."""
        if self.grad is None:
            self.grad = np.array(g)
        else:
            self.grad += g

    def _grad_buffer(self) -> np.ndarray:
        """This tensor's gradient array, zero-filled on first use, for
        backward passes that scatter into part of it."""
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        return self.grad

    def backward(self):
        """Populate .grad on every upstream tensor that requires it."""
        if self.value.size != 1:
            raise ValueError("backward() expects a scalar loss")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                stack.append((p, False))
        for node in order:  # interior gradients are per pass; leaves accumulate
            if node.parents:
                node.grad = None
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)

    def item(self) -> float:
        return float(self.value)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, grad={self.requires_grad}, name={self.name})"


def param(value, name=None) -> Tensor:
    """A trainable tensor."""
    return Tensor(np.asarray(value), requires_grad=True, name=name)


def constant(value) -> Tensor:
    return Tensor(np.asarray(value))


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over axes that numpy broadcasting expanded."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.value + b.value, (a, b))

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.value.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.value.shape))

    out._backward = backward
    return out


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.value - b.value, (a, b))

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.value.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g, b.value.shape))

    out._backward = backward
    return out


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.value * b.value, (a, b))

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.value, a.value.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.value, b.value.shape))

    out._backward = backward
    return out


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.value / b.value, (a, b))

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g / b.value, a.value.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))

    out._backward = backward
    return out


def neg(a) -> Tensor:
    a = _wrap(a)
    out = Tensor(-a.value, (a,))

    def backward(g):
        if a.requires_grad:
            a._accum(-g)

    out._backward = backward
    return out


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got {a.value.shape} @ {b.value.shape}")
    if a.value.shape[1] != b.value.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.value.shape} @ {b.value.shape}")
    out = Tensor(a.value @ b.value, (a, b))

    def backward(g):
        if a.requires_grad:
            a._accum(g @ b.value.T)
        if b.requires_grad:
            b._accum(a.value.T @ g)

    out._backward = backward
    return out


def tanh(a) -> Tensor:
    a = _wrap(a)
    y = np.tanh(a.value)
    out = Tensor(y, (a,))

    def backward(g):
        if a.requires_grad:
            a._accum(g * (1.0 - y * y))

    out._backward = backward
    return out


def log(a) -> Tensor:
    a = _wrap(a)
    out = Tensor(np.log(a.value), (a,))

    def backward(g):
        if a.requires_grad:
            a._accum(g / a.value)

    out._backward = backward
    return out


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.value.sum(axis=axis, keepdims=keepdims), (a,))

    def backward(g):
        if a.requires_grad:
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            a._accum(np.broadcast_to(gg, a.value.shape))

    out._backward = backward
    return out


def concat_cols(parts) -> Tensor:
    parts = [_wrap(p) for p in parts]
    out = Tensor(np.concatenate([p.value for p in parts], axis=1), tuple(parts))
    widths = [p.value.shape[1] for p in parts]

    def backward(g):
        at = 0
        for p, w in zip(parts, widths):
            if p.requires_grad:
                p._accum(g[:, at:at + w])
            at += w

    out._backward = backward
    return out


def slice_cols(a, start, stop) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.value[:, start:stop], (a,))

    def backward(g):
        if a.requires_grad:
            a._grad_buffer()[:, start:stop] += g

    out._backward = backward
    return out


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup (embedding): out[i] = table[indices[i]]."""
    indices = np.asarray(indices)
    out = Tensor(table.value[indices], (table,))

    def backward(g):
        if table.requires_grad:
            np.add.at(table._grad_buffer(), indices, g)

    out._backward = backward
    return out


def take_per_row(a: Tensor, cols: np.ndarray) -> Tensor:
    """out[i] = a[i, cols[i]], returned as a column vector (B, 1)."""
    cols = np.asarray(cols)
    rows = np.arange(a.value.shape[0])
    out = Tensor(a.value[rows, cols][:, None], (a,))

    def backward(g):
        if a.requires_grad:
            np.add.at(a._grad_buffer(), (rows, cols), g[:, 0])

    out._backward = backward
    return out
