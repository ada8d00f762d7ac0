"""Reverse-mode automatic differentiation over dense numpy arrays.

Every operation builds a node recording its parents and a closure that maps
the node's output gradient to parent-gradient contributions.  Calling
``backward`` on a scalar loss walks the graph once in reverse topological
order.  Only the handful of operations the model families need is provided;
everything runs on plain numpy so 64-bit is the default and 32-bit works by
feeding float32 arrays in.
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
        if self.grad is None:
            self.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g)
        else:
            self.grad = self.grad + g

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


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    # evaluate each half only where it cannot overflow
    x = a.value
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    out = Tensor(y, (a,))

    def backward(g):
        if a.requires_grad:
            a._accum(g * y * (1.0 - y))

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
            a._accum(np.broadcast_to(gg, a.value.shape).copy())

    out._backward = backward
    return out


def mean_all(a) -> Tensor:
    a = _wrap(a)
    out = Tensor(np.asarray(a.value.mean()), (a,))

    def backward(g):
        if a.requires_grad:
            a._accum(np.full(a.value.shape, float(g) / a.value.size, dtype=a.value.dtype))

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
            gg = np.zeros_like(a.value)
            gg[:, start:stop] = g
            a._accum(gg)

    out._backward = backward
    return out


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup (embedding): out[i] = table[indices[i]]."""
    indices = np.asarray(indices)
    out = Tensor(table.value[indices], (table,))

    def backward(g):
        if table.requires_grad:
            gg = np.zeros_like(table.value)
            np.add.at(gg, indices, g)
            table._accum(gg)

    out._backward = backward
    return out


def take_per_row(a: Tensor, cols: np.ndarray) -> Tensor:
    """out[i] = a[i, cols[i]], returned as a column vector (B, 1)."""
    cols = np.asarray(cols)
    rows = np.arange(a.value.shape[0])
    out = Tensor(a.value[rows, cols][:, None], (a,))

    def backward(g):
        if a.requires_grad:
            gg = np.zeros_like(a.value)
            np.add.at(gg, (rows, cols), g[:, 0])
            a._accum(gg)

    out._backward = backward
    return out


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax with the max-subtraction trick."""
    a = _wrap(a)
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y, (a,))

    def backward(g):
        if a.requires_grad:
            dot = (g * y).sum(axis=1, keepdims=True)
            a._accum(y * (g - dot))

    out._backward = backward
    return out
