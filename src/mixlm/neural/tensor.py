"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

Every operation builds a node recording its parents and a backward pass.
Calling ``backward`` on a scalar loss walks the graph once in reverse
topological order.  Each tensor owns its gradient array and contributions
are added into it in place; the optimizer may scale it in place.

``_node`` builds the arithmetic, reduction and concatenation ops from a
forward value and one gradient expression per parent.  Its backward
evaluates an expression only for a parent that requires a gradient, sums the
result over the axes broadcasting expanded, and adds it in.  Two kinds of
node keep their own backward: the scatters ``slice_cols``, ``gather_rows``
and ``take_per_row``, which write into part of their parent's gradient
array and so never allocate a full-size gradient, and the fused nodes of
``layers`` (the feed-forward layer, the LSTM cell state and output, the
masked softmax output), whose parents share one pre-activation gradient.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np


class Tensor:
    __slots__ = ("value", "grad", "parents", "_backward", "requires_grad", "name")

    def __init__(self, value, parents=(), backward=None, requires_grad=False, name=None):
        if not isinstance(value, np.ndarray):
            value = np.asarray(value, np.float64)
        self.value = value
        self.parents = tuple(parents)
        self._backward = backward
        self.requires_grad = requires_grad or any(p.requires_grad for p in self.parents)
        self.grad = None
        self.name = name

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

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

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


def _node(value, parents, grads) -> Tensor:
    """A node whose backward adds ``grads[i](g)``, summed over the axes that
    broadcasting expanded, into each parent ``i`` that requires a gradient;
    the gradient of a constant parent is never computed."""
    parents = tuple(parents)

    def backward(g):
        for p, grad in zip(parents, grads):
            if p.requires_grad:
                p._accum(_unbroadcast(grad(g), p.value.shape))

    return Tensor(value, parents, backward)


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _node(a.value + b.value, (a, b), (lambda g: g, lambda g: g))


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _node(a.value * b.value, (a, b), (lambda g: g * b.value, lambda g: g * a.value))


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _node(a.value / b.value, (a, b),
                 (lambda g: g / b.value, lambda g: -g * a.value / (b.value * b.value)))


def neg(a) -> Tensor:
    a = _wrap(a)
    return _node(-a.value, (a,), (lambda g: -g,))


def log(a) -> Tensor:
    a = _wrap(a)
    return _node(np.log(a.value), (a,), (lambda g: g / a.value,))


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)
    squeezed = axis is not None and not keepdims
    return _node(a.value.sum(axis=axis, keepdims=keepdims), (a,),
                 (lambda g: np.broadcast_to(np.expand_dims(g, axis) if squeezed else g,
                                            a.value.shape),))


def concat_cols(parts) -> Tensor:
    parts = [_wrap(p) for p in parts]
    cuts = [0, *accumulate(p.value.shape[1] for p in parts)]
    return _node(np.concatenate([p.value for p in parts], axis=1), parts,
                 [lambda g, lo=lo, hi=hi: g[:, lo:hi] for lo, hi in zip(cuts, cuts[1:])])


def slice_cols(a, start, stop) -> Tensor:
    a = _wrap(a)

    def backward(g):
        if a.requires_grad:
            a._grad_buffer()[:, start:stop] += g

    return Tensor(a.value[:, start:stop], (a,), backward)


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup (embedding): out[i] = table[indices[i]]."""
    indices = np.asarray(indices)

    def backward(g):
        if table.requires_grad:
            np.add.at(table._grad_buffer(), indices, g)

    return Tensor(table.value[indices], (table,), backward)


def take_per_row(a: Tensor, cols: np.ndarray) -> Tensor:
    """out[i] = a[i, cols[i]], returned as a column vector (B, 1)."""
    cols = np.asarray(cols)
    rows = np.arange(a.value.shape[0])

    def backward(g):
        if a.requires_grad:
            np.add.at(a._grad_buffer(), (rows, cols), g[:, 0])

    return Tensor(a.value[rows, cols][:, None], (a,), backward)
