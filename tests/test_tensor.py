"""Autodiff engine: every op's gradient against central differences, with
the reference ops of ``helpers`` alongside the library's."""

import numpy as np
import pytest

import mixlm.neural.tensor as T
from mixlm.neural.optim import Adam

from helpers import gradient_check, matmul, mean_all, sigmoid, softmax_rows, tanh


def check(loss_fn, params, tol=1e-7):
    assert gradient_check(loss_fn, params, eps=1e-6) < tol


class TestElementwiseOps:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.a = T.param(rng.normal(size=(3, 4)), "a")
        self.b = T.param(rng.normal(size=(3, 4)), "b")
        self.bias = T.param(rng.normal(size=4), "bias")

    def test_add_values_and_grad(self):
        check(lambda: mean_all(self.a + self.b), [self.a, self.b])

    def test_add_broadcast_bias(self):
        check(lambda: mean_all(self.a + self.bias), [self.a, self.bias])

    def test_mul(self):
        check(lambda: mean_all(self.a * self.b), [self.a, self.b])

    def test_mul_broadcast(self):
        check(lambda: mean_all(self.a * self.bias), [self.a, self.bias])

    def test_div(self):
        b = T.param(np.abs(np.random.default_rng(0).normal(size=(3, 4))) + 1.0, "den")
        check(lambda: mean_all(self.a / b), [self.a, b])

    def test_div_by_row_sum(self):
        def loss():
            s = T.tsum(self.a, axis=1, keepdims=True)
            return mean_all(self.a / (s * s + 5.0))

        check(loss, [self.a])

    def test_neg(self):
        check(lambda: mean_all(-self.a), [self.a])

    def test_diamond_reuse_accumulates(self):
        x = T.param(np.array([[2.0]]), "x")
        y = mean_all(x * x + x)
        y.backward()
        assert x.grad[0, 0] == pytest.approx(2 * 2.0 + 1.0)


class TestMatmulAndReductions:
    def setup_method(self):
        rng = np.random.default_rng(6)
        self.x = T.param(rng.normal(size=(4, 3)), "x")
        self.w = T.param(rng.normal(size=(3, 5)), "w")

    def test_matmul_value(self):
        out = matmul(self.x, self.w)
        np.testing.assert_allclose(out.value, self.x.value @ self.w.value)

    def test_matmul_grad(self):
        check(lambda: mean_all(matmul(self.x, self.w)), [self.x, self.w])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            matmul(self.w, self.x)  # 3x5 @ 4x3

    def test_matmul_requires_2d(self):
        with pytest.raises(ValueError):
            matmul(T.param(np.ones(3)), self.w)

    def test_sum_axis_keepdims(self):
        check(lambda: mean_all(T.tsum(self.x, axis=1, keepdims=True) * 2.0), [self.x])

    def test_sum_all(self):
        check(lambda: T.tsum(self.x), [self.x])

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            matmul(self.x, self.w).backward()


class TestNonlinearities:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.x = T.param(rng.normal(size=(3, 4)), "x")

    def test_tanh(self):
        check(lambda: mean_all(tanh(self.x)), [self.x])

    def test_sigmoid(self):
        check(lambda: mean_all(sigmoid(self.x)), [self.x])

    def test_sigmoid_extreme_inputs_are_stable(self):
        big = T.constant(np.array([[800.0, -800.0]]))
        y = sigmoid(big).value
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y, [[1.0, 0.0]], atol=1e-12)

    def test_log(self):
        pos = T.param(np.abs(np.random.default_rng(1).normal(size=(3, 4))) + 0.5, "p")
        check(lambda: mean_all(T.log(pos)), [pos])

    def test_softmax_rows_sum_to_one(self):
        y = softmax_rows(self.x).value
        np.testing.assert_allclose(y.sum(axis=1), np.ones(3), atol=1e-12)
        assert np.all(y > 0)

    def test_softmax_grad(self):
        w = T.constant(np.random.default_rng(2).normal(size=(3, 4)))
        check(lambda: mean_all(softmax_rows(self.x) * w), [self.x])

    def test_softmax_shift_invariance(self):
        y1 = softmax_rows(self.x).value
        y2 = softmax_rows(T.constant(self.x.value + 1000.0)).value
        np.testing.assert_allclose(y1, y2, atol=1e-12)


class TestStructuralOps:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.a = T.param(rng.normal(size=(4, 3)), "a")
        self.b = T.param(rng.normal(size=(4, 2)), "b")

    def test_concat_cols_value(self):
        out = T.concat_cols([self.a, self.b])
        assert out.value.shape == (4, 5)
        np.testing.assert_array_equal(out.value[:, :3], self.a.value)

    def test_concat_cols_grad(self):
        check(lambda: mean_all(T.concat_cols([self.a, self.b])), [self.a, self.b])

    def test_slice_cols(self):
        check(lambda: mean_all(T.slice_cols(self.a, 1, 3)), [self.a])

    def test_gather_rows_with_repeats(self):
        """Repeated indices must accumulate their gradients."""
        table = T.param(np.random.default_rng(3).normal(size=(5, 3)), "emb")
        idx = np.array([0, 2, 2, 4, 0, 0])
        check(lambda: mean_all(T.gather_rows(table, idx)), [table])
        table.grad = None
        out = T.tsum(T.gather_rows(table, idx))
        out.backward()
        assert table.grad[0].sum() == pytest.approx(3 * 3)  # row 0 used 3 times
        assert table.grad[1].sum() == 0.0

    def test_take_per_row(self):
        cols = np.array([2, 0, 1, 2])
        out = T.take_per_row(self.a, cols)
        assert out.value.shape == (4, 1)
        for i, c in enumerate(cols):
            assert out.value[i, 0] == self.a.value[i, c]
        check(lambda: mean_all(T.take_per_row(self.a, cols)), [self.a])


class TestConstantOperands:
    """A constant operand is routed no gradient; the others still get theirs."""

    @pytest.mark.parametrize("op, shapes, const", [
        (T.add, [(3, 4), (4,)], 0),
        (T.add, [(3, 4), (4,)], 1),
        (T.mul, [(3, 4), (3, 4)], 0),
        (T.mul, [(3, 4), (3, 1)], 1),
        (T.div, [(3, 4), (3, 4)], 0),
        (T.div, [(3, 4), (1, 4)], 1),
        (matmul, [(3, 4), (4, 2)], 0),
        (matmul, [(3, 4), (4, 2)], 1),
        (lambda *parts: T.concat_cols(parts), [(3, 2), (3, 1), (3, 2)], 1),
    ], ids=["add-left", "add-right", "mul-left", "mul-right", "div-numerator",
            "div-denominator", "matmul-left", "matmul-right", "concat-middle"])
    def test_constant_operand_gets_no_gradient(self, op, shapes, const):
        rng = np.random.default_rng(11)
        operands = [T.param(np.abs(rng.normal(size=s)) + 0.5) for s in shapes]
        operands[const] = T.constant(operands[const].value)
        check(lambda: mean_all(op(*operands)), operands[:const] + operands[const + 1:])
        assert operands[const].grad is None


class TestComposedGraph:
    def test_two_layer_composition(self):
        """A small end-to-end graph exercises accumulation across ops."""
        rng = np.random.default_rng(9)
        x = T.constant(rng.normal(size=(6, 4)))
        w1 = T.param(rng.normal(size=(4, 5)) * 0.3, "w1")
        b1 = T.param(np.zeros(5), "b1")
        w2 = T.param(rng.normal(size=(5, 3)) * 0.3, "w2")

        def loss():
            h = tanh(matmul(x, w1) + b1)
            lam = softmax_rows(matmul(h, w2))
            p = T.take_per_row(lam, np.array([0, 1, 2, 0, 1, 2]))
            return mean_all(-T.log(p))

        assert gradient_check(loss, [w1, b1, w2], eps=1e-6) < 1e-7

    def test_python_number_in_float64_graph_unchanged(self):
        """In a float64 graph a Python number gives what a float64 array does."""
        x = T.param(np.linspace(0.1, 0.4, 4).reshape(2, 2), "x")
        y = T.tsum(tanh(matmul(x, x))) / 3.0
        y.backward()
        grad, x.grad = x.grad, None  # a leaf accumulates across passes
        want = T.tsum(tanh(matmul(x, x))) / T.constant(np.float64(3.0))
        want.backward()
        assert y.value.dtype == np.float64 and y.value == want.value
        np.testing.assert_array_equal(grad, x.grad)


class TestInPlaceAccumulation:
    """A table fed by two repeated-index lookups and one elementwise use."""

    def setup_method(self):
        rng = np.random.default_rng(10)
        self.table = T.param(rng.normal(size=(5, 3)), "table")
        self.idx1 = np.array([0, 2, 2])
        self.idx2 = np.array([2, 4, 0, 0])
        self.A = rng.normal(size=(3, 3))
        self.B = rng.normal(size=(4, 3))
        self.C = rng.normal(size=(5, 3))

    def graph(self):
        t = self.table
        return (T.tsum(T.gather_rows(t, self.idx1) * self.A)
                + T.tsum(T.gather_rows(t, self.idx2) * self.B)
                + T.tsum(t * self.C))

    def expected(self):
        want = self.C.copy()
        for rows, g in ((self.idx1, self.A), (self.idx2, self.B)):
            for r, row in zip(rows, g):
                want[r] += row
        return want

    def test_gradient_is_hand_sum(self):
        self.graph().backward()
        np.testing.assert_allclose(self.table.grad, self.expected(), rtol=1e-14)

    def test_no_gradient_shares_memory(self):
        loss = self.graph()
        loss.backward()
        tensors, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in tensors:
                tensors[id(node)] = node
                stack.extend(node.parents)
        grads = [t.grad for t in tensors.values() if t.grad is not None]
        assert len(grads) >= 8
        for i, a in enumerate(grads):
            for b in grads[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_repeated_backward_after_zero_grad_is_equal(self):
        loss = self.graph()
        opt = Adam([self.table])
        loss.backward()
        first = self.table.grad.copy()
        opt.zero_grad()
        loss.backward()
        np.testing.assert_array_equal(self.table.grad, first)
        loss.backward()  # without zero_grad, a leaf accumulates
        np.testing.assert_allclose(self.table.grad, 2 * first, rtol=1e-14)
