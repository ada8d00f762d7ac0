"""Network layers: hand-evaluated forward passes, the fused nodes against
the unfused reference, block dropout behavior."""

import math

import numpy as np
import pytest

import mixlm.neural.tensor as T
from mixlm.neural.layers import (
    LSTM,
    FeedForward,
    OutputLayer,
    block_dropout_mask,
)

from helpers import (
    feedforward_unfused,
    gradient_check,
    graph_nodes,
    lstm_step_unfused,
    mean_all,
    output_unfused,
)


def sigma(x):
    return 1.0 / (1.0 + math.exp(-x))


class TestFeedForward:
    def test_zero_input_zero_bias_gives_zero(self):
        ff = FeedForward(3, 4, np.random.default_rng(0))
        h = ff(T.constant(np.zeros((2, 3))))
        np.testing.assert_allclose(h.value, 0.0)

    def test_scalar_tanh(self):
        ff = FeedForward(1, 1, np.random.default_rng(0))
        ff.W.value[:] = 1.0
        ff.b.value[:] = 0.0
        h = ff(T.constant(np.array([[1.0]])))
        assert h.value[0, 0] == pytest.approx(math.tanh(1.0))

    def test_outputs_bounded_by_one(self):
        rng = np.random.default_rng(1)
        ff = FeedForward(5, 7, rng)
        h = ff(T.constant(rng.normal(size=(10, 5)) * 50))
        assert np.all(np.abs(h.value) < 1.0)

    def test_shape_mismatch(self):
        ff = FeedForward(3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ff(T.constant(np.zeros((2, 5))))

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 3)], ids=["one-d", "three-d"])
    def test_non_matrix_input_rejected(self, shape):
        ff = FeedForward(3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"expected a \(batch, 3\) input"):
            ff(T.constant(np.zeros(shape)))

    def test_init_range(self):
        ff = FeedForward(20, 30, np.random.default_rng(2))
        assert np.all(np.abs(ff.W.value) <= 0.1)
        np.testing.assert_allclose(ff.b.value, 0.0)


class TestLSTM:
    def test_zero_network_zero_state(self):
        lstm = LSTM(2, 3, np.random.default_rng(0))
        for p in lstm.parameters():
            p.value[:] = 0.0
        h0, c0 = lstm.initial_state(2)
        h, (h1, c1) = lstm.step(T.constant(np.zeros((2, 2))), (h0, c0))
        np.testing.assert_allclose(h.value, 0.0)
        np.testing.assert_allclose(c1.value, 0.0)

    def test_forget_gate_bias_initialized_to_one(self):
        lstm = LSTM(2, 4, np.random.default_rng(0))
        H = 4
        np.testing.assert_allclose(lstm.b.value[H:2 * H], 1.0)
        np.testing.assert_allclose(lstm.b.value[:H], 0.0)
        np.testing.assert_allclose(lstm.b.value[2 * H:], 0.0)

    def test_single_unit_hand_evaluation(self):
        """One cell, one step, every gate checked against the formulas."""
        lstm = LSTM(1, 1, np.random.default_rng(0))
        lstm.W_x.value[:] = np.array([[0.5, 0.25, -0.3, 0.8]])
        lstm.W_h.value[:] = np.array([[0.1, 0.2, 0.3, -0.4]])
        lstm.b.value[:] = np.array([0.05, 1.0, -0.1, 0.2])
        h_prev, c_prev = 0.3, -0.2
        x = 0.7
        state = (T.constant(np.array([[h_prev]])), T.constant(np.array([[c_prev]])))
        h, (_, c) = lstm.step(T.constant(np.array([[x]])), state)

        i = sigma(x * 0.5 + h_prev * 0.1 + 0.05)
        f = sigma(x * 0.25 + h_prev * 0.2 + 1.0)
        o = sigma(x * -0.3 + h_prev * 0.3 - 0.1)
        g = math.tanh(x * 0.8 + h_prev * -0.4 + 0.2)
        c_ref = f * c_prev + i * g
        h_ref = o * math.tanh(c_ref)
        assert c.value[0, 0] == pytest.approx(c_ref, abs=1e-12)
        assert h.value[0, 0] == pytest.approx(h_ref, abs=1e-12)

    def test_gate_ranges(self):
        rng = np.random.default_rng(3)
        lstm = LSTM(4, 6, rng)
        state = lstm.initial_state(5)
        x = T.constant(rng.normal(size=(5, 4)) * 10)
        for _ in range(3):
            h, state = lstm.step(x, state)
        assert np.all(np.abs(h.value) < 1.0)  # |o·tanh(c)| < 1

    def test_shape_mismatch(self):
        lstm = LSTM(3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            lstm.step(T.constant(np.zeros((1, 5))), lstm.initial_state(1))

    @pytest.mark.parametrize("shape", [(3,), (1, 1, 3)], ids=["one-d", "three-d"])
    def test_non_matrix_input_rejected(self, shape):
        lstm = LSTM(3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"expected a \(batch, 3\) input"):
            lstm.step(T.constant(np.zeros(shape)), lstm.initial_state(1))

    @pytest.mark.parametrize("which", ["h", "c", "both"])
    @pytest.mark.parametrize("shape", [(1, 2), (4, 3), (2,)],
                             ids=["wrong-batch", "wrong-width", "one-d"])
    def test_state_of_wrong_shape_rejected(self, shape, which):
        """A (1, 2) state would broadcast over a batch of 4 and fail only in
        backward; every wrong state is rejected before anything is computed."""
        lstm = LSTM(3, 2, np.random.default_rng(0))
        h, c = lstm.initial_state(4)
        bad = T.constant(np.zeros(shape))
        state = (bad if which != "c" else h, bad if which != "h" else c)
        with pytest.raises(ValueError, match=r"expected a \(4, 2\) state"):
            lstm.step(T.constant(np.zeros((4, 3))), state)


class TestOutputLayer:
    def test_zero_logits_uniform(self):
        out = OutputLayer(3, 4, np.random.default_rng(0))
        out.W.value[:] = 0.0
        lam = out(T.constant(np.zeros((2, 3))), np.ones((2, 4)))
        np.testing.assert_allclose(lam.value, 0.25)

    def test_log_two_logits(self):
        out = OutputLayer(1, 2, np.random.default_rng(0))
        out.W.value[:] = 0.0
        out.b.value[:] = np.array([math.log(2.0), 0.0])
        lam = out(T.constant(np.zeros((1, 1))), np.ones((1, 2)))
        np.testing.assert_allclose(lam.value, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_mask_renormalizes(self):
        out = OutputLayer(2, 2, np.random.default_rng(1))
        mask = np.array([[0.0, 1.0]])
        lam = out(T.constant(np.random.default_rng(2).normal(size=(1, 2))), mask=mask)
        np.testing.assert_allclose(lam.value, [[0.0, 1.0]], atol=1e-12)

    def test_rows_sum_to_one_with_partial_mask(self):
        rng = np.random.default_rng(4)
        out = OutputLayer(3, 5, rng)
        mask = (rng.random((6, 5)) > 0.3).astype(float)
        mask[:, 0] = 1.0  # keep at least one valid column
        lam = out(T.constant(rng.normal(size=(6, 3))), mask=mask)
        np.testing.assert_allclose(lam.value.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(lam.value[mask == 0.0] == 0.0)

    def test_list_mask_is_applied(self):
        out = OutputLayer(2, 3, np.random.default_rng(0))
        lam = out(T.constant(np.ones((2, 2))), [[1, 1, 0], [0, 1, 1]]).value
        assert lam[0, 2] == 0.0 and lam[1, 0] == 0.0
        np.testing.assert_allclose(lam.sum(axis=1), 1.0)

    @pytest.mark.parametrize("shape", [(2, 5), (3,), (2, 2, 3)],
                             ids=["wrong-width", "one-d", "three-d"])
    def test_malformed_input_rejected(self, shape):
        out = OutputLayer(3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"expected a \(batch, 3\) input"):
            out(T.constant(np.ones(shape)), np.ones((2, 4)))

    @pytest.mark.parametrize("shape", [(2, 3), (2, 5), (3, 4), (4,), (1, 4)],
                             ids=["too-narrow", "too-wide", "too-many-rows", "one-d",
                                  "one-row"])
    def test_mask_of_wrong_shape_rejected(self, shape):
        out = OutputLayer(3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"expected a \(2, 4\) mask"):
            out(T.constant(np.ones((2, 3))), np.ones(shape))

    @pytest.mark.parametrize("as_array", [False, True])
    def test_row_without_unmasked_column_raises(self, as_array):
        out = OutputLayer(2, 3, np.random.default_rng(0))
        mask = [[1, 1, 0], [0, 0, 0]]
        with pytest.raises(ValueError, match="mask row 1 has no unmasked column"):
            out(T.constant(np.ones((2, 2))), np.array(mask) if as_array else mask)


class TestFusedFeedForward:
    def setup_method(self):
        rng = np.random.default_rng(31)
        self.ff = FeedForward(5, 4, rng)
        self.ff.b.value[:] = rng.normal(size=4) * 0.1
        self.x = T.param(rng.normal(size=(6, 5)), "x")
        self.g = rng.normal(size=(6, 4))  # dL/dh

    def _forward_backward(self, layer):
        params = [self.x] + self.ff.parameters()
        for p in params:
            p.grad = None
        h = layer(self.x)
        T.tsum(h * T.constant(self.g)).backward()
        return h.value, [p.grad.copy() for p in params]

    def test_values_and_gradients_equal_unfused_graph(self):
        got, got_grads = self._forward_backward(self.ff)
        want, want_grads = self._forward_backward(lambda x: feedforward_unfused(self.ff, x))
        np.testing.assert_array_equal(got, want)
        for a, b in zip(got_grads, want_grads):
            np.testing.assert_array_equal(a, b)

    def test_constant_input_gets_no_gradient(self):
        x = T.constant(self.x.value)
        T.tsum(self.ff(x)).backward()
        assert x.grad is None
        assert all(p.grad is not None for p in self.ff.parameters())

    def test_adds_one_graph_node(self):
        before = graph_nodes(self.x, *self.ff.parameters())
        assert graph_nodes(self.ff(self.x)) - before == 1

    def test_gradients_match_central_differences(self):
        def loss():
            return mean_all(self.ff(self.x) * T.constant(self.g))

        assert gradient_check(loss, [self.x] + self.ff.parameters(), eps=1e-6) < 1e-7

    def test_saturated_units_stay_finite(self):
        """Pre-activations of ±1000 neither overflow nor warn, forward or
        backward, and pass no gradient through a saturated unit."""
        ff = FeedForward(1, 2, np.random.default_rng(0))
        ff.W.value[:] = np.array([[1000.0, -1000.0]])
        x = T.param(np.array([[1.0], [-1.0]]), "x")
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            h = ff(x)
            T.tsum(h).backward()
        np.testing.assert_array_equal(h.value, [[1.0, -1.0], [-1.0, 1.0]])
        for p in [x] + ff.parameters():
            np.testing.assert_array_equal(p.grad, 0.0)


def _lstm_and_inputs(seed):
    """A 5-input, 4-unit LSTM and four steps of inputs for a batch of 3."""
    rng = np.random.default_rng(seed)
    return LSTM(5, 4, rng), [T.constant(rng.normal(size=(3, 5))) for _ in range(4)]


class TestFusedLSTMStep:
    def test_values_match_unfused_graph(self):
        lstm, xs = _lstm_and_inputs(11)
        fused = ref = lstm.initial_state(3)
        for x in xs:
            _, fused = lstm.step(x, fused)
            _, ref = lstm_step_unfused(lstm, x, ref)
            for got, want in zip(fused, ref):
                np.testing.assert_allclose(got.value, want.value, rtol=1e-12, atol=0)

    def test_gradients_match_unfused_graph(self):
        lstm, xs = _lstm_and_inputs(12)
        grads = []
        for step in (lstm.step, lambda x, st: lstm_step_unfused(lstm, x, st)):
            for p in lstm.parameters():
                p.grad = None
            state = lstm.initial_state(3)
            loss = None
            for x in xs:
                h, state = step(x, state)
                term = T.tsum(h * h) + T.tsum(state[1])
                loss = term if loss is None else loss + term
            loss.backward()
            grads.append([p.grad.copy() for p in lstm.parameters()])
        for got, want in zip(*grads):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13)

    def test_adds_two_graph_nodes(self):
        lstm, xs = _lstm_and_inputs(13)
        h0, c0 = lstm.initial_state(3)
        before = graph_nodes(xs[0], h0, c0, *lstm.parameters())
        h, (_, c) = lstm.step(xs[0], (h0, c0))
        assert graph_nodes(h, c) - before == 2

    def test_saturated_gates_stay_finite(self):
        """Gate pre-activations of ±1000 neither overflow nor warn, forward
        or backward."""
        lstm = LSTM(1, 2, np.random.default_rng(0))
        lstm.W_x.value[:] = np.array([[1000.0, -1000.0] * 4])
        x = T.constant(np.array([[1.0], [-1.0]]))
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            h, (_, c) = lstm.step(x, lstm.initial_state(2))
            T.tsum(h + c).backward()
        for t in (h, c):
            assert np.all(np.isfinite(t.value))
        for p in lstm.parameters():
            assert np.all(np.isfinite(p.grad))


class TestFusedOutputLayer:
    def setup_method(self):
        rng = np.random.default_rng(21)
        self.out = OutputLayer(4, 6, rng)
        self.h = T.param(rng.normal(size=(5, 4)), "h")
        self.mask = (rng.random((5, 6)) > 0.3).astype(float)
        self.mask[:, 2:] = 1.0  # the identity block: always unmasked
        self.mask[1, :2] = 0.0  # a row whose count block is fully masked
        self.mask[3, :2] = 0.0
        self.g = rng.normal(size=(5, 6))  # dL/dλ

    def _forward_backward(self, layer, mask):
        for p in [self.h] + self.out.parameters():
            p.grad = None
        lam = layer(self.h, mask)
        T.tsum(lam * T.constant(self.g)).backward()
        return lam.value, [p.grad.copy() for p in [self.h] + self.out.parameters()]

    @pytest.mark.parametrize("masked", [False, True])
    def test_values_and_gradients_match_unfused_graph(self, masked):
        mask = self.mask if masked else None
        got, got_grads = self._forward_backward(
            self.out, self.mask if masked else np.ones_like(self.mask))
        want, want_grads = self._forward_backward(
            lambda h, m: output_unfused(self.out, h, m), mask)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        for a, b in zip(got_grads, want_grads):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-13)

    def test_fully_masked_count_block_keeps_identity_weights(self):
        lam = self.out(self.h, self.mask).value
        for row in (1, 3):
            np.testing.assert_array_equal(lam[row, :2], 0.0)
            assert lam[row, 2:].sum() == pytest.approx(1.0, abs=1e-12)

    def test_adds_one_graph_node(self):
        before = graph_nodes(self.h, *self.out.parameters())
        assert graph_nodes(self.out(self.h, self.mask)) - before == 1

    def test_extreme_logits_stay_finite(self):
        """Logits of ±1000, with the largest one masked, neither overflow nor
        warn, forward or backward."""
        out = OutputLayer(1, 4, np.random.default_rng(0))
        out.W.value[:] = np.array([[1000.0, -1000.0, 1000.0, -1000.0]])
        h = T.param(np.array([[1.0], [-1.0]]), "h")
        mask = np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0]])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            lam = out(h, mask)
            T.tsum(T.log(T.take_per_row(lam, np.array([1, 1])))).backward()
        assert np.all(np.isfinite(lam.value))
        np.testing.assert_allclose(lam.value.sum(axis=1), 1.0)
        assert np.all(lam.value[mask == 0.0] == 0.0)
        for p in [h] + out.parameters():
            assert np.all(np.isfinite(p.grad))


class TestBlockDropout:
    def test_batched_mask_matches_vector_semantics(self):
        rate, n_count, width = 0.5, 2, 5
        mask = block_dropout_mask(1000, n_count, width, rate, np.random.default_rng(7),
                                  training=True)
        dropped = mask[:, 0] == 0.0
        assert 0.44 <= dropped.mean() <= 0.56
        np.testing.assert_array_equal(mask[dropped][:, :n_count], 0.0)
        np.testing.assert_array_equal(mask[dropped][:, n_count:], 1.0)
        np.testing.assert_array_equal(mask[~dropped], 1.0)

    def test_batched_mask_eval_or_rate_zero_all_ones_no_rng(self):
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        np.testing.assert_array_equal(
            block_dropout_mask(10, 2, 4, 0.0, rng, training=True), 1.0)
        np.testing.assert_array_equal(
            block_dropout_mask(10, 2, 4, 0.9, rng, training=False), 1.0)
        assert rng.bit_generator.state == before
