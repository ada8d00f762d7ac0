"""Adam updates, gradient clipping, and gradients against central differences."""

import numpy as np
import pytest

import mixlm.neural.tensor as T
from mixlm.neural.layers import LSTM, FeedForward, OutputLayer
from mixlm.neural.optim import Adam, OptimError, adam_step, clip_gradients

from helpers import gradient_check, lstm_step_unfused, mean_all, output_unfused


class TestAdamStep:
    def test_first_step_magnitude(self):
        """At t=1 the bias-corrected update is ~lr regardless of |g|."""
        v0 = np.array([1.0])
        new, m, v = adam_step(v0, np.array([0.5]), np.zeros(1), np.zeros(1), t=1)
        assert abs(v0[0] - new[0]) == pytest.approx(0.001, rel=1e-4)

    def test_zero_gradient_no_change(self):
        v0 = np.array([1.0, -2.0])
        new, _, _ = adam_step(v0, np.zeros(2), np.zeros(2), np.zeros(2), t=1)
        np.testing.assert_array_equal(new, v0)

    def test_descends_quadratic_bowl_monotonically(self):
        x = np.array([1.0])
        m = np.zeros(1)
        v = np.zeros(1)
        values = [x[0]]
        for t in range(1, 51):
            x, m, v = adam_step(x, 2.0 * x, m, v, t)
            values.append(x[0])
        diffs = np.diff(values)
        assert np.all(diffs < 0)
        assert values[-1] < values[0]

    def test_step_count_validated(self):
        with pytest.raises(OptimError):
            adam_step(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1), t=0)


class TestClipGradients:
    def test_large_norm_scaled_down(self):
        p = T.param(np.zeros(4), "p")
        p.grad = np.full(4, 5.0)  # norm 10
        norm = clip_gradients([p], max_norm=5.0)
        assert norm == pytest.approx(10.0)
        assert np.linalg.norm(p.grad) == pytest.approx(5.0)

    def test_small_norm_untouched(self):
        p = T.param(np.zeros(4), "p")
        p.grad = np.full(4, 0.5)
        before = p.grad.copy()
        clip_gradients([p], max_norm=5.0)
        np.testing.assert_array_equal(p.grad, before)

    def test_non_finite_gradient_names_parameter(self):
        p = T.param(np.zeros(2), "layer.W")
        p.grad = np.array([1.0, np.nan])
        with pytest.raises(OptimError, match="layer.W"):
            clip_gradients([p])

    def test_missing_gradients_skipped(self):
        p = T.param(np.zeros(2), "p")
        assert clip_gradients([p]) == 0.0


class TestAdamOnTensors:
    def test_minimizes_quadratic(self):
        x = T.param(np.array([3.0]), "x")
        opt = Adam([x], lr=0.05)
        for _ in range(400):
            opt.zero_grad()
            loss = T.tsum(x * x)
            loss.backward()
            opt.step()
        assert abs(x.value[0]) < 0.05

    def test_zero_grad_resets(self):
        x = T.param(np.array([1.0]), "x")
        opt = Adam([x])
        T.tsum(x * x).backward()
        assert x.grad is not None
        opt.zero_grad()
        assert x.grad is None

    def test_step_returns_preclip_norm(self):
        x = T.param(np.array([1.0]), "x")
        opt = Adam([x], clip_norm=5.0)
        x.grad = np.array([20.0])
        norm = opt.step()
        assert norm == pytest.approx(20.0)


class TestGradientCheck:
    def test_feed_forward_network(self):
        rng = np.random.default_rng(0)
        ff = FeedForward(4, 6, rng)
        out = OutputLayer(6, 3, rng)
        x = np.random.default_rng(1).normal(size=(5, 4))
        targets = np.array([0, 2, 1, 0, 1])

        def loss():
            lam = out(ff(T.constant(x)))
            return mean_all(-T.log(T.take_per_row(lam, targets)))

        err = gradient_check(loss, ff.parameters() + out.parameters())
        assert err < 1e-4

    def test_lstm_three_steps(self):
        rng = np.random.default_rng(2)
        lstm = LSTM(3, 4, rng)
        out = OutputLayer(4, 2, rng)
        xs = np.random.default_rng(3).normal(size=(3, 2, 3))
        targets = np.array([1, 0])

        def loss():
            state = lstm.initial_state(2)
            h = None
            for t in range(3):
                h, state = lstm.step(T.constant(xs[t]), state)
            lam = out(h)
            return mean_all(-T.log(T.take_per_row(lam, targets)))

        err = gradient_check(loss, lstm.parameters() + out.parameters())
        assert err < 1e-4

    def test_masked_output_gradients(self):
        rng = np.random.default_rng(4)
        out = OutputLayer(3, 4, rng)
        x = np.random.default_rng(5).normal(size=(4, 3))
        mask = np.array([[1.0, 1.0, 0.0, 1.0]] * 4)
        targets = np.array([0, 1, 3, 0])

        def loss():
            lam = out(T.constant(x), mask=mask)
            return mean_all(-T.log(T.take_per_row(lam, targets)))

        assert gradient_check(loss, out.parameters()) < 1e-4

    def test_degenerate_no_parameters(self):
        assert gradient_check(lambda: T.constant(np.array(1.5)), []) == 0.0


class TestHybridGradients:
    """A three-step LSTM hybrid shaped like the benchmark's: count features
    beside previous-word embeddings reached through ``gather_rows``, the batch
    shrinking through ``gather_rows`` on h and c, and a masked output whose
    count block is fully masked in some rows, as block dropout does."""

    N, J, F = 2, 5, 2  # count columns, identity block, feature width
    LENGTHS = np.array([3, 3, 2, 1])

    def setup_method(self):
        rng = np.random.default_rng(31)
        N, J, F, B = self.N, self.J, self.F, len(self.LENGTHS)
        self.lstm = LSTM(F + 3, 4, rng)
        self.out = OutputLayer(4, N + J, rng)
        self.emb = T.param(rng.uniform(-0.5, 0.5, (J + 1, 3)), "emb")
        self.h0 = T.param(rng.normal(size=(B, 4)) * 0.5, "h0")
        self.c0 = T.param(rng.normal(size=(B, 4)) * 0.5, "c0")
        steps = int(self.LENGTHS[0])
        self.X = rng.normal(size=(steps, B, F))
        self.prev = rng.integers(0, J + 1, (steps, B))
        self.prev[1, :] = 2  # repeated rows of the embedding
        self.words = rng.integers(0, J, (steps, B))
        self.D = rng.uniform(0.05, 1.0, (steps, B, N))
        self.mask = np.ones((steps, B, N + J))
        self.mask[0, 1, :N] = 0.0
        self.mask[1, 0, :N] = 0.0
        self.mask[2, :, 1] = 0.0

    def params(self):
        return [self.emb, self.h0, self.c0] + self.lstm.parameters() + self.out.parameters()

    def loss(self, step, output):
        N = self.N
        h, c = self.h0, self.c0
        total = None
        for t in range(int(self.LENGTHS[0])):
            b = int((self.LENGTHS > t).sum())
            if b < h.value.shape[0]:
                h, c = T.gather_rows(h, np.arange(b)), T.gather_rows(c, np.arange(b))
            x = T.concat_cols([T.constant(self.X[t, :b]), T.gather_rows(self.emb, self.prev[t, :b])])
            h, (_, c) = step(x, (h, c))
            lam = output(h, self.mask[t, :b])
            p = (T.tsum(T.slice_cols(lam, 0, N) * T.constant(self.D[t, :b]), axis=1, keepdims=True)
                 + T.take_per_row(lam, N + self.words[t, :b]))
            lp = T.tsum(T.log(p))
            total = lp if total is None else total + lp
        return -(total / float(self.LENGTHS.sum()))

    def fused_loss(self):
        return self.loss(self.lstm.step, self.out)

    def test_central_differences(self):
        assert gradient_check(self.fused_loss, self.params(), eps=1e-6) < 1e-6

    def test_matches_unfused_graph(self):
        def unfused():
            return self.loss(lambda x, st: lstm_step_unfused(self.lstm, x, st),
                             lambda h, m: output_unfused(self.out, h, m))

        np.testing.assert_allclose(self.fused_loss().item(), unfused().item(), rtol=1e-12)
        grads = []
        for loss_fn in (self.fused_loss, unfused):
            for p in self.params():
                p.grad = None
            loss_fn().backward()
            grads.append([p.grad.copy() for p in self.params()])
        for p, got, want in zip(self.params(), *grads):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12, err_msg=p.name)
