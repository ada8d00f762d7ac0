"""Adam updates, gradient clipping, the in-place update against the
out-of-place reference, and gradients against central differences."""

import tracemalloc
import warnings

import numpy as np
import pytest

import mixlm.neural.tensor as T
from mixlm.neural.layers import LSTM, FeedForward, OutputLayer
from mixlm.neural.optim import CLIP_NORM, Adam, OptimError

from helpers import (gradient_check, lstm_step_unfused, mean_all, output_unfused, reference_adam,
                     reference_clip)


def _step_with(params, grads) -> float:
    """Set each parameter's gradient and take one Adam step."""
    opt = Adam(params)
    for p, g in zip(params, grads):
        p.grad = None if g is None else np.array(g, dtype=float)
    return opt.step()


class TestAdamStep:
    def test_first_step_magnitude(self):
        """At t=1 the bias-corrected update is ~lr regardless of |g|."""
        x = T.param(np.array([1.0]), "x")
        _step_with([x], [[0.5]])
        assert abs(1.0 - x.value[0]) == pytest.approx(0.001, rel=1e-4)

    def test_zero_gradient_no_change(self):
        x = T.param(np.array([1.0, -2.0]), "x")
        _step_with([x], [np.zeros(2)])
        np.testing.assert_array_equal(x.value, [1.0, -2.0])

    def test_descends_quadratic_bowl_monotonically(self):
        x = T.param(np.array([1.0]), "x")
        opt = Adam([x])
        values = [x.value[0]]
        for _ in range(50):
            x.grad = 2.0 * x.value
            opt.step()
            values.append(x.value[0])
        diffs = np.diff(values)
        assert np.all(diffs < 0)
        assert values[-1] < values[0]

    def test_updates_in_place(self):
        x = T.param(np.array([1.0, -2.0]), "x")
        opt = Adam([x])
        arrays = (x.value, opt.m[0], opt.v[0])
        x.grad = np.array([0.5, 9.0])
        grad = x.grad
        opt.step()
        assert (x.value, opt.m[0], opt.v[0]) == arrays
        assert x.grad is grad


class TestClipGradients:
    def test_large_norm_scaled_down(self):
        p = T.param(np.zeros(4), "p")
        norm = _step_with([p], [np.full(4, 5.0)])  # norm 10
        assert norm == pytest.approx(10.0)
        assert np.linalg.norm(p.grad) == pytest.approx(5.0)

    def test_small_norm_untouched(self):
        p = T.param(np.zeros(4), "p")
        assert _step_with([p], [np.full(4, 0.5)]) == pytest.approx(1.0)
        np.testing.assert_array_equal(p.grad, 0.5)

    def test_non_finite_gradient_names_parameter(self):
        ok = T.param(np.zeros(2), "ok")
        p = T.param(np.zeros(2), "layer.W")
        with pytest.raises(OptimError, match="layer.W"):
            _step_with([ok, p], [[1.0, 2.0], [1.0, np.nan]])
        with pytest.raises(OptimError, match="layer.W"):
            _step_with([p], [[np.inf, 0.0]])
        np.testing.assert_array_equal(ok.value, 0.0)  # nothing updated

    @pytest.mark.parametrize("grads", [[[1e200, -1e200]], [[1.2e154], [-1.2e154]]],
                             ids=["square-overflows", "sum-overflows"])
    def test_finite_gradients_whose_squares_overflow(self, grads):
        """Finite gradients whose sum of squares overflows are scaled to the
        clipping norm, not to 0, and without a warning."""
        params = [T.param(np.zeros(len(g)), f"p{i}") for i, g in enumerate(grads)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = _step_with(params, grads)
        assert norm == pytest.approx(np.sqrt(2.0) * abs(grads[0][0]), rel=1e-12)
        clipped = np.concatenate([p.grad for p in params])
        assert np.all(np.isfinite(clipped))
        assert abs(np.linalg.norm(clipped) - CLIP_NORM) <= 1e-12
        assert all(np.all(np.isfinite(p.value)) for p in params)

    def test_infinite_gradient_beside_an_overflowing_one_raises(self):
        big, bad = T.param(np.zeros(1), "big"), T.param(np.zeros(2), "bad")
        with pytest.raises(OptimError, match="bad"):
            _step_with([big, bad], [[1e200], [1.0, -np.inf]])

    def test_missing_gradients_skipped(self):
        p = T.param(np.zeros(2), "p")
        assert _step_with([p], [None]) == 0.0
        np.testing.assert_array_equal(p.value, 0.0)
        q = T.param(np.ones(2), "q")
        assert _step_with([p, q], [None, [3.0, 4.0]]) == pytest.approx(5.0)
        np.testing.assert_array_equal(p.value, 0.0)
        assert np.all(q.value < 1.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_norm_matches_squares_in_new_arrays(self, dtype):
        """The norm, squared into the kept buffer, has the bits of the sum of
        ``(g ** 2)`` over float64 copies, with float64 and float32 parameters
        of several shapes, a larger one after a smaller one too."""
        rng = np.random.default_rng(4)
        shapes = [(3, 5), (7,), (40, 30), (2, 2)]
        for trial in range(5):
            grads = [(rng.standard_normal(sh) * 10.0 ** rng.integers(-3, 3)).astype(dtype)
                     for sh in shapes]
            params = [T.param(np.zeros(sh, dtype=dtype), f"p{i}") for i, sh in enumerate(shapes)]
            opt = Adam(params)
            for p, g in zip(params, grads):
                p.grad = g.copy()
            total = 0.0
            for g in grads:
                total += float((g.astype(np.float64, copy=False) ** 2).sum())
            assert opt.step() == float(np.sqrt(total)), trial

    def test_step_allocates_less_than_the_parameter(self):
        """One step on a 100 x 3,005 parameter, the size of an output layer
        over a 3,000-word vocabulary, allocates less than that parameter's
        bytes: the squares of the norm go into a kept buffer."""
        rng = np.random.default_rng(5)
        p = T.param(np.zeros((100, 3005)), "out.W")
        opt = Adam([p])
        p.grad = rng.standard_normal(p.value.shape)
        opt.step()  # any first-call allocation happens here
        p.grad = rng.standard_normal(p.value.shape)
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.value.nbytes, (peak, p.value.nbytes)


class TestAgainstOutOfPlaceReference:
    """``Adam.step`` equals the out-of-place clip and update bit for bit,
    over steps with and without clipping and with a missing gradient, and
    whatever dtypes the parameters that share its scratch buffers have."""

    SHAPES = [(6, 11), (3, 11), (11,), (5, 7), (7,)]

    @pytest.mark.parametrize("dtypes", [(np.float64,) * 5, (np.float32,) * 5,
                                        (np.float32, np.float64) * 2 + (np.float32,)],
                             ids=["float64", "float32", "mixed"])
    def test_bit_identical(self, dtypes):
        rng = np.random.default_rng(17)
        params = [T.param(rng.uniform(-0.1, 0.1, s).astype(dtype), f"p{i}")
                  for i, (s, dtype) in enumerate(zip(self.SHAPES, dtypes))]
        values = [p.value.copy() for p in params]
        m = [np.zeros_like(x) for x in values]
        v = [np.zeros_like(x) for x in values]
        opt = Adam(params, lr=0.01)
        clipped = 0
        for t in range(1, 41):
            scale = 3.0 if t % 3 == 0 else 0.1  # every third step clips
            grads = [(rng.normal(size=s) * scale).astype(dtype)
                     for s, dtype in zip(self.SHAPES, dtypes)]
            if t % 7 == 0:
                grads[t % len(grads)] = None
            for p, g in zip(params, grads):
                p.grad = None if g is None else g.copy()
            norm = opt.step()
            have = [i for i, g in enumerate(grads) if g is not None]
            clipped_grads, want = reference_clip([grads[i] for i in have])
            assert norm == want
            clipped += want > CLIP_NORM
            for i, g in zip(have, clipped_grads):
                values[i], m[i], v[i] = reference_adam(values[i], g, m[i], v[i], t, lr=0.01)
            for i, p in enumerate(params):
                assert p.value.dtype == dtypes[i] and opt.m[i].dtype == dtypes[i]
                np.testing.assert_array_equal(p.value, values[i], err_msg=f"step {t} p{i}")
                np.testing.assert_array_equal(opt.m[i], m[i])
                np.testing.assert_array_equal(opt.v[i], v[i])
                if i in have:
                    np.testing.assert_array_equal(p.grad, clipped_grads[have.index(i)])
        assert 10 <= clipped <= 20


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
        opt = Adam([x])
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
            lam = out(ff(T.constant(x)), np.ones((5, 3)))
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
            lam = out(h, np.ones((2, 2)))
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

        np.testing.assert_allclose(self.fused_loss().value, unfused().value, rtol=1e-12)
        grads = []
        for loss_fn in (self.fused_loss, unfused):
            for p in self.params():
                p.grad = None
            loss_fn().backward()
            grads.append([p.grad.copy() for p in self.params()])
        for p, got, want in zip(self.params(), *grads):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12, err_msg=p.name)
