"""Tests for the MLP correction networks (Encog substitute)."""

import numpy as np
import pytest

from repro.estimation.nn import MLP, MLPConfig, MLPStack, fit_linear


def make_data(fn, n=200, n_inputs=11, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, n_inputs))
    y = np.apply_along_axis(fn, 1, x)
    return x, y


class TestTraining:
    def test_fits_linear_function(self):
        x, y = make_data(lambda v: 2.0 * v[0] - 0.5 * v[3] + 1.0)
        net = MLP(MLPConfig(epochs=300, seed=1)).fit(x, y)
        pred = net.predict(x)
        assert np.mean((pred - y) ** 2) < 0.01 * np.var(y)

    def test_fits_polynomial(self):
        """The paper cites universal approximation incl. polynomials."""
        x, y = make_data(lambda v: v[0] ** 2 + 0.5 * v[1] * v[2])
        net = MLP(MLPConfig(epochs=600, seed=2)).fit(x, y)
        pred = net.predict(x)
        assert np.mean((pred - y) ** 2) < 0.15 * np.var(y)

    def test_loss_decreases(self):
        x, y = make_data(lambda v: np.tanh(v[0]) + v[1])
        net = MLP(MLPConfig(epochs=200, seed=3)).fit(x, y)
        assert net.loss_history[-1] < net.loss_history[0]

    def test_deterministic_given_seed(self):
        x, y = make_data(lambda v: v[0] + v[1])
        p1 = MLP(MLPConfig(epochs=100, seed=4)).fit(x, y).predict(x)
        p2 = MLP(MLPConfig(epochs=100, seed=4)).fit(x, y).predict(x)
        np.testing.assert_array_equal(p1, p2)

    def test_architecture_11_6_1(self):
        net = MLP()
        assert net.w1.shape == (6, 11)
        assert net.w2.shape == (1, 6)

    def test_rejects_wrong_feature_count(self):
        net = MLP()
        with pytest.raises(ValueError):
            net.fit(np.zeros((10, 5)), np.zeros(10))

    def test_constant_target_handled(self):
        x, _ = make_data(lambda v: 0.0)
        y = np.full(x.shape[0], 3.0)
        net = MLP(MLPConfig(epochs=50, seed=5)).fit(x, y)
        assert net.predict(x[:5]) == pytest.approx(np.full(5, 3.0), abs=0.2)

    def test_predict_single_row(self):
        x, y = make_data(lambda v: v[0])
        net = MLP(MLPConfig(epochs=100, seed=6)).fit(x, y)
        assert net.predict(x[0]).shape == (1,)

    def test_generalizes_to_held_out(self):
        x, y = make_data(lambda v: v[0] - v[5], n=400, seed=7)
        net = MLP(MLPConfig(epochs=300, seed=7)).fit(x[:300], y[:300])
        pred = net.predict(x[300:])
        assert np.mean((pred - y[300:]) ** 2) < 0.05 * np.var(y)


WIDTH_ERROR = r"11 features, got shape \(1, 10\)"


def reference_predict(net, x):
    """One net's forward in its defining operation order.

    ``(x - mean) / std``; ``x0*w0``, then ``+ xj*wj`` left to right, then
    ``+ b``; clip to +-40, ``exp``, ``1/(1+e)``; the same accumulation for
    the output, then ``* y_std + y_mean``.
    """
    def affine(v, w, b):
        acc = v[:, 0, None] * w[:, 0]
        for j in range(1, w.shape[1]):
            acc = acc + v[:, j, None] * w[:, j]
        return acc + b

    xs = (np.atleast_2d(x) - net.x_mean) / net.x_std
    z1 = affine(xs, net.w1, net.b1)
    h = 1.0 / (1.0 + np.exp(-np.clip(z1, -40, 40)))
    return affine(h, net.w2, net.b2)[:, 0] * net.y_std + net.y_mean


def trained_nets():
    fns = [lambda v: v[0] - v[5], lambda v: v[1] * v[2], lambda v: v[3] ** 2]
    return [
        MLP(MLPConfig(epochs=60, seed=k)).fit(*make_data(fn, seed=k))
        for k, fn in enumerate(fns)
    ]


def mixed_rows(n, seed=0):
    """Rows from ordinary magnitudes up to ones that saturate the clip."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 11)) * np.logspace(-1, 3, n)[:, None]


class TestStackedForward:
    CLAMPS = [(0.01, 0.5), (0.0, 0.4), (0.0, 0.3)]

    @pytest.mark.parametrize("n", [1, 7, 32, 1024])
    def test_stack_equals_each_single_net(self, n):
        nets = trained_nets()
        x = mixed_rows(n, seed=n)
        stacked = MLPStack(nets, [(-np.inf, np.inf)] * 3).predict(x)
        for k, net in enumerate(nets):
            want = reference_predict(net, x)
            assert stacked[k].tobytes() == want.tobytes()
            assert net.predict(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 32, 1024])
    def test_clamps_match_scalar_clamps(self, n):
        nets = trained_nets()
        for net in nets:  # widen the outputs so every clamp engages
            net.y_std *= 20.0
        x = mixed_rows(n, seed=n)
        got = MLPStack(nets, self.CLAMPS).predict(x)
        for k, (net, (lo, hi)) in enumerate(zip(nets, self.CLAMPS)):
            want = [min(max(float(v), lo), hi)
                    for v in reference_predict(net, x)]
            assert got[k].tobytes() == np.array(want).tobytes()
        if n == 1024:
            for k, (lo, hi) in enumerate(self.CLAMPS):
                assert (got[k] == lo).any() and (got[k] == hi).any()

    def test_rows_saturate_the_sigmoid_clip(self):
        nets = trained_nets()
        x = mixed_rows(1024)
        net = nets[0]
        z1 = (x - net.x_mean) / net.x_std @ net.w1.T + net.b1
        assert (np.abs(z1) > 40).any() and (np.abs(z1) < 40).any()

    def test_row_independent_of_its_batch(self):
        nets = trained_nets()
        stack = MLPStack(nets, self.CLAMPS)
        x = mixed_rows(64, seed=3)
        batch = stack.predict(x)
        order = np.random.default_rng(1).permutation(len(x))
        shuffled = stack.predict(x[order])
        for i in range(len(x)):
            alone = stack.predict(x[i])
            assert alone[:, 0].tobytes() == batch[:, i].tobytes()
        assert shuffled.tobytes() == batch[:, order].tobytes()

    def test_predict_rejects_wrong_feature_count(self):
        net = MLP()
        with pytest.raises(ValueError, match=WIDTH_ERROR):
            net.predict(np.zeros(10))
        with pytest.raises(ValueError, match="11 features"):
            net.predict(np.zeros((3, 12)))


def special_rows(n, seed=0):
    """``mixed_rows`` with +-inf and NaN features, one to all per row."""
    x = mixed_rows(n, seed)
    rng = np.random.default_rng(seed)
    for i, row in enumerate(x):
        picks = rng.choice(11, size=1 + i % 11, replace=False)
        row[picks] = rng.choice([np.inf, -np.inf, np.nan], size=len(picks))
    return x


def same_values(got, want) -> bool:
    """Bit-equal where ``want`` is a number; NaN exactly where it is NaN
    (a NaN's sign and payload depend on operand order, not on value)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return bool((np.isnan(got) == nan).all()
                and got[~nan].tobytes() == want[~nan].tobytes())


class TestRowForward:
    """``MLPStack.predict_row`` gives ``predict``'s bits for one row."""

    CLAMPS = TestStackedForward.CLAMPS

    def rows_match(self, stack, x):
        block = stack.predict(x)
        for i, row in enumerate(x.tolist()):
            got = stack.predict_row(row)
            assert all(type(v) is float for v in got)
            assert np.array(got).tobytes() == block[:, i].tobytes(), i
        return block

    def test_matches_block_on_rows_saturating_the_clip(self):
        self.rows_match(MLPStack(trained_nets(), self.CLAMPS),
                        mixed_rows(1024))

    def test_matches_block_with_every_clamp_hit(self):
        nets = trained_nets()
        for net in nets:
            net.y_std *= 20.0
        block = self.rows_match(MLPStack(nets, self.CLAMPS),
                                mixed_rows(1024, seed=5))
        for k, (lo, hi) in enumerate(self.CLAMPS):
            assert (block[k] == lo).any() and (block[k] == hi).any()

    def test_matches_block_with_infinite_clamps(self):
        nets = trained_nets()
        stack = MLPStack(nets, [(-np.inf, np.inf)] * 3)
        block = self.rows_match(stack, mixed_rows(256, seed=9))
        for k, net in enumerate(nets):
            assert net.predict(mixed_rows(256, seed=9)).tobytes() == (
                block[k].tobytes())

    def test_inf_and_nan_rows_give_the_block_values(self):
        stack = MLPStack(trained_nets(), self.CLAMPS)
        x = special_rows(512)
        with np.errstate(invalid="ignore"):
            block = stack.predict(x)
        assert np.isnan(block).any() and not np.isnan(block).all()
        for i, row in enumerate(x.tolist()):
            assert same_values(stack.predict_row(row), block[:, i]), i

    def test_built_once_on_first_use(self):
        stack = MLPStack(trained_nets(), self.CLAMPS)
        assert "predict_row" not in vars(stack)
        stack.predict(mixed_rows(4))
        assert "predict_row" not in vars(stack)
        assert stack.predict_row is stack.predict_row


class TestSerialization:
    def test_roundtrip_identical_predictions(self):
        x, y = make_data(lambda v: v[0] * v[1])
        net = MLP(MLPConfig(epochs=150, seed=8)).fit(x, y)
        restored = MLP.from_dict(net.to_dict())
        np.testing.assert_array_equal(net.predict(x), restored.predict(x))

    def test_dict_is_json_safe(self):
        import json

        net = MLP()
        json.dumps(net.to_dict())


class TestFitLinear:
    def test_recovers_coefficients(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, size=(100, 1))
        y = 3.0 + 2.0 * x[:, 0]
        coef = fit_linear(x, y)
        assert coef[0] == pytest.approx(3.0, abs=1e-6)
        assert coef[1] == pytest.approx(2.0, abs=1e-6)

    def test_multifeature(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(50, 3))
        y = 1.0 + x @ np.array([2.0, -1.0, 0.5])
        coef = fit_linear(x, y)
        np.testing.assert_allclose(coef, [1.0, 2.0, -1.0, 0.5], atol=1e-8)
