import numpy as np
import pytest
from oracles import whole_batch_draw

from polaron1d import paths as P

SEED = 47111


def generator(index):
    """A fresh numpy Generator on the key [SEED, index]."""
    return np.random.default_rng([SEED, index])


class TestTimeGrid:
    def test_dt(self):
        g = P.TimeGrid(2.0, 8)
        assert g.dt * g.n_steps == pytest.approx(g.beta, abs=1e-18)
        assert g.times[0] == 0.0 and g.times[-1] == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            P.TimeGrid(0.0, 4)
        with pytest.raises(ValueError):
            P.TimeGrid(1.0, 0)

    @pytest.mark.parametrize("beta", [np.nan, np.inf])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="beta must be finite"):
            P.TimeGrid(beta, 4)


class TestSampleBrownian:
    def test_start_respected(self):
        x0 = np.array([[0.1, -0.2], [0.3, 0.4]])
        path = P.sample_brownian(x0, P.TimeGrid(1.0, 16), generator(0))
        assert np.array_equal(path.states[:, 0, :], x0)

    def test_increment_identity_exact(self):
        path = P.sample_brownian(np.zeros((5, 3)), P.TimeGrid(1.0, 20), generator(1))
        inc = path.increments
        assert np.array_equal(path.states[:, 1:] - path.states[:, :-1], inc)

    def test_increments_computed_once_per_sample(self):
        # Ito sums at several horizons read one array
        path = P.sample_brownian(np.zeros((5, 2)), P.TimeGrid(1.0, 20), generator(1))
        assert path.increments is path.increments
        f = np.ones((5, 12, 2))
        steps = path.states[:, 1:13] - path.states[:, :12]
        assert np.array_equal(P.ito_integral(f, path), np.sum(f * steps, axis=(1, 2)))

    def test_reproducible_and_stream_dependent(self):
        grid = P.TimeGrid(1.5, 32)
        a = P.sample_brownian(np.zeros((4, 2)), grid, generator(3))
        b = P.sample_brownian(np.zeros((4, 2)), grid, generator(3))
        c = P.sample_brownian(np.zeros((4, 2)), grid, generator(4))
        assert np.array_equal(a.states, b.states)
        assert not np.array_equal(a.states, c.states)

    @pytest.mark.parametrize("rows_per_slice", [1, 7, 64],
                             ids=["one-path", "non-divisor", "whole-batch"])
    def test_slices_draw_the_whole_batch_bitwise(self, monkeypatch, rows_per_slice):
        # the generator runs on in path order across slices: every path
        # is the one-call draw's path, bit for bit
        grid = P.TimeGrid(1.0, 20)
        x0 = generator(10).uniform(-0.5, 0.5, (40, 2))
        whole = whole_batch_draw(x0, grid, generator(11)).states
        monkeypatch.setattr(P, "_SLICE_BUDGET_BYTES", rows_per_slice * 8 * 21 * 2)
        got = P.sample_brownian(x0, grid, generator(11))
        assert got.rows is None
        assert got.states.view(np.int64).tolist() == whole.view(np.int64).tolist()

    @pytest.mark.parametrize("rows_per_slice", [1, 7, 64],
                             ids=["one-path", "non-divisor", "whole-batch"])
    def test_killed_draw_keeps_whole_batch_paths_bitwise(self, monkeypatch,
                                                          rows_per_slice):
        grid = P.TimeGrid(1.0, 20)
        x0 = generator(10).uniform(-0.5, 0.5, (40, 2))
        whole = whole_batch_draw(x0, grid, generator(11)).states
        monkeypatch.setattr(P, "_SLICE_BUDGET_BYTES", rows_per_slice * 8 * 21 * 2)

        def keep(states):
            return np.abs(states).max(axis=(1, 2)) < 1.0

        got = P.sample_brownian(x0, grid, generator(11), keep=keep)
        want = np.flatnonzero(keep(whole))
        assert 0 < want.size < len(x0)
        assert got.rows.tolist() == want.tolist()
        assert got.states.view(np.int64).tolist() == whole[want].view(np.int64).tolist()

    def test_empty_batch(self):
        path = P.sample_brownian(np.zeros((0, 3)), P.TimeGrid(1.0, 8), generator(12))
        assert path.states.shape == (0, 9, 3) and path.rows is None

    def test_terminal_moments(self):
        n, beta = 10**5, 2.0
        path = P.sample_brownian(np.zeros((n, 1)), P.TimeGrid(beta, 64), generator(5))
        disp = path.states[:, -1, 0] - path.states[:, 0, 0]
        assert abs(disp.mean()) < 3 * np.sqrt(beta / n)
        # sample variance of N(0, beta): sd of the estimate is beta*sqrt(2/n)
        assert abs(disp.var() - beta) < 3 * beta * np.sqrt(2.0 / n)


class TestRefineMidpoint:
    def test_endpoints_and_grid(self):
        path = P.sample_brownian(np.zeros((6, 2)), P.TimeGrid(1.0, 10), generator(6))
        fine = P.refine_midpoint(path, generator(7))
        assert fine.grid.n_steps == 20
        assert fine.grid.beta == path.grid.beta
        assert np.array_equal(fine.states[:, 0::2], path.states)

    def test_refined_increment_variance(self):
        n = 20000
        path = P.sample_brownian(np.zeros((n, 1)), P.TimeGrid(1.0, 4), generator(8))
        fine = P.refine_midpoint(path, generator(9))
        inc = fine.increments[:, 0, 0]  # first half-step, var should be dt/2 = 0.125
        want = 0.125
        assert abs(inc.var() - want) < 3 * want * np.sqrt(2.0 / n)


class TestItoIntegral:
    def test_integral_of_one(self):
        path = P.sample_brownian(np.zeros((7, 2)), P.TimeGrid(1.0, 12), generator(10))
        f = np.zeros((7, 12, 2))
        f[..., 0] = 1.0
        val = P.ito_integral(f, path)
        want = path.states[:, -1, 0] - path.states[:, 0, 0]
        assert np.allclose(val, want, atol=1e-14)

    def test_abel_summation_identity(self):
        # sum_j t_j dx_j = beta x_beta - sum_j x_{j+1} dt, exactly at the
        # discrete level (summation by parts with the matching endpoint).
        path = P.sample_brownian(np.zeros((9, 1)), P.TimeGrid(2.0, 40), generator(11))
        grid = path.grid
        t_left = grid.times[:-1]
        lhs = P.ito_integral(np.tile(t_left, (9, 1))[..., None], path)
        rhs = grid.beta * path.states[:, -1, 0] - grid.dt * path.states[:, 1:, 0].sum(axis=1)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_ito_isometry(self):
        n = 10**5
        grid = P.TimeGrid(1.0, 32)
        path = P.sample_brownian(np.zeros((n, 1)), grid, generator(12))
        f = np.exp(-grid.times[:-1])
        vals = P.ito_integral(np.tile(f, (n, 1))[..., None], path)
        target = float(np.sum(f**2) * grid.dt)
        sigma = target * np.sqrt(2.0 / n)  # var of squared Gaussian mean
        assert abs(np.mean(vals**2) - target) < 3 * sigma

    def test_shorter_integrand_stops_at_its_horizon(self):
        path = P.sample_brownian(np.zeros((4, 2)), P.TimeGrid(1.0, 16), generator(15))
        f = np.random.default_rng(SEED).normal(size=(4, 16, 2))
        prefix = P.PathSample(states=path.states[:, :11], grid=P.TimeGrid(10 / 16, 10))
        assert np.array_equal(P.ito_integral(f[:, :10], path),
                              P.ito_integral(f[:, :10], prefix))
        one = np.zeros_like(f[:, :10])
        one[..., 1] = f[:, :10, 1]
        assert np.array_equal(P.ito_integral(one, path), P.ito_integral(one, prefix))

    def test_shape_mismatch(self):
        path = P.sample_brownian(np.zeros((3, 1)), P.TimeGrid(1.0, 8), generator(13))
        with pytest.raises(ValueError):
            P.ito_integral(np.ones((3, 9, 1)), path)


class TestGirsanov:
    def test_log_weight_is_the_ito_sum_minus_the_quadratic_term(self):
        path = P.sample_brownian(np.zeros((6, 2)), P.TimeGrid(1.0, 8), generator(17))
        drift = np.sin(path.states[:, :-1, :])
        want = (np.sum(drift * path.increments, axis=(1, 2))
                - 0.5 * path.grid.dt * np.sum(drift**2, axis=(1, 2)))
        got = P.girsanov_log_weight(drift, path)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        with pytest.raises(ValueError):
            P.girsanov_log_weight(np.zeros((6, 9, 2)), path)

    def test_zero_drift(self):
        path = P.sample_brownian(np.zeros((5, 2)), P.TimeGrid(1.0, 8), generator(14))
        w = P.girsanov_weight(np.zeros((5, 8, 2)), path)
        assert np.array_equal(w, np.ones(5))

    def test_martingale_mean_one(self):
        n = 10**5
        grid = P.TimeGrid(1.0, 32)
        path = P.sample_brownian(np.zeros((n, 1)), grid, generator(15))
        # bounded path-dependent drift, left endpoints
        drift = 0.5 * np.sin(path.states[:, :-1, :])
        w = P.girsanov_weight(drift, path)
        # int phi^2 dt <= 0.25, so Var(w) <= e^{0.25} - 1
        sigma = np.sqrt((np.exp(0.25) - 1) / n)
        assert abs(np.mean(w) - 1.0) < 3 * sigma

    def test_cauchy_schwarz_bound(self):
        # E[e^{int phi dx}] <= (E[e^{2 int phi^2 dt}])^{1/2} on paired
        # sample estimates, with 3 sigma slack on each side.
        n = 10**5
        grid = P.TimeGrid(1.0, 32)
        path = P.sample_brownian(np.zeros((n, 1)), grid, generator(16))
        drift = 0.7 * np.cos(path.states[:, :-1, :])
        dt = grid.dt
        y = np.sum(drift * path.increments, axis=(1, 2))
        lhs_samples = np.exp(y)
        rhs_samples = np.exp(2 * dt * np.sum(drift**2, axis=(1, 2)))
        lhs = np.mean(lhs_samples)
        rhs = np.sqrt(np.mean(rhs_samples))
        slack = 3 * (np.std(lhs_samples) / np.sqrt(n) + np.std(rhs_samples) / np.sqrt(n))
        assert lhs <= rhs + slack
