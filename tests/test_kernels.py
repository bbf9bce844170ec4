import numpy as np
import pytest

from polaron1d import kernels as K
from polaron1d.kernels import ModelParams

import oracles

SEED = 20260815
PARAMS = ModelParams(alpha=1.0, N=1, L=1.0, beta=2.0)

# Frozen closed-form values (independently recomputed from the image sums).
G_AT_0 = 1.6424154040517185
DEI_AT_L1 = 4.486233468868429  # = 4 + 2 exp(-sqrt(2))


def interior_grid(n=1000, L=1.0):
    # Even count so the kinks at 0 and +-L are never sampled exactly.
    return np.linspace(-0.995 * L, 0.995 * L, n)


class TestReduceToCell:
    def test_range_and_periodicity(self):
        rng = np.random.default_rng(SEED)
        x = rng.uniform(-40, 40, size=500)
        for L in (1.0, 0.7, 2.3):
            xh = K.reduce_to_cell(x, L)
            assert np.all(xh >= -L) and np.all(xh < L)
            assert np.allclose(K.reduce_to_cell(x + 2 * L, L), xh, atol=1e-12)

    def test_identity_on_cell(self):
        x = np.linspace(-0.999, 0.998, 57)
        assert np.allclose(K.reduce_to_cell(x, 1.0), x, atol=0)


class TestEvalG:
    def test_pinned_value_at_zero(self):
        assert abs(float(K.eval_g(0.0)) - G_AT_0) < 1e-14
        # coarse published approximation of the same number
        assert abs(float(K.eval_g(0.0)) - 1.642414) < 5e-6

    def test_matches_image_sum(self):
        x = interior_grid(400)
        assert np.max(np.abs(K.eval_g(x) - oracles.brute_g(x))) < 1e-13

    def test_even_and_periodic(self):
        rng = np.random.default_rng(SEED + 1)
        x = rng.uniform(-3, 3, size=200)
        assert np.allclose(K.eval_g(x), K.eval_g(-x), atol=1e-13)
        assert np.allclose(K.eval_g(x), K.eval_g(x + 2.0), atol=1e-13)

    def test_series_converges_to_closed_form(self):
        x = interior_grid(1000)
        err = np.max(np.abs(K.g_series(x, 1.0, 5000) - K.eval_g(x)))
        assert err < 1e-6

    def test_other_box_sizes(self):
        for L in (0.5, 2.0, 3.7):
            x = np.linspace(-0.99 * L, 0.99 * L, 101)
            assert np.max(np.abs(K.eval_g(x, L) - oracles.brute_g(x, L))) < 1e-12


class TestEvalDg:
    def test_matches_image_sum(self):
        x = interior_grid(400)
        assert np.max(np.abs(K.eval_dg(x) - oracles.brute_dg(x))) < 1e-12

    def test_is_derivative_of_g(self):
        x = np.linspace(0.05, 0.95, 31)
        h = 1e-6
        fd = (K.eval_g(x + h) - K.eval_g(x - h)) / (2 * h)
        assert np.max(np.abs(fd - K.eval_dg(x))) < 1e-8

    def test_snaps_only_the_exact_wall(self):
        # next to the wall g' keeps its one-sided limits -+sqrt(2); only
        # the wall itself (reduced to -L) takes the jump midpoint 0
        near = np.array([1 - 1e-7, -(1 - 1e-7)])
        np.testing.assert_allclose(K.eval_dg(near), [np.sqrt(2), -np.sqrt(2)],
                                   rtol=0, atol=1e-6)
        assert np.array_equal(K.eval_dg(np.array([1.0, -1.0, 3.0])), np.zeros(3))


class TestPeriodL:
    """g sums the images at every shift n L, so g and g' have period L."""

    @pytest.mark.parametrize("L", [0.5, 1.0, 2.3])
    def test_g_and_dg_repeat_after_L(self, L):
        x = np.random.default_rng(SEED + 2).uniform(-3 * L, 3 * L, size=300)
        # g' jumps at the multiples of L
        x = x[np.abs(x / L - np.round(x / L)) > 1e-6]
        for shift in (L, -L):
            np.testing.assert_allclose(K.eval_g(x + shift, L), K.eval_g(x, L),
                                       rtol=1e-12)
            np.testing.assert_allclose(K.eval_dg(x + shift, L), K.eval_dg(x, L),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("L", [0.5, 1.0, 2.3, 400.0])
    def test_dg_vanishes_at_half_period(self, L):
        # odd with period L: g'(L/2) = -g'(-L/2) = -g'(L/2)
        assert np.all(np.abs(K.eval_dg(np.array([0.5, -0.5, 1.5]) * L, L)) <= 1e-15)


class TestGaussianPeriodization:
    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01, 1e-4])
    def test_matches_image_sum(self, eps):
        x = np.linspace(-1.0, 1.0, 81)
        a = K.eval_K_eps(x, eps)
        b = oracles.brute_gaussian_periodization(x, eps)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_rejects_zero_eps(self):
        with pytest.raises(ValueError):
            K.eval_K_eps(0.3, 0.0)


class TestEvalPhi:
    def test_zero_eps_closed_form(self):
        rng = np.random.default_rng(SEED + 3)
        x = rng.uniform(-1, 1, size=50)
        t = rng.uniform(0, 3, size=50)
        want = 0.5 * PARAMS.alpha * K.eval_g(x) * np.exp(-t)
        assert np.max(np.abs(K.eval_phi(x, t, 0.0, PARAMS) - want)) < 1e-12

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.02])
    def test_uniform_bound(self, eps):
        x = np.linspace(-1, 1, 501)
        sup = np.max(np.abs(K.eval_phi(x, 0.0, eps, PARAMS)))
        assert sup <= K.phi_sup_bound(PARAMS) + 1e-12

    def test_converges_to_closed_form_pointwise(self):
        x, t = 0.3, 0.4
        want = float(K.eval_phi(x, t, 0.0, PARAMS))
        errs = [abs(float(K.eval_phi(x, t, e, PARAMS)) - want) for e in (0.1, 0.01, 1e-3, 1e-4)]
        assert errs[-1] < 1e-4
        assert errs[0] > errs[-1]

    def test_heat_identity(self):
        # (d_t + (1/2) d_x^2) phi_eps(x, t) = -w_{eps/2}(x) e^{-t} for t > 0.
        eps, x0, t0, h = 0.3, 0.21, 0.7, 1e-4

        def f(x, t):
            return float(K.eval_phi(x, t, eps, PARAMS))

        lhs = (f(x0, t0 + h) - f(x0, t0 - h)) / (2 * h)
        lhs += 0.5 * (f(x0 + h, t0) - 2 * f(x0, t0) + f(x0 - h, t0)) / h**2
        rhs = -float(K.eval_w(x0, eps / 2, PARAMS)) * np.exp(-t0)
        assert abs(lhs - rhs) < 1e-6


class TestEvalDphi:
    def test_zero_eps_closed_form(self):
        x = np.linspace(-0.9, 0.9, 37)
        want = 0.5 * PARAMS.alpha * K.eval_dg(x) * np.exp(-0.2)
        assert np.max(np.abs(K.eval_dphi(x, 0.2, 0.0, PARAMS) - want)) < 1e-13

    @pytest.mark.parametrize("eps", [0.3, 0.05])
    def test_is_x_derivative_of_phi(self, eps):
        x = np.linspace(-0.8, 0.8, 17)
        h = 1e-6
        fd = (K.eval_phi(x + h, 0.0, eps, PARAMS) - K.eval_phi(x - h, 0.0, eps, PARAMS)) / (2 * h)
        assert np.max(np.abs(fd - K.eval_dphi(x, 0.0, eps, PARAMS))) < 1e-7

    def test_difference_bounded_by_half_delta(self):
        # |dphi_eps - dphi_0|(x, t) = (alpha/2) xi(t) delta_eps(x); at
        # alpha = 1, t = 0 this is exactly delta_eps / 2.
        eps = 0.1
        km = K.default_k_max(eps)
        x = np.linspace(-0.9, 0.9, 19)
        diff = np.abs(
            K.eval_dphi(x, 0.0, eps, PARAMS, km)
            - K.eval_dphi(x, 0.0, 0.0, PARAMS)
        )
        half_delta = 0.5 * K.eval_delta_eps(x, eps, 1.0, km)
        assert np.max(np.abs(diff - half_delta)) < 1e-13
        t = 0.8
        diff_t = np.abs(
            K.eval_dphi(x, t, eps, PARAMS, km)
            - K.eval_dphi(x, t, 0.0, PARAMS)
        )
        assert np.all(diff_t <= half_delta + 1e-13)

    def test_uniform_bound(self):
        x = np.linspace(-1, 1, 801)
        for eps in (0.0, 0.2, 0.02):
            sup = np.max(np.abs(K.eval_dphi(x, 0.0, eps, PARAMS)))
            assert sup <= K.dphi_sup_bound(PARAMS) + 1e-12


class TestEvalW:
    @pytest.mark.parametrize("eps", [0.5, 0.2, 0.05, 0.01])
    def test_images_match_series(self, eps):
        x = np.linspace(-0.999, 0.999, 101)
        a = K.eval_w(x, eps, PARAMS)
        b = K.eval_w_series(x, eps, PARAMS)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_positive(self):
        x = np.linspace(-1, 1, 2001)
        for eps in (0.5, 0.05, 5e-3, 5e-4):
            assert np.min(K.eval_w(x, eps, PARAMS)) > 0

    def test_scales_linearly_with_alpha(self):
        p2 = ModelParams(alpha=2.5, N=1, L=1.0, beta=2.0)
        x = np.linspace(-1, 1, 41)
        assert np.allclose(K.eval_w(x, 0.1, p2), 2.5 * K.eval_w(x, 0.1, PARAMS), rtol=1e-14)

    def test_rejects_zero_eps(self):
        with pytest.raises(ValueError):
            K.eval_w(0.1, 0.0, PARAMS)


class TestDeltaEps:
    def test_uniform_bound(self):
        x = np.linspace(-1, 1, 2001)
        bound = K.dei_bound(1.0)
        assert abs(bound - DEI_AT_L1) < 1e-12
        for eps in (0.5, 0.1, 0.02, 1e-3):
            assert np.max(K.eval_delta_eps(x, eps)) < bound

    def test_decreases_along_ladder(self):
        # Monotone on a coarse ladder; below eps ~ 0.02 the mollification
        # error oscillates pointwise, so no claim is made there.
        for x in (0.15, 0.3, 0.45, 0.7):
            vals = [float(K.eval_delta_eps(x, e)) for e in (0.5, 0.2, 0.1, 0.05, 0.02)]
            assert all(a >= b for a, b in zip(vals, vals[1:])), (x, vals)

    def test_vanishes_pointwise_away_from_kinks(self):
        assert float(K.eval_delta_eps(0.45, 0.005)) < 2e-3
        assert float(K.eval_delta_eps(0.3, 0.005)) < 2e-3
        assert float(K.eval_delta_eps(0.0, 0.0)) == 0.0


class TestParamValidation:
    def test_model_params(self):
        with pytest.raises(ValueError):
            ModelParams(alpha=-0.1, N=1)
        with pytest.raises(ValueError):
            ModelParams(alpha=1.0, N=0)
        with pytest.raises(ValueError):
            ModelParams(alpha=1.0, N=1, L=0.0)
        with pytest.raises(ValueError):
            ModelParams(alpha=1.0, N=1, beta=-2.0)
        assert ModelParams(alpha=2.0, N=3, L=2.0).g_L == pytest.approx(np.sqrt(2.0))

    @pytest.mark.parametrize("k_max", [0, -2])
    def test_mode_count_below_one_rejected(self, k_max):
        x = np.linspace(-0.5, 0.5, 5)
        for eps in (0.0, 0.1):
            with pytest.raises(ValueError, match="k_max"):
                K.eval_phi(x, 0.0, eps, PARAMS, k_max)
            with pytest.raises(ValueError, match="k_max"):
                K.eval_dphi(x, 0.0, eps, PARAMS, k_max)
            with pytest.raises(ValueError, match="k_max"):
                K.eval_delta_eps(x, eps, 1.0, k_max)
        with pytest.raises(ValueError, match="k_max"):
            K.eval_w_series(x, 0.1, PARAMS, k_max)

    def test_default_mode_count(self):
        x = np.linspace(-0.5, 0.5, 5)
        km = K.default_k_max(0.1)
        assert np.array_equal(K.eval_phi(x, 0.3, 0.1, PARAMS, km),
                              K.eval_phi(x, 0.3, 0.1, PARAMS))
        assert np.array_equal(K.eval_w_series(x, 0.05, PARAMS, km),
                              K.eval_w_series(x, 0.05, PARAMS))
        # the last kept mode is damped no further than e^{-37} (unless it
        # is the floor m = 1), the first dropped one is damped below it
        for eps in (2.0, 1.0, 0.5, 0.3, 0.125, 0.05, 0.01, 1e-3, 1e-4):
            for L in (0.5, 1.0, 3.0):
                m = K.default_k_max(eps, L)
                assert m >= 1
                assert eps * (2 * np.pi * (m + 1) / L) ** 2 > 37.0, (eps, L, m)
                assert m == 1 or eps * (2 * np.pi * m / L) ** 2 <= 37.0, (eps, L, m)
        assert K.default_k_max(1.0) == 1
        assert K.default_k_max(0.125) == 2
        assert K.default_k_max(1e-4) > K.default_k_max(0.1)

    def test_damped_mode_count_is_default_without_floor(self):
        # the count exact diagonalization keeps: no floor of 1, since the
        # Fock space always holds k = 0
        assert K.damped_mode_count(1.0) == 0
        assert K.damped_mode_count(0.125) == 2
        for eps in (2.0, 1.0, 0.5, 0.3, 0.125, 0.05, 0.01, 1e-3, 1e-4):
            for L in (0.5, 1.0, 3.0):
                m = K.damped_mode_count(eps, L)
                assert K.default_k_max(eps, L) == max(1, m)
                assert eps * (2 * np.pi * (m + 1) / L) ** 2 > 37.0
                assert eps * (2 * np.pi * m / L) ** 2 <= 37.0
        with pytest.raises(ValueError, match="eps > 0"):
            K.damped_mode_count(0.0)
