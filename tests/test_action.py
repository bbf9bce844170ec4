import warnings

import numpy as np
import pytest

from polaron1d import action as A
from polaron1d.geometry import OrderedDomain, SpinSector, uniform_ordered_points
from polaron1d.kernels import (
    ModelParams,
    damped_mode_count,
    eval_g,
    eval_phi,
    phi_sup_bound,
)
from polaron1d.paths import (
    PathSample,
    TimeGrid,
    ito_integral,
    refine_midpoint,
    sample_brownian,
)

from oracles import (
    brute_retarded_action,
    brute_theta_direct,
    drift_profile_mode_loop,
    drift_profile_pair_sum,
    pairwise_x_z,
    s_eff_direct,
    theta_two_pass,
)

SEED = 52901


def make_paths(n_paths, N, beta=2.0, n_steps=128, stream_index=0, L=1.0):
    # the start points and the increments both come from the start of
    # the key's stream
    x0 = np.random.default_rng([SEED, stream_index]).uniform(
        -L, L, size=(n_paths, N))
    return sample_brownian(x0, TimeGrid(beta, n_steps),
                           np.random.default_rng([SEED, stream_index]))


def static_path(xs, beta=2.0, n_steps=32):
    xs = np.asarray(xs, dtype=float)
    states = np.tile(xs[None, None, :], (1, n_steps + 1, 1))
    return PathSample(states=states, grid=TimeGrid(beta, n_steps))


class TestPotentialSpec:
    def test_total_combines_v_and_w(self):
        pot = A.PotentialSpec(V=lambda x: x**2, W=lambda x: np.cos(x))
        xs = np.array([[0.5, -0.5], [1.0, 0.0]])
        expect = np.array([0.5 + np.cos(1.0), 1.0 + np.cos(1.0)])
        np.testing.assert_allclose(pot.total(xs), expect, rtol=1e-15)


class TestSEl:
    def test_zero_potential(self):
        path = make_paths(4, 2, n_steps=16)
        assert np.array_equal(A.s_el(path, None), np.zeros(4))
        assert np.array_equal(A.s_el(path, A.FREE), np.zeros(4))

    def test_constant_potential_exact(self):
        # U = sum_j c has N*c per configuration, so s_el = -N*c*beta.
        c = 0.7
        path = make_paths(5, 2, beta=2.0, n_steps=37)
        pot = A.PotentialSpec(V=lambda x: c * np.ones_like(x))
        np.testing.assert_allclose(A.s_el(path, pot), -2 * c * 2.0, rtol=1e-14)

    def test_harmonic_matches_trapezoid_under_refinement(self):
        pot = A.PotentialSpec(V=lambda x: x**2)
        path = make_paths(6, 2, beta=1.0, n_steps=32, stream_index=1)
        errs = []
        for level in range(3):
            u = pot.total(path.states)
            trap = -np.trapezoid(u, dx=path.grid.dt, axis=1)
            errs.append(np.max(np.abs(A.s_el(path, pot) - trap)))
            path = refine_midpoint(path, np.random.default_rng([SEED, 100 + level]))
        # left-endpoint vs trapezoid gap is O(dt)
        assert errs[2] < errs[0]


class TestSEffDirect:
    def test_rejects_eps_zero(self):
        path = make_paths(2, 1, n_steps=8)
        params = ModelParams(alpha=1.0, N=1)
        with pytest.raises(ValueError):
            s_eff_direct(path, 0.0, params)
        with pytest.raises(ValueError):
            s_eff_direct(path, -0.1, params)

    def test_alpha_zero_is_zero(self):
        path = make_paths(3, 2, n_steps=16)
        params = ModelParams(alpha=0.0, N=2, beta=2.0)
        assert np.array_equal(s_eff_direct(path, 0.2, params), np.zeros(3))

    def test_exact_alpha_linearity(self):
        path = make_paths(3, 2, n_steps=24)
        p1 = ModelParams(alpha=0.7, N=2, beta=2.0)
        p3 = ModelParams(alpha=2.1, N=2, beta=2.0)
        s1 = s_eff_direct(path, 0.3, p1)
        s3 = s_eff_direct(path, 0.3, p3)
        np.testing.assert_allclose(s3, 3 * s1, rtol=1e-13)

    def test_against_literal_image_sum(self):
        # independent oracle: python loops + Gaussian-image kernel
        path = make_paths(1, 2, beta=1.0, n_steps=12, stream_index=2)
        params = ModelParams(alpha=1.3, N=2, beta=1.0)
        eps = 0.15
        got = s_eff_direct(path, eps, params)[0]
        want = brute_retarded_action(path.states[0, :-1], path.grid.times,
                                     eps, params.alpha)
        assert got == pytest.approx(want, rel=1e-12)


class TestDecomposition:
    def test_alpha_zero_all_components_zero(self):
        path = make_paths(3, 2, n_steps=16)
        bd = A.s_eff_decomposed(path, 0.3, ModelParams(alpha=0.0, N=2, beta=2.0))
        for part in (bd.X, bd.Y, bd.Z, bd.s_eff):
            assert np.array_equal(part, np.zeros(3))
        assert bd.phi00_term == 0.0

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_identities(self, eps):
        path = make_paths(4, 2, n_steps=32)
        pot = A.PotentialSpec(V=lambda x: 0.1 * x**2)
        bd = A.s_eff_decomposed(path, eps, ModelParams(alpha=1.0, N=2, beta=2.0), pot=pot)
        np.testing.assert_allclose(bd.s_eff, bd.phi00_term + bd.X + bd.Y + bd.Z,
                                   rtol=0, atol=1e-12)
        assert np.array_equal(bd.s_total, bd.s_el + bd.s_eff)
        assert bd.n_paths == 4 and bd.n_steps == 32 and bd.epsilon == eps

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_exact_alpha_linearity_componentwise(self, eps):
        path = make_paths(4, 2, n_steps=32, stream_index=3)
        b1 = A.s_eff_decomposed(path, eps, ModelParams(alpha=0.5, N=2, beta=2.0))
        b4 = A.s_eff_decomposed(path, eps, ModelParams(alpha=2.0, N=2, beta=2.0))
        for a, b in ((b1.X, b4.X), (b1.Y, b4.Y), (b1.Z, b4.Z), (b1.s_eff, b4.s_eff)):
            np.testing.assert_allclose(b, 4 * a, rtol=1e-12)
        assert b4.phi00_term == pytest.approx(4 * b1.phi00_term, rel=1e-14)

    def test_phi00_closed_form_at_eps_zero(self):
        path = make_paths(1, 2, beta=2.0, n_steps=8)
        params = ModelParams(alpha=1.0, N=2, beta=2.0)
        bd = A.s_eff_decomposed(path, 0.0, params)
        assert bd.phi00_term == pytest.approx(
            2 * 2.0 * 2 * 0.5 * params.alpha * eval_g(0.0), rel=1e-14)

    def test_x_zero_for_single_particle(self):
        path = make_paths(3, 1, n_steps=16)
        bd = A.s_eff_decomposed(path, 0.1, ModelParams(alpha=1.0, N=1, beta=2.0))
        assert np.array_equal(bd.X, np.zeros(3))

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_x_and_z_sup_bounds(self, eps):
        # |X|, |Z| <= 2 N^2 beta C with C the uniform kernel bound
        params = ModelParams(alpha=1.0, N=2, beta=2.0)
        path = make_paths(1000, 2, n_steps=64, stream_index=4)
        bd = A.s_eff_decomposed(path, eps, params)
        cap = 2 * params.N**2 * params.beta * phi_sup_bound(params)
        assert np.max(np.abs(bd.X)) <= cap
        assert np.max(np.abs(bd.Z)) <= cap

    def test_negative_eps_rejected(self):
        path = make_paths(1, 1, n_steps=8)
        with pytest.raises(ValueError):
            A.s_eff_decomposed(path, -0.2, ModelParams(alpha=1.0, N=1, beta=2.0))

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    @pytest.mark.parametrize("N", [1, 3])
    def test_path_particle_count_must_match_params(self, N, eps):
        # phi(0,0) counts params.N particles and X, Y, Z the path's: a
        # mismatch is refused, not mixed into one S_eff
        path = make_paths(4, 2, n_steps=16)
        with pytest.raises(ValueError,
                           match=f"path N = 2 does not match params.N = {N}"):
            A.s_eff_decomposed(path, eps, ModelParams(alpha=1.0, N=N, beta=2.0))

    def test_time_blocking_does_not_change_values(self, monkeypatch):
        # every reduction of the mode table runs along one path, so path
        # chunks of 3 (and a ragged one of 2) change no bit
        path = make_paths(5, 2, n_steps=48, stream_index=5)
        params = ModelParams(alpha=1.0, N=2, beta=2.0)
        full = A.s_eff_decomposed(path, 0.1, params)
        k_max = damped_mode_count(0.2, params.L)
        monkeypatch.setattr(A, "_TABLE_BUDGET_BYTES", 16 * 49 * 2 * k_max * 3)
        blocked = A.s_eff_decomposed(path, 0.1, params)
        for name in ("X", "Y", "Z"):
            assert np.array_equal(getattr(blocked, name), getattr(full, name)), name

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_ragged_chunks_change_no_bit(self, monkeypatch, eps):
        # chunks of 3, 3 and 1 of 7 paths against one chunk, as rows; Y
        # runs one ito_integral per chunk and horizon
        path = make_paths(7, 3, beta=2.5, n_steps=40, stream_index=44)
        params = ModelParams(alpha=1.0, N=3, beta=2.5)
        sizes = []
        ito = A.ito_integral
        monkeypatch.setattr(A, "ito_integral",
                            lambda f, part: sizes.append(part.n_paths) or ito(f, part))
        full = A.s_eff_decomposed(path, eps, params, horizons=(40, 27))
        per_node = 16 * 3 * damped_mode_count(2 * eps, params.L) if eps else 8 * 3 * 3
        monkeypatch.setattr(A, "_TABLE_BUDGET_BYTES", 41 * per_node * 3)
        chunked = A.s_eff_decomposed(path, eps, params, horizons=(40, 27))
        assert sizes == [7, 7] + [3, 3, 3, 3, 1, 1]
        for name in ("X", "Y", "Z", "s_eff"):
            assert np.array_equal(getattr(chunked, name), getattr(full, name)), name

    @pytest.mark.parametrize("eps", [0.1])
    def test_partial_final_block(self, monkeypatch, eps):
        # a path chunk that does not divide n_paths
        path = make_paths(5, 2, n_steps=48, stream_index=5)
        params = ModelParams(alpha=1.0, N=2, beta=2.0)
        full = A.s_eff_decomposed(path, eps, params)
        k_max = damped_mode_count(2 * eps, params.L)
        monkeypatch.setattr(A, "_TABLE_BUDGET_BYTES", 16 * 49 * 2 * k_max * 2)
        blocked = A.s_eff_decomposed(path, eps, params)
        np.testing.assert_allclose(blocked.X, full.X, rtol=1e-13)
        np.testing.assert_allclose(blocked.Z, full.Z, rtol=1e-13)


def prefix_path(path, m):
    """The first m steps of path, with its horizon m steps after the start."""
    n, dt = path.grid.n_steps, path.grid.dt
    return PathSample(states=path.states[:, :m + 1],
                      grid=TimeGrid(path.grid.beta - (n - m) * dt, m))


class TestHorizonRows:
    POT = A.PotentialSpec(V=lambda x: 0.3 * x**2, W=lambda r: 0.2 * np.cos(r))

    def assert_rows_equal_prefix_calls(self, path, eps, params, horizons, pot):
        rows = A.s_eff_decomposed(path, eps, params, pot=pot, horizons=horizons)
        assert rows.n_paths == path.n_paths
        assert rows.phi00_term.shape == (len(horizons),)
        for i, m in enumerate(horizons):
            one = A.s_eff_decomposed(prefix_path(path, m), eps, params, pot=pot)
            for name in ("X", "Y", "Z", "s_el", "s_eff", "s_total"):
                assert getattr(rows, name).shape == (len(horizons), path.n_paths)
                assert np.array_equal(getattr(rows, name)[i], getattr(one, name)), name
            assert rows.phi00_term[i] == one.phi00_term

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("with_pot", [False, True])
    def test_rows_equal_prefix_calls_bitwise(self, eps, N, with_pot):
        # dt = 1/16; the prefix horizons 1.6875 and 0.8125 are exact
        path = make_paths(7, N, beta=2.5, n_steps=40, stream_index=20)
        params = ModelParams(alpha=1.0, N=N, beta=2.5)
        pot = self.POT if with_pot else None
        self.assert_rows_equal_prefix_calls(path, eps, params, (40, 27, 13), pot)

    @pytest.mark.parametrize("eps", [0.2])
    def test_rows_equal_prefix_calls_with_ragged_blocks(self, monkeypatch, eps):
        # path chunks of 2 do not divide 5, and the unit-duration blocks of
        # the G recursion (16 steps at dt = 1/16) divide neither 40 nor 27
        path = make_paths(5, 2, beta=2.5, n_steps=40, stream_index=21)
        params = ModelParams(alpha=1.0, N=2, beta=2.5)
        k_max = damped_mode_count(2 * eps, params.L)
        monkeypatch.setattr(A, "_TABLE_BUDGET_BYTES", 16 * 41 * 2 * k_max * 2)
        self.assert_rows_equal_prefix_calls(path, eps, params, (40, 27), self.POT)

    @pytest.mark.parametrize("eps", [0.5, 0.125, 0.0625, 0.025])
    @pytest.mark.parametrize("N, p, beta, horizons", [
        (1, 1, 2.5, (320, 256)), (2, 1, 0.9375, (120, 96)), (2, 2, 0.9375, (120, 96))])
    def test_default_mode_count_is_invisible(self, eps, N, p, beta, horizons):
        # the modes damped_mode_count drops are damped below e^{-37}: S_eff
        # agrees with the mode table and phi(0,0) at k_max = 8 path by
        # path, and so do its parts at the scale of S_eff (Y, which has no
        # m = 0 term, is far smaller)
        domain = OrderedDomain(SpinSector(N, p))
        x0 = uniform_ordered_points(np.random.default_rng([SEED, p]), 200, domain)
        path = sample_brownian(x0, TimeGrid(beta, horizons[0]),
                               np.random.default_rng([SEED, 40 + p]))
        params = ModelParams(alpha=1.0, N=N, beta=beta)
        rows = A.s_eff_decomposed(path, eps, params, horizons=horizons)
        drift, X, Z = A._mode_table_terms(path, eps, params, 8, horizons)
        Y = np.stack([ito_integral(drift[:, :h], path) for h in horizons])
        phi_diag = float(eval_phi(0.0, 0.0, 2 * eps, params, 8))
        n, dt = path.grid.n_steps, path.grid.dt
        phi00 = [2 * (beta - (n - h) * dt) * N * phi_diag for h in horizons]
        s_eff = np.array(phi00)[:, None] + X + Y + Z
        padded = {"X": X, "Y": Y, "Z": Z, "s_eff": s_eff, "s_total": s_eff}
        scale = 2e-15 * np.abs(s_eff)
        for name, want in padded.items():
            diff = np.abs(getattr(rows, name) - want)
            assert np.all(diff <= scale), name

    def test_alpha_zero_rows(self):
        path = make_paths(4, 2, beta=2.5, n_steps=40, stream_index=22)
        params = ModelParams(alpha=0.0, N=2, beta=2.5)
        self.assert_rows_equal_prefix_calls(path, 0.3, params, (40, 27), self.POT)

    def test_without_horizons_is_the_full_row(self):
        path = make_paths(4, 2, beta=2.5, n_steps=40, stream_index=23)
        params = ModelParams(alpha=1.0, N=2, beta=2.5)
        one = A.s_eff_decomposed(path, 0.0, params, pot=self.POT)
        rows = A.s_eff_decomposed(path, 0.0, params, pot=self.POT, horizons=(40,))
        assert isinstance(one.phi00_term, float)
        for name in ("X", "Y", "Z", "s_el", "s_eff", "s_total"):
            assert np.array_equal(getattr(rows, name), getattr(one, name)[None])

    def test_horizons_must_lie_on_the_path(self):
        path = make_paths(2, 1, n_steps=8)
        params = ModelParams(alpha=1.0, N=1, beta=2.0)
        for bad in ((9,), (0,), (8, -2)):
            with pytest.raises(ValueError):
                A.s_eff_decomposed(path, 0.1, params, horizons=bad)

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    @pytest.mark.parametrize("horizons", [None, (40, 27)])
    def test_empty_batch_gives_empty_rows(self, eps, horizons):
        # a path block with no path alive at beta hands the action no paths
        path = PathSample(np.zeros((0, 41, 2)), TimeGrid(2.5, 40))
        params = ModelParams(alpha=1.0, N=2, beta=2.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = A.s_eff_decomposed(path, eps, params, pot=self.POT,
                                      horizons=horizons)
        shape = (0,) if horizons is None else (2, 0)
        assert rows.n_paths == 0
        for name in ("X", "Y", "Z", "s_el", "s_eff", "s_total"):
            assert getattr(rows, name).shape == shape, name


class TestOnlyTheK0Mode:
    """At eps >= 0.469 (L = 1) the action keeps no mode m >= 1."""

    @pytest.mark.parametrize("eps", [0.47, 2.0])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_s_eff_is_the_k0_closed_form(self, eps, N):
        # phi(0,0), X and Z's m = 0 part leave
        # g_L N^2 (beta_h - dt sum_{b < h} e^{-(beta_h - t_b)}) on every path
        path = make_paths(9, N, beta=2.5, n_steps=40, stream_index=60 + N)
        params = ModelParams(alpha=1.3, N=N, beta=2.5)
        assert damped_mode_count(2 * eps, params.L) == 0
        horizons = (40, 27)
        rows = A.s_eff_decomposed(path, eps, params, horizons=horizons)
        n, dt, t = path.grid.n_steps, path.grid.dt, path.grid.times
        for r, h in enumerate(horizons):
            beta_h = path.grid.beta - (n - h) * dt
            want = params.g_L * N**2 * (beta_h - dt * np.sum(np.exp(-(beta_h - t[:h]))))
            np.testing.assert_allclose(rows.s_eff[r], np.full(path.n_paths, want),
                                       rtol=1e-14, atol=0)
        assert np.all(rows.Y == 0)

    @pytest.mark.parametrize("n_modes", [0, 1, 5])
    def test_phase_table_is_the_repeated_fundamental(self, n_modes):
        # the fundamental is evaluated only when some mode needs it; the
        # powers are those of repeating e^{-i k0 x} n_modes times
        x = make_paths(3, 2, n_steps=8, stream_index=69).states
        k0 = 2 * np.pi
        powers = A._phase_powers(x, k0, n_modes)
        assert powers.shape == x.shape + (n_modes,)
        want = np.cumprod(np.repeat(np.exp(-1j * k0 * x)[..., None], n_modes,
                                    axis=-1), axis=-1)
        assert np.array_equal(powers, want)


def eps0_drift(path, params):
    """Phi of the eps = 0 branch on the whole path as one chunk."""
    return A._closed_form_terms(path, params, (path.grid.n_steps,))[0]


def record_eps0_chunks(monkeypatch):
    """Collect (n_paths, Phi) of every eps = 0 path chunk from now on."""
    chunks = []
    real = A._closed_form_terms

    def recording(part, params, steps):
        terms = real(part, params, steps)
        chunks.append((part.n_paths, terms[0]))
        return terms

    monkeypatch.setattr(A, "_closed_form_terms", recording)
    return chunks


def assert_rel_close(got, want, rel=1e-12):
    """max |got - want| <= rel * max |want|, with matching shapes."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


class TestDriftProfile:
    @pytest.mark.parametrize("eps", [0.05, 0.2])
    def test_mode_recursion_equals_direct_sum(self, eps):
        # same left-endpoint double sum, factorized over modes
        path = make_paths(6, 2, n_steps=64, stream_index=6)
        params = ModelParams(alpha=1.0, N=2, beta=2.0)
        k_max = damped_mode_count(2 * eps, params.L)
        rec = A._mode_table_terms(path, eps, params, k_max, (64,))[0]
        direct = drift_profile_pair_sum(path, eps, params)
        np.testing.assert_allclose(rec, direct, rtol=0, atol=1e-10)

    def test_respects_explicit_cutoff(self):
        path = make_paths(2, 2, n_steps=16, stream_index=6)
        params = ModelParams(alpha=1.0, N=2, beta=2.0)
        rec = A._mode_table_terms(path, 0.2, params, 3, (16,))[0]
        direct = drift_profile_pair_sum(path, 0.2, params, k_max=3)
        np.testing.assert_allclose(rec, direct, rtol=0, atol=1e-12)


class TestModeTable:
    """Phi, X and Z of the eps > 0 table against the step loop and pair sums."""

    def assert_matches_oracles(self, path, eps, params, horizons, k_max=None):
        if k_max is None:
            k_max = damped_mode_count(2 * eps, params.L)
        drift, X, Z = A._mode_table_terms(path, eps, params, k_max, horizons)
        assert_rel_close(drift, drift_profile_mode_loop(path, eps, params, k_max))
        X_ref, Z_ref = pairwise_x_z(path, eps, params, k_max, horizons)
        if params.N == 1:
            assert np.array_equal(X, np.zeros_like(X_ref))
        else:
            assert_rel_close(X, X_ref)
        assert_rel_close(Z, Z_ref)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_explicit_cutoff(self, N):
        path = make_paths(4, N, beta=2.0, n_steps=48, stream_index=30 + N)
        params = ModelParams(alpha=1.3, N=N, beta=2.0)
        self.assert_matches_oracles(path, 0.1, params, (48, 31), k_max=5)

    def test_ragged_time_blocks(self):
        # G blocks of 16 steps (dt = 1/16) divide neither 40 nor 27
        path = make_paths(7, 2, beta=2.5, n_steps=40, stream_index=34)
        params = ModelParams(alpha=1.0, N=2, beta=2.5)
        self.assert_matches_oracles(path, 0.2, params, (40, 27))

    @pytest.mark.parametrize("beta, n_steps", [(40.0, 320), (800.0, 1600)])
    def test_long_horizon_without_warnings(self, beta, n_steps):
        # the G recursion is rescaled inside unit-duration blocks; a single
        # rescaled sum over the whole path would overflow past beta ~ 709
        path = make_paths(3, 2, beta=beta, n_steps=n_steps, stream_index=35)
        params = ModelParams(alpha=1.0, N=2, beta=beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_matches_oracles(path, 0.3, params, (n_steps, n_steps * 5 // 8))


class TestClosedFormPairTerms:
    """X and Z at eps = 0 against the pair sums of tests/oracles.py."""

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_matches_pair_sums(self, N):
        path = make_paths(4, N, beta=2.0, n_steps=48, stream_index=40 + N)
        params = ModelParams(alpha=1.3, N=N, beta=2.0)
        rows = A.s_eff_decomposed(path, 0.0, params, horizons=(48, 31))
        X_ref, Z_ref = pairwise_x_z(path, 0.0, params, horizons=(48, 31))
        if N == 1:
            assert np.array_equal(rows.X, np.zeros_like(X_ref))
        else:
            assert_rel_close(rows.X, X_ref)
        assert_rel_close(rows.Z, Z_ref)

    def test_ragged_chunks_change_no_bit(self, monkeypatch):
        # pair-term and drift chunks of 3, 3 and 1 of 7 paths, as rows
        path = make_paths(7, 2, beta=2.5, n_steps=40, stream_index=44)
        params = ModelParams(alpha=1.0, N=2, beta=2.5)
        full = A.s_eff_decomposed(path, 0.0, params, horizons=(40, 27))
        monkeypatch.setattr(A, "_TABLE_BUDGET_BYTES", 8 * 41 * 2 * 2 * 3)
        chunks = record_eps0_chunks(monkeypatch)
        chunked = A.s_eff_decomposed(path, 0.0, params, horizons=(40, 27))
        assert [n for n, _ in chunks] == [3, 3, 1]
        for name in ("X", "Y", "Z"):
            assert np.array_equal(getattr(chunked, name), getattr(full, name)), name


class TestEpsZeroDrift:
    """The eps = 0 near/far drift against the pair loop of tests/oracles.py."""

    def assert_matches_pair_sum(self, path, params):
        drift = eps0_drift(path, params)
        assert_rel_close(drift, drift_profile_pair_sum(path, 0.0, params))
        return drift

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("L", [0.5, 1.0, 2.0, 4.0])
    def test_cell_sizes(self, N, L):
        # 45 steps: five full blocks and a partial one
        path = make_paths(4, N, beta=2.0, n_steps=45, stream_index=50 + N, L=L)
        self.assert_matches_pair_sum(path, ModelParams(alpha=1.3, N=N, L=L, beta=2.0))

    def test_paths_that_leave_the_cell(self):
        # at L = 0.5 most paths cross a wall, as the delta extension's
        # dying paths do; positions are reduced node by node
        path = make_paths(6, 2, beta=2.0, n_steps=64, stream_index=54, L=0.5)
        assert np.mean(np.abs(path.states) >= 0.5) > 0.2
        self.assert_matches_pair_sum(path, ModelParams(alpha=1.0, N=2, L=0.5, beta=2.0))

    @pytest.mark.parametrize("n_steps", [1, 5, A._DRIFT_BLOCK, A._DRIFT_BLOCK + 1, 67])
    def test_step_counts_around_the_block(self, n_steps):
        path = make_paths(3, 2, beta=1.0, n_steps=n_steps, stream_index=55)
        self.assert_matches_pair_sum(path, ModelParams(alpha=1.0, N=2, beta=1.0))

    def test_ragged_chunks(self, monkeypatch):
        path = make_paths(7, 3, beta=2.0, n_steps=40, stream_index=56)
        params = ModelParams(alpha=1.0, N=3, beta=2.0)
        full = self.assert_matches_pair_sum(path, params)
        # chunks of 3, 3 and 1 paths
        monkeypatch.setattr(A, "_TABLE_BUDGET_BYTES", 8 * 41 * 3 * 3 * 3)
        chunks = record_eps0_chunks(monkeypatch)
        A.s_eff_decomposed(path, 0.0, params)
        assert [n for n, _ in chunks] == [3, 3, 1]
        assert np.array_equal(np.concatenate([d for _, d in chunks]), full)

    @pytest.mark.parametrize("shift", [1.0, -1.0, 2.0, -2.0])
    def test_invariant_under_shifts_by_multiples_of_L(self, shift):
        # g' has period L: moving one particle's whole path by L or 2L
        # moves every separation x_i - x_j by a multiple of L
        L = 0.5
        path = make_paths(4, 2, beta=2.0, n_steps=45, stream_index=58, L=L)
        params = ModelParams(alpha=1.0, N=2, L=L, beta=2.0)
        states = path.states.copy()
        states[:, :, 1] += shift * L
        moved = self.assert_matches_pair_sum(PathSample(states, path.grid), params)
        assert_rel_close(moved, eps0_drift(path, params))

    @pytest.mark.parametrize("beta, n_steps", [(40.0, 320), (800.0, 1600)])
    def test_long_horizon_without_warnings(self, beta, n_steps):
        path = make_paths(3, 2, beta=beta, n_steps=n_steps, stream_index=57)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_matches_pair_sum(path, ModelParams(alpha=1.0, N=2, beta=beta))

    def test_largest_cell_without_warnings(self):
        # nodes spread over the whole cell put e^{+-sqrt2 L} at both ends
        # of the tables and fill all four intervals
        L = A._DRIFT_L_MAX
        states = np.random.default_rng(SEED).uniform(-L, L, size=(3, 41, 2))
        path = PathSample(states=states, grid=TimeGrid(2.0, 40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_matches_pair_sum(path, ModelParams(alpha=1.0, N=2, L=L, beta=2.0))

    def test_larger_cell_rejected(self):
        path = make_paths(2, 2, n_steps=16)
        params = ModelParams(alpha=1.0, N=2, L=2 * A._DRIFT_L_MAX, beta=2.0)
        with pytest.raises(ValueError, match="L <="):
            A.s_eff_decomposed(path, 0.0, params)

    def test_exact_ties_give_zero(self):
        # separations 0 and +-1.0 = +-L are exact in binary: g' is 0 there
        # (sgn 0 and the snapped wall), for near and far sources alike
        params = ModelParams(alpha=1.0, N=2, L=1.0, beta=2.0)
        drift = self.assert_matches_pair_sum(static_path([0.25, -0.75]), params)
        assert np.array_equal(drift, np.zeros_like(drift))

    def test_ties_among_other_separations(self):
        params = ModelParams(alpha=1.0, N=3, L=1.0, beta=2.0)
        path = static_path([0.25, -0.75, 0.5])
        drift = self.assert_matches_pair_sum(path, params)
        assert np.all(drift[:, 1:] != 0)


class TestDirectVsDecomposed:
    def test_coupled_refinement_order(self):
        # quadrature gap shrinks with observed order >= 0.4 in dt
        params = ModelParams(alpha=1.0, N=1, L=1.0, beta=1.0)
        path = make_paths(16, 1, beta=1.0, n_steps=32, stream_index=7)
        gaps = []
        for level in range(4):
            sd = s_eff_direct(path, 0.2, params)
            bd = A.s_eff_decomposed(path, 0.2, params)
            gaps.append(np.mean(np.abs(sd - bd.s_eff)))
            if level < 3:
                path = refine_midpoint(path, np.random.default_rng([SEED, 200 + level]))
        orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
        assert np.all(orders >= 0.4)
        assert gaps[-1] < gaps[0]


class TestEpsZeroProperties:
    def test_s_eff_0_nonnegative_on_sample(self):
        params = ModelParams(alpha=1.0, N=2, beta=2.0)
        path = make_paths(1000, 2, beta=2.0, n_steps=128, stream_index=8)
        bd = A.s_eff_decomposed(path, 0.0, params)
        assert bd.s_eff.min() >= -1e-9

    def test_alpha_monotone_per_path(self):
        # S_eff,0(alpha) = alpha * S_eff,0(1) pathwise, so nonnegativity
        # makes the sweep monotone; check by direct evaluation anyway.
        path = make_paths(64, 2, beta=2.0, n_steps=128, stream_index=9)
        vals = [
            A.s_eff_decomposed(path, 0.0, ModelParams(alpha=a, N=2, beta=2.0)).s_eff
            for a in (0.5, 1.0, 2.0)
        ]
        assert np.all(vals[1] - vals[0] >= -1e-12)
        assert np.all(vals[2] - vals[1] >= -1e-12)


class TestUvConvergenceStudy:
    def test_ladder_validation(self):
        path = make_paths(2, 1, n_steps=8)
        params = ModelParams(alpha=1.0, N=1, beta=2.0)
        with pytest.raises(ValueError):
            A.uv_convergence_study(path, [0.1, 0.2], params)
        with pytest.raises(ValueError):
            A.uv_convergence_study(path, [0.1, 0.0], params)

    def test_medians_decrease_along_ladder(self):
        params = ModelParams(alpha=1.0, N=2, beta=2.0)
        path = make_paths(1000, 2, beta=2.0, n_steps=128, stream_index=10)
        study = A.uv_convergence_study(path, [0.2, 0.1, 0.05, 0.025], params)
        med = study["median_abs_diff"]
        assert med.shape == (4,)
        assert np.all(np.diff(med) < 0)
        assert study["abs_diff"].shape == (4, 1000)
        assert study["s_eff_0"].min() >= -1e-9


class TestMomentProxy:
    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_exp_moment_finite_and_stable_across_eps(self, a):
        # sample E[e^{a S_eff,eps}] at a small coupling: finite, and the
        # two cutoffs agree within 10% plus 3 sigma
        params = ModelParams(alpha=0.25, N=2, beta=2.0)
        path = make_paths(1000, 2, beta=2.0, n_steps=128, stream_index=11)
        est = {}
        for eps in (0.5, 0.1):
            w = np.exp(a * A.s_eff_decomposed(path, eps, params).s_eff)
            est[eps] = (w.mean(), w.std(ddof=1) / np.sqrt(w.size))
        for mean, se in est.values():
            assert np.isfinite(mean) and np.isfinite(se)
        m1, s1 = est[0.5]
        m2, s2 = est[0.1]
        assert abs(m1 - m2) <= 0.1 * 0.5 * (m1 + m2) + 3 * (s1 + s2)


class TestThetaIntegrals:
    def test_input_validation(self):
        path = make_paths(1, 1, n_steps=8)
        params = ModelParams(alpha=1.0, N=1, beta=2.0)
        with pytest.raises(ValueError):
            A.theta_integrals(path, -0.1, params)
        with pytest.raises(ValueError):
            A.theta_integrals(path, 0.1, params, mode_count=0)

    def test_mode_axis(self):
        path = make_paths(1, 1, n_steps=8)
        th = A.theta_integrals(path, 0.0, ModelParams(alpha=1.0, N=1, beta=2.0),
                               mode_count=5)
        np.testing.assert_allclose(th.modes, np.pi * np.arange(-5, 6))
        assert th.direct.shape == (1, 11)

    def test_static_path_closed_form(self):
        # zero increments: no stochastic part, direct quadrature exact
        beta = 2.0
        params = ModelParams(alpha=1.0, N=2, beta=beta)
        path = static_path([0.3, -0.5], beta=beta, n_steps=32)
        eps = 0.1
        th = A.theta_integrals(path, eps, params, mode_count=8)
        k = th.modes
        analytic = (-np.sqrt(params.g_L) * np.exp(-eps * k**2)
                    * (1 - np.exp(-beta))
                    * (np.exp(-1j * k * 0.3) + np.exp(1j * k * 0.5)))
        assert np.max(np.abs(th.ito)) == 0.0
        np.testing.assert_allclose(th.direct[0], analytic, rtol=0, atol=1e-12)
        # boundary term lacks the quadratic variation a moving path would
        # contribute; on a frozen path it carries exactly 1/(1 + k^2/2)
        np.testing.assert_allclose(th.boundary[0] * (1 + k**2 / 2), analytic,
                                   rtol=0, atol=1e-10)
        analytic_tilde = (-np.sqrt(params.g_L) * np.exp(-eps * k**2)
                          * (1 - np.exp(-beta))
                          * (np.exp(1j * k * 0.3) + np.exp(-1j * k * 0.5)))
        assert np.max(np.abs(th.tilde_ito)) == 0.0
        np.testing.assert_allclose(th.tilde_direct[0], analytic_tilde,
                                   rtol=0, atol=1e-12)

    def test_zero_mode_identity_exact(self):
        # at k = 0 the Ito step is trivial: direct == boundary always
        path = make_paths(8, 2, n_steps=64, stream_index=12)
        th = A.theta_integrals(path, 0.3, ModelParams(alpha=1.0, N=2, beta=2.0),
                               mode_count=4)
        mid = 4
        assert th.modes[mid] == 0.0
        np.testing.assert_allclose(th.discrepancy[:, mid], 0, atol=1e-12)
        np.testing.assert_allclose(th.tilde_discrepancy[:, mid], 0, atol=1e-12)

    def test_direct_against_literal_loop(self):
        path = make_paths(1, 2, beta=1.5, n_steps=24, stream_index=13)
        params = ModelParams(alpha=0.8, N=2, beta=1.5)
        th = A.theta_integrals(path, 0.2, params, mode_count=3)
        for idx, k in enumerate(th.modes):
            want = brute_theta_direct(path.states[0], path.grid.times, k, 0.2,
                                      params.g_L)
            assert th.direct[0, idx] == pytest.approx(want, abs=1e-12)

    def test_tilde_is_reversed_time_quadrature(self):
        # tilde integrates e^{-(beta-s)} with the phase at the right
        # endpoint: independent re-derivation in original time order
        path = make_paths(2, 2, beta=2.0, n_steps=16, stream_index=14)
        params = ModelParams(alpha=1.0, N=2, beta=2.0)
        eps = 0.1
        th = A.theta_integrals(path, eps, params, mode_count=4)
        t = path.grid.times
        beta = 2.0
        wgt = np.exp(-(beta - t[1:])) - np.exp(-(beta - t[:-1]))
        for idx, k in enumerate(th.modes):
            phases = np.exp(1j * k * path.states[:, 1:, :]).sum(axis=2)
            want = -np.sqrt(params.g_L) * np.exp(-eps * k**2) * (phases @ wgt)
            np.testing.assert_allclose(th.tilde_direct[:, idx], want, atol=1e-12)

    def test_discrepancy_shrinks_under_refinement(self):
        params = ModelParams(alpha=1.0, N=2, beta=2.0)
        path = make_paths(200, 2, n_steps=64, stream_index=15)
        th = A.theta_integrals(path, 0.0, params, mode_count=16)
        fine = refine_midpoint(path, np.random.default_rng([SEED, 300]))
        th_fine = A.theta_integrals(fine, 0.0, params, mode_count=16)
        coarse_gap = np.mean(np.abs(th.discrepancy))
        fine_gap = np.mean(np.abs(th_fine.discrepancy))
        # O(sqrt(dt)): expect ~ sqrt(2) improvement, demand 1.15
        assert coarse_gap > 1.15 * fine_gap
        assert (np.mean(np.abs(th.tilde_discrepancy))
                > 1.15 * np.mean(np.abs(th_fine.tilde_discrepancy)))

    def test_norm_bounded_uniformly_in_eps(self):
        # boundary piece is bounded by sqrt(g_L) N (1 + e^{-beta}) mode-wise
        # and the Ito piece has E|.|^2 = (k/(1+k^2/2))^2 g_L N (1-e^{-2 beta})/2;
        # twice their sum caps the sample mean of ||theta||^2 at any eps
        params = ModelParams(alpha=1.0, N=2, beta=2.0)
        N, beta = 2, 2.0
        path = make_paths(1000, N, beta=beta, n_steps=128, stream_index=16)
        k = np.pi * np.arange(-64, 65)
        x_cap = np.sum((np.sqrt(params.g_L) * N * (1 + np.exp(-beta))
                        / (1 + k**2 / 2))**2)
        y_cap = np.sum((k / (1 + k**2 / 2))**2) * params.g_L * N * 0.5 * (
            1 - np.exp(-2 * beta))
        cap = 2 * (x_cap + y_cap)
        for eps in (0.0, 0.1, 0.5):
            th = A.theta_integrals(path, eps, params, mode_count=64)
            mean_sq = np.mean(np.sum(np.abs(th.direct)**2, axis=1))
            assert mean_sq < cap

    def test_cutoff_ladder_eighth_moment_decreases(self):
        params = ModelParams(alpha=1.0, N=2, beta=2.0)
        path = make_paths(500, 2, n_steps=128, stream_index=17)
        th0 = A.theta_integrals(path, 0.0, params, mode_count=64)
        means = []
        for eps in (0.2, 0.1, 0.05, 0.025):
            th = A.theta_integrals(path, eps, params, mode_count=64)
            gap = np.sum(np.abs(th.direct - th0.direct)**2, axis=1)
            means.append(np.mean(gap**4))
        assert all(b < a for a, b in zip(means, means[1:]))


THETA_FIELDS = ("direct", "boundary", "ito", "tilde_direct", "tilde_boundary", "tilde_ito")


class TestThetaOnePass:
    """One phase table per path chunk against the two-pass reference."""

    def assert_matches_two_pass(self, path, params, mode_count, eps=0.1):
        th = A.theta_integrals(path, eps, params, mode_count=mode_count)
        want = theta_two_pass(path, eps, params, mode_count=mode_count)
        for field, ref in zip(THETA_FIELDS, want):
            assert_rel_close(getattr(th, field), ref, rel=1e-13)

    @pytest.mark.parametrize("mode_count", [1, 5, 64])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_matches_two_pass(self, N, mode_count):
        path = make_paths(6, N, n_steps=32, stream_index=40 + N)
        self.assert_matches_two_pass(path, ModelParams(alpha=1.0, N=N, beta=2.0), mode_count)

    def test_ragged_chunks(self, monkeypatch):
        # chunks of 2 of 5 paths (one table: 33 nodes x 2 particles x 6 modes)
        monkeypatch.setattr(A, "_TABLE_BUDGET_BYTES", 16 * 33 * 2 * 6 * 2)
        path = make_paths(5, 2, n_steps=32, stream_index=44)
        self.assert_matches_two_pass(path, ModelParams(alpha=1.0, N=2, beta=2.0), 5)

    def test_empty_batch(self):
        path = PathSample(states=np.zeros((0, 17, 2)), grid=TimeGrid(2.0, 16))
        th = A.theta_integrals(path, 0.1, ModelParams(alpha=1.0, N=2, beta=2.0),
                               mode_count=5)
        for field in THETA_FIELDS:
            assert getattr(th, field).shape == (0, 11)

    def test_one_table_per_chunk(self, monkeypatch):
        monkeypatch.setattr(A, "_TABLE_BUDGET_BYTES", 16 * 33 * 2 * 6 * 2)
        shapes = []
        powers = A._phase_powers

        def counting(x, k0, n_modes):
            shapes.append(x.shape)
            return powers(x, k0, n_modes)

        monkeypatch.setattr(A, "_phase_powers", counting)
        path = make_paths(5, 2, n_steps=32, stream_index=45)
        A.theta_integrals(path, 0.1, ModelParams(alpha=1.0, N=2, beta=2.0), mode_count=5)
        assert shapes == [(2, 33, 2), (2, 33, 2), (1, 33, 2)]

    def test_negative_modes_are_conjugates(self):
        path = make_paths(4, 2, n_steps=32, stream_index=46)
        th = A.theta_integrals(path, 0.2, ModelParams(alpha=1.0, N=2, beta=2.0),
                               mode_count=7)
        for field in THETA_FIELDS:
            arr = getattr(th, field)
            assert np.array_equal(arr[:, ::-1], arr.conj())

    def test_tilde_is_theta_of_reversed_path(self):
        path = make_paths(4, 2, n_steps=32, stream_index=47)
        reverse = PathSample(states=path.states[:, ::-1], grid=path.grid)
        params = ModelParams(alpha=1.0, N=2, beta=2.0)
        th = A.theta_integrals(path, 0.2, params, mode_count=7)
        th_rev = A.theta_integrals(reverse, 0.2, params, mode_count=7)
        for field in ("direct", "boundary", "ito"):
            assert_rel_close(getattr(th, "tilde_" + field),
                             getattr(th_rev, field)[:, ::-1], rel=1e-14)
            assert_rel_close(getattr(th, field),
                             getattr(th_rev, "tilde_" + field)[:, ::-1], rel=1e-14)
