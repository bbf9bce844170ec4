from functools import cached_property

import numpy as np
import pytest

from polaron1d import fock as F

from oracles import annihilator_loop, brute_coherent_xi_element, brute_occupations

SEED = 60317


def rand_vec(rng, m, norm):
    v = rng.normal(size=m) + 1j * rng.normal(size=m)
    return norm * v / np.linalg.norm(v)


class TestFockSpace:
    @pytest.mark.parametrize("m,cap", [(1, 4), (2, 8), (3, 5)])
    def test_dimension(self, m, cap):
        from math import comb
        space = F.FockSpace(modes=tuple(range(1, m + 1)), cap=cap)
        assert space.dim == comb(cap + m, m)
        assert len(space.occupations) == space.dim
        assert len(set(space.occupations)) == space.dim
        assert all(sum(occ) <= cap for occ in space.occupations)

    @pytest.mark.parametrize("m,cap", [(1, 0), (1, 4), (2, 8), (3, 5), (5, 0),
                                       (9, 4), (11, 3)])
    def test_occupations_match_product_filter(self, m, cap):
        space = F.FockSpace(modes=tuple(range(1, m + 1)), cap=cap)
        assert space.occupations == brute_occupations(m, cap)

    def test_occupations_is_cached(self):
        # perfbench/spans.py wraps the cached_property's function by name
        assert isinstance(F.FockSpace.__dict__["occupations"], cached_property)
        space = F.FockSpace(modes=(0.0, 1.0), cap=3)
        assert space.occupations is space.occupations

    def test_vacuum_first(self):
        space = F.FockSpace(modes=(0.0, 1.0), cap=3)
        assert space.occupations[0] == (0, 0)
        v = F.vacuum(space)
        assert v[0] == 1.0 and np.sum(np.abs(v)) == 1.0

    @pytest.mark.parametrize("m,cap", [(1, 4), (5, 4), (11, 5), (21, 3), (40, 3)])
    def test_annihilator_matches_state_loop(self, m, cap):
        # 40 modes at cap 3 need 80 bits of occupation: the search keys
        # must not fold them into one machine integer
        space = F.FockSpace(modes=tuple(range(m)), cap=cap)
        for pos in range(m):
            got, want = F.annihilator(space, pos), annihilator_loop(space, pos)
            for name in ("data", "indices", "indptr"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            F.FockSpace(modes=(), cap=2)
        with pytest.raises(ValueError):
            F.FockSpace(modes=(1.0, 1.0), cap=2)
        with pytest.raises(ValueError):
            F.FockSpace(modes=(1.0,), cap=-1)


class TestLadder:
    # modes (-1.0, 1.0) sit at positions 0 and 1
    def setup_method(self):
        self.space = F.FockSpace(modes=(-1.0, 1.0), cap=5)

    def lowering(self, pos):
        return F.annihilator(self.space, pos).toarray()

    def raising(self, pos):
        return F.annihilator(self.space, pos).conj().T.toarray()

    def test_annihilates_vacuum(self):
        a = self.lowering(1)
        assert np.all(a @ F.vacuum(self.space) == 0)

    def test_creator_is_adjoint(self):
        a = self.lowering(0)
        astar = self.raising(0)
        assert np.array_equal(astar, a.conj().T)
        one = astar @ F.vacuum(self.space)
        assert one[self.space.occupations.index((1, 0))] == 1.0
        assert np.sum(np.abs(one)) == 1.0

    def test_commutator_away_from_cap(self):
        # [a_k, a_j*] = delta_kj except on the top occupation shell
        interior = self.space.total_occupation <= self.space.cap - 1
        for k in (0, 1):
            for j in (0, 1):
                a = self.lowering(k)
                bstar = self.raising(j)
                comm = a @ bstar - bstar @ a
                want = np.eye(self.space.dim) if k == j else 0
                defect = comm - want
                assert np.max(np.abs(defect[:, interior])) < 1e-14
        # and the defect of [a, a*] is confined to that shell
        a = self.lowering(1)
        astar = self.raising(1)
        comm = a @ astar - astar @ a - np.eye(self.space.dim)
        assert np.max(np.abs(comm)) > 0.5

    def test_number_operator_matches_sum(self):
        total = sum(
            (self.raising(pos) @ self.lowering(pos)
             for pos in range(len(self.space.modes))),
            start=np.zeros((self.space.dim,) * 2, dtype=complex),
        )
        np.testing.assert_allclose(total, np.diag(self.space.total_occupation),
                                   atol=1e-14)


class TestDisplacement:
    def setup_method(self):
        self.space = F.FockSpace(modes=(-1.0, 1.0), cap=8)
        self.rng = np.random.default_rng(SEED)

    def test_zero_is_identity(self):
        for which in ("a", "a*"):
            d = F.displacement(self.space, np.zeros(2), which)
            assert np.array_equal(d, np.eye(self.space.dim))

    def test_annihilator_fixes_vacuum(self):
        f = rand_vec(self.rng, 2, 0.4)
        d = F.displacement(self.space, f, "a")
        np.testing.assert_allclose(d @ F.vacuum(self.space),
                                   F.vacuum(self.space), atol=1e-15)

    def test_divergence_at_cap_reported(self):
        f = np.full(2, np.sqrt(self.space.cap / 8) + 0.1)
        with pytest.raises(ValueError):
            F.displacement(self.space, f, "a*")

    def test_nilpotency_terminates_series(self):
        f = rand_vec(self.rng, 2, 0.5)
        gen = F.smeared_annihilator(self.space, f)
        power = np.linalg.matrix_power(gen, self.space.cap + 1)
        assert np.max(np.abs(power)) == 0.0

    def test_shift_identity(self):
        # e^{t N} e^{a(f)*} e^{-t N} = e^{a(e^t f)*}
        t = 0.3
        f = rand_vec(self.rng, 2, 0.5)
        n_diag = self.space.total_occupation
        left = (np.exp(t * n_diag)[:, None]
                * F.displacement(self.space, f, "a*")
                * np.exp(-t * n_diag)[None, :])
        right = F.displacement(self.space, np.exp(t) * f, "a*")
        assert np.max(np.abs(left - right)) < 1e-10


class TestXiKernel:
    def setup_method(self):
        self.rng = np.random.default_rng(SEED + 1)

    def test_vacuum_element(self):
        space = F.FockSpace(modes=(-1.0, 1.0), cap=8)
        theta = rand_vec(self.rng, 2, 0.5)
        tilde = rand_vec(self.rng, 2, 0.5)
        s_eff = 0.37
        xi = F.xi_kernel(space, theta, tilde, beta=1.5, s_eff=s_eff)
        vac = F.vacuum(space)
        got = vac.conj() @ xi @ vac
        assert got == pytest.approx(np.exp(s_eff), abs=1e-10)

    def test_coherent_element_against_brute_force_and_closed_form(self):
        space = F.FockSpace(modes=(-1.0, 1.0), cap=10)
        u = rand_vec(self.rng, 2, 0.4)
        v = rand_vec(self.rng, 2, 0.5)
        theta = rand_vec(self.rng, 2, 0.5)
        tilde = rand_vec(self.rng, 2, 0.3)
        beta, s_eff = 1.5, 0.2
        xi = F.xi_kernel(space, theta, tilde, beta, s_eff)
        vac = F.vacuum(space)
        coh_u = F.displacement(space, u, "a*") @ vac
        coh_v = F.displacement(space, v, "a*") @ vac
        got = coh_u.conj() @ xi @ coh_v
        brute = brute_coherent_xi_element(u, v, theta, tilde, beta, s_eff,
                                          cap=10)
        assert got == pytest.approx(brute, abs=1e-9)
        inner = lambda a, b: np.sum(np.conj(a) * b)
        closed = np.exp(s_eff) * np.exp(
            inner(u, theta) + inner(tilde, v) + np.exp(-beta) * inner(u, v))
        assert got == pytest.approx(closed, abs=1e-9)

    def test_frobenius_stable_under_cap_increase(self):
        theta = rand_vec(self.rng, 2, 0.5)
        tilde = rand_vec(self.rng, 2, 0.5)
        mats = {}
        for cap in (8, 12):
            space = F.FockSpace(modes=(-1.0, 1.0), cap=cap)
            xi = F.xi_kernel(space, theta, tilde, beta=1.5, s_eff=0.0)
            mats[cap] = (space, xi)
        n8 = np.linalg.norm(mats[8][1])
        assert abs(np.linalg.norm(mats[12][1]) - n8) / n8 < 1e-6
        # the shared block is cap-independent outright: enlarging the
        # space only adds entries, it never reroutes an existing one
        s8, m8 = mats[8]
        s12, m12 = mats[12]
        sel = s12.rows_of(np.array(s8.occupations))
        np.testing.assert_allclose(m12[np.ix_(sel, sel)], m8, atol=1e-12)

    def test_beta_validation(self):
        space = F.FockSpace(modes=(1.0,), cap=4)
        with pytest.raises(ValueError):
            F.xi_kernel(space, np.zeros(1), np.zeros(1), beta=0.0, s_eff=0.0)

    def test_continuity_in_theta(self):
        # ||Xi(theta') - Xi(theta)|| is controlled by the displacement
        # difference bound times the norm of the remaining factors
        space = F.FockSpace(modes=(-1.0, 1.0), cap=12)
        beta = 1.5
        theta = rand_vec(self.rng, 2, 0.4)
        tilde = rand_vec(self.rng, 2, 0.4)
        delta = rand_vec(self.rng, 2, 1e-3)
        xi0 = F.xi_kernel(space, theta, tilde, beta, 0.0)
        xi1 = F.xi_kernel(space, theta + delta, tilde, beta, 0.0)
        change = np.linalg.norm(xi1 - xi0, 2)
        # split e^{-beta N} = e^{-N} e^{-(beta-1) N}; the left factor joins the
        # displacement difference (t = 2 regime), the right one joins
        # e^{a(tilde)} whose adjoint bound applies at t = 2(beta-1) >= 1
        diff = F.difference_bound_check(space, theta + delta, theta, t=2.0)
        tail = F.norm_bound_check(space, np.conj(tilde), t=2 * (beta - 1))
        assert change <= diff["bound"] * tail["bound"]
        # and the change is genuinely O(||delta||)
        assert change < 50 * np.linalg.norm(delta)


class TestNormBounds:
    def setup_method(self):
        self.space = F.FockSpace(modes=(1.0,), cap=12)
        self.rng = np.random.default_rng(SEED + 2)

    def test_f_zero(self):
        rep = F.norm_bound_check(self.space, np.zeros(1), t=2.0)
        assert rep["norm"] == pytest.approx(1.0, abs=1e-12)
        assert rep["bound"] == pytest.approx(np.sqrt(2))
        assert rep["margin"] > 0

    @pytest.mark.parametrize("t", [1.0, 1.5, 2.0])
    def test_positive_margin_large_t(self, t):
        f = rand_vec(self.rng, 1, 0.5)
        rep = F.norm_bound_check(self.space, f, t)
        assert rep["margin"] > 0
        assert rep["s_used"] is None

    def test_positive_margin_small_t(self):
        f = rand_vec(self.rng, 1, 0.3)
        rep = F.norm_bound_check(self.space, f, t=0.5)
        assert rep["margin"] > 0
        assert 0 < rep["s_used"] < 0.5

    def test_t_validation(self):
        with pytest.raises(ValueError):
            F.norm_bound_check(self.space, np.zeros(1), t=0.0)

    def test_sandwich_inequality(self):
        # ||e^{a(f)*} e^{-t N} e^{a(f)}|| <= 2 e^{16 ||f||^2} for t >= 1
        f = rand_vec(self.rng, 1, 0.5)
        dstar = F.displacement(self.space, f, "a*")
        d = F.displacement(self.space, f, "a")
        decay = np.exp(-1.0 * self.space.total_occupation)
        norm = np.linalg.norm((dstar * decay[None, :]) @ d, 2)
        assert norm < 2 * np.exp(16 * 0.25)

    @pytest.mark.parametrize("t", [0.5, 1.5])
    def test_difference_bound(self, t):
        f = rand_vec(self.rng, 1, 0.5)
        g = rand_vec(self.rng, 1, 0.5)
        rep = F.difference_bound_check(self.space, f, g, t)
        assert rep["margin"] > 0
        assert rep["norm"] > 0
