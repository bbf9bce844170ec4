"""Truncated-diagonalization tests.

The strongest checks exploit that at eps = 0.5, L = 1 the interaction
lattice k = 2 pi m / L is damped to e^{-eps k^2} ~ 3e-9 per vertex for
every nonzero mode, so the Fock space keeps only the k = 0 mode and the
model is (Dirichlet electron) x (single displaced oscillator), both
exactly solvable.  Shapes that must reach the eigsh branch (dim > 1500)
run at eps = 0.05, where m = 1..3 stay in the space.  The ground energy
and the ratio oracle are held against `oracles.full_coupling_hamiltonian`,
the space with every mode m <= k_max in it and coupled.
"""

import json
import logging
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

import oracles
from polaron1d import exact_diag as ed
from polaron1d.action import PotentialSpec
from polaron1d.fock import FockSpace
from polaron1d.kernels import ModelParams, damped_mode_count


def params_for(alpha, N=1, beta=2.0):
    return ModelParams(alpha=alpha, N=N, L=1.0, beta=beta)


def count_eigsh_products(monkeypatch):
    """Route scipy's eigsh through an operator that records each product."""
    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def counted(A, *args, **kwargs):
        def matvec(x):
            calls.append(1)
            return A.matvec(x)

        op = scipy.sparse.linalg.LinearOperator(A.shape, matvec=matvec, dtype=A.dtype)
        return eigsh(op, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
    return calls


class TestDiscretizationSpec:
    def test_rejects_zero_epsilon(self):
        with pytest.raises(ValueError):
            ed.DiscretizationSpec(8, 2, 2, 0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_rejects_non_finite_epsilon(self, eps):
        with pytest.raises(ValueError, match="finite"):
            ed.DiscretizationSpec(8, 2, 2, eps)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ed.DiscretizationSpec(0, 2, 2, 0.5)
        with pytest.raises(ValueError):
            ed.DiscretizationSpec(8, -1, 2, 0.5)
        with pytest.raises(ValueError):
            ed.DiscretizationSpec(8, 2, -1, 0.5)


class TestSineBasis:
    def test_orthonormal_under_quadrature(self):
        x, w = np.polynomial.legendre.leggauss(200)
        psi = ed._sine_values(x, 10, 1.0)
        gram = (psi * w[None, :]) @ psi.T
        np.testing.assert_allclose(gram, np.eye(10), atol=1e-13)

    def test_free_ground_energy(self):
        assert abs(ed.single_particle_energies(1)[0] - np.pi**2 / 8) < 1e-14

    @pytest.mark.parametrize("k", [0.0, 2 * np.pi, -2 * np.pi, 4 * np.pi, 6 * np.pi,
                                   8 * np.pi])
    def test_exp_elements_match_quadrature(self, k):
        # the lattice k = 2 pi m / L at L = 1
        cos, sin = ed.lattice_elements(round(k / (2 * np.pi)), 14)
        x, w = np.polynomial.legendre.leggauss(400)
        psi = ed._sine_values(x, 14, 1.0)
        quad = (psi * (np.exp(1j * k * x) * w)[None, :]) @ psi.T
        np.testing.assert_allclose(cos + 1j * sin, quad, rtol=0, atol=1e-12)

    def test_exp_elements_symmetries(self):
        # symmetric in (a, b); cos kx even and sin kx odd in k
        for m in (1, 2, 3):
            cos, sin = ed.lattice_elements(m, 14)
            cos_neg, sin_neg = ed.lattice_elements(-m, 14)
            np.testing.assert_array_equal(cos, cos.T)
            np.testing.assert_array_equal(sin, sin.T)
            np.testing.assert_array_equal(cos_neg, cos)
            np.testing.assert_array_equal(sin_neg, -sin)


def electronic_matrix(N, symmetry, pot, spec):
    """h_el as build_H_eps holds it: alpha = 0, the vacuum alone."""
    return ed.build_H_eps(N, symmetry, pot, params_for(0.0, N=N),
                          replace(spec, n_ph_max=0)).toarray()


class TestBuildHel:
    def test_free_particle_is_diagonal(self):
        H = electronic_matrix(1, "none", None, ed.DiscretizationSpec(8, 2, 2, 0.5))
        np.testing.assert_allclose(H, np.diag(ed.single_particle_energies(8)),
                                   atol=1e-15)

    def test_constant_potential_shifts_spectrum(self):
        pot = PotentialSpec(V=lambda x: 0.7 * np.ones_like(x))
        H = electronic_matrix(1, "none", pot, ed.DiscretizationSpec(8, 2, 2, 0.5))
        expected = np.diag(ed.single_particle_energies(8)) + 0.7 * np.eye(8)
        np.testing.assert_allclose(H, expected, atol=1e-12)

    @pytest.mark.parametrize("n_el", [4, 6, 8, 10, 14])
    @pytest.mark.parametrize("pot", [None, PotentialSpec(V=lambda x: 0.7 * x**2,
                                                         W=lambda r: 0.3 * r**2)],
                             ids=["free", "VW"])
    def test_electronic_ground_is_the_coupled_vacuum_block(self, pot, n_el):
        # E_el(S) solves the electron block that every coupled Hamiltonian
        # carries: at alpha = 0 the block of the empty Fock state is h_el
        # itself, so the two energies agree to the bit
        spec = ed.DiscretizationSpec(n_el, 2, 2, 0.5)
        for N, symmetry in ((1, "none"), (2, "symmetric"), (2, "antisymmetric")):
            params = params_for(0.0, N=N)
            H = ed.build_H_eps(N, symmetry, pot, params, spec)
            n_b = FockSpace(modes=range(1 + 2 * ed.kept_modes(params, spec)),
                            cap=spec.n_ph_max).dim
            block = scipy.sparse.csr_matrix(H[::n_b, ::n_b])
            want = ed.ground(block, m=1).ground_energy
            assert ed.electronic_ground(N, symmetry, pot, spec) == want

    def test_two_body_free_ground_energies(self):
        spec = ed.DiscretizationSpec(10, 2, 2, 0.5)
        e_sym = ed.electronic_ground(2, "symmetric", None, spec)
        e_anti = ed.electronic_ground(2, "antisymmetric", None, spec)
        assert abs(e_sym - np.pi**2 / 4) < 1e-10
        assert abs(e_anti - 5 * np.pi**2 / 8) < 1e-10

    def test_constant_pair_potential(self):
        pot = PotentialSpec(W=lambda r: 0.3 * np.ones_like(r))
        spec = ed.DiscretizationSpec(6, 2, 2, 0.5)
        for symmetry, e_free in [("symmetric", np.pi**2 / 4),
                                 ("antisymmetric", 5 * np.pi**2 / 8)]:
            e = ed.electronic_ground(2, symmetry, pot, spec)
            assert abs(e - e_free - 0.3) < 1e-10

    def test_pair_isometry_columns_orthonormal(self):
        for symmetry in ("symmetric", "antisymmetric"):
            T = ed.pair_basis_isometry(5, symmetry)
            np.testing.assert_allclose(T.T @ T, np.eye(T.shape[1]), atol=1e-14)

    def test_bad_sector_labels(self):
        spec = ed.DiscretizationSpec(4, 1, 1, 0.5)
        with pytest.raises(ValueError):
            electronic_matrix(1, "symmetric", None, spec)
        with pytest.raises(ValueError):
            electronic_matrix(2, "none", None, spec)
        with pytest.raises(ValueError):
            electronic_matrix(3, "none", None, spec)


class TestBuildHeps:
    def test_dimension_formula(self):
        # 1 + 2 K quadrature modes, K = min(k_max, damped_mode_count(2 eps)):
        # K = 0 at eps = 0.5, K = 3 of k_max = 4 at eps = 0.05
        from math import comb
        for eps, modes, dim in [(0.5, 1, 60), (0.05, 7, 3960)]:
            spec = ed.DiscretizationSpec(12, 4, 4, eps)
            H = ed.build_H_eps(1, "none", None, params_for(1.0), spec)
            assert H.shape[0] == 12 * comb(4 + modes, modes) == dim

    @pytest.mark.parametrize("N,symmetry", [(1, "none"), (2, "symmetric"),
                                            (2, "antisymmetric")])
    def test_real_symmetric(self, N, symmetry):
        spec = ed.DiscretizationSpec(5, 2, 2, 0.5)
        H = ed.build_H_eps(N, symmetry, None, params_for(0.8, N=N), spec)
        assert H.dtype == np.float64
        defect = abs(H - H.T).max()
        assert defect <= 1e-12 * abs(H).max()

    def test_alpha_zero_decouples(self):
        spec = ed.DiscretizationSpec(6, 2, 3, 0.5)
        H = ed.build_H_eps(1, "none", None, params_for(0.0), spec)
        res = ed.ground(H, m=8)
        # eps = 0.5 keeps only the k = 0 mode of k_max = 2
        space = FockSpace(modes=(0.0,), cap=3)
        el = ed.single_particle_energies(6)
        expected = np.sort(np.add.outer(el, space.total_occupation).ravel())[:8]
        np.testing.assert_allclose(res.eigenvalues, expected, atol=1e-10)

    def test_displaced_oscillator_separation(self):
        # at eps = 0.5 only the k = 0 mode couples (others damped to ~3e-9
        # per vertex, entering energies quadratically); the model separates
        # into Dirichlet electron + one displaced oscillator, both solvable
        alpha = 1.0
        params = params_for(alpha)
        cap = 4
        spec = ed.DiscretizationSpec(10, 2, cap, 0.5)
        res = ed.sector_ground(1, "none", None, params, spec)
        c = np.sqrt(params.g_L)
        n = np.arange(cap + 1)
        Hb = (np.diag(n.astype(float))
              + np.diag(c * np.sqrt(n[1:]), 1) + np.diag(c * np.sqrt(n[1:]), -1))
        e_boson = np.linalg.eigvalsh(Hb)[0]
        assert abs(res.ground_energy - (np.pi**2 / 8 + e_boson)) < 1e-9

    def test_ground_below_free_at_positive_alpha(self):
        spec = ed.DiscretizationSpec(10, 2, 4, 0.5)
        res = ed.sector_ground(1, "none", None, params_for(1.0), spec)
        assert res.ground_energy < np.pi**2 / 8

    def test_n_must_match_params(self):
        # the positional N used to win silently over params.N
        spec = ed.DiscretizationSpec(5, 1, 1, 0.5)
        with pytest.raises(ValueError, match="params.N"):
            ed.build_H_eps(2, "symmetric", None, params_for(1.0), spec)
        with pytest.raises(ValueError, match="params.N"):
            ed.sector_ground(1, "none", None, params_for(1.0, N=2), spec)

    def test_positive_gap_at_half_coupling(self):
        spec = ed.DiscretizationSpec(10, 2, 4, 0.5)
        res = ed.sector_ground(1, "none", None, params_for(0.5), spec)
        assert res.gap > 1e-6


class TestGround:
    def test_rejects_asymmetric(self):
        H = scipy.sparse.csr_matrix([[1.0, 2.0], [0.0, 3.0]])
        with pytest.raises(ValueError, match="symmetric"):
            ed.ground(H)

    def test_residual_certificates(self):
        spec = ed.DiscretizationSpec(8, 2, 3, 0.5)
        res = ed.sector_ground(1, "none", None, params_for(0.7), spec, m=3)
        assert res.residuals.shape == (3,)
        assert np.all(res.residuals <= 1e-8 * res.norm_scale)
        assert np.all(np.diff(res.eigenvalues) >= -1e-12)

    def test_m_clamped_to_dimension(self):
        H = scipy.sparse.csr_matrix(np.diag([1.0, 2.0]))
        res = ed.ground(H, m=5)
        np.testing.assert_allclose(res.eigenvalues, [1.0, 2.0], atol=1e-14)

    def test_dense_levels_are_the_lowest_of_the_full_spectrum(self):
        spec = ed.DiscretizationSpec(10, 4, 4, 0.5)
        H = ed.build_H_eps(2, "symmetric", None, params_for(1.0, N=2), spec)
        res = ed.ground(H, m=3)
        assert res.provenance["solver"] == "dense"
        full = scipy.linalg.eigh(H.toarray(), eigvals_only=True)
        np.testing.assert_allclose(res.eigenvalues, full[:3], rtol=0,
                                   atol=1e-14 * res.norm_scale)

    def test_degenerate_level_solves_in_one_call(self, monkeypatch):
        # level 0.929464 of this Hamiltonian is degenerate; eigsh at tol 0
        # stalled there for 1.5 million products before the retry
        calls = count_eigsh_products(monkeypatch)
        params = params_for(1.0)
        spec = ed.DiscretizationSpec(8, 3, 4, 0.3)
        H = oracles.full_coupling_hamiltonian(1, "none", None, params, spec)
        res = ed.ground(H, m=2)
        assert res.provenance["solver"] == "eigsh"
        assert res.provenance["matvecs"] == len(calls) < 1000
        assert np.all(res.residuals <= 1e-8 * res.norm_scale)

    def test_no_convergence_is_named(self, monkeypatch):
        def stalled(A, k, **kwargs):
            A.matvec(np.ones(A.shape[0]))
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "ARPACK error -1: No convergence", np.zeros(0), np.zeros((A.shape[0], 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
        H = ed.build_H_eps(1, "none", None, params_for(1.0),
                           ed.DiscretizationSpec(8, 3, 4, 0.05))
        with pytest.raises(ed.InvariantViolation) as exc:
            ed.ground(H, m=2)
        assert exc.value.name == "spectrum-convergence"
        assert f"dim {H.shape[0]}, m 2, ncv 60, 1 products" in str(exc.value)

    def test_one_blas_thread_restores_the_count(self):
        if not ed._BLAS_CONTROLS:
            pytest.skip("numpy and scipy do not call OpenBLAS here")
        before = [get() for get, _ in ed._BLAS_CONTROLS]
        with pytest.raises(RuntimeError):
            with ed._one_blas_thread():
                with ed._one_blas_thread():
                    assert [get() for get, _ in ed._BLAS_CONTROLS] == [1] * len(before)
                assert [get() for get, _ in ed._BLAS_CONTROLS] == [1] * len(before)
                raise RuntimeError
        assert [get() for get, _ in ed._BLAS_CONTROLS] == before


class TestAssembly:
    """The one-step CSR assembly against the term-by-term kron sum."""

    V_AND_W = PotentialSpec(V=lambda x: 0.4 * x**2 - 0.3,
                            W=lambda r: 0.2 * np.cos(np.pi * r))
    # (N, symmetry, sizes, eps, alpha, pot); the two eps = 0.5 shapes are
    # benchmark shapes whose E_k hold parity and sinc zeros as rounding
    # residue, which the assembly must store as the kron sum does
    CASES = {
        "n1": (1, "none", (6, 2, 3), 0.3, 1.0, None),
        "n1-alpha0": (1, "none", (5, 2, 3), 0.3, 0.0, None),
        "n1-kmax0": (1, "none", (6, 0, 4), 0.3, 1.0, None),
        "n1-V": (1, "none", (6, 2, 3), 0.3, 0.6, V_AND_W),
        "n1-eps0.5": (1, "none", (6, 5, 3), 0.5, 1.0, None),
        "n2-sym": (2, "symmetric", (5, 2, 2), 0.3, 0.8, None),
        "n2-sym-kmax0": (2, "symmetric", (4, 0, 3), 0.3, 1.0, None),
        "n2-sym-eps0.5": (2, "symmetric", (10, 4, 4), 0.5, 1.0, None),
        "n2-anti": (2, "antisymmetric", (5, 2, 2), 0.3, 0.8, None),
        "n2-anti-alpha0": (2, "antisymmetric", (5, 1, 2), 0.3, 0.0, V_AND_W),
        "n2-anti-VW": (2, "antisymmetric", (5, 1, 2), 0.3, 0.7, V_AND_W),
    }

    @staticmethod
    def args(case):
        N, symmetry, sizes, eps, alpha, pot = TestAssembly.CASES[case]
        return (N, symmetry, pot, params_for(alpha, N=N),
                ed.DiscretizationSpec(*sizes, eps))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_kron_sum_bitwise(self, case):
        H = ed.build_H_eps(*self.args(case))
        want = oracles.kron_sum_hamiltonian(*self.args(case))
        assert isinstance(H, scipy.sparse.csr_matrix)
        assert H.shape == want.shape and H.nnz == want.nnz
        for name in ("data", "indices", "indptr"):
            got, ref = getattr(H, name), getattr(want, name)
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()

    def test_interaction_terms_only_at_positive_alpha(self):
        # at alpha = 0 every entry is boson-diagonal; above it the Fock
        # space holds the k = 0 mode and a cosine and a sine per mode the
        # damping keeps, and entries off the boson diagonal couple them
        from math import comb
        for case in ("n1-alpha0", "n1-kmax0", "n2-sym"):
            N, symmetry, pot, params, spec = self.args(case)
            modes = 1 + 2 * min(spec.k_max, damped_mode_count(2 * spec.epsilon))
            n_b = comb(spec.n_ph_max + modes, modes)
            H = ed.build_H_eps(N, symmetry, pot, params, spec)
            assert H.shape[0] == ed._Sector(N, symmetry, spec.n_el_basis).dim * n_b
            rows, cols = H.nonzero()
            assert np.any(rows % n_b != cols % n_b) == (params.alpha > 0)

    @pytest.mark.parametrize("target", ["boson-diagonal", "coupling"])
    def test_asymmetric_entry_rejected(self, target):
        N, symmetry, pot, params, spec = self.args("n2-anti-VW")
        H = ed.build_H_eps(N, symmetry, pot, params, spec)
        n_b = H.shape[0] // ed._Sector(N, symmetry, spec.n_el_basis).dim
        rows, cols = H.nonzero()
        boson_diagonal = rows % n_b == cols % n_b
        pick = boson_diagonal & (rows != cols) if target == "boson-diagonal" \
            else ~boson_diagonal
        r, c = rows[pick][0], cols[pick][0]
        bad = H.copy()
        bad[r, c] += 1e-3
        assert abs(bad - bad.T).max() == pytest.approx(1e-3, rel=1e-9)
        ed.ground(H)
        with pytest.raises(ValueError, match="symmetric"):
            ed.ground(bad)

    def test_operator_lanczos_matches_dense(self):
        # eps = 0.05 keeps m = 1..3 of k_max = 3: dim 2640.  At alpha = 0
        # the level e_1 + 1 is seven-fold, one quantum in any of the seven
        # modes, and must come back twice
        spec = ed.DiscretizationSpec(8, 3, 4, 0.05)
        e1 = ed.single_particle_energies(1)[0]
        free = ed.ground(ed.build_H_eps(1, "none", None, params_for(0.0), spec), m=3)
        assert free.provenance["solver"] == "eigsh"
        np.testing.assert_allclose(free.eigenvalues, [e1, e1 + 1, e1 + 1], atol=1e-9)
        H = ed.build_H_eps(1, "none", None, params_for(1.0), spec)
        assert H.shape[0] > 1500
        res = ed.ground(H, m=3)
        dense = scipy.linalg.eigh(H.toarray(), eigvals_only=True)[:3]
        np.testing.assert_allclose(res.eigenvalues, dense, atol=1e-9)

    def test_selection_rule_zeros_are_exact(self):
        # <a|cos kx|b> lives on |a - b| = 4m or a + b = 4m, <a|sin kx|b> on
        # odd a + b; everywhere else the stored entries are exact zeros
        n = 12
        spec = ed.DiscretizationSpec(n, 3, 2, 0.02)
        blocks = ed._interaction_blocks(ed._Sector(1, "none", n), spec,
                                        params_for(1.0), 3)
        el_mats = [E for _, E in blocks]
        a = np.arange(1, n + 1)
        summ, diff = np.add.outer(a, a), np.abs(np.subtract.outer(a, a))
        np.testing.assert_array_equal(el_mats[0], np.eye(n))
        for m in (1, 2, 3):
            for E, rule in [(el_mats[2 * m - 1], (diff == 4 * m) | (summ == 4 * m)),
                            (el_mats[2 * m], summ % 2 == 1)]:
                assert np.count_nonzero(E) == np.count_nonzero(rule)
                assert np.all(E[~rule] == 0.0)

    @pytest.mark.parametrize("symmetry", ["symmetric", "antisymmetric"])
    def test_k0_block_is_exactly_n_identity(self, symmetry):
        # (1/sqrt 2)^2 rounds below 1/2: lifting the identity would leave
        # 1.9999999999999996 on the diagonal
        sector = ed._Sector(2, symmetry, 5)
        [(_, E0), *_] = ed._interaction_blocks(
            sector, ed.DiscretizationSpec(5, 1, 1, 0.5), params_for(1.0, N=2), 1)
        np.testing.assert_array_equal(E0, 2 * np.eye(sector.dim))


class TestModeRule:
    """Only the modes m <= damped_mode_count(2 eps) are in the Fock space."""

    @pytest.mark.parametrize("eps", [0.5, 0.3])
    @pytest.mark.parametrize("N,symmetry,sizes", [
        (1, "none", (6, 3, 3)), (1, "none", (8, 3, 4)), (2, "symmetric", (5, 2, 2))])
    def test_dropped_modes_leave_ground_energies(self, eps, N, symmetry, sizes):
        # the dropped modes add only the copies E_i(cap - j) + j, so the
        # ground energy is that of the space with every mode coupled
        params = params_for(1.0, N=N)
        spec = ed.DiscretizationSpec(*sizes, eps)
        H = ed.build_H_eps(N, symmetry, None, params, spec)
        full = oracles.full_coupling_hamiltonian(N, symmetry, None, params, spec)
        assert H.shape[0] < full.shape[0]
        got, want = ed.ground(H, m=3), ed.ground(full, m=3)
        # relative to ||H||: the scale at which the solvers resolve
        # eigenvalues, far above the dropped couplings' e^{-37} g_L
        assert abs(got.ground_energy - want.ground_energy) <= 1e-14 * want.norm_scale

    def test_nothing_dropped_at_small_eps(self):
        params = params_for(1.0, N=2)
        spec = ed.DiscretizationSpec(5, 3, 2, 0.02)
        H = ed.build_H_eps(2, "antisymmetric", None, params, spec)
        full = oracles.full_coupling_hamiltonian(2, "antisymmetric", None, params, spec)
        assert ed.kept_modes(params, spec) == spec.k_max == 3
        for name in ("data", "indices", "indptr"):
            assert getattr(H, name).tobytes() == getattr(full, name).tobytes()

    def test_products_hold_no_subnormals(self):
        # at eps = 0.5 the couplings of m = 2, 3, 4 would be 8.6e-35 and
        # below; a few products would leave subnormal entries in the state,
        # and every product that touches them runs several times slower
        spec = ed.DiscretizationSpec(12, 4, 4, 0.5)
        H = ed.build_H_eps(1, "none", None, params_for(1.0), spec)
        v = ed.uniform_vacuum_vector(spec, H.shape[0] // spec.n_el_basis)
        for _ in range(30):
            v = H @ v
            v /= np.linalg.norm(v)
            assert np.count_nonzero((v != 0) & (np.abs(v) < np.finfo(float).tiny)) == 0


class TestProvenance:
    """What each solve did, in the result and on the "polaron1d" logger."""

    def test_dense_sector_solve(self, caplog):
        spec = ed.DiscretizationSpec(8, 2, 3, 0.5)
        H = ed.build_H_eps(1, "none", None, params_for(0.7), spec)
        with caplog.at_level(logging.INFO, logger="polaron1d"):
            res = ed.sector_ground(1, "none", None, params_for(0.7), spec, m=3)
        prov = res.provenance
        assert prov["N"] == 1 and prov["k_max"] == 2
        # eps = 0.5 leaves only the k = 0 mode in the space
        assert prov["boson_modes"] == 1
        assert (prov["dim"], prov["nnz"]) == (H.shape[0], H.nnz)
        assert (prov["solver"], prov["ncv"], prov["tol"]) == ("dense", None, None)
        assert prov["matvecs"] == 0
        assert "coupled_modes" not in prov
        assert prov["residuals"] == res.residuals.tolist()
        assert prov["assemble_s"] >= 0.0 and prov["solve_s"] >= 0.0
        json.dumps(prov)
        [rec] = [r for r in caplog.records if r.name == "polaron1d"]
        assert rec.levelno == logging.INFO
        assert " nnz=%d solver=dense " % H.nnz in rec.getMessage()
        assert "matvecs=0" in rec.getMessage()
        assert logging.getLogger("polaron1d").handlers == []

    def test_lanczos_sector_solve(self, monkeypatch, caplog):
        calls = count_eigsh_products(monkeypatch)
        spec = ed.DiscretizationSpec(8, 3, 4, 0.05)
        with caplog.at_level(logging.INFO, logger="polaron1d"):
            res = ed.sector_ground(1, "none", None, params_for(1.0), spec, m=3)
        prov = res.provenance
        assert prov["solver"] == "eigsh"
        assert prov["boson_modes"] == 1 + 2 * 3
        assert prov["matvecs"] == len(calls) > 0
        [rec] = [r for r in caplog.records if r.name == "polaron1d"]
        assert " solver=eigsh " in rec.getMessage()
        assert f"matvecs={len(calls)} " in rec.getMessage()

    def test_lanczos_solve(self, monkeypatch, caplog):
        # tridiagonal: diagonal sqrt(j), off-diagonal 0.01; the diagonal's
        # leading 0 is not stored
        calls = count_eigsh_products(monkeypatch)
        dim = 2000
        off = np.full(dim - 1, 0.01)
        H = scipy.sparse.diags([off, np.sqrt(np.arange(dim, dtype=float)), off],
                               [-1, 0, 1], format="csr")
        H.eliminate_zeros()
        with caplog.at_level(logging.INFO, logger="polaron1d"):
            res = ed.ground(H, m=2)
        prov = res.provenance
        assert (prov["dim"], prov["nnz"]) == (dim, 3 * dim - 3)
        assert prov["solver"] == "eigsh" and prov["ncv"] == 60 and prov["tol"] == 1e-11
        assert prov["matvecs"] == len(calls) > 0
        assert len(prov["residuals"]) == 2 and "assemble_s" not in prov
        json.dumps(prov)
        [rec] = [r for r in caplog.records if r.name == "polaron1d"]
        assert f" nnz={3 * dim - 3} solver=eigsh " in rec.getMessage()
        assert f"matvecs={len(calls)} " in rec.getMessage()

    def test_matvec_count_is_per_call(self):
        dim = 2000
        H = scipy.sparse.diags(np.arange(dim, dtype=float), format="csr")
        first = ed.ground(H, m=2).provenance["matvecs"]
        assert ed.ground(H, m=2).provenance["matvecs"] == first > 0


class TestSectorSweep:
    def test_two_particle_table_orderings(self):
        spec = ed.DiscretizationSpec(8, 2, 2, 0.5)
        rows = ed.sector_sweep([0.0, 0.5, 1.0], ("symmetric", "antisymmetric"),
                               None, params_for(1.0, N=2), spec)
        assert len(rows) == 6
        for row in rows:
            if row["alpha"] == 0.0:
                assert abs(row["e_eps"] - row["e_el"]) < 1e-10
            else:
                assert row["e_eps"] < row["e_el"]
        e = {(r["alpha"], r["sector"]): r["e_eps"] for r in rows}
        for a in (0.0, 0.5, 1.0):
            assert e[(a, "symmetric")] < e[(a, "antisymmetric")]
        for sector in ("symmetric", "antisymmetric"):
            assert e[(1.0, sector)] < e[(0.5, sector)] < e[(0.0, sector)]

    def test_violation_guard_fires(self, monkeypatch):
        calls = {"n": 0}

        def rigged(N, symmetry, pot, params, spec, m=2):
            calls["n"] += 1
            fake = 1.0 + params.alpha  # energy rising with coupling
            return ed.SpectrumResult(
                eigenvalues=np.array([fake, fake + 1]), residuals=np.zeros(2),
                gap=1.0, norm_scale=1.0)

        monkeypatch.setattr(ed, "sector_ground", rigged)
        monkeypatch.setattr(ed, "electronic_ground",
                            lambda *a, **k: 10.0)
        with pytest.raises(ed.InvariantViolation) as exc:
            ed.sector_sweep([0.0, 1.0], ("none",), None, params_for(1.0),
                            ed.DiscretizationSpec(4, 1, 1, 0.5))
        assert exc.value.name == "alpha-monotonicity"

    def test_sector_must_fit_params_n(self):
        # N comes from params.N: the N = 1 label at N = 2 is refused, not
        # solved as N = 1
        spec = ed.DiscretizationSpec(4, 1, 1, 0.5)
        with pytest.raises(ValueError, match="N = 2"):
            ed.sector_sweep([0.0, 1.0], ("none",), None, params_for(1.0, N=2), spec)
        with pytest.raises(ValueError, match="N = 1"):
            ed.sector_sweep([1.0], ("symmetric",), None, params_for(1.0), spec)


class TestTruncationBudget:
    def test_variational_monotonicity(self):
        params = params_for(1.0)
        base = ed.DiscretizationSpec(6, 2, 2, 0.5)
        e_base = ed.sector_ground(1, "none", None, params, base).ground_energy
        for upgrade in [ed.DiscretizationSpec(8, 2, 2, 0.5),
                        ed.DiscretizationSpec(6, 3, 2, 0.5),
                        ed.DiscretizationSpec(6, 2, 3, 0.5)]:
            e_up = ed.sector_ground(1, "none", None, params, upgrade).ground_energy
            assert e_up <= e_base + 1e-12

    def test_budget_small_at_quarter_coupling(self):
        # the stated upgrade pair; at alpha = 1 the near-zero ground energy
        # makes the relative budget blow up (phonon cap truncation of the
        # k = 0 displaced oscillator), so the sub-percent regime is the
        # weak-coupling end
        params = params_for(0.25)
        e_small = ed.sector_ground(1, "none", None, params,
                                   ed.DiscretizationSpec(10, 3, 3, 0.5)).ground_energy
        e_large = ed.sector_ground(1, "none", None, params,
                                   ed.DiscretizationSpec(14, 5, 5, 0.5)).ground_energy
        assert abs(e_large - e_small) / abs(e_large) < 0.005
        assert e_large <= e_small + 1e-12


class TestRichardson:
    def test_coarse_ladder_refused(self):
        # on the 2 pi m / L lattice the first mode switches on exponentially
        # around eps ~ 1/(2 pi)^2, so differences along a coarse ladder grow
        # and no power law in eps extrapolates it to eps = 0
        params = params_for(1.0)
        ladder = [0.4, 0.2, 0.1, 0.05]
        energies = [ed.sector_ground(
            1, "none", None, params,
            ed.DiscretizationSpec(8, 6, 3, e)).ground_energy for e in ladder]
        assert all(b < a for a, b in zip(energies, energies[1:]))
        steps = np.diff(energies)
        assert all(b < a for a, b in zip(steps, steps[1:]))


class TestRatioOracle:
    def test_rejects_two_particles(self):
        spec = ed.DiscretizationSpec(6, 1, 2, 0.5)
        with pytest.raises(ValueError):
            ed.ratio_energy_oracle(params_for(1.0, N=2), spec, 2.0, 0.5)
        with pytest.raises(ValueError):
            ed.ratio_energy_oracle(params_for(1.0), spec, -1.0, 0.5)
        with pytest.raises(ValueError):
            ed.ratio_energy_oracle(params_for(1.0), spec, 2.0, 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["beta", "delta"])
    def test_non_finite_horizons_rejected_by_name(self, name, value):
        # each used to come back as nan with only numpy warnings
        spec = ed.DiscretizationSpec(6, 1, 2, 0.5)
        horizons = {"beta": 2.0, "delta": 0.5, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ed.ratio_energy_oracle(params_for(1.0), spec, **horizons)

    def test_alpha_zero_matches_electron_only(self):
        spec = ed.DiscretizationSpec(10, 2, 3, 0.5)
        got = ed.ratio_energy_oracle(params_for(0.0), spec, 2.0, 0.5)
        h_el = np.diag(ed.single_particle_energies(10))
        n = np.arange(1, 11)
        u = 2 * (1 - (-1.0) ** n) / (n * np.pi)
        z = lambda T: u @ scipy.linalg.expm(-T * h_el) @ u
        expected = -np.log(z(2.5) / z(2.0)) / 0.5
        assert abs(got - expected) < 1e-10

    def test_separable_oracle_at_strong_damping(self):
        # eps = 0.5: electron and k = 0 oscillator ratio parts add exactly
        params = params_for(1.0)
        cap = 4
        spec = ed.DiscretizationSpec(10, 2, cap, 0.5)
        got = ed.ratio_energy_oracle(params, spec, 2.0, 0.5)
        h_el = np.diag(ed.single_particle_energies(10))
        n = np.arange(1, 11)
        u = 2 * (1 - (-1.0) ** n) / (n * np.pi)
        z_el = lambda T: u @ scipy.linalg.expm(-T * h_el) @ u
        c = np.sqrt(params.g_L)
        nn = np.arange(cap + 1)
        Hb = (np.diag(nn.astype(float))
              + np.diag(c * np.sqrt(nn[1:]), 1) + np.diag(c * np.sqrt(nn[1:]), -1))
        vac = np.zeros(cap + 1)
        vac[0] = 1.0
        z_b = lambda T: vac @ scipy.linalg.expm(-T * Hb) @ vac
        expected = (-np.log(z_el(2.5) / z_el(2.0)) / 0.5
                    - np.log(z_b(2.5) / z_b(2.0)) / 0.5)
        assert abs(got - expected) < 1e-9

    V_ONLY = PotentialSpec(V=lambda x: 0.4 * x**2 - 0.3)

    @pytest.mark.parametrize("sizes,eps,alpha,beta,delta,pot", [
        ((12, 4, 4), 0.5, 1.0, 2.0, 0.5, None),
        ((8, 3, 3), 0.1, 1.0, 2.0, 0.5, None),
        ((8, 3, 3), 0.05, 0.7, 1.0, 0.25, None),
        ((10, 2, 4), 0.3, 1.5, 3.0, 1.0, V_ONLY),
        ((6, 5, 3), 0.02, 1.0, 0.5, 0.5, None),
    ])
    def test_quadrature_matches_expm(self, sizes, eps, alpha, beta, delta, pot):
        params, spec = params_for(alpha), ed.DiscretizationSpec(*sizes, eps)
        got = ed.ratio_energy_oracle(params, spec, beta, delta, pot)
        H = ed.build_H_eps(1, "none", pot, params, spec)
        want = oracles.expm_ratio_energy(H, spec, beta, delta, params.L)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("sizes,eps", [((12, 4, 4), 0.5), ((8, 3, 3), 0.1)])
    def test_dropped_modes_leave_oracle(self, sizes, eps):
        # the reference vector lies in the block with the dropped modes empty
        params, spec = params_for(1.0), ed.DiscretizationSpec(*sizes, eps)
        got = ed.ratio_energy_oracle(params, spec, 2.0, 0.5)
        full = oracles.full_coupling_hamiltonian(1, "none", None, params, spec)
        want = oracles.expm_ratio_energy(full, spec, 2.0, 0.5, params.L)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_pinned_criterion_3_oracle(self):
        pinned = -0.022781198768949535
        got = ed.ratio_energy_oracle(params_for(1.0), ed.DiscretizationSpec(12, 4, 4, 0.5),
                                     2.0, 0.5)
        assert abs(got - pinned) <= 1e-11 * abs(pinned)

    def test_unsettled_quadrature_raises(self, monkeypatch):
        monkeypatch.setattr(ed, "_LANCZOS_MAX_STEPS", 5)
        with pytest.raises(ed.InvariantViolation) as exc:
            ed.ratio_energy_oracle(params_for(1.0), ed.DiscretizationSpec(8, 3, 3, 0.1),
                                   2.0, 0.5)
        assert exc.value.name == "oracle-convergence"

    def test_one_info_record(self, caplog):
        with caplog.at_level(logging.INFO, logger="polaron1d"):
            ed.ratio_energy_oracle(params_for(1.0), ed.DiscretizationSpec(8, 3, 3, 0.1),
                                   2.0, 0.5)
        [rec] = [r for r in caplog.records if r.name == "polaron1d"]
        assert rec.levelno == logging.INFO
        msg = rec.getMessage()
        # eps = 0.1 keeps m = 1, 2 of k_max = 3
        assert msg.startswith("ratio_energy_oracle dim=448 boson_modes=5 ")
        steps = int(re.search(r"lanczos_steps=(\d+) ", msg).group(1))
        assert 0 < steps < ed._LANCZOS_MAX_STEPS
        assert re.search(r"last_change=\S+ .*oracle_s=\S+$", msg)
