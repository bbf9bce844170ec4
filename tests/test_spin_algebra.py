from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import numpy as np
import pytest

from polaron1d import spin_algebra as SA
from polaron1d.geometry import SpinSector
from polaron1d.spin_algebra import GridSpace

import oracles

SEED = 90217


def random_full_vector(rng, N, n):
    return rng.normal(size=(n,) * N + (2,) * N)


def random_m_vector(rng, sector, n):
    """Random element of the antisymmetric S^3 = M subspace."""
    N = sector.N
    phi = SA.antisymmetrize(random_full_vector(rng, N, n), N, block="all")
    out = np.zeros_like(phi)
    m = float(sector.M)
    for idx in np.ndindex(*(2,) * N):
        mm = sum(0.5 if s == SA.UP else -0.5 for s in idx)
        if abs(mm - m) < 1e-12:
            out[(Ellipsis,) + idx] = phi[(Ellipsis,) + idx]
    return out


class TestApplyPermutation:
    def test_identity(self):
        rng = np.random.default_rng(SEED)
        v = random_full_vector(rng, 3, 3)
        ident = (0, 1, 2)
        assert np.array_equal(SA.apply_permutation(ident, v, 3), v)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(SEED + 1)
        v = random_full_vector(rng, 3, 4)
        for pi in permutations(range(3)):
            inv = SA._inverse(pi)
            w = SA.apply_permutation(inv, SA.apply_permutation(pi, v, 3), 3)
            assert np.max(np.abs(w - v)) < 1e-14

    def test_left_action(self):
        rng = np.random.default_rng(SEED + 2)
        v = rng.normal(size=(4,) * 3)
        for pi in permutations(range(3)):
            for rho in permutations(range(3)):
                comp = tuple(pi[rho[k]] for k in range(3))
                a = SA.apply_permutation(pi, SA.apply_permutation(rho, v, 3, "spatial"), 3, "spatial")
                b = SA.apply_permutation(comp, v, 3, "spatial")
                assert np.array_equal(a, b)

    def test_sign_multiplicativity_through_antisymmetrizer(self):
        # A_N o S_pi = sgn(pi) A_N as dense operations, N=3, n=4
        rng = np.random.default_rng(SEED + 3)
        v = random_full_vector(rng, 3, 4)
        a_v = SA.antisymmetrize(v, 3, block="all")
        for pi in permutations(range(3)):
            left = SA.antisymmetrize(SA.apply_permutation(pi, v, 3), 3, block="all")
            assert np.max(np.abs(left - SA.perm_sign(pi) * a_v)) < 1e-13

    def test_unitary(self):
        rng = np.random.default_rng(SEED + 4)
        v = random_full_vector(rng, 2, 5)
        for pi in permutations(range(2)):
            w = SA.apply_permutation(pi, v, 2)
            assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(v), rel=1e-15)


class TestAntisymmetrize:
    def test_idempotent(self):
        rng = np.random.default_rng(SEED + 5)
        v = random_full_vector(rng, 3, 3)
        a1 = SA.antisymmetrize(v, 3, block="all")
        a2 = SA.antisymmetrize(a1, 3, block="all")
        assert np.max(np.abs(a2 - a1)) < 1e-13

    def test_kills_symmetric_product(self):
        f = np.array([0.3, -1.2, 0.5])
        spin = np.array([1.0, 0.0])
        v = np.einsum("a,b,s,t->abst", f, f, spin, spin)
        out = SA.antisymmetrize(v, 2, block="all")
        assert np.max(np.abs(out)) < 1e-15

    def test_block_output_is_block_antisymmetric(self):
        rng = np.random.default_rng(SEED + 6)
        psi = rng.normal(size=(4,) * 3)
        p = 2
        out = SA.antisymmetrize(psi, 3, block=p, spins=False)
        again = SA.antisymmetrize(out, 3, block=p, spins=False)
        assert np.max(np.abs(again - out)) < 1e-13
        # antisymmetry within the first block
        swap = SA.apply_permutation((1, 0, 2), out, 3, target="spatial")
        assert np.max(np.abs(swap + out)) < 1e-13


class TestRepresentativePart:
    @pytest.mark.parametrize("N,n,p", [(2, 3, 1), (3, 3, 1), (3, 4, 2), (4, 3, 2), (4, 3, 1)])
    def test_reconstruction_identity(self, N, n, p):
        # The two-sided decomposition through the reference spin pattern:
        # slicing then reassembling over the cross-block representatives
        # reproduces the vector exactly.
        rng = np.random.default_rng(SEED + 7)
        sector = SpinSector(N, p)
        phi = random_m_vector(rng, sector, n)
        psi = SA.representative_part(phi, sector)
        rebuilt = SA.reconstruct_from_representative(psi, sector)
        assert np.linalg.norm(rebuilt - phi) < 1e-12 * max(1.0, np.linalg.norm(phi))

    def test_round_trip_on_representative(self):
        # representative_part(reconstruct(psi)) = psi for block-antisymmetric
        # psi; the map is an exact bijection with no combinatorial factor.
        rng = np.random.default_rng(SEED + 8)
        sector = SpinSector(3, 1)
        psi = SA.antisymmetrize(rng.normal(size=(4,) * 3), 3, block=1, spins=False)
        back = SA.representative_part(SA.reconstruct_from_representative(psi, sector), sector)
        assert np.max(np.abs(back - psi)) < 1e-12

    def test_output_block_antisymmetric(self):
        rng = np.random.default_rng(SEED + 9)
        sector = SpinSector(3, 2)
        phi = random_m_vector(rng, sector, 4)
        psi = SA.representative_part(phi, sector)
        proj = SA.antisymmetrize(psi, 3, block=2, spins=False)
        assert np.linalg.norm(proj - psi) < 1e-13

    def test_rejects_non_eigenvector(self):
        rng = np.random.default_rng(SEED + 10)
        v = random_full_vector(rng, 2, 3)
        with pytest.raises(ValueError):
            SA.representative_part(v, SpinSector(2, 1))

    def test_injective_on_basis(self):
        # matrix of the slice map over an M-subspace basis has full rank
        # equal to dim K_as_p  (N=3, n=4, all M >= 0 sectors)
        N, n = 3, 4
        for p in (0, 1, 2, 3):
            sector = SpinSector(N, p)
            dim_kas = comb(n, p) * comb(n, N - p)
            assert dim_kas == oracles.antisymmetric_m_dimension(N, n, sector.M)
            rng = np.random.default_rng(SEED + 11 + p)
            cols = []
            for _ in range(dim_kas):
                phi = random_m_vector(rng, sector, n)
                cols.append(SA.representative_part(phi, sector).reshape(-1))
            rank = np.linalg.matrix_rank(np.array(cols).T, tol=1e-10)
            assert rank == dim_kas


class TestReconstruct:
    def test_rejects_bad_input(self):
        rng = np.random.default_rng(SEED + 12)
        psi = rng.normal(size=(4, 4))  # not block-antisymmetric for p=2
        with pytest.raises(ValueError):
            SA.reconstruct_from_representative(psi, SpinSector(2, 2))

    def test_output_is_m_eigenvector(self):
        rng = np.random.default_rng(SEED + 13)
        sector = SpinSector(3, 2)
        psi = SA.antisymmetrize(rng.normal(size=(4,) * 3), 3, block=2, spins=False)
        phi = SA.reconstruct_from_representative(psi, sector)
        m = float(sector.M)
        assert np.linalg.norm(SA.s3_apply(phi, 3) - m * phi) < 1e-12

    def test_output_fully_antisymmetric(self):
        rng = np.random.default_rng(SEED + 14)
        sector = SpinSector(3, 1)
        psi = SA.antisymmetrize(rng.normal(size=(3,) * 3), 3, block=1, spins=False)
        phi = SA.reconstruct_from_representative(psi, sector)
        proj = SA.antisymmetrize(phi, 3, block="all")
        assert np.linalg.norm(proj - phi) < 1e-12

    @pytest.mark.parametrize("N,p", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
    def test_coset_combinatorics(self, N, p):
        # |S_T| = p!(N-p)!, the representative set has C(N,p) - 1 elements,
        # and S_T * ({id} + S_NT) tiles the full symmetric group disjointly.
        taus = list(SA._block_permutations(N, p))
        assert len(taus) == factorial(p) * factorial(N - p)
        reps = [tuple(range(N))] + [pi for pi, _ in SA.nontransposition_set(N, p)]
        assert len(reps) == comb(N, p)
        prods = set()
        for nu in reps:
            for tau in taus:
                prods.add(tuple(tau[nu[k]] for k in range(N)))
        assert len(prods) == factorial(N)

    def test_signs_are_minus_one_to_n(self):
        for pi, sign in SA.nontransposition_set(4, 2):
            assert sign == SA.perm_sign(pi)


class TestIotaExtension:
    def test_norm_factor_n3_p1(self):
        rng = np.random.default_rng(SEED + 15)
        sector = SpinSector(3, 1)
        grid = GridSpace.uniform(4, 1.0)
        psi = SA.restrict_to_ordered(rng.normal(size=(4,) * 3), sector)
        ext = SA.extend_iota_p(psi, sector, grid)
        want = factorial(1) * factorial(2) * np.sum(psi**2)
        assert np.sum(ext**2) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("N,p,n", [(2, 1, 3), (2, 2, 4), (3, 2, 4), (4, 2, 4)])
    def test_norm_factor_general(self, N, p, n):
        rng = np.random.default_rng(SEED + 16)
        sector = SpinSector(N, p)
        grid = GridSpace.uniform(n, 1.0)
        psi = SA.restrict_to_ordered(rng.normal(size=(n,) * N), sector)
        ext = SA.extend_iota_p(psi, sector, grid)
        want = factorial(p) * factorial(N - p) * np.sum(psi**2)
        assert np.sum(ext**2) == pytest.approx(want, rel=1e-12)

    def test_restrict_then_extend_is_identity_on_block_antisymmetric(self):
        rng = np.random.default_rng(SEED + 17)
        sector = SpinSector(3, 2)
        grid = GridSpace.uniform(4, 1.0)
        psi = SA.antisymmetrize(rng.normal(size=(4,) * 3), 3, block=2, spins=False)
        back = SA.extend_iota_p(SA.restrict_to_ordered(psi, sector), sector, grid)
        assert np.max(np.abs(back - psi)) < 1e-12

    def test_injective_full_rank(self):
        # iota_p on the ordered-tuple basis has full column rank
        # (N = 4, n = 5 included: the largest case the claim covers).
        for N, p, n in [(3, 1, 4), (4, 2, 5)]:
            sector = SpinSector(N, p)
            grid = GridSpace.uniform(n, 1.0)
            mask = SA.ordered_support_mask(N, p, n)
            support = np.argwhere(mask)
            cols = []
            for tup in support:
                e = np.zeros((n,) * N)
                e[tuple(tup)] = 1.0
                cols.append(SA.extend_iota_p(e, sector, grid).reshape(-1))
            mat = np.array(cols).T
            assert np.linalg.matrix_rank(mat, tol=1e-10) == support.shape[0]
            assert support.shape[0] == comb(n, p) * comb(n, N - p)

    def test_support_violation_rejected(self):
        sector = SpinSector(2, 2)
        grid = GridSpace.uniform(3, 1.0)
        psi = np.zeros((3, 3))
        psi[2, 1] = 1.0  # not ordered
        with pytest.raises(ValueError):
            SA.extend_iota_p(psi, sector, grid)


class TestSpinOperators:
    # S^3 eigenvalue of every spin pattern, 0 = up, 1 = down
    PATTERN_M = {
        1: {(0,): 0.5, (1,): -0.5},
        2: {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): -1.0},
        3: {(0, 0, 0): 1.5, (0, 0, 1): 0.5, (0, 1, 0): 0.5, (1, 0, 0): 0.5,
            (0, 1, 1): -0.5, (1, 0, 1): -0.5, (1, 1, 0): -0.5, (1, 1, 1): -1.5},
    }

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_s3_scales_each_pattern_of_a_random_vector(self, N):
        rng = np.random.default_rng(SEED + 30 + N)
        v = random_full_vector(rng, N, 3)
        out = SA.s3_apply(v, N)
        assert out.shape == v.shape
        assert len(self.PATTERN_M[N]) == 2**N
        for pattern, m in self.PATTERN_M[N].items():
            idx = (Ellipsis,) + pattern
            assert np.array_equal(out[idx], m * v[idx])

    def test_singlet_triplet(self):
        s2 = SA.spin_operator("S2_total", 2)
        up, down = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        singlet = (np.kron(up, down) - np.kron(down, up)) / np.sqrt(2)
        triplet = np.kron(up, up)
        assert np.linalg.norm(s2 @ singlet) < 1e-14
        assert np.linalg.norm(s2 @ triplet - 2.0 * triplet) < 1e-14

    def test_su2_commutator(self):
        for N in (1, 2, 3):
            sp = SA.spin_operator("S+", N)
            sm = SA.spin_operator("S-", N)
            s3 = SA.spin_operator("S3", N)
            comm = sp @ sm - sm @ sp
            assert np.max(np.abs(comm - 2 * s3)) < 1e-14

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            SA.spin_operator("S4", 2)


class TestRaisingLowering:
    @pytest.mark.parametrize("N,n", [(2, 3), (3, 4)])
    def test_recursions_agree_all_sectors(self, N, n):
        rng = np.random.default_rng(SEED + 18)
        for p in range(N + 1):
            sector = SpinSector(N, p)
            phi = random_m_vector(rng, sector, n)
            if p > 0:
                lhs, rhs = SA.raising_lowering_on_representative(phi, sector, "+")
                assert np.linalg.norm(lhs - rhs) < 1e-12 * max(1.0, np.linalg.norm(lhs))
            if p < N:
                lhs, rhs = SA.raising_lowering_on_representative(phi, sector, "-")
                assert np.linalg.norm(lhs - rhs) < 1e-12 * max(1.0, np.linalg.norm(lhs))

    def test_vandermonde_raising_rhs_vanishes(self):
        # highest-weight states are annihilated by the raising recursion
        for N, p, n in [(2, 1, 3), (3, 1, 4), (4, 2, 4)]:
            sector = SpinSector(N, p)
            if float(sector.M) < 0:
                continue
            grid = GridSpace.uniform(n, 1.0)
            phi = SA.vandermonde_state(sector, grid)
            _, rhs = SA.raising_lowering_on_representative(phi, sector, "+")
            assert np.linalg.norm(rhs) < 1e-12 * np.linalg.norm(SA.representative_part(phi, sector))

    def test_symmetric_representative_gives_zero_rhs(self):
        # N=2, p=1 with a cross-block symmetric representative: the swap
        # term cancels the identity term.
        rng = np.random.default_rng(SEED + 19)
        a = rng.normal(size=(3, 3))
        psi = a + a.T
        sector = SpinSector(2, 1)
        phi = SA.reconstruct_from_representative(psi, sector)
        _, rhs = SA.raising_lowering_on_representative(phi, sector, "+")
        assert np.max(np.abs(rhs)) < 1e-13

    def test_boundary_rejected(self):
        rng = np.random.default_rng(SEED + 20)
        phi = random_m_vector(rng, SpinSector(2, 0), 3)
        with pytest.raises(ValueError):
            SA.raising_lowering_on_representative(phi, SpinSector(2, 0), "+")
        phi = random_m_vector(rng, SpinSector(2, 2), 3)
        with pytest.raises(ValueError):
            SA.raising_lowering_on_representative(phi, SpinSector(2, 2), "-")


class TestVandermonde:
    def test_trivial_blocks_give_constant_one(self):
        sector = SpinSector(2, 1)
        grid = GridSpace((-0.5, 0.5))
        phi = SA.vandermonde_state(sector, grid)
        psi = SA.representative_part(phi, sector)
        assert np.max(np.abs(psi - 1.0)) < 1e-15

    @pytest.mark.parametrize("N,p,n", [(2, 1, 3), (3, 1, 4), (2, 0, 3), (4, 2, 4)])
    def test_casimir_eigenvalue(self, N, p, n):
        sector = SpinSector(N, p)
        m = float(sector.M)
        assert m >= 0
        grid = GridSpace.uniform(n, 1.0)
        phi = SA.vandermonde_state(sector, grid)
        s2 = SA.spin_operator("S2_total", N)
        resid = SA.apply_spin_operator(s2, phi, N) - m * (m + 1) * phi
        assert np.linalg.norm(resid) < 1e-10 * np.linalg.norm(phi)

    def test_strict_positivity_on_ordered_tuples(self):
        for N, p, n in [(2, 1, 4), (3, 2, 4), (4, 2, 5)]:
            sector = SpinSector(N, p)
            grid = GridSpace.uniform(n, 1.0)
            psi = SA.representative_part(SA.vandermonde_state(sector, grid), sector)
            mask = SA.ordered_support_mask(N, p, n)
            assert np.all(psi[mask] > 0)

    def test_insufficient_sites(self):
        with pytest.raises(ValueError):
            SA.vandermonde_state(SpinSector(4, 0), GridSpace.uniform(3, 1.0))


class TestSectorGroundEnergy:
    def test_three_flavors_agree(self):
        grid = GridSpace.uniform(5, 1.0)
        K = oracles.grid_laplacian_hamiltonian(grid.coords, 2, pair_seed=11, pair_scale=0.7)
        for p in (0, 1, 2):
            res = SA.sector_ground_energy(K, SpinSector(2, p), grid)
            vals = sorted(res.values())
            assert vals[-1] - vals[0] < 1e-10 * max(1.0, abs(vals[0]))

    def test_zero_and_identity(self):
        grid = GridSpace.uniform(3, 1.0)
        z = np.zeros((9, 9))
        res = SA.sector_ground_energy(z, SpinSector(2, 1), grid)
        assert all(abs(v) < 1e-12 for v in res.values())
        res = SA.sector_ground_energy(np.eye(9), SpinSector(2, 1), grid)
        assert all(abs(v - 1.0) < 1e-12 for v in res.values())

    def test_rejects_non_invariant(self):
        grid = GridSpace.uniform(3, 1.0)
        K = np.diag(np.arange(9.0))  # breaks exchange symmetry
        with pytest.raises(ValueError):
            SA.sector_ground_energy(K, SpinSector(2, 1), grid)

    def test_energy_increases_in_abs_m(self):
        # grid analogue of the sector-ordering theorem for a kinetic term
        # plus bounded symmetric pair potential
        grid = GridSpace.uniform(6, 1.0)
        K2 = oracles.grid_laplacian_hamiltonian(grid.coords, 2, pair_seed=4, pair_scale=0.5)
        e2 = {p: SA.sector_ground_energy(K2, SpinSector(2, p), grid)["ordered"] for p in (0, 1, 2)}
        assert e2[1] < e2[0] - 1e-6
        assert abs(e2[0] - e2[2]) < 1e-10  # depends on |M| only
        grid4 = GridSpace.uniform(4, 1.0)
        K3 = oracles.grid_laplacian_hamiltonian(grid4.coords, 3, pair_seed=3, pair_scale=0.4)
        e3 = {p: SA.sector_ground_energy(K3, SpinSector(3, p), grid4)["ordered"] for p in range(4)}
        assert e3[1] < e3[0] - 1e-6
        assert abs(e3[1] - e3[2]) < 1e-10
        assert abs(e3[0] - e3[3]) < 1e-10


class TestGridSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpace((0.5, -0.5))
        with pytest.raises(ValueError):
            GridSpace((0.1,))

    def test_uniform_inside_box(self):
        g = GridSpace.uniform(7, 1.0)
        c = np.asarray(g.coords)
        assert np.all(np.abs(c) < 1.0)
        assert np.all(np.diff(c) > 0)


class TestDimensionOracle:
    def test_matches_block_antisymmetric_dimension(self):
        # bijection dimension count, N <= 4, n <= 5, all sectors
        for N in (2, 3, 4):
            for n in (3, 4, 5):
                for p in range(N + 1):
                    if n < max(p, N - p):
                        continue
                    want = comb(n, p) * comb(n, N - p)
                    have = oracles.antisymmetric_m_dimension(N, n, Fraction(N, 2) - p)
                    assert have == want, (N, n, p)
