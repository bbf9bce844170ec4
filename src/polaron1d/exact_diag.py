"""Truncated diagonalization of the cutoff Fröhlich Hamiltonian.

Electronic basis: Dirichlet sine modes on (-L, L),

    psi_n(x) = L^{-1/2} sin(n pi (x + L) / (2L)),   e_n = (n pi / (2L))^2 / 2,

so the free N = 1 ground state is pi^2/(8 L^2).  On the interaction
lattice k = 2 pi m / L below, kx = 4 pi m u - 2 pi m with
u = (x+L)/(2L), and the elements of cos kx and sin kx have closed forms
that do not depend on L (`lattice_elements`; m >= 1):

    <a| cos kx |b> = (delta_{|a-b|, 4m} - delta_{a+b, 4m}) / 2,
    <a| sin kx |b> = (8m/pi) [1/(16m^2 - (a-b)^2) - 1/(16m^2 - (a+b)^2)]
                     for a + b odd, and 0 for a + b even.

Their zeros are exact.  The k = 0 mode couples through N times the
identity, stored as exactly that.

Phonons: the interaction lattice is k = 2 pi m / L (the lattice on which
the pair kernel's mode series lives), one vertex factor sqrt(g_L)
e^{-eps k^2} per mode, so integrating the phonons back out reproduces
exactly the w_eps of the path-integral action: the Monte Carlo estimator
and this Hamiltonian are cross-checks of the same physics.  The +-k
pairs are combined into cosine/sine quadrature modes

    c_k = (a_k + a_{-k})/sqrt(2),   s_k = (a_k - a_{-k})/(i sqrt(2)),

under which the coupling becomes sqrt(2 g_L) e^{-eps k^2}
[cos(kx)(c_k + c_k*) - sin(kx)(s_k + s_k*)] and every matrix in sight is
real symmetric.  The phonon space carries a total-occupation cap
(`fock.FockSpace` enumeration); annihilators (`fock.annihilator`) are
assembled sparsely here because the quadrature dimensions outgrow dense
storage.

The Fock space holds the k = 0 mode and the cosine and sine of
m = 1..K, K = min(k_max, kernels.damped_mode_count(2 eps, L)): the modes
with e^{-2 eps k^2} >= e^{-37}, the modes the Monte Carlo action's mode
series runs.  k_max is a ceiling.  A dropped mode would move an energy
by at most about g_L e^{-37} ~ 1e-16 through its coupling, and
uncoupled it is a free oscillator: H is then
block-diagonal in the dropped modes' occupations, the block with them
empty is the H built here, and a block with j dropped quanta has lowest
level E_0(cap - j) + j > E_0.  So the ground energy and the ratio
oracle (whose reference vector lies in the empty block) are those of
the space with every mode m <= k_max.  The dimension and the levels
past the first are not: this space lacks the copies E_i(cap - j) + j,
so its gap is larger wherever one of them would be the lowest
excitation.  At eps = 0.5, L = 1 only k = 0 is left: the (10,4,4)
N = 2 symmetric sector has dim 275.

For N = 2 the spin sector enters through the spatial exchange symmetry:
S = 0 pairs with symmetric orbitals, S = 1 with antisymmetric ones.
Lifting one- and two-body operators to the (anti)symmetrized pair basis
goes through the explicit isometry into the tensor product, built once
per Hamiltonian (`_Sector`), which keeps every matrix element manifestly
correct at these tiny dimensions.

`build_H_eps` returns the Hamiltonian as one CSR matrix,

    H = h_el (x) 1 + 1 (x) diag(n) + sum_k c_k E_k (x) Q_k,

with h_el the sector matrix (potential included), n the boson
occupations and, per quadrature mode, the coupling c_k, the lifted
electronic matrix E_k and Q_k = a_k + a_k^T; states are indexed
(electron, boson), the boson index fastest.  It is assembled in one
COO -> CSR step (`_assemble`).  The terms fill disjoint positions:
h_el (x) 1 and 1 (x) diag(n) only boson-diagonal ones, and each
E_k (x) Q_k only positions one mode-k quantum apart.  The one sum is
h_el[i, i] + n_b on the diagonal, two numbers, whose order cannot
change a bit.  With each coupling entry computed as c_k (E_k,ij Q_k,bb')
and exact zeros dropped, the matrix is byte for byte the term-by-term
sum of scipy.sparse.kron products (`tests/oracles.py` keeps that sum as
the reference).  The dense solver (dim <= 1500) densifies it in Fortran
order, so LAPACK works on it in place, and computes only the m lowest
pairs, on one BLAS thread; eigsh applies the CSR product.  E_el(S)
(`electronic_ground`) is the same builder at alpha = 0 with no phonon
quanta: the Fock space is the vacuum alone, so the matrix is h_el, with
the bits of the h_el inside every coupled Hamiltonian.

Ground energies come with residual certificates ||Hv - Ev|| measured
against the infinity norm of H (an upper bound for the spectral norm of
a symmetric matrix).  Above dim 1500 one eigsh call at tol 1e-11
either converges or raises InvariantViolation.  Each solve records its
basis dimension, nnz, solver (dense or eigsh), ncv, tol, the products
eigsh took, residuals and seconds in the result's provenance and sends
one INFO record to the "polaron1d" logger; the library adds no
handler.  eps = 0 is never diagonalized.

`ratio_energy_oracle` evaluates -(1/delta) log of the semigroup ratio
<u| e^{-(beta+delta) H} |u> / <u| e^{-beta H} |u> with u = (uniform
function) x (vacuum), i.e. the same finite-horizon functional the ratio
Monte Carlo estimator targets, so the two can be compared without any
beta -> infinity argument.  Both horizons come from one Gauss quadrature
(Golub & Meurant, Matrices, Moments and Quadrature with Applications,
2010): a Lanczos recurrence from u on the CSR matrix, with
full reorthogonalization in two passes, gives the Jacobi matrix T whose
Ritz values theta_j and weights tau_j (first eigenvector components,
squared) give <u| e^{-tH} |u> ~ ||u||^2 sum_j tau_j e^{-t theta_j}.
The recurrence stops when the energy has changed by at most
1e-15 max(1, |E|) on two consecutive steps, or at breakdown (an
invariant Krylov space, where the quadrature is exact).  It draws no
random numbers.
"""

from __future__ import annotations

import ctypes
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .fock import FockSpace, annihilator
from .kernels import ModelParams, damped_mode_count, mode_wavenumbers, \
    require_count

logger = logging.getLogger("polaron1d")

# Lanczos steps ratio_energy_oracle may take before it refuses to answer;
# the (12, 4, 4) oracle at eps = 0.5 reaches breakdown, an invariant
# Krylov space, after 30.
_LANCZOS_MAX_STEPS = 400


def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of the OpenBLAS builds numpy and
    scipy.linalg call; () under another BLAS."""
    controls = []
    for module in ("numpy.linalg._umath_linalg", "scipy.linalg._fblas"):
        try:
            lib = ctypes.CDLL(__import__(module, fromlist=["_"]).__file__)
        except (ImportError, OSError, AttributeError):
            continue
        names = [(f"{p}_get_num_threads{s}", f"{p}_set_num_threads{s}")
                 for p in ("scipy_openblas", "openblas") for s in ("", "64_")]
        found = [(getattr(lib, g), getattr(lib, s)) for g, s in names
                 if hasattr(lib, g) and hasattr(lib, s)]
        controls += found[:1]
    return tuple(controls)


_BLAS_CONTROLS = _openblas_thread_controls()


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's and scipy's OpenBLAS on one thread.

    The dense work of ED (electronic matrices, dense solves up to
    dim 1500) is too small to split: with a second BLAS thread on 2 cores
    the (10,4,4) N = 2 sector solves were preempted 0.2-0.4 times each,
    against 0.03 times on one thread, and no faster.  The counts are
    process-wide, so the saved ones come back on exit; no two ED solves
    run concurrently.
    """
    saved = [get() for get, _ in _BLAS_CONTROLS]
    for _, put in _BLAS_CONTROLS:
        put(1)
    try:
        yield
    finally:
        for (_, put), n in zip(_BLAS_CONTROLS, saved):
            put(n)


class InvariantViolation(RuntimeError):
    """A named numerical invariant failed; carries the invariant's name."""

    def __init__(self, name: str, message: str):
        super().__init__(f"{name}: {message}")
        self.name = name


@dataclass(frozen=True)
class DiscretizationSpec:
    """Truncation sizes: sine modes, phonon momentum index cap, occupation cap.

    k_max is a ceiling: build_H_eps keeps the modes m <= k_max whose
    damping e^{-2 eps k^2} is at least e^{-37}, so past
    kernels.damped_mode_count(2 eps, L) a larger k_max changes nothing.
    """

    n_el_basis: int
    k_max: int
    n_ph_max: int
    epsilon: float

    def __post_init__(self):
        require_count("n_el_basis", self.n_el_basis, 1)
        require_count("k_max", self.k_max, 0)
        require_count("n_ph_max", self.n_ph_max, 0)
        if not 0 < self.epsilon < np.inf:  # nan and inf fail too
            raise ValueError("diagonalization runs at finite, strictly positive "
                             f"epsilon; got {self.epsilon}")


@dataclass(frozen=True)
class SpectrumResult:
    """Certified lowest eigenpairs of a truncated Hamiltonian."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    gap: float
    norm_scale: float
    provenance: dict = field(default_factory=dict)

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])


def single_particle_energies(n_el_basis: int, L: float = 1.0) -> np.ndarray:
    n = np.arange(1, n_el_basis + 1)
    return 0.5 * (n * np.pi / (2 * L)) ** 2


def lattice_elements(m: int, n_el_basis: int) -> tuple:
    """(<a| cos kx |b>, <a| sin kx |b>) at k = 2 pi m / L, any integer m.

    With u = (x+L)/(2L) and q = 4m, each is I(a - b) - I(a + b), where
    I(p) = int_0^1 cos(p pi u) f(u) du is (delta_{p,q} + delta_{p,-q}) / 2
    for f = cos(q pi u), and for f = sin(q pi u) 2q / (pi (q^2 - p^2)) at
    odd p, 0 at even p.
    """
    a = np.arange(1, n_el_basis + 1)
    diff, summ, q = np.subtract.outer(a, a), np.add.outer(a, a), 4 * m

    cos = 0.5 * ((diff == q) * 1.0 + (diff == -q) - (summ == q) - (summ == -q))
    odd = summ % 2 == 1
    sin = np.zeros(summ.shape)
    sin[odd] = 2 * q / np.pi * (1 / (q**2 - diff[odd]**2) - 1 / (q**2 - summ[odd]**2))
    return cos, sin


def _legendre_nodes(n_quad: int, L: float):
    x, w = np.polynomial.legendre.leggauss(n_quad)
    return L * x, L * w


def _sine_values(x: np.ndarray, n_el_basis: int, L: float) -> np.ndarray:
    n = np.arange(1, n_el_basis + 1)
    return np.sin(n[:, None] * np.pi * (x[None, :] + L) / (2 * L)) / np.sqrt(L)


def one_body_matrix(V, n_el_basis: int, L: float = 1.0):
    """Gauss-Legendre quadrature of <m| V |n>; exact for sane V at 400 nodes."""
    x, w = _legendre_nodes(400, L)
    psi = _sine_values(x, n_el_basis, L)
    return (psi * (V(x) * w)[None, :]) @ psi.T


def pair_matrix(W, n_el_basis: int, L: float = 1.0):
    """<(m,n)| W(x - y) |(m',n')>, index (mn, m'n'); 200 Gauss-Legendre nodes."""
    x, w = _legendre_nodes(200, L)
    psi = _sine_values(x, n_el_basis, L)
    wmat = W(x[:, None] - x[None, :]) * w[:, None] * w[None, :]
    # T[(m,m'), q] = psi_m(x_q) psi_m'(x_q); result ((mm'), (nn')) then reorder
    T = np.einsum("mq,nq->mnq", psi, psi).reshape(n_el_basis**2, x.size)
    block = T @ wmat @ T.T
    # block[(m,m'),(n,n')] = int int psi_m psi_m'(x) W psi_n psi_n'(y);
    # want rows (m,n) columns (m',n')
    b4 = block.reshape(n_el_basis, n_el_basis, n_el_basis, n_el_basis)
    return b4.transpose(0, 2, 1, 3).reshape(n_el_basis**2, n_el_basis**2)


def pair_basis_isometry(n_el_basis: int, symmetry: str) -> np.ndarray:
    """Isometry from the (anti)symmetrized pair basis into the product basis."""
    if symmetry not in ("symmetric", "antisymmetric"):
        raise ValueError(f"symmetry must be 'symmetric' or 'antisymmetric', "
                         f"got {symmetry!r}")
    n = n_el_basis
    a, b = np.triu_indices(n, k=0 if symmetry == "symmetric" else 1)
    cols = np.arange(a.size)
    T = np.zeros((n * n, a.size))
    T[a * n + b, cols] = 1 / np.sqrt(2)
    T[b * n + a, cols] = (1 if symmetry == "symmetric" else -1) / np.sqrt(2)
    T[(a * n + b)[a == b], cols[a == b]] = 1.0
    return T


def _check_sector(N: int, symmetry: str):
    if N == 1:
        if symmetry != "none":
            raise ValueError("N = 1 has no exchange symmetry; use 'none'")
    elif N == 2:
        if symmetry not in ("symmetric", "antisymmetric"):
            raise ValueError("N = 2 needs 'symmetric' (S=0) or 'antisymmetric' (S=1)")
    else:
        raise ValueError(f"diagonalization supports N in {{1, 2}}, got {N}")


class _Sector:
    """The sector basis: sine modes at N = 1, at N = 2 the (anti)symmetrized
    pairs of the isometry T = pair_basis_isometry, built once per sector."""

    def __init__(self, N: int, symmetry: str, n_el_basis: int):
        _check_sector(N, symmetry)
        self.N, self.n = N, n_el_basis
        self.T = pair_basis_isometry(n_el_basis, symmetry) if N == 2 else None
        self.dim = n_el_basis if N == 1 else self.T.shape[1]

    def lift(self, A: np.ndarray, W=0.0) -> np.ndarray:
        """A on each electron plus the pair matrix W (N = 2 only): A at
        N = 1, T^T (A (x) 1 + 1 (x) A + W) T at N = 2."""
        if self.N == 1:
            return A
        eye = np.eye(self.n)
        return self.T.T @ (np.kron(A, eye) + np.kron(eye, A) + W) @ self.T

    def electronic(self, pot, L: float) -> np.ndarray:
        """Kinetic energy and V on each electron, W between the two."""
        h1 = np.diag(single_particle_energies(self.n, L))
        if pot is not None and pot.V is not None:
            h1 = h1 + one_body_matrix(pot.V, self.n, L)
        if self.N == 2 and pot is not None and pot.W is not None:
            return self.lift(h1, pair_matrix(pot.W, self.n, L))
        return self.lift(h1)


def _interaction_blocks(sector: _Sector, spec: DiscretizationSpec,
                        params: ModelParams, n_modes: int):
    """(coupling, electronic matrix) per quadrature mode up to m = n_modes.

    In mode order: the k = 0 mode, whose matrix is N times the identity,
    then the cosine and the sine of k = 2 pi m / L for m = 1..n_modes,
    from `lattice_elements`.
    """
    root_g = np.sqrt(params.g_L)
    blocks = [(root_g, sector.N * np.eye(sector.dim))]
    for m, k in enumerate(mode_wavenumbers(n_modes, params.L), start=1):
        damp = np.exp(-spec.epsilon * k**2)
        cos_m, sin_m = lattice_elements(m, spec.n_el_basis)
        blocks.append((np.sqrt(2) * root_g * damp, sector.lift(cos_m)))
        blocks.append((-np.sqrt(2) * root_g * damp, sector.lift(sin_m)))
    return blocks


def _assemble(h_el: np.ndarray, space: FockSpace,
              terms) -> scipy.sparse.csr_matrix:
    """H = h_el (x) 1 + 1 (x) diag(n) + sum_k c_k E_k (x) Q_k as one CSR.

    n is the total occupation of the Fock space and (c_k, E_k) the
    coupling and electronic matrix of the quadrature mode at Fock
    position k, whose Q_k = a_k + a_k^T.  States are indexed (electron,
    boson), the boson index fastest.  One COO -> CSR step; the entries
    are the bytes of the term-by-term kron sum (module docstring).
    """
    n_el, n_b = h_el.shape[0], space.dim
    bosons = np.arange(n_b)
    off = h_el != 0
    np.fill_diagonal(off, False)
    i, j = np.nonzero(off)
    diag = (np.diag(h_el)[:, None] + space.total_occupation).ravel()
    d = np.flatnonzero(diag)
    parts = [((i * n_b)[:, None] + bosons, (j * n_b)[:, None] + bosons,
              np.repeat(h_el[i, j], n_b)), (d, d, diag[d])]
    for pos, (c, E) in enumerate(terms):
        low = annihilator(space, pos)
        Q = (low + low.T).tocoo()
        i, j = np.nonzero(E)
        parts.append(((i * n_b)[:, None] + Q.row, (j * n_b)[:, None] + Q.col,
                      c * (E[i, j][:, None] * Q.data)))
    rows, cols, data = (np.concatenate([p[n].ravel() for p in parts])
                        for n in range(3))
    H = scipy.sparse.coo_matrix((data, (rows, cols)),
                                shape=(n_el * n_b, n_el * n_b)).tocsr()
    H.eliminate_zeros()
    return H


def kept_modes(params: ModelParams, spec: DiscretizationSpec) -> int:
    """Positive modes m in the Fock space: min(k_max, damped_mode_count(2 eps, L))."""
    return min(spec.k_max, damped_mode_count(2 * spec.epsilon, params.L))


def build_H_eps(N: int, symmetry: str, pot, params: ModelParams,
                spec: DiscretizationSpec) -> scipy.sparse.csr_matrix:
    """Full cutoff Hamiltonian H_el + N_ph + interaction, as one CSR matrix.

    The Fock space holds the k = 0 mode and the cosine and sine of the
    modes m <= kept_modes(params, spec), all coupled at alpha > 0; the
    modes up to spec.k_max past those are damped below e^{-37} and left
    out (module docstring).  The Fock modes are labelled by their
    quadrature position.  N must equal params.N.
    """
    if N != params.N:
        raise ValueError(f"N = {N} does not match params.N = {params.N}")
    sector = _Sector(N, symmetry, spec.n_el_basis)
    n_modes = kept_modes(params, spec)
    terms = ()
    with _one_blas_thread():
        h_el = sector.electronic(pot, params.L)
        if params.alpha > 0:
            terms = _interaction_blocks(sector, spec, params, n_modes)
    space = FockSpace(modes=range(1 + 2 * n_modes), cap=spec.n_ph_max)
    return _assemble(h_el, space, terms)


def ground(H: scipy.sparse.spmatrix, m: int = 2) -> SpectrumResult:
    """Lowest-m eigenpairs with explicit residual certificates.

    H is a scipy sparse matrix.  Rejects non-symmetric input; residuals
    must sit below 1e-8 times the infinity norm of H or the result is
    refused rather than returned.
    The gate certifies that each returned pair is an eigenpair, not that
    the pairs are the lowest m: a Lanczos solve that skips a degenerate
    copy can pass it.  Above dim 1500 the solve is one eigsh call at
    tol 1e-11 that applies H through its sparse product; if ARPACK does
    not converge within its default restarts, it raises
    InvariantViolation("spectrum-convergence") with dim, m, ncv and the
    products taken.

    The provenance of the result holds dim, nnz, solver ("dense" or
    "eigsh"), ncv and tol (None for dense), matvecs (the products eigsh
    took; 0 for dense), residuals and solve_s, the seconds from the
    symmetry check to the certificate.
    """
    start = perf_counter()
    dim, nnz = H.shape[0], H.nnz
    scale = max(float(abs(H).sum(axis=1).max()), 1e-300)
    asym = float(abs(H - H.T).max())
    if asym > 1e-12 * scale:
        raise ValueError(f"matrix is not symmetric: defect {asym:.3e} "
                         f"against scale {scale:.3e}")
    m = min(m, dim)
    matvecs = 0
    if dim <= 1500 or m >= dim - 1:
        solver, ncv, tol = "dense", None, None
        with _one_blas_thread():
            vals, vecs = scipy.linalg.eigh(
                H.toarray(order="F"), subset_by_index=(0, m - 1),
                overwrite_a=True)
    else:
        def apply(x):
            nonlocal matvecs
            matvecs += 1
            return H @ x

        A = scipy.sparse.linalg.LinearOperator((dim, dim), matvec=apply,
                                               dtype=H.dtype)
        solver, tol = "eigsh", 1e-11
        v0 = np.full(dim, 1 / np.sqrt(dim))
        ncv = min(dim, max(6 * m, 60))
        # ARPACK asks for a random vector when the Krylov space from v0
        # turns invariant; a pinned rng keeps that restart reproducible
        try:
            vals, vecs = scipy.sparse.linalg.eigsh(
                A, k=m, which="SA", v0=v0, ncv=ncv, tol=tol, rng=0)
        except scipy.sparse.linalg.ArpackNoConvergence as err:
            raise InvariantViolation(
                "spectrum-convergence",
                f"eigsh at tol {tol} did not converge: dim {dim}, m {m}, "
                f"ncv {ncv}, {matvecs} products") from err
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    residuals = np.array([np.linalg.norm(H @ vecs[:, i] - vals[i] * vecs[:, i])
                          for i in range(m)])
    bad = residuals > 1e-8 * scale
    if np.any(bad):
        raise InvariantViolation(
            "spectrum-residual",
            f"residuals {residuals[bad]} exceed 1e-8 * ||H|| = {1e-8 * scale:.3e}")
    gap = float(vals[1] - vals[0]) if m >= 2 else 0.0
    prov = dict(dim=dim, nnz=nnz, solver=solver,
                ncv=ncv, tol=tol, matvecs=matvecs,
                residuals=residuals.tolist(), solve_s=perf_counter() - start)
    logger.info("ground dim=%d nnz=%d solver=%s ncv=%s "
                "tol=%s matvecs=%d m=%d E0=%r residual_max=%.3e solve_s=%.3f",
                dim, nnz, solver, ncv, tol, matvecs, m,
                float(vals[0]), float(residuals.max()), prov["solve_s"])
    return SpectrumResult(eigenvalues=vals, residuals=residuals, gap=gap,
                          norm_scale=scale, provenance=prov)


def sector_ground(N: int, symmetry: str, pot, params: ModelParams,
                  spec: DiscretizationSpec, m: int = 2) -> SpectrumResult:
    """ground of the sector Hamiltonian; provenance adds the model, the
    truncation, boson_modes (the quadrature modes in the Fock space,
    1 + 2 kept_modes) and assemble_s, the seconds spent in build_H_eps."""
    start = perf_counter()
    H = build_H_eps(N, symmetry, pot, params, spec)
    assemble_s = perf_counter() - start
    res = ground(H, m=m)
    res.provenance.update(
        N=N, symmetry=symmetry, alpha=params.alpha, epsilon=spec.epsilon,
        n_el_basis=spec.n_el_basis, k_max=spec.k_max, n_ph_max=spec.n_ph_max,
        L=params.L, boson_modes=1 + 2 * kept_modes(params, spec),
        assemble_s=assemble_s)
    return res


def electronic_ground(N: int, symmetry: str, pot, spec: DiscretizationSpec,
                      L: float = 1.0) -> float:
    """Lowest level of the electronic Hamiltonian, certified by ground.

    It is build_H_eps at alpha = 0 with no phonon quanta: the Fock space
    is the vacuum alone, so the matrix is h_el itself, built by the same
    code as in every coupled Hamiltonian.
    """
    H = build_H_eps(N, symmetry, pot, ModelParams(0.0, N, L),
                    replace(spec, n_ph_max=0))
    return ground(H, m=1).ground_energy


def sector_sweep(alphas, sectors, pot, params: ModelParams,
                 spec: DiscretizationSpec) -> list:
    """E_eps(alpha, S) and E_el(S) rows; enforces the theorem-level orderings.

    N is params.N, and a sector that does not fit it is a ValueError.
    Raises InvariantViolation when, within the table, a sector energy
    increases with alpha (beyond solver noise), an interacting energy
    fails to sit strictly below the electronic one at alpha > 0, or the
    N = 2 symmetric sector fails to undercut the antisymmetric one.
    """
    N = params.N
    rows = []
    for symmetry in sectors:
        e_el = electronic_ground(N, symmetry, pot, spec, params.L)
        for alpha in alphas:
            p = replace(params, alpha=float(alpha))
            res = sector_ground(N, symmetry, pot, p, spec)
            rows.append({"alpha": float(alpha), "sector": symmetry,
                         "e_eps": res.ground_energy, "e_el": e_el,
                         "gap": res.gap})
    noise = 1e-12
    by_sector = {}
    for row in rows:
        by_sector.setdefault(row["sector"], []).append(row)
    for symmetry, sec_rows in by_sector.items():
        sec_rows.sort(key=lambda r: r["alpha"])
        for lo, hi in zip(sec_rows, sec_rows[1:]):
            if hi["e_eps"] > lo["e_eps"] + noise:
                raise InvariantViolation(
                    "alpha-monotonicity",
                    f"sector {symmetry}: E({hi['alpha']}) = {hi['e_eps']:.12f} "
                    f"> E({lo['alpha']}) = {lo['e_eps']:.12f}")
        for row in sec_rows:
            if row["alpha"] > 0 and not row["e_eps"] < row["e_el"]:
                raise InvariantViolation(
                    "coupling-lowers-energy",
                    f"sector {symmetry} at alpha {row['alpha']}: "
                    f"{row['e_eps']} not below electronic {row['e_el']}")
    if "symmetric" in by_sector and "antisymmetric" in by_sector:
        for row_s in by_sector["symmetric"]:
            for row_a in by_sector["antisymmetric"]:
                if row_a["alpha"] == row_s["alpha"] and \
                        not row_s["e_eps"] < row_a["e_eps"]:
                    raise InvariantViolation(
                        "sector-ordering",
                        f"alpha {row_s['alpha']}: E(0) = {row_s['e_eps']} "
                        f"not below E(1) = {row_a['e_eps']}")
    return rows


def uniform_vacuum_vector(spec: DiscretizationSpec, boson_dim: int,
                          L: float = 1.0) -> np.ndarray:
    """(uniform function on (-L, L)) x (phonon vacuum), unnormalized."""
    n = np.arange(1, spec.n_el_basis + 1)
    coeff = 2 * np.sqrt(L) * (1 - (-1.0) ** n) / (n * np.pi)
    vec = np.zeros(spec.n_el_basis * boson_dim)
    vec[::boson_dim] = coeff
    return vec


def _quadrature_energy(diag: np.ndarray, off: np.ndarray, beta: float,
                       delta: float) -> float:
    """-(1/delta) log of the Gauss-quadrature ratio of the Jacobi matrix T.

    With T = Q diag(theta) Q^T, <u| e^{-tH} |u> ~ ||u||^2 sum_j tau_j
    e^{-t theta_j}, tau_j = Q[0, j]^2; the ||u||^2 cancels in the ratio.
    The solver's Ritz values err by about eps ||T||; one Rayleigh-quotient
    step leaves the low ones an error of about eps |q|^T |T| |q|, smaller
    where the low Ritz vectors sit on small entries of T.  At (12,4,4),
    eps = 0.5, ||T|| ~ 180, it takes the oracle from 1.0e-12 to 1.7e-13
    relative of the expm_multiply value.
    """
    theta, vecs = scipy.linalg.eigh_tridiagonal(diag, off)
    t_vecs = diag[:, None] * vecs
    t_vecs[:-1] += off[:, None] * vecs[1:]
    t_vecs[1:] += off[:, None] * vecs[:-1]
    theta += np.einsum("ij,ij->j", vecs, t_vecs - theta * vecs)
    weights = vecs[0] ** 2
    low = theta.min()
    return float(low - np.log(
        (weights @ np.exp(-(beta + delta) * (theta - low)))
        / (weights @ np.exp(-beta * (theta - low)))) / delta)


def ratio_energy_oracle(params: ModelParams, spec: DiscretizationSpec,
                        beta: float, delta: float, pot=None) -> float:
    """-(1/delta) log of the semigroup ratio the ratio estimator targets.

    N = 1 only: the electronic part of the reference vector is the
    uniform function, matching Monte Carlo paths started uniformly.  Both
    horizons come from one Lanczos quadrature (see the module docstring),
    which raises InvariantViolation("oracle-convergence") rather than
    return an energy that has not settled within _LANCZOS_MAX_STEPS steps.
    Sends one INFO record to the "polaron1d" logger: dim, the quadrature
    modes in the Fock space, Lanczos steps, the last energy change and
    seconds.
    """
    if params.N != 1:
        raise ValueError("the matched semigroup oracle is implemented for N = 1")
    for name, value in (("beta", beta), ("delta", delta)):
        if not 0 < value < np.inf:  # nan and inf fail too
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    start = perf_counter()
    H = build_H_eps(1, "none", pot, params, spec)
    dim = H.shape[0]
    u = uniform_vacuum_vector(spec, dim // spec.n_el_basis, params.L)
    basis = np.empty((min(dim, 32), dim))
    basis[0] = u / np.linalg.norm(u)
    diag, off = [], []
    energy, settled = np.inf, 0
    for step in range(_LANCZOS_MAX_STEPS):
        w = H @ basis[step]
        hv_norm = np.linalg.norm(w)
        diag.append(basis[step] @ w)
        done = basis[:step + 1]
        for _ in range(2):
            w -= (done @ w) @ done
        new = _quadrature_energy(np.array(diag), np.array(off), beta, delta)
        change, energy = abs(new - energy), new
        settled = settled + 1 if change <= 1e-15 * max(1.0, abs(energy)) else 0
        norm_w = np.linalg.norm(w)
        # at breakdown the Krylov space is invariant and the quadrature exact
        if settled == 2 or norm_w <= 1e-12 * hv_norm or step + 1 == dim:
            break
        if step + 1 == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])
        basis[step + 1] = w / norm_w
        off.append(norm_w)
    else:
        raise InvariantViolation(
            "oracle-convergence",
            f"energy still moved by {change:.3e} after {_LANCZOS_MAX_STEPS} "
            "Lanczos steps")
    seconds = perf_counter() - start
    logger.info("ratio_energy_oracle dim=%d boson_modes=%d lanczos_steps=%d "
                "last_change=%.3e E=%r oracle_s=%.3f", dim,
                1 + 2 * kept_modes(params, spec), step + 1, change, energy,
                seconds)
    return energy
