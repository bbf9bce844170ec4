"""Exact spin-sector algebra on a finite grid.

Finite stand-in for the continuum N-electron space: one-particle space is
point evaluation on n_sites grid points, so the full space is arrays of
shape (n,)*N + (2,)*N  (N site axes, then N spin axes) and permutations
act as exact axis shuffles.  Spatial-only vectors (elements of the
block-antisymmetric or ordered-domain spaces) are arrays of shape (n,)*N.

Conventions fixed here and used by every consumer:

* Spin index 0 is up (+1/2), 1 is down (-1/2).  The sector with p down
  spins has S^3 eigenvalue M = N/2 - p, and its reference spin pattern
  sigma_M puts the p downs on the first p tensor slots.

* Permutations are tuples pi with pi[k] = image of slot k, acting on
  functions by (S_pi v)(x_1, ..., x_N) = v(x_{pi(1)}, ..., x_{pi(N)}),
  which makes pi -> S_pi a left action (S_pi S_rho = S_{pi rho}).  s_pi
  is the same shuffle on the spin axes.

* The transposition-block group S_T = S_p x S_{N-p} permutes within the
  two blocks; the non-transposition set S_NT collects products of n >= 1
  disjoint cross-block transpositions.  Every full permutation lies in
  S_T * ({id} union S_NT) (the union is exhaustive, not disjoint for
  N >= 4 with both blocks >= 2).

* representative_part is the spin slice at sigma_M: for Phi in the M
  subspace of the antisymmetric space, the slice is automatically
  block-antisymmetric and the reconstruction below is its exact inverse
  (no combinatorial prefactor):

      Phi = Psi (x) eta_{sigma_M}
            + sum_{nu in S_NT} sgn(nu) (S_nu (x) s_nu)(Psi (x) eta_{sigma_M}).

* Every identity is one signed sum sum_pi sgn(pi) S_pi v, computed by
  _signed_sum over a named permutation set: S_N for A_N, S_T for
  A_p (x) A_{N-p}, iota_p and the compression K^{(p)}, {id} union S_NT
  for the reconstruction, and {id} union the cross-block transpositions
  for the S^(+-) recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .geometry import SpinSector

UP, DOWN = 0, 1


@dataclass(frozen=True)
class GridSpace:
    """Strictly increasing site coordinates inside (-L, L)."""

    coords: tuple

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.size < 2:
            raise ValueError("need at least two grid sites")
        if not np.all(np.diff(c) > 0):
            raise ValueError("site coordinates must be strictly increasing")

    @property
    def n_sites(self) -> int:
        return len(self.coords)

    @classmethod
    def uniform(cls, n_sites: int, L: float = 1.0) -> "GridSpace":
        # interior points of (-L, L), Dirichlet-style
        pts = np.linspace(-L, L, n_sites + 2)[1:-1]
        return cls(tuple(pts))


def perm_sign(pi) -> int:
    """Signature via cycle decomposition."""
    seen = [False] * len(pi)
    sign = 1
    for k in range(len(pi)):
        if seen[k]:
            continue
        length = 0
        j = k
        while not seen[j]:
            seen[j] = True
            j = pi[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _inverse(pi):
    inv = [0] * len(pi)
    for k, image in enumerate(pi):
        inv[image] = k
    return tuple(inv)


def apply_permutation(pi, v: np.ndarray, N: int, target: str = "both") -> np.ndarray:
    """Axis shuffle realizing S_pi, s_pi, or their tensor product.

    v has N site axes (target "spatial" on spatial-only arrays, or the
    first N axes of a full vector) and, for targets touching spin, N spin
    axes trailing them.
    """
    inv = _inverse(pi)
    ndim = v.ndim
    axes = list(range(ndim))
    if target in ("spatial", "both"):
        axes[:N] = [inv[k] for k in range(N)]
    if target in ("spin", "both"):
        if ndim < 2 * N:
            raise ValueError("vector has no spin axes")
        axes[ndim - N :] = [ndim - N + inv[k] for k in range(N)]
    if target not in ("spatial", "spin", "both"):
        raise ValueError(f"unknown target {target!r}")
    return np.transpose(v, axes)


def antisymmetrize(v: np.ndarray, N: int, block: str = "all", spins: bool | None = None) -> np.ndarray:
    """Projector A_N (block="all") or A_p (x) A_{N-p} (block=(p, "blocks")).

    block is "all" or an integer p.  spins selects whether the shuffle
    also acts on spin axes; by default it does exactly when v carries
    them (full antisymmetrizer on the full space, spatial antisymmetrizer
    on spatial arrays).
    """
    if spins is None:
        spins = v.ndim == 2 * N
    if block == "all":
        perms = list(permutations(range(N)))
    else:
        perms = list(_block_permutations(N, int(block)))
    return _signed_sum(perms, v, N, "both" if spins else "spatial") / len(perms)


def _signed_sum(perms, v: np.ndarray, N: int, target: str) -> np.ndarray:
    """sum_{pi in perms} sgn(pi) S_pi v, with target as in apply_permutation."""
    out = np.zeros_like(np.asarray(v, dtype=np.result_type(v, float)))
    for pi in perms:
        out += perm_sign(pi) * apply_permutation(pi, v, N, target)
    return out


def _block_permutations(N: int, p: int):
    """All of S_p x S_{N-p} as permutations of range(N)."""
    for a in permutations(range(p)):
        for b in permutations(range(p, N)):
            yield tuple(a) + tuple(b)


def nontransposition_set(N: int, p: int):
    """S_NT: products of n >= 1 disjoint cross-block transpositions.

    The n left slots and n right slots are paired in increasing order,
    which picks exactly one representative of each S_T coset: together
    with the identity these are C(N, p) permutations, one per pattern of
    down spins.  Yields (pi, sign) with sign = (-1)^n.
    """
    q = N - p
    for n in range(1, min(p, q) + 1):
        for left in combinations(range(p), n):
            for right in combinations(range(p, N), n):
                pi = list(range(N))
                for i, j in zip(left, right):
                    pi[i], pi[j] = pi[j], pi[i]
                yield tuple(pi), (-1) ** n


def sigma_m_pattern(sector: SpinSector) -> tuple:
    """Reference spin pattern: p downs then N-p ups."""
    return (DOWN,) * sector.p + (UP,) * (sector.N - sector.p)


def _pattern_m(N: int) -> np.ndarray:
    """S^3 eigenvalue N/2 - #downs of each spin pattern, shape (2,)*N."""
    return N / 2 - np.indices((2,) * N).sum(axis=0)


def s3_apply(v: np.ndarray, N: int) -> np.ndarray:
    """Total S^3 on a full vector: eigenbasis is the spin patterns."""
    return _pattern_m(N) * v


def representative_part(phi: np.ndarray, sector: SpinSector) -> np.ndarray:
    """Spin slice at the reference pattern sigma_M, for phi in the M subspace."""
    N = sector.N
    if phi.ndim != 2 * N:
        raise ValueError("expected a full vector with N site and N spin axes")
    m_val = float(sector.M)
    resid = np.linalg.norm(s3_apply(phi, N) - m_val * phi)
    norm = np.linalg.norm(phi)
    if norm > 0 and resid > 1e-10 * max(1.0, norm):
        raise ValueError(f"phi is not an S^3 = {m_val} eigenvector (residual {resid:.2e})")
    return phi[(Ellipsis,) + sigma_m_pattern(sector)].copy()


def reconstruct_from_representative(psi: np.ndarray, sector: SpinSector) -> np.ndarray:
    """Assemble the antisymmetric M-sector vector with representative psi."""
    N, p = sector.N, sector.p
    if psi.ndim != N:
        raise ValueError("expected a spatial array with N site axes")
    resid = np.linalg.norm(antisymmetrize(psi, N, block=p, spins=False) - psi)
    if resid > 1e-10 * max(1.0, np.linalg.norm(psi)):
        raise ValueError("psi is not block-antisymmetric")
    phi = np.zeros(psi.shape + (2,) * N, dtype=psi.dtype)
    phi[(Ellipsis,) + sigma_m_pattern(sector)] = psi
    perms = [tuple(range(N))] + [nu for nu, _ in nontransposition_set(N, p)]
    return _signed_sum(perms, phi, N, "both")


def extend_iota_p(psi: np.ndarray, sector: SpinSector, grid: GridSpace) -> np.ndarray:
    """Signed block-symmetrization of a vector supported on ordered tuples.

    ||iota_p psi||^2 = p! (N-p)! ||psi||^2 since the block orbits of the
    ordered support are disjoint.
    """
    N, p = sector.N, sector.p
    if psi.ndim != N:
        raise ValueError("expected a spatial array with N site axes")
    mask = ordered_support_mask(N, p, grid.n_sites)
    off = np.linalg.norm(psi[~mask])
    if off > 1e-12 * max(1.0, np.linalg.norm(psi)):
        raise ValueError("psi has support off the ordered tuples")
    return _signed_sum(_block_permutations(N, p), psi, N, "spatial")


def ordered_support_mask(N: int, p: int, n_sites: int) -> np.ndarray:
    """Boolean mask of grid tuples with both blocks strictly increasing."""
    idx = np.indices((n_sites,) * N)
    mask = np.ones((n_sites,) * N, dtype=bool)
    for a in range(p - 1):
        mask &= idx[a] < idx[a + 1]
    for a in range(p, N - 1):
        mask &= idx[a] < idx[a + 1]
    return mask


def restrict_to_ordered(psi: np.ndarray, sector: SpinSector) -> np.ndarray:
    """Zero out everything off the ordered tuples."""
    mask = ordered_support_mask(sector.N, sector.p, psi.shape[0])
    return np.where(mask, psi, 0.0)


_PAULI = {
    "S1": 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]]),
    "S2": 0.5 * np.array([[0, -1j], [1j, 0]]),
    "S3": 0.5 * np.array([[1.0, 0.0], [0.0, -1.0]]),
    "S+": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "S-": np.array([[0.0, 0.0], [1.0, 0.0]]),
}


def spin_operator(which: str, N: int) -> np.ndarray:
    """Dense total-spin operator on (C^2)^{(x) N}; basis index 0 = up.

    S2_total is assembled as S3^2 + (S+ S- + S- S+)/2 so it stays real.
    """
    if which == "S2_total":
        s3 = spin_operator("S3", N)
        sp = spin_operator("S+", N)
        sm = spin_operator("S-", N)
        return s3 @ s3 + 0.5 * (sp @ sm + sm @ sp)
    if which not in _PAULI:
        raise ValueError(f"unknown spin operator {which!r}")
    single = _PAULI[which]
    dim = 2**N
    out = np.zeros((dim, dim), dtype=single.dtype)
    eye = np.eye(2, dtype=single.dtype)
    for j in range(N):
        term = np.eye(1, dtype=single.dtype)
        for k in range(N):
            term = np.kron(term, single if k == j else eye)
        out += term
    return out


def apply_spin_operator(mat: np.ndarray, v: np.ndarray, N: int) -> np.ndarray:
    """Apply a 2^N x 2^N spin operator to the trailing spin axes of v."""
    site_shape = v.shape[:N]
    flat = v.reshape(site_shape + (2**N,))
    out = flat @ mat.T
    return out.reshape(v.shape)


def raising_lowering_on_representative(phi: np.ndarray, sector: SpinSector, direction: str):
    """Both sides of the representative-part recursion for S^(+-).

    Returns (lhs, rhs): lhs is the representative of S^(+-) phi in the
    shifted sector, rhs the transposition sum acting on the original
    representative.  direction "+" raises M (p -> p-1), "-" lowers it.
    """
    N, p = sector.N, sector.p
    if direction == "+":
        if p == 0:
            raise ValueError("no sector above M = N/2")
        target = SpinSector(N, p - 1)
        op = spin_operator("S+", N)
        swaps = [_transposition(N, p - 1, j) for j in range(p, N)]
    elif direction == "-":
        if p == N:
            raise ValueError("no sector below M = -N/2")
        target = SpinSector(N, p + 1)
        op = spin_operator("S-", N)
        swaps = [_transposition(N, j, p) for j in range(p)]
    else:
        raise ValueError("direction must be '+' or '-'")

    lhs = representative_part(apply_spin_operator(op, phi, N), target)
    rep = representative_part(phi, sector)
    rhs = _signed_sum([tuple(range(N))] + swaps, rep, N, "spatial")
    return lhs, rhs


def _transposition(N: int, a: int, b: int) -> tuple:
    pi = list(range(N))
    pi[a], pi[b] = pi[b], pi[a]
    return tuple(pi)


def vandermonde_state(sector: SpinSector, grid: GridSpace) -> np.ndarray:
    """Highest-weight sector state: block Vandermonde representative.

    Returns the full reconstructed vector; its representative part is
    prod_{i<j<=p} (x_j - x_i) * prod_{p<i<j} (x_j - x_i) on the grid
    coordinates, strictly positive on strictly ordered tuples.
    """
    N, p = sector.N, sector.p
    if grid.n_sites < max(p, N - p):
        raise ValueError("grid too small for the block Vandermonde factors")
    coords = np.asarray(grid.coords)
    psi = np.ones((grid.n_sites,) * N)
    xs = [coords.reshape((1,) * k + (-1,) + (1,) * (N - 1 - k)) for k in range(N)]
    for i in range(p):
        for j in range(i + 1, p):
            psi = psi * (xs[j] - xs[i])
    for i in range(p, N):
        for j in range(i + 1, N):
            psi = psi * (xs[j] - xs[i])
    return reconstruct_from_representative(psi, sector)


def check_permutation_invariant(K: np.ndarray, N: int, n: int):
    """Raise unless the dense spatial operator commutes with every S_pi."""
    K_sites = K.reshape((n,) * (2 * N))
    for pi in permutations(range(N)):
        K_pi = apply_permutation(pi, K_sites, N).reshape(K.shape)
        if not np.allclose(K_pi, K, atol=1e-10 * max(1.0, np.abs(K).max())):
            raise ValueError(f"operator is not invariant under permutation {pi}")


def _min_eig_on_subspace(K_full: np.ndarray, basis: np.ndarray) -> float:
    """Rayleigh-Ritz minimum of K_full over the column span of basis."""
    # orthonormalize the (heavily dependent) spanning set via SVD
    u, s, _ = np.linalg.svd(basis, full_matrices=False)
    q = u[:, s > 1e-10 * s.max()]
    comp = q.conj().T @ K_full @ q
    return float(np.linalg.eigvalsh(0.5 * (comp + comp.conj().T))[0])


def sector_ground_energy(K: np.ndarray, sector: SpinSector, grid: GridSpace) -> dict:
    """Ground energy of a permutation-invariant spatial operator, three ways.

    K is dense on the flattened site tensor (n^N x n^N) and must commute
    with all S_pi.  Returns the minimum eigenvalue computed on (a) the
    full antisymmetric M subspace (spin degrees carried explicitly),
    (b) the block-antisymmetric spatial subspace, (c) the compression to
    ordered tuples; the three agree to eigensolver precision.
    """
    N, p = sector.N, sector.p
    n = grid.n_sites
    dim = n**N
    if K.shape != (dim, dim):
        raise ValueError("K must be dense on the flattened site tensor")
    check_permutation_invariant(K, N, n)
    sites = (n,) * N

    # (b) block-antisymmetric spatial subspace: A_p applied to identity batches
    proj_b = antisymmetrize(np.eye(dim).reshape(sites + (dim,)), N, block=p, spins=False)
    e_blocks = _min_eig_on_subspace(K, proj_b.reshape(dim, dim))

    # (c) ordered-tuple compression K^{(p)}[a, b] = sum_tau sgn(tau) K[a, tau b]
    k_tau = _signed_sum(_block_permutations(N, p), K.T.reshape(sites + (dim,)), N, "spatial")
    ordered = np.flatnonzero(ordered_support_mask(N, p, n))
    comp = k_tau.reshape(dim, dim).T[np.ix_(ordered, ordered)]
    e_ordered = float(np.linalg.eigvalsh(0.5 * (comp + comp.T))[0])

    # (a) full M subspace with explicit spins: A_N applied to identity batches;
    # the batch axis sits between the site and spin axes, which
    # apply_permutation shuffles as the first N and the last N axes
    full_dim = dim * 2**N
    batch = np.eye(full_dim).reshape(sites + (2,) * N + (full_dim,))
    proj = antisymmetrize(np.moveaxis(batch, -1, N), N, block="all", spins=True)
    proj = np.moveaxis(proj, N, -1).reshape(full_dim, full_dim)
    # restrict to the S^3 = M spin patterns
    sel = np.isclose(np.tile(_pattern_m(N).reshape(-1), dim), float(sector.M))
    e_full = _min_eig_on_subspace(np.kron(K, np.eye(2**N)), proj[:, sel])

    return {"full_M": e_full, "block_antisym": e_blocks, "ordered": e_ordered}
