"""Brute-force reference implementations used only by tests.

Everything here is written independently of the package internals:
periodizations are literal image sums, Fourier coefficients come from
quadrature, and operator identities are checked on dense matrices.
`whole_batch_draw` draws a path batch in one numpy call, the reference
for the sampler's slices.  The exceptions are built from the package's
own layers: `full_batch_block`, the estimator's path block drawn by
`whole_batch_draw` with the action evaluated on every path, and the
action references `s_eff_direct`, `drift_profile_mode_loop`,
`drift_profile_pair_sum` and `pairwise_x_z`, which evaluate the
package's kernels on pair differences or one time step at a time.
`theta_two_pass` evaluates theta and theta_tilde in two passes, one on
the path and one on its time reversal, with one complex exponential per
mode.  `full_coupling_hamiltonian` assembles the ED Hamiltonian from the
package's blocks with every mode m <= k_max in the Fock space and
coupled, however damped; `kron_sum_hamiltonian` sums the ED Hamiltonian
term by term from `scipy.sparse.kron` products, the reference for the
one-step assembly; and `expm_ratio_energy` propagates the ratio oracle's
reference vector with `expm_multiply` on a given Hamiltonian.
"""

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from polaron1d import exact_diag as ed
from polaron1d.action import s_eff_decomposed
from polaron1d.estimator import _horizons
from polaron1d.fock import FockSpace, annihilator
from polaron1d.geometry import survival_log_weights, uniform_ordered_points
from polaron1d.kernels import eval_dphi, eval_phi, eval_w_series
from polaron1d.paths import PathSample, TimeGrid

SQRT2 = np.sqrt(2.0)


def brute_g(x, L=1.0, n_images=200):
    """Literal image sum sum_{|n| <= n_images} exp(-sqrt(2)|x + nL|)."""
    x = np.asarray(x, dtype=float)
    ns = np.arange(-n_images, n_images + 1)
    return np.exp(-SQRT2 * np.abs(x[..., None] + ns * L)).sum(axis=-1)


def brute_dg(x, L=1.0, n_images=200):
    """Image sum for g' (termwise derivative, valid off the kinks)."""
    x = np.asarray(x, dtype=float)
    ns = np.arange(-n_images, n_images + 1)
    sh = x[..., None] + ns * L
    return (-SQRT2 * np.sign(sh) * np.exp(-SQRT2 * np.abs(sh))).sum(axis=-1)


def brute_gaussian_periodization(x, eps, L=1.0, n_images=400):
    """Literal image sum sum_n exp(-(x + 2nL)^2 / (8 eps))."""
    x = np.asarray(x, dtype=float)
    ns = np.arange(-n_images, n_images + 1)
    return np.exp(-((x[..., None] + 2 * L * ns) ** 2) / (8 * eps)).sum(axis=-1)


def grid_laplacian_hamiltonian(grid_coords, N, pair_seed=None, pair_scale=0.0):
    """Dirichlet grid Laplacian plus optional symmetric pair potential.

    Dense on the flattened site tensor (n^N x n^N); the pair potential is
    a random symmetric two-site function summed over pairs, diagonal in
    the position basis.
    """
    coords = np.asarray(grid_coords, dtype=float)
    n = coords.size
    dx = coords[1] - coords[0]
    lap1 = (
        np.diag(2.0 * np.ones(n)) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)
    ) / (2 * dx * dx)
    K = np.zeros((n**N, n**N))
    for j in range(N):
        term = np.eye(1)
        for k in range(N):
            term = np.kron(term, lap1 if k == j else np.eye(n))
        K += term
    if pair_scale:
        rng = np.random.default_rng(pair_seed)
        v = rng.normal(size=(n, n))
        v = 0.5 * (v + v.T)
        idx = np.indices((n,) * N)
        diagpot = np.zeros((n,) * N)
        for a in range(N):
            for b in range(a + 1, N):
                diagpot += v[idx[a], idx[b]]
        K += pair_scale * np.diag(diagpot.reshape(-1))
    return K


def antisymmetric_m_dimension(N, n_sites, M):
    """dim of the S^3 = M subspace of the N-fold antisymmetric space.

    Character count: (1/N!) sum_pi sgn(pi) * n^{cycles(pi)} * #{spin
    patterns fixed by pi with total S^3 = M}.  Independent of any basis
    construction in the package.
    """
    from itertools import permutations as _perms

    total = 0
    for pi in _perms(range(N)):
        # cycle count and sign
        seen = [False] * N
        cycles = 0
        sign = 1
        for k in range(N):
            if seen[k]:
                continue
            cycles += 1
            length = 0
            j = k
            while not seen[j]:
                seen[j] = True
                j = pi[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        fixed = 0
        for patt in np.ndindex(*(2,) * N):
            if all(patt[pi[k]] == patt[k] for k in range(N)):
                m = sum(0.5 if s == 0 else -0.5 for s in patt)
                if abs(m - float(M)) < 1e-12:
                    fixed += 1
        total += sign * n_sites**cycles * fixed
    from math import factorial as _fact

    val = total / _fact(N)
    assert abs(val - round(val)) < 1e-9
    return int(round(val))


def brute_retarded_action(states, times, eps, alpha, L=1.0):
    """Literal double loop for the retarded pair action, image-sum kernel.

    sum_{a,b} dt^2 e^{-|t_a - t_b|} sum_{i,j} w(x_{i,a} - x_{j,b}) with
    w from the Gaussian-image resummation (independent of the package's
    truncated mode series).  One path only; O(n^2 N^2) python loops.
    """
    n = len(times) - 1
    dt = times[1] - times[0]
    g_L = SQRT2 * alpha / L
    pref = g_L * L / (4 * np.sqrt(2 * np.pi * eps))

    def w(x):
        return pref * (
            brute_gaussian_periodization(np.atleast_1d(x), eps, L)
            + brute_gaussian_periodization(np.atleast_1d(x + L), eps, L)
        )[0]

    total = 0.0
    N = states.shape[1]
    for a in range(n):
        for b in range(n):
            ew = np.exp(-abs(times[a] - times[b]))
            for i in range(N):
                for j in range(N):
                    total += ew * w(states[a, i] - states[b, j])
    return total * dt * dt


def brute_theta_direct(states, times, k, eps, g_L):
    """Literal-loop quadrature of the displacement vector at one mode.

    -sqrt(g_L) e^{-eps k^2} sum_j sum_b (e^{-t_b} - e^{-t_{b+1}})
    e^{-i k x_{j, t_b}}; single path.
    """
    total = 0.0 + 0.0j
    n = len(times) - 1
    for b in range(n):
        wgt = np.exp(-times[b]) - np.exp(-times[b + 1])
        for j in range(states.shape[1]):
            total += wgt * np.exp(-1j * k * states[b, j])
    return -np.sqrt(g_L) * np.exp(-eps * k**2) * total


def brute_occupations(m, cap):
    """Multi-indices of m modes with total <= cap, by filtering the full
    product of per-mode ranges; sorted by (total, occupations), vacuum first."""
    from itertools import product as _product

    occs = [occ for occ in _product(range(cap + 1), repeat=m)
            if sum(occ) <= cap]
    occs.sort(key=lambda occ: (sum(occ), occ))
    return tuple(occs)


def brute_coherent_xi_element(u, v, theta, theta_tilde, beta, s_eff, cap):
    """Literal occupation-basis sum for <e^{a(u)*}O | Xi e^{a(v)*}O>.

    Xi = e^{s_eff} e^{a(theta)*} e^{-beta N} e^{a(theta_tilde)} with the
    antilinear smearing a(f) = sum conj(f_k) a_k.  Enumerates its own
    basis (total occupation <= cap) and uses explicit factorials; fully
    independent of any matrix exponential.
    """
    from math import factorial, sqrt as _msqrt

    occs = brute_occupations(len(u), cap)

    def coherent_coeff(w, n):
        val = 1.0 + 0.0j
        for wk, nk in zip(w, n):
            val *= wk**nk / _msqrt(factorial(nk))
        return val

    total = 0.0 + 0.0j
    for n in occs:
        cu = np.conj(coherent_coeff(u, n))
        for mm in occs:
            cv = coherent_coeff(v, mm)
            elem = 0.0 + 0.0j
            for r in occs:
                if not all(rk <= nk for rk, nk in zip(r, n)):
                    continue
                if not all(rk <= mk for rk, mk in zip(r, mm)):
                    continue
                up = 1.0 + 0.0j
                for tk, nk, rk in zip(theta, n, r):
                    d = nk - rk
                    up *= tk**d / factorial(d) * _msqrt(factorial(nk) / factorial(rk))
                down = 1.0 + 0.0j
                for tk, mk, rk in zip(theta_tilde, mm, r):
                    d = mk - rk
                    down *= (np.conj(tk)**d / factorial(d)
                             * _msqrt(factorial(mk) / factorial(rk)))
                elem += up * np.exp(-beta * sum(r)) * down
            total += cu * elem * cv
    return np.exp(s_eff) * total


def dirichlet_box_modes(L=1.0, n_modes=200):
    """Eigenvalues e_n and flat-state overlaps c_n = <1, psi_n> on (-L, L).

    psi_n(x) = L^{-1/2} sin(n pi (x + L) / (2L)), e_n = (n pi / (2L))^2 / 2;
    c_n = 2 sqrt(L) (1 - (-1)^n) / (n pi) vanishes for even n.
    """
    n = np.arange(1, n_modes + 1)
    energies = (n * np.pi / (2.0 * L)) ** 2 / 2.0
    overlaps = 2.0 * np.sqrt(L) * (1.0 - (-1.0) ** n) / (n * np.pi)
    return energies, overlaps


def dirichlet_partition_series(beta, L=1.0, n_modes=200):
    """Z(beta) = int dx dy p_beta^D(x, y) = sum_n c_n^2 e^{-beta e_n}."""
    energies, overlaps = dirichlet_box_modes(L, n_modes)
    return float(np.sum(overlaps**2 * np.exp(-beta * energies)))


def dirichlet_plain_energy(beta, L=1.0, n_modes=200):
    return -np.log(dirichlet_partition_series(beta, L, n_modes)) / beta


def dirichlet_ratio_energy(beta, delta, L=1.0, n_modes=200):
    z_long = dirichlet_partition_series(beta + delta, L, n_modes)
    z_short = dirichlet_partition_series(beta, L, n_modes)
    return -np.log(z_long / z_short) / delta


def wedge_partition_series(beta, L=1.0, n_modes=40, n_quad=2000):
    """Flat-state partition function of two walkers killed on leaving
    the ordered wedge {x1 < x2} inside (-L, L)^2.

    Karlin-McGregor: the absorbed two-walker kernel on the wedge is the
    2x2 determinant of single-walker Dirichlet box kernels, so

        Z_2(beta) = sum_{n<m} (S_nm - S_mn)^2 e^{-beta (e_n + e_m)},

    with S_nm = int_{x<y} psi_n(x) psi_m(y) dx dy evaluated by quadrature
    of the closed-form inner integral
    F_n(y) = int_{-L}^{y} psi_n = L^{-1/2} (2L / n pi)(1 - cos(n pi (y+L)/(2L))).
    """
    energies, _ = dirichlet_box_modes(L, n_modes)
    y = np.linspace(-L, L, n_quad + 1)
    n = np.arange(1, n_modes + 1)[:, None]
    phase = n * np.pi * (y[None, :] + L) / (2.0 * L)
    psi = np.sin(phase) / np.sqrt(L)
    cumulative = (2.0 * L / (n * np.pi)) * (1.0 - np.cos(phase)) / np.sqrt(L)
    s_matrix = np.trapezoid(cumulative[:, None, :] * psi[None, :, :], y, axis=-1)
    anti = s_matrix - s_matrix.T
    boltz = np.exp(-beta * (energies[:, None] + energies[None, :]))
    return float(np.sum(np.triu(anti**2 * boltz, k=1)))


def delta_method_reference(log_w, coeffs, n_batches=32):
    """sum_i c_i log mean exp(row_i) and grad . cov . grad in long double.

    Linear-space weights (no shift) and the covariance of the batch means,
    as the textbook delta method writes it; the extended precision keeps
    the cancellation between correlated rows below double rounding.
    """
    w = np.exp(np.asarray(log_w, dtype=np.longdouble))
    c = np.asarray(coeffs, dtype=np.longdouble)
    means = w.mean(axis=1)
    batches = np.array([chunk.mean(axis=1)
                        for chunk in np.array_split(w, n_batches, axis=1)]).T
    grad = c / means
    cov = np.cov(batches) / n_batches
    return float(c @ np.log(means)), float(np.sqrt(grad @ cov @ grad))


def full_survival_log_weights(states, domain, dt, horizons=None):
    """survival_log_weights with the bridge factors of every path evaluated.

    The full evaluation before the membership test: signed distances to
    the walls (L - x, x + L) and to the chain planes (diff / sqrt(2)), in
    that order, the crossing factor log(1 - exp(-2 d1 d2 / dt)) on every
    step, constraint and path, and a horizon row set to -inf wherever a
    grid point of its prefix lies outside.
    """
    states = np.asarray(states, dtype=float)
    L, p, N = domain.L, domain.p, domain.N
    n = states.shape[-2] - 1
    steps = (n,) if horizons is None else tuple(int(h) for h in horizons)
    parts = [L - states, states + L]
    for chain in (states[..., :p], states[..., p:]):
        if chain.shape[-1] >= 2:
            parts.append(np.diff(chain, axis=-1) / SQRT2)
    d = np.concatenate(parts, axis=-1)
    inside = np.all(d > 0, axis=-1)
    expo = 2.0 * d[..., :-1, :] * d[..., 1:, :] / dt
    rows = []
    with np.errstate(divide="ignore", invalid="ignore"):
        log_step = np.log1p(-np.exp(-expo))
        for h in steps:
            alive = np.all(inside[..., :h + 1], axis=-1)
            out = np.sum(log_step[..., :h, :], axis=(-1, -2))
            rows.append(np.where(alive, out, -np.inf))
    return rows[0] if horizons is None else np.stack(rows)


def whole_batch_draw(x0, grid, rng):
    """Brownian paths from x0 (n, N) drawn in one allocation, no slices.

    The reference for the sampler's slice loop: rng.standard_normal over
    the whole batch times sqrt(dt), a cumulative sum along time, and the
    start points added.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    n, N = x0.shape
    dw = rng.standard_normal((n, grid.n_steps, N)) * np.sqrt(grid.dt)
    states = np.empty((n, grid.n_steps + 1, N))
    states[:, 0] = x0
    states[:, 1:] = np.cumsum(dw, axis=1) + x0[:, None, :]
    return PathSample(states=states, grid=grid)


def full_batch_block(config, block_idx, n_block, eps_values):
    """(log-survival, S_eff per eps, S_el) rows of one path block, action on every path.

    The estimator's block as it was before the survivor filter: the same
    seeds and layer calls, but the paths come from `whole_batch_draw`
    and s_eff_decomposed runs on the whole batch, dead paths included.
    Their log-weights logs + S_eff + S_el are -inf either way.
    """
    domain = config.domain
    start_rng = np.random.default_rng([config.seed, 2 * block_idx])
    x0 = uniform_ordered_points(start_rng, n_block, domain)
    steps = _horizons(config)
    grid = config.grid
    if config.variant == "ratio":
        grid = TimeGrid(grid.beta + config.delta_eff, steps[0])
    path = whole_batch_draw(
        x0, grid, np.random.default_rng([config.seed, 2 * block_idx + 1]))
    logs = survival_log_weights(path.states, domain, grid.dt, horizons=steps)
    bds = [s_eff_decomposed(path, eps, config.params, pot=config.pot, horizons=steps)
           for eps in eps_values]
    return logs, np.array([bd.s_eff for bd in bds]), bds[0].s_el


def s_eff_direct(path, eps, params, k_max=None):
    """Double left-endpoint Riemann sum of the retarded pair interaction.

    O(n_steps^2) reference evaluation, defined for eps > 0 only.  The
    pair kernel is evaluated through its mode series truncated by the
    same k_max rule as the decomposition, so the two routes differ by
    quadrature error alone (series tail below 1e-15 at the default).
    """
    if eps <= 0:
        raise ValueError("s_eff_direct needs eps > 0; the eps = 0 action "
                         "is defined through s_eff_decomposed")
    if params.alpha == 0.0:
        return np.zeros(path.n_paths)
    left = path.states[:, :-1, :]
    n = path.grid.n_steps
    dt = path.grid.dt
    t = path.grid.times[:-1]
    ew = np.exp(-np.abs(t[:, None] - t[None, :]))
    out = np.zeros(path.n_paths)
    for a in range(n):
        # diff[p, b, i, j] = x_{i, t_a} - x_{j, t_b}
        diff = left[:, a, None, :, None] - left[:, :, None, :]
        w = eval_w_series(diff, eps, params, k_max)
        out += np.sum(w, axis=(2, 3)) @ ew[a]
    return out * dt * dt


def drift_profile_mode_loop(path, eps, params, k_max):
    """Phi^(i) at every left endpoint, one time step at a time (eps > 0).

    The mode-prefix recursion G(a) = e^{-dt} (G(a-1) + dt F(a-1)) with
    F_k(b) = sum_j e^{-i k x_{j,b}}, and
    Phi^(i)_a = -2 g_L sum_k c_k Im[e^{i k x_{i,a}} G_k(a)].
    """
    states = path.states
    n_paths, _, N = states.shape
    n = path.grid.n_steps
    dt = path.grid.dt
    k = 2 * np.pi * np.arange(1, k_max + 1) / params.L
    c = k * np.exp(-2 * eps * k**2) / (1 + k**2 / 2)
    decay = np.exp(-dt)
    G = np.zeros((n_paths, k_max), dtype=complex)
    phi = np.zeros((n_paths, n, N))
    for a in range(1, n):
        F = np.exp(-1j * k[None, None, :] * states[:, a - 1, :, None]).sum(axis=1)
        G = decay * (G + dt * F)
        Ei = np.exp(1j * k[None, None, :] * states[:, a, :, None])
        phi[:, a, :] = -2 * params.g_L * ((Ei * G[:, None, :]).imag @ c)
    return phi


def pairwise_x_z(path, eps, params, k_max=None, horizons=None):
    """X and Z rows (k, n_paths) from phi on pair differences.

    X = 2 sum_{i != j} sum_{a < h} dt phi(x_{i,a} - x_{j,a}, 0) and
    Z = -2 sum_{i,j} sum_{s < h} dt phi(x_{i,h} - x_{j,s}, t_h - t_s),
    phi at damping 2 eps (its mode series at eps > 0, its closed form at
    eps = 0), for each horizon h (default: the whole path).  X sums the
    off-diagonal pairs only.
    """
    states = path.states
    n = path.grid.n_steps
    dt = path.grid.dt
    N = states.shape[-1]
    steps = (n,) if horizons is None else tuple(horizons)
    left = states[:, :-1, :]
    t_left = path.grid.times[:-1]
    X = np.zeros((len(steps), path.n_paths))
    Z = np.zeros_like(X)
    pair = eval_phi(left[:, :, :, None] - left[:, :, None, :], 0.0, 2 * eps, params, k_max)
    off_diagonal = ~np.eye(N, dtype=bool)
    for r, h in enumerate(steps):
        X[r] = 2 * dt * np.sum(pair[:, :h, off_diagonal], axis=(1, 2))
        beta_h = path.grid.beta - (n - h) * dt
        diff = states[:, h, None, :, None] - left[:, :h, None, :]
        lag = (beta_h - t_left[:h])[None, :, None, None]
        Z[r] = -2 * dt * np.sum(eval_phi(diff, lag, 2 * eps, params, k_max), axis=(1, 2, 3))
    return X, Z


def drift_profile_pair_sum(path, eps, params, k_max=None):
    """Phi^(i) by direct O(n_steps^2) accumulation on pair differences.

    The same left-endpoint double sum as the mode table at eps > 0, with
    the derivative kernel evaluated through its truncated mode series,
    and as the near/far split at eps = 0, with the closed form
    (alpha/2) g' from eval_dphi at every pair.
    """
    states = path.states
    n_paths, _, N = states.shape
    n = path.grid.n_steps
    dt = path.grid.dt
    times = path.grid.times
    phi = np.zeros((n_paths, n, N))
    for a in range(1, n):
        # diff[p, i, b, j] = x_{i, t_a} - x_{j, t_b},  b < a
        diff = states[:, a, :, None, None] - states[:, None, :a, :]
        dphi = eval_dphi(diff, times[a] - times[None, :a, None], 2 * eps, params, k_max)
        phi[:, a, :] = 2 * dt * np.sum(dphi, axis=(2, 3))
    return phi


def _theta_one_direction(states, times, modes, eps, g_L):
    """(direct, boundary, ito) of the e^{-s}-weighted vector, one exp per mode."""
    step_w = np.exp(-times[:-1]) - np.exp(-times[1:])
    exp_t = np.exp(-times[:-1])
    inc = np.diff(states, axis=1)
    root_g = np.sqrt(g_L)
    denom = 1 + modes**2 / 2
    phase = np.exp(-1j * modes[None, None, None, :] * states[:, :, :, None])
    srcsum = phase.sum(axis=2)
    direct = -root_g * np.einsum("pbk,b->pk", srcsum[:, :-1], step_w)
    psi0 = -root_g * srcsum[:, 0]
    psib = -root_g * np.exp(-times[-1]) * srcsum[:, -1]
    boundary = (psi0 - psib) / denom
    psi_j = -root_g * phase[:, :-1] * exp_t[None, :, None, None]
    ito = -(1j * modes / denom) * np.einsum("pbjk,pbj->pk", psi_j, inc)
    damp = np.exp(-eps * modes**2)
    return direct * damp, boundary * damp, ito * damp


def theta_two_pass(path, eps, params, mode_count=64):
    """theta and theta_tilde on modes pi/L * {-mode_count..mode_count}.

    Two independent passes with one complex exponential per mode and
    node: the path itself for theta, and the time-reversed path for
    theta_tilde[x](k) = theta[x o rev](-k).  Returns the six arrays
    (direct, boundary, ito, tilde_direct, tilde_boundary, tilde_ito).
    """
    modes = np.pi * np.arange(-mode_count, mode_count + 1) / params.L
    times = path.grid.times
    fwd = _theta_one_direction(path.states, times, modes, eps, params.g_L)
    rev = _theta_one_direction(path.states[:, ::-1], times, modes, eps, params.g_L)
    return fwd + tuple(a[:, ::-1] for a in rev)


def full_coupling_hamiltonian(N, symmetry, pot, params, spec):
    """build_H_eps with every mode m <= spec.k_max in the space and coupled."""
    sector = ed._Sector(N, symmetry, spec.n_el_basis)
    terms = ()
    if params.alpha > 0:
        terms = ed._interaction_blocks(sector, spec, params, spec.k_max)
    space = FockSpace(modes=range(1 + 2 * spec.k_max), cap=spec.n_ph_max)
    return ed._assemble(sector.electronic(pot, params.L), space, terms)


def kron_sum_hamiltonian(N, symmetry, pot, params, spec):
    """build_H_eps summed term by term from scipy.sparse.kron products:
    h_el (x) 1 + 1 (x) diag(n), then + c_k kron(E_k, Q_k) per mode."""
    sector = ed._Sector(N, symmetry, spec.n_el_basis)
    n_modes = ed.kept_modes(params, spec)
    terms = ()
    if params.alpha > 0:
        terms = ed._interaction_blocks(sector, spec, params, n_modes)
    space = FockSpace(modes=range(1 + 2 * n_modes), cap=spec.n_ph_max)
    h_el = sector.electronic(pot, params.L)
    H = (scipy.sparse.kron(scipy.sparse.csr_matrix(h_el),
                           scipy.sparse.identity(space.dim, format="csr"))
         + scipy.sparse.kron(scipy.sparse.identity(sector.dim, format="csr"),
                             scipy.sparse.diags(space.total_occupation, format="csr")))
    for pos, (c, E) in enumerate(terms):
        low = annihilator(space, pos)
        H = H + c * scipy.sparse.kron(scipy.sparse.csr_matrix(E), low + low.T)
    return H.tocsr()


def expm_ratio_energy(H, spec, beta, delta, L=1.0):
    """ratio_energy_oracle by expm_multiply: w = e^{-beta H/2} u, then
    e^{-delta H/2} w, on the N = 1 Hamiltonian H, a sparse matrix.

    <u| e^{-tH} |u> = ||e^{-tH/2} u||^2 for symmetric H.  On the matrix,
    not an operator: on an operator expm_multiply estimates the 1-norm
    with onenormest, which draws from numpy's global unseeded RNG.
    """
    u = ed.uniform_vacuum_vector(spec, H.shape[0] // spec.n_el_basis, L)
    w = scipy.sparse.linalg.expm_multiply(-(beta / 2) * H, u)
    w_more = scipy.sparse.linalg.expm_multiply(-(delta / 2) * H, w)
    return float(-np.log((w_more @ w_more) / (w @ w)) / delta)
