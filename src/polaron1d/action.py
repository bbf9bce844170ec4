"""Retarded effective action and its stochastic-integral decomposition.

Integrating the phonons out of the cutoff Hamiltonian leaves, per path,

    S_eps     = S_el + S_eff,eps,
    S_el      = -int_0^beta U(x_s) ds,
    S_eff,eps = int_0^beta int_0^beta e^{-|s-t|}
                sum_{i,j} w_eps(x_{i,s} - x_{j,t}) ds dt,

with w_eps the pair kernel from `kernels` (mode damping e^{-2 eps k^2}:
one factor e^{-eps k^2} per interaction vertex).  Every `eps` in this
module is that physical per-vertex cutoff.  The phi-side kernels in
`kernels` carry e^{-eps k^2} in their own argument, so they are called
with 2*eps here; the heat identity then pairs exactly:

    (d/dt + (1/2) d^2/dx^2) phi_{2 eps}(x, t) = -w_eps(x) e^{-t},  t > 0.

Ito's formula applied to t |-> phi(x_{i,t} - x_{j,s}, t-s) turns the
double time integral into boundary, drift and martingale parts:

    S_eff,eps = 2 beta N phi(0,0) + X + Y + Z,
    X = 2 sum_{i != j} int_0^beta phi(x_{i,s} - x_{j,s}, 0) ds,
    Y = sum_i int_0^beta Phi^(i)_t dx_{i,t},
        Phi^(i)_t = 2 sum_j int_0^t (d/dx phi)(x_{i,t} - x_{j,s}, t-s) ds,
    Z = -2 sum_{i,j} int_0^beta phi(x_{i,beta} - x_{j,s}, beta-s) ds,

all phi at damping 2*eps as above, closed forms (alpha/2) g / (alpha/2) g'
at eps = 0.  Quadrature conventions, fixed throughout: inner time
integrals are left-endpoint sums (matching the Ito convention of the
outer stochastic integral; mixing conventions puts an O(1) bias into Y),
and the direct double sum is left-endpoint in both variables.  The
eps = 0 action is only defined through the decomposition.

For eps > 0 the whole action factorizes over the interaction modes
k = 2 pi m / L, m = 1..k_max.  One table per chunk of paths,
E_k(b, j) = e^{-i k x_{j,b}} (one exp of the fundamental mode, then
powers by a cumulative product over m), gives F_k(b) = sum_j E_k(b, j) and

    G_k(a) = sum_{b < a} dt e^{-(t_a - t_b)} F_k(b)
           = e^{-dt} (G_k(a-1) + dt F_k(a-1)),

evaluated as a rescaled cumulative sum inside time blocks of at most unit
duration (so nothing overflows at large beta).  With
c'_k = e^{-2 eps k^2} / (1 + k^2/2) and c_k = k c'_k,

    Phi^(i)_a = -2 g_L sum_k c_k Im[ conj(E_k(a, i)) G_k(a) ],
    X = dt g_L sum_{a < h} [ N^2 - N + 2 sum_k c'_k (|F_k(a)|^2 - N) ],
    Z = -g_L [ N^2 sum_{s < h} dt e^{-(t_h - t_s)}
               + 2 Re sum_{i,k} c'_k conj(E_k(h, i)) G_k(h) ],

so X, Y and Z come from the same table in O(n_steps * N * n_modes) per
path instead of O(n_steps^2) or O(n_steps * N^2 * n_modes) pair sums.
At eps = 0 the series has no usable truncation: X and Z are pair sums
of the closed-form phi, and Phi is accumulated directly from g' at
O(n_steps^2) cost.

Restricting a path to its first h steps (horizon beta_h) leaves S_el, X
and Y as sums over those steps of per-step terms that do not see h: Phi
at step a uses only the steps before a.  Only Z (endpoint x_{beta_h},
weights e^{-(beta_h - s)}) and 2 beta_h N phi(0,0) depend on the horizon,
so s_eff_decomposed evaluates several horizons of one path in one pass.

The module also evaluates the coherent displacement vectors of the
Fock-space kernel, on the full mode lattice pi/L * Z:

    theta(k)       = -g_L^{1/2} e^{-eps k^2} sum_j
                     int_0^beta e^{-i k x_{j,s}} e^{-s} ds,
    theta_tilde(k) = the same with e^{+i k x_{j,s}} and weight e^{-(beta-s)}.

Writing Psi(s) = -g_L^{1/2} e^{-eps k^2} e^{-s} sum_j e^{-i k x_{j,s}},
each summand depends on a single coordinate, so Ito's formula gives
d Psi_j = -(1 + k^2/2) Psi_j ds - i k Psi_j dx_j, hence

    theta(k) = [Psi(0, x_0) - Psi(beta, x_beta)] / (1 + k^2/2)
               - sum_j (i k / (1 + k^2/2)) int_0^beta Psi_j dx_{j,s}.

The denominator is 1 + k^2/2 for every N: the Laplacian hits one
coordinate per summand.  theta_tilde needs no separate derivation; with
rev the time reversal s -> beta - s one has, exactly,

    theta_tilde[x](k) = theta[x o rev](-k),

and the discrete evaluator uses that identity verbatim (its Ito part is
therefore a left-endpoint sum on the reversed path, i.e. a backward sum
on the original one).  Direct quadrature of both vectors uses the exact
per-step weights int_{t_b}^{t_{b+1}} e^{-s} ds = e^{-t_b} - e^{-t_{b+1}}
with the position frozen at the left endpoint, so a constant path is
integrated exactly.  One table per chunk of paths,
E(b, j, m) = e^{-i m (pi/L) x_{j,b}} for m >= 0 (powers as in the action
table), serves both vectors: read forwards with the increments it gives
theta, read backwards with the increments reversed and negated it gives
theta of the reversed path.  A real path has theta(-k) = conj theta(k),
so the k < 0 half comes by conjugation; e^{-eps k^2} is a final per-mode
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import ModelParams, _resolve_k_max, eval_dphi, eval_phi
from .paths import PathSample, ito_integral


@dataclass(frozen=True)
class PotentialSpec:
    """External one-body potential V and symmetric pair potential W.

    U(x) = sum_j V(x_j) + sum_{i<j} W(x_i - x_j).  Both callables must
    accept numpy arrays elementwise.
    """

    V: Callable | None = None
    W: Callable | None = None

    def total(self, states: np.ndarray) -> np.ndarray:
        """U evaluated on states of shape (..., N)."""
        states = np.asarray(states, dtype=float)
        u = np.zeros(states.shape[:-1])
        if self.V is not None:
            u = u + np.sum(self.V(states), axis=-1)
        if self.W is not None:
            N = states.shape[-1]
            for i in range(N):
                for j in range(i + 1, N):
                    u = u + self.W(states[..., i] - states[..., j])
        return u


FREE = PotentialSpec()

# Size of one eps > 0 mode table (paths x nodes x particles x modes,
# complex); the paths are processed in chunks sized to stay under this.
_TABLE_BUDGET_BYTES = 2**19


@dataclass(frozen=True)
class ActionBreakdown:
    """Per-path action values; components of the S_eff decomposition.

    s_eff is stored as phi00_term + X + Y + Z and s_total as
    s_el + s_eff, so both identities hold by construction.  With
    `horizons`, per-path fields have shape (k, n_paths), phi00_term shape
    (k,), and n_paths, n_steps stay those of the path.
    """

    s_el: np.ndarray
    phi00_term: float
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    s_eff: np.ndarray
    s_total: np.ndarray
    epsilon: float
    n_paths: int
    n_steps: int


def s_el(path: PathSample, pot: PotentialSpec | None) -> np.ndarray:
    """Electronic action -int U(x_s) ds, left-endpoint quadrature."""
    return _s_el_rows(path, pot, (path.grid.n_steps,))[0]


def _s_el_rows(path: PathSample, pot: PotentialSpec | None, steps) -> np.ndarray:
    """s_el over the first h steps for each h in steps, shape (k, n_paths)."""
    if pot is None or (pot.V is None and pot.W is None):
        return np.zeros((len(steps), path.n_paths))
    u = pot.total(path.states[:, :-1, :])
    return np.stack([-path.grid.dt * np.sum(u[:, :h], axis=1) for h in steps])


def _phase_powers(x: np.ndarray, k0: float, n_modes: int) -> np.ndarray:
    """E[..., m - 1] = e^{-i m k0 x} for m = 1..n_modes on a new trailing axis.

    One exp of the fundamental mode, then powers by a cumulative product
    over m.
    """
    E = np.repeat(np.exp(-1j * k0 * x)[..., None], n_modes, axis=-1)
    return np.cumprod(E, axis=-1, out=E)


def _mode_table_terms(
    path: PathSample, eps: float, params: ModelParams, k_max: int, steps: tuple
) -> tuple:
    """(Phi, X, Z) of the eps > 0 action from one mode table per path chunk.

    Phi has shape (n_paths, n_steps, N); X and Z are rows (k, n_paths)
    for the k horizons in steps.  Every horizon row is bitwise equal to
    a call on its prefix: all reductions run along the mode, particle or
    time axes of one path, and the time blocks start at multiples of a
    step count fixed by dt alone.
    """
    states = path.states
    n_paths, _, N = states.shape
    n = path.grid.n_steps
    dt = path.grid.dt
    g_L = params.g_L
    k = 2 * np.pi * np.arange(1, k_max + 1) / params.L
    c_xz = np.exp(-2 * eps * k**2) / (1 + k**2 / 2)
    c_phi = k * c_xz
    # G rescaled inside blocks of at most unit duration: the growth factor
    # e^{(b - a0) dt} stays below e at any beta.
    B = max(1, int(1.0 / dt))
    grow = dt * np.exp(dt * np.arange(B))[:, None]
    shrink = np.exp(-dt * np.arange(1, B + 1))[:, None]
    drift = np.zeros((n_paths, n, N))
    X = np.zeros((len(steps), n_paths))
    Z = np.zeros_like(X)
    chunk = max(1, _TABLE_BUDGET_BYTES // (16 * (n + 1) * N * k_max))
    for lo in range(0, n_paths, chunk):
        hi = min(lo + chunk, n_paths)
        # E[p, b, j, m - 1] = e^{-i k_m x_{j,b}}
        E = _phase_powers(states[lo:hi], k[0], k_max)
        F = E[:, :n].sum(axis=2)
        # G[p, a] = sum_{b < a} dt e^{-(t_a - t_b)} F[p, b]
        G = np.zeros((hi - lo, n + 1, k_max), dtype=complex)
        for a0 in range(0, n, B):
            a1 = min(a0 + B, n)
            acc = np.cumsum(grow[:a1 - a0] * F[:, a0:a1], axis=1)
            G[:, a0 + 1:a1 + 1] = shrink[:a1 - a0] * (G[:, a0, None] + acc)
        # Phi^(i)_a = -2 g_L sum_k c_k Im[conj(E_k(a, i)) G_k(a)]
        Ea, Ga = E[:, 1:n], G[:, 1:n, None]
        im = Ea.real * Ga.imag - Ea.imag * Ga.real
        drift[lo:hi, 1:] = -2 * g_L * np.sum(im * c_phi, axis=-1)
        if N >= 2:  # X vanishes for one particle; skip its rounding noise
            pair = np.sum((F.real**2 + F.imag**2 - N) * c_xz, axis=-1)
            per_step = 0.5 * g_L * (N * N - N + 2 * pair)
            for r, h in enumerate(steps):
                X[r, lo:hi] = 2 * dt * np.sum(per_step[:, :h], axis=1)
        for r, h in enumerate(steps):
            Eh, Gh = E[:, h], G[:, h, None]
            re = Eh.real * Gh.real + Eh.imag * Gh.imag
            Z[r, lo:hi] = 2 * np.sum(np.sum(re * c_xz, axis=-1), axis=-1)
    t_left = path.grid.times[:-1]
    for r, h in enumerate(steps):
        beta_h = path.grid.beta - (n - h) * dt
        Z[r] = -g_L * (N * N * dt * np.sum(np.exp(-(beta_h - t_left[:h]))) + Z[r])
    return drift, X, Z


def _pair_terms_closed_form(
    path: PathSample, params: ModelParams, steps: tuple, phi_diag: float
) -> tuple:
    """(X, Z) rows (k, n_paths) at eps = 0 from the closed-form phi.

    X sums one equal-time pair array (n_paths, n_steps, N, N) over the
    first h steps and removes the h N phi(0,0) of the diagonal; Z pairs
    the endpoint x_h with every left endpoint before it.
    """
    states = path.states
    left = states[:, :-1, :]
    n_paths, _, N = states.shape
    n = path.grid.n_steps
    dt = path.grid.dt
    X = np.zeros((len(steps), n_paths))
    Z = np.zeros_like(X)
    if N >= 2:
        pair = eval_phi(left[:, :, :, None] - left[:, :, None, :], 0.0, 0.0, params)
        for r, h in enumerate(steps):
            X[r] = 2 * dt * (np.sum(pair[:, :h], axis=(1, 2, 3)) - h * N * phi_diag)
    # Z: endpoint layer against every left endpoint, weight e^{-(beta_h - s)}.
    t_left = path.grid.times[:-1]
    for r, h in enumerate(steps):
        beta_h = path.grid.beta - (n - h) * dt
        diff = states[:, h, None, :, None] - left[:, :h, None, :]
        lag = (beta_h - t_left[:h])[None, :, None, None]
        Z[r] = np.sum(eval_phi(diff, lag, 0.0, params), axis=(1, 2, 3))
    return X, -2 * dt * Z


def _drift_profile_direct(path: PathSample, params: ModelParams) -> np.ndarray:
    """Phi^(i) at eps = 0 by direct O(n_steps^2) accumulation of g'."""
    states = path.states
    n_paths, _, N = states.shape
    n = path.grid.n_steps
    dt = path.grid.dt
    times = path.grid.times
    phi = np.zeros((n_paths, n, N))
    for a in range(1, n):
        # diff[p, i, b, j] = x_{i, t_a} - x_{j, t_b},  b < a
        diff = states[:, a, :, None, None] - states[:, None, :a, :]
        dphi = eval_dphi(diff, times[a] - times[None, :a, None], 0.0, params)
        phi[:, a, :] = 2 * dt * np.sum(dphi, axis=(2, 3))
    return phi


def s_eff_decomposed(
    path: PathSample,
    eps: float,
    params: ModelParams,
    k_max: int | None = None,
    pot: PotentialSpec | None = None,
    horizons: tuple | None = None,
) -> ActionBreakdown:
    """S_eff via the phi(0,0) / X / Y / Z decomposition; works at eps = 0.

    The eps = 0 branch runs entirely on the closed-form kernels.  The
    breakdown carries s_el (zero unless a potential is supplied) so
    s_total is the complete path weight exponent.

    `horizons`, a tuple of step counts h <= n_steps, asks for one row per
    horizon from a single pass: row i is what a call on the h_i-step
    prefix of the path returns, its horizon n_steps - h_i steps before
    beta.  Per-path fields then have shape (k, n_paths) and phi00_term
    shape (k,).  X, Y and S_el rows sum slices of per-step arrays
    computed once; Z and phi(0,0) are evaluated per row.  At eps > 0, Z
    reads the mode table at the horizon node; at eps = 0 it pairs the
    horizon node with the left endpoints before it.

    k_max truncates the eps > 0 mode series (default: default_k_max at
    damping 2 eps); it must be >= 1 at every eps, also at alpha = 0.
    """
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    n_paths = path.n_paths
    n = path.grid.n_steps
    steps = (n,) if horizons is None else tuple(int(h) for h in horizons)
    if not all(1 <= h <= n for h in steps):
        raise ValueError(f"horizons must lie in 1..{n}, got {horizons}")
    N = params.N
    beta = path.grid.beta
    dt = path.grid.dt
    sel = _s_el_rows(path, pot, steps)
    X = np.zeros((len(steps), n_paths))
    Y = np.zeros_like(X)
    Z = np.zeros_like(X)
    phi00 = np.zeros(len(steps))
    k_max = _resolve_k_max(k_max, 2 * eps, params.L)
    if params.alpha != 0.0:
        phi_diag = float(eval_phi(0.0, 0.0, 2 * eps, params, k_max))
        for r, h in enumerate(steps):
            phi00[r] = 2 * (beta - (n - h) * dt) * N * phi_diag
        if eps > 0.0:
            drift, X, Z = _mode_table_terms(path, eps, params, k_max, steps)
        else:
            X, Z = _pair_terms_closed_form(path, params, steps, phi_diag)
            drift = _drift_profile_direct(path, params)
        Y = np.stack([ito_integral(drift[:, :h], path) for h in steps])

    s_eff = phi00[:, None] + X + Y + Z
    if horizons is None:
        sel, X, Y, Z, s_eff = sel[0], X[0], Y[0], Z[0], s_eff[0]
        phi00 = float(phi00[0])
    return ActionBreakdown(
        s_el=sel, phi00_term=phi00, X=X, Y=Y, Z=Z,
        s_eff=s_eff, s_total=sel + s_eff, epsilon=eps,
        n_paths=n_paths, n_steps=n,
    )


def uv_convergence_study(
    path: PathSample,
    eps_ladder,
    params: ModelParams,
    k_max: int | None = None,
) -> dict:
    """Per-path |S_eff,eps - S_eff,0| along a decreasing eps ladder.

    Returns the eps values, the matrix of absolute differences
    (n_eps, n_paths), their medians and means, and the eps = 0 values
    themselves (for nonnegativity and monotonicity checks).
    """
    eps_ladder = [float(e) for e in eps_ladder]
    if any(e <= 0 for e in eps_ladder):
        raise ValueError("uv ladder entries must be > 0")
    if any(b >= a for a, b in zip(eps_ladder, eps_ladder[1:])):
        raise ValueError("uv ladder must decrease")
    s0 = s_eff_decomposed(path, 0.0, params, k_max).s_eff
    diffs = np.empty((len(eps_ladder), path.n_paths))
    for row, eps in enumerate(eps_ladder):
        s_eps = s_eff_decomposed(path, eps, params, k_max).s_eff
        diffs[row] = np.abs(s_eps - s0)
    return {
        "eps": np.array(eps_ladder),
        "abs_diff": diffs,
        "median_abs_diff": np.median(diffs, axis=1),
        "mean_abs_diff": np.mean(diffs, axis=1),
        "s_eff_0": s0,
    }


@dataclass(frozen=True)
class ThetaIntegrals:
    """Displacement vectors theta, theta_tilde: direct and Ito-split forms.

    Arrays have shape (n_paths, n_modes) over the mode axis pi/L * m,
    m = -mode_count .. mode_count.  decomposed = boundary + ito; the
    discrepancy direct - decomposed vanishes with the step size on
    Brownian paths (and is the realized quadratic-variation defect on
    anything else).
    """

    modes: np.ndarray
    direct: np.ndarray
    boundary: np.ndarray
    ito: np.ndarray
    tilde_direct: np.ndarray
    tilde_boundary: np.ndarray
    tilde_ito: np.ndarray

    @property
    def decomposed(self) -> np.ndarray:
        return self.boundary + self.ito

    @property
    def tilde_decomposed(self) -> np.ndarray:
        return self.tilde_boundary + self.tilde_ito

    @property
    def discrepancy(self) -> np.ndarray:
        return self.direct - self.decomposed

    @property
    def tilde_discrepancy(self) -> np.ndarray:
        return self.tilde_direct - self.tilde_decomposed


def theta_integrals(
    path: PathSample,
    eps: float,
    params: ModelParams,
    mode_count: int = 64,
) -> ThetaIntegrals:
    """Evaluate theta and theta_tilde on modes pi/L * {-mode_count..mode_count}.

    eps here is the single-vertex damping e^{-eps k^2} of the coupling
    (not doubled: each displacement vector carries one vertex).
    """
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    if mode_count < 1:
        raise ValueError(f"mode_count must be >= 1, got {mode_count}")
    modes = np.pi * np.arange(-mode_count, mode_count + 1) / params.L
    k = modes[mode_count:]
    states = path.states
    n_paths, n_nodes, N = states.shape
    times = path.grid.times
    step_w = np.exp(-times[:-1]) - np.exp(-times[1:])
    exp_t = np.exp(-times[:-1])[:, None]
    exp_beta = np.exp(-times[-1])
    # sums[d, q, p, m] at k_m >= 0: direction d (path, reversed path),
    # q = direct, boundary, Ito, all before their mode factors
    sums = np.empty((2, 3, n_paths, k.size), dtype=complex)
    chunk = max(1, _TABLE_BUDGET_BYTES // (16 * n_nodes * N * k.size))
    for lo in range(0, n_paths, chunk):
        x = states[lo:lo + chunk]
        # E[p, b, j, m] = e^{-i m (pi/L) x_{j,b}}, m = 0..mode_count
        powers = _phase_powers(x, np.pi / params.L, mode_count)
        E = np.concatenate([np.ones(x.shape + (1,)), powers], axis=-1)
        F = E.sum(axis=2)
        inc = np.diff(x, axis=1)
        out = sums[:, :, lo:lo + chunk]
        # the reversed path reads the same table backwards
        reads = ((E, F, inc), (E[:, ::-1], F[:, ::-1], -inc[:, ::-1]))
        for d, (E_d, F_d, inc_d) in enumerate(reads):
            out[d, 0] = np.einsum("pbm,b->pm", F_d[:, :-1], step_w)
            out[d, 1] = F_d[:, 0] - exp_beta * F_d[:, -1]
            out[d, 2] = np.einsum("pbjm,pbj->pm", E_d[:, :-1], inc_d * exp_t)
    denom = 1 + k**2 / 2
    scale = -np.sqrt(params.g_L) * np.exp(-eps * k**2) * np.stack(
        [np.ones_like(k), 1 / denom, -1j * k / denom])
    (d, b, i), (rd, rb, ri) = sums * scale[:, None, :]

    def mirrored(half):  # theta(-k) = conj theta(k) on a real path
        return np.concatenate([half[:, :0:-1].conj(), half], axis=1)

    # theta_tilde[x](k) = theta[x o rev](-k)
    return ThetaIntegrals(
        modes=modes,
        direct=mirrored(d), boundary=mirrored(b), ito=mirrored(i),
        tilde_direct=mirrored(rd)[:, ::-1], tilde_boundary=mirrored(rb)[:, ::-1],
        tilde_ito=mirrored(ri)[:, ::-1],
    )
