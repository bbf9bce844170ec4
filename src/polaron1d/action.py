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

For eps > 0 the drift profile Phi factorizes over the interaction modes
k = 2 pi m / L: with F_k(b) = sum_j e^{-i k x_{j,b}},

    Phi^(i)_a = -2 g_L sum_{k > 0} c_k Im[ e^{i k x_{i,a}} G_k(a) ],
    c_k = k e^{-2 eps k^2} / (1 + k^2/2),
    G_k(a) = sum_{b < a} dt e^{-(t_a - t_b)} F_k(b)
           = e^{-dt} (G_k(a-1) + dt F_k(a-1)),

which evaluates the same left-endpoint sum in O(n_steps * n_modes)
instead of O(n_steps^2).  At eps = 0 the series has no usable truncation
and Phi is accumulated directly from g' at O(n_steps^2) cost.

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
integrated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import (
    CutoffSpec,
    ModelParams,
    default_k_max,
    eval_dphi,
    eval_phi,
    eval_w_series,
)
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

    def symmetry_defect(self, xs) -> float:
        """max |W(x) - W(-x)| over the probe points (0 when W is None)."""
        if self.W is None:
            return 0.0
        xs = np.asarray(xs, dtype=float)
        return float(np.max(np.abs(self.W(xs) - self.W(-xs))))


FREE = PotentialSpec()

# Peak size of the pairwise-difference temporaries in s_eff_decomposed;
# the time axis is processed in blocks sized to stay under this.
_BLOCK_BUDGET_BYTES = 2**27


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


def _k_max_for(eps: float, params: ModelParams, cutoff: CutoffSpec | None) -> int:
    if cutoff is not None:
        return cutoff.k_max
    return default_k_max(2 * eps, params.L)


def s_eff_direct(
    path: PathSample,
    eps: float,
    params: ModelParams,
    cutoff: CutoffSpec | None = None,
) -> np.ndarray:
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
    kcut = CutoffSpec(epsilon=eps, k_max=_k_max_for(eps, params, cutoff))
    out = np.zeros(path.n_paths)
    for a in range(n):
        # diff[p, b, i, j] = x_{i, t_a} - x_{j, t_b}
        diff = left[:, a, None, :, None] - left[:, :, None, :]
        w = eval_w_series(diff, eps, params, kcut)
        out += np.sum(w, axis=(2, 3)) @ ew[a]
    return out * dt * dt


def _drift_profile_modes(
    path: PathSample, eps: float, params: ModelParams, k_max: int
) -> np.ndarray:
    """Phi^(i) at all left endpoints via the mode-prefix recursion (eps > 0)."""
    states = path.states
    n_paths, _, N = states.shape
    n = path.grid.n_steps
    dt = path.grid.dt
    L = params.L
    k = 2 * np.pi * np.arange(1, k_max + 1) / L
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


def _drift_profile_direct(
    path: PathSample,
    eps: float,
    params: ModelParams,
    cutoff: CutoffSpec | None = None,
) -> np.ndarray:
    """Phi^(i) by direct O(n_steps^2) accumulation.

    Reference for the mode recursion at eps > 0 (identical sums, so
    agreement is at rounding level) and the only evaluation at eps = 0,
    where the derivative kernel is the closed form g'.
    """
    states = path.states
    n_paths, _, N = states.shape
    n = path.grid.n_steps
    dt = path.grid.dt
    times = path.grid.times
    kcut = (
        None
        if eps == 0.0
        else CutoffSpec(epsilon=eps, k_max=_k_max_for(eps, params, cutoff))
    )
    phi = np.zeros((n_paths, n, N))
    for a in range(1, n):
        # diff[p, i, b, j] = x_{i, t_a} - x_{j, t_b},  b < a
        diff = states[:, a, :, None, None] - states[:, None, :a, :]
        dphi = eval_dphi(diff, times[a] - times[None, :a, None], 2 * eps, params, kcut)
        phi[:, a, :] = 2 * dt * np.sum(dphi, axis=(2, 3))
    return phi


def s_eff_decomposed(
    path: PathSample,
    eps: float,
    params: ModelParams,
    cutoff: CutoffSpec | None = None,
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
    computed once; Z and phi(0,0) are evaluated per row, Z on the time
    blocks of the full pass clipped at the horizon.
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
    states = path.states
    left = states[:, :-1, :]
    sel = _s_el_rows(path, pot, steps)
    X = np.zeros((len(steps), n_paths))
    Y = np.zeros_like(X)
    Z = np.zeros_like(X)
    phi00 = np.zeros(len(steps))
    if params.alpha != 0.0:
        k_max = _k_max_for(eps, params, cutoff)
        kcut = None if eps == 0.0 else CutoffSpec(epsilon=eps, k_max=k_max)
        phi_diag = float(eval_phi(0.0, 0.0, 2 * eps, params, kcut))
        k_cost = 4 if eps == 0.0 else max(k_max, 4)
        block = max(1, min(n, _BLOCK_BUDGET_BYTES // (8 * n_paths * N * N * k_cost)))
        blocks = [(lo, min(lo + block, n)) for lo in range(0, n, block)]

        if N >= 2:
            for lo, hi in blocks:
                seg = left[:, lo:hi, :]
                phival = eval_phi(seg[:, :, :, None] - seg[:, :, None, :],
                                  0.0, 2 * eps, params, kcut)
                for r, h in enumerate(steps):
                    if lo < h:
                        part = phival[:, :min(hi, h) - lo]
                        X[r] += np.sum(part, axis=(1, 2, 3)) - part.shape[1] * N * phi_diag
            X = 2 * dt * X

        # Z: endpoint layer against every left endpoint, weight e^{-(beta_h - s)}.
        t_left = path.grid.times[:-1]
        for r, h in enumerate(steps):
            beta_h = beta - (n - h) * dt
            phi00[r] = 2 * beta_h * N * phi_diag
            endpoint = states[:, h, None, :, None]
            for lo, hi in blocks:
                if lo < h:
                    hi = min(hi, h)
                    diff_z = endpoint - left[:, lo:hi, None, :]
                    tz = (beta_h - t_left[lo:hi])[None, :, None, None]
                    Z[r] += np.sum(eval_phi(diff_z, tz, 2 * eps, params, kcut),
                                   axis=(1, 2, 3))
        Z = -2 * dt * Z

        if eps > 0.0:
            drift = _drift_profile_modes(path, eps, params, k_max)
        else:
            drift = _drift_profile_direct(path, eps, params, cutoff)
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
    cutoff: CutoffSpec | None = None,
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
    s0 = s_eff_decomposed(path, 0.0, params, cutoff).s_eff
    diffs = np.empty((len(eps_ladder), path.n_paths))
    for row, eps in enumerate(eps_ladder):
        s_eps = s_eff_decomposed(path, eps, params, cutoff).s_eff
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


def _theta_forward(states, times, modes, eps, params, mode_block=16):
    """(direct, boundary, ito) for the e^{-s}-weighted vector on one grid.

    Damping is applied as a final per-mode scale, so ladders over eps
    reuse bitwise-identical undamped sums.
    """
    n_paths, n_nodes, N = states.shape
    n = n_nodes - 1
    beta = times[-1]
    step_w = np.exp(-times[:-1]) - np.exp(-times[1:])
    exp_t = np.exp(-times[:-1])
    inc = np.diff(states, axis=1)
    n_modes = modes.size
    direct = np.empty((n_paths, n_modes), dtype=complex)
    boundary = np.empty_like(direct)
    ito = np.empty_like(direct)
    root_g = np.sqrt(params.g_L)
    for lo in range(0, n_modes, mode_block):
        k = modes[lo:lo + mode_block]
        phase = np.exp(-1j * k[None, None, None, :] * states[:, :, :, None])
        srcsum = phase.sum(axis=2)
        direct[:, lo:lo + k.size] = -root_g * np.einsum("pbk,b->pk", srcsum[:, :-1], step_w)
        psi0 = -root_g * srcsum[:, 0]
        psib = -root_g * np.exp(-beta) * srcsum[:, -1]
        denom = 1 + k**2 / 2
        boundary[:, lo:lo + k.size] = (psi0 - psib) / denom
        psi_j = -root_g * phase[:, :-1] * exp_t[None, :, None, None]
        stoch = np.einsum("pbjk,pbj->pk", psi_j, inc)
        ito[:, lo:lo + k.size] = -(1j * k / denom) * stoch
    damp = np.exp(-eps * modes**2)
    return direct * damp, boundary * damp, ito * damp


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
    L = params.L
    modes = np.pi * np.arange(-mode_count, mode_count + 1) / L
    times = path.grid.times
    d, b, i = _theta_forward(path.states, times, modes, eps, params)
    rd, rb, ri = _theta_forward(path.states[:, ::-1, :], times, modes, eps, params)
    flip = slice(None, None, -1)
    return ThetaIntegrals(
        modes=modes,
        direct=d, boundary=b, ito=i,
        tilde_direct=rd[:, flip], tilde_boundary=rb[:, flip], tilde_ito=ri[:, flip],
    )
