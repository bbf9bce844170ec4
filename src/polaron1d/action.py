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
of the closed-form phi.  Phi splits at time blocks of _DRIFT_BLOCK
steps: sources inside the block of step a go through g' pair by pair,
and the earlier blocks through one prefix and one suffix sum of
e^{+-sqrt2 y} over the positions of one path sorted mod L (g is
L-periodic; with x and y in [0, L), x - y lies in (-L, L), where their
order picks the separable branch of g'), read at each node's tie run.
That costs O(n_steps * B N^2) pair terms and O(n_steps^2 N / B) table
entries per path instead of O(n_steps^2 N^2) pair terms.  Every eps = 0
array is path-minor, (step, particle, path), so elementwise work runs
over a chunk's paths in its inner loop.

s_eff_decomposed makes the only pass over chunks of paths, sized so
that the largest array of a chunk stays under _TABLE_BUDGET_BYTES, and
each branch gives Phi, X and Z of one chunk.  Every term is elementwise
or a reduction along one path, so the chunks change no bit.

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

from .kernels import (
    SQRT2,
    ModelParams,
    damped_mode_count,
    eval_dphi,
    eval_phi,
    mode_wavenumbers,
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


FREE = PotentialSpec()

# Size of the largest array of one chunk of paths: the eps > 0 mode table
# (paths x nodes x particles x modes, complex), the theta phase table, the
# eps = 0 pair arrays and the drift's rank tables.  The paths are
# processed in chunks sized to stay under this.
_TABLE_BUDGET_BYTES = 2**19

# Steps per time block of the eps = 0 drift: pairs inside a block use g'
# directly, earlier blocks the sorted sums.  A constant, not a function of
# n_steps, so that a horizon row sees the same blocks as a prefix call;
# about sqrt(n_steps) on the 96-160-step grids of the checks.
_DRIFT_BLOCK = 8

# Largest L for the eps = 0 drift: its tables hold sums of e^{sqrt2 y}
# with 0 <= y <= L, and e^{sqrt2 400} ~ 1e245 leaves room for any node count.
_DRIFT_L_MAX = 400.0


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
    part: PathSample, eps: float, params: ModelParams, k_max: int, steps: tuple
) -> tuple:
    """(Phi, X, Z) of the eps > 0 action from one mode table of a path chunk.

    Phi has shape (n_paths, n_steps, N); X and Z are rows (k, n_paths)
    for the k horizons in steps.  Every horizon row is bitwise equal to
    a call on its prefix: all reductions run along the mode, particle or
    time axes of one path, and the time blocks start at multiples of a
    step count fixed by dt alone.
    """
    states = part.states
    P, _, N = states.shape
    n = part.grid.n_steps
    dt = part.grid.dt
    g_L = params.g_L
    k = mode_wavenumbers(k_max, params.L)
    c_xz = np.exp(-2 * eps * k**2) / (1 + k**2 / 2)
    c_phi = k * c_xz
    # G rescaled inside blocks of at most unit duration: the growth factor
    # e^{(b - a0) dt} stays below e at any beta.
    B = max(1, int(1.0 / dt))
    grow = dt * np.exp(dt * np.arange(B))[:, None]
    shrink = np.exp(-dt * np.arange(1, B + 1))[:, None]
    X, Z = np.zeros((2, len(steps), P))
    # E[p, b, j, m - 1] = e^{-i k_m x_{j,b}}
    E = _phase_powers(states, 2 * np.pi / params.L, k_max)
    F = E[:, :n].sum(axis=2)
    # G[p, a] = sum_{b < a} dt e^{-(t_a - t_b)} F[p, b]
    G = np.zeros((P, n + 1, k_max), dtype=complex)
    for a0 in range(0, n, B):
        a1 = min(a0 + B, n)
        acc = np.cumsum(grow[:a1 - a0] * F[:, a0:a1], axis=1)
        G[:, a0 + 1:a1 + 1] = shrink[:a1 - a0] * (G[:, a0, None] + acc)
    # Phi^(i)_a = -2 g_L sum_k c_k Im[conj(E_k(a, i)) G_k(a)]
    Ea, Ga = E[:, 1:n], G[:, 1:n, None]
    im = Ea.real * Ga.imag - Ea.imag * Ga.real
    drift = np.zeros((P, n, N))
    drift[:, 1:] = -2 * g_L * np.sum(im * c_phi, axis=-1)
    if N >= 2:  # X vanishes for one particle; skip its rounding noise
        pair = np.sum((F.real**2 + F.imag**2 - N) * c_xz, axis=-1)
        per_step = 0.5 * g_L * (N * N - N + 2 * pair)
        for r, h in enumerate(steps):
            X[r] = 2 * dt * np.sum(per_step[:, :h], axis=1)
    t_left = part.grid.times[:-1]
    for r, h in enumerate(steps):
        Eh, Gh = E[:, h], G[:, h, None]
        re = Eh.real * Gh.real + Eh.imag * Gh.imag
        beta_h = part.grid.beta - (n - h) * dt
        Z[r] = -g_L * (N * N * dt * np.sum(np.exp(-(beta_h - t_left[:h])))
                       + 2 * np.sum(np.sum(re * c_xz, axis=-1), axis=-1))
    return drift, X, Z


def _closed_form_terms(part: PathSample, params: ModelParams, steps: tuple) -> tuple:
    """(Phi, X, Z) of the eps = 0 action from the closed-form phi on a path chunk.

    Shapes as for _mode_table_terms.  The positions are copied once,
    path-minor, (node, particle, path), padded to whole drift blocks.
    X runs one sum over the equal-time pairs i < j, step by step, and
    reads it at every horizon; Z pairs the endpoint x_h with every left
    endpoint before it.  Both are running sums along each path, which add
    in one order for any chunk (np.sum over the leading axes turns
    pairwise for a chunk of one path).

    Phi^(i)_a = 2 dt sum_{b < a} e^{-(t_a - t_b)} sum_j (alpha/2)
    g'(x_{i,a} - x_{j,b}).  Steps a in [k B, (k+1) B) form block k.
    Sources b in [k B, a) go through eval_dphi pair by pair.  The sources
    b < k B go through sorted sums.  g is L-periodic, so only the
    positions x and y mod L enter, in [0, L); their difference lies in
    (-L, L), where the closed form of g' holds, and only the order of x
    and y picks its branch.  With q = e^{-sqrt2 L}, u = e^{sqrt2 x} and
    v = 1 / u,

        g'(x - y) (1 - q) / sqrt2 = q u e^{-sqrt2 y} - v e^{sqrt2 y}    y < x
                                  = u e^{-sqrt2 y} - q v e^{sqrt2 y}    y > x

    and 0 at y = x, where g' is 0 (sgn 0 and the snapped wall).  So one
    sort of a path's nodes mod L serves every step.  For block k, with
    weights w = e^{-(t_{kB} - t_b)} [b < kB] in rank order, one prefix
    table of w e^{sqrt2 y} and one suffix table of w e^{-sqrt2 y} give
    both sides of every node, read at the bounds of its own tie run (the
    ranks of its copies): the prefix below the run and the suffix above
    it directly, the other two sides as the table total minus them.  Such
    a difference keeps the side whose terms are the larger ones, and its
    factor q u or q v times any term of the total is at most 1, so the
    absolute error stays near (n_steps N) eps_mach.  Every time factor is
    <= 1, so nothing overflows at any beta; the tables stay finite for
    L <= _DRIFT_L_MAX.

    Equal positions mod L give 0, as eval_dg does at a separation of 0 or
    at the wall.  A separation within a rounding of a multiple of L (0.3
    against -0.7 at L = 1, where 0.3 - 1 != -0.7 in binary) can land on
    the other side of the jump, a measure-zero event on Brownian paths.

    Phi at the steps before h is bitwise what an h-step prefix of the
    path gives: its nodes keep their order in the sort (copies in node
    order), and the later ones (node n and the pad) weigh an exact 0.
    """
    L = params.L
    if L > _DRIFT_L_MAX:
        raise ValueError(f"the eps = 0 drift needs L <= {_DRIFT_L_MAX}, got {L}")
    states = part.states
    P, _, N = states.shape
    n = part.grid.n_steps
    dt = part.grid.dt
    B = _DRIFT_BLOCK
    n_blocks = -(-n // B)
    S = n_blocks * B * N  # drift nodes f = a N + i, pad included
    x_all = np.zeros((max(n_blocks * B, n + 1), N, P))
    x_all[:n + 1] = states.transpose(1, 2, 0)
    x, left = x_all[:n + 1], x_all[:n]
    X, Z = np.zeros((2, len(steps), P))
    if N >= 2:
        i, j = np.triu_indices(N, 1)
        at_h = np.array(steps) * i.size - 1  # running-sum row of the steps before h
        pair = eval_phi(left[:, i] - left[:, j], 0.0, 0.0, params)
        X = 4 * dt * np.cumsum(pair.reshape(-1, P), axis=0)[at_h]
    # Z: endpoint layer against every left endpoint, weight e^{-(beta_h - s)}
    for r, h in enumerate(steps):
        lag = (part.grid.beta - (n - h) * dt - part.grid.times[:h])[:, None, None, None]
        pair = eval_phi(x[h, None, :, None] - left[:h, None, :], lag, 0.0, params)
        Z[r] = -2 * dt * np.cumsum(pair.reshape(-1, P), axis=0)[-1]
    # wlag[n_blocks B + m] = e^{-m dt} for m >= 1 and 0 for m <= 0
    wlag = np.concatenate([np.zeros(n_blocks * B + 1), np.exp(-dt * np.arange(1, n + 1))])
    decay = np.exp(-dt * np.arange(B))[:, None, None]  # e^{-(t_a - t_{kB})}
    q = np.exp(-SQRT2 * L)
    c_far = 0.5 * params.alpha * SQRT2 / (1 - q)
    xb = x_all[:n_blocks * B].reshape(n_blocks, B, N, P)
    # near: the source b = a - d lies in the block of a, 1 <= d <= a mod B
    near = np.zeros_like(xb)
    for d in range(1, B):
        dphi = eval_dphi(xb[:, d:, :, None] - xb[:, :B - d, None, :], d * dt, 0.0, params)
        for j in range(N):
            near[:, d:] += dphi[:, :, :, j]
    # far: the sources of earlier blocks, from tables over the nodes sorted mod L
    xs = xb.reshape(S, P)
    y = xs - L * np.floor(xs / L)
    order = np.argsort(y, axis=0)
    cols = np.arange(P)
    ys = y.take(order * P + cols)
    # the copies of the value at rank r fill the ranks [first, end); without
    # ties each run is one rank and the (4x slower) stable sort changes nothing
    tie = ys[1:] == ys[:-1]
    rank = np.arange(S)[:, None]
    first, end = rank, rank + 1
    if tie.any():
        order = np.argsort(y, axis=0, kind="stable")
        first = np.zeros((S, P), dtype=np.intp)
        first[1:] = np.maximum.accumulate(np.where(tie, 0, rank[1:]), axis=0)
        end = np.full((S, P), S, dtype=np.intp)
        end[:-1] = np.minimum.accumulate(np.where(tie, S, rank[1:])[::-1], axis=0)[::-1]
    node = order * P + cols  # flat index of the node at each rank
    # flat indices into the (S + 1, P) tables, in node order
    at_first, at_end = np.empty((2, S, P), dtype=np.intp)
    at_first.put(node, first * P + cols)
    at_end.put(node, end * P + cols)
    lag = (n_blocks * B - np.arange(S) // N).take(order)  # wlag[kB + lag] weighs each rank
    e_up = np.exp(SQRT2 * ys)
    e_down = 1 / e_up
    u = np.empty((S, P))  # e^{sqrt2 y} in node order
    u.put(node, e_up)
    v = 1 / u
    up = np.zeros((S + 1, P))  # up[r]: ranks below r
    down = np.zeros((S + 1, P))  # down[r]: ranks r and above
    far = np.zeros((S, P))
    for k in range(1, n_blocks):
        w = wlag[k * B:].take(lag)
        np.cumsum(w * e_up, axis=0, out=up[1:])
        np.cumsum((w * e_down)[::-1], axis=0, out=down[S - 1::-1])
        f = slice(k * B * N, (k + 1) * B * N)
        below, above = at_first[f], at_end[f]
        far[f] = (u[f] * (down.take(above) + q * (down[0] - down.take(below)))
                  - v[f] * (up.take(below) + q * (up[S] - up.take(above))))
    out = 2 * dt * (near + c_far * decay * far.reshape(xb.shape))
    return out.reshape(-1, N, P)[:n].transpose(2, 0, 1).copy(), X, Z


def s_eff_decomposed(
    path: PathSample,
    eps: float,
    params: ModelParams,
    *,
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

    The eps > 0 mode series runs damped_mode_count(2 eps, L) modes, the
    set exact diagonalization keeps; every dropped mode is damped below
    e^{-37}, and at 0 modes (eps >= 0.469 at L = 1) only the k = 0 terms
    are left.  At eps = 0 and alpha != 0 the drift needs
    L <= _DRIFT_L_MAX (400) and raises ValueError above it.
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
    X, Y, Z = np.zeros((3, len(steps), n_paths))
    phi00 = np.zeros(len(steps))
    if params.alpha != 0.0:
        phi_diag = float(eval_phi(0.0, 0.0, 2 * eps, params))
        for r, h in enumerate(steps):
            phi00[r] = 2 * (beta - (n - h) * dt) * N * phi_diag
        if eps > 0.0:
            k_max = damped_mode_count(2 * eps, params.L)
            # sized as for one mode when none is left: 0 would divide by 0
            bytes_per_path = 16 * (n + 1) * path.N * max(1, k_max)
        else:
            bytes_per_path = 8 * (n + 1) * path.N**2
        chunk = max(1, _TABLE_BUDGET_BYTES // bytes_per_path)
        for lo in range(0, n_paths, chunk):
            c = slice(lo, lo + chunk)
            part = PathSample(path.states[c], path.grid)
            if eps > 0.0:
                drift, X[:, c], Z[:, c] = _mode_table_terms(part, eps, params, k_max, steps)
            else:
                drift, X[:, c], Z[:, c] = _closed_form_terms(part, params, steps)
            for r, h in enumerate(steps):
                Y[r, c] = ito_integral(drift[:, :h], part)

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
    s0 = s_eff_decomposed(path, 0.0, params).s_eff
    diffs = np.empty((len(eps_ladder), path.n_paths))
    for row, eps in enumerate(eps_ladder):
        s_eps = s_eff_decomposed(path, eps, params).s_eff
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
