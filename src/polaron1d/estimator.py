"""Feynman-Kac Monte Carlo estimation of partition functionals and energies.

The sampled quantity is Z_beta = <1|e^{-beta H}|1 x Omega> on the ordered
domain: paths start uniformly on D^{N,(p)}, are killed at the domain
boundary (bridge-corrected survival weights), and carry exp(S) with
S = S_el + S_eff,eps.  The estimate multiplies the sample mean by the
domain volume (2L)^N / (p! (N-p)!).

Randomness is organized per path block: block b draws start points from
generator key [seed, 2b] and Brownian increments from [seed, 2b + 1].
Results are therefore bit-identical for a fixed RunConfig regardless of
the worker count.  One thread pool of n_workers threads runs the blocks
for every worker count, one included; threads only decide which core
fills which block (the heavy work is inside numpy, which releases the
GIL).

The ratio variant estimates -(1/delta) log(Z_{beta+delta} / Z_beta),
which cancels the overlap prefactor at finite beta.  Each sample is one
path run to beta + delta, and both horizons come from one pass over it:
`survival_log_weights` and `s_eff_decomposed` take the step counts
(n_beta + n_delta, n_beta) and return one row per horizon.  The two
partition estimates are therefore maximally coupled and the log-ratio
variance comes from batch means of the coupled rows, not independent
error bars.

The action is evaluated only on the paths alive at beta, the shortest
horizon.  A path absorbed before beta has log-survival -inf at every
horizon, so its weight is exactly e^{-inf} = 0 whatever its action; in
`_collect` it carries S_eff = S_el = 0 and its log-weight stays -inf,
also after a sweep scales S_eff.  Every estimate sees the log-weights
the full batch would give.

Such paths are not even stored: `sample_brownian` draws a block in
slices and applies the membership test through beta to each slice as it
is drawn.  That kill test is the only membership pass;
`survival_log_weights` then evaluates the bridge factors of the kept
paths.  The block's generator [seed, 2b + 1] is consumed in path
order across the slices, so slicing changes no bit.  A dead path lives
only in its slice's reused buffers, and a block's paths take about twice
the slice budget (`paths._SLICE_BUDGET_BYTES`) plus the survivors'
states, whatever the block size and grid length.

Coupling sweeps exploit that S_eff is exactly linear in alpha (g_L =
sqrt(2) alpha / L enters every kernel once): the alpha = 1 action is
evaluated per path and scaled, which makes per-path monotonicity in
alpha exact rather than statistical and gives common random numbers
across the sweep for free.  The eps ladder shares its paths the same
way: the seed does not depend on eps, so each block is sampled and
killed once and only the action runs once per rung.

Every number here goes through one function, `log_mean_estimate`: per-path
log-weights in rows on shared paths, shape (k, n), and coefficients c give
sum_i c_i log mean exp(row_i) with a batch-means delta-method stderr.

    plain      one row (beta), c = -1/beta, plus -log(volume)/beta
    ratio      rows (beta + delta, beta), c = (-1/delta, +1/delta)
    partition  one row, c = 1; Z = volume e^value, stderr Z * stderr
    sweep      each alpha as above; a paired difference stacks the rows
               of both couplings with c and -c
    ladder     each eps as above, on one path set; paired differences
               as for the sweep
    ordering   each N = 2 sector on its own paths; the gap's paired
               stderr stacks both sectors' rows with c and -c

Each row is shifted by its own maximum before exponentiating, so large
actions cannot overflow.  A row with no survivors (every log-weight
-inf) gives a flagged result instead of a numpy warning: energies come
back as value = stderr = inf, n_effective = 0 and
diagnostics["zero_survivors"] True; partition estimates as (0.0, inf);
paired differences as nan +- inf.

Each energy estimate also goes out as one INFO record on the
"polaron1d" logger: the mode count of the eps > 0 action series
(diagnostics["k_max"], kernels.damped_mode_count at damping 2 eps, the
modes exact diagonalization keeps; 0 leaves the k = 0 terms alone, and
None at eps = 0, where closed forms read no series), value, stderr,
n_effective, the survival fraction of each row and zero_survivors.  The
library adds no handler; the caller decides where the records go.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .action import _DRIFT_L_MAX, PotentialSpec, s_eff_decomposed
from .exact_diag import InvariantViolation
from .geometry import OrderedDomain, SpinSector, contains_all, \
    survival_log_weights, uniform_ordered_points
from .kernels import ModelParams, damped_mode_count
from .paths import PathSample, TimeGrid, sample_brownian

N_BATCHES = 32
PATH_BLOCK = 4096

logger = logging.getLogger("polaron1d")


@dataclass(frozen=True)
class RunConfig:
    """Complete, hashable description of one Monte Carlo run."""

    params: ModelParams
    sector: SpinSector
    grid: TimeGrid
    eps: float
    n_paths: int
    seed: int
    n_workers: int = 1
    variant: str = "ratio"
    delta: float | None = None
    pot: PotentialSpec | None = None
    path_block: int = PATH_BLOCK

    def __post_init__(self):
        if not 0 <= self.eps < np.inf:  # nan and inf fail too
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")
        if self.delta is not None and not np.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.eps == 0.0 and self.params.alpha != 0.0 and self.params.L > _DRIFT_L_MAX:
            raise ValueError(f"the eps = 0 drift needs L <= {_DRIFT_L_MAX}, got {self.params.L}")
        if self.path_block < 1:
            raise ValueError("path_block must be >= 1")
        if self.variant not in ("plain", "ratio"):
            raise ValueError(f"variant must be 'plain' or 'ratio', got {self.variant!r}")
        if self.params.N != self.sector.N:
            raise ValueError(f"params.N = {self.params.N} != sector.N = {self.sector.N}")
        if abs(self.params.beta - self.grid.beta) > 1e-12:
            raise ValueError("params.beta and grid.beta disagree; keep one horizon")
        if self.variant == "ratio":
            d = self.delta_eff
            if d <= 0:
                raise ValueError(f"ratio variant needs delta > 0, got {d}")
            steps = d / self.grid.dt
            if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
                raise ValueError(
                    f"delta = {d} is not a whole number of grid steps (dt = {self.grid.dt})")

    @property
    def delta_eff(self) -> float:
        if self.delta is not None:
            return self.delta
        return self.grid.beta / 4

    @property
    def n_delta_steps(self) -> int:
        return int(round(self.delta_eff / self.grid.dt))

    @property
    def domain(self) -> OrderedDomain:
        return OrderedDomain(self.sector, self.params.L)


@dataclass(frozen=True)
class EnergyEstimate:
    value: float
    stderr: float
    n_effective: float
    config: RunConfig
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.stderr >= 0 or np.isnan(self.stderr)):
            raise ValueError(f"stderr must be >= 0, got {self.stderr}")


def _block_ranges(n_paths: int, block: int):
    return [(b, lo, min(lo + block, n_paths))
            for b, lo in enumerate(range(0, n_paths, block))]


def _horizons(config: RunConfig) -> tuple:
    """Step counts of the log-weight rows, in `_coefficients` order."""
    n_b = config.grid.n_steps
    if config.variant == "plain":
        return (n_b,)
    return (n_b + config.n_delta_steps, n_b)


def _simulate_block(config: RunConfig, block_idx: int, n_block: int,
                    eps_values: tuple) -> tuple:
    """Per-path log-survival and S_el, shape (k, n_block), and S_eff per eps.

    Row i belongs to horizon `_horizons(config)[i]`; the ratio variant's
    paths run to beta + delta and one pass yields both rows.  The block
    is sampled and killed once, slice by slice, so only the paths inside
    the domain through beta are stored; survival and the action (once
    per eps) run on those alone.  The others, whose weight is exactly 0,
    carry log-survival -inf and S_eff = S_el = 0.
    """
    domain = config.domain
    start_rng = np.random.default_rng([config.seed, 2 * block_idx])
    x0 = uniform_ordered_points(start_rng, n_block, domain)
    steps = _horizons(config)
    n_beta = min(steps)
    grid = config.grid
    if config.variant == "ratio":
        grid = TimeGrid(grid.beta + config.delta_eff, steps[0])
    path = sample_brownian(
        x0, grid, np.random.default_rng([config.seed, 2 * block_idx + 1]),
        keep=lambda states: contains_all(domain, states[:, :n_beta + 1]))
    logs = np.full((len(steps), n_block), -np.inf)
    s_eff = np.zeros((len(eps_values),) + logs.shape)
    sel = np.zeros_like(logs)
    live_logs = survival_log_weights(path.states, domain, grid.dt, horizons=steps)
    logs[:, path.rows] = live_logs
    # alive at any horizon means alive at the shortest one, beta; a path
    # inside the domain can still have a bridge factor that underflows
    alive = (live_logs > -np.inf).any(axis=0)
    rows = path.rows[alive]
    live = path if alive.all() else PathSample(path.states[alive], grid)
    for m, eps in enumerate(eps_values):
        bd = s_eff_decomposed(live, eps, config.params, pot=config.pot,
                              horizons=steps)
        s_eff[m][:, rows] = bd.s_eff
    sel[:, rows] = bd.s_el
    return logs, s_eff, sel


def _collect(config: RunConfig, eps_values=None) -> tuple:
    """Every block's (log-survival, S_eff, S_el) rows in path order, from a thread pool.

    One path set serves every cutoff in `eps_values` (default: config.eps
    alone): log-survival and S_el have shape (k, n_paths), S_eff shape
    (len(eps_values), k, n_paths).  A path's log-weight at the m-th eps is
    logs + S_eff[m] + S_el, summed in that order; sweeps scale S_eff,
    which is linear in alpha.  Paths dead at beta have S_eff = S_el = 0
    and log-weight -inf.
    """
    eps_values = (config.eps,) if eps_values is None else tuple(eps_values)
    ranges = _block_ranges(config.n_paths, config.path_block)
    shape = (len(_horizons(config)), config.n_paths)
    logs, sel = np.empty(shape), np.empty(shape)
    s_eff = np.empty((len(eps_values),) + shape)

    def run(task):
        block_idx, lo, hi = task
        logs[:, lo:hi], s_eff[..., lo:hi], sel[:, lo:hi] = _simulate_block(
            config, block_idx, hi - lo, eps_values)

    with ThreadPoolExecutor(max_workers=config.n_workers) as pool:
        list(pool.map(run, ranges))
    return logs, s_eff, sel


def _log_weights(config: RunConfig) -> np.ndarray:
    """Per-path log-weight rows of one config, shape (k, n_paths)."""
    logs, (s_eff,), sel = _collect(config)
    return logs + s_eff + sel


def _batch_means(per_path: np.ndarray) -> np.ndarray:
    n_batches = min(N_BATCHES, per_path.shape[-1])
    return np.array([chunk.mean(axis=-1)
                     for chunk in np.array_split(per_path, n_batches, axis=-1)]).T


@dataclass(frozen=True)
class LogMeanEstimate:
    """sum_i c_i log mean(exp(row_i)) with its delta-method stderr.

    `survival` holds each row's fraction of paths with finite log-weight
    and `n_effective` the effective sample size of row 0.  Two health
    fields say how far the mean rests on few paths: `max_weight_share`,
    the largest single weight of row 0 over the row's sum, and
    `log_weight_spread`, per row the std of the finite log-weights.  When
    some row has no survivors the result is flagged: `zero_survivors` is
    True, value nan, stderr inf, n_effective 0 and both health fields None.
    """

    value: float
    stderr: float
    n_effective: float
    survival: tuple
    zero_survivors: bool
    max_weight_share: float | None
    log_weight_spread: tuple | None


def log_mean_estimate(log_w: np.ndarray, coeffs) -> LogMeanEstimate:
    """Combine per-path log-weights (rows on shared paths) in log space.

    Each row is shifted by its own maximum before exponentiating, so no
    weight overflows; the shifts cancel in the logs and in the ratios
    batch mean / mean of the delta method.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    alive = log_w > -np.inf
    survival = tuple(float(f) for f in alive.mean(axis=1))
    if not alive.any(axis=1).all():
        return LogMeanEstimate(float("nan"), float("inf"), 0.0, survival, True,
                               None, None)
    shift = log_w.max(axis=1)
    w = np.exp(log_w - shift[:, None])
    means = w.mean(axis=1)
    value = float(coeffs @ (np.log(means) + shift))
    # delta method: the linearized estimate sum_i c_i mean_b(w_i) / mean(w_i)
    # per batch; its spread equals grad . cov . grad but does not square
    # the cancellation between strongly correlated rows
    linear = coeffs @ (_batch_means(w) / means[:, None])
    if linear.size < 2:
        stderr = float("inf")
    else:
        stderr = float(linear.std(ddof=1) / np.sqrt(linear.size))
    n_effective = float(w[0].sum() ** 2 / np.sum(w[0] ** 2))
    max_share = float(w[0].max() / w[0].sum())
    spread = tuple(float(np.std(row[ok])) for row, ok in zip(log_w, alive))
    return LogMeanEstimate(value, stderr, n_effective, survival, False,
                           max_share, spread)


def _coefficients(config: RunConfig) -> np.ndarray:
    """Energy = coeffs . log means (+ the plain variant's volume term)."""
    if config.variant == "plain":
        return np.array([-1 / config.grid.beta])
    return np.array([-1.0, 1.0]) / config.delta_eff


def _partition(config: RunConfig, est: LogMeanEstimate,
               coeff: float) -> tuple[float, float]:
    """Z = volume * mean(weights) from a one-row estimate with coefficient coeff."""
    if est.zero_survivors:
        return 0.0, float("inf")
    z = float(config.domain.volume * np.exp(est.value / coeff))
    return z, z * est.stderr / abs(coeff)


def _energy(config: RunConfig, log_w: np.ndarray) -> EnergyEstimate:
    """Energy estimate and diagnostics of one config from its log-weight rows."""
    est = log_mean_estimate(log_w, _coefficients(config))
    k_max = damped_mode_count(2 * config.eps, config.params.L) if config.eps > 0 else None
    diagnostics = {"k_max": k_max,
                   "survival_fraction": est.survival[-1],
                   "zero_survivors": est.zero_survivors,
                   "max_weight_share": est.max_weight_share,
                   "log_weight_spread": est.log_weight_spread}
    value = est.value
    if config.variant == "plain":
        beta = config.grid.beta
        z, z_se = _partition(config, est, -1 / beta)
        diagnostics.update(z_value=z, z_stderr=z_se)
        value -= np.log(config.domain.volume) / beta
    else:
        diagnostics["survival_fraction_extended"] = est.survival[0]
    if est.zero_survivors:
        value = float("inf")
    logger.info("energy %s N=%d p=%d alpha=%g eps=%g k_max=%s: value=%r "
                "stderr=%r n_effective=%r survival=%r zero_survivors=%s",
                config.variant, config.sector.N, config.sector.p,
                config.params.alpha, config.eps, k_max, float(value),
                est.stderr, est.n_effective, est.survival, est.zero_survivors)
    return EnergyEstimate(float(value), est.stderr, est.n_effective, config,
                          diagnostics=diagnostics)


def _sweep(key: str, values, configs, log_ws) -> dict:
    """Estimates of configs on shared paths and their paired differences.

    configs[i] has log-weight rows log_ws[i] and swept value values[i].
    Neighbours in sorted `values` are paired: E(hi) - E(lo) is the
    log-mean combination of both rows stacked with coefficients c and
    -c, so its stderr carries only the variance the shared paths leave.
    """
    estimates = [_energy(cfg, log_w) for cfg, log_w in zip(configs, log_ws)]
    coeffs = _coefficients(configs[0])
    paired = []
    order = np.argsort(values)
    for i, j in zip(order[:-1], order[1:]):
        diff = log_mean_estimate(np.vstack([log_ws[j], log_ws[i]]),
                                 np.concatenate([coeffs, -coeffs]))
        paired.append({f"{key}_lo": values[i], f"{key}_hi": values[j],
                       "difference": diff.value, "stderr": diff.stderr})
    return {"estimates": estimates, "paired_differences": paired}


def partition_estimate(config: RunConfig) -> tuple[float, float]:
    """Volume-weighted survival average of e^S; stderr by 32 batch means.

    Zero survivors return (0.0, inf): a flagged estimate, not an error.
    """
    log_w = _log_weights(replace(config, variant="plain"))
    return _partition(config, log_mean_estimate(log_w, [1.0]), 1.0)


def energy_estimate(config: RunConfig) -> EnergyEstimate:
    """-log Z_beta / beta (plain) or -(1/delta) log(Z_{beta+delta}/Z_beta)."""
    return _energy(config, _log_weights(config))


def sweep_alpha(config: RunConfig, alphas) -> dict:
    """Common-random-number energy sweep over couplings.

    One set of paths and one unit-coupling action evaluation serve every
    alpha; per-path weights at different alphas are deterministic
    rescalings, so the paired differences in the report carry only the
    (small) variance of the shared sample, and per-path partition-weight
    monotonicity in alpha is exact.  Every config, the sampled one
    included, is built before any path is sampled, so one RunConfig
    refuses raises ValueError up front; the unit-coupling action runs
    only when some alpha is nonzero.  Paired differences are keyed
    alpha_lo, alpha_hi.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("need at least one alpha")
    configs = [replace(config, params=replace(config.params, alpha=a)) for a in alphas]
    unit = 1.0 if any(alphas) else 0.0
    logs, (s_eff,), sel = _collect(replace(config, params=replace(config.params, alpha=unit)))
    return _sweep("alpha", alphas, configs, [logs + a * s_eff + sel for a in alphas])


def sweep_eps(config: RunConfig, eps_values) -> dict:
    """Common-random-number energy ladder over UV cutoffs.

    One set of paths, sampled and killed once, serves every eps; only the
    action runs once per eps.  Each rung's config is config with that eps,
    built before any path is sampled, so a rung RunConfig refuses raises
    ValueError up front.  Every rung equals a direct energy_estimate at
    its eps, bit for bit.  Paired differences are keyed eps_lo, eps_hi.
    """
    eps_values = [float(e) for e in eps_values]
    if not eps_values:
        raise ValueError("need at least one eps")
    configs = [replace(config, eps=e) for e in eps_values]
    logs, s_eff, sel = _collect(config, eps_values)
    return _sweep("eps", eps_values, configs, [logs + s + sel for s in s_eff])


def ordering_check(config: RunConfig) -> dict:
    """N = 2 sector comparison: E(0) on D^{2,(1)} against E(1) on D^{2,(2)}.

    Uses one seed for both sectors (the Wiener increments are shared; only
    the start-point ordering differs), so "paired_sigma", the stderr of
    the gap from both sectors' rows stacked with c and -c, sits below
    "combined_sigma" = hypot of the two stderrs when the sectors
    correlate.  Raises InvariantViolation when the symmetric sector fails
    to lie below the antisymmetric one beyond 3 combined_sigma, and under
    the name zero-survivors, before any comparison, when a sector keeps
    no path.
    """
    if config.sector.N != 2:
        raise ValueError("ordering_check compares the two N = 2 sectors")
    configs = [replace(config, sector=SpinSector(2, p)) for p in (1, 2)]
    sweep = _sweep("p", [1, 2], configs, [_log_weights(cfg) for cfg in configs])
    e0, e1 = sweep["estimates"]
    for p, est in ((1, e0), (2, e1)):
        if est.diagnostics.get("zero_survivors"):
            raise InvariantViolation(
                "zero-survivors",
                f"sector p = {p} keeps no path of n_paths = {config.n_paths}")
    sigma = float(np.hypot(e0.stderr, e1.stderr))
    report = {"symmetric": e0, "antisymmetric": e1,
              "difference": e1.value - e0.value,
              "combined_sigma": sigma,
              "paired_sigma": sweep["paired_differences"][0]["stderr"],
              "survival_fractions": {
                  1: e0.diagnostics["survival_fraction"],
                  2: e1.diagnostics["survival_fraction"]}}
    if not (e1.value - e0.value > 3 * sigma):
        raise InvariantViolation(
            "sector-ordering-mc",
            f"E(0) = {e0.value:.6f} +- {e0.stderr:.6f} not below "
            f"E(1) = {e1.value:.6f} +- {e1.stderr:.6f} beyond 3 sigma")
    return report
