"""Brownian path sampling, Ito sums, Girsanov weights.

Unit-diffusion paths (generator -(1/2) d^2/dx^2 per coordinate): increments
over a step of size dt are N(0, dt).  States are stored time-major,
(n_steps+1, N) per path, batched as (n_paths, n_steps+1, N).  Increments
are kept alongside states with states[j+1] - states[j] = increments[j]
holding exactly (increments are computed from states by difference after
the cumulative sum, so the identity is exact in floating point).

Stochastic integrals use the left-endpoint (Ito) convention throughout;
the retarded action's stochastic term is an Ito integral and no other
convention appears.

Reproducibility: every sampler takes a numpy Generator; the estimator
keys block b with [seed, 2b] (start points) and [seed, 2b + 1]
(increments), default_rng(key) each, so a path batch depends only on its
key, grid and x0 and never on worker scheduling.

Bounded memory: `sample_brownian` always draws a batch in slices of
about _SLICE_BUDGET_BYTES of states, and given a kill test it stores
only the paths the test keeps.  The generator is consumed in path order
across the slices, and numpy fills an array path-major, so k slices draw
exactly the normals of one whole-batch draw and every kept path is bit
for bit the one a whole-batch draw gives.  A killed path is never stored
beyond its slice: the slice's two buffers (increments and states) are
reused, so a batch holds about twice the budget plus its kept paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernels import require_count

# Bytes of states per slice of a drawn batch.  At 4 MB the Monte Carlo
# benchmark ops take no longer than with whole-batch draws; smaller
# slices pay more per-slice Python overhead.
_SLICE_BUDGET_BYTES = 2**22


@dataclass(frozen=True)
class TimeGrid:
    beta: float
    n_steps: int

    def __post_init__(self):
        if not 0 < self.beta < np.inf:  # nan and inf fail too
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        require_count("n_steps", self.n_steps, 1)

    @property
    def dt(self) -> float:
        return self.beta / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class PathSample:
    """A batch of discretized Brownian paths on a common time grid.

    `rows`, when set, holds each path's index in the batch it was drawn
    from (the paths a kill test kept); None means the whole batch.
    """

    states: np.ndarray  # (n_paths, n_steps+1, N)
    grid: TimeGrid
    rows: np.ndarray | None = None

    def __post_init__(self):
        if self.states.ndim != 3:
            raise ValueError("states must have shape (n_paths, n_steps+1, N)")
        if self.states.shape[1] != self.grid.n_steps + 1:
            raise ValueError("states length does not match grid")

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def N(self) -> int:
        return self.states.shape[2]

    @cached_property
    def increments(self) -> np.ndarray:
        # computed once per sample: the action's Ito sums read it per horizon
        return np.diff(self.states, axis=1)


def sample_brownian(x0, grid: TimeGrid, rng: np.random.Generator,
                    keep=None) -> PathSample:
    """Paths started at x0 (shape (n_paths, N) or (N,) broadcast to one path).

    The batch is drawn in slices of about _SLICE_BUDGET_BYTES of states.
    `keep`, a function from states (n, n_steps+1, N) to a bool mask of
    shape (n,), kills paths while they are drawn: the result holds only
    the kept paths, in batch order, with their batch indices in `rows`.
    Without it every path is kept and `rows` is None.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    n_paths, N = x0.shape
    n = grid.n_steps
    size = max(1, min(n_paths, _SLICE_BUDGET_BYTES // (8 * (n + 1) * N)))
    # one allocation for both slice buffers: two separate ones were
    # handed back to the OS after each batch and faulted in again
    buf = np.empty(size * (2 * n + 1) * N)
    dw = buf[:size * n * N].reshape(size, n, N)
    states = buf[size * n * N:].reshape(size, n + 1, N)
    scale = np.sqrt(grid.dt)
    kept, rows = [np.empty((0, n + 1, N))], [np.empty(0, dtype=np.intp)]
    for lo in range(0, n_paths, size):
        m = min(size, n_paths - lo)
        d, s, x = dw[:m], states[:m], x0[lo:lo + m]
        rng.standard_normal(out=d)  # the stream continues across slices
        d *= scale  # bit for bit rng.normal(0, sqrt(dt)), faster
        s[:, 0] = x
        np.cumsum(d, axis=1, out=s[:, 1:])
        for i in range(N):  # one coordinate at a time: no length-N inner loops
            s[:, 1:, i] += x[:, i, None]
        ok = np.arange(m) if keep is None else np.flatnonzero(keep(s))
        kept.append(s[ok])
        rows.append(ok + lo)
    return PathSample(states=np.concatenate(kept), grid=grid,
                      rows=None if keep is None else np.concatenate(rows))


def refine_midpoint(path: PathSample, rng: np.random.Generator) -> PathSample:
    """Coupled dt/2 refinement: Brownian-bridge midpoints between grid points.

    Endpoint values are reused unchanged, so x_beta is identical and
    dt -> 0 studies run on the same underlying Wiener path.
    """
    states = path.states
    n_paths, n_nodes, N = states.shape
    n_steps = n_nodes - 1
    half_dt = path.grid.dt / 2
    mid = 0.5 * (states[:, :-1] + states[:, 1:])
    mid = mid + rng.normal(0.0, np.sqrt(half_dt / 2), size=(n_paths, n_steps, N))
    out = np.empty((n_paths, 2 * n_steps + 1, N))
    out[:, 0::2] = states
    out[:, 1::2] = mid
    grid = TimeGrid(path.grid.beta, 2 * n_steps)
    return PathSample(states=out, grid=grid)


def ito_integral(integrand, path: PathSample):
    """Left-endpoint stochastic sum sum_j f_j . (x_{j+1} - x_j).

    integrand: per-step values, shape (n_paths, h, N), summed over
    coordinates.  The sum runs over the first h <= n_steps steps, i.e.
    the integral up to t_h.
    """
    f = np.asarray(integrand, dtype=float)
    inc = path.increments
    if f.ndim == inc.ndim:
        inc = inc[:, :f.shape[1]]
    if f.shape != inc.shape:
        raise ValueError(f"integrand shape {f.shape} != increments shape {inc.shape}")
    return np.sum(f * inc, axis=(1, 2))


def girsanov_log_weight(drift, path: PathSample) -> np.ndarray:
    """log of exp(sum Phi . dx - (1/2) sum |Phi|^2 dt) per path.

    drift: values at left endpoints, shape (n_paths, h, N) with
    h <= n_steps as for `ito_integral`; the weight up to t_h.
    """
    phi = np.asarray(drift, dtype=float)
    dt = path.grid.dt
    return ito_integral(phi, path) - 0.5 * dt * np.sum(phi**2, axis=(1, 2))


def girsanov_weight(drift, path: PathSample) -> np.ndarray:
    return np.exp(girsanov_log_weight(drift, path))
