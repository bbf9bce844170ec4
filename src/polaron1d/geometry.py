"""Spin sectors, ordered reference domains, and path survival weights.

A sector with N electrons and S^3 eigenvalue M is labeled by the integer
p = N/2 - M, the number of down spins.  Its reference domain is

    D^{N,(p)} = { x in (-L, L)^N : x_1 < ... < x_p,  x_{p+1} < ... < x_N },

with each chain constraint vacuous when the chain has fewer than two
coordinates.  Ordering is strict: coincidences count as exits, since the
block-antisymmetric wavefunction vanishes there.

Path states are time-major arrays of shape (n_steps+1, N), or batched
(n_paths, n_steps+1, N); the helpers below accept both.

Survival between grid points is refined by the Brownian-bridge crossing
probability.  For a linear constraint with signed distances d1, d2 at
consecutive grid points (same side), a unit-diffusion bridge crosses with
probability exp(-2 d1 d2 / dt), so each step contributes a factor
(1 - exp(-2 d1 d2 / dt)) per constraint.  Walls x_i = +-L use coordinate
distances; adjacent-order planes x_i = x_{i+1} use the Euclidean distance
(x_{i+1} - x_i)/sqrt(2), which accounts for the plane's normal seeing the
difference of two independent Brownian coordinates.  Constraints are
applied independently (product form); corner correlations are a
second-order-in-dt bias we accept.

A path absorbed on the grid has weight exactly 0, and most sampled paths
are: 88-99 % die before beta at the criterion-1 and criterion-4 shapes.
The estimator never passes those to `survival_log_weights`: the
sampler's kill test, `contains_all` through beta on each slice as it is
drawn, is the only membership pass, and `survival_log_weights` computes
the bridge factors of whatever paths it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .kernels import require_count


@dataclass(frozen=True)
class SpinSector:
    """Sector labels: electron count N and down-spin count p (M = N/2 - p)."""

    N: int
    p: int

    def __post_init__(self):
        require_count("N", self.N, 1)
        require_count("p", self.p)
        if not 0 <= self.p <= self.N:
            raise ValueError(f"p must lie in 0..{self.N}, got {self.p}")

    @classmethod
    def from_M(cls, N: int, M) -> "SpinSector":
        p = Fraction(N, 2) - Fraction(M)
        if p.denominator != 1:
            raise ValueError(f"M={M} is not an S^3 eigenvalue for N={N}")
        return cls(N, int(p))

    @property
    def M(self) -> Fraction:
        return Fraction(self.N, 2) - self.p

    @property
    def block_sizes(self) -> tuple[int, int]:
        return self.p, self.N - self.p


@dataclass(frozen=True)
class OrderedDomain:
    """The ordered reference domain D^{N,(p)} inside the box (-L, L)^N."""

    sector: SpinSector
    L: float = 1.0

    def __post_init__(self):
        if not 0 < self.L < np.inf:  # nan and inf fail too
            raise ValueError(f"L must be finite and > 0, got {self.L}")

    @property
    def N(self) -> int:
        return self.sector.N

    @property
    def p(self) -> int:
        return self.sector.p

    @property
    def volume(self) -> float:
        """Lebesgue volume (2L)^N / (p! (N-p)!)."""
        from math import factorial

        p, q = self.sector.block_sizes
        return (2 * self.L) ** self.N / (factorial(p) * factorial(q))


def _check_dim(x: np.ndarray, N: int):
    if x.shape[-1] != N:
        raise ValueError(f"state dimension {x.shape[-1]} != N = {N}")


def _chains(domain: OrderedDomain, x: np.ndarray) -> list:
    """The order chains x_1..x_p and x_{p+1}..x_N that have two or more coordinates."""
    p = domain.p
    return [c for c in (x[..., :p], x[..., p:]) if c.shape[-1] >= 2]


def contains(domain: OrderedDomain, x) -> np.ndarray | bool:
    """Strict membership of points x (shape (..., N)) in the ordered domain."""
    x = np.asarray(x, dtype=float)
    _check_dim(x, domain.N)
    ok = np.all(np.abs(x) < domain.L, axis=-1)
    for chain in _chains(domain, x):
        ok &= np.all(np.diff(chain, axis=-1) > 0, axis=-1)
    if ok.ndim == 0:
        return bool(ok)
    return ok


def contains_all(domain: OrderedDomain, states: np.ndarray) -> np.ndarray:
    """np.all(contains(domain, states), axis=-1) for states (n_paths, n_nodes, N),
    from per-path max, min and smallest chain difference (a nan fails each)."""
    L = domain.L
    ok = (states.max(axis=(1, 2)) < L) & (states.min(axis=(1, 2)) > -L)
    for chain in _chains(domain, states):
        ok &= np.diff(chain, axis=-1).min(axis=(1, 2)) > 0
    return ok


def _constraint_distances(states: np.ndarray, domain: OrderedDomain) -> np.ndarray:
    """Signed distances to all active constraints, shape (..., n_constraints).

    Positive inside the domain.  Walls contribute 2N entries, the order
    chains p-1 and N-p-1 entries (Euclidean plane distances).
    """
    L = domain.L
    parts = [L - states, states + L]
    parts += [np.diff(chain, axis=-1) / np.sqrt(2.0) for chain in _chains(domain, states)]
    return np.concatenate(parts, axis=-1)


def survival_log_weights(states, domain: OrderedDomain, dt: float,
                         horizons: tuple | None = None) -> np.ndarray:
    """log of the bridge-corrected survival weight, -inf where absorbed.

    states: (..., n_steps+1, N).  Returns shape (...).  With `horizons`, a
    tuple of step counts h <= n_steps, returns shape (k, ...): row i is
    the weight of the first h_i steps, the value of a call on
    states[..., :h_i + 1, :], from one evaluation of the step factors.

    The bridge factors are evaluated for every path given; a row is -inf
    where a grid point of its prefix lies outside the domain.  That test
    agrees with `contains_all` on every point (|x| < L exactly when
    L - x > 0 and x + L > 0; a positive difference stays positive divided
    by sqrt(2)), so paths the sampler kept as inside through beta are
    finite through beta unless a bridge factor underflows.
    """
    states = np.asarray(states, dtype=float)
    _check_dim(states, domain.N)
    n = states.shape[-2] - 1
    steps = (n,) if horizons is None else tuple(int(h) for h in horizons)
    if not all(1 <= h <= n for h in steps):
        raise ValueError(f"horizons must lie in 1..{n}, got {horizons}")
    d = _constraint_distances(states, domain)
    inside = np.all(d > 0, axis=-1)
    # exponent of the bridge crossing probability per step and constraint
    expo = 2.0 * d[..., :-1, :] * d[..., 1:, :] / dt
    rows = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # finite wherever both endpoints are inside; -inf where the
        # exponent underflows to 0, nan on a step across the boundary
        # (masked below)
        log_step = np.log1p(-np.exp(-expo))
        for h in steps:
            alive = np.all(inside[..., :h + 1], axis=-1)
            rows.append(np.where(alive, np.sum(log_step[..., :h, :], axis=(-1, -2)),
                                 -np.inf))
    return rows[0] if horizons is None else np.stack(rows)


def uniform_ordered_points(rng: np.random.Generator, n: int, domain: OrderedDomain) -> np.ndarray:
    """n uniform samples on D^{N,(p)}: uniforms on the box, each block sorted."""
    x = rng.uniform(-domain.L, domain.L, size=(n, domain.N))
    p = domain.p
    x[:, :p] = np.sort(x[:, :p], axis=1)
    x[:, p:] = np.sort(x[:, p:], axis=1)
    return x
