"""Position-space kernels of the retarded polaron interaction.

Everything in this module reduces to periodizations of exp(-sqrt(2)|x|)
over shifts of the interval length L, evaluated through closed forms on
the fundamental cell [-L, L).  Conventions, fixed once here and relied on
everywhere else:

* reduce_to_cell maps x to xhat = x - 2L*floor((x+L)/(2L)) in [-L, L),
  where the closed forms below hold.  g, g', phi, dphi and w have period
  L (images at every shift nL, modes on the lattice 2*pi*m/L); only the
  Gaussian periodization K_eps has period 2L.

* The even kernel

      g(x) = sum_n exp(-sqrt(2)|x + nL|)
           = exp(-sqrt(2)|xhat|) + A(L) cosh(sqrt(2) xhat),
      A(L) = 2 exp(-sqrt(2) L) / (1 - exp(-sqrt(2) L)),

  has the Fourier expansion on the lattice k_m = 2*pi*m/L

      g(x) = (sqrt(2)/L) sum_m exp(i k_m x) / (1 + k_m^2/2).

  That lattice (m integer, spacing 2*pi/L) is the mode set used for all
  series in this module; it is the one on which the closed forms above
  are the exact eps -> 0 limits of the Gaussian-damped series.

* The derivative kernel that the stochastic-integral decomposition of
  the action needs is

      g'(x) = -sqrt(2) sgn(xhat) exp(-sqrt(2)|xhat|)
              + sqrt(2) A(L) sinh(sqrt(2) xhat),

  exposed as eval_dg.  It jumps at the multiples of L, from sqrt(2) to
  -sqrt(2); its sup norm is sqrt(2).

* Retarded interaction: with xi(t) = exp(-|t|) and g_L = sqrt(2)*alpha/L,

      phi_eps(x, t) = (g_L/2) xi(t) sum_m exp(-eps k_m^2)
                      exp(i k_m x) / (1 + k_m^2/2),
      phi_0(x, t)   = (alpha/2) g(x) xi(t)            (exact limit),

  and eval_dphi is the true spatial derivative (series term-by-term for
  eps > 0, (alpha/2) g'(x) xi(t) for eps = 0).

* eps is the only UV regulator.  The series keep the modes |m| <= k_max,
  a purely numerical truncation passed as a plain int; None means
  damped_mode_count at the damping of the series (the last mode whose
  damping is still >= e^{-37}), k_max = 0 keeps the m = 0 term alone,
  and a negative k_max is an error.  mode_wavenumbers forms the lattice
  for every series here, for the action's mode table and for exact
  diagonalization.

* Pair kernel: w_eps(x) = (g_L/2) sum_m exp(-2 eps k_m^2) exp(i k_m x).
  Poisson summation folds this onto Gaussian images:

      w_eps(x) = g_L * L / (4 sqrt(2 pi eps)) * [K_eps(x) + K_eps(x+L)],

  where K_eps is the 2L-shift Gaussian periodization below.  eval_w uses
  the image form (no truncation error, manifestly positive); the
  truncated series is kept as eval_w_series for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: coupling, particle number, box half-length, horizon."""

    alpha: float
    N: int
    L: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        # chained comparisons: nan and inf fail them too
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not 0 < self.L < np.inf:
            raise ValueError(f"L must be finite and > 0, got {self.L}")
        if not 0 < self.beta < np.inf:
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")

    @property
    def g_L(self) -> float:
        """Coupling normalization sqrt(2)*alpha/L."""
        return SQRT2 * self.alpha / self.L


def damped_mode_count(eps: float, L: float = 1.0) -> int:
    """Positive modes of the 2*pi/L lattice whose damping is >= e^{-37}.

    The largest m >= 0 with exp(-eps (2*pi*m/L)^2) >= e^{-37} (~8.5e-17),
    floor(L sqrt(37/eps) / 2 pi), so every mode past it is damped below
    e^{-37} relative to the m = 0 term.  0 when the damping leaves only
    m = 0, e.g. at eps = 1, L = 1.  Needs eps > 0.  The one mode rule:
    the series below by default, the Monte Carlo action at damping
    2 eps and exact diagonalization (under its k_max ceiling) all keep
    these modes.
    """
    if eps <= 0:
        raise ValueError(f"damped_mode_count needs eps > 0, got {eps}")
    return int(L * np.sqrt(37.0 / eps) / (2 * np.pi))


def _resolve_k_max(k_max: int | None, eps: float, L: float) -> int | None:
    """The mode count of a series at damping eps: damped_mode_count unless given.

    An explicit k_max is checked at every eps.  Without one, eps = 0
    resolves no count: the closed forms read no series.
    """
    if k_max is None:
        return damped_mode_count(eps, L) if eps != 0 else None
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    return k_max


def mode_wavenumbers(k_max: int, L: float) -> np.ndarray:
    """The lattice k_m = 2*pi*m/L for m = 1..k_max (empty at k_max = 0)."""
    return 2 * np.pi * np.arange(1, k_max + 1) / L


def reduce_to_cell(x, L: float = 1.0):
    """Reduce positions to the fundamental cell [-L, L)."""
    x = np.asarray(x, dtype=float)
    return x - 2 * L * np.floor((x + L) / (2 * L))


def xi(t):
    """Phonon time weight exp(-|t|)."""
    return np.exp(-np.abs(np.asarray(t, dtype=float)))


def _A(L: float) -> float:
    q = np.exp(-SQRT2 * L)
    return 2 * q / (1 - q)


def eval_g(x, L: float = 1.0):
    """Even periodized kernel g(x) = sum_n exp(-sqrt(2)|x + nL|)."""
    xh = reduce_to_cell(x, L)
    return np.exp(-SQRT2 * np.abs(xh)) + _A(L) * np.cosh(SQRT2 * xh)


def eval_dg(x, L: float = 1.0):
    """Spatial derivative g'(x) (odd, period L, jumps at the multiples of L)."""
    xh = reduce_to_cell(x, L)
    # one exp, r = e^{sqrt2 xh}; each product stays <= 1 / (1 - e^{-sqrt2 L})
    r, half_A = np.exp(SQRT2 * xh), 0.5 * _A(L)
    out = SQRT2 * ((half_A + (xh < 0)) * r - (half_A + (xh > 0)) / r)
    # At the wall the one-sided closed form overshoots the odd
    # periodization's midpoint value 0; snap it.  reduce_to_cell maps
    # both walls to -L, the only point snapped.
    return np.where(xh == -L, 0.0, out)


def eval_K_eps(x, eps: float, L: float = 1.0):
    """Gaussian periodization K_eps(x) = sum_n exp(-(x + 2nL)^2 / (8 eps)).

    Image sum truncated where the exponent underflows; exact in double
    precision for every eps > 0.
    """
    if eps <= 0:
        raise ValueError("eval_K_eps needs eps > 0")
    xh = reduce_to_cell(x, L)
    # |xh + 2nL| <= sqrt(8 eps * 745) covers everything above underflow.
    reach = np.sqrt(8 * eps * 745.0)
    n_max = int(np.ceil((reach + L) / (2 * L))) + 1
    ns = np.arange(-n_max, n_max + 1)
    shifted = xh[..., None] + 2 * L * ns
    return np.exp(-(shifted**2) / (8 * eps)).sum(axis=-1)


def eval_phi(x, t, eps: float, params: ModelParams, k_max: int | None = None):
    """Retarded interaction phi_eps(x, t); exact closed form at eps = 0.

    phi_eps(x,t) = (g_L/2) xi(t) sum_{|m|<=k_max} e^{-eps k^2} e^{ikx}/(1+k^2/2)
    with k = 2*pi*m/L; the real form below pairs +-m.  At eps = 0 the full
    series sums to (alpha/2) g(x) xi(t), which is what we return.  k_max
    defaults to damped_mode_count(eps, L) at eps > 0; it must be >= 0 at
    every eps.
    """
    x = np.asarray(x, dtype=float)
    L = params.L
    k_max = _resolve_k_max(k_max, eps, L)
    if eps == 0.0:
        return 0.5 * params.alpha * eval_g(x, L) * xi(t)
    k = mode_wavenumbers(k_max, L)
    coeff = np.exp(-eps * k**2) / (1 + k**2 / 2)
    series = 1.0 + 2 * np.cos(np.multiply.outer(x, k)) @ coeff
    return 0.5 * params.g_L * series * xi(t)


def eval_dphi(x, t, eps: float, params: ModelParams, k_max: int | None = None):
    """Spatial derivative d/dx phi_eps(x, t); (alpha/2) g'(x) xi(t) at eps = 0."""
    x = np.asarray(x, dtype=float)
    L = params.L
    k_max = _resolve_k_max(k_max, eps, L)
    if eps == 0.0:
        return 0.5 * params.alpha * eval_dg(x, L) * xi(t)
    k = mode_wavenumbers(k_max, L)
    coeff = k * np.exp(-eps * k**2) / (1 + k**2 / 2)
    series = -2 * np.sin(np.multiply.outer(x, k)) @ coeff
    return 0.5 * params.g_L * series * xi(t)


def eval_w(x, eps: float, params: ModelParams):
    """Pair kernel w_eps(x) = (g_L/2) sum_m e^{-2 eps k^2} e^{ikx} via Gaussian images.

    The image form g_L L / (4 sqrt(2 pi eps)) [K_eps(x) + K_eps(x+L)] is
    the exact Poisson resummation of the full (untruncated) series and is
    manifestly positive.
    """
    if eps <= 0:
        raise ValueError("eval_w needs eps > 0; the eps = 0 action uses closed forms")
    x = np.asarray(x, dtype=float)
    L = params.L
    pref = params.g_L * L / (4 * np.sqrt(2 * np.pi * eps))
    return pref * (eval_K_eps(x, eps, L) + eval_K_eps(x + L, eps, L))


def eval_w_series(x, eps: float, params: ModelParams, k_max: int | None = None):
    """Truncated-series form of eval_w, kept for cross-checks."""
    if eps <= 0:
        raise ValueError("eval_w_series needs eps > 0")
    x = np.asarray(x, dtype=float)
    L = params.L
    k_max = _resolve_k_max(k_max, 2 * eps, L)
    k = mode_wavenumbers(k_max, L)
    coeff = np.exp(-2 * eps * k**2)
    series = 1.0 + 2 * np.cos(np.multiply.outer(x, k)) @ coeff
    return 0.5 * params.g_L * series


def g_series(x, L: float = 1.0, k_max: int = 2000):
    """Truncated Fourier sum of g on the 2*pi/L lattice.

    (sqrt(2)/L) [1 + 2 sum_{m=1}^{k_max} cos(2 pi m x / L) / (1 + k_m^2/2)].
    Converges to eval_g away from the kinks; this is the series the
    validation suite holds against the closed form.
    """
    x = np.asarray(x, dtype=float)
    k = mode_wavenumbers(k_max, L)
    coeff = 1 / (1 + k**2 / 2)
    return (SQRT2 / L) * (1 + 2 * np.cos(np.multiply.outer(x, k)) @ coeff)


def eval_delta_eps(x, eps: float, L: float = 1.0, k_max: int | None = None):
    """Mollification error of the derivative kernel.

    delta_eps(x) = |(-g')_eps(x) - (-g'(x))| where (-g')_eps carries the
    Gaussian damping exp(-eps k^2) mode-wise.  This is the quantity that
    bounds |dphi_eps - dphi_0| = (alpha/2) xi(t) delta_eps(x) pointwise;
    it tends to 0 for x away from the jumps and is uniformly below
    2 + 4 e^{-sqrt2 L} sinh(sqrt2 L) / (1 - e^{-sqrt2 L})   (see dei_bound).
    """
    x = np.asarray(x, dtype=float)
    k_max = _resolve_k_max(k_max, eps, L)
    if eps <= 0:
        return np.zeros_like(x)
    k = mode_wavenumbers(k_max, L)
    coeff = k * np.exp(-eps * k**2) / (1 + k**2 / 2)
    mollified = (2 * SQRT2 / L) * (np.sin(np.multiply.outer(x, k)) @ coeff)
    return np.abs(mollified - (-eval_dg(x, L)))


def dei_bound(L: float = 1.0) -> float:
    """Uniform bound on delta_eps: 2 + 4 e^{-sqrt2 L} sinh(sqrt2 L)/(1 - e^{-sqrt2 L})."""
    q = np.exp(-SQRT2 * L)
    return float(2 + 4 * q * np.sinh(SQRT2 * L) / (1 - q))


def phi_sup_bound(params: ModelParams) -> float:
    """sup_{x,t} |phi_eps(x,t)| <= (alpha/2) g(0), uniform in eps >= 0."""
    return float(0.5 * params.alpha * eval_g(0.0, params.L))


def dphi_sup_bound(params: ModelParams) -> float:
    """sup_{x,t} |dphi_eps(x,t)| <= (alpha/2) sqrt(2), uniform in eps >= 0."""
    return float(0.5 * params.alpha * SQRT2)
