"""Named invariant suites for the validate subcommand.

Each suite re-derives a small exact statement (closed forms, spectral
series, paired dual routes) and checks the corresponding module at desk
scale with pinned seeds, so a pass/fail is reproducible bit for bit.
The estimator suites use loose 4 sigma bands: at a fixed seed these are
frozen inequalities, the width only guards the initial calibration.
"""

from __future__ import annotations

import time

import numpy as np

from . import kernels
from .action import s_eff_decomposed
from .exact_diag import (
    DiscretizationSpec,
    InvariantViolation,
    electronic_ground,
    sector_ground,
)
from .estimator import RunConfig, energy_estimate, ordering_check, \
    partition_estimate
from .geometry import OrderedDomain, SpinSector, survival_log_weights, \
    uniform_ordered_points
from .fock import FockSpace, annihilator
from .kernels import ModelParams
from .paths import TimeGrid, girsanov_weight, sample_brownian
from .spin_algebra import GridSpace, sector_ground_energy

SEED = 60601


def _fail(name: str, detail: str):
    raise InvariantViolation(name, detail)


def check_kernels_g_series():
    """Lattice g series against the closed hyperbolic form."""
    x = np.linspace(-0.47, 0.47, 9)
    series = kernels.g_series(x, k_max=20000)
    gap = float(np.abs(kernels.eval_g(x) - series).max())
    if gap > 1e-4:
        _fail("kernels-g-series",
              f"series and closed form differ by {gap:.3e} (tol 1e-4)")


def _box_survival_series(beta: float) -> float:
    """<1|e^{-beta H}|1> for the Dirichlet box (-1, 1), summed to n = 199.

    sum_n <1|psi_n>^2 e^{-beta E_n} with E_n = (n pi / 2)^2 / 2: the volume
    2 times the survival probability of a Brownian start drawn uniformly.
    """
    n = np.arange(1, 200)
    return float(np.sum((2 * (1 - (-1.0) ** n) / (n * np.pi)) ** 2
                        * np.exp(-beta * (n * np.pi / 2) ** 2 / 2)))


def check_geometry_survival():
    """Box survival probability against the Dirichlet spectral series."""
    beta, n_steps, n_paths = 1.0, 64, 20000
    domain = OrderedDomain(SpinSector(1, 1), 1.0)
    rng = np.random.default_rng([SEED, 0])
    x0 = uniform_ordered_points(rng, n_paths, domain)
    path = sample_brownian(x0, TimeGrid(beta, n_steps),
                           np.random.default_rng([SEED, 1]))
    w = np.exp(survival_log_weights(path.states, domain, beta / n_steps))
    value = 2.0 * w.mean()
    stderr = 2.0 * w.std(ddof=1) / np.sqrt(n_paths)
    series = _box_survival_series(beta)
    if abs(value - series) > 4 * stderr:
        _fail("geometry-survival-oracle",
              f"survival {value:.5f} +- {stderr:.5f} vs series {series:.5f}")


def check_spin_sector_ordering():
    """Grid Laplacian sector grounds: three routes agree and are ordered."""
    grid = GridSpace.uniform(6)
    n = grid.n_sites
    h = grid.coords[1] - grid.coords[0]
    lap = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
           - np.diag(np.ones(n - 1), -1)) / (2 * h * h)
    K = np.kron(lap, np.eye(n)) + np.kron(np.eye(n), lap)
    grounds = {}
    for p in (1, 2):
        res = sector_ground_energy(K, SpinSector(2, p), grid)
        spread = max(res.values()) - min(res.values())
        if spread > 1e-8:
            _fail("spin-sector-ordering-grid",
                  f"p={p} route spread {spread:.2e} exceeds 1e-8")
        grounds[p] = res["ordered"]
    if not grounds[1] < grounds[2] - 1e-9:
        _fail("spin-sector-ordering-grid",
              f"E(p=1) = {grounds[1]:.6f} not below E(p=2) = {grounds[2]:.6f}")


def check_paths_girsanov():
    """Girsanov weights for a constant drift average to one."""
    x0 = np.zeros((20000, 1))
    path = sample_brownian(x0, TimeGrid(1.0, 64), np.random.default_rng([SEED, 2]))
    drift = np.full(path.increments.shape, 0.7)
    w = girsanov_weight(drift, path)
    stderr = w.std(ddof=1) / np.sqrt(w.size)
    if abs(w.mean() - 1.0) > 4 * stderr:
        _fail("paths-girsanov-mean",
              f"mean weight {w.mean():.5f} +- {stderr:.5f} is not 1")


def check_action_alpha_linearity():
    """S_eff is exactly linear in alpha; the eps = 0 action is >= 0."""
    x0 = uniform_ordered_points(np.random.default_rng([SEED, 3]), 256,
                                OrderedDomain(SpinSector(2, 1), 1.0))
    path = sample_brownian(x0, TimeGrid(1.0, 64), np.random.default_rng([SEED, 4]))
    s_half = s_eff_decomposed(path, 0.0, ModelParams(0.5, 2, 1.0, 1.0)).s_eff
    s_unit = s_eff_decomposed(path, 0.0, ModelParams(1.0, 2, 1.0, 1.0)).s_eff
    gap = float(np.abs(s_half - 0.5 * s_unit).max())
    if gap > 1e-12:
        _fail("action-alpha-linearity", f"linearity defect {gap:.2e}")
    if float(s_unit.min()) < -1e-9:
        _fail("action-eps0-nonnegative",
              f"min S_eff,0 = {s_unit.min():.2e} below -1e-9")


def check_fock_number_operator():
    """Sum of a_k* a_k equals the diagonal total occupation."""
    space = FockSpace(modes=(0.0, 1.0, -1.0), cap=3)
    total = np.zeros((space.dim, space.dim))
    for pos in range(len(space.modes)):
        a = annihilator(space, pos).toarray()
        total += a.T @ a
    gap = float(np.abs(total - np.diag(space.total_occupation)).max())
    if gap > 1e-12:
        _fail("fock-number-occupation", f"defect {gap:.2e}")


def check_exact_diag_free_pins():
    """Free sector grounds against closed-form Dirichlet energies."""
    spec = DiscretizationSpec(n_el_basis=12, k_max=2, n_ph_max=2, epsilon=0.5)
    pins = [(1, "none", np.pi**2 / 8),
            (2, "symmetric", np.pi**2 / 4),
            (2, "antisymmetric", 5 * np.pi**2 / 8)]
    for N, symmetry, target in pins:
        value = electronic_ground(N, symmetry, None, spec)
        if abs(value - target) > 1e-10:
            _fail("exact-diag-free-pins",
                  f"N={N} {symmetry}: {value:.12f} vs {target:.12f}")


def check_exact_diag_coupling_lowers():
    """Ground energy at alpha = 1 sits below the electronic ground."""
    spec = DiscretizationSpec(n_el_basis=10, k_max=2, n_ph_max=3, epsilon=0.5)
    params = ModelParams(alpha=1.0, N=1, L=1.0, beta=1.0)
    coupled = sector_ground(1, "none", None, params, spec).ground_energy
    free = electronic_ground(1, "none", None, spec)
    if not coupled < free - 1e-6:
        _fail("exact-diag-coupling-lowers",
              f"coupled {coupled:.8f} not below free {free:.8f}")


def check_estimator_free_energy(n_workers=1):
    """Ratio estimate of the free box ground energy."""
    cfg = RunConfig(params=ModelParams(alpha=0.0, N=1, L=1.0, beta=2.0),
                    sector=SpinSector(1, 1), grid=TimeGrid(2.0, 256),
                    eps=0.0, n_paths=20000, seed=SEED, n_workers=n_workers,
                    variant="ratio")
    res = energy_estimate(cfg)
    target = np.pi**2 / 8
    if abs(res.value - target) > 4 * res.stderr:
        _fail("estimator-free-energy",
              f"{res.value:.5f} +- {res.stderr:.5f} vs {target:.5f}")


def check_estimator_partition(n_workers=1):
    """Partition estimate against the Dirichlet series, and determinism."""
    base = dict(params=ModelParams(alpha=0.0, N=1, L=1.0, beta=1.0),
                sector=SpinSector(1, 1), grid=TimeGrid(1.0, 64),
                eps=0.0, n_paths=16384, seed=SEED)
    value, stderr = partition_estimate(RunConfig(**base, n_workers=n_workers))
    series = _box_survival_series(1.0)
    if abs(value - series) > 4 * stderr:
        _fail("estimator-partition-series",
              f"{value:.5f} +- {stderr:.5f} vs series {series:.5f}")
    again = partition_estimate(RunConfig(**base, n_workers=1))
    if again != (value, stderr):
        _fail("estimator-partition-series",
              "worker count changed the estimate bits")


def check_estimator_sector_ordering(n_workers=1):
    """Monte Carlo N = 2 sector ordering at alpha = 0."""
    cfg = RunConfig(params=ModelParams(alpha=0.0, N=2, L=1.0, beta=0.5),
                    sector=SpinSector(2, 1), grid=TimeGrid(0.5, 64),
                    eps=0.0, n_paths=60000, seed=3, n_workers=n_workers,
                    variant="ratio")
    ordering_check(cfg)  # raises InvariantViolation on failure


# (suite, check, whether the check takes n_workers)
CHECKS = (
    ("kernels-g-series", check_kernels_g_series, False),
    ("geometry-survival-oracle", check_geometry_survival, False),
    ("spin-sector-ordering-grid", check_spin_sector_ordering, False),
    ("paths-girsanov-mean", check_paths_girsanov, False),
    ("action-alpha-linearity", check_action_alpha_linearity, False),
    ("fock-number-occupation", check_fock_number_operator, False),
    ("exact-diag-free-pins", check_exact_diag_free_pins, False),
    ("exact-diag-coupling-lowers", check_exact_diag_coupling_lowers, False),
    ("estimator-partition-series", check_estimator_partition, True),
    ("estimator-free-energy", check_estimator_free_energy, True),
    ("estimator-sector-ordering", check_estimator_sector_ordering, True),
)


def run_validation(n_workers: int = 1) -> dict:
    """Run every suite; report {"passed": bool, "suites": [...]}."""
    suites = []
    for name, fn, threaded in CHECKS:
        t0 = time.monotonic()
        status, detail = "pass", ""
        try:
            if threaded:
                fn(n_workers=n_workers)
            else:
                fn()
        except InvariantViolation as err:
            status, detail = "fail", str(err)
            name = err.name
        except Exception as err:  # a crashed suite is a failed suite
            status, detail = "fail", f"{type(err).__name__}: {err}"
        suites.append({"suite": name, "status": status,
                       "seconds": round(time.monotonic() - t0, 3),
                       "detail": detail})
    return {"passed": all(s["status"] == "pass" for s in suites),
            "suites": suites}
