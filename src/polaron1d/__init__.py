"""Numerical laboratory for the 1-D Froehlich polaron on a finite interval.

Feynman-Kac path sampling of spin-sector ground-state energies, with and
without a UV cutoff on the phonon field, cross-checked against truncated
exact diagonalization and finite-grid spin algebra.
"""

__version__ = "0.1.0"

from .estimator import EnergyEstimate, RunConfig, energy_estimate
from .exact_diag import DiscretizationSpec, InvariantViolation, sector_ground
from .geometry import OrderedDomain, SpinSector
from .kernels import ModelParams
from .paths import TimeGrid

__all__ = [
    "DiscretizationSpec",
    "EnergyEstimate",
    "InvariantViolation",
    "ModelParams",
    "OrderedDomain",
    "RunConfig",
    "SpinSector",
    "TimeGrid",
    "__version__",
    "energy_estimate",
    "sector_ground",
]
