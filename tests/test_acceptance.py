"""Acceptance gate: one test per release criterion, at stated tolerances.

Run with `pytest -v tests/test_acceptance.py`: the verbose listing gives
one PASSED/FAILED line per criterion; each test also prints its measured
numbers (visible with -s or in failure reports).  Stochastic criteria run
at pinned seeds, so every inequality below is a frozen, reproducible
comparison, and the margins quoted in comments are the measured ones.
"""

import time
from math import comb, factorial

import numpy as np
import pytest

from polaron1d import action as A
from polaron1d import fock as F
from polaron1d import spin_algebra as SA
from polaron1d.exact_diag import (
    DiscretizationSpec,
    electronic_ground,
    ratio_energy_oracle,
    sector_ground,
    sector_sweep,
)
from polaron1d.estimator import (
    RunConfig,
    energy_estimate,
    ordering_check,
    sweep_alpha,
)
from polaron1d.geometry import (
    OrderedDomain,
    SpinSector,
    survival_log_weights,
    uniform_ordered_points,
)
from polaron1d.kernels import ModelParams
from polaron1d.paths import (
    TimeGrid,
    girsanov_weight,
    refine_midpoint,
    sample_brownian,
)

from oracles import dirichlet_partition_series, s_eff_direct

SEED = 20260815
E_FREE_1 = np.pi**2 / 8


def announce(criterion, detail):
    print(f"criterion {criterion}: PASS ({detail})")


def uniform_paths(n_paths, N, beta, n_steps, stream_index, p=1):
    domain = OrderedDomain(SpinSector(N, p), 1.0)
    rng = np.random.default_rng([SEED, stream_index])
    x0 = uniform_ordered_points(rng, n_paths, domain)
    return sample_brownian(x0, TimeGrid(beta, n_steps),
                           np.random.default_rng([SEED, stream_index + 1]))


def test_criterion_1_free_particle_energy():
    # measured: E = 1.28099 +- 0.06587, bias 0.0473, 9.5 s on 4 workers
    cfg = RunConfig(params=ModelParams(alpha=0.0, N=1, L=1.0, beta=4.0),
                    sector=SpinSector(1, 1), grid=TimeGrid(4.0, 512),
                    eps=0.0, n_paths=100000, seed=1, n_workers=4,
                    variant="ratio")
    t0 = time.monotonic()
    res = energy_estimate(cfg)
    elapsed = time.monotonic() - t0
    bias = abs(res.value - E_FREE_1)
    assert bias <= 3 * res.stderr
    assert bias <= 0.05
    assert elapsed <= 60.0
    announce(1, f"E = {res.value:.5f} +- {res.stderr:.5f}, "
                f"bias {bias:.5f} <= 0.05, {elapsed:.1f} s")


def test_criterion_2_two_electron_sector_gap():
    spec = DiscretizationSpec(n_el_basis=12, k_max=2, n_ph_max=2, epsilon=0.5)
    e_sym = electronic_ground(2, "symmetric", None, spec)
    e_anti = electronic_ground(2, "antisymmetric", None, spec)
    assert abs(e_sym - np.pi**2 / 4) <= 1e-10
    assert abs(e_anti - 5 * np.pi**2 / 8) <= 1e-10

    # measured: gap 3.8416, 3.8% from 3 pi^2 / 8, 16 s
    cfg = RunConfig(params=ModelParams(alpha=0.0, N=2, L=1.0, beta=0.75),
                    sector=SpinSector(2, 1), grid=TimeGrid(0.75, 96),
                    eps=0.0, n_paths=200000, seed=3, n_workers=4,
                    variant="ratio")
    report = ordering_check(cfg)
    target = 3 * np.pi**2 / 8
    rel = abs(report["difference"] - target) / target
    assert rel <= 0.10
    announce(2, f"exact gaps to 1e-10; MC gap {report['difference']:.4f} "
                f"vs {target:.4f} ({100 * rel:.1f}% <= 10%)")


def test_criterion_3_cutoff_cross_oracle():
    params = ModelParams(alpha=1.0, N=1, L=1.0, beta=2.0)
    spec = DiscretizationSpec(n_el_basis=12, k_max=4, n_ph_max=4, epsilon=0.5)
    oracle = ratio_energy_oracle(params, spec, beta=2.0, delta=0.5)
    upgraded = ratio_energy_oracle(
        params, DiscretizationSpec(12, 4, 5, 0.5), beta=2.0, delta=0.5)
    budget = abs(upgraded - oracle)
    # certify the truncation budget against the 2% allowance
    assert budget <= 0.02 * E_FREE_1

    # measured: E = -0.06286 +- 0.04501 vs oracle -0.02278, 14 s
    cfg = RunConfig(params=params, sector=SpinSector(1, 1),
                    grid=TimeGrid(2.0, 256), eps=0.5, n_paths=30000,
                    seed=5, n_workers=4, variant="ratio")
    res = energy_estimate(cfg)
    gap = abs(res.value - oracle)
    assert gap <= 3 * res.stderr + budget
    announce(3, f"MC {res.value:.5f} +- {res.stderr:.5f} vs oracle "
                f"{oracle:.5f}, budget {budget:.5f} <= "
                f"{0.02 * E_FREE_1:.5f}")


def test_criterion_4_sector_ordering_coupled():
    spec = DiscretizationSpec(n_el_basis=10, k_max=3, n_ph_max=3, epsilon=0.5)
    params = ModelParams(alpha=1.0, N=2, L=1.0, beta=1.0)
    e0 = sector_ground(2, "symmetric", None, params, spec).ground_energy
    e1 = sector_ground(2, "antisymmetric", None, params, spec).ground_energy
    assert e1 - e0 > 1e-6

    # measured: diff 3.5106, combined 3 sigma 1.1117; 7.4 s for the whole
    # test on 2 cores (the action runs on the paths alive at beta only)
    cfg = RunConfig(params=ModelParams(alpha=1.0, N=2, L=1.0, beta=0.75),
                    sector=SpinSector(2, 1), grid=TimeGrid(0.75, 96),
                    eps=0.0, n_paths=50000, seed=3, n_workers=4,
                    variant="ratio")
    report = ordering_check(cfg)
    assert report["difference"] > 3 * report["combined_sigma"]
    announce(4, f"exact split {e1 - e0:.4f} > 1e-6; MC split "
                f"{report['difference']:.4f} > 3 sigma = "
                f"{3 * report['combined_sigma']:.4f} (paired sigma "
                f"{report['paired_sigma']:.4f})")


def test_criterion_5_coupling_monotonicity():
    # exact_diag sweep raises InvariantViolation on any ordering defect
    spec = DiscretizationSpec(n_el_basis=8, k_max=2, n_ph_max=3, epsilon=0.5)
    params = ModelParams(alpha=1.0, N=2, L=1.0, beta=1.0)
    rows = sector_sweep([0.0, 0.5, 1.0], ("symmetric", "antisymmetric"),
                        None, params, spec)
    for symmetry in ("symmetric", "antisymmetric"):
        sec = sorted((r for r in rows if r["sector"] == symmetry),
                     key=lambda r: r["alpha"])
        energies = [r["e_eps"] for r in sec]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        assert sec[-1]["e_eps"] < sec[-1]["e_el"]

    # measured: paired diffs -0.030, -0.735, -0.775 (all far below +3 sigma),
    # continuity gap 0.0305, E(1) 41 sigma below the electronic ground
    cfg = RunConfig(params=ModelParams(alpha=1.0, N=1, L=1.0, beta=2.0),
                    sector=SpinSector(1, 1), grid=TimeGrid(2.0, 256),
                    eps=0.0, n_paths=30000, seed=11, n_workers=4,
                    variant="ratio")
    report = sweep_alpha(cfg, [0.0, 0.02, 0.5, 1.0])
    for pair in report["paired_differences"]:
        assert pair["difference"] <= 3 * pair["stderr"]
    estimates = report["estimates"]
    assert abs(estimates[1].value - estimates[0].value) <= 0.05
    e_coupled = estimates[-1]
    assert e_coupled.value < E_FREE_1 - 3 * e_coupled.stderr
    announce(5, "exact sweep ordered; MC paired diffs <= 3 sigma, "
                f"continuity {abs(estimates[1].value - estimates[0].value):.4f}"
                f" <= 0.05, E(1) = {e_coupled.value:.4f} below "
                f"{E_FREE_1:.4f}")


def test_criterion_6_action_properties():
    params = ModelParams(alpha=1.0, N=2, L=1.0, beta=2.0)
    path = uniform_paths(10000, 2, 2.0, 128, stream_index=60)
    # the study's S_eff,0 is s_eff_decomposed(path, 0.0, params).s_eff
    study = A.uv_convergence_study(path, [0.2, 0.1, 0.05, 0.025], params)
    s_unit = study["s_eff_0"]
    assert s_unit.min() >= -1e-9

    s_half = A.s_eff_decomposed(
        path, 0.0, ModelParams(alpha=0.5, N=2, L=1.0, beta=2.0)).s_eff
    rel = np.max(np.abs(s_half - 0.5 * s_unit)) / np.max(np.abs(s_unit))
    assert rel <= 1e-12

    # dt-convergence of direct vs decomposed on a 128-path subsample
    # (the direct double sum is quadratic in the step count)
    sub = uniform_paths(128, 2, 2.0, 32, stream_index=62)
    gaps = []
    for level in range(4):
        sd = s_eff_direct(sub, 0.2, params)
        bd = A.s_eff_decomposed(sub, 0.2, params)
        gaps.append(float(np.mean(np.abs(sd - bd.s_eff))))
        if level < 3:
            sub = refine_midpoint(sub, np.random.default_rng([SEED, 70 + level]))
    orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    assert np.all(orders >= 0.4)

    med = study["median_abs_diff"]
    assert np.all(np.diff(med) < 0)
    announce(6, f"min S_eff,0 = {s_unit.min():.2e}, linearity {rel:.2e}, "
                f"orders {np.round(orders, 2).tolist()}, medians "
                f"{[f'{m:.2e}' for m in med]}")


def test_criterion_7_spin_algebra_suite():
    rng = np.random.default_rng(SEED + 7)

    def random_m_vector(sector, n):
        full = rng.normal(size=(n,) * sector.N + (2,) * sector.N)
        phi = SA.antisymmetrize(full, sector.N, block="all")
        out = np.zeros_like(phi)
        m = float(sector.M)
        for idx in np.ndindex(*(2,) * sector.N):
            mm = sum(0.5 if s == SA.UP else -0.5 for s in idx)
            if abs(mm - m) < 1e-12:
                out[(Ellipsis,) + idx] = phi[(Ellipsis,) + idx]
        return out

    cases = rank_cases = vandermonde_cases = 0
    for N in (1, 2, 3):
        for n in (3, 4, 5):
            grid = SA.GridSpace.uniform(n, 1.0)
            for p in range(N + 1):
                sector = SpinSector(N, p)
                phi = random_m_vector(sector, n)
                psi = SA.representative_part(phi, sector)
                rebuilt = SA.reconstruct_from_representative(psi, sector)
                assert np.linalg.norm(rebuilt - phi) < \
                    1e-12 * max(1.0, np.linalg.norm(phi))

                spatial = SA.restrict_to_ordered(
                    rng.normal(size=(n,) * N), sector)
                ext = SA.extend_iota_p(spatial, sector, grid)
                want = factorial(p) * factorial(N - p) * np.sum(spatial**2)
                assert np.sqrt(np.sum(ext**2)) == pytest.approx(
                    np.sqrt(want), rel=1e-13)

                if p > 0:
                    lhs, rhs = SA.raising_lowering_on_representative(
                        phi, sector, "+")
                    assert np.linalg.norm(lhs - rhs) < \
                        1e-12 * max(1.0, np.linalg.norm(lhs))
                if p < N:
                    lhs, rhs = SA.raising_lowering_on_representative(
                        phi, sector, "-")
                    assert np.linalg.norm(lhs - rhs) < \
                        1e-12 * max(1.0, np.linalg.norm(lhs))

                # slice-map rank over an M-subspace sample equals dim K_as_p
                dim_kas = comb(n, p) * comb(n, N - p)
                cols = [SA.representative_part(random_m_vector(sector, n),
                                               sector).reshape(-1)
                        for _ in range(dim_kas)]
                rank = np.linalg.matrix_rank(np.array(cols).T, tol=1e-10)
                assert rank == dim_kas
                rank_cases += 1

                if float(sector.M) >= 0 and n >= max(p, N - p, 1):
                    vphi = SA.vandermonde_state(sector, grid)
                    m = float(sector.M)
                    if p > 0:
                        _, rs_plus = SA.raising_lowering_on_representative(
                            vphi, sector, "+")
                        scale = np.linalg.norm(
                            SA.representative_part(vphi, sector))
                        assert np.linalg.norm(rs_plus) < 1e-12 * scale
                    s2 = SA.spin_operator("S2_total", N)
                    resid = SA.apply_spin_operator(s2, vphi, N) \
                        - m * (m + 1) * vphi
                    assert np.linalg.norm(resid) < \
                        1e-10 * np.linalg.norm(vphi)
                    vandermonde_cases += 1
                cases += 1

    # three-flavor ground-energy equality on a coupled grid Hamiltonian
    grid = SA.GridSpace.uniform(5, 1.0)
    h = grid.coords[1] - grid.coords[0]
    lap = (np.diag(np.full(5, 2.0)) - np.diag(np.ones(4), 1)
           - np.diag(np.ones(4), -1)) / (2 * h * h)
    pair = np.asarray(np.add.outer(grid.coords, -np.asarray(grid.coords)))**2
    K = (np.kron(lap, np.eye(5)) + np.kron(np.eye(5), lap)
         + 0.7 * np.diag(pair.reshape(-1)))
    for p in (0, 1, 2):
        res = SA.sector_ground_energy(K, SpinSector(2, p), grid)
        vals = sorted(res.values())
        assert vals[-1] - vals[0] < 1e-10 * max(1.0, abs(vals[0]))
    announce(7, f"{cases} sector cases, {rank_cases} rank checks, "
                f"{vandermonde_cases} Vandermonde cases, 3-flavor equality")


def test_criterion_8_fock_suite():
    rng = np.random.default_rng(SEED + 8)
    space = F.FockSpace(modes=(-1.0, 1.0), cap=8)

    def rand_vec(norm):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        return norm * v / np.linalg.norm(v)

    t_shift = 0.3
    f = rand_vec(0.5)
    n_diag = space.total_occupation
    left = (np.exp(t_shift * n_diag)[:, None]
            * F.displacement(space, f, "a*")
            * np.exp(-t_shift * n_diag)[None, :])
    right = F.displacement(space, np.exp(t_shift) * f, "a*")
    shift_gap = float(np.max(np.abs(left - right)))
    assert shift_gap < 1e-10

    theta, tilde = rand_vec(0.5), rand_vec(0.5)
    xi = F.xi_kernel(space, theta, tilde, beta=1.5, s_eff=0.37)
    vac = F.vacuum(space)
    vac_gap = abs(vac.conj() @ xi @ vac - np.exp(0.37))
    assert vac_gap < 1e-10

    margins = []
    for norm in (0.2, 0.35, 0.5):
        for t in (1.0, 1.5, 2.0):
            g1, g2 = rand_vec(norm), rand_vec(norm)
            rep = F.norm_bound_check(space, g1, t=t)
            assert rep["margin"] > 0
            margins.append(rep["margin"])
            rep = F.difference_bound_check(space, g1, g2, t=t)
            assert rep["margin"] > 0
            margins.append(rep["margin"])

    params = ModelParams(alpha=1.0, N=2, L=1.0, beta=2.0)
    path = uniform_paths(1000, 2, 2.0, 128, stream_index=80)
    k = np.pi * np.arange(-64, 65)
    x_cap = np.sum((np.sqrt(params.g_L) * 2 * (1 + np.exp(-2.0))
                    / (1 + k**2 / 2))**2)
    y_cap = np.sum((k / (1 + k**2 / 2))**2) * params.g_L * 2 * 0.5 * (
        1 - np.exp(-4.0))
    cap = 2 * (x_cap + y_cap)
    th0 = A.theta_integrals(path, 0.0, params, mode_count=64)
    for eps in (0.0, 0.1, 0.5):
        th = A.theta_integrals(path, eps, params, mode_count=64)
        mean_sq = float(np.mean(np.sum(np.abs(th.direct)**2, axis=1)))
        assert mean_sq < cap
    eighth = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        th = A.theta_integrals(path, eps, params, mode_count=64)
        gap_sq = np.sum(np.abs(th.direct - th0.direct)**2, axis=1)
        eighth.append(float(np.mean(gap_sq**4)))
    assert all(b < a for a, b in zip(eighth, eighth[1:]))
    announce(8, f"shift {shift_gap:.1e}, vacuum Xi {vac_gap:.1e}, "
                f"min bound margin {min(margins):.3f}, eighth moments "
                f"decreasing over the ladder")


def test_criterion_9_statistical_sanity():
    path = sample_brownian(np.zeros((100000, 1)), TimeGrid(1.0, 128),
                           np.random.default_rng([SEED, 90]))
    drift = np.full(path.increments.shape, 0.7)
    w = girsanov_weight(drift, path)
    stderr = float(w.std(ddof=1) / np.sqrt(w.size))
    girsanov_pull = abs(float(w.mean()) - 1.0) / stderr
    assert girsanov_pull <= 3

    beta, n_steps, n_paths = 1.0, 64, 100000
    domain = OrderedDomain(SpinSector(1, 1), 1.0)
    rng = np.random.default_rng([SEED, 92])
    x0 = uniform_ordered_points(rng, n_paths, domain)
    states = sample_brownian(x0, TimeGrid(beta, n_steps),
                             np.random.default_rng([SEED, 93])).states
    surv = np.exp(survival_log_weights(states, domain, beta / n_steps))
    value = domain.volume * float(surv.mean())
    stderr_s = domain.volume * float(surv.std(ddof=1) / np.sqrt(n_paths))
    series = dirichlet_partition_series(beta)
    survival_pull = abs(value - series) / stderr_s
    assert survival_pull <= 3
    announce(9, f"Girsanov mean pull {girsanov_pull:.2f} sigma, survival "
                f"pull {survival_pull:.2f} sigma")
