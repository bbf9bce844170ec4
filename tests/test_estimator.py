"""Monte Carlo estimator tests against exact Dirichlet spectral series.

Every stochastic assertion runs at a pinned seed, so the pulls quoted in
comments are frozen numbers, not flaky tolerances.  The free-particle
oracles (box Dirichlet series, two-walker wedge series) live in
oracles.py and were cross-checked against finite-difference heat kernels.
"""

import logging
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from polaron1d import estimator as est_mod
from polaron1d import paths as paths_mod
from polaron1d.action import PotentialSpec
from polaron1d.estimator import (
    EnergyEstimate,
    RunConfig,
    energy_estimate,
    ordering_check,
    partition_estimate,
    sweep_alpha,
    sweep_eps,
)
from polaron1d.exact_diag import DiscretizationSpec, InvariantViolation, kept_modes
from polaron1d.geometry import SpinSector
from polaron1d.kernels import ModelParams, damped_mode_count
from polaron1d.paths import TimeGrid

from oracles import (
    delta_method_reference,
    dirichlet_partition_series,
    dirichlet_plain_energy,
    dirichlet_ratio_energy,
    full_batch_block,
    wedge_partition_series,
)

SEED = 83407


def free_config(N=1, p=1, beta=2.0, n_steps=256, n_paths=20000, seed=SEED,
                eps=0.0, **kw):
    kw.setdefault("variant", "plain")
    return RunConfig(params=ModelParams(alpha=0.0, N=N, L=1.0, beta=beta),
                     sector=SpinSector(N, p), grid=TimeGrid(beta, n_steps),
                     eps=eps, n_paths=n_paths, seed=seed, **kw)


class TestRunConfig:
    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            free_config(eps=-0.1)

    @pytest.mark.parametrize("field", ["eps", "delta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_cutoff_and_delta_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            free_config(variant="ratio", **{field: value})

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            free_config(variant="jackknife")

    @pytest.mark.parametrize("field, value", [
        ("n_paths", 0), ("n_workers", 0), ("path_block", 0)])
    def test_positive_counts_required(self, field, value):
        with pytest.raises(ValueError):
            free_config(**{field: value})

    def test_eps_zero_cell_limit(self):
        # checked here so that a run fails before it samples any path
        def config(alpha, eps):
            return RunConfig(params=ModelParams(alpha=alpha, N=1, L=500.0, beta=1.0),
                             sector=SpinSector(1, 1), grid=TimeGrid(1.0, 64),
                             eps=eps, n_paths=10, seed=SEED)
        with pytest.raises(ValueError, match="L <="):
            config(1.0, 0.0)
        config(0.0, 0.0)
        config(1.0, 0.1)

    def test_sector_particle_count_must_match(self):
        with pytest.raises(ValueError, match="sector.N"):
            RunConfig(params=ModelParams(alpha=0.0, N=1, L=1.0, beta=1.0),
                      sector=SpinSector(2, 1), grid=TimeGrid(1.0, 64),
                      eps=0.0, n_paths=10, seed=SEED)

    def test_horizon_must_match_grid(self):
        with pytest.raises(ValueError, match="beta"):
            RunConfig(params=ModelParams(alpha=0.0, N=1, L=1.0, beta=2.0),
                      sector=SpinSector(1, 1), grid=TimeGrid(1.0, 64),
                      eps=0.0, n_paths=10, seed=SEED)

    def test_ratio_delta_must_sit_on_grid(self):
        with pytest.raises(ValueError, match="grid steps"):
            free_config(beta=1.0, n_steps=64, variant="ratio", delta=0.013)

    def test_ratio_delta_default_is_quarter_horizon(self):
        cfg = free_config(beta=2.0, n_steps=256, variant="ratio")
        assert cfg.delta_eff == pytest.approx(0.5)
        assert cfg.n_delta_steps == 64

    def test_domain_volume(self):
        cfg = free_config(N=2, p=2, beta=1.0, n_steps=64)
        assert cfg.domain.volume == pytest.approx(2.0)

    def test_block_ranges_cover_paths_once(self):
        ranges = est_mod._block_ranges(1000, 256)
        assert [r[1] for r in ranges] == [0, 256, 512, 768]
        assert ranges[-1][2] == 1000
        assert all(hi - lo <= 256 for _, lo, hi in ranges)


class TestPartitionEstimate:
    def test_single_particle_matches_dirichlet_series(self):
        # pinned pull about +0.5 sigma at this seed
        value, stderr = partition_estimate(free_config())
        target = dirichlet_partition_series(2.0)
        assert stderr > 0
        assert abs(value - target) < 3 * stderr

    def test_two_particle_unordered_is_product(self):
        cfg = free_config(N=2, p=1, beta=1.0, n_steps=128, n_paths=40000)
        value, stderr = partition_estimate(cfg)
        target = dirichlet_partition_series(1.0) ** 2
        assert abs(value - target) < 3 * stderr

    def test_two_particle_ordered_matches_wedge_series(self):
        cfg = free_config(N=2, p=2, beta=0.5, n_steps=64, n_paths=60000)
        value, stderr = partition_estimate(cfg)
        target = wedge_partition_series(0.5, n_modes=40)
        assert abs(value - target) < 3 * stderr

    def test_coupling_increases_partition_at_fixed_seed(self):
        base = dict(beta=1.0, n_steps=64, n_paths=8192)
        z_free, _ = partition_estimate(free_config(**base))
        cfg = RunConfig(params=ModelParams(alpha=1.0, N=1, L=1.0, beta=1.0),
                        sector=SpinSector(1, 1), grid=TimeGrid(1.0, 64),
                        eps=0.0, n_paths=8192, seed=SEED, variant="plain")
        z_coupled, _ = partition_estimate(cfg)
        assert z_coupled > z_free

    def test_all_paths_absorbed_returns_flagged_zero(self):
        cfg = free_config(N=2, p=2, beta=2.0, n_steps=32, n_paths=32)
        value, stderr = partition_estimate(cfg)
        assert value == 0.0
        assert stderr == np.inf

    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_count_never_changes_bits(self, workers):
        base = dict(beta=1.0, n_steps=64, n_paths=8192, path_block=1024)
        ref = partition_estimate(free_config(**base, n_workers=1))
        got = partition_estimate(free_config(**base, n_workers=workers))
        assert got == ref


class TestEnergyEstimate:
    def test_plain_matches_finite_horizon_functional(self):
        # exact value 0.99075; pinned pull about -1.3 sigma at this seed
        cfg = free_config(beta=2.0, n_steps=256, n_paths=30000, seed=7)
        res = energy_estimate(cfg)
        target = dirichlet_plain_energy(2.0)
        assert abs(res.value - target) < 3 * res.stderr
        assert res.n_effective > 1000
        assert res.diagnostics["survival_fraction"] > 0.05

    def test_ratio_matches_finite_horizon_functional(self):
        cfg = free_config(beta=2.0, n_steps=256, n_paths=30000, seed=7,
                          variant="ratio")
        res = energy_estimate(cfg)
        target = dirichlet_ratio_energy(2.0, cfg.delta_eff)
        assert abs(res.value - target) < 3 * res.stderr
        # here the ratio functional is the ground energy up to the n = 3
        # mode correction of order 6e-10
        assert target == pytest.approx(np.pi**2 / 8, abs=1e-8)

    def test_plain_and_ratio_are_mutually_consistent(self):
        # The raw values differ by the overlap prefactor the ratio variant
        # removes: at beta = 3 the exact functionals sit 0.161 apart, far
        # beyond the error bars.  Consistency means the measured gap
        # matches the exact finite-horizon gap within combined 3 sigma.
        plain_cfg = free_config(beta=3.0, n_steps=384, n_paths=30000, seed=7)
        ratio_cfg = free_config(beta=3.0, n_steps=384, n_paths=30000, seed=7,
                                variant="ratio")
        plain = energy_estimate(plain_cfg)
        ratio = energy_estimate(ratio_cfg)
        gap = plain.value - ratio.value
        exact_gap = (dirichlet_plain_energy(3.0)
                     - dirichlet_ratio_energy(3.0, ratio_cfg.delta_eff))
        sigma = np.hypot(plain.stderr, ratio.stderr)
        assert abs(gap - exact_gap) < 3 * sigma

    def test_all_paths_absorbed_returns_flagged_inf(self):
        cfg = free_config(N=2, p=2, beta=2.0, n_steps=32, n_paths=32,
                          variant="ratio")
        res = energy_estimate(cfg)
        assert res.value == np.inf
        assert res.stderr == np.inf
        assert res.n_effective == 0.0
        assert res.diagnostics["zero_survivors"]
        assert res.diagnostics["max_weight_share"] is None
        assert res.diagnostics["log_weight_spread"] is None

    def test_estimate_carries_its_config(self):
        cfg = free_config(beta=1.0, n_steps=64, n_paths=2048)
        res = energy_estimate(cfg)
        assert res.config is cfg
        assert isinstance(res, EnergyEstimate)

    def test_worker_count_never_changes_bits(self):
        base = dict(beta=1.0, n_steps=64, n_paths=8192, path_block=1024,
                    variant="ratio")
        ref = energy_estimate(free_config(**base, n_workers=1))
        got = energy_estimate(free_config(**base, n_workers=3))
        assert got.value == ref.value
        assert got.stderr == ref.stderr


class TestOnePassPerBlock:
    @pytest.mark.parametrize("variant, horizons",
                             [("ratio", (80, 64)), ("plain", (64,))])
    def test_one_call_of_each_layer_per_block(self, monkeypatch, variant, horizons):
        calls = {"survival": [], "action": []}
        alive_at_beta, action_paths = [], []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name].append(kwargs["horizons"])
                result = fn(*args, **kwargs)
                if name == "survival":
                    # beta is the last (shortest) horizon row
                    alive_at_beta.append(int(np.sum(result[-1] > -np.inf)))
                else:
                    action_paths.append(args[0].n_paths)
                return result
            return wrapper

        monkeypatch.setattr(est_mod, "survival_log_weights",
                            counted("survival", est_mod.survival_log_weights))
        monkeypatch.setattr(est_mod, "s_eff_decomposed",
                            counted("action", est_mod.s_eff_decomposed))
        cfg = RunConfig(params=ModelParams(alpha=1.0, N=2, L=1.0, beta=1.0),
                        sector=SpinSector(2, 1), grid=TimeGrid(1.0, 64), eps=0.3,
                        n_paths=300, seed=SEED, path_block=128, variant=variant)
        res = energy_estimate(cfg)
        assert np.isfinite(res.value)
        assert calls == {"survival": [horizons] * 3, "action": [horizons] * 3}
        # the action sees exactly the paths alive at beta, block by block
        assert action_paths == alive_at_beta
        assert sum(action_paths) < cfg.n_paths


def with_full_batch(fn, *args):
    """fn(*args) with the action evaluated on every path of each block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(est_mod, "_simulate_block", full_batch_block)
        return fn(*args)


def coupled_config(N=2, p=1, eps=0.0, variant="ratio", alpha=1.0, pot=None,
                   beta=0.5, n_paths=300, path_block=128):
    return RunConfig(params=ModelParams(alpha=alpha, N=N, L=1.0, beta=beta),
                     sector=SpinSector(N, p), grid=TimeGrid(beta, 32), eps=eps,
                     n_paths=n_paths, seed=SEED, variant=variant, pot=pot,
                     path_block=path_block)


# 16-path blocks on the N = 2 wedge at beta = 0.5: blocks 0, 2, 4 and 5
# have no path alive at beta, blocks 1 and 3 have two and one
EMPTY_BLOCK = dict(p=2, n_paths=96, path_block=16)
POT = PotentialSpec(V=lambda x: 0.3 * x**2, W=lambda r: 0.2 * np.cos(r))
FILTER_CASES = {f"N{N}-eps{eps}-{variant}": dict(N=N, eps=eps, variant=variant)
                for N in (1, 2, 3) for eps in (0.0, 0.3) for variant in ("ratio", "plain")}
FILTER_CASES.update({
    "pot-eps0.0-ratio": dict(eps=0.0, pot=POT),
    "pot-eps0.3-plain": dict(eps=0.3, variant="plain", pot=POT),
    "alpha0": dict(alpha=0.0),
    "empty-block-eps0.0-ratio": dict(eps=0.0, **EMPTY_BLOCK),
    "empty-block-eps0.3-plain": dict(eps=0.3, variant="plain", **EMPTY_BLOCK),
})


class TestSurvivorFilter:
    """The action runs on paths alive at beta only; no log-weight moves."""

    @staticmethod
    def log_weights(rows):
        logs, (s_eff,), sel = rows
        return logs + s_eff + sel

    @pytest.mark.parametrize("kw", FILTER_CASES.values(), ids=FILTER_CASES.keys())
    def test_log_weights_bitwise_equal_full_batch(self, kw):
        cfg = coupled_config(**kw)
        got = self.log_weights(est_mod._collect(cfg))
        ref = self.log_weights(with_full_batch(est_mod._collect, cfg))
        assert got.view(np.int64).tolist() == ref.view(np.int64).tolist()
        alive = got[-1] > -np.inf
        assert 0 < alive.sum() < cfg.n_paths

    def test_a_block_without_survivors_is_covered(self):
        cfg = coupled_config(**EMPTY_BLOCK)
        logs = est_mod._collect(cfg)[0][-1].reshape(-1, cfg.path_block)
        assert (logs > -np.inf).sum(axis=1).tolist() == [0, 2, 0, 1, 0, 0]

    @pytest.mark.parametrize("kw", [dict(eps=0.0), dict(eps=0.3, variant="plain"),
                                    dict(eps=0.0, **EMPTY_BLOCK)],
                             ids=["ratio-eps0", "plain-eps0.3", "empty-block"])
    def test_sweep_and_partition_unchanged(self, kw):
        cfg = coupled_config(**kw)
        alphas = [0.0, 0.5, 1.0]
        got = sweep_alpha(cfg, alphas)
        ref = with_full_batch(sweep_alpha, cfg, alphas)
        for g, r in zip(got["estimates"], ref["estimates"]):
            assert (g.value, g.stderr, g.n_effective) == (r.value, r.stderr, r.n_effective)
            assert g.diagnostics == r.diagnostics
        assert got["paired_differences"] == ref["paired_differences"]
        assert partition_estimate(cfg) == with_full_batch(partition_estimate, cfg)


class TestSweepAlpha:
    def coupled_config(self, variant="plain", n_paths=20000):
        return RunConfig(params=ModelParams(alpha=1.0, N=1, L=1.0, beta=1.0),
                         sector=SpinSector(1, 1), grid=TimeGrid(1.0, 64),
                         eps=0.0, n_paths=n_paths, seed=SEED, variant=variant)

    def test_empty_alpha_list_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            sweep_alpha(self.coupled_config(), [])

    def test_plain_sweep_is_exactly_monotone(self):
        # per-path weights are exact rescalings e^{alpha s}, so the plain
        # energy decreases deterministically along the sweep
        report = sweep_alpha(self.coupled_config(), [0.0, 0.02, 0.5, 1.0])
        values = [e.value for e in report["estimates"]]
        assert all(b < a for a, b in zip(values, values[1:]))
        for row in report["paired_differences"]:
            assert row["difference"] <= 0.0
            assert row["stderr"] >= 0.0

    def test_ratio_sweep_not_increasing_within_3_sigma(self):
        report = sweep_alpha(self.coupled_config(variant="ratio"),
                             [0.0, 0.5, 1.0])
        for row in report["paired_differences"]:
            assert row["difference"] <= 3 * row["stderr"]

    def test_alpha_zero_endpoint_is_continuous(self):
        report = sweep_alpha(self.coupled_config(), [0.0, 0.02])
        e0, e_small = (e.value for e in report["estimates"])
        assert abs(e_small - e0) < 0.05

    def test_estimates_are_stamped_with_their_alpha(self):
        report = sweep_alpha(self.coupled_config(), [0.0, 1.0])
        assert [e.config.params.alpha for e in report["estimates"]] == [0.0, 1.0]

    @pytest.mark.parametrize("alpha_idx, alpha", [(0, 0.0), (1, 1.0)])
    def test_sweep_endpoint_bitwise_equals_direct_estimate(self, alpha_idx,
                                                           alpha):
        # common-random-number rescaling at the endpoints must reproduce a
        # direct run exactly: same paths, same action, same arithmetic
        cfg = self.coupled_config(variant="ratio", n_paths=8192)
        report = sweep_alpha(cfg, [0.0, 1.0])
        direct = energy_estimate(
            replace(cfg, params=replace(cfg.params, alpha=alpha)))
        swept = report["estimates"][alpha_idx]
        assert swept.value == direct.value
        assert swept.stderr == direct.stderr
        assert swept.n_effective == direct.n_effective
        assert swept.diagnostics == direct.diagnostics


    def test_refused_coupling_stops_before_any_sampling(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("sampled a path")
        monkeypatch.setattr(est_mod, "sample_brownian", forbidden)
        cfg = replace(self.coupled_config(), params=ModelParams(alpha=0.0, N=1,
                                                                L=500.0, beta=1.0))
        with pytest.raises(ValueError, match="L <="):
            sweep_alpha(cfg, [0.0, 0.5])

    def test_zero_couplings_need_no_drift(self):
        # alpha = 0 alone runs no action, so L > 400 at eps = 0 is allowed
        cfg = replace(self.coupled_config(n_paths=512),
                      params=ModelParams(alpha=0.0, N=1, L=500.0, beta=1.0))
        (swept,) = sweep_alpha(cfg, [0.0])["estimates"]
        direct = energy_estimate(cfg)
        assert (swept.value, swept.stderr) == (direct.value, direct.stderr)
        assert swept.diagnostics == direct.diagnostics


LADDER = [0.5, 0.0625, 0.0]


class TestSweepEps:
    """The eps ladder: one path set, one action run per rung."""

    @staticmethod
    def ladder_config(n_workers=1, n_paths=2048, path_block=512):
        return RunConfig(params=ModelParams(alpha=1.0, N=1, L=1.0, beta=1.0),
                         sector=SpinSector(1, 1), grid=TimeGrid(1.0, 64),
                         eps=LADDER[0], n_paths=n_paths, seed=SEED,
                         n_workers=n_workers, variant="ratio",
                         path_block=path_block)

    @staticmethod
    def assert_same(got, ref):
        for g, r in zip(got["estimates"], ref["estimates"], strict=True):
            assert (g.value, g.stderr, g.n_effective) == (r.value, r.stderr, r.n_effective)
            assert g.diagnostics == r.diagnostics
            assert g.config.eps == r.config.eps
        assert got["paired_differences"] == ref["paired_differences"]

    @pytest.mark.parametrize("rung", range(len(LADDER)), ids=[str(e) for e in LADDER])
    def test_rung_bitwise_equals_direct_estimate(self, rung):
        # the seed does not depend on eps: a rung is the direct run at its eps
        cfg = self.ladder_config()
        report = sweep_eps(cfg, LADDER)
        direct = energy_estimate(replace(cfg, eps=LADDER[rung]))
        swept = report["estimates"][rung]
        assert swept.config.eps == LADDER[rung]
        assert swept.value == direct.value
        assert swept.stderr == direct.stderr
        assert swept.n_effective == direct.n_effective
        assert swept.diagnostics == direct.diagnostics

    def test_workers_and_full_batch_change_no_bit(self):
        cfg = self.ladder_config(n_paths=600, path_block=128)
        ref = sweep_eps(cfg, LADDER)
        self.assert_same(sweep_eps(replace(cfg, n_workers=2), LADDER), ref)
        self.assert_same(with_full_batch(sweep_eps, cfg, LADDER), ref)

    def test_each_block_is_sampled_and_killed_once(self, monkeypatch):
        calls = {"sample": 0, "survival": 0, "action": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, attr in (("sample", "sample_brownian"),
                           ("survival", "survival_log_weights"),
                           ("action", "s_eff_decomposed")):
            monkeypatch.setattr(est_mod, attr, counted(name, getattr(est_mod, attr)))
        cfg = self.ladder_config(n_paths=300, path_block=128)
        sweep_eps(cfg, LADDER)
        # 3 blocks: paths and survival once each, the action once per rung
        assert calls == {"sample": 3, "survival": 3, "action": 3 * len(LADDER)}

    def test_paired_differences_of_neighbouring_rungs(self):
        report = sweep_eps(self.ladder_config(), LADDER)
        pairs = report["paired_differences"]
        assert [(p["eps_lo"], p["eps_hi"]) for p in pairs] == [(0.0, 0.0625),
                                                               (0.0625, 0.5)]
        e = {est.config.eps: est.value for est in report["estimates"]}
        for p in pairs:
            assert p["difference"] == pytest.approx(e[p["eps_hi"]] - e[p["eps_lo"]],
                                                    rel=1e-9)
            assert 0 < p["stderr"] < np.inf

    def test_refused_rung_stops_before_any_sampling(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("sampled a path")
        monkeypatch.setattr(est_mod, "sample_brownian", forbidden)
        cfg = replace(self.ladder_config(), params=ModelParams(alpha=1.0, N=1,
                                                               L=500.0, beta=1.0))
        with pytest.raises(ValueError, match="L <="):
            sweep_eps(cfg, [0.5, 0.0])

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            sweep_eps(self.ladder_config(), [])


def slice_budget(cfg, rows):
    """A slice budget that holds `rows` paths of cfg's sampled grid."""
    nodes = cfg.grid.n_steps + 1
    if cfg.variant == "ratio":
        nodes += cfg.n_delta_steps
    return rows * 8 * nodes * cfg.params.N


def bits(a):
    return a.view(np.int64).tolist()


# 7 paths divide neither block size (128, 16); 256 hold either block whole
SLICE_ROWS = {"one-path": 1, "non-divisor": 7, "whole-block": 256}


class TestSlicedBlocks:
    """Blocks drawn and killed slice by slice give the full batch's bits."""

    @pytest.mark.parametrize("rows", SLICE_ROWS.values(), ids=SLICE_ROWS.keys())
    @pytest.mark.parametrize("kw", FILTER_CASES.values(), ids=FILTER_CASES.keys())
    def test_rows_bitwise_equal_full_batch(self, monkeypatch, kw, rows):
        cfg = coupled_config(**kw)
        monkeypatch.setattr(paths_mod, "_SLICE_BUDGET_BYTES", slice_budget(cfg, rows))
        logs, s_eff, sel = est_mod._collect(cfg)
        ref_logs, ref_s_eff, ref_sel = with_full_batch(est_mod._collect, cfg)
        assert bits(logs) == bits(ref_logs)
        alive = (logs > -np.inf).any(axis=0)
        assert 0 < alive.sum() < cfg.n_paths
        assert bits(s_eff[..., alive]) == bits(ref_s_eff[..., alive])
        assert bits(sel[:, alive]) == bits(ref_sel[:, alive])
        assert not s_eff[..., ~alive].any() and not sel[:, ~alive].any()

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_sweep_eps_bitwise_equal_full_batch(self, monkeypatch, n_workers):
        cfg = TestSweepEps.ladder_config(n_workers=n_workers, n_paths=600,
                                         path_block=128)
        monkeypatch.setattr(paths_mod, "_SLICE_BUDGET_BYTES", slice_budget(cfg, 7))
        TestSweepEps.assert_same(sweep_eps(cfg, LADDER),
                                 with_full_batch(sweep_eps, cfg, LADDER))

    def test_block_memory_is_bounded_by_the_slice_budget(self):
        # the mc-free-n1 block: 4096 paths, beta = 4, 512 + 128 steps,
        # alpha = 0; the whole batch's increments and states alone take
        # 42 MB, and about 1 % of the paths survive
        cfg = free_config(beta=4.0, n_steps=512, n_paths=4096, variant="ratio")
        est_mod._simulate_block(cfg, 0, cfg.n_paths, (cfg.eps,))
        tracemalloc.start()
        try:
            logs, _, _ = est_mod._simulate_block(cfg, 0, cfg.n_paths, (cfg.eps,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        survivors = int(np.sum(logs[-1] > -np.inf))
        assert 0 < survivors < cfg.n_paths // 20
        # a slice's increments and states, its temporaries, and the
        # survivors' states kept per slice and joined
        bound = 3 * paths_mod._SLICE_BUDGET_BYTES + 2 * survivors * 8 * 641
        assert peak < bound


class TestLogSpace:
    """Weights of e^{S} with S in the hundreds must not overflow."""

    def strong_coupling_config(self):
        # at alpha = 20, beta = 40 the largest per-path actions exceed 355,
        # so e^{2S} overflows a double (at eps = 0 e^S itself does)
        return RunConfig(params=ModelParams(alpha=20.0, N=1, L=4.0, beta=40.0),
                         sector=SpinSector(1, 1), grid=TimeGrid(40.0, 64),
                         eps=0.5, n_paths=2048, seed=1, variant="ratio")

    def test_large_action_gives_finite_estimate_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = energy_estimate(self.strong_coupling_config())
        assert np.isfinite(res.value)
        assert np.isfinite(res.stderr) and res.stderr > 0
        assert np.isfinite(res.n_effective) and res.n_effective >= 1
        assert not res.diagnostics["zero_survivors"]

    def test_large_action_paired_difference_is_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = sweep_alpha(self.strong_coupling_config(), [10.0, 20.0])
        (row,) = report["paired_differences"]
        assert np.isfinite(row["difference"])
        assert np.isfinite(row["stderr"]) and row["stderr"] > 0
        assert all(np.isfinite(e.stderr) for e in report["estimates"])

    def test_shift_invariance(self):
        # adding a constant to a row changes the log-mean by that constant
        # and leaves the stderr alone
        rng = np.random.default_rng(SEED)
        log_w = rng.normal(size=(2, 4096))
        log_w[:, ::7] = -np.inf
        ref = est_mod.log_mean_estimate(log_w, [1.0, -0.5])
        moved = est_mod.log_mean_estimate(log_w + [[800.0], [-900.0]],
                                          [1.0, -0.5])
        assert moved.value == pytest.approx(ref.value + 800.0 + 450.0,
                                            rel=1e-12)
        assert moved.stderr == pytest.approx(ref.stderr, rel=1e-12)
        assert moved.n_effective == pytest.approx(ref.n_effective, rel=1e-12)
        assert moved.survival == ref.survival

    def test_matches_linear_space_delta_method(self):
        # two nearly equal, strongly correlated rows, as in a paired
        # difference at neighbouring couplings: the stderr is a small
        # difference of large covariance terms
        rng = np.random.default_rng(SEED)
        base = rng.normal(size=4096)
        log_w = np.vstack([base + 0.01 * rng.normal(size=4096), base]) - 3.0
        log_w[:, ::5] = -np.inf
        coeffs = [-2.0, 2.0]
        value, stderr = delta_method_reference(log_w, coeffs)
        est = est_mod.log_mean_estimate(log_w, coeffs)
        # the value is itself a difference of logs some 1e4 times larger
        assert est.value == pytest.approx(value, rel=1e-11, abs=0)
        assert est.stderr == pytest.approx(stderr, rel=1e-13, abs=0)

    def test_dead_row_is_flagged(self):
        log_w = np.vstack([np.full(64, -np.inf), np.zeros(64)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = est_mod.log_mean_estimate(log_w, [-1.0, 1.0])
        assert res.zero_survivors
        assert np.isnan(res.value)
        assert res.stderr == np.inf
        assert res.n_effective == 0.0
        assert res.survival == (0.0, 1.0)
        assert res.max_weight_share is None and res.log_weight_spread is None


class TestHealthFields:
    """Largest single-weight share of row 0 and per-row log-weight spread."""

    def test_equal_weights_share_one_over_n(self):
        est = est_mod.log_mean_estimate(np.full((1, 64), -3.0), [1.0])
        assert est.max_weight_share == 1 / 64
        assert est.log_weight_spread == (0.0,)

    def test_single_survivor_holds_all_weight(self):
        log_w = np.full((2, 64), -np.inf)
        log_w[:, 17] = 2.5
        log_w[1, 40] = -1.0
        est = est_mod.log_mean_estimate(log_w, [-1.0, 1.0])
        assert est.max_weight_share == 1.0
        assert est.log_weight_spread == (0.0, 1.75)

    def test_spread_is_std_of_finite_log_weights(self):
        rng = np.random.default_rng(SEED)
        log_w = rng.normal(size=(2, 4096)) * [[1.0], [3.0]]
        log_w[:, ::7] = -np.inf
        log_w[1, ::5] = -np.inf
        est = est_mod.log_mean_estimate(log_w, [-1.0, 1.0])
        expect = [np.std(row[np.isfinite(row)]) for row in log_w]
        assert est.log_weight_spread == pytest.approx(expect, rel=1e-14)
        w = np.exp(log_w[0])
        assert est.max_weight_share == pytest.approx(w.max() / w.sum(), rel=1e-14)

    @pytest.mark.parametrize("variant, k", [("plain", 1), ("ratio", 2)])
    def test_fields_reach_energy_and_sweep_diagnostics(self, variant, k):
        cfg = coupled_config(eps=0.3, variant=variant)
        swept = sweep_alpha(cfg, [0.5, 1.0])["estimates"]
        for res in (energy_estimate(cfg), *swept):
            share = res.diagnostics["max_weight_share"]
            spread = res.diagnostics["log_weight_spread"]
            assert 1 / cfg.n_paths < share <= 1.0
            assert len(spread) == k and all(s > 0 for s in spread)


class TestLogging:
    """One INFO record per energy estimate on the "polaron1d" logger."""

    def records(self, caplog):
        return [r for r in caplog.records if r.name == "polaron1d"]

    def test_one_record_per_estimate(self, caplog):
        cfg = free_config(beta=1.0, n_steps=64, n_paths=2048, variant="ratio")
        with caplog.at_level(logging.INFO, logger="polaron1d"):
            res = energy_estimate(cfg)
        (rec,) = self.records(caplog)
        assert rec.levelno == logging.INFO
        msg = rec.getMessage()
        for part in (f"value={res.value!r}", f"stderr={res.stderr!r}",
                     f"n_effective={res.n_effective!r}", "zero_survivors=False",
                     repr(res.diagnostics["survival_fraction"]),
                     repr(res.diagnostics["survival_fraction_extended"])):
            assert part in msg

    def test_sweep_logs_each_alpha(self, caplog):
        with caplog.at_level(logging.INFO, logger="polaron1d"):
            sweep_alpha(coupled_config(eps=0.3), [0.0, 0.5, 1.0])
        msgs = [r.getMessage() for r in self.records(caplog)]
        assert [m.split("alpha=")[1].split()[0] for m in msgs] == ["0", "0.5", "1"]

    @pytest.mark.parametrize("eps, want", [
        (0.0, None), (0.3, damped_mode_count(0.6)), (0.5, 0)])
    def test_mode_count_reaches_diagnostics_and_record(self, caplog, eps, want):
        # the count the action's series ran at (damping 2 eps); none at
        # eps = 0, and 0 where only the k = 0 terms are left
        cfg = coupled_config(eps=eps, n_paths=64)
        with caplog.at_level(logging.INFO, logger="polaron1d"):
            res = energy_estimate(cfg)
        assert res.diagnostics["k_max"] == want
        (rec,) = self.records(caplog)
        assert f"k_max={want}:" in rec.getMessage()

    def test_zero_survivors_are_logged(self, caplog):
        cfg = free_config(N=2, p=2, beta=2.0, n_steps=32, n_paths=32)
        with caplog.at_level(logging.INFO, logger="polaron1d"):
            energy_estimate(cfg)
        (rec,) = self.records(caplog)
        assert "value=inf" in rec.getMessage()
        assert "zero_survivors=True" in rec.getMessage()

    def test_library_adds_no_handler(self):
        assert logging.getLogger("polaron1d").handlers == []


class TestOneModeSet:
    @pytest.mark.parametrize("L", [0.5, 1.0, 3.0])
    def test_action_runs_the_modes_exact_diagonalization_keeps(self, L):
        # under a k_max ceiling no damping reaches, the Fock space holds
        # exactly the modes the Monte Carlo action ran
        for eps in (0.01, 0.05, 0.2, 0.4686, 0.47, 0.5, 2.0):
            cfg = RunConfig(params=ModelParams(alpha=1.0, N=1, L=L, beta=0.5),
                            sector=SpinSector(1, 1), grid=TimeGrid(0.5, 8), eps=eps,
                            n_paths=64, seed=SEED)
            spec = DiscretizationSpec(2, 10**6, 1, eps)
            assert energy_estimate(cfg).diagnostics["k_max"] == \
                kept_modes(cfg.params, spec), (eps, L)


class TestOrderingCheck:
    def test_requires_two_particles(self):
        with pytest.raises(ValueError, match="N = 2"):
            ordering_check(free_config(N=1, p=1, beta=1.0, n_steps=64,
                                       variant="ratio"))

    def test_free_sectors_are_ordered_beyond_3_sigma(self):
        # pinned run: difference 3.400, combined 3 sigma 0.464
        cfg = free_config(N=2, p=1, beta=0.5, n_steps=64, n_paths=100000,
                          seed=3, n_workers=4, variant="ratio")
        report = ordering_check(cfg)
        assert report["difference"] > 3 * report["combined_sigma"]
        assert report["difference"] == pytest.approx(3 * np.pi**2 / 8,
                                                     rel=0.15)
        surv = report["survival_fractions"]
        assert surv[1] > surv[2] > 0

    def test_paired_sigma_stacks_both_sectors(self):
        # criterion-4 shape at 20000 paths: the sectors share their
        # increments, so the paired stderr of the gap sits below the
        # combined one (pinned: 0.600 against 0.623)
        cfg = RunConfig(params=ModelParams(alpha=1.0, N=2, L=1.0, beta=0.75),
                        sector=SpinSector(2, 1), grid=TimeGrid(0.75, 96),
                        eps=0.0, n_paths=20000, seed=3, n_workers=2, variant="ratio")
        report = ordering_check(cfg)
        assert report["paired_sigma"] < report["combined_sigma"]
        rows = [est_mod._log_weights(replace(cfg, sector=SpinSector(2, p)))
                for p in (2, 1)]
        c = est_mod._coefficients(cfg)
        stacked = est_mod.log_mean_estimate(np.vstack(rows), np.concatenate([c, -c]))
        assert report["paired_sigma"] == stacked.stderr
        assert stacked.value == pytest.approx(report["difference"], rel=1e-12)

    def test_violation_carries_invariant_name(self, monkeypatch):
        def rigged(cfg, log_w):
            return EnergyEstimate(1.0, 1e-6, 100.0, cfg,
                                  diagnostics={"survival_fraction": 0.5})
        monkeypatch.setattr(est_mod, "_energy", rigged)
        cfg = free_config(N=2, p=1, beta=0.5, n_steps=64, n_paths=64,
                          variant="ratio")
        with pytest.raises(InvariantViolation) as err:
            ordering_check(cfg)
        assert err.value.name == "sector-ordering-mc"

    def test_empty_sector_is_not_an_ordering_violation(self):
        # criterion-4 shape: at 16 paths the p = 2 sector keeps none, and
        # E(1) = inf +- inf says nothing about the ordering
        cfg = RunConfig(params=ModelParams(alpha=1.0, N=2, L=1.0, beta=0.75),
                        sector=SpinSector(2, 1), grid=TimeGrid(0.75, 96),
                        eps=0.0, n_paths=16, seed=3, variant="ratio")
        with pytest.raises(InvariantViolation) as err:
            ordering_check(cfg)
        assert err.value.name == "zero-survivors"
        assert "p = 2" in str(err.value) and "n_paths = 16" in str(err.value)
