"""End-to-end CLI tests: subcommands, config handling, exit codes, files."""

import csv
import json

import numpy as np
import pytest

from polaron1d import cli, kernels
from polaron1d.cli import CSV_COLUMNS, main

SEED = 90121


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def small_energy_args(out, **overrides):
    settings = {"beta": 1.0, "n_steps": 64, "n_paths": 4096, "alpha": 0.0,
                "epsilon": 0.0}
    settings.update(overrides)
    args = ["energy", "--out", out, "--seed", SEED]
    for key, value in settings.items():
        args += ["--set", f"{key}={value}"]
    return args


class TestEnergyCommand:
    def test_writes_schema_row_and_manifest(self, tmp_path):
        assert run_cli(*small_energy_args(tmp_path)) == 0
        rows = read_csv(tmp_path / "results.csv")
        assert len(rows) == 1
        assert list(rows[0]) == list(CSV_COLUMNS)
        assert rows[0]["estimator_variant"] == "ratio"
        assert rows[0]["seed"] == str(SEED)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "energy"
        assert manifest["master_seed"] == SEED
        assert manifest["config"]["n_paths"] == "4096"
        assert "version" in manifest and "wall_clock_seconds" in manifest
        health = manifest["diagnostics"]
        assert 0 < health["max_weight_share"] <= 1
        assert len(health["log_weight_spread"]) == 2

    def test_free_particle_value_within_3_sigma(self, tmp_path):
        run_cli("energy", "--out", tmp_path, "--set", "alpha=0",
                "--set", "n_paths=8192")
        row = read_csv(tmp_path / "results.csv")[0]
        pull = abs(float(row["value"]) - np.pi**2 / 8) / float(row["stderr"])
        assert pull < 3

    def test_identical_invocations_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(*small_energy_args(a))
        run_cli(*small_energy_args(b))
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_config_file_parsed_with_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 1.0\nn_steps = 64  # coarse\n\nn_paths = 2048\n")
        assert run_cli("energy", "--config", cfg, "--out", tmp_path) == 0
        row = read_csv(tmp_path / "results.csv")[0]
        assert row["n_steps"] == "64"
        assert row["n_paths"] == "2048"

    def test_set_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 1.0\nn_steps = 64\nn_paths = 2048\n")
        run_cli("energy", "--config", cfg, "--out", tmp_path,
                "--set", "n_paths=1024")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["n_paths"] == "1024"


class TestConfigErrors:
    def test_unknown_set_key_exits_2_naming_it(self, tmp_path, capsys):
        code = run_cli("energy", "--out", tmp_path, "--set", "bogus_key=1")
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_unknown_file_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 3\n")
        assert run_cli("energy", "--config", cfg, "--out", tmp_path) == 2
        assert "mystery" in capsys.readouterr().err

    def test_unparsable_value_exits_2(self, tmp_path, capsys):
        code = run_cli("energy", "--out", tmp_path, "--set", "beta=fast")
        assert code == 2
        assert "beta" in capsys.readouterr().err

    def test_inconsistent_run_exits_2(self, tmp_path):
        # ratio delta off the time grid is a configuration error
        code = run_cli("energy", "--out", tmp_path, "--set", "delta=0.013")
        assert code == 2

    @pytest.mark.parametrize("command, settings, named", [
        ("sweep-alpha", ["alphas=-1,0"], "'alphas'"),
        # a coupling RunConfig refuses (the eps = 0 drift needs L <= 400)
        ("sweep-alpha", ["alphas=0,0.5", "L=500", "epsilon=0", "n_paths=64",
                         "n_steps=16", "beta=1"], "'alphas'"),
        ("uv-limit", ["eps_ladder=0.5,-0.1"], "'eps_ladder'"),
        # a rung RunConfig refuses (the eps = 0 drift needs L <= 400)
        ("uv-limit", ["eps_ladder=0.5,0", "L=500", "alpha=1", "n_paths=64",
                      "n_steps=16", "beta=1"], "'eps_ladder'"),
        ("ordering", ["N=1"], "N = 1"),
        ("compare", ["mc_csv={no_eps}", "diag_csv={no_eps}"], "no_eps.csv: column 'epsilon'"),
        ("compare", ["mc_csv={text}", "diag_csv={text}"], "text.csv: column 'beta'"),
        # nan and inf parse as floats, but no model or run takes them
        ("energy", ["alpha=nan"], "'alpha'"),
        ("energy", ["v_quadratic=nan"], "'v_quadratic'"),
        ("energy", ["w_quadratic=inf"], "'w_quadratic'"),
        ("sweep-alpha", ["alphas=0,nan"], "'alphas'"),
        ("energy", ["epsilon=nan"], "'epsilon'"),
        ("energy", ["L=inf"], "'L'"),
        ("energy", ["delta=inf"], "'delta'"),
    ], ids=["alphas", "alphas-refused", "eps_ladder", "eps_ladder-rung", "ordering-N", "compare-missing-column",
            "compare-non-numeric", "alpha-nan", "v_quadratic-nan", "w_quadratic-inf",
            "alphas-nan", "epsilon-nan", "L-inf", "delta-inf"])
    def test_bad_input_exits_2_naming_it(self, tmp_path, capsys, command,
                                         settings, named):
        columns = ("alpha", "beta", "epsilon", "N", "p", "value", "stderr")
        for name, header, row in (("no_eps", columns[:2] + columns[3:], "0,1,1,1,1,0"),
                                  ("text", columns, "0,hot,0,1,1,1,0")):
            (tmp_path / f"{name}.csv").write_text(",".join(header) + "\n" + row + "\n")
        files = {name: tmp_path / f"{name}.csv" for name in ("no_eps", "text")}
        args = [word for item in settings for word in ("--set", item.format(**files))]
        assert run_cli(command, "--out", tmp_path, *args) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err

    def test_missing_input_file_exits_3(self, tmp_path):
        code = run_cli("compare", "--out", tmp_path,
                       "--set", "mc_csv=/does/not/exist.csv",
                       "--set", "diag_csv=/does/not/exist.csv")
        assert code == 3

    def test_missing_config_file_exits_3(self, tmp_path, capsys):
        code = run_cli("energy", "--config", "/does/not/exist.cfg",
                       "--out", tmp_path)
        assert code == 3
        assert "exist.cfg" in capsys.readouterr().err


class TestDiagCommand:
    def test_free_particle_pin(self, tmp_path):
        assert run_cli("diag", "--out", tmp_path, "--set", "alpha=0",
                       "--set", "n_el_basis=12", "--set", "k_max=2",
                       "--set", "n_ph_max=2") == 0
        row = read_csv(tmp_path / "results.csv")[0]
        assert row["estimator_variant"] == "exact-diag"
        assert float(row["value"]) == pytest.approx(np.pi**2 / 8, abs=1e-10)
        assert float(row["stderr"]) == 0.0
        # solver and timings reach the manifest, not results.csv
        prov = json.loads((tmp_path / "manifest.json").read_text())["provenance"]
        assert prov["solver"] == "dense" and prov["dim"] > 0
        assert "solve_s" in prov and "assemble_s" in prov
        assert not any(key in row for key in ("solver", "solve_s", "assemble_s"))

    def test_three_particles_rejected(self, tmp_path, capsys):
        code = run_cli("diag", "--out", tmp_path, "--set", "N=3",
                       "--set", "p=1")
        assert code == 2
        assert "N" in capsys.readouterr().err

    @pytest.mark.parametrize("settings", [("alpha=-1",), ("N=2", "p=3")])
    def test_invalid_model_exits_2_before_solving(self, tmp_path, capsys,
                                                  monkeypatch, settings):
        calls = []
        monkeypatch.setattr(cli, "sector_ground", lambda *args: calls.append(args))
        args = [word for item in settings for word in ("--set", item)]
        assert run_cli("diag", "--out", tmp_path, *args) == 2
        assert "configuration error" in capsys.readouterr().err
        assert calls == []


class TestCompareCommand:
    def make_pair(self, tmp_path):
        mc, dg = tmp_path / "mc", tmp_path / "dg"
        run_cli(*small_energy_args(mc, n_paths=8192, beta=2.0, n_steps=256,
                                   epsilon=0.5))
        run_cli("diag", "--out", dg, "--set", "alpha=0", "--set", "beta=2.0",
                "--set", "epsilon=0.5", "--set", "n_el_basis=12")
        return mc / "results.csv", dg / "results.csv"

    def test_join_reports_sigma_distance(self, tmp_path):
        mc_csv, diag_csv = self.make_pair(tmp_path)
        assert run_cli("compare", "--out", tmp_path,
                       "--set", f"mc_csv={mc_csv}",
                       "--set", f"diag_csv={diag_csv}") == 0
        rows = read_csv(tmp_path / "compare.csv")
        assert len(rows) == 1
        assert float(rows[0]["sigma_distance"]) < 3
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["n_rows"] == 1

    def test_disjoint_keys_exit_2(self, tmp_path, capsys):
        mc_csv, _ = self.make_pair(tmp_path)
        other = tmp_path / "dg2"
        run_cli("diag", "--out", other, "--set", "alpha=0",
                "--set", "beta=3.0", "--set", "epsilon=0.5")
        code = run_cli("compare", "--out", tmp_path,
                       "--set", f"mc_csv={mc_csv}",
                       "--set", f"diag_csv={other / 'results.csv'}")
        assert code == 2
        assert "matching" in capsys.readouterr().err


class TestSweepAndLadders:
    def test_sweep_alpha_emits_row_per_alpha(self, tmp_path):
        assert run_cli("sweep-alpha", "--out", tmp_path, "--seed", SEED,
                       "--set", "alphas=0,0.5,1", "--set", "beta=1.0",
                       "--set", "n_steps=64", "--set", "n_paths=8192",
                       "--set", "epsilon=0", "--set", "alpha=1") == 0
        rows = read_csv(tmp_path / "results.csv")
        assert [r["alpha"] for r in rows] == ["0", "0.5", "1"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for pair in manifest["paired_differences"]:
            assert pair["difference"] <= 3 * pair["stderr"]

    def test_sweep_alpha_at_zero_coupling_needs_no_drift(self, tmp_path):
        # alpha = 0 runs no action, so L > 400 at eps = 0 is a valid sweep
        assert run_cli("sweep-alpha", "--out", tmp_path, "--seed", SEED,
                       "--set", "alphas=0", "--set", "L=500", "--set", "epsilon=0",
                       "--set", "n_paths=64", "--set", "n_steps=16",
                       "--set", "beta=1") == 0
        assert [r["alpha"] for r in read_csv(tmp_path / "results.csv")] == ["0"]

    def test_uv_limit_emits_ladder_with_shared_seed(self, tmp_path):
        assert run_cli("uv-limit", "--out", tmp_path, "--seed", SEED,
                       "--set", "eps_ladder=0.5,0.25", "--set", "alpha=1",
                       "--set", "beta=1.0", "--set", "n_steps=64",
                       "--set", "n_paths=2048") == 0
        rows = read_csv(tmp_path / "results.csv")
        assert [r["epsilon"] for r in rows] == ["0.5", "0.25"]
        assert {r["seed"] for r in rows} == {str(SEED)}
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        (pair,) = manifest["paired_differences"]
        assert (pair["eps_lo"], pair["eps_hi"]) == (0.25, 0.5)
        # both cutoffs keep one mode at L = 1: the rungs differ by ~5e-10
        assert abs(pair["difference"]) < 1e-6 and 0 < pair["stderr"] < 1e-6

    def test_ordering_emits_both_sectors(self, tmp_path):
        assert run_cli("ordering", "--out", tmp_path, "--seed", 3,
                       "--workers", 4, "--set", "N=2", "--set", "alpha=0",
                       "--set", "epsilon=0", "--set", "beta=0.5",
                       "--set", "n_steps=64", "--set", "n_paths=20000") == 0
        rows = read_csv(tmp_path / "results.csv")
        assert [r["p"] for r in rows] == ["1", "2"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["difference"] > 3 * manifest["combined_sigma"]
        assert 0 < manifest["paired_sigma"] < 2 * manifest["combined_sigma"]


class TestValidateCommand:
    def test_clean_checkout_passes(self, tmp_path, capsys):
        assert run_cli("validate", "--out", tmp_path, "--workers", 4) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]
        assert {s["status"] for s in report["suites"]} == {"pass"}
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["passed"]

    def test_fault_injection_names_g_series(self, tmp_path, capsys, monkeypatch):
        # a planted fault: the g series off by 0.1 % against its closed form
        g_series = kernels.g_series
        monkeypatch.setattr(kernels, "g_series",
                            lambda *args, **kw: 1.001 * g_series(*args, **kw))
        code = run_cli("validate", "--out", tmp_path, "--workers", 4)
        assert code == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        failed = [s["suite"] for s in report["suites"]
                  if s["status"] == "fail"]
        assert failed == ["kernels-g-series"]
        assert "kernels-g-series" in captured.err
        # a failed validation still writes its manifest
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "validate" and not manifest["passed"]

    def test_zero_workers_exits_2_before_any_suite(self, tmp_path, capsys,
                                                   monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_validation",
                            lambda **kw: calls.append(kw))
        assert run_cli("validate", "--out", tmp_path, "--workers", 0) == 2
        assert "configuration error" in capsys.readouterr().err
        assert calls == []
