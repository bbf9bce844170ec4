"""Experiment runner: flat-file configs, subcommands, CSV and manifest output.

Configuration is a flat key = value document (# starts a comment); every
key has a default, unknown keys are rejected by name, and --set overrides
win over the file.  Each subcommand does its work, writes its CSV
(results.csv with the fixed column schema, or compare.csv) and returns
its exit code and its own manifest fields; `main` adds the common ones
(command, resolved configuration, master seed, version, wall clock,
timestamp) and writes manifest.json once.  Every file goes through one
atomic write (tmp file + rename).  Identical invocations produce
byte-identical CSVs; only the manifest timestamp differs.

Exit codes: 0 success, 1 invariant failure, 2 configuration error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .action import PotentialSpec
from .exact_diag import DiscretizationSpec, InvariantViolation, sector_ground
from .estimator import RunConfig, energy_estimate, ordering_check, sweep_alpha, \
    sweep_eps
from .geometry import SpinSector
from .kernels import ModelParams
from .paths import TimeGrid
from .validate import run_validation

CSV_COLUMNS = ("alpha", "beta", "epsilon", "N", "p", "M", "S",
               "estimator_variant", "value", "stderr", "n_paths", "n_steps",
               "seed")


class ConfigError(Exception):
    pass


def _finite(text):
    """float(text), refusing the nan and inf that float() accepts."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _float_list(text):
    """Comma-separated finite values >= 0 (the couplings and cutoffs of a sweep)."""
    items = [t for t in str(text).split(",") if t.strip()]
    if not items:
        raise ValueError("empty list")
    values = tuple(_finite(t) for t in items)
    if min(values) < 0:
        raise ValueError("entries must be >= 0")
    return values


def _opt_float(text):
    text = str(text).strip()
    if text in ("", "none"):
        return None
    return _finite(text)


# key -> (parser, default as config text)
SCHEMA = {
    "alpha": (_finite, "0.0"),
    "N": (int, "1"),
    "p": (int, "1"),
    "L": (_finite, "1.0"),
    "beta": (_finite, "2.0"),
    "n_steps": (int, "256"),
    "epsilon": (_finite, "0.5"),
    "n_paths": (int, "20000"),
    "seed": (int, "1"),
    "workers": (int, "1"),
    "variant": (str, "ratio"),
    "delta": (_opt_float, ""),
    "alphas": (_float_list, "0,0.5,1"),
    "eps_ladder": (_float_list, "0.5,0.25,0.125,0.0625"),
    "n_el_basis": (int, "10"),
    "k_max": (int, "3"),
    "n_ph_max": (int, "3"),
    "v_quadratic": (_finite, "0.0"),
    "w_quadratic": (_finite, "0.0"),
    "mc_csv": (str, ""),
    "diag_csv": (str, ""),
    "out": (str, "."),
}

REQUIRED = {"compare": ("mc_csv", "diag_csv")}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved flat configuration: defaults < config file < --set < flags."""

    values: dict

    @classmethod
    def resolve(cls, config_path, set_items, flag_overrides):
        text = {key: default for key, (_, default) in SCHEMA.items()}
        if config_path is not None:
            text.update(_parse_config_file(config_path))
        for item in set_items or ():
            key, _, value = item.partition("=")
            if not _:
                raise ConfigError(f"--set needs key=value, got {item!r}")
            key = key.strip()
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key: {key!r}")
            text[key] = value.strip()
        for key, value in flag_overrides.items():
            if value is not None:
                text[key] = str(value)
        values = {}
        for key, raw in text.items():
            parser = SCHEMA[key][0]
            try:
                values[key] = parser(raw)
            except ValueError as err:
                raise ConfigError(f"bad value for {key!r}: {raw!r} ({err})")
        return cls(values)

    def require(self, subcommand):
        for key in REQUIRED.get(subcommand, ()):
            if not self.values[key]:
                raise ConfigError(f"{subcommand} requires config key {key!r}")

    def as_text(self) -> dict:
        """Canonical string form of every key, for the manifest."""
        out = {}
        for key in sorted(SCHEMA):
            v = self.values[key]
            if isinstance(v, tuple):
                out[key] = ",".join(_fmt(x) for x in v)
            elif v is None:
                out[key] = ""
            elif isinstance(v, float):
                out[key] = _fmt(v)
            else:
                out[key] = str(v)
        return out

    def potential(self) -> PotentialSpec | None:
        v2, w2 = self.values["v_quadratic"], self.values["w_quadratic"]
        if v2 == 0.0 and w2 == 0.0:
            return None
        return PotentialSpec(
            V=(lambda x, c=v2: c * x**2) if v2 != 0.0 else None,
            W=(lambda r, c=w2: c * r**2) if w2 != 0.0 else None)

    def model(self) -> tuple[ModelParams, SpinSector]:
        """The physical parameters and the spin sector of the run."""
        v = self.values
        try:
            return (ModelParams(alpha=v["alpha"], N=v["N"], L=v["L"],
                                beta=v["beta"]),
                    SpinSector(v["N"], v["p"]))
        except ValueError as err:
            raise ConfigError(str(err))

    def run_config(self) -> RunConfig:
        v = self.values
        params, sector = self.model()
        try:
            return RunConfig(
                params=params, sector=sector,
                grid=TimeGrid(v["beta"], v["n_steps"]),
                eps=v["epsilon"], n_paths=v["n_paths"], seed=v["seed"],
                n_workers=v["workers"], variant=v["variant"],
                delta=v["delta"], pot=self.potential())
        except ValueError as err:
            raise ConfigError(str(err))

    def disc_spec(self) -> DiscretizationSpec:
        v = self.values
        try:
            return DiscretizationSpec(n_el_basis=v["n_el_basis"],
                                      k_max=v["k_max"],
                                      n_ph_max=v["n_ph_max"],
                                      epsilon=v["epsilon"])
        except ValueError as err:
            raise ConfigError(str(err))

    @property
    def out_dir(self) -> Path:
        return Path(self.values["out"])


def _parse_config_file(path) -> dict:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    text = {}
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config key: {key!r}")
        text[key] = value.strip()
    return text


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _results_row(params, sector, eps, variant, value, stderr, n_paths,
                 n_steps, seed) -> list:
    """One results.csv row, in CSV_COLUMNS order."""
    m = float(sector.M)
    return [_fmt(params.alpha), _fmt(params.beta), _fmt(eps), str(params.N),
            str(sector.p), _fmt(m), _fmt(abs(m)), variant, _fmt(value),
            _fmt(stderr), str(n_paths), str(n_steps), str(seed)]


def _estimate_row(est) -> list:
    cfg = est.config
    return _results_row(cfg.params, cfg.sector, cfg.eps, cfg.variant, est.value,
                        est.stderr, cfg.n_paths, cfg.grid.n_steps, cfg.seed)


def _write_atomic(path: Path, text: str):
    """Write text to path through a .tmp file and os.replace, so a reader
    never sees a half-written file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="")
    os.replace(tmp, path)


def _write_csv(path: Path, rows, columns=CSV_COLUMNS):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    _write_atomic(path, buf.getvalue())


def cmd_energy(config: ExperimentConfig) -> tuple:
    est = energy_estimate(config.run_config())
    _write_csv(config.out_dir / "results.csv", [_estimate_row(est)])
    return 0, {"n_effective": est.n_effective, "diagnostics": est.diagnostics}


def _build_swept(key: str, configs) -> None:
    """Build every swept RunConfig before any sampling; a refused one names key."""
    try:
        list(configs)
    except ValueError as err:
        raise ConfigError(f"bad value for {key!r}: {err}")


def cmd_sweep_alpha(config: ExperimentConfig) -> tuple:
    base = config.run_config()
    alphas = config.values["alphas"]
    _build_swept("alphas", (replace(base, params=replace(base.params, alpha=a))
                            for a in alphas))
    report = sweep_alpha(base, alphas)
    rows = [_estimate_row(est) for est in report["estimates"]]
    _write_csv(config.out_dir / "results.csv", rows)
    return 0, {"paired_differences": report["paired_differences"]}


def cmd_uv_limit(config: ExperimentConfig) -> tuple:
    base = config.run_config()
    ladder = config.values["eps_ladder"]
    _build_swept("eps_ladder", (replace(base, eps=eps) for eps in ladder))
    report = sweep_eps(base, ladder)
    rows = [_estimate_row(est) for est in report["estimates"]]
    _write_csv(config.out_dir / "results.csv", rows)
    return 0, {"eps_ladder": list(ladder), "common_random_numbers": True,
               "paired_differences": report["paired_differences"]}


def cmd_ordering(config: ExperimentConfig) -> tuple:
    N = config.values["N"]
    if N != 2:
        raise ConfigError(f"ordering compares the two N = 2 sectors, got N = {N}")
    report = ordering_check(config.run_config())
    rows = [_estimate_row(report["symmetric"]),
            _estimate_row(report["antisymmetric"])]
    _write_csv(config.out_dir / "results.csv", rows)
    return 0, {"difference": report["difference"],
               "combined_sigma": report["combined_sigma"],
               "paired_sigma": report["paired_sigma"],
               "survival_fractions": {
                   str(k): v for k, v in report["survival_fractions"].items()}}


def cmd_diag(config: ExperimentConfig) -> tuple:
    v = config.values
    if v["N"] == 1:
        symmetry = "none"
    elif v["N"] == 2:
        symmetry = "symmetric" if v["p"] == 1 else "antisymmetric"
    else:
        raise ConfigError(f"diag supports N in 1..2, got N = {v['N']}")
    params, sector = config.model()
    res = sector_ground(v["N"], symmetry, config.potential(), params,
                        config.disc_spec())
    row = _results_row(params, sector, v["epsilon"], "exact-diag",
                       res.ground_energy, 0.0, 0, 0, v["seed"])
    _write_csv(config.out_dir / "results.csv", [row])
    return 0, {"gap": res.gap, "provenance": res.provenance}


def _read_rows(path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _number(row, column, path, parse=float):
    try:
        return parse(row[column])
    except (KeyError, TypeError, ValueError):
        raise ConfigError(f"{path}: column {column!r} missing or not a number "
                          f"({row.get(column)!r})")


def _join_key(row, path) -> tuple:
    return tuple(_fmt(_number(row, k, path))
                 for k in ("alpha", "beta", "epsilon")) + tuple(
        str(_number(row, k, path, int)) for k in ("N", "p"))


def cmd_compare(config: ExperimentConfig) -> tuple:
    mc_csv, diag_csv = config.values["mc_csv"], config.values["diag_csv"]
    diag_rows = {_join_key(r, diag_csv): r for r in _read_rows(diag_csv)}
    out_rows = []
    for row in _read_rows(mc_csv):
        ref = diag_rows.get(_join_key(row, mc_csv))
        if ref is None:
            continue
        value = _number(row, "value", mc_csv)
        stderr = _number(row, "stderr", mc_csv)
        target = _number(ref, "value", diag_csv)
        sigma = abs(value - target) / stderr if stderr > 0 else float("inf")
        out_rows.append([row["alpha"], row["beta"], row["epsilon"], row["N"],
                         row["p"], _fmt(value), _fmt(stderr), _fmt(target),
                         _fmt(sigma)])
    if not out_rows:
        raise ConfigError("no rows with matching (alpha, beta, epsilon, N, p)"
                          " between the two CSVs")
    columns = ("alpha", "beta", "epsilon", "N", "p", "mc_value", "mc_stderr",
               "diag_value", "sigma_distance")
    _write_csv(config.out_dir / "compare.csv", out_rows, columns)
    return 0, {"n_rows": len(out_rows),
               "max_sigma_distance": max(float(r[-1]) for r in out_rows)}


def cmd_validate(config: ExperimentConfig) -> tuple:
    n_workers = config.values["workers"]
    if n_workers < 1:
        raise ConfigError(f"workers must be >= 1, got {n_workers}")
    report = run_validation(n_workers=n_workers)
    print(json.dumps(report, indent=2))
    if not report["passed"]:
        failed = [s["suite"] for s in report["suites"]
                  if s["status"] != "pass"]
        print(f"validation failed: {', '.join(failed)}", file=sys.stderr)
    return (0 if report["passed"] else 1,
            {"passed": report["passed"], "suites": report["suites"]})


COMMANDS = {
    "energy": cmd_energy,
    "sweep-alpha": cmd_sweep_alpha,
    "uv-limit": cmd_uv_limit,
    "ordering": cmd_ordering,
    "diag": cmd_diag,
    "compare": cmd_compare,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polaron1d",
        description="Path-integral Monte Carlo and exact diagonalization "
                    "for the 1-D Froehlich polaron with spin sectors.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="flat key = value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--out", type=str, default=None,
                       help="output directory (default .)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        config = ExperimentConfig.resolve(
            args.config, args.set,
            {"out": args.out, "seed": args.seed, "workers": args.workers})
        config.require(args.subcommand)
        out_dir = config.out_dir
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise OSError(f"cannot create output directory {out_dir}: {err}")
        code, fields = COMMANDS[args.subcommand](config)
        manifest = {"command": args.subcommand,
                    "config": config.as_text(),
                    "master_seed": config.values["seed"],
                    "version": __version__,
                    "wall_clock_seconds": round(time.monotonic() - t0, 3),
                    "timestamp": datetime.now(timezone.utc).isoformat(),
                    **fields}
        _write_atomic(out_dir / "manifest.json",
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return code
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except InvariantViolation as err:
        print(f"invariant failure: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
