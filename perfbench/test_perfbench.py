"""Fast tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from polaron1d import estimator, exact_diag  # noqa: E402
from polaron1d.exact_diag import DiscretizationSpec  # noqa: E402
from polaron1d.geometry import SpinSector  # noqa: E402
from polaron1d.kernels import ModelParams  # noqa: E402
from polaron1d.paths import TimeGrid  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFS = W.load_references()


def names(section):
    return sorted(m["name"] for m in SPEC[section])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_inputs_are_deterministic_from_the_seed(workload):
    first = [op.name for op in W.build_cycle(workload, 11, REFS)]
    assert first == [op.name for op in W.build_cycle(workload, 11, REFS)]
    assert set(first) <= REFS["digest"].keys()


def test_seed_draws_the_op_order():
    orders = {tuple(op.name for op in W.build_cycle("mc-free-n1", s, REFS))
              for s in range(4)}
    assert len(orders) > 1


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(W.BUILDERS) == list(run.WORKLOAD_NAMES)


def test_end_to_end_metric_names_match_benchmark_json():
    records = [{"kind": "mc", "seconds": 2.0, "ok": True, "stderr": 0.1, "work": 10},
               {"kind": "ed", "seconds": 1.0, "ok": True, "stderr": 0.0, "work": 1}]
    metrics = run.end_to_end(records, 0.5, W.TARGET_STDERR)
    assert sorted(metrics) == names("end_to_end")
    assert metrics["time_to_accuracy_s"] == pytest.approx((200.0 + 1.0) / 2)
    assert metrics["work_per_s"] == pytest.approx(11 / 3)


def test_per_layer_metric_names_match_benchmark_json():
    raised = [{"id": 1, "name": "bench.op", "start": 0.0, "end": 2.0, "parent": None},
              {"id": 2, "name": "exact_diag.build_H_eps", "start": 0.5, "end": 1.0,
               "parent": 1, "error": True}]
    for trace in ([], raised):
        metrics = spans.layer_metrics(trace)
        assert sorted([*metrics, "bench.trace_overhead"]) == names("per_layer")
    assert metrics["exact_diag.assemble_s"] == 0.5


def test_tail_needs_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    samples = [float(i) for i in range(40)]
    assert run.tail(samples) == (29.0, 75.0)


def test_stored_ed_reference_is_reproduced():
    entry = next(e for e in W.ED_OPS if e["spec"] == (6, 5, 3))
    stored = REFS["ed-crosscheck"][entry["name"]]
    assert abs(W.ed_energy(entry) - stored) <= W.ED_REL_TOL * abs(stored)


def test_traced_run_is_bit_identical_and_restores_every_name():
    cfg = estimator.RunConfig(
        params=ModelParams(alpha=1.0, N=2, L=1.0, beta=0.5), sector=SpinSector(2, 1),
        grid=TimeGrid(0.5, 16), eps=0.0, n_paths=96, seed=2, n_workers=2,
        variant="ratio", path_block=48)
    params = ModelParams(alpha=1.0, N=1, L=1.0, beta=1.0)
    spec = DiscretizationSpec(3, 1, 1, epsilon=0.5)

    def ops():
        est = estimator.energy_estimate(cfg)
        uv = estimator.energy_estimate(replace(cfg, eps=0.5))
        ground = exact_diag.sector_ground(1, "none", None, params, spec)
        return [est.value, est.stderr, uv.value, uv.stderr, ground.ground_energy]

    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in spans.WRAPPED]
    untraced = ops()
    with spans.Tracer() as tracer:
        traced = tracer.op("probe", ops)
    assert list(map(float.hex, traced)) == list(map(float.hex, untraced))
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr

    seen = {s["name"] for s in tracer.spans}
    assert {name for *_, name, _ in spans.WRAPPED} - seen == {
        "exact_diag.ratio_energy_oracle", "scipy.eigsh"}
    by_id = {s["id"]: s for s in tracer.spans}
    for s in tracer.spans:
        if s["name"] == "kernels.eval_dphi":
            chain = []
            while s["parent"] is not None:
                s = by_id[s["parent"]]
                chain.append(s["name"])
            assert chain[-2:] == ["estimator.energy_estimate", "bench.op"]
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["estimator.blocks"] == 4
    assert metrics["exact_diag.dense_calls"] == 1
    assert 0 < metrics["fock.kept_frac"] <= 1


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-free-n1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
