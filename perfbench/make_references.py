"""Regenerate perfbench/references.json (takes a few minutes on 2 cores).

    PYTHONPATH=src python3 perfbench/make_references.py

The file holds the deterministic references the benchmark checks each op
against, and the numerics digest: every op's pinned-seed output floats
at the commit that wrote the file.  Regenerate the references only when
the physics they encode changes; regenerate the digest when a change
moves pinned-seed numbers on purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import dirichlet_ratio_energy  # noqa: E402

from polaron1d.exact_diag import DiscretizationSpec, ratio_energy_oracle  # noqa: E402
from polaron1d.kernels import ModelParams  # noqa: E402

import workloads as W  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402

# Allowance for the time-step bias of the bridge-corrected survival weight
# at 512 steps: criterion 1's bias bound.
FREE_BUDGET = 0.05
# uv-ladder oracle: criterion 3's spec, with its truncation budget taken as
# the energy shift under one more phonon quantum plus two more sine modes.
UV_SPEC = (12, 4, 4)
UV_UPGRADES = ((12, 4, 5), (14, 4, 4))


def uv_reference(eps: float) -> dict:
    params = ModelParams(alpha=1.0, N=1, L=1.0, beta=2.0)

    def oracle(spec):
        return ratio_energy_oracle(params, DiscretizationSpec(*spec, epsilon=eps),
                                   beta=2.0, delta=0.5)

    base = oracle(UV_SPEC)
    budget = sum(abs(oracle(spec) - base) for spec in UV_UPGRADES)
    return {"oracle": base, "budget": budget, "spec": UV_SPEC, "upgrades": UV_UPGRADES}


def main() -> None:
    refs = {
        "mc-free-n1": {"exact": dirichlet_ratio_energy(4.0, 1.0), "budget": FREE_BUDGET},
        "mc-uv-ladder": {str(eps): uv_reference(eps) for eps in W.UV_EPS},
        "ed-crosscheck": {e["name"]: W.ed_energy(e) for e in W.ED_OPS},
    }
    digest = {}
    for workload in WORKLOAD_NAMES:
        for op in W.build_cycle(workload, 0, refs):
            res = op.call()
            reason = op.check(res)
            if reason is not None:
                raise SystemExit(f"{op.name} fails its own check: {reason}")
            digest[op.name] = res["digest"]
            print(op.name, res["digest"], flush=True)
    refs["digest"] = digest
    W.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
