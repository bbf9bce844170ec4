"""Span tracing from outside the library, and the per-layer metrics.

`Tracer` replaces the public layer functions with recording wrappers at
the names their callers look up (module attributes, and the
`FockSpace.occupations` cached property), and puts every original back
when its `with` block ends.  A span records name, start, end, parent,
thread and op id, plus counts taken from argument and result shapes.
Spans stay in memory; the caller writes them out when the run ends.

The library fans path blocks out to worker threads.  A span opened on a
thread with no open span of its own takes as parent the innermost open
span of the op's thread, so block work hangs under the estimate that
started it.
"""

from __future__ import annotations

import functools
import itertools
import threading
from functools import cached_property
from time import perf_counter

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from polaron1d import action, estimator, exact_diag, fock


def _kernel_evals(args, kwargs, result):
    return {"evals": int(np.size(result))}


def _sample_counts(args, kwargs, path):
    rows, nodes, n = path.states.shape
    return {"normals": rows * (nodes - 1) * n}


def _survival_counts(args, kwargs, logs):
    states = args[0]
    return {"path_steps": int(np.size(logs)) * (np.shape(states)[-2] - 1)}


def _action_counts(args, kwargs, result):
    return {"rows": result.n_paths}


def _estimate_counts(args, kwargs, est):
    cfg = est.config
    return {"n_paths": cfg.n_paths, "workers": cfg.n_workers,
            "n_effective": est.n_effective,
            "alive_beta": est.diagnostics.get("survival_fraction", 0.0) * cfg.n_paths,
            "alive_ext": est.diagnostics.get("survival_fraction_extended", 0.0)
            * cfg.n_paths}


def _occupation_counts(args, kwargs, occs):
    space = args[0]
    return {"candidates": (space.cap + 1) ** len(space.modes), "states": len(occs)}


def _hamiltonian_counts(args, kwargs, H):
    return {"dim": H.shape[0], "nnz": H.nnz}


def _ground_counts(args, kwargs, res):
    return {"residual_rel": float(np.max(res.residuals) / res.norm_scale)}


# (owner, attribute, span name, counts) for every wrapped name.  The
# owner is the module whose globals the caller reads the name from.
WRAPPED = (
    (estimator, "energy_estimate", "estimator.energy_estimate", _estimate_counts),
    (estimator, "uniform_ordered_points", "geometry.uniform_ordered_points", None),
    (estimator, "sample_brownian", "paths.sample_brownian", _sample_counts),
    (estimator, "survival_log_weights", "geometry.survival_log_weights", _survival_counts),
    (estimator, "s_eff_decomposed", "action.s_eff_decomposed", _action_counts),
    (action, "eval_phi", "kernels.eval_phi", _kernel_evals),
    (action, "eval_dphi", "kernels.eval_dphi", _kernel_evals),
    (action, "ito_integral", "paths.ito_integral", None),
    (fock.FockSpace, "occupations", "fock.occupations", _occupation_counts),
    (exact_diag, "build_H_eps", "exact_diag.build_H_eps", _hamiltonian_counts),
    (exact_diag, "ground", "exact_diag.ground", _ground_counts),
    (exact_diag, "sector_ground", "exact_diag.sector_ground", None),
    (exact_diag, "ratio_energy_oracle", "exact_diag.ratio_energy_oracle", None),
    # exact_diag reaches the solvers as scipy.linalg.eigh and
    # scipy.sparse.linalg.eigsh; wrapping them counts which one ran.
    (scipy.sparse.linalg, "eigsh", "scipy.eigsh", None),
    (scipy.linalg, "eigh", "scipy.eigh", None),
)


class Tracer:
    """Context manager: wrap every name in WRAPPED, restore on exit."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._op_stack[-1] if self._op_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span_id, name, parent, start, {"error": True})
                raise
            finally:
                stack.pop()
            self._close(span_id, name, parent, start,
                        counts(args, kwargs, result) if counts else {})
            return result
        return traced

    def _close(self, span_id, name, parent, start, extra):
        span = {"id": span_id, "name": name, "start": start, "end": perf_counter(),
                "parent": parent, "thread": threading.get_ident(), "op": self.op_id}
        span.update(extra)
        self.spans.append(span)

    def op(self, op_id: str, fn):
        """Run fn() as op `op_id` under a root span; return its result."""
        self.op_id = op_id
        self._op_stack = self._stack()
        return self._record("bench.op", fn, None)()

    def __enter__(self):
        for owner, attr, name, counts in WRAPPED:
            original = owner.__dict__[attr]
            if isinstance(original, cached_property):
                wrapped = cached_property(self._record(name, original.func, counts))
                wrapped.__set_name__(owner, attr)
            else:
                wrapped = self._record(name, original, counts)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one traced pass.

    Times and counts are per op (totals over the pass divided by the ops
    in it); fractions are ratios of totals; spans of calls that raised
    carry no counts.  exact_diag.dim and nnz are those of the largest
    Hamiltonian assembled, residual_rel_max the worst certified residual
    over ||H||_inf.
    """
    self_t = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    n_ops = max(len(by_name.get("bench.op", ())), 1)

    def spans_of(name):
        return by_name.get(name, [])

    def per_op_time(name, self_only=False):
        return sum(self_t[s["id"]] if self_only else s["end"] - s["start"]
                   for s in spans_of(name)) / n_ops

    def total(name, key):
        return sum(s.get(key, 0) for s in spans_of(name))

    def ratio(num, den):
        return num / den if den else 0.0

    ests = spans_of("estimator.energy_estimate")
    est_ids = {s["id"] for s in ests}
    busy = sum(s["end"] - s["start"] for s in spans if s["parent"] in est_ids)
    capacity = sum(s.get("workers", 0) * (s["end"] - s["start"]) for s in ests)
    action_rows = total("action.s_eff_decomposed", "rows")
    n_paths = total("estimator.energy_estimate", "n_paths")
    hams = spans_of("exact_diag.build_H_eps")
    grounds = spans_of("exact_diag.ground")
    return {
        "kernels.dphi_s": per_op_time("kernels.eval_dphi"),
        "kernels.dphi_evals": total("kernels.eval_dphi", "evals") / n_ops,
        "kernels.phi_s": per_op_time("kernels.eval_phi"),
        "kernels.phi_evals": total("kernels.eval_phi", "evals") / n_ops,
        "action.self_s": per_op_time("action.s_eff_decomposed", self_only=True),
        "action.calls": len(spans_of("action.s_eff_decomposed")) / n_ops,
        "action.rows": action_rows / n_ops,
        "action.useful_row_frac": ratio(total("estimator.energy_estimate", "alive_beta"),
                                        action_rows),
        "geometry.survival_calls": len(spans_of("geometry.survival_log_weights")) / n_ops,
        "geometry.start_s": per_op_time("geometry.uniform_ordered_points"),
        "geometry.survival_s": per_op_time("geometry.survival_log_weights"),
        "geometry.path_steps": total("geometry.survival_log_weights", "path_steps") / n_ops,
        "geometry.alive_frac_beta": ratio(total("estimator.energy_estimate", "alive_beta"),
                                          n_paths),
        "geometry.alive_frac_ext": ratio(total("estimator.energy_estimate", "alive_ext"),
                                         n_paths),
        "paths.sample_s": per_op_time("paths.sample_brownian"),
        "paths.normals": total("paths.sample_brownian", "normals") / n_ops,
        "paths.ito_s": per_op_time("paths.ito_integral"),
        "estimator.ess_frac": ratio(total("estimator.energy_estimate", "n_effective"),
                                    n_paths),
        "estimator.self_s": per_op_time("estimator.energy_estimate", self_only=True),
        "estimator.blocks": len(spans_of("paths.sample_brownian")) / n_ops,
        "estimator.parallel_eff": ratio(busy, capacity),
        "fock.enum_s": per_op_time("fock.occupations"),
        "fock.candidates": total("fock.occupations", "candidates") / n_ops,
        "fock.states": total("fock.occupations", "states") / n_ops,
        "fock.kept_frac": ratio(total("fock.occupations", "states"),
                                total("fock.occupations", "candidates")),
        "exact_diag.assemble_s": per_op_time("exact_diag.build_H_eps", self_only=True),
        "exact_diag.dim": max((s.get("dim", 0) for s in hams), default=0),
        "exact_diag.nnz": max((s.get("nnz", 0) for s in hams), default=0),
        "exact_diag.eig_s": per_op_time("exact_diag.ground"),
        "exact_diag.eigsh_calls": len(spans_of("scipy.eigsh")) / n_ops,
        "exact_diag.dense_calls": len(spans_of("scipy.eigh")) / n_ops,
        "exact_diag.expm_s": per_op_time("exact_diag.ratio_energy_oracle", self_only=True),
        "exact_diag.residual_rel_max": max((s.get("residual_rel", 0.0) for s in grounds),
                                           default=0.0),
    }
