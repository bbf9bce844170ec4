"""polaron1d benchmark: time to accuracy of MC estimates and certified ED solves.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  One process drives the load as a
closed loop: one user who waits for each result before asking for the
next.  The run repeats whole cycles of the workload's ops (see
workloads.py) until --seconds have passed, at least one cycle, and checks
every op's result.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
runs the same cycles twice, untraced and then traced, checks that the
traced values are bit-identical, reports the per-layer metrics and the
tracing overhead, and writes the spans to .perfbench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is a JSON
report with the environment, per-op results and the numerics digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("mc-ordering-eps0", "mc-uv-ladder", "mc-free-n1", "ed-crosscheck")
# setup_s is the median over this many fresh processes.
SETUP_PROBES = 5
# op_s_tail is the highest percentile with at least this many samples
# beyond it; with too few samples for one at or above the median, it is
# the maximum.
TAIL_BEYOND = 10


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > nproc:
            os.environ[var] = str(nproc)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the op_s_tail rule."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 2 * TAIL_BEYOND:
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return ordered[-1], 100.0


def run_op(op, tracer=None) -> dict:
    t0 = perf_counter()
    try:
        res = tracer.op(op.name, op.call) if tracer else op.call()
    except Exception as exc:  # a failed op is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        return {"op": op.name, "kind": op.kind, "seconds": perf_counter() - t0,
                "ok": False, "reason": f"{type(exc).__name__}: {exc}"}
    seconds = perf_counter() - t0
    reason = op.check(res)
    return {"op": op.name, "kind": op.kind, "seconds": seconds, "ok": reason is None,
            "reason": reason, **res}


def run_pass(cycle, seconds=None, n_cycles=None, tracer=None) -> tuple[list, int]:
    """Whole cycles until `seconds` have passed (at least one), or `n_cycles`."""
    records, done = [], 0
    t0 = perf_counter()
    while done < n_cycles if n_cycles is not None else (
            done == 0 or perf_counter() - t0 < seconds):
        records += [run_op(op, tracer) for op in cycle]
        done += 1
    return records, done


def measure_setup(args) -> float:
    """Median wall time from spawn to 'ready' over fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}): {line!r}")
        times.append(elapsed)
    return statistics.median(times)


def end_to_end(records: list[dict], setup_s: float, target_stderr: float) -> dict:
    seconds = [r["seconds"] for r in records]
    ok = [r for r in records if r["ok"]]
    # seconds to reach target_stderr at the op's measured efficiency (MC),
    # seconds to a certified solve (ED).  A mean, not a median: with pinned
    # seeds the stderrs of the ops differ by up to 2.4x, and a median jumps
    # between ops whenever timing noise reorders them.
    to_accuracy = [r["seconds"] * (r["stderr"] / target_stderr) ** 2 if r["kind"] == "mc"
                   else r["seconds"] for r in ok]
    return {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(seconds),
        "op_s_tail": tail(seconds)[0],
        "time_to_accuracy_s": statistics.fmean(to_accuracy) if ok else None,
        "work_per_s": sum(r["work"] for r in ok) / sum(seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, blas_threads: int, n_workers: int) -> dict:
    import numpy
    import scipy

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "polaron1d").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "n_workers": n_workers,
            "blas_threads": blas_threads, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": git_commit(), "src_sha256": src_hash.hexdigest(),
            "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace}


def _bits(record: dict) -> list[str] | None:
    """The op's digest floats, exactly; None for an op that raised."""
    return [x.hex() for x in record["digest"]] if "digest" in record else None


def op_summary(records: list[dict]) -> list[dict]:
    keys = ("op", "seconds", "ok", "reason", "value", "stderr", "digest", "detail")
    return [{k: r[k] for k in keys if k in r} for r in records]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polaron1d" / "__init__.py").is_file():
        print(f"no polaron1d sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))

    import polaron1d
    import spans
    import workloads as W

    if Path(polaron1d.__file__).resolve().parent != SRC / "polaron1d":
        print(f"polaron1d imported from {polaron1d.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = W.load_references()
    cycle = W.build_cycle(args.workload, args.seed, refs)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    report = {"env": environment(args, blas_threads, W.N_WORKERS)}
    measured, n_cycles = run_pass(cycle, seconds=args.seconds)
    if args.trace == 0:
        records = measured
        metrics = end_to_end(measured, measure_setup(args), W.TARGET_STDERR)
        wanted = spec["end_to_end"]
        correct = True
    else:
        with spans.Tracer() as tracer:
            traced, _ = run_pass(cycle, n_cycles=n_cycles, tracer=tracer)
        records = measured + traced
        correct = all(_bits(a) is not None and _bits(a) == _bits(b)
                      for a, b in zip(measured, traced))
        untraced_p50 = statistics.median(r["seconds"] for r in measured)
        traced_p50 = statistics.median(r["seconds"] for r in traced)
        metrics = spans.layer_metrics(tracer.spans)
        metrics["bench.trace_overhead"] = traced_p50 / untraced_p50
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.spans))
        report.update(bit_identical=correct, untraced_op_s_p50=untraced_p50,
                      traced_op_s_p50=traced_p50,
                      spans_file=str(spans_file.relative_to(ROOT)))
        wanted = spec["per_layer"]

    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {names}")
    failed = sum(not r["ok"] for r in records)
    seconds = [r["seconds"] for r in measured]
    mc_ok = [r for r in measured if r["ok"] and r["kind"] == "mc"]
    report.update(
        cycles=n_cycles, op_samples=len(seconds), tail_percentile=tail(seconds)[1],
        failed_frac=failed / len(records),
        cost_s_stderr2=(statistics.median(r["seconds"] * r["stderr"] ** 2 for r in mc_ok)
                        if mc_ok else None),
        digest_moved=sorted({r["op"] for r in records
                             if r.get("digest") != refs["digest"].get(r["op"])}),
        ops=op_summary(measured))
    for m in wanted:
        print(f"{m['name']:28s} {metrics[m['name']]!r} {m['unit']}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": bool(correct and failed == 0),
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
