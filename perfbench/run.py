"""Benchmark entry point: one workload, one seed, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 15 --trace 0

Run from the repository root.  The job list is drawn from the seed and the
references are computed (untimed).  Then ``PASSES`` fresh worker processes
each run the whole list as one closed-loop client.  ``--trace 0`` also times
set-up in fresh processes and reports the end-to-end metrics; ``--trace 1``
adds one pass under the span shim and reports the per-layer metrics.  Metric
names and units come from BENCHMARK.json.  Human-readable lines come first;
the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASSES = 3              # fresh-process passes over the same job list
SETUPS_PER_PASS = 2     # set-up timings taken after each pass
# Times are reported in probe-scaled seconds: each timed step is divided by
# the mean time of the probe loop sampled around it (worker.Speedometer) and
# multiplied by this nominal probe time, so phases in which other tenants
# slow the machine down cancel out.  Program changes cannot move the probe.
PROBE_S = 50e-6
BUDGET_S = 170          # every worker must finish within this from the start


class BenchError(Exception):
    pass


def _child(args, stdin, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              input=stdin, capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} ran past the time budget") from None
    if proc.returncode:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _run_jobs(jobs, traced, deadline):
    lines = _child(["trace" if traced else "plain"], json.dumps(jobs), deadline)
    return lines[:-1], lines[-1]


def _scaled(step, key="seconds"):
    return step[key] / step["probe"] * PROBE_S


def wrong_jobs(jobs_mod, expected, results):
    """Indices of the jobs that raised or printed other than their reference."""
    return {i for i, (want, got) in enumerate(zip(expected, results))
            if got["error"] is not None or not jobs_mod.check(want, got["output"])}


def _group_sums(jobs_mod, jobs, seconds):
    sums = dict.fromkeys(jobs_mod.GROUPS, 0.0)
    for job, sec in zip(jobs, seconds):
        sums[jobs_mod.KINDS[job["kind"]][0]] += sec
    return {f"{group}_s": sums[group] for group in jobs_mod.GROUPS}


def measure(workload, seed, seconds, trace):
    """Run one workload; return (info, metric values, attempted, failed)."""
    import jobs as jobs_mod

    deadline = time.monotonic() + BUDGET_S
    jobs = jobs_mod.build(workload, seed, seconds / PASSES)
    expected = [jobs_mod.reference(job) for job in jobs]
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "jobs": len(jobs), "passes": PASSES, "job_digest": jobs_mod.digest(jobs),
        "machine": " ".join(os.uname()[i] for i in (0, 2, 4)),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
    }
    passes, setups = [], []
    for _ in range(PASSES):
        passes.append(_run_jobs(jobs, False, deadline))
        if not trace:
            setups += [_child(["setup"], "", deadline)[0] for _ in range(SETUPS_PER_PASS)]
    if trace:
        passes.append(_run_jobs(jobs, True, deadline))
    # Pass 0 is checked against the references; every later pass, the traced
    # one included, must print byte-identical output.
    first = passes[0][0]
    wrong = wrong_jobs(jobs_mod, expected, first)
    failed = sum(i in wrong or res["output"] != first[i]["output"]
                 for results, _ in passes for i, res in enumerate(results))
    attempted = len(jobs) * len(passes)
    # The checker must reject a deliberately altered reference.
    checker_ok = not jobs_mod.check(jobs_mod.altered(expected[0]), first[0]["output"] or "")
    plain = passes[:PASSES]
    # Each job counts with its median pass.
    per_job = [statistics.median(_scaled(results[i]) for results, _ in plain)
               for i in range(len(jobs))]
    if trace:
        traced, traced_summary = passes[-1]
        metrics = dict(traced_summary["layers"])
        metrics.update(_group_sums(jobs_mod, jobs, per_job))
        metrics["trace.overhead_ratio"] = sum(map(_scaled, traced)) / sum(per_job)
    else:
        metrics = {
            "setup_s": statistics.median(_scaled(s, "setup_s") for s in setups),
            "wall_s": sum(per_job),
            "job_p50_ms": 1000 * statistics.median(per_job),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for _, s in plain),
        }
    info["fail_frac"] = failed / attempted
    info["checker_self_test"] = "ok" if checker_ok else "FAILED"
    errors = [res["error"] for results, _ in passes for res in results if res["error"]]
    if errors:
        info["first_error"] = errors[0]
    return info, metrics, attempted, failed + (not checker_ok)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk", "frontier", "rational"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "aztecgf" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a checkout holding src/aztecgf and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        info, values, attempted, failed = measure(
            args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps(info))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'fail_frac':48s} {info['fail_frac']:>16.6g} share of jobs attempted")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
