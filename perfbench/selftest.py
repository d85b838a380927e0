"""Checks of the benchmark itself: checker, reference routes, seeds, tracing.

    python3 perfbench/selftest.py

Run from the repository root; takes about a minute.  Prints one PASS/FAIL
line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import jobs
import run
from spans import Tracer

SMALL = 1.0  # seconds of work per list: small lists keep the self-test quick
WORKLOADS = tuple(jobs.WORKLOADS)
# The layers each workload must exercise (the "heavy on" column of the
# benchmark's design); engine.count_tilings must stay idle on frontier.
HEAVY = {
    "poly.mul": ("frontier", "rational"),
    "engine.tiling_genfun_dp": ("frontier",),
    "engine.count_tilings": ("desk",),
    "engine.enumerate_tilings": ("desk",),
    "engine.matching_genfun": ("rational",),
    "stats.rank_distances": ("desk",),
    "stats.vstat": ("desk",),
    "formulas.rectangle_genfun": ("frontier",),
    "lozenge.semihex_q_genfun": ("desk",),
    "lozenge.cspp_to_tiling": ("desk",),
    "rewrite.reduce_rectangle_to_semihexagon": ("rational",),
    "regions.build": WORKLOADS,
    "cli.main": ("desk", "frontier"),
}
EXACT = (".calls", ".cells", ".tilings", ".term_pairs", ".states", ".hit_ratio")

failures = []


def report(label, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {label}{'  ' + detail if detail and not ok else ''}")
    if not ok:
        failures.append(label)


def check_seeds():
    for workload in WORKLOADS:
        a = jobs.digest(jobs.build(workload, 7, SMALL))
        b = jobs.digest(jobs.build(workload, 7, SMALL))
        c = jobs.digest(jobs.build(workload, 8, SMALL))
        code = (f"import jobs; print(jobs.digest(jobs.build({workload!r}, 7, {SMALL})))")
        other = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               cwd=run.HERE, env=dict(os.environ, PYTHONHASHSEED="12345"),
                               check=True).stdout.strip()
        report(f"seed {workload}: same seed, same digest in two processes", a == b == other)
        report(f"seed {workload}: another seed, another digest", a != c)


def check_routes():
    """No reference calls the route its job kind times."""
    sample = {}
    for workload in WORKLOADS:
        for job in jobs.build(workload, 3, SMALL):
            sample.setdefault(job["kind"], job)
    report("every job kind is drawn", set(sample) == set(jobs.KINDS), str(set(jobs.KINDS) - set(sample)))
    for kind, job in sorted(sample.items()):
        group, route, ref_route, span = jobs.KINDS[kind]
        tracer = Tracer().install()
        try:
            jobs.reference(job)
        finally:
            tracer.uninstall()
        calls = tracer.totals.get(span, (0, 0.0))[0]
        report(f"route {kind}: reference ({ref_route}) differs from timed route ({route})",
               route != ref_route and calls == 0, f"{span} called {calls} times")


def _bindings():
    from aztecgf import cli, lozenge, poly, stats, verify

    return {
        "cli.count_tilings": cli.count_tilings,
        "stats.enumerate_tilings": stats.enumerate_tilings,
        "lozenge.enumerate_tilings": lozenge.enumerate_tilings,
        "verify.enumerate_tilings": verify.enumerate_tilings,
        "verify.tiling_genfun_dp": verify.tiling_genfun_dp,
        "LaurentPoly2.__rmul__": poly.LaurentPoly2.__rmul__,
        "LaurentPoly2.__radd__": poly.LaurentPoly2.__radd__,
    }


def check_bindings():
    from aztecgf import cli, engine, poly, stats

    originals = _bindings()
    tracer = Tracer().install()
    try:
        for name, now in _bindings().items():
            report(f"shim rebinds {name}", now is not originals[name])
        report("shim gives cli.count_tilings and engine.count_tilings one wrapper",
               cli.count_tilings is engine.count_tilings)
        region = stats.aztec_rectangle_with_holes(2, 3, (1, 3))
        before = stats.rank_distances.cache_info()
        stats.rank_distances(region)
        stats.rank_distances(region)
        after = stats.rank_distances.cache_info()
        report("shim keeps rank_distances' lru_cache (second call hits)",
               after.hits - before.hits >= 1 and after.misses - before.misses <= 1)
        q = poly.LaurentPoly2.term(1, q=1)
        ok = 2 * q == poly.LaurentPoly2.term(2, q=1) and len(1 + q) == 2
        report("shim counts __rmul__ and __radd__ as poly.mul and poly.add",
               ok and tracer.totals["poly.mul"][0] >= 1 and tracer.totals["poly.add"][0] >= 1)
    finally:
        tracer.uninstall()
    report("uninstall restores every binding", _bindings() == originals)


def check_runs():
    for workload in WORKLOADS:
        job_list = jobs.build(workload, 5, SMALL)
        expected = [jobs.reference(job) for job in job_list]
        deadline = time.monotonic() + run.BUDGET_S
        plain, _ = run._run_jobs(job_list, False, deadline)
        traced_a, sum_a = run._run_jobs(job_list, True, deadline)
        traced_b, sum_b = run._run_jobs(job_list, True, deadline)
        wrong = run.wrong_jobs(jobs, expected, plain)
        report(f"checker {workload}: every job correct on this code", not wrong, str(wrong))
        broken = [jobs.altered(expected[0])] + expected[1:]
        report(f"checker {workload}: one altered reference gives fail_frac > 0",
               run.wrong_jobs(jobs, broken, plain) == {0})
        report(f"trace {workload}: traced outputs byte-identical to untraced",
               [r["output"] for r in plain] == [r["output"] for r in traced_a]
               == [r["output"] for r in traced_b])
        counts_a = {k: v for k, v in sum_a["layers"].items() if k.endswith(EXACT)}
        counts_b = {k: v for k, v in sum_b["layers"].items() if k.endswith(EXACT)}
        report(f"trace {workload}: two traced runs give identical per-layer counts",
               counts_a == counts_b, json.dumps({k: (counts_a[k], counts_b[k])
                                                 for k in counts_a if counts_a[k] != counts_b[k]}))
        for span, heavy in HEAVY.items():
            if workload in heavy:
                calls = counts_a[span + ".calls"]
                report(f"layer {span} has calls on {workload}", calls > 0)
        if workload == "frontier":
            report("layer engine.count_tilings is idle on frontier",
                   counts_a["engine.count_tilings.calls"] == 0)


def main():
    check_seeds()
    check_routes()
    check_bindings()
    check_runs()
    print(f"selftest: {len(failures)} failed" if failures else "selftest: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
