"""Acceptance suite: one test per criterion, exact equality everywhere.

Each test prints a single PASS/FAIL line (run pytest with -s or look at the
captured output).  Criteria 2 and 8 also carry wall-clock budgets.
"""

import os
import subprocess
import sys
import time

from aztecgf import verify

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
GOLDEN_VERIFY = os.path.join(os.path.dirname(__file__), "data", "verify_all.txt")


def _report(number, description, ok):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def _all_ok(cases):
    failures = [(label, failed) for label, failed in cases if failed]
    return not failures, failures


def test_criterion_1_main_formula():
    ok, failures = _all_ok(verify.main_formula_cases())
    _report(1, "brute-force F(q,t) equals the closed product on every "
               "1<=m<=n<=5 instance" + (f"; failures: {failures[:3]}" if failures else ""), ok)


def test_criterion_2_diamond_product():
    start = time.perf_counter()
    ok_genfun, fail_g = _all_ok(verify.diamond_genfun_cases())
    ok_count, fail_c = _all_ok(verify.diamond_count_cases())
    elapsed = time.perf_counter() - start
    ok = ok_genfun and ok_count and elapsed < 10.0
    _report(2, f"weighted-DP diamond genfun (n<=6) and counts 2^(n(n+1)/2) "
               f"(n<=12) in {elapsed:.2f}s", ok)


def test_criterion_3_rank_equivalence():
    ok, failures = _all_ok(verify.suite_rank())
    _report(3, "rank via BFS equals rank via paths, with all path-statistic "
               "identities, on every tiling with m<=3, n<=5", ok)


def test_criterion_4_weighted_formula():
    ok, failures = _all_ok(verify.suite_weighted())
    _report(4, "weighted closed form equals the matching generating function, "
               "m<=3, n<=5, three seeded rational draws each", ok)


def test_criterion_5_lozenge_side():
    ok, failures = _all_ok(verify.suite_lozenge())
    _report(5, "semihexagon counts, plane-partition bijection round trips and "
               "weights, and the q-product, m<=4, n<=8", ok)


def test_criterion_6_relation():
    ok, failures = _all_ok(verify.suite_relation())
    _report(6, "domino count = 2^(m(m+1)/2) x lozenge count, m<=4, n<=7", ok)


def test_criterion_7_rewrite_identities():
    ok, failures = _all_ok(verify.suite_rewrite())
    _report(7, "vertex-split/star/renewal identities on 50 seeded graphs each, "
               "row reduction, and the peeling pipeline factor", ok)


def test_criterion_8_kernel_equivalence_and_performance():
    ok_kernel, failures = _all_ok(verify.kernel_cases())
    from aztecgf.engine import tiling_genfun_dp
    from aztecgf.regions import aztec_diamond

    start = time.perf_counter()
    count = tiling_genfun_dp(aztec_diamond(12))
    elapsed = time.perf_counter() - start
    bench = _run_cli("bench", "--order", "4")
    ok = (
        ok_kernel
        and count == 2**78
        and elapsed < 10.0
        and b"dp ms" in bench.stdout
    )
    _report(8, f"DP equals the matching oracle on the corpus; order-12 count "
               f"2^78 in {elapsed:.2f}s; bench table emitted", ok)


def _start_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "aztecgf.cli", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )


def _run_cli(*args):
    proc = _start_cli(*args)
    stdout, stderr = proc.communicate()
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def test_criterion_9_determinism():
    # the two runs are independent processes, so they run side by side
    procs = [_start_cli("verify", "--suite", "all") for _ in range(2)]
    (first, _), (second, _) = (proc.communicate() for proc in procs)
    with open(GOLDEN_VERIFY, "rb") as f:
        golden = f.read()
    ok = (
        all(proc.returncode == 0 for proc in procs)
        and first == second == golden
        and b"FAIL" not in first
    )
    _report(9, "verify --suite all exits 0, repeated runs are byte-identical "
               "and equal tests/data/verify_all.txt", ok)
