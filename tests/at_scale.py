"""Route checks at sizes tier-1 does not reach: ``python tests/at_scale.py`` prints ``tests/data/at_scale.txt``.

Each row of ``ROWS`` runs two sides, CLI arguments or ``-c <python source>``, each in a fresh ``python`` process so
that no cache carries over, and compares their stdout line by line, its last check taking the rest; a byte pin,
``sha256 <digest>``, takes the place of the other side.  A side that does not exit 0 within a minute fails its row.
A row prints ``PASS  <label>`` or ``FAIL  <label>  (<names>)``, as ``aztecgf verify`` does, its label starting with
its check names, each in ``aztecgf.verify.CHECKS`` or in ``PINS``.  Wall times, and each side's peak RSS, go to
stderr; any FAIL exits 1."""

import hashlib
import os
import subprocess
import sys
import tempfile
import threading
import time
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
# byte pin -> why: a byte comparison of two routes runs PackedPoly.decode and the formatter on both sides
PINS = {"closed F text sha256": "to_text on both sides of a comparison cannot see its own formatting fault",
        "closed F json sha256": "to_json_obj on both sides of a comparison cannot see its own formatting fault"}


AR15 = ((4, "7,11,13,15"), (5, "10,12,13,14,15"))  # 2^18 and 163,840 tilings: brute force's limit is 2^18
EVENS = {n: ",".join(map(str, range(2, n + 1, 2))) for n in (12, 16, 20, 24, 32)}  # n -> "2,4,...,n"
RATIO = "-c from aztecgf.poly import falling_ratio; print(*{} * [falling_ratio(({},))], sep='\\n')"  # times, s
WEIGHTED = ("-c from fractions import Fraction as F; from aztecgf import engine, formulas, regions, rewrite; "
            "print({}.to_text())")
FACES = "F(2, 3), F(5, 4), F(3, 7), F(1, 2)"  # a, b, c, d
ABCD = f"4, 15, (7, 11, 13, 15), {FACES}"  # m, n, s, a, b, c, d
ROUND_TRIP = f"""-c from aztecgf.lozenge import cspp_shape, cspp_to_tiling, enumerate_cspp, tiling_to_cspp
from aztecgf.regions import semihexagon_with_dents
s = ({EVENS[12]},)
region, partitions = semihexagon_with_dents(6, 6, s), list(enumerate_cspp(cspp_shape(6, s), 6))
print(sum(tiling_to_cspp(cspp_to_tiling(pi, region)) == pi for pi in partitions), len(partitions), sep="\\n")"""
WIDE = (2, 3, 4, 10, 11, 12)  # shape (6, 6, 6, 1, 1, 1): 14,112 partitions, three rows wider than the rest
# (check names, what the row runs, a side, the other side or a byte pin)
ROWS = (
    (("DP count vs diamond count",), "order-16 diamond, count --method dp vs 2^136",
     "count --region aztec --order 16 --method dp", "-c print(2**136)"),
    *((("search count vs count_product",), f"AR({m}, 15; {s}), count vs count_product",
       f"count --region rect --m {m} --n 15 --holes {s}",
       f"-c from aztecgf.formulas import count_product; print(count_product({m}, ({s},)))") for m, s in AR15),
    (("search count vs q-ratio product",), "SH(6, 6; 1,2,5,8,11,12), count vs falling_ratio",
     "count --region semihex --a 6 --b 6 --dents 1,2,5,8,11,12", RATIO.format(1, "1,2,5,8,11,12")),
    *((("brute F vs closed F",), f"AR({m}, 15; {s}), genfun brute vs closed",
       *(f"genfun --m {m} --n 15 --holes {s} --method {method}" for method in ("brute", "closed"))) for m, s in AR15),
    (("weighted closed form vs oracle",), "AR(4, 15; 7,11,13,15) at (a, b, c, d) = (2/3, 5/4, 3/7, 1/2)",
     WEIGHTED.format(f"engine.matching_genfun(regions.weighted_ar_graph({ABCD}))"),
     WEIGHTED.format(f"formulas.weighted_rectangle_matching_genfun({ABCD})")),
    (("pipeline factor vs target",), "AR(12, 24; 2,4,...,24) at (a, b, c, d) = (2/3, 5/4, 3/7, 1/2)",
     WEIGHTED.format(f"rewrite.reduce_rectangle_to_semihexagon(12, 24, ({EVENS[24]},), {FACES}).factor"),
     WEIGHTED.format(f"formulas.peel_target_factor(12, {FACES})")),
    *((("weighted-DP F vs closed F",), f"AR({m}, {2 * m}; 2,4,...,{2 * m}), genfun dp vs closed",
       *(f"genfun --m {m} --n {2 * m} --holes {EVENS[2 * m]} --method {method}" for method in ("dp", "closed")))
      for m in (8, 10)),
    *((("weighted-DP F vs diamond product",), f"order-{n} diamond, genfun dp vs aztec_diamond_genfun",
       f"genfun --m {n} --n {n} --holes {','.join(map(str, range(1, n + 1)))} --method dp",
       f"-c from aztecgf.formulas import aztec_diamond_genfun; print(aztec_diamond_genfun({n}).to_text())")
      for n in (7, 8)),
    (("closed F text sha256",), "AR(12, 24; 2,4,...,24), genfun closed",
     f"genfun --m 12 --n 24 --holes {EVENS[24]} --method closed",
     "sha256 9b41277a21869864c0c0fd6e3581ebcae16d6094d438bf79f4ef18afda107939"),
    (("closed F json sha256",), "AR(12, 24; 2,4,...,24), genfun closed --json",
     f"genfun --m 12 --n 24 --holes {EVENS[24]} --method closed --json",
     "sha256 c23876b3247844e212069205b0cd51efb76b0632cbef2e919744a6f88cd838f9"),
    (("closed F text sha256",), "AR(16, 32; 2,4,...,32), genfun closed, 33-byte slots in five 8-byte lanes",
     f"genfun --m 16 --n 32 --holes {EVENS[32]} --method closed",
     "sha256 b78c65e81ed69f9f3eec898913d6e2fd24b1338d193881972caf18e0e8dcef39"),
    (("semihexagon DP vs cspp product",), "SH(16, 16; 2,4,...,32), semihex_q_genfun vs cspp_genfun_product",
     "-c from aztecgf.lozenge import semihex_q_genfun; from aztecgf.regions import semihexagon_with_dents; "
     f"print(semihex_q_genfun(semihexagon_with_dents(16, 16, ({EVENS[32]},))).to_text())",
     f"-c from aztecgf.formulas import cspp_genfun_product; print(cspp_genfun_product(({EVENS[32]},), 16).to_text())"),
    (("cspp bijection round trip", "cspp enumeration vs cspp product"),
     "SH(6, 6; 2,4,...,12), its 2^15 partitions back from their tilings, and their number vs falling_ratio",
     ROUND_TRIP, RATIO.format(2, EVENS[12])),
    (("cspp enumeration vs cspp product",),
     "SH(6, 6; 2,3,4,10,11,12), every partition's q-weight summed vs cspp_genfun_product",
     "-c from aztecgf.lozenge import cspp_shape, enumerate_cspp; from aztecgf.poly import LaurentPoly2; "
     f"print(sum((pi.q_weight() for pi in enumerate_cspp(cspp_shape(6, {WIDE}), 6)), LaurentPoly2.zero()).to_text())",
     f"-c from aztecgf.formulas import cspp_genfun_product; print(cspp_genfun_product({WIDE}, 6).to_text())"),
)
LABELS = tuple(f"{', '.join(names)}: {what}" for names, what, _, _ in ROWS)


def run(side, peaks):
    """The stdout of ``side`` in a fresh process, or None unless it exits 0 within a minute; its peak RSS in MB goes
    to ``peaks``.  ``os.wait4`` reads the peak of this one child, where ``RUSAGE_CHILDREN`` keeps the largest yet."""
    argv = ["-c", side[3:]] if side.startswith("-c ") else ["-m", "aztecgf.cli", *side.split()]
    with tempfile.TemporaryFile() as out:  # a file, not a pipe, so that a large stdout never blocks the child
        child = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=ENV, stdout=out, stderr=subprocess.DEVNULL)
        timer = threading.Timer(60, child.kill)
        timer.start()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)  # so that a late timer kills no other process
        timer.cancel()
        peaks.append(usage.ru_maxrss / 1024)
        out.seek(0)
        return out.read() if child.returncode == 0 else None


def failed(names, side, other, peaks):
    """The names of the row's checks that do not hold."""
    got = run(side, peaks)
    want = other.removeprefix("sha256 ").encode() if other.startswith("sha256 ") else run(other, peaks)
    if other.startswith("sha256 ") and got is not None:
        got = hashlib.sha256(got).hexdigest().encode()
    if got is None or want is None:
        return names
    lines = zip_longest(names, got.split(b"\n", len(names) - 1), want.split(b"\n", len(names) - 1))
    return tuple(name for name, a, b in lines if a != b)


def main():
    status = 0
    for (names, _, side, other), label in zip(ROWS, LABELS):
        start, peaks = time.perf_counter(), []
        fails = failed(names, side, other, peaks)
        print(f"FAIL  {label}  ({', '.join(fails)})" if fails else f"PASS  {label}", flush=True)
        rss = ", ".join(f"{peak:.0f}" for peak in peaks)
        print(f"{time.perf_counter() - start:6.2f} s  {rss:>9} MB  {label}", file=sys.stderr, flush=True)
        status |= bool(fails)
    return status


if __name__ == "__main__":
    sys.exit(main())
