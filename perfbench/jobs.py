"""Workloads, the jobs they are made of, reference routes and the checker.

A job is one request a user makes: a ``count`` or ``genfun`` command line run
through ``aztecgf.cli.main`` in-process, or one call of a public library
function where no command exists.  Its output is the text the user would
see.  Every job kind is checked against a reference computed by a different
route from the one it times (see ``KINDS``).

Job lists are drawn from a seed without replacement.  Each (m, n) class of
parameters is ranked by the job's size (its tiling count, the degree of its
q-ratio product, or the node count of its matching search) and cut into as
many strata as there are draws, and one member of each stratum is drawn at
random.  Every seed thus gets the same spread of job sizes with different
inputs, which keeps run-to-run spread low.
Kinds that build the same region draw from disjoint parts of its pool, so the
program's ``lru_cache``s only see reuse inside a job.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from aztecgf import cli, engine, formulas, lozenge, regions, rewrite, stats  # noqa: E402
from aztecgf.poly import falling_ratio  # noqa: E402

# kind: (command group, timed route, reference route, span of the timed route)
# The reference of a kind never calls its timed route's span; selftest.py
# checks that under the tracer.
KINDS = {
    "count_rect": ("count", "backtracker", "count_product", "engine.count_tilings"),
    "count_semihex": ("count", "backtracker", "falling_ratio", "engine.count_tilings"),
    "genfun_brute": ("genfun", "brute force", "closed product", "stats.genfun_bruteforce"),
    "lozenge": ("lozenge", "lozenge enumeration", "cspp product",
                "lozenge.semihex_q_genfun"),
    "count_aztec": ("count", "count DP", "power of two", "engine.tiling_genfun_dp"),
    "genfun_dp": ("genfun", "weighted DP", "closed product", "stats.genfun_via_weights"),
    "genfun_closed": ("genfun", "closed product", "weighted DP at two points",
                      "formulas.rectangle_genfun"),
    "matching": ("matching", "matching oracle", "weighted closed product",
                 "engine.matching_genfun"),
    "reduce": ("matching", "rewrite pipeline", "peeling factor product",
               "rewrite.reduce_rectangle_to_semihexagon"),
}
GROUPS = ("count", "genfun", "matching", "lozenge")


# ---------------------------------------------------------------------------
# drawing job lists


def _stratified(pool, key, k, rng, tries=16):
    """k members of ``pool``, one from each of k strata of it ranked by size.

    Of ``tries`` such draws the one whose total size is nearest the expected
    total is kept, so that every seed gets nearly the same amount of work.
    """
    size = {s: key(s) for s in pool}
    ranked = sorted(pool, key=lambda s: (-size[s], s))
    if not ranked:
        return []
    k = max(1, min(k, len(ranked)))
    cuts = [round(i * len(ranked) / k) for i in range(k + 1)]
    strata = [ranked[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    target = sum(sum(size[s] for s in st) / len(st) for st in strata)
    draws = [[rng.choice(st) for st in strata] for _ in range(tries)]
    return min(draws, key=lambda d: abs(sum(size[s] for s in d) - target))


def _share(pool, frac, scale):
    return max(1, round(len(pool) * frac * scale))


def _q_degree(s):
    return sum(b - a for a, b in combinations(s, 2))


PRIMES = (11, 13, 17, 19, 23, 29, 31, 37)


def _rational(rng):
    """a, b, c, d: each a ratio of two distinct primes, so never an integer
    and always of the same size, which keeps the work per draw even."""
    return [str(Fraction(*rng.sample(PRIMES, 2))) for _ in range(4)]


def _desk(rng, scale):
    """Holey rectangles and dented semihexagons from the verify corpora."""
    out = []
    for m in range(1, 5):
        for n in range(m, 9):
            pool = list(combinations(range(1, n + 1), m))
            if n <= 7:
                rect = _stratified(pool, lambda s: formulas.count_product(m, s),
                                   _share(pool, 0.25, scale), rng)
                out += [("count_rect", m, n, s) for s in rect]
                if n <= 6:
                    rest = [s for s in pool if s not in rect]
                    brute = _stratified(rest, lambda s: formulas.count_product(m, s),
                                        _share(pool, 0.25, scale), rng)
                    out += [("genfun_brute", m, n, s) for s in brute]
                semi = _stratified(pool, falling_ratio, _share(pool, 0.25, scale), rng)
                out += [("count_semihex", m, n, s) for s in semi]
                pool = [s for s in pool if s not in semi]
            loz = _stratified(pool, falling_ratio, _share(pool, 0.25, scale), rng)
            out += [("lozenge", m, n, s) for s in loz]
    return [{"kind": k, "m": m, "n": n, "s": list(s)} for k, m, n, s in out]


def _frontier(rng, scale):
    """The largest sizes the DP and the closed products handle today."""
    orders = list(range(10, 15))
    rng.shuffle(orders)
    out = [{"kind": "count_aztec", "order": k} for k in orders]
    for m, n, k in ((4, 6, 4), (4, 7, 4), (4, 8, 4), (4, 9, 4), (5, 7, 3), (5, 8, 3), (5, 9, 3)):
        pool = list(combinations(range(1, n + 1), m))
        for s in _stratified(pool, lambda s: formulas.count_product(m, s),
                             round(k * scale), rng):
            out.append({"kind": "genfun_dp", "m": m, "n": n, "s": list(s)})
    for m, k in ((5, 6), (6, 5), (7, 5)):
        pool = list(combinations(range(1, 2 * m + 1), m))
        for s in _stratified(pool, _q_degree, round(k * scale), rng):
            out.append({"kind": "genfun_closed", "m": m, "n": 2 * m, "s": list(s)})
    return out


def _search_nodes(m, n, s):
    """Nodes of a lowest-vertex-first perfect-matching search of the holey
    rectangle graph: the size of a matching_genfun job."""
    graph = regions.weighted_ar_graph(m, n, s, 1, 1, 1, 1)
    adj = [[j for j, _ in row] for row in graph.adjacency_indexed()]
    covered = bytearray(len(adj))

    def nodes(start):
        while start < len(adj) and covered[start]:
            start += 1
        if start == len(adj):
            return 1
        total = 1
        covered[start] = 1
        for j in adj[start]:
            if not covered[j]:
                covered[j] = 1
                total += nodes(start + 1)
                covered[j] = 0
        covered[start] = 0
        return total

    return nodes(0)


def _rational_jobs(rng, scale):
    """Four-parameter weighted matchings with seeded rational a, b, c, d."""
    out = []
    for m in range(1, 5):
        for n in range(m, 7):
            pool = list(combinations(range(1, n + 1), m))
            match = _stratified(pool, lambda s: _search_nodes(m, n, s),
                                _share(pool, 0.35 if m == 4 else 0.25, scale), rng)
            out += [("matching", m, n, s) for s in match]
            if m <= 3:
                rest = [s for s in pool if s not in match]
                if rest:
                    red = _stratified(rest, lambda s: formulas.count_product(m, s),
                                      _share(pool, 0.25, scale), rng)
                    out += [("reduce", m, n, s) for s in red]
    return [{"kind": k, "m": m, "n": n, "s": list(s), "abcd": _rational(rng)}
            for k, m, n, s in out]


WORKLOADS = {"desk": _desk, "frontier": _frontier, "rational": _rational_jobs}
NOMINAL_SECONDS = 5  # one pass over a list drawn at scale 1 takes about this long


def build(workload, seed, seconds):
    """A job list that takes about ``seconds``: same arguments, same list."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = WORKLOADS[workload](rng, seconds / NOMINAL_SECONDS)
    rng.shuffle(jobs)
    return jobs


def digest(jobs):
    return hashlib.sha256(json.dumps(jobs, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# running one job


def _holes(s):
    return ",".join(map(str, s))


def _argv(job):
    kind = job["kind"]
    if kind == "count_aztec":
        return ["count", "--region", "aztec", "--order", str(job["order"]), "--method", "dp"]
    m, n, s = str(job["m"]), str(job["n"]), _holes(job["s"])
    if kind == "count_rect":
        return ["count", "--region", "rect", "--m", m, "--n", n, "--holes", s]
    if kind == "count_semihex":
        return ["count", "--region", "semihex", "--a", m, "--b", str(job["n"] - job["m"]),
                "--dents", s]
    method = {"genfun_brute": "brute", "genfun_dp": "dp", "genfun_closed": "closed"}[kind]
    return ["genfun", "--m", m, "--n", n, "--holes", s, "--method", method]


class JobFailed(Exception):
    pass


def run(job):
    """Do one job and return the text it produced; raises on any failure."""
    kind = job["kind"]
    if kind == "lozenge":
        m, n, s = job["m"], job["n"], tuple(job["s"])
        region = regions.semihexagon_with_dents(m, n - m, s)
        genfun = lozenge.semihex_q_genfun(region)
        round_trips = 0
        for pi in lozenge.enumerate_cspp(lozenge.cspp_shape(m, s), m):
            if lozenge.tiling_to_cspp(lozenge.cspp_to_tiling(pi, region)) == pi:
                round_trips += 1
        return f"{genfun.to_text()}\nround trips {round_trips}\n"
    if kind in ("matching", "reduce"):
        m, n, s = job["m"], job["n"], tuple(job["s"])
        a, b, c, d = map(Fraction, job["abcd"])
        if kind == "matching":
            return engine.matching_genfun(regions.weighted_ar_graph(m, n, s, a, b, c, d)).to_text() + "\n"
        res = rewrite.reduce_rectangle_to_semihexagon(m, n, s, a, b, c, d)
        return f"{res.factor.to_text()}\nspiders {res.spider_count}\n"
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(_argv(job))
    except SystemExit as exc:  # argparse rejects a command line this way
        raise JobFailed(f"exit {exc.code}") from None
    if code:
        raise JobFailed(f"exit {code}")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# references (computed before any timing) and the checker


def reference(job):
    """What the job must print, by a route independent of the one it times.

    Returns ``{"lines": [...]}``: one entry per printed line, either the
    exact text or, for a polynomial, its terms {(e_q, e_t): Fraction}, which
    the printed line must parse to (so the check does not lean on the
    program's own ``to_text``).  genfun_closed returns ``{"points": ...}``
    instead: the weighted DP evaluated exactly at two random 40-bit points,
    where the printed polynomial must take the same values.  A wrong
    polynomial passes that with probability below 1e-16 (its degree is a few
    thousand), and a full DP reference at m = 7 would cost ~10 s a job.
    """
    kind = job["kind"]
    if kind == "count_aztec":
        k = job["order"]
        return {"lines": [str(2 ** (k * (k + 1) // 2))]}
    m, n, s = job["m"], job["n"], tuple(job["s"])
    if kind == "count_rect":
        return {"lines": [str(formulas.count_product(m, s))]}
    if kind == "count_semihex":
        return {"lines": [str(int(falling_ratio(s)))]}
    if kind in ("genfun_brute", "genfun_dp"):
        return {"lines": [_terms(formulas.rectangle_genfun(m, n, s))]}
    if kind == "genfun_closed":
        return _dp_points(m, n, s)
    if kind == "lozenge":
        return {"lines": [_terms(formulas.cspp_genfun_product(s, m)),
                          f"round trips {int(falling_ratio(s))}"]}
    a, b, c, d = map(Fraction, job["abcd"])
    if kind == "matching":
        return {"lines": [_terms(formulas.weighted_rectangle_matching_genfun(m, n, s, a, b, c, d))]}
    spiders = sum((m - r + 1) * (n - r + 1) for r in range(1, m + 1))
    return {"lines": [_terms(rewrite.peel_target_factor(m, a, b, c, d)), f"spiders {spiders}"]}


def _terms(poly):
    return dict(poly.sorted_terms())


def _dp_points(m, n, s):
    """M(q0, t0) of the weighted tiling sum, by DP, at two seeded points.

    genfun_via_weights prints F(q, t) = q^-c t^T M(q, 1/t) with
    c = shifted_content_exponent and T = m(m+1)/2, so M(q0, t0) is the sum
    over F's terms of coeff * q0^(e_q + c) * t0^(T - e_t).
    """
    rng = random.Random(f"points/{m}/{n}/{s}")
    region = regions.aztec_rectangle_with_holes(m, n, s)
    points = []
    for _ in range(2):
        q0, t0 = rng.getrandbits(40) + 2, rng.getrandbits(40) + 2
        value = engine.tiling_genfun_dp(
            region, lambda dom: stats.domino_weight(dom).evaluate(q0, t0))
        points.append((q0, t0, value.coefficient(0, 0)))
    return {"points": points, "t_shift": m * (m + 1) // 2,
            "q_shift": formulas.shifted_content_exponent(m, s)}


def parse_text(text):
    """Terms {(e_q, e_t): Fraction} of a printed polynomial such as
    ``1 + 2*t*q - 3/4*t^2*q^5``; raises ValueError on anything else."""
    terms = {}
    if text == "0":
        return terms
    for token in text.replace(" - ", " + -").split(" + "):
        sign = -1 if token.startswith("-") else 1
        coeff, eq, et = Fraction(1), 0, 0
        for part in token.removeprefix("-").split("*"):
            if part[:1] in ("q", "t"):
                power = int(part[2:]) if part[1:2] == "^" else 1
                if part[1:] not in ("", f"^{power}"):
                    raise ValueError(f"bad factor {part!r}")
                if part[0] == "q":
                    eq = power
                else:
                    et = power
            else:
                coeff = Fraction(part)
        if not coeff or (eq, et) in terms:
            raise ValueError(f"bad term {token!r}")
        terms[(eq, et)] = sign * coeff
    return terms


def check(expect, output):
    """True when ``output`` matches the reference exactly."""
    lines = output.split("\n")
    if lines.pop() != "":
        return False  # the output must end with a newline
    try:
        if "points" in expect:
            return len(lines) == 1 and _at_points(expect, parse_text(lines[0]))
        return len(lines) == len(expect["lines"]) and all(
            line == want if isinstance(want, str) else parse_text(line) == want
            for line, want in zip(lines, expect["lines"]))
    except (ValueError, ZeroDivisionError):
        return False


def _at_points(expect, terms):
    qs, ts = expect["q_shift"], expect["t_shift"]
    if any(eq + qs < 0 or ts - et < 0 for eq, et in terms):
        return False
    return all(
        sum(c * q0 ** (eq + qs) * t0 ** (ts - et) for (eq, et), c in terms.items()) == value
        for q0, t0, value in expect["points"])


def altered(expect):
    """A deliberately wrong copy of a reference, for the checker's self-test."""
    if "points" in expect:
        (q0, t0, value), *rest = expect["points"]
        return dict(expect, points=[(q0, t0, value + 1), *rest])
    first, *rest = expect["lines"]
    if isinstance(first, str):
        return {"lines": [first + "1", *rest]}
    bumped = dict(first)
    bumped[(0, 0)] = bumped.get((0, 0), 0) + 1
    return {"lines": [bumped, *rest]}
