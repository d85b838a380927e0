"""Command-line interface.

Subcommands: genfun, count, verify, render, bench.  All computational
output is deterministic (identical invocations give byte-identical stdout
and files); bench prints wall-clock timings and is the one exception.
Exit codes: 0 success, 1 verification failure (a suite that raises is one), 2 bad flags.

``main(argv)`` may be called repeatedly in one process: the argument parser
is built once, when this module is imported, and every call parses with it.
``verify``, ``render`` and ``json`` are imported only where they are used, so
``genfun`` and ``count`` start without compiling or loading them.
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import islice

from . import formulas, stats
from .engine import check_frontier, count_tilings, enumerate_tilings, tiling_genfun_dp
from .errors import AztecError, InvalidOrder, InvalidRegionFile
from .regions import (
    aztec_diamond,
    aztec_rectangle_with_holes,
    check_size,
    region_from_json,
    semihexagon_with_dents,
)


def _positions(text):
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


# verify.SUITES in order, and "all"; a test holds the two together
SUITES = ("main", "diamond", "weighted", "lozenge", "relation", "rewrite", "all")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aztecgf",
        description="Exact tiling generating functions for Aztec rectangles and semihexagons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genfun", help="print the tiling generating function F(q, t)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--holes", type=_positions, required=True,
                   help="kept southeast positions s1,s2,... (1-based)")
    p.add_argument("--method", choices=("brute", "dp", "closed"), default="closed")
    p.add_argument("--json", action="store_true", help="emit JSON instead of the term list")

    p = sub.add_parser("count", help="print an exact tiling count")
    p.add_argument("--region", choices=("aztec", "rect", "semihex"), required=True)
    _add_region_flags(p)
    p.add_argument("--method", choices=("enumerate", "dp"), default="enumerate")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=SUITES, required=True)

    p = sub.add_parser("render", help="draw a region or one of its tilings")
    p.add_argument("--region", choices=("aztec", "rect", "semihex"))
    p.add_argument("--in", dest="infile", help="read a serialized region (JSON) instead")
    _add_region_flags(p)
    p.add_argument("--tiling", help='"minimal" or the 0-based index into the enumeration')
    p.add_argument("--paths", action="store_true", help="overlay the Schröder paths")
    p.add_argument("--format", choices=("svg", "ascii"), default="svg")
    p.add_argument("--out", help="output file (stdout when omitted)")

    p = sub.add_parser("bench", help="time the count DP against brute force, and the weighted DP")
    p.add_argument("--order", type=int, required=True)
    return parser


def _add_region_flags(p):
    """The flags that build a region, shared by count and render."""
    for flag, kind in (("--order", int), ("--m", int), ("--n", int), ("--holes", _positions),
                       ("--a", int), ("--b", int), ("--dents", _positions)):
        p.add_argument(flag, type=kind, help="order of the Aztec diamond" if flag == "--order" else None)


PARSER = build_parser()


def _build_region(args):
    if getattr(args, "infile", None):
        import json

        try:
            with open(args.infile, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InvalidRegionFile(f"cannot read region from {args.infile}: {exc}") from None
        return region_from_json(obj)
    kind = args.region
    if kind is None:
        PARSER.error("either --region or --in is required")
    if kind == "aztec":
        if args.order is None:
            PARSER.error("--region aztec requires --order")
        return aztec_diamond(args.order)
    if kind == "rect":
        if args.m is None or args.n is None or args.holes is None:
            PARSER.error("--region rect requires --m, --n and --holes")
        return aztec_rectangle_with_holes(args.m, args.n, args.holes)
    if args.a is None or args.b is None or args.dents is None:
        PARSER.error("--region semihex requires --a, --b and --dents")
    return semihexagon_with_dents(args.a, args.b, args.dents)


def cmd_genfun(args):
    fn = {
        "brute": stats.genfun_bruteforce,
        "dp": stats.genfun_via_weights,
        "closed": formulas.rectangle_genfun,
    }[args.method]
    poly = fn(args.m, args.n, args.holes)
    if args.json:
        import json

        print(json.dumps(poly.to_json_obj(), separators=(",", ":")))
    else:
        print(poly.to_text())
    return 0


def cmd_count(args):
    if args.region == "aztec" and args.order is not None and args.order >= 1:
        # an order-n diamond sweeps n + 1 bits and has 2^(n(n+1)/2) tilings, over
        # MAX_BRUTE_TILINGS exactly when that count has more bits (an order below 1
        # is refused as such when the region is built)
        bits = args.order * (args.order + 1) // 2 + 1
        if args.method == "dp":
            check_frontier(args.order + 1)
        elif bits > stats.MAX_BRUTE_TILINGS.bit_length():
            raise stats.too_many_tilings(bits)
    region = _build_region(args)
    if args.method == "enumerate":
        stats.check_enumerable(region)
    print(tiling_genfun_dp(region) if args.method == "dp" else count_tilings(region))
    return 0


def cmd_verify(args):
    from . import verify

    failures = verify.run_suite(args.suite, sys.stdout)
    total = "all suites" if args.suite == "all" else f"suite {args.suite}"
    if failures:
        print(f"{total}: {failures} FAILED")
        return 1
    print(f"{total}: ok")
    return 0


def cmd_render(args):
    from .render import render_ascii, render_svg

    region = _build_region(args)
    if (args.tiling == "minimal" or args.paths) and region.lattice != "square":
        PARSER.error("--tiling minimal and --paths need an aztec or rect region")
    tiling = None
    if args.tiling is not None:
        if args.tiling == "minimal":
            tiling = stats.minimal_tiling(region)
        else:
            try:
                index = int(args.tiling)
            except ValueError:
                PARSER.error("--tiling takes 'minimal' or an integer index")
            if not 0 <= index < stats.closed_count(region):
                PARSER.error(f"tiling index {index} out of range")
            stats.check_enumerable(region, "render has no such limit without --tiling,"
                                           " or with --tiling minimal on an aztec or rect region")
            tiling = next(islice(enumerate_tilings(region), index, None))
    if args.paths and tiling is None:
        PARSER.error("--paths needs a tiling")
    if args.format == "svg":
        data = render_svg(region, tiling, paths=args.paths)
    else:
        data = render_ascii(region, tiling).encode("utf-8")
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode("utf-8"))
    return 0


def cmd_bench(args):
    check_size("order", args.order, InvalidOrder)
    print(f"{'order':>5}  {'dp count':>28}  {'dp ms':>10}  {'brute ms':>10}  {'weighted ms':>11}")
    for n in range(1, args.order + 1):
        region = aztec_diamond(n)
        t0 = time.perf_counter()
        count = tiling_genfun_dp(region)
        dp_ms = (time.perf_counter() - t0) * 1000
        if n <= 4:
            t0 = time.perf_counter()
            brute = count_tilings(region)
            brute_ms = f"{(time.perf_counter() - t0) * 1000:10.2f}"
            if brute != count:
                print(f"bench: order {n}: backtracker count {brute} != dp count {count}", file=sys.stderr)
                return 1
        else:
            brute_ms = f"{'-':>10}"
        if n <= 8:
            t0 = time.perf_counter()
            weighted = stats.genfun_via_weights(n, n, range(1, n + 1))
            weighted_ms = f"{(time.perf_counter() - t0) * 1000:11.2f}"
            if weighted != formulas.aztec_diamond_genfun(n):
                print(f"bench: order {n}: weighted route != aztec_diamond_genfun", file=sys.stderr)
                return 1
        else:
            weighted_ms = f"{'-':>11}"
        print(f"{n:>5}  {count:>28}  {dp_ms:10.2f}  {brute_ms}  {weighted_ms}")
    return 0


def main(argv=None):
    args = PARSER.parse_args(argv)
    command = {"genfun": cmd_genfun, "count": cmd_count, "verify": cmd_verify,
               "render": cmd_render, "bench": cmd_bench}[args.command]
    try:
        return command(args)
    except AztecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
