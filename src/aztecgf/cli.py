"""Command-line interface.

Subcommands: genfun, count, verify, render, bench.  All computational
output is deterministic (identical invocations give byte-identical stdout
and files); bench prints wall-clock timings and is the one exception.
Exit codes: 0 success, 1 a failure in ``verify`` only (a suite that raises is one), 2 bad flags or input.

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
from .engine import count_tilings, enumerate_tilings, tiling_genfun_dp
from .errors import AztecError, InvalidRegionFile
from .regions import aztec_diamond, region_from_json


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


REGIONS = {"aztec": ("aztec_diamond", "order"), "rect": ("aztec_rectangle", "m", "n", "holes"),
           "semihex": ("semihexagon", "a", "b", "dents")}


def _region_key(args):
    """The key of the region the flags name, as :attr:`Region.key` spells it; nothing is built."""
    if args.region is None:
        PARSER.error("either --region or --in is required")
    kind, *flags = REGIONS[args.region]
    if None in (params := [getattr(args, flag) for flag in flags]):
        PARSER.error(f"--region {args.region} requires --{', --'.join(flags)}")
    return (kind, *params)


def _build_region(args):
    if not getattr(args, "infile", None):
        kind, *params = _region_key(args)
        return region_from_json({"kind": kind, "params": params})
    import json

    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidRegionFile(f"cannot read region from {args.infile}: {exc}") from None
    return region_from_json(obj)


def cmd_genfun(args):
    stats.admit("genfun", args.method, ("aztec_rectangle", args.m, args.n, args.holes))
    fn = {"brute": stats.genfun_bruteforce, "dp": stats.genfun_via_weights, "closed": formulas.rectangle_genfun}
    poly = fn[args.method](args.m, args.n, args.holes)
    if args.json:
        import json

        print(json.dumps(poly.to_json_obj(), separators=(",", ":")))
    else:
        print(poly.to_text())
    return 0


def cmd_count(args):
    stats.admit("count", args.method, _region_key(args))
    region = _build_region(args)
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

    if args.paths and (args.tiling is None or args.format == "ascii"):
        PARSER.error("--paths needs a tiling, and draws in svg only")
    region = _build_region(args)
    if (args.tiling == "minimal" or args.paths) and region.lattice != "square":
        PARSER.error("--tiling minimal and --paths need an aztec or rect region")
    tiling = stats.minimal_tiling(region) if args.tiling == "minimal" else None
    if args.tiling not in (None, "minimal"):
        try:
            index = int(args.tiling)
        except ValueError:
            PARSER.error("--tiling takes 'minimal' or an integer index")
        if len(region.cells) > stats.MAX_BRUTE_CELLS:  # refused first: with many rows, its count takes seconds
            stats.admit("render", "enumerate", region.key)
        if not 0 <= index < stats.tiling_count(region.key):
            PARSER.error(f"tiling index {index} out of range")
        stats.admit("render", "enumerate", region.key)
        tiling = next(islice(enumerate_tilings(region), index, None))
    data = (render_svg(region, tiling, paths=args.paths) if args.format == "svg"
            else render_ascii(region, tiling).encode("utf-8"))
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            PARSER.exit(2, f"error: cannot write {args.out}: {exc.strerror}\n")
    else:
        sys.stdout.write(data.decode("utf-8"))
    return 0


def _timed(fn, *args):
    """fn(*args) and the milliseconds it took."""
    t0 = time.perf_counter()
    return fn(*args), (time.perf_counter() - t0) * 1000


def cmd_bench(args):
    stats.admit("count", "dp", ("aztec_diamond", args.order))  # its largest diamond, counted as count --method dp
    print(f"{'order':>5}  {'dp count':>28}  {'dp ms':>10}  {'brute ms':>10}  {'weighted ms':>11}")
    for n in range(1, args.order + 1):
        region = aztec_diamond(n)
        count, dp_ms = _timed(tiling_genfun_dp, region)
        brute_ms = f"{_timed(count_tilings, region)[1]:.2f}" if n <= 4 else "-"
        weighted_ms = f"{_timed(stats.genfun_via_weights, n, n, range(1, n + 1))[1]:.2f}" if n <= 8 else "-"
        print(f"{n:>5}  {count:>28}  {dp_ms:10.2f}  {brute_ms:>10}  {weighted_ms:>11}")
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
