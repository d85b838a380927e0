"""CLI surface: golden outputs, determinism, exit codes."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def run_cli(*args, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "aztecgf.cli", *args],
        capture_output=True,
        env=env,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr.decode()}")
    return proc


def test_genfun_golden():
    out = run_cli("genfun", "--m", "2", "--n", "2", "--holes", "1,2", "--method", "closed")
    assert out.stdout.decode() == "1 + 2*t*q + t^2*q^2 + t*q^3 + 2*t^2*q^4 + t^3*q^5\n"


def test_genfun_methods_agree():
    outputs = set()
    for method in ("brute", "dp", "closed"):
        out = run_cli("genfun", "--m", "2", "--n", "4", "--holes", "1,3", "--method", method)
        outputs.add(out.stdout)
    assert len(outputs) == 1


def test_genfun_json():
    out = run_cli("genfun", "--m", "1", "--n", "2", "--holes", "2", "--json")
    obj = json.loads(out.stdout.decode())
    assert obj == {"terms": [{"q": 0, "t": 0, "coeff": "1"}, {"q": 1, "t": 1, "coeff": "1"}]}


def test_count_commands():
    assert run_cli("count", "--region", "rect", "--m", "3", "--n", "6", "--holes", "1,4,6").stdout == b"960\n"
    assert run_cli("count", "--region", "semihex", "--a", "3", "--b", "2", "--dents", "2,3,5").stdout == b"3\n"
    assert run_cli("count", "--region", "semihex", "--a", "3", "--b", "2", "--dents", "2,3,5",
                   "--method", "dp").stdout == b"3\n"
    assert run_cli("count", "--region", "aztec", "--order", "4", "--method", "dp").stdout == b"1024\n"


def test_render_determinism(tmp_path):
    f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
    args = ("render", "--region", "rect", "--m", "3", "--n", "6", "--holes", "1,4,6",
            "--tiling", "minimal", "--paths", "--format", "svg")
    run_cli(*args, "--out", str(f1))
    run_cli(*args, "--out", str(f2))
    data = f1.read_bytes()
    assert data == f2.read_bytes()
    assert data.count(b"<rect") == 42 // 2
    assert data.count(b"<polyline") == 3
    # a diamond is AR(n, n; 1..n): it has a minimal tiling and Schröder paths
    out = run_cli("render", "--region", "aztec", "--order", "2", "--tiling", "minimal", "--paths")
    assert out.stdout.count(b"<polyline") == 2
    semihex = ("render", "--region", "semihex", "--a", "2", "--b", "1", "--dents", "1,3")
    assert run_cli(*semihex, "--tiling", "minimal", check=False).returncode == 2
    assert run_cli(*semihex, "--tiling", "0", "--paths", check=False).returncode == 2
    # ASCII draws no paths: --paths with --format ascii is a flag error, not dropped without a word
    ascii_paths = run_cli(*args[:-1], "ascii", check=False)
    assert ascii_paths.returncode == 2 and b"--paths" in ascii_paths.stderr and not ascii_paths.stdout


ASCII_DRAWINGS = [
    (("--region", "aztec", "--order", "2"), """\
    +---+---+
    |   |   |
+---+---+---+---+
|   |   |   |   |
+---+---+---+---+
|   |   |   |   |
+---+---+---+---+
    |   |   |
    +---+---+
"""),
    (("--region", "rect", "--m", "3", "--n", "6", "--holes", "1,4,6", "--tiling", "minimal"), """\
                    +---+---+
                    |       |
                +---+---+---+---+
                |       |       |
            +---+---+---+---+---+---+
            |       |       |       |
        +---+---+---+---+---+---+---+
        |       |       |   |       |
    +---+---+---+---+---+   +---+---+
    |       |   |       |   |
+---+---+---+   +---+---+---+
|       |   |   |   |       |
+---+---+   +---+   +---+---+
|       |   |   |   |
+---+---+---+   +---+
    |       |   |
    +---+---+---+
        |       |
        +---+---+
"""),
    (("--region", "rect", "--m", "2", "--n", "4", "--holes", "1,3", "--tiling", "5"), """\
            +---+---+
            |       |
        +---+---+---+---+
        |       |       |
    +---+---+---+---+---+
    |       |       |
+---+---+---+---+---+
|   |       |       |
+   +---+---+---+---+
|   |   |   |
+---+   +   +
    |   |   |
    +---+---+
"""),
    (("--region", "semihex", "--a", "2", "--b", "1", "--dents", "1,3", "--tiling", "0"), """\
 aac
.bbc.
"""),
]


SEMIHEX_SVG_HEAD = """\
<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="180.00" height="89.28" viewBox="0 0 180.00 89.28">
"""

SEMIHEX_SVGS = [
    ((), SEMIHEX_SVG_HEAD + """\
<polygon points="50.00,10.00 90.00,10.00 70.00,44.64" fill="#f0f0f0" stroke="#555555" stroke-width="1"/>
<polygon points="30.00,44.64 70.00,44.64 50.00,10.00" fill="#f0f0f0" stroke="#555555" stroke-width="1"/>
<polygon points="30.00,44.64 70.00,44.64 50.00,79.28" fill="#f0f0f0" stroke="#555555" stroke-width="1"/>
<polygon points="70.00,44.64 110.00,44.64 90.00,10.00" fill="#f0f0f0" stroke="#555555" stroke-width="1"/>
<polygon points="70.00,44.64 110.00,44.64 90.00,79.28" fill="#f0f0f0" stroke="#555555" stroke-width="1"/>
<polygon points="50.00,79.28 90.00,79.28 70.00,44.64" fill="#f0f0f0" stroke="#555555" stroke-width="1"/>
</svg>
"""),
    (("--tiling", "0"), SEMIHEX_SVG_HEAD + """\
<polygon points="90.00,10.00 50.00,10.00 30.00,44.64 70.00,44.64" fill="#e8a848" stroke="#303030" stroke-width="2"/>
<polygon points="30.00,44.64 70.00,44.64 90.00,79.28 50.00,79.28" fill="#8cc88c" stroke="#303030" stroke-width="2"/>
<polygon points="90.00,10.00 70.00,44.64 90.00,79.28 110.00,44.64" fill="#d0d0ee" stroke="#303030" stroke-width="2"/>
</svg>
"""),
]


def test_render_semihex_svg():
    # six triangles outlined, then the three lozenges of the tiling drawn as
    # "aac / .bbc." in ASCII_DRAWINGS
    for args, expected in SEMIHEX_SVGS:
        out = run_cli("render", "--region", "semihex", "--a", "2", "--b", "1", "--dents", "1,3", *args)
        assert out.stdout.decode() == expected


def test_render_region_only_and_ascii():
    out = run_cli("render", "--region", "aztec", "--order", "1", "--format", "ascii")
    assert out.stdout.decode().count("+") > 0
    for args, expected in ASCII_DRAWINGS:
        assert run_cli("render", *args, "--format", "ascii").stdout.decode() == expected
    # region-only SVG outlines one shape per cell
    out = run_cli("render", "--region", "aztec", "--order", "2", "--format", "svg")
    assert out.stdout.decode().count("<rect") == 12


def test_render_from_serialized_region(tmp_path):
    import aztecgf

    region = aztecgf.aztec_rectangle_with_holes(2, 3, (1, 3))
    path = tmp_path / "region.json"
    path.write_text(json.dumps(region.to_json_obj()))
    out = run_cli("render", "--in", str(path), "--format", "ascii")
    assert out.stdout.decode().count("+") > 0


def test_bench_table():
    out = run_cli("bench", "--order", "3")
    text = out.stdout.decode()
    assert "dp ms" in text and "brute ms" in text and "weighted ms" in text
    assert text.count("\n") == 4  # header plus one row per order


def cli_exit(capsys, *argv):
    """Exit code, stdout and stderr of ``cli.main(argv)`` run in this process."""
    from aztecgf import cli

    return (cli.main(list(argv)), *capsys.readouterr())


def parser_exit(capsys, *argv):
    """The same for flags the argument parser rejects: it raises SystemExit."""
    from aztecgf import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    return (exc.value.code, *capsys.readouterr())


def test_invalid_flags_exit_2(tmp_path, capsys):
    assert parser_exit(capsys, "count", "--region", "rect")[0] == 2
    assert parser_exit(capsys, "genfun", "--m", "2", "--n", "2")[0] == 2
    assert parser_exit(capsys, "verify", "--suite", "nonsense")[0] == 2
    assert parser_exit(capsys, "genfun", "--m", "2", "--n", "2", "--holes", "x,y")[0] == 2
    # semantically invalid values are rejected cleanly too, also by the real entry point
    assert run_cli("genfun", "--m", "2", "--n", "4", "--holes", "1,2,3", check=False).returncode == 2
    assert cli_exit(capsys, "genfun", "--m", "2", "--n", "4", "--holes", "1,2,3")[0] == 2
    assert cli_exit(capsys, "count", "--region", "semihex", "--a", "2", "--b", "1", "--dents", "1,9")[0] == 2
    # too many tilings to enumerate: refused before the search starts
    code, _, err = cli_exit(capsys, "genfun", "--m", "5", "--n", "7", "--holes", "1,2,4,6,7", "--method", "brute")
    assert code == 2 and err.startswith("error: ")
    # the backtracker would run for days: refused by the closed-form count, dp still answers
    for region in (("aztec", "--order", "8"), ("rect", "--m", "5", "--n", "7", "--holes", "1,2,4,6,7"),
                   ("semihex", "--a", "6", "--b", "12", "--dents", "1,4,7,10,13,16")):
        code, _, err = cli_exit(capsys, "count", "--region", *region)
        assert code == 2 and err.startswith("error: ") and "dp" in err
        assert cli_exit(capsys, "count", "--region", *region, "--method", "dp")[0] == 0
    # a tiling index is checked against the closed-form count before the walk
    walk = ("render", "--region", "aztec", "--order", "8", "--format", "ascii", "--tiling")
    for index in ("99999999999", "-1"):  # out of range
        code, _, err = parser_exit(capsys, *walk, index)
        assert code == 2 and "error: " in err
    code, _, err = cli_exit(capsys, *walk, "300000")
    assert code == 2 and "error: " in err
    assert "limit" in err  # 300000 < 2^36 tilings, but the region is past MAX_BRUTE_TILINGS
    assert cli_exit(capsys, "render", "--region", "aztec", "--order", "2", "--tiling", "7")[0] == 0
    assert parser_exit(capsys, "render", "--region", "aztec", "--order", "2", "--tiling", "8")[0] == 2
    code, _, err = cli_exit(capsys, "count", "--region", "aztec", "--order", "0")
    assert code == 2 and err.startswith("error: ")
    for order in ("0", "-3"):
        code, out, err = cli_exit(capsys, "bench", "--order", order)
        assert code == 2 and out == "" and err.startswith("error: order")
    # bench is admitted by its largest order before it prints its header
    assert cli_exit(capsys, "bench", "--order", "30") == (
        2, "", "error: DP frontier would be at least 31 bits wide, over 24; no other method admits it\n")
    # unreadable serialized regions: missing, not JSON, unknown kind
    (tmp_path / "bad.json").write_text("not json")
    (tmp_path / "kind.json").write_text(json.dumps({"kind": "blob", "params": []}))
    (tmp_path / "nokind.json").write_text(json.dumps({"params": []}))
    (tmp_path / "noparams.json").write_text(json.dumps({"kind": "aztec_diamond"}))
    (tmp_path / "array.json").write_text(json.dumps([1, 2]))
    (tmp_path / "arity.json").write_text(json.dumps({"kind": "aztec_diamond", "params": [1, 2]}))
    (tmp_path / "type.json").write_text(json.dumps({"kind": "aztec_rectangle", "params": [2, 3, 5]}))
    for name in ("missing.json", "bad.json", "kind.json", "nokind.json", "noparams.json", "array.json",
                 "arity.json", "type.json"):
        code, _, err = cli_exit(capsys, "render", "--in", str(tmp_path / name))
        assert code == 2 and err.startswith("error: ")


def test_render_refuses_a_region_over_the_cell_limit_before_it_counts_its_tilings(capsys, monkeypatch):
    from aztecgf import stats

    def no_count(key):
        raise AssertionError("the tiling count was taken")

    monkeypatch.setattr(stats, "tiling_count", no_count)  # with many rows, falling_ratio takes seconds
    code, out, err = cli_exit(capsys, "render", "--region", "aztec", "--order", "45", "--tiling", "0")
    assert (code, out) == (2, "") and "over the brute-force limit of 4096 cells" in err


def test_render_out_to_a_path_it_cannot_write_exits_2(tmp_path, capsys):
    # a missing directory or a directory in place of a file: one error line naming the path, no traceback
    for path, reason in ((tmp_path / "missing" / "x.svg", "No such file or directory"), (tmp_path, "Is a directory")):
        code, out, err = parser_exit(capsys, "render", "--region", "aztec", "--order", "2", "--out", str(path))
        assert (code, out, err) == (2, "", f"error: cannot write {path}: {reason}\n")


def test_region_file_positions_must_be_ints(tmp_path, capsys):
    # a fractional or boolean position is refused by the builder, before a
    # count or a cell lookup meets it, whether or not a tiling is asked for
    for kind, params in (("aztec_rectangle", [2, 3, [1.5, 2]]), ("semihexagon", [2, 1, [1.5, 3]]),
                         ("semihexagon", [2, 1, [True, 3]])):
        path = tmp_path / "region.json"
        path.write_text(json.dumps({"kind": kind, "params": params}))
        for extra in ((), ("--tiling", "0")):
            code, out, err = cli_exit(capsys, "render", "--in", str(path), *extra)
            assert (code, out) == (2, "") and err.startswith("error: positions must be integers")


def test_region_file_sizes_must_be_ints(tmp_path, capsys):
    # a boolean or fractional size is refused by its builder's typed error
    # before any comparison or range meets it, with or without a tiling
    for kind, params in (("aztec_diamond", [True]), ("aztec_rectangle", [True, 2, [2]]),
                         ("semihexagon", [1, True, [2]]), ("aztec_diamond", [1.5])):
        path = tmp_path / "region.json"
        path.write_text(json.dumps({"kind": kind, "params": params}))
        for extra in ((), ("--tiling", "0")):
            code, out, err = cli_exit(capsys, "render", "--in", str(path), *extra)
            assert (code, out) == (2, "") and err.startswith("error: ") and "integer" in err, err
            assert "Traceback" not in err


def test_render_minimal_builds_one_region(monkeypatch, capsys):
    # the minimal tiling is laid on the region render already holds
    from aztecgf import regions

    built = []
    build = regions._ar_region
    monkeypatch.setattr(regions, "_ar_region", lambda *args: built.append(args) or build(*args))
    code, out, _ = cli_exit(capsys, "render", "--region", "aztec", "--order", "3", "--tiling", "minimal",
                            "--format", "ascii")
    assert code == 0 and out and built == [(3, 3, (1, 2, 3))]


def test_region_builders_refuse_oversized_regions_from_their_parameters(monkeypatch, capsys):
    # a region's cell count follows from its parameters (2mn + 2m for a holey
    # rectangle, 2ab + a^2 - a for a dented semihexagon, 2n(n + 1) for a
    # diamond), so a thin region of millions of cells is refused before one
    # cell is built
    from aztecgf import regions

    # built at the bound, 2^18 cells: the brute-force cell limit refuses it, the region limit does not
    code, _, err = cli_exit(capsys, "count", "--region", "semihex", "--a", "1", "--b", "131072", "--dents", "1")
    assert code == 2 and err.startswith("error: a region of 262144 cells, over the brute-force limit")

    def no_build(*args):
        raise AssertionError("built a region it refuses")

    for helper in ("sq", "up", "dw", "ar_face_cells"):  # every cell of every region is built by one of these
        monkeypatch.setattr(regions, helper, no_build)
    for argv, cells in ((["count", "--region", "semihex", "--a", "1", "--b", "131073", "--dents", "1"], 262146),
                        (["count", "--region", "rect", "--m", "1", "--n", "1000000", "--holes", "1"], 2000002),
                        (["count", "--region", "semihex", "--a", "1", "--b", "1000000", "--dents", "1"], 2000000),
                        (["count", "--region", "semihex", "--a", "1", "--b", "1000000", "--dents", "1",
                          "--method", "dp"], 2000000),
                        (["render", "--region", "aztec", "--order", "400"], 320800)):
        # count's admission refuses before building and says no method admits it; render's builder refuses
        remedy = "" if argv[0] == "render" else "; no other method admits it"
        assert cli_exit(capsys, *argv) == (
            2, "", f"error: a region of {cells} cells, over the region size limit of 262144 cells{remedy}\n")


def test_count_dp_refuses_a_wide_diamond_before_building_it(monkeypatch, capsys):
    # an order-n diamond sweeps n + 1 bits, so the width is known from the
    # order alone and the region is never built; order 23 fits the width, but
    # its predicted cost is refused; enumeration refuses them all too
    from aztecgf import cli

    def no_build(*args):
        raise AssertionError("built a region the DP refuses")

    monkeypatch.setattr(cli, "_build_region", no_build)
    for order in (24, 25, 200):
        assert cli.main(["count", "--region", "aztec", "--order", str(order), "--method", "dp"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: DP frontier would be at least {order + 1} bits wide, over 24;"
                                " no other method admits it\n")
    assert cli.main(["count", "--region", "aztec", "--order", "23", "--method", "dp"]) == 2
    assert capsys.readouterr().err == ("error: a predicted count DP cost of 826952538048, over its limit of"
                                       " 750000000000; no other method admits it\n")


def test_genfun_refuses_past_the_closed_and_weighted_dp_caps_before_the_work(monkeypatch, capsys):
    # closed F on 24x48 and the weighted DP on 14x28 would each run for minutes; every genfun route is patched
    # to raise, so a refusal that came after the work would fail here instead of hanging
    from aztecgf import cli, formulas, stats

    def no_work(*args):
        raise AssertionError("ran a genfun route on an input it refuses")

    for module, name in ((formulas, "rectangle_genfun"), (stats, "genfun_via_weights"), (stats, "genfun_bruteforce")):
        monkeypatch.setattr(module, name, no_work)
    for m, method, reason in (
            (24, "closed", "a predicted closed product cost of 4095942984, over its limit of 2150000000;"
                           " no other method admits it"),
            (14, "dp", "a predicted weighted DP cost of 119477121603840, over its limit of 35184372088832;"
                       " the closed method has no such limit")):
        holes = ",".join(map(str, range(2, 2 * m + 1, 2)))
        assert cli_exit(capsys, "genfun", "--m", str(m), "--n", str(2 * m), "--holes", holes, "--method", method) == (
            2, "", f"error: {reason}\n")


def test_a_refusal_takes_no_tiling_count_of_a_region_brute_force_refuses_by_its_cells(monkeypatch, capsys):
    # the remedy search asks brute force too, and it checks its cell limit before the count: with hundreds of
    # rows, falling_ratio took seconds before any of these was refused
    from aztecgf import cli, formulas, stats

    def no_work(*args):
        raise AssertionError("took a tiling count or ran a route on an input it refuses")

    for module, name in ((stats, "falling_ratio"), (cli, "_build_region"), (formulas, "rectangle_genfun"),
                         (stats, "genfun_via_weights")):
        monkeypatch.setattr(module, name, no_work)
    dents, holes = ",".join(map(str, (*range(1, 500), 510))), ",".join(map(str, (*range(1, 360), 363)))
    for argv, reason in (
            (["count", "--region", "semihex", "--a", "500", "--b", "10", "--dents", dents, "--method", "dp"],
             "DP frontier would be at least 499 bits wide, over 24"),
            (["genfun", "--m", "360", "--n", "363", "--holes", holes, "--method", "dp"],
             "DP frontier would be at least 361 bits wide, over 24"),
            (["genfun", "--m", "360", "--n", "363", "--holes", holes, "--method", "closed"],
             "a predicted closed product cost of 65982097114970008, over its limit of 2150000000")):
        assert cli_exit(capsys, *argv) == (2, "", f"error: {reason}; no other method admits it\n")


def test_count_enumerate_refuses_a_big_diamond_before_building_it(monkeypatch, capsys):
    # an order-n diamond has 2^(n(n+1)/2) tilings, so the refusal is known from
    # the order alone and the region is never built
    from aztecgf import cli

    assert cli.main(["count", "--region", "aztec", "--order", "5"]) == 0
    assert capsys.readouterr().out == "32768\n"

    def no_build(*args):
        raise AssertionError("built a region the enumeration refuses")

    monkeypatch.setattr(cli, "_build_region", no_build)
    # orders 170 and 400 are over the brute-force cell limit and the region size limit, which the admission checks
    # first, so their counts are never taken
    for order, reason in ((6, "a 22-bit tiling count, over the brute-force limit of 262144 tilings;"
                              " the dp method has no such limit"),
                          (170, "a region of 58140 cells, over the brute-force limit of 4096 cells;"
                                " no other method admits it"),
                          (400, "a region of 320800 cells, over the region size limit of 262144 cells;"
                                " no other method admits it")):
        assert cli.main(["count", "--region", "aztec", "--order", str(order)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {reason}\n"


def test_enumeration_refuses_a_region_with_too_many_cells(monkeypatch, capsys):
    # the search keeps the free cells in one bitmask, so each step costs time
    # linear in the cell count: a thin region with one or two tilings but
    # tens of thousands of cells is refused by its size, before any search
    from aztecgf import cli, stats

    assert cli.main(["count", "--region", "semihex", "--a", "1", "--b", "2048", "--dents", "1"]) == 0
    assert capsys.readouterr().out == "1\n"  # 4,096 cells, at the bound

    def no_search(*args):
        raise AssertionError("searched a region it refuses")

    monkeypatch.setattr(cli, "count_tilings", no_search)
    monkeypatch.setattr(cli, "enumerate_tilings", no_search)
    monkeypatch.setattr(stats, "enumerate_tilings", no_search)
    monkeypatch.setattr(stats, "minimal_tiling", no_search)
    for argv, cells in ((["count", "--region", "semihex", "--a", "1", "--b", "2049", "--dents", "1"], 4098),
                        (["count", "--region", "semihex", "--a", "1", "--b", "80000", "--dents", "1"], 160000),
                        (["genfun", "--m", "1", "--n", "20000", "--holes", "1", "--method", "brute"], 40002)):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: a region of {cells} cells, over the brute-force limit of 4096 cells;"
                                " the dp method has no such limit\n")
    assert cli.main(["render", "--region", "semihex", "--a", "1", "--b", "80000", "--dents", "1", "--tiling", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: a region of 160000 cells, over the brute-force limit")


def test_render_by_index_refuses_a_region_too_big_to_enumerate(monkeypatch, capsys):
    # the index is reached by walking the enumeration, so a region with more
    # than MAX_BRUTE_TILINGS tilings is refused before the walk, whatever the index
    from aztecgf import cli
    from aztecgf.engine import enumerate_tilings
    from aztecgf.regions import aztec_diamond
    from aztecgf.render import render_ascii

    assert cli.main(["render", "--region", "aztec", "--order", "5", "--tiling", "0", "--format", "ascii"]) == 0
    region = aztec_diamond(5)
    assert capsys.readouterr().out == render_ascii(region, next(enumerate_tilings(region)))

    def no_walk(region):
        raise AssertionError("walked the enumeration of a region it refuses")

    monkeypatch.setattr(cli, "enumerate_tilings", no_walk)
    assert cli.main(["render", "--region", "aztec", "--order", "80", "--tiling", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a region of 12960 cells, over the brute-force limit of 4096 cells;"
                            " no other method admits it\n")


def test_main_reuses_one_parser_across_calls(monkeypatch, capsys):
    # one process answers a mix of good, rejected and refused requests exactly
    # as fresh processes do, without building a second parser
    from aztecgf import cli

    def no_rebuild():
        raise AssertionError("built the parser again")

    monkeypatch.setattr(cli, "build_parser", no_rebuild)
    count = ["count", "--region", "rect", "--m", "3", "--n", "5", "--holes", "1,3,5"]
    brute = ["genfun", "--m", "3", "--n", "5", "--holes", "1,2,4", "--method", "brute"]
    fresh = {tuple(argv): run_cli(*argv) for argv in (count, brute)}

    def same_as_fresh(argv):
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == fresh[tuple(argv)].stdout.decode()
        assert captured.err == fresh[tuple(argv)].stderr.decode() == ""

    same_as_fresh(count)
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--region", "rect", "--m", "3", "--n", "5", "--holes", "x,y"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("aztecgf count: error: argument --holes: expected comma-separated integers,"
                                 " got 'x,y'\n")
    assert cli.main(["count", "--region", "rect", "--m", "3", "--n", "5", "--holes", "1,3,9"]) == 2
    assert capsys.readouterr().err == "error: s must be strictly increasing in [1, 5] with 3 entries, got (1, 3, 9)\n"
    same_as_fresh(count)
    same_as_fresh(brute)


def test_enumerate_refuses_a_huge_count_by_its_size(capsys):
    # 2^14535 tilings has more digits than Python turns into a string; the refusal names the region's
    # 58,140 cells instead, which are checked first, and the DPs and the closed product refuse it too
    from aztecgf import cli

    holes = ",".join(map(str, range(1, 171)))
    for argv in (["count", "--region", "aztec", "--order", "170"],
                 ["genfun", "--m", "170", "--n", "170", "--holes", holes, "--method", "brute"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: a region of 58140 cells")
        assert captured.err.count("\n") == 1 and len(captured.err) < 120
        assert captured.err.endswith("; no other method admits it\n")


def test_verify_suite_exits_zero():
    out = run_cli("verify", "--suite", "diamond")
    text = out.stdout.decode()
    assert "FAIL" not in text
    assert text.strip().endswith("suite diamond: ok")


def test_verify_reports_a_suite_that_raises_and_runs_the_rest(monkeypatch, capsys):
    # a route that raises part-way is one failure, not bad input: the later suites still run
    from aztecgf import verify
    from aztecgf.errors import InexactDivision

    def raising():
        yield "relation case 1", ()
        raise InexactDivision("planted")

    suites = {name: (lambda name=name: iter([(f"{name} case", ())])) for name in verify.SUITES}
    failing = iter([("lozenge case 1", ()), ("lozenge case 2", ("cspp bijection onto", "cspp bijection weight"))])
    monkeypatch.setattr(verify, "SUITES", {**suites, "lozenge": lambda: failing, "relation": raising})
    code, out, err = cli_exit(capsys, "verify", "--suite", "all")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "PASS  main case", "PASS  diamond case", "PASS  weighted case",
        "PASS  lozenge case 1", "FAIL  lozenge case 2  (cspp bijection onto, cspp bijection weight)",
        "PASS  relation case 1",
        "FAIL  relation: InexactDivision: planted; the rest of suite relation did not run",
        "PASS  rewrite case",
        "all suites: 2 FAILED",
    ]
    code, out, err = cli_exit(capsys, "verify", "--suite", "relation")
    assert (code, err, out.splitlines()[-1]) == (1, "", "suite relation: 1 FAILED")


def test_start_up_loads_neither_verify_render_nor_dataclasses():
    # -I -S keeps site and the environment out, so nothing is loaded beforehand:
    # what is left in sys.modules is what importing the CLI itself loaded
    probe = (f"import sys; sys.path.insert(0, {SRC!r}); import aztecgf.cli; "
             "print(sorted(m for m in ('dataclasses', 'inspect', 'typing', 'json', 'aztecgf.verify', 'aztecgf.render')"
             " if m in sys.modules))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", probe], capture_output=True, check=True)
    assert out.stdout == b"[]\n"


def test_suite_choices_are_the_verify_suites():
    # cli spells the --suite choices out so that it need not import verify to build its parser
    from aztecgf import cli, verify

    assert cli.SUITES == (*verify.SUITES, "all")  # the same names in the same order, so --help is unchanged
    for suite in cli.SUITES:
        assert cli.PARSER.parse_args(["verify", "--suite", suite]).suite == suite


@st.composite
def cli_argvs(draw):
    """count, genfun and bench over sizes up to past the patched-down limits below; n = m - 1 is invalid."""
    command = draw(st.sampled_from(("count", "genfun", "bench")))
    if command == "bench":
        return ["bench", "--order", str(draw(st.integers(0, 7)))]
    kind = "rect" if command == "genfun" else draw(st.sampled_from(("aztec", "rect", "semihex")))
    if kind == "aztec":
        flags = ["--order", str(draw(st.integers(0, 7)))]
    else:
        m = draw(st.integers(1, 6))
        n = m + draw(st.integers(-1, 8))
        s = ",".join(map(str, sorted(draw(st.sets(st.integers(1, max(n, m)), min_size=m, max_size=m)))))
        flags = ["--m", str(m), "--n", str(n), "--holes", s] if kind == "rect" else [
            "--a", str(m), "--b", str(n - m), "--dents", s]
    methods = ("brute", "dp", "closed") if command == "genfun" else ("enumerate", "dp")
    return [command, *([] if command == "genfun" else ["--region", kind]), *flags,
            "--method", draw(st.sampled_from(methods))]


def test_every_refusal_comes_before_the_build_and_names_an_admitted_method(monkeypatch):
    # with every limit patched down, small commands meet each refusal: each call exits 0, or exits 2 with one
    # error line before any region is built, and a method a refusal names runs the same input
    from aztecgf import cli, stats

    for name, value in (("MAX_BRUTE_TILINGS", 2**7), ("MAX_BRUTE_CELLS", 40), ("MAX_CELLS", 128), ("MAX_FRONTIER", 5),
                        ("CAPS", {"count DP": 8000, "weighted DP": 2 * 10**5, "closed product": 20000})):
        monkeypatch.setattr(stats, name, value)
    built, build = [], cli._build_region
    monkeypatch.setattr(cli, "_build_region", lambda args: built.append(args) or build(args))

    def run(argv):
        built.clear()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(cli_argvs())
    def check(argv):
        code, out, err = run(argv)
        if code == 0:
            assert err == "" and out
            return
        assert (code, out, built) == (2, "", []) and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        if "; the " in err:  # "...; the dp method has no such limit"
            method = err.split("; the ")[1].split()[0]
            assert run([*argv[:-1], method])[0] == 0, (argv, err)

    check()
