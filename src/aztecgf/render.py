"""Deterministic SVG and ASCII drawings of regions and tilings.

Identical inputs produce byte-identical output: element order follows the
canonical cell order, and every coordinate is formatted with a fixed number
of decimals.  Dominoes are colored by their four weight classes, lozenges by
their three kinds; an optional overlay draws the Schröder paths of a
rectangle tiling.  ASCII draws a square region on a character grid, two
rows and four columns to a cell, where each cell draws its own walls.
"""

from __future__ import annotations

from .engine import Tiling
from .lozenge import classify_lozenge
from .regions import Region, domino_class, dw, is_white, sq, up
from .stats import STEPS, tiling_to_paths

UNIT = 40
PAD = 10
TRI_H = 34.64  # UNIT * sqrt(3)/2, fixed to two decimals for stable output

SQUARE_COLORS = {
    "level": "#e8c878",   # horizontal, black left cell (carries t*q^(2k))
    "plain": "#f2ead8",   # horizontal, white left cell
    "up": "#9cc4e4",      # vertical, black bottom cell
    "down": "#5f7fc0",    # vertical, white bottom cell (carries q^(2k+1))
}
LOZ_COLORS = {"left": "#e8a848", "right": "#8cc88c", "vertical": "#d0d0ee"}
CELL_COLORS = {"black": "#c9c9c9", "white": "#f6f6f6"}


def _fmt(v) -> str:
    return f"{float(v):.2f}"


def render_svg(region: Region, tiling: Tiling | None = None, paths: bool = False) -> bytes:
    # read before the lattice dispatch: a lozenge tiling has no Schröder paths, and tiling_to_paths says so
    family = tiling_to_paths(tiling) if paths and tiling is not None else None
    if region.lattice == "square":
        body, width, height = _square_svg(region, tiling, family)
    else:
        body, width, height = _triangle_svg(region, tiling)
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
    )
    return (head + body + "</svg>\n").encode("utf-8")


def _box(region):
    """Bounding box (x0, x1, y0, y1) of a square region, upper ends exclusive."""
    xs = [c.x for c in region.cells]
    ys = [c.y for c in region.cells]
    return min(xs), max(xs) + 1, min(ys), max(ys) + 1


def _square_svg(region, tiling, family):
    x0, x1, y0, y1 = _box(region)

    def px(x):
        return PAD + (x - x0) * UNIT

    def py(y):
        return PAD + (y1 - y) * UNIT

    out = []
    if tiling is None:
        for c in region.sorted_cells:
            color = CELL_COLORS["white" if is_white(c) else "black"]
            out.append(
                f'<rect x="{_fmt(px(c.x))}" y="{_fmt(py(c.y + 1))}" '
                f'width="{_fmt(UNIT)}" height="{_fmt(UNIT)}" '
                f'fill="{color}" stroke="#555555" stroke-width="1"/>\n'
            )
    else:
        for c1, c2 in sorted(tiling.dominoes):
            w, h = (2 * UNIT, UNIT) if c1.y == c2.y else (UNIT, 2 * UNIT)
            color = SQUARE_COLORS[domino_class((c1, c2))[0]]
            out.append(
                f'<rect x="{_fmt(px(c1.x))}" y="{_fmt(py(c2.y + 1))}" width="{_fmt(w)}" height="{_fmt(h)}" '
                f'fill="{color}" stroke="#303030" stroke-width="2" rx="3"/>\n'
            )
    if family is not None:
        for i, path in enumerate(family.paths, start=1):
            x, y = 1 - i, i - 1
            pts = [(px(x), py(y) - UNIT / 2)]
            for kind in path:
                dx, dy = STEPS[kind][1]
                x, y = x + dx, y + dy
                pts.append((px(x), py(y) - UNIT / 2))
            coords = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in pts)
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="#c02020" '
                f'stroke-width="3" stroke-linejoin="round"/>\n'
            )
    width = PAD * 2 + (x1 - x0) * UNIT
    height = PAD * 2 + (y1 - y0) * UNIT
    return "".join(out), width, height


def _tri_corners(cell, a):
    """Corner coordinates of one triangle; row 1 at the top, base at y = a."""
    shift = (a - cell.y) * UNIT / 2
    x_left = PAD + (cell.x - 1) * UNIT + shift
    y_top = PAD + (cell.y - 1) * TRI_H
    y_bot = PAD + cell.y * TRI_H
    if cell.kind == "up":
        return ((x_left, y_bot), (x_left + UNIT, y_bot), (x_left + UNIT / 2, y_top))
    x_left += UNIT / 2
    return ((x_left, y_top), (x_left + UNIT, y_top), (x_left + UNIT / 2, y_bot))


def _triangle_svg(region, tiling):
    a, b, _s = region.semihex_params
    out = []
    if tiling is None:
        for c in region.sorted_cells:
            pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in _tri_corners(c, a))
            out.append(
                f'<polygon points="{pts}" fill="#f0f0f0" stroke="#555555" stroke-width="1"/>\n'
            )
    else:
        for pair in sorted(tiling.dominoes):
            kind, _level = classify_lozenge(pair, a)
            p1 = _tri_corners(pair[0], a)
            p2 = _tri_corners(pair[1], a)
            shared = [p for p in p1 if p in p2]
            solo1 = [p for p in p1 if p not in shared]
            solo2 = [p for p in p2 if p not in shared]
            quad = (solo1[0], shared[0], solo2[0], shared[1])
            pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in quad)
            out.append(
                f'<polygon points="{pts}" fill="{LOZ_COLORS[kind]}" '
                f'stroke="#303030" stroke-width="2"/>\n'
            )
    width = PAD * 2 + (a + b) * UNIT + (a - 1) * UNIT / 2 + UNIT / 2
    height = PAD * 2 + a * TRI_H
    return "".join(out), width, height


def render_ascii(region: Region, tiling: Tiling | None = None) -> str:
    if region.lattice == "square":
        return _square_ascii(region, tiling)
    return _triangle_ascii(region, tiling)


def _square_ascii(region, tiling):
    """Wall drawing on a character grid: every cell draws its four corners
    and four walls, except a wall with its domino mate across it."""
    mate = {} if tiling is None else tiling.mate
    x0, x1, y0, y1 = _box(region)
    grid = [[" "] * (4 * (x1 - x0) + 1) for _ in range(2 * (y1 - y0) + 1)]
    for c in region.cells:
        r, k = 2 * (y1 - 1 - c.y), 4 * (c.x - x0)
        for row in (r, r + 2):
            grid[row][k] = grid[row][k + 4] = "+"
        if mate.get(c) != sq(c.x, c.y + 1):
            grid[r][k + 1:k + 4] = "---"
        if mate.get(c) != sq(c.x, c.y - 1):
            grid[r + 2][k + 1:k + 4] = "---"
        if mate.get(c) != sq(c.x - 1, c.y):
            grid[r + 1][k] = "|"
        if mate.get(c) != sq(c.x + 1, c.y):
            grid[r + 1][k + 4] = "|"
    return "".join("".join(row).rstrip() + "\n" for row in grid)


def _triangle_ascii(region, tiling):
    """One letter per triangle, lozenge mates sharing a letter."""
    a, b, _s = region.semihex_params
    letter = {}
    if tiling is not None:
        names = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
        for k, pair in enumerate(sorted(tiling.dominoes)):
            for c in pair:
                letter[c] = names[k % len(names)]
    lines = []
    for y in range(1, a + 1):
        row = [" " * (a - y)]
        for x in range(1, b + y + 1):
            u = up(x, y)
            row.append(letter.get(u, "^") if u in region.cells else ".")
            if x <= b + y - 1:
                d = dw(x, y)
                row.append(letter.get(d, "v") if d in region.cells else ".")
        lines.append("".join(row).rstrip())
    return "\n".join(lines) + "\n"
