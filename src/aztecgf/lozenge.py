"""Lozenge tilings of dented semihexagons and the plane-partition bijection.

A lozenge is a pair of edge-sharing triangles; with rows counted 1..a top to
bottom there are three kinds (levels count from the base, so row y sits at
level a - y):

* ``left``:     up(x, y) + dw(x, y)   — the weighted kind; at level k it
                carries q^(k+1) in the pure q-weighting (and a*q^(k+1) in the
                four-parameter reduction of the rectangle graph);
* ``right``:    up(x, y) + dw(x-1, y) — the other in-row kind;
* ``vertical``: up(x, y) + dw(x, y+1) — spans two rows, never weighted.

Two path systems read a tiling, each a plain-dict step table (``TOP_STEPS``,
``DENT_STEPS``) that ``Tiling.walk`` reads and ``Tiling.from_paths`` replays:

* b = n - m disjoint top-to-bottom paths enter through the top edges and
  exit through the un-dented base triangles; each crosses one in-row lozenge
  per row, and crossing a ``right`` lozenge shifts it one position to the
  right.  Path j therefore exits at position j + (number of rights), and
  carries m - (h_j - j) ``left`` lozenges, h being the sorted non-dent
  positions.

* m disjoint dent-to-northwest paths (possibly empty) cross lozenges through
  their northeast-to-southwest slanted edges.  Reading off level + 1 at each
  ``left`` crossing of the path from dent s_k gives, reversed, row m + 1 - k
  of a column-strict plane partition of shape (s_m - m, ..., s_1 - 1) with
  entries in [1, m].  This correspondence is a weight-preserving bijection:
  q^|partition| is exactly the product of the q^(level+1) weights.  The
  dent paths hold every ``left`` and ``vertical`` lozenge, so the inverse
  needs no search: replay them, then fill the rest with ``right`` lozenges.
"""

from __future__ import annotations

from .engine import Tiling, enumerate_tilings, tiling_genfun_dp
from .errors import BijectionViolation, InvalidDents, WrongRegionKind
from .poly import LaurentPoly2
from .regions import NO_BOUND, Record, Region, check_positions, check_rows, check_size, dw, up

LEFT = "left"
RIGHT = "right"
VERTICAL = "vertical"

# kind -> (offset of the entry cell dw(x, y)'s mate up(...), move from (x, y))
TOP_STEPS = {LEFT: ((0, 0), (0, 1)), RIGHT: ((1, 0), (1, 1))}
DENT_STEPS = {LEFT: ((0, 0), (-1, 0)), VERTICAL: ((0, -1), (-1, -1))}


def classify_lozenge(pair, a: int):
    """(kind, level) of a lozenge in an a-row semihexagon."""
    c1, c2 = pair
    u = c1 if c1.kind == "up" else c2
    d = c2 if c1.kind == "up" else c1
    if u.y == d.y:
        kind = LEFT if u.x == d.x else RIGHT
    else:
        kind = VERTICAL
    return kind, a - u.y


def enumerate_lozenge_tilings(region: Region):
    """Deterministic stream of all lozenge tilings (see engine for the order)."""
    if region.lattice != "triangular":
        raise WrongRegionKind("expected a triangular-lattice region")
    return enumerate_tilings(region)


def weighted_sh_genfun(region: Region, left_weight, right_weight):
    """Sum over tilings of the product of per-lozenge weights, exact.

    A left lozenge at level k weighs ``left_weight(k)``, a right one the
    constant ``right_weight`` and a vertical one 1.  The sum is by the DP,
    :func:`tiling_genfun_dp`.
    """
    a = region.semihex_params[0]

    def weight(pair):
        kind, level = classify_lozenge(pair, a)
        return left_weight(level) if kind == LEFT else right_weight if kind == RIGHT else 1

    return tiling_genfun_dp(region, weight)


def semihex_q_genfun(region: Region) -> LaurentPoly2:
    """Sum over tilings of q^(sum of (level+1) over left lozenges)."""
    return weighted_sh_genfun(region, lambda k: LaurentPoly2.term(1, q=k + 1), LaurentPoly2.one())


def top_bottom_paths(tiling: Tiling):
    """Decompose a tiling into its b top-to-bottom paths.

    Returns one (lefts, rights, exit_position) triple per path, in order of
    the starting top edge.  Raises BijectionViolation if the mask is no
    tiling, or if a walk meets a vertical lozenge, which the geometry forbids.
    """
    tiling.require_valid()
    b = tiling.region.semihex_params[1]
    out = []
    for j in range(1, b + 1):
        steps, (x, _) = tiling.walk(j, 1, dw, TOP_STEPS)
        rights = sum(kind == RIGHT for kind, _, _ in steps)
        out.append((len(steps) - rights, rights, x))
    return out


# ---------------------------------------------------------------------------
# column-strict plane partitions


class ColumnStrictPlanePartition(Record):
    """Rows weakly decrease; columns strictly decrease; entries in [1, max_entry]; checked when built."""

    FIELDS = ("shape", "rows", "max_entry")

    def _checked(self, shape: tuple, rows: tuple, max_entry: int) -> tuple:
        check_size("max_entry", max_entry, BijectionViolation)
        rows = check_rows("rows", rows, BijectionViolation)
        if tuple(len(r) for r in rows) != shape:
            raise BijectionViolation(f"row lengths {rows} do not match shape {shape}")
        if any(x < y for x, y in zip(shape, shape[1:])):
            raise BijectionViolation(f"shape {shape} is not weakly decreasing")
        for row in rows:
            if not all(type(v) is int and 1 <= v <= max_entry for v in row):
                raise BijectionViolation(f"entries out of range in {row}")
            if any(row[k] < row[k + 1] for k in range(len(row) - 1)):
                raise BijectionViolation(f"row {row} not weakly decreasing")
        if any(a <= b for upper, lower in zip(rows, rows[1:]) for a, b in zip(upper, lower)):
            raise BijectionViolation("columns must strictly decrease")
        return shape, rows, max_entry

    @property
    def size(self) -> int:
        return sum(sum(r) for r in self.rows)

    def q_weight(self) -> LaurentPoly2:
        return LaurentPoly2.term(1, q=self.size)


def cspp_shape(m: int, s) -> tuple:
    """(s_m - m, s_{m-1} - (m-1), ..., s_1 - 1)."""
    s = check_positions(m, NO_BOUND, s, InvalidDents)  # the positions have no upper bound
    return tuple(s[j] - (j + 1) for j in range(m - 1, -1, -1))


def enumerate_cspp(shape, max_entry: int):
    """All column-strict plane partitions of the given shape, exactly once.

    Rows are generated top-down, entries left-to-right and descending, which
    fixes the stream order.  This enumerator is independent of the lozenge
    bijection and serves as its oracle.  A shape that is no sequence of ints
    (bools refused), empty, negative or not weakly decreasing is no
    ``cspp_shape(m, s)``, and so is a ``max_entry`` that is not an int >= 1:
    each raises InvalidDents at the call, before the first partition is asked for.
    """
    try:
        shape = tuple(shape)
    except TypeError:
        raise InvalidDents(f"shape must be a sequence, got {shape!r}") from None
    # shape == cspp_shape(m, dents); an entry that is no int is passed on for check_positions to refuse
    dents = tuple(x + j if type(x) is int else x for j, x in enumerate(reversed(shape), start=1))
    check_positions(len(shape), NO_BOUND, dents, InvalidDents)
    check_size("max_entry", max_entry, InvalidDents)

    def gen_row(length, above):
        def rec(j, prev):
            if j == length:
                yield ()
                return
            hi = min(prev, above[j] - 1 if above is not None else max_entry)
            for v in range(hi, 0, -1):
                for rest in rec(j + 1, v):
                    yield (v,) + rest

        yield from rec(0, max_entry)

    def rows_from(i, above):
        if i == len(shape):
            yield ()
            return
        for row in gen_row(shape[i], above):
            for rest in rows_from(i + 1, row):
                yield (row,) + rest

    return (ColumnStrictPlanePartition(shape, rows, max_entry) for rows in rows_from(0, None))


def tiling_to_cspp(tiling: Tiling) -> ColumnStrictPlanePartition:
    """Read the plane partition off the dent-to-northwest path system; BijectionViolation for a non-tiling."""
    tiling.require_valid()
    m, _, s = tiling.region.semihex_params
    rows = []
    for i in range(1, m + 1):  # row i of the partition belongs to dent s_{m+1-i}
        steps, _ = tiling.walk(s[m - i] - 1, m, dw, DENT_STEPS)
        rows.append(tuple(m - y + 1 for kind, _, y in reversed(steps) if kind == LEFT))
    # no exit check: a path crosses s_k - 1 lozenges, so the row length checked on construction fixes its end
    return ColumnStrictPlanePartition(cspp_shape(m, s), tuple(rows), m)


def cspp_to_tiling(pi: ColumnStrictPlanePartition, region: Region) -> Tiling:
    """Inverse reading, built by :meth:`Tiling.from_paths`: replay the dent
    paths, then pair every down-triangle off them with the up-triangle to its
    right.  A dent path rises by vertical steps to the row at level e - 1 of
    each entry e, takes a left step there, and ends with verticals."""
    m, _, s = region.semihex_params
    if pi.shape != cspp_shape(m, s) or pi.max_entry != m:
        raise BijectionViolation("partition shape does not match the region's dents")
    walks = []
    for i, row in enumerate(pi.rows, start=1):
        dent, kinds, reads = s[m - i], [], 1  # a left step here would read 1
        for e in reversed(row):
            kinds += [VERTICAL] * (e - reads) + [LEFT]
            reads = e
        walks.append((dent - 1, m, kinds + [VERTICAL] * (dent - 1 - len(kinds))))
    # a path whose steps fit ends in its row: the shape fixes its left steps
    return Tiling.from_paths(region, walks, dw, up, DENT_STEPS)
