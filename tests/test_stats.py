"""Minimal tilings, flips, rank, the path bijection, and the two F(q,t) routes."""

import random
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations, islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aztecgf import stats
from aztecgf.engine import Tiling, count_tilings, enumerate_tilings
from aztecgf.errors import (BijectionViolation, InvalidHoles, OddVerticalCount, RegionTooWide, TooManyTilings,
                           Unreachable)
from aztecgf.formulas import aztec_diamond_genfun, rectangle_genfun, shifted_content_exponent
from aztecgf.lozenge import tiling_to_cspp, top_bottom_paths
from aztecgf.poly import LaurentPoly2
from aztecgf.regions import aztec_diamond, aztec_rectangle_with_holes, domino_class, semihexagon_with_dents, sq
from aztecgf.stats import (
    STEPS,
    SchroderPathFamily,
    _flip_blocks,
    domino_weight,
    elementary_moves,
    genfun_bruteforce,
    genfun_via_weights,
    minimal_path_family,
    minimal_tiling,
    path_stats,
    paths_to_tiling,
    rank_bfs,
    rank_distances,
    rank_via_paths,
    tiling_to_paths,
    vstat,
)

TQ = LaurentPoly2.term(1, q=1, t=1)


def vertical_count(tiling):
    return sum(1 for c1, c2 in tiling.dominoes if c1.x == c2.x)


def test_minimal_tiling_strips():
    t0 = minimal_tiling(aztec_rectangle_with_holes(3, 6, (1, 4, 6)))
    assert t0.is_valid()
    # holes at 2, 3, 5 get strips of lengths 2, 2, 1
    assert vertical_count(t0) == 5
    assert (sq(1, 1), sq(1, 2)) in t0.dominoes
    assert (sq(0, 2), sq(0, 3)) in t0.dominoes
    assert (sq(2, 2), sq(2, 3)) in t0.dominoes
    assert (sq(1, 3), sq(1, 4)) in t0.dominoes
    assert (sq(4, 4), sq(4, 5)) in t0.dominoes
    assert rank_bfs(t0) == 0


def test_rank_bfs_refuses_past_the_brute_force_limit():
    # the order-6 diamond has 2^21 tilings, 8 times MAX_BRUTE_TILINGS; the library's refusal names its limit
    # and no CLI method, whose remedy is the CLI's admission's to give
    for m, n, s, bits in ((6, 6, range(1, 7), 22), (5, 16, (2, 5, 9, 12, 16), 34)):
        reason = f"^a {bits}-bit tiling count, over the brute-force limit of 262144 tilings$"
        with pytest.raises(TooManyTilings, match=reason):
            rank_bfs(minimal_tiling(aztec_rectangle_with_holes(m, n, s)))
        with pytest.raises(TooManyTilings, match=reason):
            genfun_bruteforce(m, n, s)


def test_admit_gives_every_case_of_the_cap_table_its_verdict(monkeypatch):
    # README's limits table, by route: each admitted case is under its cap and each refused one over it; and
    # the closed product refuses AR(600, 1200; 2, 4, ..., 1200) without taking its tiling count
    def key(kind, a, b, first, last, step=2):
        return kind, a, b, tuple(range(first, last + 1, step))

    table = [("count", "dp", ("aztec_diamond", 22), True), ("count", "dp", key("semihexagon", 24, 24, 2, 48), True),
             ("count", "dp", ("aztec_diamond", 23), False),
             ("count", "dp", key("semihexagon", 24, 48, 3, 72, 3), False),
             ("genfun", "dp", key("aztec_rectangle", 12, 24, 2, 24), True),
             ("genfun", "dp", key("aztec_rectangle", 13, 26, 2, 26), False),
             ("genfun", "closed", key("aztec_rectangle", 21, 42, 2, 42), True),
             ("genfun", "closed", key("aztec_rectangle", 30, 30, 1, 30, 1), True),
             ("genfun", "closed", key("aztec_rectangle", 22, 44, 2, 44), False)]
    for command, method, region, admitted in table:
        if admitted:
            stats.admit(command, method, region)
        else:
            with pytest.raises(RegionTooWide, match=f"^a predicted {stats.ROUTES[command][method]} cost of "):
                stats.admit(command, method, region)

    def no_count(s):
        raise AssertionError("took the tiling count of a region the closed product refuses")

    monkeypatch.setattr(stats, "falling_ratio", no_count)
    with pytest.raises(RegionTooWide, match="^a predicted closed product cost of "):
        stats.admit("genfun", "closed", key("aztec_rectangle", 600, 1200, 2, 1200))


def test_minimal_tiling_verticals_are_the_hole_strips():
    # beside the i-th hole h: cells (h-l, h+l-2), (h-l, h+l-1) for
    # l = 1..m-(h-i), and no other vertical domino
    for m in range(1, 5):
        for n in range(m, 8):
            for s in combinations(range(1, n + 1), m):
                holes = [h for h in range(1, n + 1) if h not in s]
                strips = {(sq(h - l, h + l - 2), sq(h - l, h + l - 1))
                          for i, h in enumerate(holes, start=1) for l in range(1, m - (h - i) + 1)}
                t0 = minimal_tiling(aztec_rectangle_with_holes(m, n, s))
                assert {(c1, c2) for c1, c2 in t0.dominoes if c1.x == c2.x} == strips, (m, n, s)


def test_minimal_tiling_of_diamond_is_all_horizontal():
    for n in (1, 2, 3):
        t0 = minimal_tiling(aztec_diamond(n))
        assert vertical_count(t0) == 0
        assert vstat(t0) == 0


def test_minimal_tiling_is_a_tiling_of_the_region_it_is_handed():
    # a diamond's minimal tiling belongs to the diamond, not to a rectangle-keyed copy
    for n in (1, 2, 3):
        region = aztec_diamond(n)
        t0 = minimal_tiling(region)
        assert t0.region is region and t0 in set(enumerate_tilings(region))


def test_vstat():
    region = aztec_rectangle_with_holes(1, 1, (1,))
    all_v = Tiling.from_dominoes(
        region, [(sq(0, 0), sq(0, 1)), (sq(1, 0), sq(1, 1))]
    )
    assert vstat(all_v) == 1
    assert genfun_bruteforce(2, 2, (1, 2)).evaluate(1, Fraction(1)) == 8


def test_vstat_sum_at_q1():
    f = genfun_bruteforce(2, 2, (1, 2))
    by_t = {}
    for (eq, et), c in f.sorted_terms():
        by_t[et] = by_t.get(et, 0) + c
    # (1+t)^2 (1+t) = 1 + 3t + 3t^2 + t^3
    assert by_t == {0: 1, 1: 3, 2: 3, 3: 1}


def test_vstat_counts_white_bottomed_verticals_exhaustively():
    # the mask reading against a walk over the tiles, on all 3,126 tilings
    for m in range(1, 4):
        for n in range(m, 6):
            for s in combinations(range(1, n + 1), m):
                for tiling in enumerate_tilings(aztec_rectangle_with_holes(m, n, s)):
                    downs = sum(1 for c1, c2 in tiling.dominoes
                                if c1.x == c2.x and (min(c1.y, c2.y) + c1.x) % 2 == 1)
                    assert vstat(tiling) == downs, (m, n, s)


def test_vstat_guard_fires_on_garbage():
    # two tiles on four cells, one covered twice: the tile count is right, but vstat
    # validates the tiling before it counts; one tile alone is refused the same way
    region = aztec_rectangle_with_holes(1, 1, (1,))
    fake = Tiling.from_dominoes(region, [(sq(0, 0), sq(0, 1)), (sq(0, 0), sq(1, 0))])
    with pytest.raises(BijectionViolation, match="not a tiling"):
        vstat(fake)
    with pytest.raises(BijectionViolation, match="not a tiling"):
        vstat(Tiling.from_dominoes(region, [(sq(0, 0), sq(0, 1))]))


def test_elementary_moves():
    t0 = minimal_tiling(aztec_rectangle_with_holes(1, 1, (1,)))
    moves = elementary_moves(t0)
    assert len(moves) == 1
    assert vertical_count(moves[0]) == 2
    # involution
    assert t0 in elementary_moves(moves[0])
    # a lozenge tiling has no 2x2 block of dominoes to rotate
    assert elementary_moves(next(enumerate_tilings(semihexagon_with_dents(3, 2, (1, 3, 4))))) == []


def test_flip_graph_of_order_two_diamond():
    region = aztec_rectangle_with_holes(2, 2, (1, 2))
    tilings = list(enumerate_tilings(region))
    assert len(tilings) == 8
    ranks = sorted(rank_bfs(t) for t in tilings)
    assert ranks == [0, 1, 1, 2, 3, 4, 4, 5]


def test_every_flip_is_undone_by_a_flip_and_moves_the_rank_by_one():
    # the flip graph is graded by rank, on every tiling of every m <= 3, n <= 5
    # holey rectangle; suite_rank equates rank_bfs with rank_via_paths there
    flips = 0
    for m in range(1, 4):
        for n in range(m, 6):
            for s in combinations(range(1, n + 1), m):
                for tiling in enumerate_tilings(aztec_rectangle_with_holes(m, n, s)):
                    rank = rank_bfs(tiling)
                    for move in elementary_moves(tiling):
                        assert tiling in elementary_moves(move)
                        assert abs(rank_bfs(move) - rank) == 1, (m, n, s)
                        flips += 1
    assert flips == 15698


def test_flipping_the_first_pair_raises_the_path_rank_by_one():
    # the grading the rank BFS relies on when it follows only rising flips, read off the path
    # route, which shares no code with the BFS: on every tiling of every m <= 3, n <= 5 holey
    # rectangle and of the diamonds of order <= 4, flipping a block's first pair away raises
    # rank_via_paths by exactly 1, flipping its second pair away lowers it by exactly 1, and the
    # minimal tiling has no falling flip
    regions = [aztec_rectangle_with_holes(m, n, s) for m in range(1, 4) for n in range(m, 6)
               for s in combinations(range(1, n + 1), m)] + [aztec_diamond(k) for k in range(1, 5)]
    flips = Counter()
    for region in regions:
        blocks = _flip_blocks(region)[0]
        rank = {tiling.mask: rank_via_paths(tiling) for tiling in enumerate_tilings(region)}
        for mask, r in rank.items():
            for _, rise, fall in blocks:
                for held, step in ((rise, 1), (fall, -1)):
                    if mask & held == held:
                        assert rank[mask ^ rise ^ fall] == r + step, (region.key, mask)
                        flips[step] += 1
        root = minimal_tiling(region).mask
        assert rank[root] == 0 and not any(root & fall == fall for _, _, fall in blocks), region.key
    assert flips[1] == flips[-1] == 11195


def flip_blocks_from_cells(region):
    # every 2x2 block of the region, as its (horizontal, vertical) pairs of domino indices
    index, blocks = region.domino_index, []
    for c in region.sorted_cells:
        se, nw, ne = sq(c.x + 1, c.y), sq(c.x, c.y + 1), sq(c.x + 1, c.y + 1)
        if {se, nw, ne} <= region.cells:
            blocks.append(({index[c, se], index[nw, ne]}, {index[c, nw], index[se, ne]}))
    return blocks


def flips_from_cells(tiling, blocks):
    # each tiling one flip away, as a set of domino indices: every block re-tested
    for hpair, vpair in blocks:
        for held, put in ((hpair, vpair), (vpair, hpair)):
            if held <= tiling:
                yield (tiling - held) | put


def reference_rank_distances(region):
    # the flip BFS written plainly: a deque of tilings as sets of domino indices,
    # and every block of the region re-tested at every tiling
    blocks = flip_blocks_from_cells(region)
    root = frozenset(k for k in range(len(region.all_dominoes)) if minimal_tiling(region).mask >> k & 1)
    dist, queue = {root: 0}, deque([root])
    while queue:
        cur = queue.popleft()
        for nxt in flips_from_cells(cur, blocks):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return [(sum(1 << k for k in tiling), d) for tiling, d in dist.items()]


def test_rank_distances_match_a_plain_bfs_in_order():
    # same masks, same ranks, same insertion order, on every m <= 3, n <= 5 region and two m = 4, n = 7 ones
    cases = [(m, n, s) for m in range(1, 4) for n in range(m, 6) for s in combinations(range(1, n + 1), m)]
    for m, n, s in cases + [(4, 7, (1, 3, 4, 5)), (4, 7, (3, 5, 6, 7))]:
        region = aztec_rectangle_with_holes(m, n, s)
        assert list(rank_distances(region).items()) == reference_rank_distances(region), (m, n, s)


def test_paths_of_tiny_tilings():
    region = aztec_rectangle_with_holes(1, 1, (1,))
    t0 = minimal_tiling(region)
    fam = tiling_to_paths(t0)
    assert fam.paths[0] == ("level",)
    assert path_stats(fam).beta == 0
    all_v = Tiling.from_dominoes(region, [(sq(0, 0), sq(0, 1)), (sq(1, 0), sq(1, 1))])
    fam_v = tiling_to_paths(all_v)
    assert fam_v.paths[0] == ("up", "down")
    assert path_stats(fam_v).beta == 1
    assert rank_via_paths(all_v) == 1


def test_tiling_to_paths_rejects_an_uncovered_cell():
    region = aztec_rectangle_with_holes(1, 1, (1,))
    partial = Tiling.from_dominoes(region, [(sq(1, 0), sq(1, 1))])  # path 1 starts at sq(0, 0)
    with pytest.raises(BijectionViolation, match="uncovered"):
        tiling_to_paths(partial)


def test_readers_refuse_every_tiling_with_one_extra_tile():
    # such a mask covers some cell twice; each reader refuses it before it walks,
    # whichever of the overlapping tiles a walk would meet
    readers = [(aztec_rectangle_with_holes(m, n, s), (tiling_to_paths,))
               for m, n in ((1, 3), (2, 3), (2, 4), (3, 4)) for s in combinations(range(1, n + 1), m)]
    readers += [(semihexagon_with_dents(a, b, s), (tiling_to_cspp, top_bottom_paths))
                for a, b in ((2, 1), (3, 1), (3, 2)) for s in combinations(range(1, a + b + 1), a)]
    masks = 0
    for region, reads in readers:
        for tiling in enumerate_tilings(region):
            for k in range(len(region.all_dominoes)):
                if not tiling.mask >> k & 1:
                    masks += 1
                    for read in reads:
                        with pytest.raises(BijectionViolation, match="not a tiling"):
                            read(Tiling(region, tiling.mask | 1 << k))
    assert masks == 18252


def test_elementary_moves_refuses_every_tiling_with_one_extra_tile():
    # such a mask covers some cell twice; a flip of it would be no tiling either, and
    # vstat, which sees only the vertical counts, refuses it by its tile count
    masks, refused = 0, {elementary_moves: 0, vstat: 0}
    for m in range(1, 4):
        for n in range(m, 6):
            for s in combinations(range(1, n + 1), m):
                region = aztec_rectangle_with_holes(m, n, s)
                for tiling in enumerate_tilings(region):
                    for k in range(len(region.all_dominoes)):
                        if not tiling.mask >> k & 1:
                            masks += 1
                            extra = Tiling(region, tiling.mask | 1 << k)
                            for read in refused:
                                try:
                                    read(extra)
                                except BijectionViolation as error:  # pytest.raises on each mask doubled the time
                                    refused[read] += str(error).startswith("not a tiling")
    assert masks == refused[elementary_moves] == refused[vstat] == 108156


def test_minimal_path_family_rejects_mismatched_holes():
    with pytest.raises(InvalidHoles):
        minimal_path_family(2, 3, (1,))


def test_path_family_validation_refuses_broken_paths():
    # one path from height 0 on AR(1, 1; 1): up - down = 0 and down + level = 1
    for path, message in ((("sideways",), "unknown step 'sideways'"),
                          (("down",), "below the baseline"),
                          (("up", "level"), "up - down"),
                          ((), "down \\+ level")):
        with pytest.raises(BijectionViolation, match=message):
            SchroderPathFamily(1, 1, (1,), (path,))
    assert SchroderPathFamily(1, 1, (1,), (("level",),))
    # one path too few on the order-2 diamond, and one too many on AR(1, 1; 1)
    for m, s, paths, message in ((2, (1, 2), (("level",),), r"number of paths 1 != len\(s\) = 2"),
                                 (1, (1,), (("level",), ("level", "level")), r"number of paths 2 != len\(s\) = 1")):
        with pytest.raises(BijectionViolation, match=message):
            SchroderPathFamily(m, m, s, paths)


def test_a_family_keeps_tuples_so_it_hashes_and_equals_the_one_read_back():
    # s and the paths may arrive as lists; the family keeps them as tuples
    tiling = minimal_tiling(aztec_rectangle_with_holes(1, 1, (1,)))
    read_back = tiling_to_paths(tiling)
    for family in (SchroderPathFamily(1, 1, [1], (("level",),)), SchroderPathFamily(1, 1, (1,), [["level"]])):
        assert family == read_back and hash(family) == hash(read_back)
        assert family.s == (1,) and family.paths == (("level",),)
        assert paths_to_tiling(family, tiling.region) == tiling


def _kind_tuples(i, s_i):
    """Every tuple of step kinds with down + level = i and up - down = s_i - i."""
    for length in range(s_i, s_i + i + 1):  # s_i + down steps
        for kinds in product(STEPS, repeat=length):
            downs = kinds.count("down")
            if downs + kinds.count("level") == i and kinds.count("up") - downs == s_i - i:
                yield kinds


def test_path_families_biject_with_tilings_exhaustively():
    # from the path side: of all families with the right step counts, exactly
    # count_tilings(region) replay to a tiling, and each reads back unchanged
    for m in range(1, 4):
        for n in range(m, 5):
            for s in combinations(range(1, n + 1), m):
                region = aztec_rectangle_with_holes(m, n, s)
                replayed = 0
                for paths in product(*(list(_kind_tuples(i, s_i)) for i, s_i in enumerate(s, start=1))):
                    try:
                        family = SchroderPathFamily(m, n, s, paths)
                        tiling = paths_to_tiling(family, region)
                    except BijectionViolation:
                        continue
                    replayed += 1
                    assert tiling_to_paths(tiling) == family
                assert replayed == count_tilings(region), (m, n, s)


@st.composite
def drawn_families(draw):
    """(m, n, s, paths) on the m <= 3, n <= 5 corpus, with at times one flaw in
    the positions; each path's step counts are right, and at times one step is
    replaced by an unknown kind, a bool or another kind."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 5))
    s = sorted(draw(st.lists(st.integers(1, n), min_size=m, max_size=m, unique=True)))
    flaw = draw(st.sampled_from((None, None, None, "m", "n", "s", "bool")))
    if flaw == "m":
        m = 0
    elif flaw == "n":
        n = m - 1
    elif flaw == "s":
        s[-1] = n + 1
    elif flaw == "bool":
        s[0] = draw(st.booleans())
    paths = []
    for i, s_i in enumerate(s, start=1):
        down = draw(st.integers(0, i))
        path = draw(st.permutations(["down"] * down + ["level"] * (i - down) + ["up"] * (s_i - i + down)))
        if path and draw(st.integers(0, 3)) == 0:
            path[draw(st.integers(0, len(path) - 1))] = draw(st.sampled_from(("sideways", True, False, "up")))
        paths.append(tuple(path))
    return m, n, tuple(s), tuple(paths)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drawn_families())
def test_a_drawn_family_is_refused_when_built_or_read_without_error(case):
    m, n, s, paths = case
    try:
        family = SchroderPathFamily(m, n, s, paths)
    except BijectionViolation:
        return
    stats = path_stats(family)
    assert sum(stats.down) + stats.level_total == m * (m + 1) // 2
    try:
        tiling = paths_to_tiling(family, aztec_rectangle_with_holes(m, n, s))
    except BijectionViolation:
        return
    assert tiling_to_paths(tiling) == family


def test_minimal_path_family_weight_exponent():
    fam = minimal_path_family(3, 6, (1, 4, 6))
    assert path_stats(fam).beta == 30
    assert shifted_content_exponent(3, (1, 4, 6)) == 30
    # the family reproduces the minimal tiling, and extraction recovers it
    region = aztec_rectangle_with_holes(3, 6, (1, 4, 6))
    t0 = minimal_tiling(region)
    assert paths_to_tiling(fam, region) == t0
    assert tiling_to_paths(t0) == fam


def test_degenerate_paths_allowed():
    # s_i = i gives the diamond: path i has no up steps, i level steps
    fam = minimal_path_family(2, 2, (1, 2))
    st = path_stats(fam)
    assert st.up == (0, 0) and st.level == (1, 2)


def test_roundtrip_exhaustive():
    for m, n, s in ((2, 2, (1, 2)), (2, 4, (1, 3)), (1, 2, (2,))):
        region = aztec_rectangle_with_holes(m, n, s)
        for tiling in enumerate_tilings(region):
            fam = tiling_to_paths(tiling)
            assert paths_to_tiling(fam, region) == tiling


def test_rank_agreement_small():
    for m, n, s in ((2, 3, (1, 3)), (3, 4, (1, 2, 4)), (2, 4, (2, 3))):
        region = aztec_rectangle_with_holes(m, n, s)
        for tiling in enumerate_tilings(region):
            assert rank_bfs(tiling) == rank_via_paths(tiling)


def test_diamond_tilings_have_rank_paths_and_vstat():
    # sum of q^rank * t^vstat over the diamond's own tilings is the EKLP product
    for n in (1, 2, 3):
        region = aztec_diamond(n)
        f = LaurentPoly2.zero()
        for tiling in enumerate_tilings(region):
            rank = rank_bfs(tiling)
            assert rank == rank_via_paths(tiling)
            f = f + LaurentPoly2.term(1, q=rank, t=vstat(tiling))
        assert f == aztec_diamond_genfun(n)
    with pytest.raises(ValueError):
        vstat(next(enumerate_tilings(semihexagon_with_dents(2, 1, (1, 3)))))


def test_genfun_bruteforce_examples():
    assert genfun_bruteforce(1, 1, (1,)) == 1 + TQ
    assert genfun_bruteforce(1, 2, (2,)) == 1 + TQ
    assert genfun_bruteforce(2, 2, (1, 2)) == aztec_diamond_genfun(2)


def test_genfun_bruteforce_builds_its_region_once(monkeypatch):
    # the rank BFS roots at the minimal tiling of the region it is handed, not of a rebuilt copy
    from aztecgf import regions, stats

    built = []
    build = regions._ar_region
    monkeypatch.setattr(regions, "_ar_region", lambda *args: built.append(args) or build(*args))
    stats.rank_distances.cache_clear()
    genfun_bruteforce(3, 5, (1, 3, 4))
    assert built == [(3, 5, (1, 3, 4))]


def test_genfun_bruteforce_refuses_a_flip_bfs_that_missed_or_invented_a_tiling(monkeypatch):
    from aztecgf import stats

    region = aztec_rectangle_with_holes(2, 4, (1, 3))
    dist = stats.rank_distances(region)
    dropped = dict(list(dist.items())[:-1])
    invented = {(1 << len(region.all_dominoes)) - 1: 1}  # every tile at once: no tiling
    # one tiling dropped, one mask that is no tiling added, and both at once (the right total)
    for broken in (dropped, {**dist, **invented}, {**dropped, **invented}):
        monkeypatch.setattr(stats, "rank_distances", lambda region, broken=broken: broken)
        with pytest.raises(Unreachable, match=f"reached {len(broken)} masks, not exactly its {len(dist)} tilings"):
            genfun_bruteforce(2, 4, (1, 3))


def test_genfun_bruteforce_cross_checks_every_vertical_count(monkeypatch):
    # the fold counts masks by (rank, verticals, downs) and checks verticals - offset == 2 * downs once per
    # key; an offset off by 2 breaks that on every key, so the check must fire before any term is kept
    from aztecgf import stats

    vertical_masks = stats._vertical_masks

    def shifted(region):
        vertical, down, offset = vertical_masks(region)
        return vertical, down, offset + 2

    monkeypatch.setattr(stats, "_vertical_masks", shifted)
    with pytest.raises(OddVerticalCount, match="offset=4"):
        genfun_bruteforce(2, 4, (1, 4))


def test_domino_weight_shares_one_object_per_class():
    # the DP prepares each distinct weight once, found by identity: one (kind, row) class, one object
    for s in ((1, 2, 3, 4, 5), (1, 3, 5, 7, 9), (2, 4, 6, 8, 9), (5, 6, 7, 8, 9)):
        shared = {}
        for dom in aztec_rectangle_with_holes(5, 9, s).all_dominoes:
            assert domino_weight(dom) is shared.setdefault(domino_class(dom), domino_weight(dom))


def test_genfun_via_weights_matches_bruteforce():
    for m, n, s in ((1, 1, (1,)), (1, 3, (2,)), (2, 3, (1, 3)), (3, 3, (1, 2, 3)), (2, 4, (2, 4))):
        assert genfun_via_weights(m, n, s) == genfun_bruteforce(m, n, s)


def test_genfun_via_weights_matches_closed_forms_at_frontier_scale():
    # the weighted DP sweeps tiles and the closed forms multiply products;
    # they share only the packed value type, which test_poly checks alone
    for s in ((1, 3, 5, 7, 9, 11), (1, 2, 3, 10, 11, 12), (3, 4, 7, 8, 11, 12)):
        assert genfun_via_weights(6, 12, s) == rectangle_genfun(6, 12, s)
    assert genfun_via_weights(8, 8, range(1, 9)) == aztec_diamond_genfun(8)


def test_minimal_weight_of_minimal_tiling():
    # wt(T0) as a path product: t^(m(m+1)/2) * q^(shifted content)
    m, n, s = 3, 6, (1, 4, 6)
    st = path_stats(tiling_to_paths(minimal_tiling(aztec_rectangle_with_holes(m, n, s))))
    assert st.level_total == m * (m + 1) // 2
    assert st.beta == shifted_content_exponent(m, s)
    assert st.down == (0, 0, 0)


@st.composite
def holey_rectangles(draw, max_n=10):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(m, max_n))
    s = draw(st.lists(st.integers(1, n), min_size=m, max_size=m, unique=True))
    return m, n, tuple(sorted(s))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(holey_rectangles(), st.integers(0, 2**32))
def test_path_bijection_along_seeded_flip_walks(case, seed):
    # past the exhaustive m <= 3, n <= 5 corpus: walk the flip graph from the
    # minimal tiling, checking the bijection and the path statistics at each
    # tiling and that every flip moves the path rank by exactly one
    m, n, s = case
    rng = random.Random(seed)
    tiling = minimal_tiling(aztec_rectangle_with_holes(m, n, s))
    rank = rank_via_paths(tiling)
    assert rank == 0
    for step in range(41):
        if step:
            moves = elementary_moves(tiling)
            if not moves:
                break
            tiling = rng.choice(moves)
            last, rank = rank, rank_via_paths(tiling)
            assert abs(rank - last) == 1
        fam = tiling_to_paths(tiling)
        again = paths_to_tiling(fam, tiling.region)  # at step 0, fam is minimal_path_family(m, n, s)
        assert again == tiling and again.is_valid()
        # the replay hands its mate to the tiling: it must be the one the mask decodes to
        assert again.mate == Tiling(tiling.region, again.mask).mate
        assert vstat(tiling) + path_stats(fam).level_total == m * (m + 1) // 2


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(holey_rectangles(max_n=6), st.integers(0, 2**32))
def test_elementary_moves_match_a_full_retest_of_every_block(case, index):
    region = aztec_rectangle_with_holes(*case)
    tiling = next(islice(enumerate_tilings(region), index % count_tilings(region), None))
    held = frozenset(k for k in range(len(region.all_dominoes)) if tiling.mask >> k & 1)
    want = sorted(sum(1 << k for k in move) for move in flips_from_cells(held, flip_blocks_from_cells(region)))
    assert [move.mask for move in elementary_moves(tiling)] == want
