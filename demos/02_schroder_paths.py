"""The tiling <-> non-intersecting Schröder path bijection, step by step.

Every tiling of a holey Aztec rectangle decomposes into m non-intersecting
paths built from up (1,1), down (1,-1) and level (2,0) steps.  The rank of
the tiling is the q-exponent of the path family's weight above the minimal
family's, which gives a second, BFS-free way to compute ranks.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import aztecgf as az

m, n, s = 2, 4, (1, 3)
region = az.aztec_rectangle_with_holes(m, n, s)
print(f"AR({m}, {n}) keeping {s}: {az.count_tilings(region)} tilings\n")

for k, tiling in enumerate(az.enumerate_tilings(region)):
    family = az.tiling_to_paths(tiling)
    st = az.path_stats(family)
    r_bfs = az.rank_bfs(region, tiling)
    r_path = az.rank_via_paths(tiling)
    steps = ["".join(kind[0].upper() for kind in p) for p in family.paths]
    print(
        f"tiling {k:2d}: paths {steps!s:24} beta={st.beta:2d} "
        f"rank(bfs)={r_bfs} rank(paths)={r_path} v={az.vstat(tiling)} "
        f"roundtrip={az.paths_to_tiling(family, region) == tiling}"
    )

print("\nidentities on every tiling:")
print("  up - down = s_i - i, down + level = i, v + level = m(m+1)/2")
