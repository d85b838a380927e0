"""Lozenge tilings of a dented semihexagon as column-strict plane partitions.

Each tiling is read off its dent-to-northwest path system; the exponents met
along the paths fill a column-strict plane partition, and q^|partition| is
exactly the level-weighted lozenge weight of the tiling.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import aztecgf as az
from aztecgf.lozenge import cspp_shape, semihex_q_genfun

m, b, s = 3, 3, (1, 4, 6)
n = m + b
region = az.semihexagon_with_dents(m, b, s)
print(f"semihexagon with {m} rows, base {m + b}, dents at {s}")
print(f"tilings: {az.count_tilings(region)} = prod (s_j - s_i)/(j - i)")
print(f"partition shape: {cspp_shape(m, s)}, entries at most {m}\n")

for tiling in az.enumerate_lozenge_tilings(region):
    pi = az.tiling_to_cspp(tiling)
    assert az.cspp_to_tiling(pi, region) == tiling
    print(f"  rows {pi.rows!s:28} |pi| = {pi.size}")

print("\nsum of q^|pi| =", semihex_q_genfun(region).to_text())
print("product form  =", az.cspp_genfun_product(s, m).to_text())
dominoes = az.count_tilings(az.aztec_rectangle_with_holes(m, n, s))
lozenges = az.count_tilings(region)
holds = dominoes == 2 ** (m * (m + 1) // 2) * lozenges
print(f"\ndomino/lozenge relation: {dominoes} = 2^{m*(m+1)//2} * {lozenges} -> {holds}")
