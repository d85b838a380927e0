"""The two enumeration kernels racing, and a picture to finish.

The backtracking oracle touches every tiling; the frontier DP sweeps
antidiagonals and only ever sees a thin profile, which is why order 12 with
its 302231454903657293676544 tilings is instant.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import aztecgf as az
from aztecgf.render import render_ascii, render_svg

for order in (2, 3, 4):
    region = az.aztec_diamond(order)
    t0 = time.perf_counter()
    brute = sum(1 for _ in az.enumerate_tilings(region))
    t1 = time.perf_counter()
    dp = az.tiling_genfun_dp(region)
    t2 = time.perf_counter()
    print(f"order {order}: brute {brute} ({t1 - t0:.4f}s)  dp {dp} ({t2 - t1:.4f}s)")

t0 = time.perf_counter()
big = az.tiling_genfun_dp(az.aztec_diamond(12))
print(f"order 12: dp {big} ({time.perf_counter() - t0:.3f}s), 2^78 = {2**78}")

t_min = az.minimal_tiling(az.aztec_rectangle_with_holes(3, 6, (1, 4, 6)))
print("\nminimal tiling of AR(3, 6) keeping (1, 4, 6):\n")
print(render_ascii(t_min.region, t_min))

out = os.path.join(os.path.dirname(__file__), "minimal_tiling.svg")
with open(out, "wb") as fh:
    fh.write(render_svg(t_min.region, t_min, paths=True))
print(f"wrote {out}")
