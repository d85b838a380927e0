"""Exact enumeration of domino and lozenge tilings of Aztec-style regions.

The package computes tiling generating functions of Aztec diamonds, Aztec
rectangles with holes and dented semihexagons with exact rational big-number
arithmetic, and verifies every closed product formula against independent
brute-force oracles.  See the README for a tour.
"""

from .engine import (
    Tiling,
    count_matchings,
    count_tilings,
    enumerate_matchings,
    enumerate_tilings,
    graph_genfun_dp,
    matching_genfun,
    tiling_genfun_dp,
)
from .formulas import (
    aztec_diamond_genfun,
    cspp_genfun_product,
    count_product,
    prefactor_exponent,
    rectangle_genfun,
    shifted_content_exponent,
    weighted_rectangle_matching_genfun,
)
from .lozenge import (
    ColumnStrictPlanePartition,
    cspp_to_tiling,
    enumerate_cspp,
    enumerate_lozenge_tilings,
    tiling_to_cspp,
    weighted_sh_genfun,
)
from .poly import LaurentPoly2, q_ratio_product
from .regions import (
    Cell,
    Region,
    WeightedGraph,
    aztec_diamond,
    aztec_rectangle_with_holes,
    checkerboard_coloring,
    dual_graph,
    semihexagon_with_dents,
    weighted_ar_graph,
)
from .rewrite import (
    connected_sum,
    reduce_rectangle_to_semihexagon,
    remove_forced,
    spider_replace,
    star_scale,
    vertex_split,
)
from .stats import (
    SchroderPathFamily,
    elementary_moves,
    genfun_bruteforce,
    genfun_via_weights,
    minimal_tiling,
    path_stats,
    paths_to_tiling,
    rank_bfs,
    rank_via_paths,
    tiling_to_paths,
    vstat,
)

__version__ = "1.0.0"
