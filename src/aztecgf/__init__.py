"""Exact enumeration of domino and lozenge tilings of Aztec-style regions.

The package computes tiling generating functions of Aztec diamonds, Aztec
rectangles with holes and dented semihexagons with exact rational big-number
arithmetic, and verifies every closed product formula against independent
brute-force oracles.  See the README for a tour.

Each public name is imported from its module on first use (PEP 562), so
``import aztecgf.cli`` loads only the modules the command line runs.
"""

from importlib import import_module

__version__ = "1.0.0"
_HOME = {name: module for module, names in (  # public name -> the module that defines it
    ("engine", "Tiling count_matchings count_tilings enumerate_matchings enumerate_tilings graph_genfun_dp "
               "matching_genfun tiling_genfun_dp"),
    ("formulas", "aztec_diamond_genfun cspp_genfun_product count_product prefactor_exponent rectangle_genfun "
                 "shifted_content_exponent weighted_rectangle_matching_genfun"),
    ("lozenge", "ColumnStrictPlanePartition cspp_to_tiling enumerate_cspp enumerate_lozenge_tilings "
                "tiling_to_cspp weighted_sh_genfun"),
    ("poly", "LaurentPoly2 q_ratio_product"),
    ("regions", "Cell Region WeightedGraph aztec_diamond aztec_rectangle_with_holes checkerboard_coloring "
                "dual_graph semihexagon_with_dents weighted_ar_graph"),
    ("rewrite", "connected_sum reduce_rectangle_to_semihexagon remove_forced spider_replace star_scale vertex_split"),
    ("stats", "SchroderPathFamily elementary_moves genfun_bruteforce genfun_via_weights minimal_tiling path_stats "
              "paths_to_tiling rank_bfs rank_via_paths tiling_to_paths vstat"),
) for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name):
    if (module := _HOME.get(name)) is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)  # later lookups skip this
    return value


def __dir__():
    return sorted({*globals(), *__all__})
