"""Matching-preserving rewrites, ending in the full peeling pipeline.

Urban renewal turns each weighted diamond face into a smaller one at the
cost of a factor x*z + y*t; peeling a holey rectangle graph row by row
deposits a weighted semihexagon and the closed-form factor
q^((m-1)m(m+1)/3) * prod Delta_k^(m-k+1).
"""

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import aztecgf as az
from aztecgf.formulas import peel_target_factor
from aztecgf.lozenge import weighted_sh_genfun
from aztecgf.poly import LaurentPoly2
from aztecgf.rewrite import reduce_rectangle_to_semihexagon

m, n, s = 2, 3, (1, 3)
a, b, c, d = Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5)

res = reduce_rectangle_to_semihexagon(m, n, s, a, b, c, d)
print(f"peeled AR({m}, {n}) keeping {s} with (a, b, c, d) = (2, 3, 1/2, 5)")
print("renewals applied:", res.spider_count)
print("accumulated factor:", res.factor.to_text())
target = peel_target_factor(m, a, b, c, d)
print("closed-form target:", target.to_text())
print("factor matches:", res.factor == target)

start = az.matching_genfun(az.weighted_ar_graph(m, n, s, a, b, c, d))
final = az.matching_genfun(res.graph)
print("\nM(start) == factor * M(final):", start == res.factor * final)

sh = az.semihexagon_with_dents(m, n - m, s)
m_tilde = weighted_sh_genfun(sh, lambda k: LaurentPoly2.term(a, q=k + 1), LaurentPoly2.const(b))
print("M(final) == weighted semihexagon:", final == m_tilde)
print("\nclosed product for the same graph:")
print(" ", az.weighted_rectangle_matching_genfun(m, n, s, a, b, c, d).to_text())
print("  equals M(start):", az.weighted_rectangle_matching_genfun(m, n, s, a, b, c, d) == start)
