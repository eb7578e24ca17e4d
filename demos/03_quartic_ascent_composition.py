"""From the quartic model to solution families.

Solving the problem reduces to making a quartic in u a perfect square.
Fermat's square-matching step finds two rational points on v^2 = quartic(u);
the composition rule combines points into new ones; and each point's u
feeds the solver pipeline that ends in a polynomial family.
"""

from squaretriads.multipoly import Poly, RatFunc, var
from squaretriads.pipeline import solution_family_polys
from squaretriads.quartic import QuarticPoint, choudhry_compose, euler_quartic, fermat_ascend

s, t = var("s"), var("t")
S, T = RatFunc(s), RatFunc(t)

quartic = euler_quartic(S, T)
print("the quartic model v^2 = u^4 + a1 u^3 + a2 u^2 + a3 u + a4 with")
for name in ("a1", "a2", "a3", "a4"):
    print("  %s = %s" % (name, getattr(quartic, name)))

print()
print("Fermat's method, both anchors:")
pt_c = fermat_ascend(quartic, "constant")
pt_l = fermat_ascend(quartic, "leading")
print("  constant side: u =", pt_c.u)
print("  leading side:  u =", pt_l.u)

print()
print("each u yields a family via the quadratic-in-x pipeline:")
for label, pt in (("constant", pt_c), ("leading", pt_l)):
    a, b, c = solution_family_polys(pt.u)
    print("  %s side family:" % label)
    for mem, val in zip("abc", (a, b, c)):
        print("    %s = %s" % (mem, val))

print()
print("composing the trivial point (0, s^2+t^2) with an ascent point")
print("gives a third point and hence a fresh family:")
anchor = QuarticPoint(RatFunc(Poly.zero()), RatFunc(s**2 + t**2))
A6 = s**6 - s**4 * t**2 - 5 * s**2 * t**4 + t**6
displayed14 = QuarticPoint(RatFunc(2 * s**3, s**2 - t**2), RatFunc(-A6, (s**2 - t**2) ** 2))
composed = choudhry_compose(quartic, anchor, displayed14)
print("  u12 =", composed.u)
a, b, c = solution_family_polys(composed.u)
print("  resulting degree-%d family:" % a.total_degree())
for mem, val in zip("abc", (a, b, c)):
    print("    %s = %s" % (mem, val))
