"""Zeta polynomials of small groups and what they count.

P_G(k) is the exact probability that k uniform random elements
generate G; the script checks a few values against direct counting.

Run:  python demos/02_zeta_of_small_groups.py
"""

from fractions import Fraction

from pzeta import PermGroup, builtin_group, probabilistic_zeta, zeta_report

for name in ("S3", "S4", "A5", "Q8", "C2xC2"):
    rep = zeta_report(builtin_group(name))
    print(f"{name:>6}: P(s) = {rep.zeta}")
    print(f"        {rep.subgroup_count} subgroups in {rep.class_count} classes")

a5 = builtin_group("A5")
print("\ntwo random elements generate A5 with probability",
      probabilistic_zeta(a5).evaluate(2))

# direct count: the pairs (a, b) of S3 that generate a group of order 6
s3 = builtin_group("S3")
elements = s3.elements()
pairs = sum(PermGroup(3, [a, b]).order == s3.order for a in elements for b in elements)
print("S3, k=2: zeta gives", probabilistic_zeta(s3).evaluate(2),
      "| counting all 36 pairs gives", Fraction(pairs, 36))

# The Frattini quotient carries all the generation data: C4 and C2
# have the same zeta polynomial.
c4 = builtin_group("C4")
lat = c4.subgroup_lattice()
frat = lat.frattini_node_id()
print("\nP_C4      =", probabilistic_zeta(c4))
print("P_(C4/Frat) =", probabilistic_zeta(lat.quotient_group(frat)))
print("one element generates C4 with probability", probabilistic_zeta(c4).evaluate(1))
