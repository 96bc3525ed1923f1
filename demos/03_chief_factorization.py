"""Factoring P_G(s) along a chief series.

Each step contributes the exact polynomial quotient of consecutive
quotient zetas, each read off G's own subgroup lattice as an interval
[N, G]; Frattini factors contribute 1, abelian factors contribute
1 - c/(p^r)^s with c the number of complements.

Run:  python demos/03_chief_factorization.py
"""

from pzeta import builtin_group, chief_factorization
from pzeta.zeta import chief_factor_multiset

for name in ("S4", "C4", "A5xC2"):
    fac = chief_factorization(builtin_group(name))
    print(f"{name}: P(s) = {fac.zeta}")
    for rec in fac.factors:
        notes = []
        if rec.frattini:
            notes.append("Frattini")
        if rec.complement_count is not None:
            notes.append(f"{rec.complement_count} complement(s)")
        tail = f"   [{', '.join(notes)}]" if notes else ""
        print(f"   {rec.label}^{rec.multiplicity}: {rec.polynomial}{tail}")
    print(f"   product == P(s): {fac.product_ok}\n")

# A5 x C2 has two chief series (collapse A5 first or C2 first); the
# multiset of factor polynomials does not depend on the choice.
multisets = chief_factor_multiset(builtin_group("A5xC2"))
print("A5xC2 chief series count:", len(multisets))
print("same factor multiset for all series:", all(m == multisets[0] for m in multisets))
