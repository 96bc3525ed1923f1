"""Shared construction helpers for the test suite (cached, so repeated
lattice work across test modules is paid once per session)."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from math import prod
from typing import Iterable, NamedTuple, Sequence

from pzeta import (
    AlmostSimpleSpec,
    DirichletPolynomial,
    PermGroup,
    builtin_group,
    generation_counts,
    make_psl2,
)
from pzeta.errors import OrderBoundExceeded

# corpus used by the oracle-equivalence and factorization suites
CORPUS_NAMES = [
    "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11", "C12",
    "S3", "S4", "A4", "A5", "D8", "Q8", "C2xC2", "PSL(2,5)",
]


@lru_cache(maxsize=None)
def group(name: str) -> PermGroup:
    return builtin_group(name)


@lru_cache(maxsize=None)
def psl2(q: int, variant: str) -> AlmostSimpleSpec:
    return make_psl2(q, variant)


def random_polynomial(
    rng: random.Random,
    max_index: int = 24,
    max_terms: int = 5,
    max_coeff: int = 9,
) -> DirichletPolynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rng.randint(1, max_index)] = rng.randint(-max_coeff, max_coeff)
    return DirichletPolynomial(terms)


def random_unital(rng: random.Random, max_index: int = 12, max_terms: int = 3) -> DirichletPolynomial:
    terms = {1: 1}
    for _ in range(rng.randint(0, max_terms)):
        n = rng.randint(2, max_index)
        terms[n] = rng.randint(-4, 4)
    return DirichletPolynomial(terms)


def random_unit_lead(rng: random.Random) -> DirichletPolynomial:
    """Random polynomial whose minimal-index coefficient is +-1."""
    m0 = rng.choice([1, 1, 2, 3])
    terms = {m0: rng.choice([1, -1])}
    for _ in range(rng.randint(0, 3)):
        n = rng.randint(m0 + 1, 18)
        terms.setdefault(n, rng.randint(-5, 5))
    return DirichletPolynomial(terms)


# -- independent oracles for P_G(k) and for factoring ----------------------------


def generating_probability(group: PermGroup, k: int) -> Fraction:
    """The probability that k uniform elements generate the group, from
    ``generation_counts`` (inclusion-exclusion over every node of the
    lattice), which never reads a Moebius value."""
    lat = group.subgroup_lattice()
    return Fraction(generation_counts(lat, k)[lat.top_id], group.order**k)


def generating_probability_bruteforce(group: PermGroup, k: int) -> Fraction:
    """Direct tuple enumeration; only for very small groups."""
    eng = group.engine
    if eng.order**k > 300_000:
        raise ValueError("brute-force enumeration only supported for tiny groups")
    hits = 0
    for tup in iter_product(range(eng.order), repeat=k):
        closed = eng.closure(tup)
        if closed is not None and len(closed) == eng.order:
            hits += 1
    return Fraction(hits, eng.order**k)


def trial_division_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of ``n >= 1`` by trial division up to
    sqrt(n): the reference for ``numtheory.prime_factors``."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


# -- tuple-row stabilizer chains: an oracle for permgroup._schreier_sims -------


class TupleChain(NamedTuple):
    """The chain of ``tuple_schreier_sims``: transversals as tuples of
    image rows, each a tuple of ints."""

    base: tuple[int, ...]
    transversals: tuple[tuple[tuple[int, ...], ...], ...]
    order: int

    def membership(self):
        """A test whether one image row is an element: it sifts to the
        identity through the chain."""
        keyed = [{u[b]: u for u in t} for b, t in zip(self.base, self.transversals)]
        sift = tuple_sifter(self.base, keyed)
        return lambda g: sift(tuple(g))[0] == tuple(range(len(g)))


def tuple_sifter(points: Sequence[int], trans: Sequence[dict[int, tuple[int, ...]]]):
    """``sift(g, first)`` strips g, which fixes the base points before
    level ``first``, through the chain with base ``points`` and rows
    ``trans[l]`` keyed by their image of ``points[l]`` (rows may be
    added, never changed).  It returns the residue, the identity iff g
    is in the group, and the level where it stopped (or the depth)."""
    depth = len(points)
    inv: list[dict[int, tuple[int, ...]]] = [{} for _ in points]

    def sift(g: tuple[int, ...], first: int = 0) -> tuple[tuple[int, ...], int]:
        for lev in range(first, depth):
            b = points[lev]
            beta = g[b]
            if beta != b:
                u = trans[lev].get(beta)
                if u is None:
                    return g, lev
                w = inv[lev].get(beta)
                if w is None:
                    # the points sorted by their images: x lands at position u(x)
                    w = inv[lev][beta] = tuple(sorted(range(len(u)), key=u.__getitem__))
                g = tuple(map(w.__getitem__, g))
        return g, depth

    return sift


def tuple_schreier_sims(
    degree: int,
    gen_images: Iterable[Sequence[int]],
    max_order: int,
    stop_at: int | None = None,
) -> TupleChain:
    """Deterministic Schreier-Sims over every moved point in ascending
    order, on rows that are Python tuples, one sift per Schreier
    generator: the library's chain before it moved to numpy rows, kept
    as an independent oracle.  Levels are completed from the bottom up;
    the first Schreier generator of a level that does not sift becomes a
    strong generator of the levels down to where it stopped.  It raises
    ``OrderBoundExceeded`` as soon as the product of the orbit sizes
    passes ``max_order`` and returns as soon as it reaches ``stop_at``."""
    ident = tuple(range(degree))
    gens = list(dict.fromkeys(g for g in map(tuple, gen_images) if g != ident))
    points = sorted({x for g in gens for x, y in enumerate(g) if x != y})
    depth = len(points)
    strong: list[list[tuple[int, ...]]] = [[] for _ in points]
    trans = [{b: ident} for b in points]
    sift = tuple_sifter(points, trans)
    pending: list[list[tuple[int, ...]]] = [[] for _ in points]

    def add_generator(h: tuple[int, ...], first: int, last: int) -> bool:
        for lev in range(first, last + 1):
            gens_l, u, todo = strong[lev], trans[lev], pending[lev]
            gens_l.append(h)
            b = points[lev]
            pairs = [(beta, h) for beta in u]
            for beta, s in pairs:
                gamma = s[beta]
                us = tuple(map(s.__getitem__, u[beta]))
                if gamma not in u:
                    u[gamma] = us
                    pairs += [(gamma, t) for t in gens_l]
                elif us != u[gamma] and not beta == gamma == b:
                    todo.append(us)
        size = prod(map(len, trans))
        if size > max_order:
            raise OrderBoundExceeded(f"group order exceeds bound {max_order}")
        return size == stop_at

    def residue(lev: int) -> tuple[tuple[int, ...], int] | None:
        todo = pending[lev]
        while todo:
            left = sift(todo[-1], lev)
            if left[1] < depth:
                return left
            todo.pop()
        return None

    full = any(add_generator(g, 0, next(lev for lev, b in enumerate(points) if g[b] != b))
               for g in gens)
    lev = depth - 1
    while lev >= 0 and not full:
        left = residue(lev)
        if left is None:
            lev -= 1
        else:
            h, stop = left
            full = add_generator(h, lev + 1, stop)
            lev = stop
    levels = [lev for lev, u in enumerate(trans) if len(u) > 1]
    return TupleChain(
        tuple(points[lev] for lev in levels),
        tuple(tuple(trans[lev].values()) for lev in levels),
        prod(len(trans[lev]) for lev in levels),
    )
