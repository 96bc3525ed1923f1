"""Seeded workloads of the pzeta benchmark.

A workload is a list of jobs plus the over-budget requests that must be
refused.  Each job makes the library calls that one ``pzeta``
CLI handler makes.  The seed relabels the points of every group by a
random permutation, which changes element indexing and the order of
enumeration, and it shuffles factor families and the job order.  No output
depends on the labelling or on the order, so the values in
``expected.json`` hold for every seed.

Set-up does all the seeded work.  A job's ``run`` only builds fresh
group objects from the generated generators and calls the library.  It
must build them afresh: a group caches its lattice, so a group reused
across passes would time a cache lookup.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Callable

from pzeta import (
    AlmostSimpleSpec,
    Budget,
    BudgetExceeded,
    DirichletPolynomial,
    FactorDescriptor,
    FactorKind,
    OrderBoundExceeded,
    PermGroup,
    RationalSeries,
    builtin_group,
    descriptor_from_supplement_poly,
    power_shift,
)
from pzeta import dirichlet, rationality, zeta
from pzeta.numtheory import prime_factors
from pzeta.rationality import ConstantExponents

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
MIXED_FACTORS_PATH = HERE.parent / "demos" / "data" / "mixed_factors.json"

# Errors a refusal may raise: the two documented budget errors.
REFUSAL_ERRORS = (OrderBoundExceeded, BudgetExceeded)

LATTICE_LARGE = ("PSL(2,13)", "S6")
ODD_INDEX = ((17, "pgl"),)
ODD_INDEX_BUDGET = 30_000
# items of the baseline table in ROADMAP.md that are too slow for a pass
# (see roadmap_baseline.py)
ROADMAP_PG = "PSL(2,17)"
ROADMAP_ODD_INDEX = ((23, "psl"), (23, "pgl"))
ROADMAP_REFUSE_PG = "S9"
# the acceptance corpus of the test suite, then the larger groups
SMALL_GROUPS_PG = (
    "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11", "C12",
    "S3", "S4", "A4", "A5", "D8", "Q8", "C2xC2", "PSL(2,5)",
    "S5", "A4xC2", "D12", "S4xS3", "PGL(2,7)", "A5xC2",
)
SMALL_GROUPS_FACTORIZE = (
    "S4", "A4", "D8", "Q8", "C12", "D12", "A4xC2", "S5", "A5xC2", "S4xS3", "PGL(2,7)",
)
# supplement polynomials P_{X,S} the series workload draws on
SUPPLEMENT_GROUPS = ((5, "psl"), (7, "psl"), (7, "pgl"), (11, "psl"), (11, "pgl"))
ZETA_PRODUCT_GROUPS = ("S4", "A5", "PSL(2,7)", "S5", "S4xS3", "PGL(2,7)", "A5xC2", "D12")
# every P_G the series workload reads from expected.json
SERIES_ZETA_GROUPS = ZETA_PRODUCT_GROUPS + ("A4",)
DIVISOR_GROUP = "PSL(2,7)"
PRODUCT_BOUND = 10**8
EXPAND_BOUND = 10**5
FAMILY_SIZE = 50


# ---------------------------------------------------------------------------
# groups and relabelling
# ---------------------------------------------------------------------------

_PSL2_RE = re.compile(r"^(PSL|PGL)\(2,(\d+)\)$")


def _mobius(q: int, a: int, b: int, c: int, d: int) -> list[int]:
    """x -> (a x + b) / (c x + d) on the projective line; point q is infinity."""
    images = []
    for x in range(q):
        den = (c * x + d) % q
        images.append(q if den == 0 else (a * x + b) * pow(den, -1, q) % q)
    images.append(q if c % q == 0 else a * pow(c, -1, q) % q)
    return images


def psl2_generators(q: int) -> tuple[list[list[int]], list[int]]:
    """Generators of PSL(2,q) on the q+1 points of the projective line
    (two transvections and a square diagonal), and the non-square
    diagonal that extends them to PGL(2,q)."""
    root = next(
        g for g in range(2, q)
        if all(pow(g, (q - 1) // p, q) != 1 for p in prime_factors(q - 1))
    )
    psl = [
        _mobius(q, 1, 1, 0, 1),
        _mobius(q, 1, 0, 1, 1),
        _mobius(q, root, 0, 0, pow(root, -1, q)),
    ]
    return psl, _mobius(q, root, 0, 0, 1)


def generators(name: str) -> tuple[int, list[list[int]]]:
    """Degree and generator images of a named group, building no element table."""
    m = _PSL2_RE.match(name)
    if m:
        q = int(m.group(2))
        psl, extra = psl2_generators(q)
        return q + 1, psl + ([extra] if m.group(1) == "PGL" else [])
    group = builtin_group(name)
    return group.degree, [list(g.images) for g in group.generators]


class Relabeller:
    """Conjugates generators by one random permutation of the points per
    group; ``rng=None`` keeps the points as they are."""

    def __init__(self, rng: random.Random | None):
        self.rng = rng

    def __call__(self, degree: int, gens: list[list[int]]) -> list[list[int]]:
        if self.rng is None:
            return [list(g) for g in gens]
        sigma = list(range(degree))
        self.rng.shuffle(sigma)
        out = []
        for g in gens:
            img = [0] * degree
            for x, y in enumerate(g):
                img[sigma[x]] = sigma[y]
            out.append(img)
        return out

    def shuffled(self, items) -> list:
        items = list(items)
        if self.rng is not None:
            self.rng.shuffle(items)
        return items


def group_maker(name: str, relabel: Relabeller) -> Callable[[], PermGroup]:
    degree, gens = generators(name)
    gens = relabel(degree, gens)
    return lambda: PermGroup(degree, gens, name=name)


def spec_maker(q: int, variant: str, relabel: Relabeller) -> Callable[[], AlmostSimpleSpec]:
    psl, extra = psl2_generators(q)
    gens = relabel(q + 1, psl + [extra])  # one relabelling for socle and group
    socle_gens = gens[:3]
    group_gens = gens if variant == "pgl" else socle_gens
    name = f"{variant.upper()}(2,{q})"

    def make() -> AlmostSimpleSpec:
        socle = PermGroup(q + 1, socle_gens, name=f"PSL(2,{q})")
        group = socle if variant == "psl" else PermGroup(q + 1, group_gens, name=name)
        return AlmostSimpleSpec(group, socle, name=name)

    return make


# ---------------------------------------------------------------------------
# output summaries: isomorphism-invariant, JSON-comparable
# ---------------------------------------------------------------------------


def terms(poly) -> list[list]:
    items = poly.items() if isinstance(poly, DirichletPolynomial) else poly.terms().items()
    return [[n, str(a)] for n, a in items]


def poly_from(data: list[list]) -> DirichletPolynomial:
    return DirichletPolynomial({int(n): int(a) for n, a in data})


def digest(poly) -> dict:
    pairs = terms(poly)
    body = ";".join(f"{n}:{a}" for n, a in pairs)
    return {"terms": len(pairs), "sha256": hashlib.sha256(body.encode()).hexdigest()}


def counter(values) -> list[list[int]]:
    return sorted([k, v] for k, v in Counter(values).items())


def summarize_report(rep) -> dict:
    return {
        "order": rep.order,
        "zeta": terms(rep.zeta),
        "subgroups": rep.subgroup_count,
        "classes": rep.class_count,
    }


def summarize_export(export: dict) -> dict:
    return {
        "order": export["order"],
        "nodes": len(export["nodes"]),
        "classes": len(export["conjugacy_classes"]),
        "hasse_edges": len(export["hasse_edges"]),
        "moebius": counter(export["moebius"]),
        "node_orders": counter(len(n) for n in export["nodes"]),
    }


def summarize_factorization(fac) -> dict:
    # the chain chosen depends on the labelling; the multiset of factors does not
    factors = sorted(
        [f.label, f.multiplicity, f.factor_order, f.frattini, terms(f.polynomial)]
        for f in fac.factors
    )
    return {"zeta": terms(fac.zeta), "product_ok": fac.product_ok, "factors": factors}


def summarize_replay(rep) -> dict:
    return {
        "q": rep.q,
        "w": rep.witness,
        "i_star": sorted(rep.i_star),
        "r": rep.min_psl_multiplicity,
        "beta": rep.beta,
        "c_beta": None if rep.c_beta is None else str(rep.c_beta),
        "sml_i": rep.sml.condition_i_holds,
        "sml_ii_witness": rep.sml.condition_ii_witness,
    }


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


@dataclass
class Job:
    """One timed library call.  ``summarize`` maps its output to the
    invariants stored in ``expected.json``; ``verify`` makes checks that
    need no stored value (multiplying back, for instance)."""

    name: str
    run: Callable[[], object]
    summarize: Callable[[object], object]
    verify: Callable[[object], list[str]] = lambda out: []
    part: str = ""  # which of the four designed workloads the job belongs to


@dataclass
class Refusal:
    """An over-budget request: it succeeds only by raising a budget error."""

    name: str
    run: Callable[[], object]


@dataclass
class Workload:
    """The jobs and over-budget requests of a workload, and those of its
    tiny version (the warm-up)."""

    jobs: list[Job]
    refusals: list[Refusal]
    warmup: list[Job]
    warmup_refusals: list[Refusal]


def pg_job(name: str, relabel: Relabeller, export: bool = False) -> Job:
    """``pzeta pg`` (and ``pzeta moebius`` with ``export``)."""
    make = group_maker(name, relabel)

    def run():
        group = make()
        rep = zeta.zeta_report(group)
        return rep, group.subgroup_lattice().to_json_dict() if export else None

    def summarize(out):
        rep, exported = out
        summary = summarize_report(rep)
        if exported is not None:
            summary["export"] = summarize_export(exported)
        return summary

    return Job(("pg+moebius:" if export else "pg:") + name, run, summarize)


def factorize_job(name: str, relabel: Relabeller) -> Job:
    make = group_maker(name, relabel)
    return Job(
        "factorize:" + name,
        lambda: zeta.chief_factorization(make()),
        summarize_factorization,
    )


def omega_job(q: int, variant: str, relabel: Relabeller, max_order: int | None = None) -> Job:
    make = spec_maker(q, variant, relabel)
    budget = Budget(max_order=max_order) if max_order else None
    return Job(
        f"omega:{variant.upper()}(2,{q})",
        lambda: zeta.odd_supplement_indices(make(), budget),
        lambda rep: rep.to_json_dict(),
    )


def refuse_pg(name: str, relabel: Relabeller, budget: Budget) -> Refusal:
    make = group_maker(name, relabel)
    return Refusal(f"refuse pg:{name}", lambda: zeta.zeta_report(make(), budget))


def refuse_omega(q: int, variant: str, relabel: Relabeller, max_order: int) -> Refusal:
    make = spec_maker(q, variant, relabel)
    budget = Budget(max_order=max_order)
    return Refusal(
        f"refuse omega:{variant.upper()}(2,{q})",
        lambda: zeta.odd_supplement_indices(make(), budget),
    )


def refuse_pxs(q: int, variant: str, relabel: Relabeller, budget: Budget) -> Refusal:
    """``pzeta pxs``: the supplement polynomial of a group over the budget."""
    make = spec_maker(q, variant, relabel)
    return Refusal(
        f"refuse pxs:{variant.upper()}(2,{q})",
        lambda: zeta.supplement_zeta(make(), budget),
    )


def product_job(name: str, factors: list[DirichletPolynomial], bound: int) -> Job:
    return Job(name, lambda: dirichlet.truncated_product(factors, bound), digest)


def zeta_product_job(name: str, polys: list[DirichletPolynomial]) -> Job:
    return Job(name, lambda: reduce(lambda a, b: a * b, polys), digest)


def divide_job(name: str, p: DirichletPolynomial, d: DirichletPolynomial) -> Job:
    def verify(q):
        return [] if d * q == p else ["quotient times divisor differs from the dividend"]

    return Job(name, lambda: dirichlet.divide_exact(p, d), digest, verify)


def expand_job(name: str, num: DirichletPolynomial, den: DirichletPolynomial, bound: int) -> Job:
    def verify(series):
        back = den * DirichletPolynomial(series.terms())
        window = {n: a for n, a in back.items() if n <= bound}
        want = {n: a for n, a in num.items() if n <= bound}
        return [] if window == want else ["expansion times denominator differs from numerator"]

    return Job(
        name,
        lambda: dirichlet.expand_rational(RationalSeries(num, den), bound),
        digest,
        verify,
    )


def replay_job(name: str, factors: list[FactorDescriptor]) -> Job:
    return Job(name, lambda: rationality.replay_finiteness_argument(factors), summarize_replay)


def sml_job(name: str, families: list) -> Job:
    return Job(
        name,
        lambda: rationality.check_sml_conditions(families),
        lambda rep: rep.to_json_dict(),
    )


# ---------------------------------------------------------------------------
# series inputs, taken from the corpus outputs stored in expected.json
# ---------------------------------------------------------------------------


def supplement_polys(inputs: dict) -> list[DirichletPolynomial]:
    return [poly_from(inputs["pxs"][f"{v.upper()}(2,{q})"]) for q, v in SUPPLEMENT_GROUPS]


def chief_polys(expected_jobs: dict) -> list[DirichletPolynomial]:
    """Distinct nontrivial chief-factor polynomials of the factorized corpus."""
    seen = {}
    for name in SMALL_GROUPS_FACTORIZE:
        for factor in expected_jobs["factorize:" + name]["factors"]:
            poly = poly_from(factor[-1])
            if not poly.is_one():
                seen[str(poly)] = poly
    return [seen[k] for k in sorted(seen)]


def zeta_poly(inputs: dict, name: str) -> DirichletPolynomial:
    return poly_from(inputs["zeta"][name])


def mixed_factors() -> list[FactorDescriptor]:
    data = json.loads(MIXED_FACTORS_PATH.read_text(encoding="utf-8"))
    return [FactorDescriptor.from_json_dict(d) for d in data["factors"]]


def family(expected: dict, size: int) -> list[FactorDescriptor]:
    """PSL(2,11) chief factors S^r for r = 1..size."""
    pxs = poly_from(expected["inputs"]["pxs"]["PSL(2,11)"])
    kind = FactorKind.psl2(11, "psl")
    return [descriptor_from_supplement_poly(r, kind, r, pxs) for r in range(1, size + 1)]


# (1 - 1/2^s)(1 - 3/3^s), the chief factors of S3: a four-term denominator
DENOMINATOR = DirichletPolynomial({1: 1, 2: -1, 3: -3, 6: 3})


def series_inputs(expected: dict, relabel: Relabeller) -> dict:
    """The polynomials and factor families of the full series workload.

    Products keep one fixed factor order: the order changes the sizes of
    the partial products, so a seeded order would change the work done.
    The seed orders the factor families, whose cost does not depend on it.
    """
    inputs, shuffled = expected["inputs"], relabel.shuffled
    factors = [power_shift(p, r) for p in supplement_polys(inputs) for r in (1, 2, 3)]
    factors += [power_shift(p, r) for p in chief_polys(expected["jobs"]) for r in (1, 2)]
    zetas = [zeta_poly(inputs, n) for n in ZETA_PRODUCT_GROUPS]
    fam = shuffled(family(expected, FAMILY_SIZE))
    return {
        "factors": factors,
        "zetas": zetas,
        "dividend": reduce(lambda a, b: a * b, zetas),
        "divisor": zeta_poly(inputs, DIVISOR_GROUP),
        "numerator": zeta_poly(inputs, "PSL(2,7)"),
        "family": fam,
        "mixed": shuffled(mixed_factors()),
        "exponents": shuffled(ConstantExponents(f.multiplicity) for f in fam),
    }


def series_jobs(expected: dict, relabel: Relabeller, tiny: bool) -> list[Job]:
    if tiny:
        inputs = expected["inputs"]
        s4, a4 = zeta_poly(inputs, "S4"), zeta_poly(inputs, "A4")
        return [
            product_job("product@tiny", [power_shift(s4, 2), a4], 1000),
            divide_job("divide@tiny", s4 * a4, a4),
            expand_job("expand@tiny", s4, DENOMINATOR, 1000),
            replay_job("replay:mixed", relabel.shuffled(mixed_factors())),
        ]
    x = series_inputs(expected, relabel)
    return [
        product_job("product", x["factors"], PRODUCT_BOUND),
        zeta_product_job("zeta-product", x["zetas"]),
        divide_job("divide", x["dividend"], x["divisor"]),
        expand_job("expand", x["numerator"], DENOMINATOR, EXPAND_BOUND),
        replay_job("replay:mixed", x["mixed"]),
        replay_job("replay:psl2-11-family", x["family"]),
        sml_job("smlcheck", x["exponents"]),
    ]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# The four parts are the workloads the benchmark was designed around.  The
# three group parts run as one workload: on a shared 2-core host whose
# speed swings by up to 2x over tens of seconds, only runs of about a
# minute give steady medians, and the run budget allows two such workloads.
# Each part is cut so that a pass over all of them takes about 7 s, and a
# run makes five passes or more.
WORKLOADS = {
    "groups": ("lattice-large", "odd-index", "small-groups"),
    "series": ("series",),
}
WORKLOAD_NAMES = tuple(WORKLOADS)


def _part(part: str, expected: dict, relabel: Relabeller, tiny: bool):
    """Jobs and over-budget requests of one part, or of its tiny version."""
    if part == "lattice-large":
        groups = ("S4",) if tiny else LATTICE_LARGE
        jobs = [pg_job(g, relabel, export=True) for g in groups]
        refusals = [refuse_pg("A5", relabel, Budget(max_order=50)) if tiny
                    else refuse_pg("S8", relabel, Budget())]
    elif part == "odd-index":
        if tiny:
            jobs = [omega_job(7, "psl", relabel)]
            refusals = [refuse_omega(7, "pgl", relabel, 200)]
        else:
            jobs = [omega_job(q, v, relabel, ODD_INDEX_BUDGET) for q, v in ODD_INDEX]
            refusals = [refuse_omega(37, "pgl", relabel, ODD_INDEX_BUDGET)]
    elif part == "small-groups":
        pg_names = ("S4",) if tiny else SMALL_GROUPS_PG
        fac_names = ("S4",) if tiny else SMALL_GROUPS_FACTORIZE
        jobs = [pg_job(g, relabel) for g in pg_names]
        jobs += [factorize_job(g, relabel) for g in fac_names]
        refusals = [refuse_pg("S4" if tiny else "S5", relabel,
                              Budget(max_subgroups=10 if tiny else 100))]
    else:
        jobs = series_jobs(expected, relabel, tiny)
        refusals = [refuse_pxs(7, "psl", relabel, Budget(max_order=100)) if tiny
                    else refuse_pxs(29, "psl", relabel, Budget())]
    for job in jobs:
        job.part = part
    return jobs, refusals


def build(name: str, seed: int | None, expected: dict) -> Workload:
    """The workload for a seed; ``seed=None`` keeps labels and order as
    listed, which is how ``make_expected.py`` computes the expected values."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}")
    relabel = Relabeller(None if seed is None else random.Random(f"{name}/{seed}"))
    built = {}
    for tiny in (True, False):
        jobs, refusals = [], []
        for part in WORKLOADS[name]:
            part_jobs, part_refusals = _part(part, expected, relabel, tiny)
            jobs += part_jobs
            refusals += part_refusals
        built[tiny] = relabel.shuffled(jobs), refusals
    return Workload(*built[False], *built[True])


def roadmap(seed: int | None) -> tuple[list[Job], list[Refusal]]:
    """The ROADMAP baseline items that no workload runs: the PSL(2,17)
    lattice, ``omega`` at q = 23 and the S9 refusal."""
    relabel = Relabeller(None if seed is None else random.Random(f"roadmap/{seed}"))
    jobs = [pg_job(ROADMAP_PG, relabel, export=True)]
    jobs += [omega_job(q, v, relabel, ODD_INDEX_BUDGET) for q, v in ROADMAP_ODD_INDEX]
    return jobs, [refuse_pg(ROADMAP_REFUSE_PG, relabel, Budget())]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
