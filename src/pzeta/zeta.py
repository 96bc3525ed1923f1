"""Probabilistic zeta functions of finite groups.

For a finite group G the coefficients ``a_n = sum mu_G(H)`` over the
subgroups of index n assemble into the Dirichlet polynomial
``P_G(s) = sum a_n / n^s``.  Evaluating at a positive integer k gives
the exact probability that k uniform random elements generate G;
``generation_counts`` counts the generating tuples independently of mu,
for tests and the benchmark's expected values.

On top of that sit the quantities specific to almost simple groups X
with socle S: the supplement zeta function ``P_{X,S}`` summing only
over subgroups H with ``H S = X``, the set of odd supplement indices
whose supplements are all maximal, and the table of minima w(X) for
X = PSL(2,q) or PGL(2,q) compared against the classical closed form
derived from Dickson's subgroup list.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .dirichlet import DirichletPolynomial, divide_exact
from .errors import BudgetExceeded, InvalidParameter, NotNormal, OrderBoundExceeded
from .lattice import (
    DEFAULT_BUDGET,
    Budget,
    SubgroupLattice,
    all_chief_series_ids,
    chief_series_ids,
    chief_steps,
    overgroups_of_seed,
)
from .permgroup import AlmostSimpleSpec, PermGroup, make_psl2, psl2_order, psl2_variant


# ---------------------------------------------------------------------------
# P_G(s)
# ---------------------------------------------------------------------------


def _class_sum(lat: SubgroupLattice, keep) -> DirichletPolynomial:
    """``sum |C| mu(rep) / |G:rep|^s`` over the conjugacy classes C whose
    representative passes ``keep``; exact for class-invariant filters."""
    order = lat.engine.order
    acc: dict[int, int] = {}
    for members in lat.classes:
        rep = members[0]
        mu = lat.moebius(rep)
        if mu and keep(rep):
            n = order // lat.node_order(rep)
            acc[n] = acc.get(n, 0) + mu * len(members)
    return DirichletPolynomial(acc)


def interval_zeta(lat: SubgroupLattice, lower: int) -> DirichletPolynomial:
    """``P_{G/N}(s)``, the sum of ``mu_G(H) / |G:H|^s`` over the interval
    [N, G] for a normal node N (``NotNormal`` otherwise): the subgroup
    lattice of G/N is [N, G], Moebius values carry over, and
    ``|G/N : H/N| = |G:H|`` (P. Hall, "The Eulerian functions of a
    group", 1936).  Summed by class, since H contains N exactly when
    its conjugates do.
    """
    if not lat.is_normal(lower):
        raise NotNormal(f"node {lower} is not normal in {lat.group.name}")
    return _class_sum(lat, {lower, *lat._overgroups(lower)}.__contains__)


def zeta_from_lattice(lat: SubgroupLattice) -> DirichletPolynomial:
    """``P_G(s)``: the sum over every class of subgroups."""
    return _class_sum(lat, lambda rep: True)


def probabilistic_zeta(group: PermGroup, budget: Budget | None = None) -> DirichletPolynomial:
    return zeta_from_lattice(group.subgroup_lattice(budget))


@dataclass
class ZetaReport:
    group: str
    order: int
    degree: int
    zeta: DirichletPolynomial
    subgroup_count: int
    class_count: int
    elapsed_s: float

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "order": self.order,
            "degree": self.degree,
            "zeta": self.zeta.to_json_dict(),
            "subgroups": self.subgroup_count,
            "conjugacy_classes": self.class_count,
            "elapsed_s": self.elapsed_s,
        }


def zeta_report(group: PermGroup, budget: Budget | None = None) -> ZetaReport:
    t0 = time.monotonic()
    lat = group.subgroup_lattice(budget)
    poly = zeta_from_lattice(lat)
    assert poly.coefficient(1) == 1, "zeta polynomial must have constant term 1"
    return ZetaReport(
        group=group.name,
        order=group.order,
        degree=group.degree,
        zeta=poly,
        subgroup_count=lat.node_count,
        class_count=lat.class_count,
        elapsed_s=round(time.monotonic() - t0, 4),
    )


# ---------------------------------------------------------------------------
# generation counts (independent of the Moebius function)
# ---------------------------------------------------------------------------


def generation_counts(lat: SubgroupLattice, k: int) -> list[int]:
    """For every node H, the number of k-tuples generating exactly H.

    Bottom-up inclusion-exclusion over the lattice only: a k-tuple
    inside H generates exactly one subgroup of H, so
    ``t(H) = |H|^k - sum_{K < H} t(K)``.  Does not look at mu.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be an int >= 1")
    order_asc = sorted(range(lat.node_count), key=lat.node_order)
    t = [0] * lat.node_count
    for i in order_asc:
        t[i] = lat.node_order(i) ** k - sum(t[j] for j in lat.strict_subgroups(i))
    return t


# ---------------------------------------------------------------------------
# P_{X,S}(s): supplements of the socle
# ---------------------------------------------------------------------------


def _is_supplement(h: tuple[int, ...], spec: AlmostSimpleSpec) -> bool:
    """``H S = X``, i.e. ``|H| |S| = |X| |H n S|``, for the elements of H."""
    socle = spec.socle_indices
    return len(h) * len(socle) == spec.group.order * len(socle.intersection(h))


def supplement_zeta(spec: AlmostSimpleSpec, budget: Budget | None = None) -> DirichletPolynomial:
    """``sum mu_X(H) / |X:H|^s`` over the subgroups H with H*socle = X."""
    lat = spec.group.subgroup_lattice(budget)
    return _class_sum(lat, lambda rep: _is_supplement(lat.node_elements(rep), spec))


# ---------------------------------------------------------------------------
# odd supplement indices and w(X)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OddIndexDetail:
    index: int
    supplement_classes: int  # conjugacy classes of supplements at this index
    all_maximal: bool

    def to_json_dict(self) -> dict:
        return {
            "m": self.index,
            "supplement_classes": self.supplement_classes,
            "all_maximal": self.all_maximal,
        }


@dataclass
class OddSupplementReport:
    group: str
    socle_order: int
    indices: tuple[int, ...]
    minimum: int | None
    details: tuple[OddIndexDetail, ...]
    include_even: bool

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "socle_order": self.socle_order,
            "indices": list(self.indices),
            "w": self.minimum,
            "details": [d.to_json_dict() for d in self.details],
            "include_even": self.include_even,
        }


def odd_supplement_indices(
    spec: AlmostSimpleSpec,
    budget: Budget | None = None,
    include_even: bool = False,
) -> OddSupplementReport:
    """Indices m such that X has a supplement of the socle of index m
    and every such supplement is maximal; ``minimum`` is w(X).

    Default mode restricts to odd m.  A subgroup has odd index exactly
    when it contains a Sylow 2-subgroup, so the overgroup family of one
    fixed Sylow 2-subgroup, whole conjugacy classes, holds them all;
    that keeps groups with a few thousand elements cheap.  Supplement,
    index and maximality are class invariants, so one representative
    per class is read (``is_maximal``).  ``include_even=True`` is a
    non-table extension that reads every class of X's own subgroup
    lattice instead.
    """
    budget = budget or DEFAULT_BUDGET
    order = spec.group.order
    budget.check_order(order)  # refuse before the table and sylow2()
    if include_even:
        fam = spec.group.subgroup_lattice(budget)
    else:
        fam = overgroups_of_seed(spec.group.engine, *spec.group.engine.sylow2(), budget)
    by_index: dict[int, list[bool]] = {}  # index -> maximality of each class
    for members in fam.classes:
        h = fam.nodes[members[0]]
        if _is_supplement(h, spec):
            by_index.setdefault(order // len(h), []).append(fam.is_maximal(members[0]))
    details = []
    omega = []
    for m in sorted(by_index):
        assert include_even or m % 2 == 1, "overgroups of a Sylow 2-subgroup have odd index"
        ok = all(by_index[m])
        details.append(OddIndexDetail(m, len(by_index[m]), ok))
        if ok:
            omega.append(m)
    return OddSupplementReport(
        group=spec.name,
        socle_order=spec.socle.order,
        indices=tuple(omega),
        minimum=omega[0] if omega else None,
        details=tuple(details),
        include_even=include_even,
    )


# ---------------------------------------------------------------------------
# the w(X) table for X = PSL(2,q), PGL(2,q)
# ---------------------------------------------------------------------------


def predicted_minimal_odd_index(q: int, variant: str = "psl") -> int:
    """Closed-form w(X) from the classical subgroup classification:
    q(q-1)/2 or q(q+1)/2 according to q mod 4, with the handful of
    small exceptional q treated separately."""
    v = variant.lower()
    if v not in ("psl", "pgl"):
        raise InvalidParameter(f"variant must be 'psl' or 'pgl', got {variant!r}")
    exceptional = {
        (5, "psl"): 5,
        (5, "pgl"): 5,
        (7, "psl"): 7,
        (7, "pgl"): 21,
        (11, "psl"): 11,
        (11, "pgl"): 55,
        (19, "psl"): 57,
        (19, "pgl"): 171,
        (29, "psl"): 203,
        (29, "pgl"): 435,
    }
    if (q, v) in exceptional:
        return exceptional[(q, v)]
    return q * (q - 1) // 2 if q % 4 == 3 else q * (q + 1) // 2


def psl2_within_budget(q: int, variant: str, budget: Budget) -> AlmostSimpleSpec:
    """X = PSL/PGL(2,q), refused by the budget's order before
    ``make_psl2`` tests q for primality or builds a permutation: after
    ``make_psl2``'s cheap checks (``psl2_variant``), an odd q >= 5 whose
    closed-form order is over the budget raises ``OrderBoundExceeded``
    whether or not it is prime."""
    v = psl2_variant(q, variant)
    budget.check_order(psl2_order(q, v))
    return make_psl2(q, v)


@dataclass(frozen=True)
class WTableRow:
    q: int
    variant: str
    computed: int | None
    predicted: int
    status: str  # MATCH | MISMATCH | SKIPPED
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "variant": self.variant,
            "computed": self.computed,
            "predicted": self.predicted,
            "status": self.status,
            "note": self.note,
        }


def minimal_odd_index_table(
    q_values,
    variants=("psl", "pgl"),
    budget: Budget | None = None,
) -> list[WTableRow]:
    """Brute-force w(X) against the closed form, one row per (q, variant).

    Rows whose group does not fit the budget, or the order bound of
    ``make_psl2``, come back SKIPPED rather than failing the whole
    table.  A q or variant that ``make_psl2`` rejects raises
    ``InvalidParameter`` at any budget, as ``pzeta omega`` does.
    """
    budget = budget or DEFAULT_BUDGET
    rows = []
    for q in q_values:
        for variant in variants:
            v = variant.lower()
            note = ""
            try:
                computed = odd_supplement_indices(psl2_within_budget(q, v, budget), budget).minimum
            except (BudgetExceeded, OrderBoundExceeded) as exc:
                computed, note = None, str(exc)
            predicted = predicted_minimal_odd_index(q, v)
            if computed is None:
                status = "SKIPPED"
            else:
                status = "MATCH" if computed == predicted else "MISMATCH"
            rows.append(WTableRow(q, v, computed, predicted, status, note))
    return rows


# ---------------------------------------------------------------------------
# chief factorization of P_G(s)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChiefFactorRecord:
    label: str
    simple_order: int
    multiplicity: int
    factor_order: int
    frattini: bool
    polynomial: DirichletPolynomial
    complement_count: int | None
    abelian_identity_ok: bool | None

    def to_json_dict(self) -> dict:
        return {
            "simple": self.label,
            "multiplicity": self.multiplicity,
            "factor_order": self.factor_order,
            "frattini": self.frattini,
            "polynomial": self.polynomial.to_json_dict(),
            "complements": self.complement_count,
            "abelian_identity_ok": self.abelian_identity_ok,
        }


@dataclass
class ChiefFactorization:
    group: str
    zeta: DirichletPolynomial
    factors: tuple[ChiefFactorRecord, ...]
    product_ok: bool
    chain: tuple[int, ...]

    def factor_polynomials(self) -> list[DirichletPolynomial]:
        return [f.polynomial for f in self.factors]

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "zeta": self.zeta.to_json_dict(),
            "product_ok": self.product_ok,
            "factors": [f.to_json_dict() for f in self.factors],
        }


def chief_factorization(
    group: PermGroup,
    budget: Budget | None = None,
    chain: list[int] | None = None,
) -> ChiefFactorization:
    """Factor P_G(s) along a chief series G = N_0 > N_1 > ... > 1.

    Everything is read off G's own lattice, with no quotient groups:
    ``P_{G/N}`` is the interval zeta of [N, G], and the polynomial of
    the step N_i > N_{i+1} is the exact quotient
    ``P_{G/N_{i+1}} / P_{G/N_i}`` in the polynomial ring (Detomi and
    Lucchini, "Crowns and factorization of the probabilistic zeta
    function of a finite group", 2003).

    A step is Frattini when N_i lies in every maximal subgroup of G
    containing N_{i+1} (these are the maximal subgroups of G/N_{i+1});
    it must contribute the factor 1.  For abelian factors the
    polynomial is cross-checked against ``1 - c / |N_i/N_{i+1}|^s``,
    with c the independently counted number of complements: subgroups
    K >= N_{i+1} of order ``|G| |N_{i+1}| / |N_i|`` with
    ``K n N_i = N_{i+1}``.
    """
    budget = budget or DEFAULT_BUDGET
    lat = group.subgroup_lattice(budget)
    chain = list(chain) if chain is not None else chief_series_ids(lat)
    steps = chief_steps(lat, chain)  # rejects a chain that is not a chief series
    qzetas = [interval_zeta(lat, nid) for nid in chain]
    zeta = qzetas[-1]  # the chain ends at the trivial node: P_G
    maximal = lat.maximal_node_ids()

    records = []
    for i, step in enumerate(steps):
        upper, lower = step.upper, step.lower
        poly = divide_exact(qzetas[i + 1], qzetas[i])
        frattini = all(lat.contains(upper, m) for m in maximal if lat.contains(lower, m))
        if frattini and not poly.is_one():
            raise RuntimeError(
                f"Frattini chief factor produced a nontrivial polynomial: {poly}"
            )
        complement_count = None
        abelian_ok = None
        if step.abelian:
            target = group.order // step.factor_order
            upper_fs = lat._fs[upper]
            complement_count = sum(
                1
                for k in (lower, *lat._overgroups(lower))
                if lat.node_order(k) == target
                and len(upper_fs.intersection(lat.node_elements(k))) == lat.node_order(lower)
            )
            expected = DirichletPolynomial(
                {1: 1, step.factor_order: -complement_count}
            )
            abelian_ok = poly == expected
        records.append(
            ChiefFactorRecord(
                label=step.label,
                simple_order=step.simple_order,
                multiplicity=step.multiplicity,
                factor_order=step.factor_order,
                frattini=frattini,
                polynomial=poly,
                complement_count=complement_count,
                abelian_identity_ok=abelian_ok,
            )
        )
    total = DirichletPolynomial.one()
    for rec in records:
        total = total * rec.polynomial
    return ChiefFactorization(
        group=group.name,
        zeta=zeta,
        factors=tuple(records),
        product_ok=total == zeta,
        chain=tuple(chain),
    )


def chief_factor_multiset(group: PermGroup, budget: Budget | None = None):
    """Multiset of step polynomials over every chief series; a correct
    factorization must make this independent of the chosen series.
    Every chain divides the same interval zetas, one per normal node."""
    lat = group.subgroup_lattice(budget or DEFAULT_BUDGET)
    qzetas = {n: interval_zeta(lat, n) for n in lat.normal_node_ids()}
    return [
        sorted(tuple(divide_exact(qzetas[lo], qzetas[up]).items()) for up, lo in zip(c, c[1:]))
        for c in all_chief_series_ids(lat)
    ]
