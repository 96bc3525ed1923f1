"""Finiteness analysis for products of chief-factor polynomials.

Symbolic side of the library: the inputs are factor descriptors
(simple-group kind, composition length r, sparse coefficient data
b_{i,n}) rather than explicit groups, so arbitrarily long families can
be analyzed.  The three pillars are

* the two finiteness conditions under which a rational product
  ``prod_i (1 - c_i / (q^{r_i})^s)`` forces all but finitely many
  c_i to vanish (a Skolem-Mahler-Lech corollary; only the decision
  procedure on given exponent data is implemented, not the theorem),
* the witness extraction: the minimal x with q-adic valuation 1 whose
  powers x^{r_i} carry nonzero coefficients, and the finite product
  ``F*(s) = prod (1 + b_{i,w^{r_i}} / (w^{r_i})^s)`` it induces,
* a replay of the full pipeline (q, Lambda, r, w, beta, I*, c_beta,
  H(s), finiteness verdict) on concrete factor families.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .dirichlet import DirichletPolynomial, TruncatedSeries, int_from_json
from .errors import EmptyInput, HypothesisViolated, InvalidParameter
from .numtheory import (
    integer_nth_root,
    is_prime,
    iter_primes,
    padic_valuation,
    prime_factors,
    strip_primes_up_to,
)
from .permgroup import PermGroup
from .zeta import predicted_minimal_odd_index

__all__ = [
    "padic_valuation",
    "LambdaPredicate",
    "FactorKind",
    "FactorDescriptor",
    "ProductExperiment",
    "WitnessExtraction",
    "extract_witness_product",
    "ConstantExponents",
    "ArithmeticExponents",
    "GeometricExponents",
    "SmlReport",
    "check_sml_conditions",
    "ReplayReport",
    "replay_finiteness_argument",
    "PrimeSupport",
    "prime_support",
    "index_primes",
    "descriptor_from_supplement_poly",
    "cyclic_descriptor",
]


# ---------------------------------------------------------------------------
# index filters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaPredicate:
    """Membership test for the index sets used throughout: multiples of
    a prime q, optionally restricted to odd integers and to integers
    with no prime factor above q."""

    q: int
    odd: bool = True
    bounded_primes: bool = False

    def __post_init__(self):
        if not is_prime(self.q):
            raise InvalidParameter(f"{self.q} is not prime")

    def contains(self, n: int) -> bool:
        if n < 1 or n % self.q != 0:
            return False
        if self.odd and n % 2 == 0:
            return False
        if self.bounded_primes and strip_primes_up_to(n, self.q) != 1:
            return False
        return True

    def describe(self) -> dict:
        return {
            "divisible_by": self.q,
            "odd": self.odd,
            "no_prime_above_q": self.bounded_primes,
        }


# ---------------------------------------------------------------------------
# factor descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorKind:
    family: str  # "cyclic" | "psl2"
    q: int
    variant: str | None = None

    def __post_init__(self):
        if self.family == "cyclic":
            if self.variant is not None:
                raise InvalidParameter("cyclic kinds take no variant")
            if not is_prime(self.q):
                raise InvalidParameter(f"cyclic kind needs a prime order, got {self.q}")
        elif self.family == "psl2":
            if self.variant not in ("psl", "pgl"):
                raise InvalidParameter("psl2 kinds need variant 'psl' or 'pgl'")
            if self.q < 5 or self.q % 2 == 0 or not is_prime(self.q):
                raise InvalidParameter(f"psl2 kind needs an odd prime q >= 5, got {self.q}")
        else:
            raise InvalidParameter(f"unknown factor family {self.family!r}")

    @classmethod
    def cyclic(cls, q: int) -> "FactorKind":
        return cls("cyclic", q)

    @classmethod
    def psl2(cls, q: int, variant: str = "psl") -> "FactorKind":
        return cls("psl2", q, variant.lower())

    @property
    def label(self) -> str:
        if self.family == "cyclic":
            return f"C{self.q}"
        return f"{'PGL' if self.variant == 'pgl' else 'PSL'}(2,{self.q})"

    def closed_form_minimum(self) -> int | None:
        """w(X) of the attached almost simple group (psl2 kinds only)."""
        if self.family != "psl2":
            return None
        return predicted_minimal_odd_index(self.q, self.variant)

    def to_json_dict(self) -> dict:
        if self.family == "cyclic":
            return {"cyclic": self.q}
        return {"psl2": {"q": self.q, "variant": self.variant}}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FactorKind":
        if "cyclic" in data:
            return cls.cyclic(int_from_json(data["cyclic"]))
        if "psl2" in data:
            return cls.psl2(int_from_json(data["psl2"]["q"]), data["psl2"]["variant"])
        raise ValueError(f"unknown kind encoding {data!r}")


@dataclass(frozen=True)
class FactorDescriptor:
    """One chief-factor datum: kind, composition length r, and the
    nonzero coefficients b_n of its polynomial (constant term 1 is
    implicit and never stored)."""

    ident: int
    kind: FactorKind
    multiplicity: int
    coeffs: tuple[tuple[int, int], ...]

    @classmethod
    def make(
        cls,
        ident: int,
        kind: FactorKind,
        multiplicity: int,
        coeffs: Mapping[int, int] | Iterable[tuple[int, int]],
    ) -> "FactorDescriptor":
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        canon = tuple(sorted((int(n), int(b)) for n, b in items if int(b) != 0))
        return cls(ident, kind, int(multiplicity), canon)

    def __post_init__(self):
        if self.multiplicity < 1:
            raise InvalidParameter("multiplicity must be >= 1")
        for n, b in self.coeffs:
            if n < 2:
                raise InvalidParameter("coefficient indices must be >= 2 (1 is implicit)")
            if b == 0:
                raise InvalidParameter("zero coefficients must not be stored")
        if self.kind.family == "cyclic":
            allowed = self.kind.q ** self.multiplicity
            for n, b in self.coeffs:
                if n != allowed:
                    raise InvalidParameter(
                        f"cyclic factor may only carry index {allowed}, got {n}"
                    )
                if b > 0:
                    raise InvalidParameter(
                        "cyclic factor coefficient is minus a complement count"
                    )
        else:
            for n, _ in self.coeffs:
                if n % 2 == 1 and integer_nth_root(n, self.multiplicity) is None:
                    raise InvalidParameter(
                        f"odd index {n} is not an exact {self.multiplicity}-th power"
                    )

    def coefficient(self, n: int) -> int:
        for idx, b in self.coeffs:
            if idx == n:
                return b
        return 0

    def support(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.coeffs)

    def polynomial(self) -> DirichletPolynomial:
        return DirichletPolynomial({1: 1, **dict(self.coeffs)})

    def to_json_dict(self) -> dict:
        return {
            "id": self.ident,
            "kind": self.kind.to_json_dict(),
            "r": self.multiplicity,
            "coeffs": [{"n": n, "b": str(b)} for n, b in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FactorDescriptor":
        return cls.make(
            int_from_json(data["id"]),
            FactorKind.from_json_dict(data["kind"]),
            int_from_json(data["r"]),
            {int_from_json(t["n"]): int_from_json(t["b"]) for t in data["coeffs"]},
        )


def descriptor_from_supplement_poly(
    ident: int,
    kind: FactorKind,
    multiplicity: int,
    supplement_poly: DirichletPolynomial,
) -> FactorDescriptor:
    """Turn a supplement zeta polynomial of the almost simple group X
    into the factor data of a chief factor S^r: the index substitution
    sends c_m / m^s to c_m * m^(r-1) / (m^r)^s."""
    if supplement_poly.coefficient(1) != 1:
        raise InvalidParameter("supplement polynomial must have constant term 1")
    from .dirichlet import power_shift

    shifted = power_shift(supplement_poly, multiplicity)
    coeffs = {n: b for n, b in shifted.items() if n != 1}
    return FactorDescriptor.make(ident, kind, multiplicity, coeffs)


def cyclic_descriptor(ident: int, q: int, multiplicity: int, complements: int) -> FactorDescriptor:
    if complements < 0:
        raise InvalidParameter("complement count must be >= 0")
    coeffs = {} if complements == 0 else {q**multiplicity: -complements}
    return FactorDescriptor.make(ident, FactorKind.cyclic(q), multiplicity, coeffs)


# ---------------------------------------------------------------------------
# witness extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductExperiment:
    factors: tuple[FactorDescriptor, ...]
    q: int
    lambda_def: LambdaPredicate

    def __post_init__(self):
        if not is_prime(self.q):
            raise InvalidParameter(f"{self.q} is not prime")
        if self.lambda_def.q != self.q:
            raise InvalidParameter("lambda predicate must use the experiment's prime")


@dataclass
class WitnessExtraction:
    witness: int | None
    contributing_ids: tuple[int, ...]
    factors: tuple[DirichletPolynomial, ...]

    @property
    def status(self) -> str:
        return "ok" if self.witness is not None else "no-witness"

    def to_json_dict(self) -> dict:
        return {
            "w": self.witness,
            "i_star": list(self.contributing_ids),
            "f_star": [p.to_json_dict() for p in self.factors],
            "status": self.status,
        }


def _validate_shape(
    factors: Sequence[FactorDescriptor], q: int, lam: LambdaPredicate
) -> list[tuple[int, FactorDescriptor]]:
    """Check the extraction hypothesis on every in-window index and
    return the candidate witnesses (m, factor): indices n in Lambda
    with nonzero coefficient must be exact r_i-th powers with
    q-adic valuation exactly r_i."""
    candidates = []
    for f in factors:
        for n, b in f.coeffs:
            if not lam.contains(n):
                continue
            m = integer_nth_root(n, f.multiplicity)
            if m is None:
                raise HypothesisViolated(
                    f"factor {f.ident}: index {n} in Lambda is not an exact "
                    f"{f.multiplicity}-th power"
                )
            if padic_valuation(n, q) != f.multiplicity:
                raise HypothesisViolated(
                    f"factor {f.ident}: index {n} has {q}-adic valuation "
                    f"{padic_valuation(n, q)}, want {f.multiplicity}"
                )
            candidates.append((m, f))
    return candidates


def extract_witness_product(exp: ProductExperiment) -> WitnessExtraction:
    """Minimal witness w with v_q(w) = 1 and some nonzero b_{i,w^{r_i}},
    plus the induced finite product over the contributing factors.
    Raises HypothesisViolated when the data does not have the required
    power shape; an empty candidate set is reported, not raised."""
    candidates = _validate_shape(exp.factors, exp.q, exp.lambda_def)
    if not candidates:
        return WitnessExtraction(None, (), ())
    w = min(m for m, _ in candidates)
    contributing = []
    polys = []
    for f in exp.factors:
        b = f.coefficient(w**f.multiplicity)
        if b != 0:
            contributing.append(f.ident)
            polys.append(DirichletPolynomial({1: 1, w**f.multiplicity: b}))
    return WitnessExtraction(w, tuple(contributing), tuple(polys))


# ---------------------------------------------------------------------------
# Skolem-Mahler-Lech finiteness conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantExponents:
    """The value r occurring ``count`` times, or infinitely often."""

    value: int
    count: int = 1
    infinite: bool = False

    def __post_init__(self):
        if self.value < 1 or self.count < 1:
            raise InvalidParameter("exponent families need positive entries")


@dataclass(frozen=True)
class ArithmeticExponents:
    """r_i = start + i*step for all i >= 0 (infinite family)."""

    start: int
    step: int

    def __post_init__(self):
        if self.start < 1 or self.step < 1:
            raise InvalidParameter("arithmetic family needs start >= 1, step >= 1")


@dataclass(frozen=True)
class GeometricExponents:
    """r_i = start * ratio**i for all i >= 0 (infinite family)."""

    start: int
    ratio: int

    def __post_init__(self):
        if self.start < 1 or self.ratio < 2:
            raise InvalidParameter("geometric family needs start >= 1, ratio >= 2")


ExponentFamily = ConstantExponents | ArithmeticExponents | GeometricExponents


@dataclass
class SmlReport:
    """Verdict on the two finiteness hypotheses for exponent data:
    (i) every n has only finitely many r_i dividing it;
    (ii) some prime divides no r_i at all."""

    condition_i_holds: bool
    condition_i_violated_at: int | None
    condition_ii_witness: int | None
    exact: bool
    note: str = ""

    @property
    def condition_ii_holds(self) -> bool:
        return self.condition_ii_witness is not None

    def to_json_dict(self) -> dict:
        return {
            "condition_i": {
                "holds": self.condition_i_holds,
                "violated_at": self.condition_i_violated_at,
            },
            "condition_ii": {
                "holds": self.condition_ii_holds,
                "witness": self.condition_ii_witness,
            },
            "exact": self.exact,
            "note": self.note,
        }


def _coerce_families(families) -> list[ExponentFamily]:
    out: list[ExponentFamily] = []
    for fam in families:
        if isinstance(fam, (ConstantExponents, ArithmeticExponents, GeometricExponents)):
            out.append(fam)
        elif isinstance(fam, int) and not isinstance(fam, bool):
            out.append(ConstantExponents(fam))
        else:
            raise InvalidParameter(f"not an exponent family: {fam!r}")
    return out


def check_sml_conditions(families, probe_bound: int = 10_000) -> SmlReport:
    """Decide both finiteness conditions exactly on the encoded data.

    Condition (i) fails precisely when some value repeats infinitely
    often (arithmetic and geometric families are strictly increasing,
    so each n only meets finitely many of their terms).  Condition (ii)
    asks for a prime dividing no term: for an arithmetic family
    start + i*step that means p | step and p does not divide start, a
    finite candidate set; constant and geometric families only exclude
    the primes dividing their stated values.
    """
    fams = _coerce_families(families)
    inf_values = sorted(f.value for f in fams if isinstance(f, ConstantExponents) and f.infinite)
    cond_i = not inf_values
    violated_at = inf_values[0] if inf_values else None

    arith = [f for f in fams if isinstance(f, ArithmeticExponents)]
    excluded: set[int] = set()
    for f in fams:
        if isinstance(f, ConstantExponents):
            excluded.update(prime_factors(f.value)) if f.value > 1 else None
        elif isinstance(f, GeometricExponents):
            if f.start > 1:
                excluded.update(prime_factors(f.start))
            excluded.update(prime_factors(f.ratio))

    def divides_no_term(p: int) -> bool:
        if p in excluded:
            return False
        for f in arith:
            # p divides some start + i*step unless p | step and p does not divide start
            if f.step % p != 0 or f.start % p == 0:
                return False
        return True

    witness = None
    note = ""
    exact = True
    if arith:
        cands = sorted(
            p for p in prime_factors(arith[0].step) if divides_no_term(p)
        )
        witness = cands[0] if cands else None
    else:
        for p in iter_primes():
            if p > probe_bound:
                exact = False
                note = f"no witness prime found up to {probe_bound}"
                break
            if divides_no_term(p):
                witness = p
                break
    return SmlReport(
        condition_i_holds=cond_i,
        condition_i_violated_at=violated_at,
        condition_ii_witness=witness,
        exact=exact,
        note=note,
    )


# ---------------------------------------------------------------------------
# full replay of the finiteness pipeline on factor data
# ---------------------------------------------------------------------------


@dataclass
class ReplayReport:
    q: int
    lambda_def: LambdaPredicate
    witness: int | None
    i_star: tuple[int, ...]
    h_factors: tuple[DirichletPolynomial, ...]
    min_psl_multiplicity: int | None
    beta: int | None
    c_beta: int | None
    factor_summaries: tuple[dict, ...]
    sml: SmlReport

    @property
    def c_beta_negative(self) -> bool | None:
        return None if self.c_beta is None else self.c_beta < 0

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "lambda": self.lambda_def.describe(),
            "w": self.witness,
            "i_star": list(self.i_star),
            "h_factors": [p.to_json_dict() for p in self.h_factors],
            "r": self.min_psl_multiplicity,
            "beta": self.beta,
            "c_beta": None if self.c_beta is None else str(self.c_beta),
            "c_beta_negative": self.c_beta_negative,
            "factors": list(self.factor_summaries),
            "sml": self.sml.to_json_dict(),
        }


def replay_finiteness_argument(
    factors: Sequence[FactorDescriptor], probe_bound: int = 10_000
) -> ReplayReport:
    """Run the whole pipeline on a concrete factor family.

    Computes the dominating prime q (largest over the factor kinds),
    the odd-multiples-of-q window, the minimal witness w and the ids
    I* contributing at w^{r_i} with the induced product H(s), the
    minimal composition length r among the PSL2(q) factors with the
    corresponding beta (minimal in-window index of valuation r, using
    the variant of the window with no prime above q), the coefficient
    c_beta summed over the contributing factors of minimal w, and the
    finiteness verdict on the exponents of I* (window-relative:
    repeated exponents inside the window are read as persistent).
    """
    factors = tuple(factors)
    if not factors:
        raise EmptyInput("no factor descriptors given")
    ids = [f.ident for f in factors]
    if len(set(ids)) != len(ids):
        raise InvalidParameter("factor ids must be distinct")
    q = max(f.kind.q for f in factors)
    lam = LambdaPredicate(q, odd=True, bounded_primes=False)
    lam_gamma = LambdaPredicate(q, odd=True, bounded_primes=True)

    extraction = extract_witness_product(
        ProductExperiment(factors, q, lam)
    )
    w = extraction.witness
    i_star = extraction.contributing_ids

    psl_mults = [f.multiplicity for f in factors if f.kind.family == "psl2" and f.kind.q == q]
    r = min(psl_mults) if psl_mults else None

    beta = None
    if r is not None:
        hits = [
            n
            for f in factors
            for n, b in f.coeffs
            if n > 1 and lam_gamma.contains(n) and padic_valuation(n, q) == r
        ]
        beta = min(hits) if hits else None

    # coefficient of 1/beta^s in the product: at the minimal in-window
    # index no convolution cross-terms can land, so it is the plain sum
    # of the per-factor coefficients (for lattice-derived data only the
    # factors of minimal multiplicity and minimal closed-form w carry a
    # nonzero term there)
    c_beta = None
    if beta is not None and w is not None:
        c_beta = sum(f.coefficient(beta) for f in factors)

    summaries = tuple(
        {
            "id": f.ident,
            "kind": f.kind.label,
            "r": f.multiplicity,
            "w_closed_form": f.kind.closed_form_minimum(),
            "contributes": f.ident in i_star,
        }
        for f in factors
    )

    star_mults = Counter(
        f.multiplicity for f in factors if f.ident in i_star
    )
    families = [
        ConstantExponents(value, count=k, infinite=(k > 1))
        for value, k in sorted(star_mults.items())
    ]
    sml = check_sml_conditions(families, probe_bound=probe_bound)
    if any(k > 1 for k in star_mults.values()):
        sml.exact = False
        sml.note = (sml.note + " " if sml.note else "") + (
            "window-relative: repeated multiplicities in the window are "
            "treated as persistent repetition"
        )

    return ReplayReport(
        q=q,
        lambda_def=lam,
        witness=w,
        i_star=i_star,
        h_factors=extraction.factors,
        min_psl_multiplicity=r,
        beta=beta,
        c_beta=c_beta,
        factor_summaries=summaries,
        sml=sml,
    )


# ---------------------------------------------------------------------------
# prime support
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimeSupport:
    primes: frozenset[int]
    window_bounded: bool

    def to_json_dict(self) -> dict:
        return {
            "primes": sorted(self.primes),
            "window_bounded": self.window_bounded,
        }


def prime_support(series: DirichletPolynomial | TruncatedSeries) -> PrimeSupport:
    """Primes dividing some index with nonzero coefficient.  For a
    truncated series the answer only sees the window, so it is a lower
    bound and flagged as such."""
    if isinstance(series, DirichletPolynomial):
        items = series.items()
        bounded = False
    elif isinstance(series, TruncatedSeries):
        items = series.terms().items()
        bounded = True
    else:
        raise TypeError("prime_support wants a DirichletPolynomial or TruncatedSeries")
    primes: set[int] = set()
    for n, a in items:
        if a != 0 and n > 1:
            primes.update(prime_factors(n))
    return PrimeSupport(frozenset(primes), bounded)


def index_primes(group: PermGroup) -> frozenset[int]:
    """Primes dividing the index of some subgroup of the finite group;
    the trivial subgroup has index |G|, so this is just the prime
    support of the group order."""
    return frozenset(prime_factors(group.order))
