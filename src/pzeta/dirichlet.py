"""Exact arithmetic with integer Dirichlet polynomials.

A Dirichlet polynomial is a finite formal sum ``sum_n a_n / n^s`` with
integer coefficients, stored sparsely as a map from index ``n >= 1`` to
the nonzero coefficient ``a_n``.  Addition is coefficientwise and
multiplication is Dirichlet convolution (indices multiply), so the
coefficient of ``n`` in a product is ``sum_{d*e=n} a_d b_e``.

Three value types live here:

* :class:`DirichletPolynomial` - finitely supported, canonical
  (no stored zeros), immutable.  Structural equality is mathematical
  equality.
* :class:`TruncatedSeries` - an explicit finite window onto a formal
  Dirichlet series: all coefficients with index ``<= bound`` are exact.
  Windows are closed under sums and products, because a product index
  exceeds the bound as soon as one factor index does.
* :class:`RationalSeries` - a formal quotient of two polynomials whose
  denominator has constant coefficient +-1, so the expansion has
  integer coefficients.

Coefficients are Python ints wherever they are stored or returned.
Truncated products (:func:`truncated_product` and ``TruncatedSeries``
multiplication) run on numpy columns, ascending indices beside their
coefficients: each step sorts the scaled prefixes of the running
product and sums the runs of equal indices.  A column is int64 only
while a bound proven in Python ints keeps every value below 2^63 (the
indices: the truncation bound; the coefficients: max |running| times
the sum of |b| over the other operand); otherwise the same code runs
on ``dtype=object`` columns of Python ints.  No floating point is used
anywhere.

Public constructors validate every term; results computed in this module
skip that through the private ``_trusted`` classmethods, which only sort
the term map and drop zeros, or ``TruncatedSeries._from_columns``, which
reads sorted, zero-free columns back into a term map.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from itertools import takewhile
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    FactorNotUnital,
    NonUnitDenominator,
    NotDivisible,
    ZeroDivisor,
)

TermMap = Mapping[int, int] | Iterable[tuple[int, int]]


def _canonical_terms(terms: TermMap) -> dict[int, int]:
    items = terms.items() if isinstance(terms, Mapping) else terms
    acc: dict[int, int] = {}
    for n, a in items:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"index must be an integer >= 1, got {n!r}")
        if not isinstance(a, int) or isinstance(a, bool):
            raise ValueError(f"coefficient must be an int, got {a!r}")
        acc[n] = acc.get(n, 0) + a
    return _sorted_nonzero(acc)


def _sorted_nonzero(acc: dict[int, int]) -> dict[int, int]:
    return {n: acc[n] for n in sorted(acc) if acc[n]}


def int_from_json(value) -> int:
    """An integer field of a JSON input: an int (not a bool) or a decimal
    string, so that no float is truncated silently."""
    if isinstance(value, str):
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"expected an integer or a decimal string, got {value!r}")


def _check_bound(bound) -> None:
    if not isinstance(bound, int) or bound < 1:
        raise ValueError("bound must be an int >= 1")


def _window(items: Iterable[tuple[int, int]], bound: int) -> list[tuple[int, int]]:
    """The leading terms of ascending ``items`` with index <= bound."""
    return list(takewhile(lambda t: t[0] <= bound, items))


_INT64_LIMIT = 1 << 63


def _column(values: Sequence[int], magnitude: int) -> np.ndarray:
    """``values`` as a column: int64 when ``magnitude`` bounds every value
    the column will hold below 2^63, else Python ints (``dtype=object``)."""
    return np.array(values, dtype=np.int64 if magnitude < _INT64_LIMIT else object)


def _convolve(
    idx: np.ndarray, coef: np.ndarray, window: list[tuple[int, int]], bound: int
) -> tuple[np.ndarray, np.ndarray]:
    """Columns of the product, truncated at ``bound``, of the series with
    ascending indices ``idx`` (nonempty, int64 only if ``bound`` < 2^63)
    and coefficients ``coef`` by the ascending terms ``window`` (indices
    <= bound): ascending indices and their nonzero coefficients.

    Term (n2, a2) meets the prefix of ``idx`` up to ``bound // n2``, cut
    by ``searchsorted``.  The prefixes, scaled by their terms, are
    appended into one column, sorted stably by index, and each run of
    equal indices is summed by ``np.add.reduceat``.  A run holds at most
    one product per window term, so every partial sum is at most
    max|coef| * sum|a2| in magnitude: ``coef`` stays int64 only while
    that is below 2^63, and is taken to Python ints before this step
    otherwise."""
    ns, cs = zip(*window)
    if coef.dtype != object:
        top = max(int(coef.max()), -int(coef.min()))
        if top * sum(map(abs, cs)) >= _INT64_LIMIT:
            coef = coef.astype(object)
    cuts = np.searchsorted(idx, bound // np.array(ns, dtype=idx.dtype), side="right")
    parts = [(cut, n2, a2) for cut, n2, a2 in zip(cuts.tolist(), ns, cs) if cut]
    if not parts:
        return idx[:0], coef[:0]
    n = np.concatenate([idx[:cut] * n2 for cut, n2, _ in parts])
    a = np.concatenate([coef[:cut] * a2 for cut, _, a2 in parts])
    # one column reordered at a time, the permutation dropped after: the
    # step's peak memory stays near that of the term map it replaces
    order = np.argsort(n, kind="stable")
    n = n[order]
    a = a[order]
    del order
    new = np.ones(len(n), dtype=bool)
    new[1:] = n[1:] != n[:-1]
    starts = np.flatnonzero(new)
    sums = np.add.reduceat(a, starts)
    keep = sums != 0
    return n[starts[keep]], sums[keep]


class DirichletPolynomial:
    """Immutable sparse Dirichlet polynomial with exact int coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: TermMap = ()):
        self._terms = _canonical_terms(terms)
        self._hash: int | None = None

    @classmethod
    def _trusted(cls, acc: dict[int, int]) -> "DirichletPolynomial":
        out = cls.__new__(cls)
        out._terms = _sorted_nonzero(acc)
        out._hash = None
        return out

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "DirichletPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "DirichletPolynomial":
        return cls({1: 1})

    @classmethod
    def term(cls, n: int, a: int) -> "DirichletPolynomial":
        """The single term ``a / n^s``."""
        return cls({n: a})

    # -- inspection --------------------------------------------------

    def terms(self) -> dict[int, int]:
        """Copy of the term map, ascending by index."""
        return dict(self._terms)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self._terms.items())

    def coefficient(self, n: int) -> int:
        return self._terms.get(n, 0)

    def support(self) -> tuple[int, ...]:
        return tuple(self._terms)

    @property
    def min_index(self) -> int | None:
        return next(iter(self._terms), None)

    @property
    def max_index(self) -> int | None:
        return next(reversed(self._terms), None)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {1: 1}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring structure ----------------------------------------------

    @staticmethod
    def _coerce(other) -> "DirichletPolynomial | None":
        if isinstance(other, DirichletPolynomial):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return DirichletPolynomial({1: other})
        return None

    def _combine(self, other, sign: int) -> "DirichletPolynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self._terms)
        for n, a in o._terms.items():
            acc[n] = acc.get(n, 0) + sign * a
        return DirichletPolynomial._trusted(acc)

    def __add__(self, other) -> "DirichletPolynomial":
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "DirichletPolynomial":
        return DirichletPolynomial._trusted({n: -a for n, a in self._terms.items()})

    def __sub__(self, other) -> "DirichletPolynomial":
        return self._combine(other, -1)

    def __rsub__(self, other) -> "DirichletPolynomial":
        return (-self)._combine(other, 1)

    def __mul__(self, other) -> "DirichletPolynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc: dict[int, int] = {}
        for n1, a1 in self._terms.items():
            for n2, a2 in o._terms.items():
                m = n1 * n2
                acc[m] = acc.get(m, 0) + a1 * a2
        return DirichletPolynomial._trusted(acc)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "DirichletPolynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative int")
        out = DirichletPolynomial.one()
        for _ in range(k):
            out = out * self
        return out

    # -- comparisons / hashing ---------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(self._terms.items()))
        return self._hash

    # -- evaluation ---------------------------------------------------

    def evaluate(self, k: int) -> Fraction:
        """Exact value ``sum a_n / n^k`` at a nonnegative integer ``k``."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("evaluation point must be a nonnegative int")
        return sum((Fraction(a, n**k) for n, a in self._terms.items()),
                   Fraction(0))

    # -- formatting ---------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for i, (n, a) in enumerate(self._terms.items()):
            mag = abs(a)
            body = str(mag) if n == 1 else f"{mag}/{n}^s"
            if i == 0:
                parts.append(body if a > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if a > 0 else '-'} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"DirichletPolynomial({self._terms!r})"

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        """``{"terms": [{"n": ..., "a": "<decimal>"}, ...]}`` ascending in n.

        Coefficients travel as decimal strings so arbitrarily large
        integers survive any JSON parser.
        """
        return {"terms": [{"n": n, "a": str(a)} for n, a in self._terms.items()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DirichletPolynomial":
        return cls({int_from_json(t["n"]): int_from_json(t["a"]) for t in data["terms"]})


ONE = DirichletPolynomial.one()
ZERO = DirichletPolynomial.zero()


def prime_projection(p: DirichletPolynomial, primes: Iterable[int]) -> DirichletPolynomial:
    """Delete every term whose index is divisible by one of ``primes``.

    This is a ring endomorphism: indices of surviving terms multiply to
    surviving indices, so it commutes with sums and products.
    """
    ps = _checked_primes(primes)
    return DirichletPolynomial._trusted(
        {n: a for n, a in p.items() if not any(n % q == 0 for q in ps)}
    )


def _checked_primes(primes: Iterable[int]) -> frozenset[int]:
    from .numtheory import is_prime

    ps = frozenset(primes)
    for q in ps:
        if not isinstance(q, int) or not is_prime(q):
            raise ValueError(f"{q!r} is not a prime")
    return ps


def power_shift(p: DirichletPolynomial, r: int) -> DirichletPolynomial:
    """Substitute ``s -> r*s - r + 1``: the term ``a/m^s`` becomes
    ``a * m^(r-1) / (m^r)^s``.  A ring homomorphism for every r >= 1."""
    if not isinstance(r, int) or r < 1:
        raise ValueError("shift multiplicity must be an int >= 1")
    if r == 1:
        return p
    return DirichletPolynomial._trusted({n**r: a * n ** (r - 1) for n, a in p.items()})


def divide_exact(
    p: DirichletPolynomial,
    d: DirichletPolynomial,
    support_bound: int | None = None,
) -> DirichletPolynomial:
    """Exact quotient q with ``d * q == p``, or raise :class:`NotDivisible`.

    Elimination runs by ascending index: the minimal remaining index of
    the remainder must be a multiple of d's minimal index, and the
    leading coefficient of d must divide there exactly.  Quotient
    support is only searched up to ``support_bound`` (default: the
    maximal support index of p), which makes failure decidable.

    The least remainder index never decreases (updates land at k*e >=
    k*m0 = n), so a heap of pending indices yields it: O(|q| * |d| * log),
    not a scan of the whole remainder per quotient term.
    """
    if d.is_zero():
        raise ZeroDivisor("division by the zero polynomial")
    if p.is_zero():
        return ZERO
    m0 = d.min_index
    c0 = d.coefficient(m0)
    bound = support_bound if support_bound is not None else p.max_index
    rem = p.terms()
    heap = list(rem)  # ascending, so already a heap
    quo: dict[int, int] = {}
    while heap:
        n = heappop(heap)
        if n not in rem:
            continue
        if n % m0 != 0:
            raise NotDivisible(f"remainder index {n} not a multiple of {m0}")
        k = n // m0
        if k > bound:
            raise NotDivisible(f"quotient support would exceed bound {bound}")
        if rem[n] % c0 != 0:
            raise NotDivisible(f"leading coefficient {c0} does not divide {rem[n]}")
        coeff = rem[n] // c0
        quo[k] = coeff
        for e, b in d.items():
            idx = k * e
            val = rem.get(idx, 0) - coeff * b
            if val:
                if idx not in rem:
                    heappush(heap, idx)
                rem[idx] = val
            else:
                rem.pop(idx, None)
    return DirichletPolynomial._trusted(quo)


class TruncatedSeries:
    """Exact window onto a formal Dirichlet series: terms with index
    ``<= bound`` only.  Arithmetic keeps every retained coefficient
    exact; combining two windows truncates to the smaller bound."""

    __slots__ = ("_bound", "_terms")

    def __init__(self, bound: int, terms: TermMap = ()):
        _check_bound(bound)
        canon = _canonical_terms(terms)
        bad = [n for n in canon if n > bound]
        if bad:
            raise ValueError(f"terms beyond bound {bound}: {bad[:3]}")
        self._bound = bound
        self._terms = canon

    @classmethod
    def _trusted(cls, bound: int, acc: dict[int, int]) -> "TruncatedSeries":
        out = cls.__new__(cls)
        out._bound = bound
        out._terms = _sorted_nonzero(acc)
        return out

    @classmethod
    def _from_columns(cls, bound: int, idx: np.ndarray, coef: np.ndarray) -> "TruncatedSeries":
        """From ascending index and nonzero coefficient columns, read back
        into Python ints."""
        out = cls.__new__(cls)
        out._bound = bound
        out._terms = dict(zip(idx.tolist(), coef.tolist()))
        return out

    @classmethod
    def from_polynomial(cls, p: DirichletPolynomial, bound: int) -> "TruncatedSeries":
        _check_bound(bound)
        return cls(bound, _window(p.items(), bound))

    @property
    def bound(self) -> int:
        return self._bound

    def terms(self) -> dict[int, int]:
        return dict(self._terms)

    def coefficient(self, n: int) -> int:
        if n > self._bound:
            raise ValueError(f"index {n} beyond truncation bound {self._bound}")
        return self._terms.get(n, 0)

    def support(self) -> tuple[int, ...]:
        return tuple(self._terms)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        bound = min(self._bound, other._bound)
        acc = {n: a for n, a in self._terms.items() if n <= bound}
        for n, a in other._terms.items():
            if n <= bound:
                acc[n] = acc.get(n, 0) + a
        return TruncatedSeries._trusted(bound, acc)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        bound = min(self._bound, other._bound)
        terms, window = _window(self._terms.items(), bound), _window(other._terms.items(), bound)
        if not terms or not window:
            return TruncatedSeries._trusted(bound, {})
        ns, cs = zip(*terms)
        idx, coef = _column(ns, bound), _column(cs, max(map(abs, cs)))
        return TruncatedSeries._from_columns(bound, *_convolve(idx, coef, window, bound))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._bound == other._bound and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._bound, tuple(self._terms.items())))

    def __str__(self) -> str:
        poly = DirichletPolynomial._trusted(self._terms)
        return f"{poly} + O(n > {self._bound})"

    def __repr__(self) -> str:
        return f"TruncatedSeries(bound={self._bound}, terms={self._terms!r})"

    def to_json_dict(self) -> dict:
        return {
            "bound": self._bound,
            "terms": [{"n": n, "a": str(a)} for n, a in self._terms.items()],
        }


def truncated_product(
    factors: Iterable[DirichletPolynomial], bound: int
) -> TruncatedSeries:
    """Product of finitely many factors, exact for all indices <= bound.

    Every factor must have constant coefficient 1.  A factor whose
    entire support beyond index 1 exceeds the bound multiplies in as 1,
    so callers may pass long factor lists cheaply.  The result does not
    depend on factor order.

    The running product stays in two columns across the steps (see
    ``_convolve``): a factor term n2 meets only the running terms up to
    ``bound // n2``, so the cost is the number of products within the
    bound, not |product| * |factor| per step.  The term map is built once,
    at the end.
    """
    _check_bound(bound)
    idx, coef = _column([1], bound), np.ones(1, dtype=np.int64)
    for i, f in enumerate(factors):
        if f.coefficient(1) != 1:
            raise FactorNotUnital(
                f"factor #{i} has constant coefficient {f.coefficient(1)}, want 1"
            )
        if len(f) > 1 and f.support()[1] <= bound:
            idx, coef = _convolve(idx, coef, _window(f.items(), bound), bound)
    return TruncatedSeries._from_columns(bound, idx, coef)


class RationalSeries:
    """Formal quotient ``A(s)/B(s)`` of Dirichlet polynomials.

    The denominator's constant coefficient must be +-1 so that the
    expanded series has integer coefficients.  Instances are formal
    pairs: no canonical reduction is attempted, and equality is
    componentwise; compare expansions to test equality of the series.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: DirichletPolynomial, den: DirichletPolynomial = ONE):
        if den.is_zero():
            raise ZeroDivisor("rational series with zero denominator")
        if den.coefficient(1) not in (1, -1):
            raise NonUnitDenominator(
                f"denominator constant coefficient {den.coefficient(1)} is not a unit"
            )
        self._num = num
        self._den = den

    @property
    def numerator(self) -> DirichletPolynomial:
        return self._num

    @property
    def denominator(self) -> DirichletPolynomial:
        return self._den

    def expand(self, bound: int) -> TruncatedSeries:
        return expand_rational(self, bound)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __str__(self) -> str:
        return f"({self._num}) / ({self._den})"

    def __repr__(self) -> str:
        return f"RationalSeries({self._num!r}, {self._den!r})"

    def to_json_dict(self) -> dict:
        return {"num": self._num.to_json_dict(), "den": self._den.to_json_dict()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RationalSeries":
        return cls(
            DirichletPolynomial.from_json_dict(data["num"]),
            DirichletPolynomial.from_json_dict(data["den"]),
        )


def expand_rational(f: RationalSeries, bound: int) -> TruncatedSeries:
    """Integer-coefficient expansion of A/B, exact up to ``bound``.

    Back-substitution by ascending index: with u = B(1)-coefficient
    (+-1), the n-th coefficient is
    ``u * (A_n - sum_{d|n, d>1} B_d * t_{n/d})``, where d runs over the
    sparse support of B only.

    t_n = 0 outside S, the closure of supp A under multiplication by
    supp B minus {1}, capped at the bound: there A_n = 0 and no n/d with
    d | n in supp B lies in S.  So it runs over S alone, in
    O(|S| * |supp B|), not O(bound * |supp B|).
    """
    _check_bound(bound)
    num, den = f.numerator, f.denominator
    u = den.coefficient(1)
    if u not in (1, -1):
        raise NonUnitDenominator("denominator constant coefficient is not a unit")
    rest = [(d, b) for d, b in den.items() if d > 1]  # ascending
    reach = [n for n in num.support() if n <= bound]
    seen = set(reach)
    for n in reach:  # grows while it is walked, into S
        for d, _ in rest:
            m = n * d
            if m > bound:
                break
            if m not in seen:
                seen.add(m)
                reach.append(m)
    out: dict[int, int] = {}
    for n in sorted(reach):
        acc = num.coefficient(n)
        for d, b in rest:
            if d > n:
                break
            if n % d == 0:
                acc -= b * out.get(n // d, 0)
        if acc:
            out[n] = acc * u
    return TruncatedSeries._trusted(bound, out)
