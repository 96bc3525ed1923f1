"""Exact arithmetic with integer Dirichlet polynomials.

A Dirichlet polynomial is a finite formal sum ``sum_n a_n / n^s`` with
integer coefficients, stored sparsely as a map from index ``n >= 1`` to
the nonzero coefficient ``a_n``.  Addition is coefficientwise and
multiplication is Dirichlet convolution (indices multiply), so the
coefficient of ``n`` in a product is ``sum_{d*e=n} a_d b_e``.

One store holds terms: :class:`DirichletPolynomial`, finitely
supported, canonical (no stored zeros), immutable; structural equality
is mathematical equality.  Two value types build on it:

* :class:`TruncatedSeries` - a bound and the polynomial of the terms
  with index ``<= bound``: an explicit finite window onto a formal
  Dirichlet series whose coefficients there are exact.  Windows are
  closed under sums and products, because a product index exceeds the
  bound as soon as one factor index does.
* :class:`RationalSeries` - a formal quotient of two polynomials whose
  denominator has constant coefficient +-1, so the expansion has
  integer coefficients.

Coefficients are Python ints wherever they are returned.
Every product runs through one routine, ``_product(a, b, bound)``, on
one kernel, ``_convolve``, over numpy columns, ascending indices beside
their coefficients: the terms of ``a`` up to the bound are the columns,
those of ``b`` the window, and each step sorts the scaled prefixes of
the columns and sums the runs of equal indices.  Truncated products
(:func:`truncated_product` and ``TruncatedSeries`` multiplication) cut
at their bound; a ``DirichletPolynomial`` product is the truncated one
at bound ``max_a * max_b``, which cuts no term.  Every product keeps its
two columns, so a chain of products hands each result to the next as
columns, and builds its term map of Python ints only on first read.
A column is int64 only while a bound proven in Python ints keeps every
value below 2^63 (the indices: the bound; the coefficients: the sum,
over the other operand's terms b, of |b| times the largest |running|
coefficient that b meets within the bound); otherwise the same code
runs on ``dtype=object`` columns of Python ints.  No
floating point is used anywhere.

Both quotients, exact division (:func:`divide_exact`) and the expansion
of a :class:`RationalSeries` (:func:`expand_rational`), run one
elimination, ``_eliminate``: by ascending index from a heap of pending
remainder indices, popping each remainder entry once, up to a bound.

Public constructors validate every term; results computed in this module
skip that through ``DirichletPolynomial._trusted``, which only sorts the
term map and drops zeros, or ``DirichletPolynomial._from_columns``,
which keeps sorted, zero-free columns and reads them into a term map
when first read.
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
from .numtheory import is_prime

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


def object_from_json(value) -> dict:
    """A field of a JSON input that must be an object."""
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object, got {value!r}")
    return value


def list_from_json(value) -> list:
    """A field of a JSON input that must be a list."""
    if not isinstance(value, list):
        raise ValueError(f"expected a JSON list, got {value!r}")
    return value


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
    ascending indices ``idx`` (int64 only if ``bound`` < 2^63)
    and coefficients ``coef`` by the ascending terms ``window`` (indices
    <= bound): ascending indices and their nonzero coefficients.

    Term (n2, a2) meets the prefix of ``idx`` up to ``bound // n2``, cut
    by ``searchsorted``.  The prefixes, scaled by their terms, are
    appended into one column, sorted stably by index, and each run of
    equal indices is summed by ``np.add.reduceat``.  A run holds at most
    one product per window term, and term (n2, a2) meets only
    ``coef[:cut]``, so every partial sum is at most the sum over the
    terms of |a2| * max|coef[:cut]| in magnitude: ``coef`` stays int64
    only while that is below 2^63, and is taken to Python ints before
    this step otherwise."""
    ns, cs = zip(*window)
    cuts = np.searchsorted(idx, bound // np.array(ns, dtype=idx.dtype), side="right")
    parts = [(cut, n2, a2) for cut, n2, a2 in zip(cuts.tolist(), ns, cs) if cut]
    if not parts:
        return idx[:0], coef[:0]
    if coef.dtype != object:
        # max|coef[:cut]| per part; |coef| < 2^63, so np.abs cannot wrap
        tops = np.maximum.accumulate(np.abs(coef))[[cut - 1 for cut, _, _ in parts]].tolist()
        if sum(top * abs(a2) for top, (_, _, a2) in zip(tops, parts)) >= _INT64_LIMIT:
            coef = coef.astype(object)
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
    """Immutable sparse Dirichlet polynomial with exact int coefficients.

    ``_cols`` holds the (index, coefficient) columns of a polynomial the
    kernel built, else None.  Such a polynomial leaves ``_terms`` unset
    until it is first read (see ``__getattr__``)."""

    __slots__ = ("_terms", "_cols", "_hash")

    def __init__(self, terms: TermMap = ()):
        self._terms = _canonical_terms(terms)
        self._cols: tuple[np.ndarray, np.ndarray] | None = None
        self._hash: int | None = None

    @classmethod
    def _trusted(cls, acc: dict[int, int]) -> "DirichletPolynomial":
        out = cls.__new__(cls)
        out._terms = _sorted_nonzero(acc)
        out._cols = None
        out._hash = None
        return out

    @classmethod
    def _from_columns(cls, idx: np.ndarray, coef: np.ndarray) -> "DirichletPolynomial":
        """From ascending index and nonzero coefficient columns, which it
        keeps; the term map is read from them on first use."""
        out = cls.__new__(cls)
        out._cols = idx, coef
        out._hash = None
        return out

    def __getattr__(self, name: str):
        # reached only for a slot that is unset: ``_terms`` of a kernel
        # product, read here once from its columns into Python ints
        if name != "_terms":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        idx, coef = self._cols
        self._terms = terms = dict(zip(idx.tolist(), coef.tolist()))
        return terms

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
        if self._cols is None:
            return next(reversed(self._terms), None)
        idx = self._cols[0]
        return int(idx[-1]) if len(idx) else None

    def is_zero(self) -> bool:
        return not len(self)

    def is_one(self) -> bool:
        return self._terms == {1: 1}

    def __len__(self) -> int:
        # also the truth value: a polynomial is false exactly when zero
        return len(self._terms) if self._cols is None else len(self._cols[0])

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
        """The product at bound ``max_a * max_b``, which cuts no term: the
        longer operand becomes the columns, the shorter the window (see
        ``_product``)."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = (self, o) if len(self) >= len(o) else (o, self)
        if not b:
            return ZERO
        return _product(a, b, a.max_index * b.max_index)

    def _operand(self, bound: int) -> tuple[np.ndarray, np.ndarray]:
        """The columns of the terms up to ``bound``, as the column operand
        of a product at ``bound``: the kept ones, cut there, with the index
        column taken to Python ints once ``bound`` reaches 2^63 as
        ``_column`` would build it; else built from the term map."""
        if self._cols is None:
            terms = _window(self._terms.items(), bound)
            ns, cs = zip(*terms) if terms else ((), ())
            return _column(ns, bound), _column(cs, max(map(abs, cs), default=0))
        idx, coef = self._cols
        if len(idx) and int(idx[-1]) > bound:  # so bound < idx[-1] fits idx's dtype
            cut = int(np.searchsorted(idx, bound, side="right"))
            idx, coef = idx[:cut], coef[:cut]
        if bound >= _INT64_LIMIT and idx.dtype != object:
            idx = idx.astype(object)
        return idx, coef

    __rmul__ = __mul__

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
        terms = map(object_from_json, list_from_json(object_from_json(data)["terms"]))
        return cls({int_from_json(t["n"]): int_from_json(t["a"]) for t in terms})


ONE = DirichletPolynomial.one()
ZERO = DirichletPolynomial.zero()


def _product(a: DirichletPolynomial, b: DirichletPolynomial, bound: int) -> DirichletPolynomial:
    """``a * b`` truncated at ``bound``, on ``_convolve``: the terms of
    ``a`` up to the bound are the columns (``a._operand``), those of
    ``b`` the window.  The product keeps its columns."""
    window = _window(b.items(), bound)
    if not window:
        return ZERO
    return DirichletPolynomial._from_columns(*_convolve(*a._operand(bound), window, bound))


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


def _eliminate(
    p: DirichletPolynomial, d: DirichletPolynomial, bound: int
) -> tuple[dict[int, int], int | None]:
    """Quotient terms of p by nonzero d, by ascending index, up to ``bound``.

    The minimal remaining index n of the remainder must be a multiple of
    d's minimal index m0, and d's leading coefficient must divide there
    exactly (else :class:`NotDivisible`); the quotient term sits at
    k = n / m0.  Elimination stops at the first k past ``bound`` and
    returns the terms found with that k, or with None once the remainder
    is zero.

    The least remainder index never decreases (updates land at k*e >=
    k*m0 = n), so a heap of pending indices yields it: O(|q| * |d| * log),
    not a scan of the whole remainder per quotient term.  Each entry is
    popped from the remainder once, and d's leading term, which would
    only cancel that entry, is never applied; the other terms land
    above n, and an entry they cancel is deleted, so a heap index whose
    entry is gone is skipped.
    """
    (m0, c0), *rest = d.items()
    rem = p.terms()
    heap = list(rem)  # ascending, so already a heap
    quo: dict[int, int] = {}
    while heap:
        n = heappop(heap)
        a = rem.pop(n, 0)
        if not a:
            continue  # cancelled to zero after it was pushed
        if n % m0 != 0:
            raise NotDivisible(f"remainder index {n} not a multiple of {m0}")
        k = n // m0
        if k > bound:
            return quo, k
        if a % c0 != 0:
            raise NotDivisible(f"leading coefficient {c0} does not divide {a}")
        coeff = a // c0
        quo[k] = coeff
        for e, b in rest:
            idx, step = k * e, coeff * b
            old = rem.get(idx)
            if old is None:
                heappush(heap, idx)
                rem[idx] = -step
            elif old == step:
                del rem[idx]
            else:
                rem[idx] = old - step
    return quo, None


def divide_exact(
    p: DirichletPolynomial,
    d: DirichletPolynomial,
    support_bound: int | None = None,
) -> DirichletPolynomial:
    """Exact quotient q with ``d * q == p``, or raise :class:`NotDivisible`.

    Runs ``_eliminate`` with quotient support searched only up to
    ``support_bound`` (default: the maximal support index of p), which
    makes failure decidable: a quotient term past it refuses.
    """
    if d.is_zero():
        raise ZeroDivisor("division by the zero polynomial")
    if p.is_zero():
        return ZERO
    bound = support_bound if support_bound is not None else p.max_index
    quo, past = _eliminate(p, d, bound)
    if past is not None:
        raise NotDivisible(f"quotient support would exceed bound {bound}")
    return DirichletPolynomial._trusted(quo)


class TruncatedSeries:
    """Exact window onto a formal Dirichlet series: terms with index
    ``<= bound`` only, held as one :class:`DirichletPolynomial`.
    Arithmetic keeps every retained coefficient exact; combining two
    windows truncates to the smaller bound."""

    __slots__ = ("_bound", "_poly")

    def __init__(self, bound: int, terms: TermMap = ()):
        _check_bound(bound)
        poly = DirichletPolynomial(terms)
        bad = [n for n in poly.support() if n > bound]
        if bad:
            raise ValueError(f"terms beyond bound {bound}: {bad[:3]}")
        self._bound = bound
        self._poly = poly

    @classmethod
    def from_polynomial(cls, p: DirichletPolynomial, bound: int) -> "TruncatedSeries":
        _check_bound(bound)
        return _series(bound, DirichletPolynomial._trusted(dict(_window(p.items(), bound))))

    @property
    def bound(self) -> int:
        return self._bound

    def terms(self) -> dict[int, int]:
        return self._poly.terms()

    def coefficient(self, n: int) -> int:
        if n > self._bound:
            raise ValueError(f"index {n} beyond truncation bound {self._bound}")
        return self._poly.coefficient(n)

    def support(self) -> tuple[int, ...]:
        return self._poly.support()

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries.from_polynomial(
            self._poly + other._poly, min(self._bound, other._bound)
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        bound = min(self._bound, other._bound)
        return _series(bound, _product(self._poly, other._poly, bound))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._bound == other._bound and self._poly == other._poly

    def __hash__(self) -> int:
        return hash((self._bound, tuple(self._poly.items())))

    def __str__(self) -> str:
        return f"{self._poly} + O(n > {self._bound})"

    def __repr__(self) -> str:
        return f"TruncatedSeries(bound={self._bound}, terms={self._poly._terms!r})"

    def to_json_dict(self) -> dict:
        return {"bound": self._bound, **self._poly.to_json_dict()}


def _series(bound: int, poly: DirichletPolynomial) -> TruncatedSeries:
    """The window at ``bound`` held by ``poly``, whose indices are all
    <= bound, without the public constructor's checks."""
    out = TruncatedSeries.__new__(TruncatedSeries)
    out._bound = bound
    out._poly = poly
    return out


def truncated_product(
    factors: Iterable[DirichletPolynomial], bound: int
) -> TruncatedSeries:
    """Product of finitely many factors, exact for all indices <= bound.

    Every factor must have constant coefficient 1; all are checked, in
    the caller's order, before any product, so ``FactorNotUnital`` names
    the first bad factor by its position in ``factors``.  A factor whose
    entire support beyond index 1 exceeds the bound multiplies in as 1,
    so callers may pass long factor lists cheaply.  The result does not
    depend on factor order.

    The running product stays in two columns across the steps (see
    ``_product``): a factor term n2 meets only the running terms up to
    ``bound // n2``, so the cost is the number of products within the
    bound, not |product| * |factor| per step.  The factors multiply in
    ascending order of their second index (ties in the caller's order),
    so a factor whose terms lie far up comes late, and the terms it adds
    pass through few later steps.  No term map is built until the result
    is read.
    """
    _check_bound(bound)
    factors = list(factors)
    for i, f in enumerate(factors):
        if f.coefficient(1) != 1:
            raise FactorNotUnital(
                f"factor #{i} has constant coefficient {f.coefficient(1)}, want 1"
            )
    live = [(f.support()[1], f) for f in factors if len(f) > 1]
    live.sort(key=lambda t: t[0])  # stable: ties keep the caller's order
    running = ONE
    for second, f in live:
        if second > bound:
            break  # so is every later factor's
        running = _product(running, f, bound)
    return _series(bound, running)


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
        data = object_from_json(data)
        return cls(
            DirichletPolynomial.from_json_dict(data["num"]),
            DirichletPolynomial.from_json_dict(data["den"]),
        )


def expand_rational(f: RationalSeries, bound: int) -> TruncatedSeries:
    """Integer-coefficient expansion of A/B, exact up to ``bound``.

    ``_eliminate`` stopped at the bound: B's leading term is u / 1^s with
    u = +-1, so no step refuses, and the n-th coefficient is
    ``u * (A_n - sum_{d|n, d>1} B_d * t_{n/d})``.  Only indices reached
    from supp A through supp B are visited, not every n <= bound.
    """
    _check_bound(bound)
    quo, _ = _eliminate(f.numerator, f.denominator, bound)
    return _series(bound, DirichletPolynomial._trusted(quo))
