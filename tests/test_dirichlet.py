"""Ring arithmetic for Dirichlet polynomials, truncated windows and
rational series."""

import json
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pzeta import (
    DirichletPolynomial,
    FactorNotUnital,
    NonUnitDenominator,
    NotDivisible,
    RationalSeries,
    TruncatedSeries,
    ZeroDivisor,
    divide_exact,
    expand_rational,
    power_shift,
    prime_projection,
    truncated_product,
)
from pzeta import dirichlet
from helpers import random_polynomial, random_unit_lead, random_unital

D = DirichletPolynomial
ONE = D.one()


def P(terms):
    return D(terms)


class TestConstruction:
    def test_canonical_drops_zeros(self):
        assert P({2: 0, 3: 5}) == P({3: 5})

    def test_duplicate_pairs_sum(self):
        assert D([(2, 1), (2, 3)]) == P({2: 4})

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            P({0: 1})
        with pytest.raises(ValueError):
            P({-3: 1})

    def test_rejects_non_int_coefficients(self):
        with pytest.raises(ValueError):
            P({2: 1.5})

    def test_structural_equality_is_mathematical(self):
        assert P({1: 1, 2: -1}) == P({2: -1, 1: 1})
        assert hash(P({1: 1, 2: -1})) == hash(P({2: -1, 1: 1}))

    def test_str_uses_series_notation(self):
        assert str(P({1: 1, 2: -1, 3: -3, 6: 3})) == "1 - 1/2^s - 3/3^s + 3/6^s"
        assert str(D.zero()) == "0"


class TestAdd:
    def test_cancellation(self):
        assert P({1: 1, 2: -1}) + P({2: 1}) == ONE

    def test_additive_identity(self):
        p = P({2: 3, 7: -1})
        assert p + D.zero() == p

    def test_coefficientwise(self):
        lhs = P({1: 1, 3: -3}) + P({3: 2, 6: -1})
        assert lhs == P({1: 1, 3: -1, 6: -1})


class TestMul:
    def test_difference_of_squares(self):
        assert P({1: 1, 2: -1}) * P({1: 1, 2: 1}) == P({1: 1, 4: -1})

    def test_multiplicative_identity(self):
        p = P({2: 5, 9: -2})
        assert p * ONE == p

    def test_hand_convolution(self):
        assert P({1: 1, 2: -1}) * P({1: 1, 3: -3}) == P({1: 1, 2: -1, 3: -3, 6: 3})

    def test_big_integers_are_exact(self):
        big = 10**40
        p = P({2: big})
        assert (p * p).coefficient(4) == big * big


class TestDivideExact:
    def test_inverse_of_mul(self):
        assert divide_exact(P({1: 1, 4: -1}), P({1: 1, 2: -1})) == P({1: 1, 2: 1})

    def test_divide_by_one(self):
        p = P({3: 2, 5: -1})
        assert divide_exact(p, ONE) == p

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisor):
            divide_exact(ONE, D.zero())

    def test_not_divisible_by_coefficient(self):
        with pytest.raises(NotDivisible):
            divide_exact(P({1: 1, 2: 1}), P({1: 2}))

    def test_not_divisible_by_index(self):
        with pytest.raises(NotDivisible):
            divide_exact(P({1: 1, 3: 1}), P({2: 1}))

    def test_respects_support_bound(self):
        p = P({1: 1, 2: 1, 4: 1, 8: 1})
        d = P({1: 1, 2: -1})
        # true quotient of (1 - 1/16^s)/(1 - 1/2^s) has support up to 8
        product = p * d
        assert divide_exact(product, d) == p
        with pytest.raises(NotDivisible):
            divide_exact(product, d, support_bound=4)

    def test_zero_dividend(self):
        assert divide_exact(D.zero(), P({2: 3})) == D.zero()


class TestPrimeProjection:
    def test_definition(self):
        p = P({1: 1, 2: -1, 3: -3, 6: 3})
        assert prime_projection(p, {2}) == P({1: 1, 3: -3})

    def test_empty_set_is_identity(self):
        p = P({1: 1, 30: 7})
        assert prime_projection(p, set()) == p

    def test_homomorphism_on_example(self):
        p, q = P({1: 1, 2: -1}), P({1: 1, 3: -3})
        assert prime_projection(p * q, {3}) == prime_projection(p, {3}) * prime_projection(q, {3})
        assert prime_projection(p * q, {3}) == P({1: 1, 2: -1})

    def test_rejects_non_primes(self):
        with pytest.raises(ValueError):
            prime_projection(ONE, {4})


class TestPowerShift:
    def test_single_term(self):
        assert power_shift(P({1: 1, 6: -6}), 2) == P({1: 1, 36: -36})

    def test_identity_shift(self):
        p = P({2: 5, 7: 1})
        assert power_shift(p, 1) == p

    def test_cubes(self):
        assert power_shift(P({1: 1, 7: -7, 8: -8}), 3) == P({1: 1, 343: -343, 512: -512})

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            power_shift(ONE, 0)


class TestTruncatedProduct:
    def test_square(self):
        got = truncated_product([P({1: 1, 2: -1})] * 2, 4)
        assert got == TruncatedSeries(4, {1: 1, 2: -2, 4: 1})

    def test_empty_product(self):
        assert truncated_product([], 10) == TruncatedSeries(10, {1: 1})

    def test_matches_full_expansion_oracle(self):
        # oracle: multiply out exactly in the polynomial ring, then window
        rng = random.Random(5)
        cs = [rng.randint(1, 6) for _ in range(10)]
        factors = [P({1: 1, 5**i: -c}) for i, c in enumerate(cs, start=1)]
        full = ONE
        for f in factors:
            full = full * f
        expected = TruncatedSeries(25, {n: a for n, a in full.items() if n <= 25})
        got = truncated_product(factors, 25)
        assert got == expected
        assert got.coefficient(5) == -cs[0]
        assert got.coefficient(25) == -cs[1]

    def test_rejects_non_unital(self):
        with pytest.raises(FactorNotUnital):
            truncated_product([P({1: 2})], 4)
        with pytest.raises(FactorNotUnital):
            truncated_product([P({2: 1})], 4)


class TestTruncatedSeriesArithmetic:
    def test_add_truncates_to_smaller_bound(self):
        a = TruncatedSeries(10, {1: 1, 8: 2})
        b = TruncatedSeries(6, {1: 1, 4: -1, 6: 5})
        assert a + b == TruncatedSeries(6, {1: 2, 4: -1, 6: 5})

    def test_mul_is_exact_within_window(self):
        a = TruncatedSeries(12, {1: 1, 2: -1})
        b = TruncatedSeries(12, {1: 1, 3: -1})
        assert a * b == TruncatedSeries(12, {1: 1, 2: -1, 3: -1, 6: 1})

    def test_coefficient_beyond_bound_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(4, {1: 1}).coefficient(5)

    def test_terms_beyond_bound_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(4, {8: 1})


class TestRationalSeries:
    def test_geometric_expansion(self):
        f = RationalSeries(ONE, P({1: 1, 2: -1}))
        assert f.expand(8) == TruncatedSeries(8, {1: 1, 2: 1, 4: 1, 8: 1})

    def test_polynomial_over_one(self):
        p = P({1: 2, 6: -3})
        assert RationalSeries(p).expand(10) == TruncatedSeries.from_polynomial(p, 10)

    def test_expansion_multiplies_back(self):
        f = RationalSeries(P({1: 1, 4: -1}), P({1: 1, 2: -1}))
        expansion = f.expand(8)
        assert expansion == TruncatedSeries(8, {1: 1, 2: 1})
        back = truncated_product([P(expansion.terms()), P({1: 1, 2: -1})], 8)
        assert back == TruncatedSeries.from_polynomial(P({1: 1, 4: -1}), 8)

    def test_negative_unit_denominator(self):
        f = RationalSeries(P({1: 1}), P({1: -1, 2: 1}))
        expansion = f.expand(4)
        back = truncated_product([], 4)  # placeholder to keep bound
        del back
        # (-1 + 1/2^s) * t == 1 must hold on the window
        t = P(expansion.terms())
        prod = t * P({1: -1, 2: 1})
        assert {n: a for n, a in prod.items() if n <= 4} == {1: 1}

    def test_non_unit_denominator_rejected(self):
        with pytest.raises(NonUnitDenominator):
            RationalSeries(ONE, P({1: 2}))
        with pytest.raises(NonUnitDenominator):
            RationalSeries(ONE, P({2: 1}))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisor):
            RationalSeries(ONE, D.zero())

    def test_json_round_trip(self):
        f = RationalSeries(P({1: 1, 21: -(10**30)}), P({1: -1, 2: 7}))
        data = json.loads(json.dumps(f.to_json_dict()))
        assert RationalSeries.from_json_dict(data) == f


class TestEvaluate:
    def test_exact_fractions(self):
        p = P({1: 1, 2: -1, 3: -3, 6: 3})
        assert p.evaluate(2) == Fraction(1, 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ONE.evaluate(-1)


class TestJson:
    def test_round_trip_with_big_coefficients(self):
        p = P({1: 1, 29**10: -(29**30)})
        data = json.loads(json.dumps(p.to_json_dict()))
        assert DirichletPolynomial.from_json_dict(data) == p
        # coefficients travel as decimal strings
        assert isinstance(data["terms"][1]["a"], str)

    def test_terms_sorted_ascending(self):
        p = P({6: 3, 2: -1, 1: 1})
        assert [t["n"] for t in p.to_json_dict()["terms"]] == [1, 2, 6]


# -- hypothesis property checks (the large randomized suites live in
#    test_acceptance, these catch regressions fast) -------------------------

poly_st = st.builds(
    lambda pairs: D(pairs),
    st.lists(
        st.tuples(st.integers(1, 30), st.integers(-9, 9)), min_size=0, max_size=5
    ),
)


@settings(max_examples=150, deadline=None)
@given(poly_st, poly_st, poly_st)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@settings(max_examples=150, deadline=None)
@given(poly_st, poly_st, st.sets(st.sampled_from([2, 3, 5, 7]), max_size=3))
def test_projection_is_ring_homomorphism(p, q, primes):
    assert prime_projection(p + q, primes) == prime_projection(p, primes) + prime_projection(q, primes)
    assert prime_projection(p * q, primes) == prime_projection(p, primes) * prime_projection(q, primes)


@settings(max_examples=150, deadline=None)
@given(poly_st, poly_st, st.integers(1, 5))
def test_power_shift_is_ring_homomorphism(p, q, r):
    assert power_shift(p * q, r) == power_shift(p, r) * power_shift(q, r)
    assert power_shift(p + q, r) == power_shift(p, r) + power_shift(q, r)


def _expand_by_trial_division(f: RationalSeries, bound: int) -> TruncatedSeries:
    """Reference: back-substitution trying every divisor d of every n."""
    num, den = f.numerator, f.denominator
    u = den.coefficient(1)
    out = {}
    for n in range(1, bound + 1):
        acc = num.coefficient(n)
        for d in range(2, n + 1):
            if n % d == 0:
                acc -= den.coefficient(d) * out.get(n // d, 0)
        if acc:
            out[n] = acc * u
    return TruncatedSeries(bound, out)


unit_den_st = st.builds(
    lambda u, pairs: D([(1, u)] + [(n, a) for n, a in pairs if n > 1]),
    st.sampled_from([1, -1]),
    # indices up to 80 put part of the support beyond most bounds
    st.lists(st.tuples(st.integers(2, 80), st.integers(-9, 9)), max_size=6),
)


@settings(max_examples=150, deadline=None)
@given(poly_st, unit_den_st, st.integers(1, 60))
def test_expand_rational_matches_trial_division(num, den, bound):
    f = RationalSeries(num, den)
    assert expand_rational(f, bound) == _expand_by_trial_division(f, bound)


def test_divide_after_mul_round_trip_seeded():
    rng = random.Random(11)
    for _ in range(300):
        p = random_polynomial(rng)
        d = random_unit_lead(rng)
        assert divide_exact(p * d, d) == p


def test_truncated_product_order_independent_seeded():
    rng = random.Random(12)
    for _ in range(200):
        factors = [random_unital(rng) for _ in range(rng.randint(0, 6))]
        bound = rng.randint(1, 60)
        shuffled = factors[:]
        rng.shuffle(shuffled)
        assert truncated_product(factors, bound) == truncated_product(shuffled, bound)


# -- oracles: the plain loops that the sparse kernels must agree with -----


def _oracle_series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Double loop over both operands, each cut where an index passes the bound."""
    bound = min(a.bound, b.bound)
    acc = {}
    for n1, a1 in a.terms().items():
        if n1 > bound:
            break
        for n2, a2 in b.terms().items():
            m = n1 * n2
            if m > bound:
                break
            acc[m] = acc.get(m, 0) + a1 * a2
    return TruncatedSeries(bound, acc)


def _oracle_truncated_product(factors, bound):
    out = TruncatedSeries(bound, {1: 1})
    for i, f in enumerate(factors):
        if f.coefficient(1) != 1:
            raise FactorNotUnital(
                f"factor #{i} has constant coefficient {f.coefficient(1)}, want 1"
            )
        window = {n: a for n, a in f.items() if n <= bound}
        if window != {1: 1}:
            out = _oracle_series_mul(out, TruncatedSeries(bound, window))
    return out


def _oracle_divide_exact(p, d, support_bound=None):
    """Elimination that scans the whole remainder for its least index."""
    if d.is_zero():
        raise ZeroDivisor("division by the zero polynomial")
    if p.is_zero():
        return D.zero()
    m0 = d.min_index
    c0 = d.coefficient(m0)
    bound = support_bound if support_bound is not None else p.max_index
    rem = p.terms()
    quo = {}
    while rem:
        n = min(rem)
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
                rem[idx] = val
            else:
                rem.pop(idx, None)
    return D(quo)


def _oracle_expand_rational(f: RationalSeries, bound: int) -> TruncatedSeries:
    """Back-substitution over every n <= bound, d over the support of B."""
    num, den = f.numerator, f.denominator
    u = den.coefficient(1)
    rest = [(d, b) for d, b in den.items() if d > 1]
    out = {}
    for n in range(1, bound + 1):
        acc = num.coefficient(n)
        for d, b in rest:
            if d > n:
                break
            if n % d == 0:
                acc -= b * out.get(n // d, 0)
        if acc:
            out[n] = acc * u
    return TruncatedSeries(bound, out)


def _outcome(fn, *args):
    """The repr of a call's result (so term order counts), or the type and
    message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _pairs_st(lo, hi, max_size):
    return st.lists(st.tuples(st.integers(lo, hi), st.integers(-9, 9)), max_size=max_size)


# coefficients past +-2^63 and bounds from just below 2^63 up take the
# truncated products off int64 columns, onto Python ints
wide_coef_st = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70))
wide_bound_st = st.integers(2**63 - 2**8, 2**66)


def _factor_st(index_st):
    """Mostly unital; a constant coefficient of 0, 2 or -1 exercises FactorNotUnital."""
    return st.builds(
        lambda c, pairs: D([(1, c)] + pairs),
        st.sampled_from([1] * 12 + [0, 2, -1]),
        st.lists(st.tuples(index_st, wide_coef_st), max_size=5),
    )


@st.composite
def product_case_st(draw):
    """Up to 8 factors under a bound <= 500, or up to 4 under a wide bound
    with indices up to 2^34, so that their products cross it."""
    if draw(st.booleans()):
        return draw(st.lists(_factor_st(st.integers(2, 700)), max_size=8)), draw(
            st.integers(1, 500)
        )
    index_st = st.one_of(st.integers(2, 700), st.integers(2, 2**34))
    return draw(st.lists(_factor_st(index_st), max_size=4)), draw(wide_bound_st)


@st.composite
def series_st(draw, max_bound=300):
    bound = draw(st.one_of(st.integers(1, max_bound), wide_bound_st))
    index_st = st.one_of(st.integers(1, min(bound, 700)), st.integers(1, bound))
    return TruncatedSeries(bound, draw(st.lists(st.tuples(index_st, wide_coef_st), max_size=12)))


@settings(max_examples=300, deadline=None)
@given(product_case_st())
def test_truncated_product_matches_oracle(case):
    factors, bound = case
    assert _outcome(truncated_product, factors, bound) == _outcome(
        _oracle_truncated_product, factors, bound
    )


def test_truncated_product_leaves_int64_partway(monkeypatch):
    """(1 + 2^20/2^s - 2^20/3^s)^6: the coefficient guard holds for three
    steps and trips at the fourth; the coefficient of 2^i 3^j is the
    multinomial k!/(i! j! (k-i-j)!) times (2^20)^i (-2^20)^j."""
    steps = []
    convolve = dirichlet._convolve

    def recording(*args):
        out = convolve(*args)
        steps.append(out[1].dtype)
        return out

    monkeypatch.setattr(dirichlet, "_convolve", recording)
    k, a, b = 6, 2**20, -(2**20)
    got = truncated_product([P({1: 1, 2: a, 3: b})] * k, 10**4)
    assert steps == [np.dtype(np.int64)] * 3 + [np.dtype(object)] * 3
    want = {
        2**i * 3**j: comb(k, i) * comb(k - i, j) * a**i * b**j
        for i in range(k + 1) for j in range(k + 1 - i)
        if 2**i * 3**j <= 10**4
    }
    assert repr(got) == repr(TruncatedSeries(10**4, want))
    assert max(map(abs, got.terms().values())) >= 2**63


def test_truncated_product_result_of_exactly_2_63():
    """(1 + 2^62/2^s)^2 has 2^63 at index 2, one past int64."""
    got = truncated_product([P({1: 1, 2: 2**62})] * 2, 4)
    assert repr(got) == repr(TruncatedSeries(4, {1: 1, 2: 2**63, 4: 2**124}))


@settings(max_examples=200, deadline=None)
@given(series_st(), series_st())
def test_series_mul_matches_oracle(a, b):
    assert repr(a * b) == repr(_oracle_series_mul(a, b))
    assert repr(b * a) == repr(_oracle_series_mul(b, a))


@settings(max_examples=300, deadline=None)
@given(poly_st, poly_st, poly_st, st.one_of(st.none(), st.integers(1, 40)), st.booleans())
def test_divide_exact_matches_oracle(q, d, noise, support_bound, exact):
    p = q * d if exact else q * d + noise
    assert _outcome(divide_exact, p, d, support_bound) == _outcome(
        _oracle_divide_exact, p, d, support_bound
    )


@pytest.mark.parametrize(
    "p, d, support_bound, message",
    [
        (P({1: 1, 3: 1}), P({2: 1}), None, "remainder index 1 not a multiple of 2"),
        (P({2: 4, 6: 1}), P({2: 2, 4: 1}), None, "leading coefficient 2 does not divide 1"),
        (P({1: 1, 16: -1}), P({1: 1, 2: -1}), 4, "quotient support would exceed bound 4"),
    ],
)
def test_divide_exact_failure_paths_match_oracle(p, d, support_bound, message):
    assert _outcome(divide_exact, p, d, support_bound) == (NotDivisible, message)
    assert _outcome(_oracle_divide_exact, p, d, support_bound) == (NotDivisible, message)


@settings(max_examples=200, deadline=None)
@given(
    st.builds(D, _pairs_st(1, 700, 6)),
    st.builds(lambda u, pairs: D([(1, u)] + pairs), st.sampled_from([1, -1]), _pairs_st(2, 700, 6)),
    st.integers(1, 500),
)
def test_expand_rational_matches_dense_oracle(num, den, bound):
    f = RationalSeries(num, den)
    assert repr(expand_rational(f, bound)) == repr(_oracle_expand_rational(f, bound))


@pytest.mark.parametrize("bound", [0, -3, 1.5, "10"])
@pytest.mark.parametrize("factors", [[], [P({1: 1, 2: -1})], [P({1: 2})]])
def test_truncated_product_rejects_bad_bound(factors, bound):
    with pytest.raises(ValueError) as info:
        truncated_product(factors, bound)
    assert str(info.value) == "bound must be an int >= 1"


class TestPublicValidation:
    """Every public way in still validates its terms: the unchecked
    constructor the kernels use is not reachable from user input."""

    BAD_TERMS = [
        ({True: 1}, "index must be an integer >= 1, got True"),
        ({2.0: 1}, "index must be an integer >= 1, got 2.0"),
        ({0: 1}, "index must be an integer >= 1, got 0"),
        ({-4: 1}, "index must be an integer >= 1, got -4"),
        ({2: True}, "coefficient must be an int, got True"),
        ({2: 1.0}, "coefficient must be an int, got 1.0"),
        ({2: Fraction(1)}, "coefficient must be an int, got Fraction(1, 1)"),
        ({2: "3"}, "coefficient must be an int, got '3'"),
    ]

    @pytest.mark.parametrize("terms, message", BAD_TERMS)
    def test_constructors_reject(self, terms, message):
        [(n, a)] = terms.items()
        calls = [
            lambda: D(terms),
            lambda: D(list(terms.items())),
            lambda: D.term(n, a),
            lambda: TruncatedSeries(10, terms),
            lambda: TruncatedSeries(10, list(terms.items())),
        ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    @pytest.mark.parametrize("bound", [0, -1, 2.5, "4"])
    def test_series_rejects_bad_bound(self, bound):
        calls = [
            lambda: TruncatedSeries(bound, {1: 1}),
            lambda: TruncatedSeries.from_polynomial(ONE, bound),
        ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == "bound must be an int >= 1"

    def test_series_rejects_terms_beyond_bound(self):
        with pytest.raises(ValueError) as info:
            TruncatedSeries(4, {1: 1, 5: 2, 9: 1})
        assert str(info.value) == "terms beyond bound 4: [5, 9]"

    @pytest.mark.parametrize(
        "term, message",
        [
            ({"n": 0, "a": "1"}, "index must be an integer >= 1, got 0"),
            ({"n": "-2", "a": "1"}, "index must be an integer >= 1, got -2"),
            ({"n": 3, "a": "1.5"}, "invalid literal for int() with base 10: '1.5'"),
            ({"n": "x", "a": "1"}, "invalid literal for int() with base 10: 'x'"),
        ],
    )
    def test_json_rejects(self, term, message):
        good = {"terms": [{"n": 1, "a": "1"}]}
        bad = {"terms": [{"n": 1, "a": "1"}, term]}
        calls = [
            lambda: D.from_json_dict(bad),
            lambda: RationalSeries.from_json_dict({"num": bad, "den": good}),
            lambda: RationalSeries.from_json_dict({"num": good, "den": bad}),
        ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "term, bad",
        [({"n": 2.5, "a": 1.5}, 2.5), ({"n": 2, "a": 1.5}, 1.5), ({"n": 2, "a": 2.0}, 2.0),
         ({"n": True, "a": "1"}, True), ({"n": 2, "a": False}, False),
         ({"n": [1], "a": "1"}, [1]), ({"n": 2, "a": None}, None), ({"n": {}, "a": "1"}, {})],
    )
    def test_json_rejects_non_integers(self, term, bad):
        """Only an int or a decimal string is read: no float is truncated."""
        data = {"terms": [{"n": 1, "a": "1"}, term]}
        with pytest.raises(ValueError) as info:
            D.from_json_dict(data)
        assert str(info.value) == f"expected an integer or a decimal string, got {bad!r}"

    def test_json_reads_ints_and_decimal_strings(self):
        data = {"terms": [{"n": 1, "a": 1}, {"n": "6", "a": "-3"}, {"n": 2**70, "a": -(2**70)}]}
        assert D.from_json_dict(data) == P({1: 1, 6: -3, 2**70: -(2**70)})

    @pytest.mark.parametrize("scalar", [True, 1.0, Fraction(1), "1"])
    def test_arithmetic_rejects_non_int_scalars(self, scalar):
        p = P({1: 1, 2: -1})
        for op in (
            lambda: p + scalar, lambda: scalar + p, lambda: p - scalar,
            lambda: scalar - p, lambda: p * scalar, lambda: scalar * p,
        ):
            with pytest.raises(TypeError):
                op()
