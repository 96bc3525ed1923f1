"""The exact integer helpers backing index arithmetic."""

from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pzeta.numtheory import (
    integer_nth_root,
    is_prime,
    padic_valuation,
    prime_factors,
    strip_primes_up_to,
)
from pzeta.errors import InvalidParameter
from helpers import trial_division_factors


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_prime_factors():
    assert prime_factors(1) == ()
    assert prime_factors(360) == (2, 3, 5)
    assert prime_factors(29**3) == (29,)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**9))
def test_prime_factors_matches_trial_division(n):
    assert prime_factors(n) == trial_division_factors(n)


def test_prime_factors_splits_large_cofactors():
    # prime powers, and products of primes too large for trial division
    assert prime_factors(43**3 * 1009**2) == (43, 1009)
    assert prime_factors(3 * 10007 * 10009) == (3, 10007, 10009)
    p, q = 1_000_000_000_039, 1_000_000_000_061
    assert prime_factors(p * q) == (p, q)
    assert prime_factors(2**61 - 1) == (2**61 - 1,)
    # small primes come off by division, whatever the size of n
    assert prime_factors(2**200 * 3**50) == (2, 3)
    with pytest.raises(InvalidParameter, match="past 3.3"):
        prime_factors((2**61 - 1) * (2**31 - 1))


def test_integer_nth_root_exact_on_huge_powers():
    n = 21**20
    assert integer_nth_root(n, 20) == 21
    assert integer_nth_root(n - 1, 20) is None
    assert integer_nth_root(n + 1, 20) is None
    assert integer_nth_root(7, 1) == 7
    assert integer_nth_root(1, 9) == 1


def test_integer_nth_root_near_float_boundary():
    # float seeds are inexact up here; the exact walk must correct them
    for base in (10**6 + 3, 2**40 - 1):
        for r in (2, 3, 5):
            assert integer_nth_root(base**r, r) == base


def test_integer_nth_root_past_float_range():
    # a float seed overflows on the first and walks for hours on the second
    assert integer_nth_root(7**400, 2) == 7**200
    assert integer_nth_root(7**400, 3) is None
    assert integer_nth_root((10**40 + 1) ** 2, 2) == 10**40 + 1
    assert integer_nth_root((10**40 + 1) ** 2 + 1, 2) is None
    assert integer_nth_root(2**64, 64) == 2
    assert integer_nth_root(2**64, 65) is None


@settings(max_examples=200, deadline=timedelta(milliseconds=500))
@given(st.integers(2, 10**300), st.integers(2, 40))
def test_integer_nth_root_exact_on_powers_and_neighbours(root, r):
    n = root**r
    assert integer_nth_root(n, r) == root
    assert integer_nth_root(n - 1, r) is None
    assert integer_nth_root(n + 1, r) is None


def test_valuation_and_stripping():
    assert padic_valuation(3**20 * 7**20, 7) == 20
    assert strip_primes_up_to(3**20 * 7**20, 7) == 1
    assert strip_primes_up_to(11 * 3**5, 7) == 11


def _strip_by_every_integer(n, bound):
    """Division by every integer from 2 to bound: the reference for
    ``strip_primes_up_to`` (a composite d never divides, as its prime
    factors went first)."""
    for d in range(2, bound + 1):
        while n % d == 0:
            n //= d
    return n


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 1200), max_size=8), st.integers(1, 10**12), st.integers(0, 1000))
def test_strip_primes_up_to_matches_division_by_every_integer(parts, rest, bound):
    n = rest
    for part in parts:
        n *= part
    assert strip_primes_up_to(n, bound) == _strip_by_every_integer(n, bound)


def test_strip_primes_up_to_past_the_trial_bound():
    assert strip_primes_up_to(10007 * 10009, 10**4) == 10007 * 10009
    assert strip_primes_up_to(10007 * 10009, 10**5) == 1
    assert strip_primes_up_to(3 * 10007 * 10009**2, 10008) == 10009**2
    # the integers up to the bound are never scanned
    assert strip_primes_up_to(3 * 1009**4 * 10007, 10**20 + 39) == 1
    # a cofactor whose parts cannot be tested exactly is refused
    with pytest.raises(InvalidParameter, match="past 3.3"):
        strip_primes_up_to((2**61 - 1) * (2**31 - 1), 10**6)
