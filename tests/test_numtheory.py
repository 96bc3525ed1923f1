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
