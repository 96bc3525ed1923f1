"""Small exact number-theory helpers (trial division scale).

Indices of Dirichlet polynomial terms can be astronomically large
(they are often perfect powers of moderate integers), so nothing here
may silently overflow: everything is plain Python int arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of ``n >= 1``, ascending."""
    if n < 1:
        raise ValueError("prime_factors needs n >= 1")
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


@lru_cache(maxsize=None)
def primes_up_to(bound: int) -> tuple[int, ...]:
    return tuple(p for p in range(2, bound + 1) if is_prime(p))


def iter_primes():
    """Unbounded ascending prime generator."""
    n = 2
    while True:
        if is_prime(n):
            yield n
        n += 1


def padic_valuation(n: int, q: int) -> int:
    """Largest e with q**e dividing n (n >= 1, q prime)."""
    if n < 1:
        raise ValueError("valuation needs n >= 1")
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e


def integer_nth_root(n: int, r: int) -> int | None:
    """Exact r-th root of n, or None if n is not a perfect r-th power.

    Works on arbitrarily large ints: ``math.isqrt`` for square roots,
    otherwise integer Newton iteration.  The seed is a float root of the
    leading 53 bits only, so it cannot overflow; one Newton step from
    any positive seed lands at or above the floor root, and the
    iteration then decreases to it.
    """
    if n < 1 or r < 1:
        raise ValueError("integer_nth_root needs n >= 1, r >= 1")
    if r == 1 or n == 1:
        return n if r == 1 else 1
    if r == 2:
        x = isqrt(n)
    elif r >= n.bit_length():
        return None  # 1 < n < 2**r, so the root lies strictly between 1 and 2
    else:
        shift, rem = divmod(max(n.bit_length() - 53, 0), r)
        x = int((n >> (shift * r + rem)) ** (1.0 / r) * 2.0 ** (rem / r) + 1) << shift
        x = ((r - 1) * x + n // x ** (r - 1)) // r
        while True:
            y = ((r - 1) * x + n // x ** (r - 1)) // r
            if y >= x:
                break
            x = y
    return x if x**r == n else None


def is_prime_power(n: int) -> bool:
    """True when n = p**k for a single prime p, k >= 1."""
    return n > 1 and len(prime_factors(n)) == 1


def largest_prime_factor(n: int) -> int | None:
    fac = prime_factors(n) if n > 1 else ()
    return fac[-1] if fac else None


def strip_primes_up_to(n: int, bound: int) -> int:
    """Divide out every prime factor <= bound; returns the cofactor.

    Lets callers test "no prime factor exceeds ``bound``" on huge n
    without factoring the large part.
    """
    for p in primes_up_to(bound):
        while n % p == 0:
            n //= p
    return n
