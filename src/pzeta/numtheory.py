"""Small exact number-theory helpers: Miller-Rabin primality, and one
factoring routine, trial division up to 1000 with Brent's rho on the
cofactor, so large indices factor in bounded time.  The smoothness test
``strip_primes_up_to`` divides by the primes up to 1000 and hands any
cofactor left to that routine, so its work does not grow with the bound.

Indices of Dirichlet polynomial terms can be astronomically large
(they are often perfect powers of moderate integers), so nothing here
may silently overflow: everything is plain Python int arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from math import gcd, isqrt

from .errors import InvalidParameter


# The first 13 primes: Miller-Rabin to these bases decides primality for
# every n below the smallest strong pseudoprime to all of them
# (J. Sorenson and J. Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
# Product of differences taken per gcd in Brent's rho.
_RHO_BATCH = 128
# Trial division bound of prime_factors: 1000^2 = DEFAULT_MAX_GROUP_ORDER,
# so every group order and element order is factored by division alone.
_TRIAL_BOUND = 1000


def is_prime(n: int) -> bool:
    """Whether n is prime, exactly: division by the first 13 primes,
    then Miller-Rabin to those bases.  Past 3.3 * 10^24 no test here is
    exact, and ``InvalidParameter`` is raised instead."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_BASES[-1] ** 2:
        return True
    if n >= _MR_EXACT_BELOW:
        raise InvalidParameter(f"cannot decide exactly whether {n} is prime (past 3.3 * 10^24)")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_divisor(n: int) -> int:
    """A proper divisor of a composite n with no prime factor among
    ``_MR_BASES``: Brent's variant of Pollard's rho (R. P. Brent, BIT 20
    (1980) 176-184) on x -> x^2 + c from x = 2, with c = 1, 2, ... until
    a cycle gives one."""
    for c in count(1):
        x = ys = y = 2
        g = q = r = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            # the batch overshot: step through it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise AssertionError("unreachable")


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of ``n >= 1``, ascending, exactly: trial
    division by the numbers up to ``_TRIAL_BOUND``, then the cofactor
    split by Brent's rho and each part tested by ``is_prime``.  A part
    past 3.3 * 10^24 cannot be tested exactly, and ``InvalidParameter``
    is raised instead."""
    if n < 1:
        raise ValueError("prime_factors needs n >= 1")
    out = []
    d = 2
    while d * d <= n and d <= _TRIAL_BOUND:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if d * d > n:  # n is 1 or prime
        return tuple(out + [n] if n > 1 else out)
    found = set()
    parts = [n]
    while parts:
        m = parts.pop()
        if is_prime(m):
            found.add(m)
        else:
            d = _rho_divisor(m)
            parts += [d, m // d]
    return tuple(out + sorted(found))


@lru_cache(maxsize=None)
def primes_up_to(bound: int) -> tuple[int, ...]:
    return tuple(p for p in range(2, bound + 1) if is_prime(p))


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


def strip_primes_up_to(n: int, bound: int) -> int:
    """Divide out every prime factor <= bound; returns the cofactor.

    Lets callers test "no prime factor exceeds ``bound``" on huge n.
    The primes up to ``min(bound, 1000)`` are divided out first; past
    1000, the primes up to ``bound`` of the cofactor left come from
    :func:`prime_factors`, so a cofactor part past 3.3 * 10^24 raises
    ``InvalidParameter``.
    """
    for p in primes_up_to(min(bound, _TRIAL_BOUND)):
        while n % p == 0:
            n //= p
    if bound > _TRIAL_BOUND and n > 1:
        for p in prime_factors(n):
            if p > bound:
                break
            while n % p == 0:
                n //= p
    return n
