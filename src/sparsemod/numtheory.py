"""Primes, orders, and fast-doubling Fibonacci/Lucas arithmetic.

The rest of the package reduces everything to a handful of kernels kept
here: a sieve, deterministic Miller-Rabin, Legendre symbols, multiplicative
orders, the rank of apparition z(p) (least l >= 1 with F_l = 0 mod p),
F_n / L_n modulo m by fast doubling, and exact floors of n^(a/b).

Two paths per job: the scalar functions take one modulus at a time, and
the sweep kernels (fib_pair_array, pow_array, order_table) take a whole
array of sieve primes in numpy.  The scalar functions are the sweeps'
differential oracles.

Conventions
-----------
F_1 = F_2 = 1 and L_1 = 1, L_2 = 3; both sequences are extended to index 0
by the recurrence (F_0 = 0, L_0 = 2).  Indices and moduli are validated
against a 2^62 operating range; this module targets desk scale and general
integer factorization is deliberately out of scope: both orders are found
by factor stripping of a known multiple (p - 1 for ord_p(a), p - (5|p) for
z(p)), whose prime factors come from trial division.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, GuardError, InvariantError

INDEX_CAP = 1 << 62
MODULUS_CAP = 1 << 62

# Largest p whose residue products (p - 1)^2 stay exact in int64.
PRODUCT_GUARD = math.isqrt(2**63 - 1)

# Most bits of n^a that ipow_floor (and orders_survey's p^a) will build.
POWER_BITS = 8_000_000

# Most entries one sweep array holds, 128 KB of int64: the sweeps take
# their primes in chunks so that no working array grows past it.
SWEEP_ENTRIES = 1 << 14


def row_blocks(rows: int, width: int, p: int) -> Iterator[slice]:
    """Slices of range(rows) for a kernel that fills a length-p table from
    a rows x width array of products, taken a block of rows at a time:
    each block holds at most max(SWEEP_ENTRIES, p) entries, the size of the
    table itself, and at least one row."""
    step = max(1, max(SWEEP_ENTRIES, p) // max(1, width))
    for lo in range(0, rows, step):
        yield slice(lo, min(lo + step, rows))


# Witnesses certifying Miller-Rabin for every n < 2^64.
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2^64."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit in increasing order; limit < 2 gives []."""
    if limit > PRODUCT_GUARD:
        raise GuardError(f"limit {limit} exceeds the guard {PRODUCT_GUARD}")
    if limit < 2:
        return []
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for q in range(2, math.isqrt(limit) + 1):
        if mask[q]:
            mask[q * q :: q] = False
    return [int(q) for q in np.flatnonzero(mask)]


def _check_index(n: int) -> None:
    if not 0 <= n <= INDEX_CAP:
        raise ConfigError(f"sequence index {n} outside [0, 2^62]")


def _check_modulus(m: int) -> None:
    if not 2 <= m <= MODULUS_CAP:
        raise ConfigError(f"modulus {m} outside [2, 2^62]")


def fib_pair_mod(n: int, m: int) -> tuple[int, int]:
    """(F_n mod m, F_{n+1} mod m) by fast doubling, n >= 0.

    Doubling step: F_{2k} = F_k (2 F_{k+1} - F_k) and
    F_{2k+1} = F_k^2 + F_{k+1}^2, applied along the bits of n.
    """
    _check_index(n)
    _check_modulus(m)
    a, b = 0, 1 % m
    for shift in range(n.bit_length() - 1, -1, -1):
        c = a * ((2 * b - a) % m) % m
        d = (a * a + b * b) % m
        if (n >> shift) & 1:
            a, b = d, (c + d) % m
        else:
            a, b = c, d
    return a, b


def fib_mod(n: int, m: int) -> int:
    """F_n mod m for n >= 0 (F_0 = 0)."""
    return fib_pair_mod(n, m)[0]


def lucas_mod(n: int, m: int) -> int:
    """L_n mod m for n >= 0 (L_0 = 2), via L_n = 2 F_{n+1} - F_n."""
    a, b = fib_pair_mod(n, m)
    return (2 * b - a) % m


def fib_pair_array(n, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fib_pair_mod across an array of moduli: (F_n mod p, F_{n+1} mod p)
    elementwise as int64 arrays, with n an int or an int64 array that
    broadcasts against p.

    The moduli must lie in [2, PRODUCT_GUARD] (callers check), so in uint64
    a residue product and the sum of two of them, below 2 PRODUCT_GUARD^2
    < 2^64, are exact.
    """
    if isinstance(n, int):
        _check_index(n)
    n = np.asarray(n, dtype=np.int64)
    m = np.asarray(p, dtype=np.int64).view(np.uint64)
    shape = np.broadcast_shapes(n.shape, m.shape)
    a, b = np.zeros(shape, np.uint64), np.ones(shape, np.uint64)
    top = int(n.max()).bit_length() if n.size else 0
    for shift in range(top - 1, -1, -1):
        c = a * ((2 * b + m - a) % m) % m
        d = (a * a + b * b) % m
        odd = ((n >> shift) & 1).astype(bool)
        a, b = np.where(odd, d, c), np.where(odd, (c + d) % m, d)
    return a.view(np.int64), b.view(np.int64)


def pow_array(base, e, p: np.ndarray) -> np.ndarray:
    """pow(base, e, p) elementwise by square-and-multiply, as int64; base
    and e are ints or int64 arrays broadcasting against p, with
    0 <= base < p <= PRODUCT_GUARD, so every product stays exact."""
    e = np.asarray(e, dtype=np.int64)
    b = np.asarray(base, dtype=np.int64)
    r = np.ones(np.broadcast_shapes(b.shape, e.shape, p.shape), np.int64)
    top = int(e.max()).bit_length() if e.size else 0
    for shift in range(top):
        r = np.where((e >> shift) & 1, r * b % p, r)
        b = b * b % p
    return r


def _iroot(n: int, r: int) -> int:
    """floor(n ** (1/r)) by integer Newton iteration."""
    if n < 0 or r < 1:
        raise ConfigError("iroot needs n >= 0, r >= 1")
    if r == 1 or n in (0, 1):
        return n
    if n.bit_length() <= r:   # 2 <= n < 2^r
        return 1
    # start above the root; the iteration then decreases monotonically
    x = 1 << ((n.bit_length() + r - 1) // r + 1)
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            break
        x = y
    while x**r > n:
        x -= 1
    while (x + 1) ** r <= n:
        x += 1
    return x


def exact_fraction(x) -> Fraction:
    """x as an exact fraction, a float read as the decimal it prints as (0.4
    is 2/5); malformed, infinite or NaN input is a ConfigError."""
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"expected a finite number, got {x!r}") from None


def ipow_floor(n: int, exponent: Fraction) -> int:
    """floor(n ** exponent) exactly, for n >= 1 and exponent >= 0.

    Exponents are expected to be short decimals (0.3 = 3/10); the guard
    rejects fractions whose numerator would force an astronomically large
    power.
    """
    if n < 1:
        raise ConfigError("need n >= 1")
    e = Fraction(exponent)
    if e < 0:
        raise ConfigError("need exponent >= 0")
    if n.bit_length() * e.numerator > POWER_BITS:
        raise GuardError(f"exponent {e} too fine-grained for exact flooring")
    return _iroot(n**e.numerator, e.denominator)


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending.  Trial division only;
    intended for the desk-scale inputs this package handles."""
    if n < 1:
        raise ConfigError("prime_factors expects n >= 1")
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _strip_factors(bound: int, holds: Callable[[int], bool]) -> int:
    """Least divisor d of bound with holds(d), where holds(bound) is true
    and the divisors passing the test are exactly the multiples of d (as
    for "a^d = 1" or "p | F_d"): strip each prime factor of bound while
    the quotient still passes."""
    d = bound
    for q in prime_factors(bound):
        while d % q == 0 and holds(d // q):
            d //= q
    return d


def _euler_symbol(a: int, p: int) -> int:
    """(a|p) by Euler's criterion for an odd prime p the caller has checked."""
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, 1} by Euler's criterion; p an odd prime."""
    if p == 2 or not is_prime(p):
        raise ConfigError(f"legendre requires an odd prime, got {p}")
    return _euler_symbol(a, p)


def legendre5(p: int) -> int:
    """(5|p), extended to p = 2 by the Kronecker symbol (5|2) = -1.

    With this extension z(p) divides p - legendre5(p) for every prime p,
    including p = 2 (z = 3) and p = 5 (z = 5).
    """
    if p == 2:
        return -1
    return legendre(5, p)


def _legendre5_of_prime(p: int) -> int:
    """legendre5 for a prime p the caller has checked."""
    return -1 if p == 2 else _euler_symbol(5, p)


def mult_order(a: int, p: int) -> int:
    """Multiplicative order of a modulo the prime p; requires gcd(a, p) = 1.

    The order divides p - 1; factor stripping finds it.
    """
    if not is_prime(p):
        raise ConfigError(f"mult_order requires a prime modulus, got {p}")
    if a % p == 0:
        raise ConfigError(f"{a} is not invertible mod {p}")
    return _strip_factors(p - 1, lambda t: pow(a, t, p) == 1)


def mult_order_scan(a: int, p: int) -> int:
    """Linear-scan oracle for mult_order (walk powers of a until 1)."""
    if not is_prime(p) or a % p == 0:
        raise ConfigError("mult_order_scan requires a prime p and gcd(a,p)=1")
    x = a % p
    t = 1
    while x != 1:
        x = x * a % p
        t += 1
    return t


def _no_annihilator(bound: int, p: int) -> InvariantError:
    return InvariantError(f"no divisor of {bound} annihilates F mod {p}")


def order_of_appearance(p: int) -> int:
    """Rank of apparition z(p): least l >= 1 with F_l = 0 mod p.

    z(p) divides p - (5|p) (3 at p = 2, 5 at p = 5), and by strong
    divisibility p | F_n exactly when z(p) | n, so factor stripping of
    that bound finds it.
    """
    if not is_prime(p):
        raise ConfigError(f"order_of_appearance requires a prime, got {p}")
    bound = p - _legendre5_of_prime(p)
    if fib_mod(bound, p) != 0:
        raise _no_annihilator(bound, p)
    return _strip_factors(bound, lambda l: fib_mod(l, p) == 0)


def order_of_appearance_scan(m: int) -> int:
    """Linear-scan oracle for z: step the recurrence until F_l = 0 mod m.

    Works for any modulus m >= 2, not just primes.
    """
    _check_modulus(m)
    a, b = 1 % m, 1 % m
    l = 1
    while a != 0:
        a, b = b, (a + b) % m
        l += 1
    return l


def is_primitive_root(g: int, p: int) -> bool:
    """True iff g generates the full multiplicative group mod the prime p."""
    if not is_prime(p):
        raise ConfigError(f"is_primitive_root requires a prime, got {p}")
    return g % p != 0 and mult_order(g, p) == p - 1


def least_primitive_root(p: int) -> int:
    """Smallest positive primitive root modulo the prime p."""
    if not is_prime(p):
        raise ConfigError(f"least_primitive_root requires a prime, got {p}")
    if p == 2:
        return 1
    return next(g for g in range(2, p) if is_primitive_root(g, p))


@dataclass(frozen=True)
class PrimeRecord:
    """Per-prime bookkeeping used by the surveys.

    t_p is the multiplicative order of 2 mod p (None for p = 2, where 2 is
    not invertible); z_p the rank of apparition; legendre5 the extended
    symbol (5|p), which is 0 iff p = 5.
    """

    p: int
    t_p: Optional[int]
    z_p: int
    legendre5: int


def prime_record(p: int) -> PrimeRecord:
    # mult_order and order_of_appearance check that p is prime, so the
    # symbol is taken unchecked.
    return PrimeRecord(
        p=p,
        t_p=None if p == 2 else mult_order(2, p),
        z_p=order_of_appearance(p),
        legendre5=_legendre5_of_prime(p),
    )


def _strip_array(bound: np.ndarray, p: np.ndarray,
                 holds: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """_strip_factors across primes: the least d | bound[i] with
    holds(d, p[i]), for every i at once.

    The divisors that pass are the multiples of the answer, so each prime
    factor q of a bound is stripped on its own: bound / q^j passes exactly
    while j <= v_q(bound) - v_q(answer).  The factors come from trial
    division by the primes <= sqrt(max bound), which leaves at most one
    prime cofactor; one flat array of (row, factor) pairs is then tested a
    power of q at a time.
    """
    rows, factors = [], []
    rest = bound.copy()
    for q in sieve_primes(math.isqrt(int(bound.max()))):
        hit = np.flatnonzero(rest % q == 0)
        if hit.size == 0:
            continue
        rows.append(hit)
        factors.append(np.full(hit.size, q, dtype=np.int64))
        left = rest[hit] // q
        while (more := left % q == 0).any():
            left[more] //= q
        rest[hit] = left
    big = np.flatnonzero(rest > 1)
    rows.append(big)
    factors.append(rest[big])
    i, q = np.concatenate(rows), np.concatenate(factors)
    e = bound[i] // q
    d = bound.copy()
    while i.size:
        keep = holds(e, p[i])
        i, q, e = i[keep], q[keep], e[keep]
        np.floor_divide.at(d, i, q)
        keep = e % q == 0
        i, q, e = i[keep], q[keep], e[keep] // q[keep]
    return d


def order_table(primes: Sequence[int]) -> list[PrimeRecord | InvariantError]:
    """prime_record for every prime of a sieve at once.

    Entry i is the PrimeRecord of primes[i], or the InvariantError that
    prime_record(primes[i]) would raise, so a failing prime marks only its
    own entry.  The primes are taken as prime (they come from a sieve) and
    no primality test runs; above PRODUCT_GUARD a residue product could
    overflow int64, so such a list is refused before anything is allocated.
    """
    if primes and max(primes) > PRODUCT_GUARD:
        raise GuardError(f"p = {max(primes)} exceeds the guard {PRODUCT_GUARD}")
    # a prime carries a few (row, factor) pairs through the kernels, each
    # with about eight int64 temporaries
    chunk = SWEEP_ENTRIES // 8
    table = []
    for start in range(0, len(primes), chunk):
        some = primes[start : start + chunk]
        p = np.array(some, dtype=np.int64)
        euler = pow_array(5 % p, (p - 1) // 2, p)
        leg5 = np.where(p == 2, -1, np.where(euler <= 1, euler, -1))
        t = _strip_array(p - 1, p, lambda e, q: pow_array(2 % q, e, q) == 1)
        bound = p - leg5
        ok = fib_pair_array(bound, p)[0] == 0
        z = _strip_array(bound, p, lambda e, q: fib_pair_array(e, q)[0] == 0)
        table += [PrimeRecord(p=q, t_p=None if q == 2 else tq, z_p=zq, legendre5=lq)
                  if good else _no_annihilator(q - lq, q)
                  for q, tq, zq, lq, good in zip(some, t.tolist(), z.tolist(),
                                                 leg5.tolist(), ok.tolist())]
    return table
