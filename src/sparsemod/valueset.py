"""Residue multisets of sparse sequences and their collision statistics.

A SequenceSpec names a block x_lo, ..., x_hi of one of the supported
families (Fibonacci, Lucas, even-index Fibonacci, powers of a fixed base,
or an explicit list).  Reducing the block mod p gives a ResidueMultiset;
its second moment sum_r count(r)^2 counts the ordered index pairs that
collide mod p, and summing that over all primes p <= N gives the total
collision count J(N).  j_total computes J(N) by the per-prime loop;
j_total_pairscan recomputes it from scratch by factoring pairwise
differences, giving an independent oracle with exact integer arithmetic.

One generator per job: SequenceSpec.residues steps one term at a time for
every family and every short block (multisets, J(N), value sets), and
fib_residue_array serves every Waring window with block jumps of about
sqrt(length) terms in Python and one vector combination in uint64,
checked against SequenceSpec.residues as its oracle.
"""

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, GuardError
from .numtheory import (INDEX_CAP, PRODUCT_GUARD, exact_fraction, fib_pair_mod,
                        sieve_primes)

FAMILIES = ("fibonacci", "lucas", "fibonacci-even", "power", "explicit")

# About 5000 decimal digits; F_n has roughly 0.209 n digits.
DIGIT_GUARD = 5000


@dataclass(frozen=True)
class SequenceSpec:
    """An index block of one sequence family.

    index_lo..index_hi is inclusive and 1-based; for the explicit family
    the indices select into the supplied strictly increasing value list.
    """

    family: str
    index_lo: int
    index_hi: int
    base: Optional[int] = None
    values: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}")
        if not 1 <= self.index_lo <= self.index_hi:
            raise ConfigError("need 1 <= index_lo <= index_hi")
        if self.index_hi > INDEX_CAP:
            raise ConfigError("index_hi above 2^62")
        if self.family == "power":
            if self.base is None or self.base < 2:
                raise ConfigError("power family needs a base >= 2")
        elif self.base is not None:
            raise ConfigError("base only applies to the power family")
        if self.family == "explicit":
            if not self.values:
                raise ConfigError("explicit family needs a value list")
            if any(v < 1 for v in self.values):
                raise ConfigError("explicit values must be positive")
            if any(a >= b for a, b in zip(self.values, self.values[1:])):
                raise ConfigError("explicit values must be strictly increasing")
            if self.index_hi > len(self.values):
                raise ConfigError("index range exceeds the explicit list")
        elif self.values is not None:
            raise ConfigError("values only apply to the explicit family")

    @classmethod
    def fibonacci(cls, lo: int, hi: int) -> "SequenceSpec":
        return cls("fibonacci", lo, hi)

    @classmethod
    def lucas(cls, lo: int, hi: int) -> "SequenceSpec":
        return cls("lucas", lo, hi)

    @classmethod
    def fibonacci_even(cls, lo: int, hi: int) -> "SequenceSpec":
        """Indexes n with values F_{2n}."""
        return cls("fibonacci-even", lo, hi)

    @classmethod
    def power(cls, base: int, lo: int, hi: int) -> "SequenceSpec":
        return cls("power", lo, hi, base=base)

    @classmethod
    def explicit(cls, values: Sequence[int]) -> "SequenceSpec":
        return cls("explicit", 1, len(tuple(values)), values=tuple(values))

    def __len__(self) -> int:
        return self.index_hi - self.index_lo + 1

    def label(self) -> str:
        rng = f"{self.index_lo}..{self.index_hi}"
        if self.family == "power":
            return f"power({self.base}):{rng}"
        if self.family == "explicit":
            if len(self.values) <= 8:
                return "explicit:" + ",".join(map(str, self.values))
            return f"explicit[{len(self.values)}]:{rng}"
        return f"{self.family}:{rng}"

    def residues(self, p: int) -> Iterator[int]:
        """Yield x_n mod p for n = index_lo..index_hi.

        Fibonacci-like families are seeded once by fast doubling and then
        stepped with the recurrence, so a block costs O(log index + range)
        additions.
        """
        if p < 2:
            raise ConfigError("modulus must be >= 2")
        lo, hi = self.index_lo, self.index_hi
        if self.family == "explicit":
            for v in self.values[lo - 1 : hi]:
                yield v % p
        elif self.family == "power":
            x = pow(self.base, lo, p)
            for _ in range(lo, hi + 1):
                yield x
                x = x * self.base % p
        elif self.family == "fibonacci":
            a, b = fib_pair_mod(lo, p)
            for _ in range(lo, hi + 1):
                yield a
                a, b = b, (a + b) % p
        elif self.family == "lucas":
            fa, fb = fib_pair_mod(lo, p)
            # L_n = 2 F_{n+1} - F_n, so L_lo and L_{lo+1} seed the recurrence
            a = (2 * fb - fa) % p
            b = (2 * fa + fb) % p
            for _ in range(lo, hi + 1):
                yield a
                a, b = b, (a + b) % p
        elif self.family == "fibonacci-even":
            a, b = fib_pair_mod(2 * lo, p)
            for _ in range(lo, hi + 1):
                yield a
                a, b = (a + b) % p, (a + 2 * b) % p
        else:  # pragma: no cover
            raise AssertionError(self.family)

    def exact_values(self) -> list[int]:
        """The block as exact integers (guarded against huge terms)."""
        lo, hi = self.index_lo, self.index_hi
        if self.family == "explicit":
            return list(self.values[lo - 1 : hi])
        if self.family == "power":
            if hi * math.log10(self.base) > DIGIT_GUARD:
                raise GuardError(f"{self.label()} exceeds {DIGIT_GUARD} digits")
            vals = []
            x = self.base**lo
            for _ in range(lo, hi + 1):
                vals.append(x)
                x *= self.base
            return vals
        top = 2 * hi if self.family == "fibonacci-even" else hi
        if top * 0.2090 > DIGIT_GUARD + 10:
            raise GuardError(f"{self.label()} exceeds {DIGIT_GUARD} digits")
        fib = [0, 1]
        while len(fib) <= top + 1:
            fib.append(fib[-1] + fib[-2])
        if self.family == "fibonacci":
            return fib[lo : hi + 1]
        if self.family == "fibonacci-even":
            return [fib[2 * n] for n in range(lo, hi + 1)]
        # Lucas: L_n = F_{n-1} + F_{n+1}
        return [fib[n - 1] + fib[n + 1] for n in range(lo, hi + 1)]


def fib_residue_array(lo: int, hi: int, p: int) -> np.ndarray:
    """F_n mod p for n = lo..hi as an int64 array, by block jumps.

    With B = ceil(sqrt(hi - lo + 1)), the baby terms F_0..F_B and the giant
    pairs (F_{m-1}, F_m) for m = lo, lo + B, lo + 2B, ... are stepped in
    Python with F_{m+i} = F_m F_{i+1} + F_{m-1} F_i; one outer combination
    by the same identity then gives every term.  A block costs about
    2 sqrt(hi - lo) Python steps instead of hi - lo, so long blocks come
    here and short ones stay on SequenceSpec.residues, the per-term oracle.
    The combination runs in uint64, where the unreduced sum of two residue
    products, below 2 PRODUCT_GUARD^2 < 2^64, needs only one reduction.
    """
    if p < 2:
        raise ConfigError("modulus must be >= 2")
    if p > PRODUCT_GUARD:
        raise GuardError(f"p = {p} exceeds the guard {PRODUCT_GUARD}")
    if not 1 <= lo <= hi <= INDEX_CAP:
        raise ConfigError("need 1 <= lo <= hi <= 2^62")
    n = hi - lo + 1
    b = math.isqrt(n - 1) + 1
    baby = [0, 1 % p]
    for _ in range(b - 1):
        baby.append((baby[-1] + baby[-2]) % p)
    f_b, f_b1 = baby[b], (baby[b] + baby[b - 1]) % p   # F_B, F_{B+1}
    prev, cur = fib_pair_mod(lo - 1, p)
    giant = []
    for _ in range(-(-n // b)):
        giant += (prev, cur)
        prev, cur = (cur * f_b + prev * baby[b - 1]) % p, (cur * f_b1 + prev * f_b) % p
    g = np.array(giant, dtype=np.uint64).reshape(-1, 2)   # rows (F_{m-1}, F_m)
    f = np.array(baby, dtype=np.uint64)
    terms = (g[:, 1:] * f[1:] + g[:, :1] * f[:-1]) % np.uint64(p)
    return terms.ravel()[:n].view(np.int64)


@dataclass(frozen=True)
class ResidueMultiset:
    """Counts of x_n mod p over an index block; total = block length."""

    p: int
    counts: dict[int, int]
    total: int

    @classmethod
    def from_spec(cls, spec: SequenceSpec, p: int) -> "ResidueMultiset":
        counts: dict[int, int] = {}
        for r in spec.residues(p):
            counts[r] = counts.get(r, 0) + 1
        return cls(p=p, counts=counts, total=len(spec))

    @classmethod
    def from_counts(cls, p: int, counts: dict[int, int]) -> "ResidueMultiset":
        if p < 2:
            raise ConfigError("modulus must be >= 2")
        for r, c in counts.items():
            if not 0 <= r < p or c < 1:
                raise ConfigError("counts must map residues in [0,p) to c >= 1")
        return cls(p=p, counts=dict(counts), total=sum(counts.values()))


@dataclass(frozen=True)
class CollisionStats:
    """size = |block|, collisions = sum of count^2 (ordered coincident
    index pairs mod p), distinct = number of residues hit."""

    size: int
    collisions: int
    distinct: int


def collision_stats(ms: ResidueMultiset) -> CollisionStats:
    return CollisionStats(
        size=ms.total,
        collisions=sum(c * c for c in ms.counts.values()),
        distinct=len(ms.counts),
    )


@dataclass(frozen=True)
class JTotal:
    """J(N) = sum over primes p <= N of the per-prime collision count.

    main_term is pi(N) * |block| (the diagonal contribution), residual the
    nonnegative off-diagonal remainder.
    """

    total: int
    main_term: int
    residual: int
    per_prime: tuple[tuple[int, int], ...]


def j_total(spec: SequenceSpec, nmax: int) -> JTotal:
    """Exact J(N) by the per-prime residue loop."""
    primes = sieve_primes(nmax)
    per_prime = []
    total = 0
    for p in primes:
        jp = collision_stats(ResidueMultiset.from_spec(spec, p)).collisions
        per_prime.append((p, jp))
        total += jp
    main = len(primes) * len(spec)
    return JTotal(total=total, main_term=main, residual=total - main,
                  per_prime=tuple(per_prime))


def j_total_pairscan(values: Sequence[int], nmax: int) -> int:
    """Oracle for J(N): the diagonal gives pi(N)*|X| and each unordered
    pair {x, y} adds 2 * #{p <= N : p divides |x - y|}.

    A repeated value (difference 0) is divisible by every prime, matching
    the multiset convention of the per-prime loop.  Exact big-integer
    arithmetic throughout.
    """
    vals = list(values)
    if not vals:
        raise ConfigError("empty value list")
    if any(v < 1 for v in vals):
        raise ConfigError("values must be positive")
    if max(vals) >= 10**DIGIT_GUARD:
        raise GuardError(f"values exceed {DIGIT_GUARD} digits")
    primes = sieve_primes(nmax)
    npr = len(primes)
    total = npr * len(vals)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            d = abs(vals[i] - vals[j])
            if d == 0:
                total += 2 * npr
            else:
                total += 2 * sum(1 for p in primes if d % p == 0)
    return total


def digit_magnitude(values: Sequence[int]) -> int:
    """Least M >= 0 with max(values) <= 10^M."""
    vals = list(values)
    if not vals:
        raise ConfigError("empty value list")
    if min(vals) < 1:
        raise ConfigError("values must be positive")
    top = max(vals)
    m = len(str(top))
    return m - 1 if top == 10 ** (m - 1) else m


@dataclass(frozen=True)
class ValueSetRow:
    p: int
    size: int
    distinct: int
    deviation: float  # (size - distinct) / size


@dataclass(frozen=True)
class ValueSetSurvey:
    rows: tuple[ValueSetRow, ...]
    delta: float
    fraction: float  # share of primes with deviation <= 1/delta


def value_set_survey(spec: SequenceSpec, nmax: int, delta: float) -> ValueSetSurvey:
    """Per-prime deviation (size - distinct)/size, and the fraction of
    primes p <= N within 1/delta.  The boundary comparison is done in
    exact rational arithmetic (ties count as within)."""
    d = exact_fraction(delta)
    if d <= 0:
        raise ConfigError("delta must be positive")
    rows = []
    hits = 0
    for p in sieve_primes(nmax):
        ms = ResidueMultiset.from_spec(spec, p)
        size, distinct = ms.total, len(ms.counts)
        if (size - distinct) * d <= size:   # deviation <= 1/delta
            hits += 1
        rows.append(ValueSetRow(p=p, size=size, distinct=distinct,
                                deviation=(size - distinct) / size))
    if not rows:
        raise ConfigError(f"no primes <= {nmax}")
    return ValueSetSurvey(rows=tuple(rows), delta=float(d),
                          fraction=hits / len(rows))


def fib_even_distinctness(p: int, lo: int, hi: int) -> bool:
    """Are the residues F_{2n} mod p pairwise distinct for lo < n <= hi?

    The half-open range matches how the constructive Waring step slices
    its even-index window.
    """
    if p < 2:
        raise ConfigError("modulus must be >= 2")
    if not 0 <= lo < hi:
        raise ConfigError("need 0 <= lo < hi")
    seen = set()
    for r in SequenceSpec.fibonacci_even(lo + 1, hi).residues(p):
        if r in seen:
            return False
        seen.add(r)
    return True
