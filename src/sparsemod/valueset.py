"""Residue multisets of sparse sequences and their collision statistics.

A SequenceSpec names a block x_lo, ..., x_hi of one of the supported
families (Fibonacci, Lucas, even-index Fibonacci, powers of a fixed base,
or an explicit list).  Reducing the block mod p gives a ResidueMultiset;
its second moment sum_r count(r)^2 counts the ordered index pairs that
collide mod p, and summing that over all primes p <= N gives the total
collision count J(N).  j_total computes J(N) on the sweep path;
j_total_pairscan recomputes it from scratch from the gcds of pairwise
differences with the product of the primes, giving an independent oracle
with exact integer arithmetic.

One generator per job: block_stats, the sweep path, reduces a block mod
every prime of a sieve at once (a matrix of primes x terms, filled by
doubling jumps of the family recurrence) and serves J(N) and value sets;
SequenceSpec.residues steps one term at a time for one prime (multisets
and norms) and is the oracle of both array generators; fib_residue_array
serves every Waring window, one long Fibonacci block mod one prime, with
block jumps of about sqrt(length) terms in Python and one vector
combination in uint64.  A one-row sweep matrix gives the same window, but
its doubling fill pays a dozen numpy calls per doubling and three int64
reductions per term, so it is slower at every window length the Waring
layer asks for (BENCH_11.json has the timings).

A ResidueMultiset holds its support and counts as int64 arrays, built
once and read as they are by collision_stats and every norm kernel.
"""

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, GuardError
from .numtheory import (INDEX_CAP, MODULUS_CAP, PRODUCT_GUARD, SWEEP_ENTRIES, exact_fraction,
                        fib_pair_array, fib_pair_mod, pow_array, row_blocks, sieve_primes)

FAMILIES = ("fibonacci", "lucas", "fibonacci-even", "power", "explicit")

# About 5000 decimal digits; F_n has roughly 0.209 n digits.
DIGIT_GUARD = 5000

# Longest index block a SequenceSpec accepts: every consumer steps or
# allocates per term, so the spec refuses a longer block when it is built.
SIZE_GUARD = 100_000

# Explicit values are reduced by Horner's rule on 31-bit limbs: a residue
# below PRODUCT_GUARD < 2^31.5 shifted by 31 bits, plus a limb, stays
# below 2^63.
_LIMB = 31


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
        if self.index_hi * (2 if self.family == "fibonacci-even" else 1) > INDEX_CAP:
            raise ConfigError("sequence index above 2^62")
        if len(self) > SIZE_GUARD:
            raise GuardError(f"block of {len(self)} terms exceeds the guard {SIZE_GUARD}")
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
    def explicit(cls, values: Iterable[int]) -> "SequenceSpec":
        values = tuple(values)
        return cls("explicit", 1, len(values), values=values)

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


def _pair_counts(x: np.ndarray, y: np.ndarray, p: int, op: np.ufunc,
                 weights: Optional[tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
    """How many pairs (i, j) of the int64 arrays x, y have op(x[i], y[j]) = s
    mod p, for every s, as a length-p int64 array; with weights (wx, wy) pair
    (i, j) counts wx[i] wy[j] times.  The pairs are taken in row_blocks of
    x, and np.add.at keeps the counts exact."""
    out = np.zeros(p, dtype=np.int64)
    for rows in row_blocks(len(x), len(y), p):
        w = 1 if weights is None else np.outer(weights[0][rows], weights[1]).ravel()
        np.add.at(out, (op(x[rows, None], y) % p).ravel(), w)
    return out


def _limbs(values: Sequence[int]) -> np.ndarray:
    """values as rows of 31-bit limbs, most significant first."""
    count = max(1, -(-max(values).bit_length() // _LIMB))
    mask = (1 << _LIMB) - 1
    return np.array([[(v >> (_LIMB * k)) & mask for k in range(count - 1, -1, -1)]
                     for v in values], dtype=np.int64)


def _reduce_limbs(limbs: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The values behind `limbs` mod each prime: a (len(p), len(limbs)) matrix."""
    col = p[:, None]
    r = np.zeros((len(p), len(limbs)), dtype=np.int64)
    for k in range(limbs.shape[1]):
        r = ((r << _LIMB) | limbs[:, k]) % col
    return r


def _fill_fibonacci(x: np.ndarray, p: np.ndarray) -> None:
    """Fill the rows of x with a sequence obeying x_{j+2} = x_{j+1} + x_j
    mod p, from its first two columns, by jumps that double the filled
    width: x_{j+m+1} = F_m x_j + F_{m+1} x_{j+1}."""
    col = p[:, None]
    f_m, f_m1 = np.ones_like(col), np.ones_like(col)     # F_1, F_2
    m = 1
    while m + 1 < x.shape[1]:
        take = min(m, x.shape[1] - m - 1)
        x[:, m + 1 : m + 1 + take] = (f_m * x[:, :take] % col
                                      + f_m1 * x[:, 1 : take + 1] % col) % col
        f_m, f_m1 = (f_m * ((2 * f_m1 - f_m) % col) % col,      # F_2m, F_2m+1
                     (f_m * f_m % col + f_m1 * f_m1 % col) % col)
        m *= 2


def _fill_power(x: np.ndarray, base: np.ndarray, p: np.ndarray) -> None:
    """Fill the rows of x with x_j = x_0 base^j mod p by doubling jumps:
    x_{j+m} = x_j base^m."""
    col = p[:, None]
    step = base[:, None]
    m = 1
    while m < x.shape[1]:
        take = min(m, x.shape[1] - m)
        x[:, m : m + take] = x[:, :take] * step % col
        step = step * step % col
        m += take


def _block_rows(spec: SequenceSpec, p: np.ndarray, limbs: Optional[np.ndarray]) -> np.ndarray:
    """x_n mod p for n = index_lo..index_hi, one int64 row per prime of p;
    the rows agree with SequenceSpec.residues."""
    lo = spec.index_lo
    if spec.family == "explicit":
        return _reduce_limbs(limbs, p)
    if spec.family == "power":
        x = np.empty((len(p), len(spec)), dtype=np.int64)
        base = _reduce_limbs(limbs, p)[:, 0]
        x[:, 0] = pow_array(base, lo, p)
        _fill_power(x, base, p)
        return x
    # the even-index block F_2lo, ..., F_2hi is every other Fibonacci term
    stride = 2 if spec.family == "fibonacci-even" else 1
    x = np.empty((len(p), stride * (len(spec) - 1) + 2), dtype=np.int64)
    a, b = fib_pair_array(stride * lo, p)
    if spec.family == "lucas":
        # L_n = 2 F_{n+1} - F_n and L_{n+1} = 2 F_n + F_{n+1}
        a, b = (2 * b - a) % p, (2 * a + b) % p
    x[:, 0], x[:, 1] = a, b
    _fill_fibonacci(x, p)
    return x[:, : stride * (len(spec) - 1) + 1 : stride]


def block_stats(spec: SequenceSpec, primes: Sequence[int]) -> tuple[list[int], list[int]]:
    """The sweep path: (collisions, distinct) of the block mod every prime,
    as two lists of ints, equal to collision_stats(ResidueMultiset.from_spec)
    prime by prime.

    The block is reduced mod a chunk of about SWEEP_ENTRIES / |block| primes
    at once, one row per prime; each row is sorted, and a row's collisions
    are the sum of its squared run lengths and its distinct count the
    number of runs.  The spec holds at most SIZE_GUARD terms, and primes
    above PRODUCT_GUARD are refused, as a residue product could overflow
    int64.
    """
    if primes and max(primes) > PRODUCT_GUARD:
        raise GuardError(f"p = {max(primes)} exceeds the guard {PRODUCT_GUARD}")
    limbs = None
    if spec.family == "explicit":
        limbs = _limbs(spec.values[spec.index_lo - 1 : spec.index_hi])
    elif spec.family == "power":
        limbs = _limbs([spec.base])
    width = len(spec) * (2 if spec.family == "fibonacci-even" else 1)
    rows = max(1, SWEEP_ENTRIES // width)
    collisions: list[int] = []
    distinct: list[int] = []
    for start in range(0, len(primes), rows):
        p = np.array(primes[start : start + rows], dtype=np.int64)
        x = np.sort(_block_rows(spec, p, limbs), axis=1)
        new_run = np.ones(x.shape, dtype=bool)
        new_run[:, 1:] = x[:, 1:] != x[:, :-1]
        runs = np.diff(np.flatnonzero(new_run), append=x.size)
        counts = new_run.sum(axis=1)
        first = np.cumsum(counts) - counts
        collisions += np.add.reduceat(runs * runs, first).tolist()
        distinct += counts.tolist()
    return collisions, distinct


@dataclass(frozen=True, eq=False)
class ResidueMultiset:
    """counts[i] of the terms x_n of an index block have x_n = support[i] mod p;
    support runs in order of first occurrence, and total = block length."""

    p: int
    support: np.ndarray
    counts: np.ndarray
    total: int

    @classmethod
    def from_spec(cls, spec: SequenceSpec, p: int) -> "ResidueMultiset":
        return cls.from_counts(p, Counter(spec.residues(p)))

    @classmethod
    def from_counts(cls, p: int, counts: Mapping[int, int]) -> "ResidueMultiset":
        if not 2 <= p <= MODULUS_CAP:      # so every residue fits in int64
            raise ConfigError(f"modulus {p} outside [2, 2^62]")
        if not counts:
            raise ConfigError("empty multiset")
        if not (0 <= min(counts) and max(counts) < p and min(counts.values()) >= 1):
            raise ConfigError("counts must map residues in [0,p) to c >= 1")
        total = sum(counts.values())
        if total > SIZE_GUARD:
            raise GuardError(f"multiset of {total} terms exceeds the guard {SIZE_GUARD}")
        return cls(p=p, support=np.fromiter(counts, np.int64, len(counts)),
                   counts=np.fromiter(counts.values(), np.int64, len(counts)), total=total)


@dataclass(frozen=True)
class CollisionStats:
    """size = |block|, collisions = sum of count^2 (ordered coincident
    index pairs mod p), distinct = number of residues hit."""

    size: int
    collisions: int
    distinct: int


def collision_stats(ms: ResidueMultiset) -> CollisionStats:
    # sum c^2 <= total^2 <= SIZE_GUARD^2 stays exact in int64
    return CollisionStats(size=ms.total, collisions=int(ms.counts @ ms.counts),
                          distinct=len(ms.counts))


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
    """Exact J(N) on the sweep path (block_stats)."""
    primes = sieve_primes(nmax)
    collisions, _ = block_stats(spec, primes)
    total = sum(collisions)
    main = len(primes) * len(spec)
    return JTotal(total=total, main_term=main, residual=total - main,
                  per_prime=tuple(zip(primes, collisions)))


def _product(xs: list[int]) -> int:
    """The product of xs by a product tree, pairing factors of like size."""
    while len(xs) > 1:
        xs = [math.prod(xs[i : i + 2]) for i in range(0, len(xs), 2)]
    return xs[0] if xs else 1


def j_total_pairscan(values: Sequence[int], nmax: int) -> int:
    """Oracle for J(N): the diagonal gives pi(N)*|X| and each unordered
    pair {x, y} adds 2 * #{p <= N : p divides |x - y|}.

    Those primes are the prime factors of g = gcd(|x - y|, prod_{p <= N} p),
    which is squarefree, so trial division up to sqrt(g) counts them.  A
    repeated value (difference 0) is divisible by every prime, matching the
    multiset convention of j_total.  Exact big-integer arithmetic
    throughout, and no residues mod p.
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
    primorial = _product(primes)
    total = npr * len(vals)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            d = abs(vals[i] - vals[j])
            if d == 0:
                total += 2 * npr
                continue
            g = math.gcd(d, primorial)
            for p in primes:
                if p * p > g:
                    break
                if g % p == 0:
                    total += 2
                    g //= p
            total += 2 * (g > 1)
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
    primes = sieve_primes(nmax)
    if not primes:
        raise ConfigError(f"no primes <= {nmax}")
    size = len(spec)
    _, distinct = block_stats(spec, primes)
    # deviation <= 1/delta, that is (size - k) * d <= size
    hits = sum((size - k) * d.numerator <= size * d.denominator for k in distinct)
    rows = tuple(ValueSetRow(p=p, size=size, distinct=k, deviation=(size - k) / size)
                 for p, k in zip(primes, distinct))
    return ValueSetSurvey(rows=rows, delta=float(d), fraction=hits / len(rows))

