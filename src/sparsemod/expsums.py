"""L1/L2/L4 norms of incomplete exponential sums over F_p.

For a residue multiset with counts c_r put S(a) = sum_r c_r e(a r / p).
norm_report returns L1 = (1/p) sum |S|, L2sq = (1/p) sum |S|^2 and the
additive energy T = (1/p) sum |S|^4.  Only L1 is computed in floats: the
count vector is real, so |S(p - a)| = |S(a)|, and one real FFT gives every
modulus, summed with exact-rounding compensated summation (math.fsum).
L2sq = sum_r c_r^2 is the collision count (Parseval) and T = sum_s r(s)^2,
with r(s) = sum_{x+y=s} c_x c_y, the number of index quadruples with
x_a + x_b = x_c + x_d; both are exact integers, T tallied over the K^2
pair sums of the K-residue support.  Chain facts are enforced as
postconditions, not just tests:

    L1^2 <= L2sq               (Cauchy-Schwarz)
    L2sq <= L1^(2/3) T^(1/3)   (Hoelder)
    L2sq^2 <= T                (Cauchy-Schwarz)
    L1 >= L2sq^(3/2) / T^(1/2) (the lower-bound chain; equals
                                (N^3/T)^(1/2) for multiplicity-1 sets)
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, GuardError, InvariantError
from .numtheory import exact_fraction, ipow_floor, is_prime, is_primitive_root
from .valueset import ResidueMultiset, SequenceSpec, collision_stats

P_GUARD = 1_000_000
SIZE_GUARD = 100_000
CHAIN_RTOL = 1e-6
CHUNK = 4_000_000   # elements per temporary (pair-sum or gather) block


@dataclass(frozen=True)
class NormReport:
    """Normalized norms of S over a full period; energy is the integer T."""

    p: int
    size: int
    l1: float
    l2sq: float
    energy: int
    karatsuba_lb: float


def _l1_rfft(ms: ResidueMultiset) -> float:
    """(1/p) sum_a |S(a)| from the half-spectrum of the real count vector:
    a and p - a share one modulus, and a = p/2 (p = 2 only) has no partner."""
    p = ms.p
    counts = np.bincount(list(ms.counts), weights=list(ms.counts.values()),
                         minlength=p)
    mod = np.abs(np.fft.rfft(counts)).tolist()
    total = mod[0] + 2 * math.fsum(mod[1 : (p + 1) // 2])
    return (total + mod[-1] if p % 2 == 0 else total) / p


def _pair_sum_energy(ms: ResidueMultiset) -> int:
    """T = sum_s r(s)^2, tallying the K^2 pair sums of the support in row
    blocks.  r(s) <= size^2 is exact in int64 for any block that fits in
    memory; r(s)^2 need not be, so the squares are summed as Python ints."""
    p = ms.p
    support = np.fromiter(ms.counts, dtype=np.int64)
    weights = np.fromiter(ms.counts.values(), dtype=np.int64)
    sums = r = np.empty(0, dtype=np.int64)
    step = max(1, CHUNK // len(support))
    for i in range(0, len(support), step):
        block = (support[i : i + step, None] + support) % p
        sums = np.concatenate([sums, block.ravel()])
        r = np.concatenate([r, np.outer(weights[i : i + step], weights).ravel()])
        order = np.argsort(sums)
        starts = np.flatnonzero(np.diff(sums[order], prepend=-1))
        sums, r = sums[order][starts], np.add.reduceat(r[order], starts)
    return sum(v * v for v in r.tolist())


def _check_chain(l1: float, l2sq: float, energy: int, kara: float,
                 p: int) -> None:
    checks = (
        (l1 * l1 <= l2sq * (1 + CHAIN_RTOL), "L1^2 <= L2sq"),
        (l2sq <= (l1 ** (2 / 3)) * (energy ** (1 / 3)) * (1 + CHAIN_RTOL),
         "L2sq <= L1^(2/3) T^(1/3)"),
        (l2sq * l2sq <= energy * (1 + CHAIN_RTOL), "L2sq^2 <= T"),
        (l1 >= kara * (1 - CHAIN_RTOL), "L1 >= lower bound"),
    )
    for ok, name in checks:
        if not ok:
            raise InvariantError(
                f"chain inequality {name} failed at p={p}: "
                f"l1={l1!r} l2sq={l2sq!r} T={energy!r}")


def norm_report(ms: ResidueMultiset) -> NormReport:
    """L1 from one real FFT; L2sq and the energy as exact integer counts."""
    if ms.total < 1:
        raise ConfigError("empty multiset")
    if ms.p > P_GUARD:
        raise GuardError(f"p = {ms.p} exceeds the guard {P_GUARD}")
    p = ms.p
    l1 = _l1_rfft(ms)
    collisions = collision_stats(ms).collisions
    l2sq = float(collisions)
    energy = _pair_sum_energy(ms)
    kara = math.sqrt(collisions**3 / energy)
    _check_chain(l1, l2sq, energy, kara, p)
    return NormReport(p=p, size=ms.total, l1=l1, l2sq=l2sq, energy=energy,
                      karatsuba_lb=kara)


def l1_full_scan(ms: ResidueMultiset) -> float:
    """L1 by a direct DFT at every a: the oracle for norm_report's FFT."""
    if ms.total < 1:
        raise ConfigError("empty multiset")
    if ms.p > P_GUARD:
        raise GuardError(f"p = {ms.p} exceeds the guard {P_GUARD}")
    p = ms.p
    support = np.fromiter(ms.counts, dtype=np.int64)
    weights = np.fromiter(ms.counts.values(), dtype=np.float64)
    phases = np.exp((2j * np.pi / p) * np.arange(p))
    out = np.empty(p, dtype=np.float64)
    step = max(1, CHUNK // len(support))
    for lo in range(0, p, step):
        a = np.arange(lo, min(lo + step, p), dtype=np.int64)
        out[lo : lo + len(a)] = np.abs(phases[np.outer(a, support) % p] @ weights)
    return math.fsum(out.tolist()) / p


def additive_energy_direct(ms: ResidueMultiset) -> int:
    """Exact quadruple count by tabulating pairwise-sum multiplicities."""
    if ms.total < 1:
        raise ConfigError("empty multiset")
    if ms.total > SIZE_GUARD:
        raise GuardError(f"size {ms.total} exceeds the guard {SIZE_GUARD}")
    p = ms.p
    res = np.array(sorted(ms.counts), dtype=np.int64)
    cnt = np.array([ms.counts[int(r)] for r in res], dtype=np.float64)
    conv = np.zeros(p, dtype=np.float64)
    step = max(1, CHUNK // len(res))
    for i in range(0, len(res), step):
        sums = (res[i : i + step, None] + res[None, :]) % p
        w = cnt[i : i + step, None] * cnt[None, :]
        conv += np.bincount(sums.ravel(), weights=w.ravel(), minlength=p)
    # counts <= size^2 <= 10^10 stay exactly representable in float64;
    # the squares would not, so finish in exact integers.
    return sum(int(v) ** 2 for v in conv[conv > 0])


@dataclass(frozen=True)
class FibLittlewood:
    """Norms of the Fibonacci block 1..floor(N^gamma) mod p; ratio is
    L1 / sqrt(block length)."""

    p: int
    nmax: int
    gamma: float
    seq_len: int
    report: NormReport
    ratio: float


def littlewood_fib(p: int, nmax: int, gamma: float) -> FibLittlewood:
    if not is_prime(p):
        raise ConfigError(f"p must be prime, got {p}")
    if p > nmax:
        raise ConfigError("need p <= nmax")
    g = exact_fraction(gamma)
    if not 0 < g < Fraction(1, 3):
        raise ConfigError(f"gamma must lie in (0, 1/3), got {gamma}")
    seq_len = ipow_floor(nmax, g)
    ms = ResidueMultiset.from_spec(SequenceSpec.fibonacci(1, seq_len), p)
    report = norm_report(ms)
    # Diagonal solutions alone force the block length below L2sq.
    if report.l2sq < seq_len * (1 - CHAIN_RTOL):
        raise InvariantError(
            f"L2sq = {report.l2sq!r} below the diagonal bound {seq_len}")
    return FibLittlewood(p=p, nmax=nmax, gamma=float(g), seq_len=seq_len,
                         report=report, ratio=report.l1 / math.sqrt(seq_len))


@dataclass(frozen=True)
class PowLittlewood:
    """Norms of {g^n : n <= N} mod p for a primitive root g with N < sqrt(p).

    ratio divides L1 by N^(1/48); energy_exponent is log T / log N (None
    at N = 1).
    """

    p: int
    base: int
    length: int
    report: NormReport
    ratio: float
    energy_exponent: float | None


def littlewood_pow(p: int, base: int, length: int) -> PowLittlewood:
    if not is_prime(p):
        raise ConfigError(f"p must be prime, got {p}")
    if not is_primitive_root(base, p):
        raise ConfigError(f"{base} is not a primitive root mod {p}")
    if length < 1 or length * length >= p:
        raise ConfigError("need 1 <= N < sqrt(p)")
    ms = ResidueMultiset.from_spec(SequenceSpec.power(base, 1, length), p)
    report = norm_report(ms)
    stats = collision_stats(ms)
    max_mult = max(ms.counts.values())
    if report.energy > length**3 * max_mult:
        raise InvariantError(
            f"energy {report.energy} above the trivial cap N^3*mult at p={p}")
    exponent = (math.log(report.energy) / math.log(length)
                if length > 1 else None)
    if stats.distinct != length:    # n <= N < sqrt(p) < ord(g) forces distinctness
        raise InvariantError(
            f"{stats.distinct} distinct residues among {length} powers of "
            f"{base} at p={p}")
    return PowLittlewood(p=p, base=base, length=length, report=report,
                         ratio=report.l1 / length ** (1 / 48),
                         energy_exponent=exponent)
