"""L1/L2/L4 norms of incomplete exponential sums over F_p.

For a residue multiset with counts c_r put S(a) = sum_r c_r e(a r / p).
norm_report returns L1 = (1/p) sum |S|, L2sq = (1/p) sum |S|^2 and the
additive energy T = (1/p) sum |S|^4.  Only L1 is computed in floats: the
count vector is real, so |S(p - a)| = |S(a)| and only a = 1..p//2 is
evaluated.  For a K-residue support those S(a) come from one
baby-step/giant-step product, about K sqrt(p) phases and one complex
matrix product, and the moduli are summed by numpy's pairwise reduction
(deterministic for a fixed array, within a few ulps of the exact sum).
L2sq = sum_r c_r^2 is the collision count (Parseval) and T = sum_s r(s)^2,
with r(s) = sum_{x+y=s} c_x c_y, the number of index quadruples with
x_a + x_b = x_c + x_d; both are exact integers, r(s) read off the
pair-count table of the support (valueset).  Every kernel reads the
multiset's support and count arrays as they are, and takes its
temporaries in numtheory.row_blocks, at most max(SWEEP_ENTRIES, p)
entries each, the size of a length-p table.  Three chain facts are
enforced as postconditions, the two on L1 across l1 +- _l1_error(ms), an
error bound that assumes libm's cos, sin and hypot within one ulp:

    L2sq^2 <= T                (Cauchy-Schwarz, compared as integers)
    L1^2 <= L2sq               (Cauchy-Schwarz)
    L1 >= (L2sq^3 / T)^(1/2)   (Hoelder, the lower-bound chain; equals
                                (N^3/T)^(1/2) for multiplicity-1 sets)
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, GuardError, InvariantError
from .numtheory import exact_fraction, ipow_floor, is_prime, is_primitive_root, row_blocks
from .valueset import SIZE_GUARD, ResidueMultiset, SequenceSpec, _pair_counts, collision_stats

P_GUARD = 1_000_000


def _check_guard(p: int) -> None:
    if p > P_GUARD:
        raise GuardError(f"p = {p} exceeds the guard {P_GUARD}")


@dataclass(frozen=True)
class NormReport:
    """Normalized norms of S over a full period; l2sq, the collision count,
    and energy, T, are exact integers."""

    p: int
    size: int
    l1: float
    l2sq: int
    energy: int
    karatsuba_lb: float


def _half_moduli(ms: ResidueMultiset) -> np.ndarray:
    """|S(a)| for a = 1..p//2, by a baby-step/giant-step product.

    With B = ceil(sqrt(m)), m = p // 2, and a = a0 + t, a0 in
    {0, B, 2B, ...} and t = 1..B, the block of S values is
    (c e(a0 r/p)) @ e(t r/p)^T.  The products a0 r and t r are reduced mod
    p in int64 (p <= P_GUARD keeps p^2 exact), so every phase angle lies in
    [0, 2 pi).  A wide support is taken in row_blocks of residues, so each
    block of giant or baby phases stays within max(SWEEP_ENTRIES, p) entries."""
    p = ms.p
    m = p // 2
    b = math.isqrt(m - 1) + 1
    giant = np.arange(0, m, b, dtype=np.int64)[:, None]
    baby = np.arange(1, b + 1, dtype=np.int64)[:, None]
    scale = 2j * np.pi / p
    for k in row_blocks(len(ms.support), len(giant) + b, p):
        r = ms.support[k]
        block = ((ms.counts[k] * np.exp(scale * (giant * r % p)))
                 @ np.exp(scale * (baby * r % p)).T)
        s = s + block if k.start else block
    return np.abs(s.ravel()[:m])


def _l1_geometric(ms: ResidueMultiset) -> float:
    """(1/p) sum_a |S(a)|: S(0) is the total, a and p - a share one
    modulus, and a = p/2 (p even) has no partner, so it is halved before
    the doubled sum."""
    mod = _half_moduli(ms)
    if ms.p % 2 == 0:
        mod[-1] *= 0.5
    return (ms.total + 2 * float(mod.sum())) / ms.p


def _l1_error(ms: ResidueMultiset) -> float:
    """E >= |_l1_geometric(ms) - L1| in units u = 2^-53 of the total, which
    bounds every |S(a)| (Higham 2002, ch. 3).  Per S(a): two phases of 16.5u
    (the angle 2.4u of 2 pi, cos and sin 1.5u); weight 1u; complex product
    3u; the K-term sum in any order gamma_(K-1); hypot 1u.  The pairwise sum
    of m < p/2 moduli: log2 m + 19 (a 128-term leaf runs 8 accumulators of 16,
    3 merges, 7 tail terms); add and divide 2u.  K + bits(p) + 57, so c = 64."""
    return ms.total * (len(ms.counts) + 64 + ms.p.bit_length()) * 2.0**-53


def norm_report(ms: ResidueMultiset) -> NormReport:
    """L1 from one baby-step/giant-step product and one pairwise sum; L2sq
    and the energy as exact integer counts."""
    if ms.total < 1:
        raise ConfigError("empty multiset")
    _check_guard(ms.p)
    p = ms.p
    l1 = _l1_geometric(ms)
    collisions = collision_stats(ms).collisions
    r = _pair_counts(ms.support, ms.support, p, np.add, (ms.counts, ms.counts))
    energy = sum(v * v for v in r[r > 0].tolist())   # r(s)^2 may pass int64
    e = _l1_error(ms)
    for failed, name in ((collisions * collisions > energy, "L2sq^2 <= T"),
                         (max(l1 - e, 0.0) ** 2 > collisions, "L1^2 <= L2sq"),
                         (collisions**3 > (l1 + e) ** 2 * energy, "L1 >= (L2sq^3/T)^(1/2)")):
        if failed:
            raise InvariantError(f"chain inequality {name} failed at p={p}: "
                                 f"l1={l1!r} L2sq={collisions} T={energy}")
    return NormReport(p=p, size=ms.total, l1=l1, l2sq=collisions, energy=energy,
                      karatsuba_lb=math.sqrt(collisions**3 / energy))


def l1_full_scan(ms: ResidueMultiset) -> float:
    """L1 by a direct DFT at every a: the oracle for norm_report's
    baby-step/giant-step kernel."""
    if ms.total < 1:
        raise ConfigError("empty multiset")
    _check_guard(ms.p)
    p = ms.p
    phases = np.exp((2j * np.pi / p) * np.arange(p))
    out = np.empty(p, dtype=np.float64)
    for a in row_blocks(p, len(ms.support), p):
        out[a] = np.abs(phases[np.outer(np.arange(a.start, a.stop), ms.support) % p] @ ms.counts)
    return math.fsum(out.tolist()) / p


def additive_energy_direct(ms: ResidueMultiset) -> int:
    """Exact quadruple count by tabulating pairwise-sum multiplicities."""
    if ms.total < 1:
        raise ConfigError("empty multiset")
    if ms.total > SIZE_GUARD:
        raise GuardError(f"size {ms.total} exceeds the guard {SIZE_GUARD}")
    p = ms.p
    res, cnt = ms.support, ms.counts.astype(np.float64)
    conv = np.zeros(p, dtype=np.float64)
    for i in row_blocks(len(res), len(res), p):
        sums = (res[i, None] + res[None, :]) % p
        w = cnt[i, None] * cnt[None, :]
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
    _check_guard(p)
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
    # Diagonal solutions alone force L2sq, an exact integer, up to the block length.
    if report.l2sq < seq_len:
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
    _check_guard(p)    # before is_primitive_root factors p - 1 by trial division
    if not is_prime(p):
        raise ConfigError(f"p must be prime, got {p}")
    if not is_primitive_root(base, p):
        raise ConfigError(f"{base} is not a primitive root mod {p}")
    if length < 1 or length * length >= p:
        raise ConfigError("need 1 <= N < sqrt(p)")
    ms = ResidueMultiset.from_spec(SequenceSpec.power(base, 1, length), p)
    report = norm_report(ms)
    stats = collision_stats(ms)
    if report.energy > length**3 * int(ms.counts.max()):
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
