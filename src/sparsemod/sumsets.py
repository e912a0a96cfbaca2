"""Sumset coverage of F_p and Waring-type Fibonacci representations.

Subsets of Z/pZ are bit vectors packed into a single Python integer, so a
(k+1)-fold sumset is the union over generators v of the k-fold sumset
cyclically rotated by v -- one shift-or pass per generator, stopping as
soon as the union covers F_p.  _sumset_layers, the one loop over that fold,
ends at the first full layer, and _decompose_sum, the one witness routine,
reads every level past it as full.  On top of that sit:

* waring_fib_direct: the least s <= WARING_TERMS = 16 (the paper's 16-term
  theorem) with every residue a sum of s Fibonacci numbers.
* glibichuk_check: |A||B| > 2p forces the 8-fold sumset of A*B to be all
  of F_p; checked exactly, with a missing-residue witness on failure.
* waring_constructive: writes any residue as a sum of 16 Fibonacci numbers
  by covering F_p with 8 products F_{2n} L_{2m} and rewriting each product
  as F_{2(n+m)} + F_{2(n-m)}.
* waring_eps_verify: the short-index variant; s = 4k indices below N^eps,
  found by solving x*y + z_1 + z_2 = lambda over structured sum sets, with
  Z and Z + Z as the first two sumset layers of Z.

Counting solutions of x y + z_1 + z_2 = lambda exactly (ternary_count)
supplies the solvability bound behind the eps variant:
|T - |X||Y||Z|^2 / p| <= sqrt(p |X||Y|) |Z|.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Optional, Union

import numpy as np

from .errors import ConfigError, ConstructionError, GuardError, InvariantError
from .numtheory import _iroot, exact_fraction, fib_mod
from .valueset import SequenceSpec

# The paper's Waring budget: for almost all p <= N, every residue mod p is
# a sum of 16 Fibonacci numbers with index <= delta(N) sqrt(N).
WARING_TERMS = 16

# Largest |X||Y||Z|^2 ternary_count will enumerate.
TUPLE_GUARD = 10**9

# Generators a fold shifts in between two checks of its union against the
# full mask; a check costs about as much as one shift-or.
FOLD_CHECK_EVERY = 16


class ResidueSet:
    """A subset of Z/pZ as a p-bit mask inside one Python int."""

    __slots__ = ("p", "bits")

    def __init__(self, p: int, bits: int = 0):
        if p < 2:
            raise ConfigError("modulus must be >= 2")
        self.p = p
        self.bits = bits & ((1 << p) - 1)

    @classmethod
    def from_iterable(cls, p: int, xs: Iterable[int]) -> "ResidueSet":
        """The set {x mod p : x in xs}; members must fit in int64."""
        out = cls(p)
        try:
            members = np.fromiter(xs, dtype=np.int64)
        except OverflowError as exc:
            raise ConfigError("residue set member outside int64") from exc
        flags = np.zeros(p, dtype=np.uint8)
        flags[members % p] = 1
        out.bits = int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")
        return out

    @classmethod
    def full(cls, p: int) -> "ResidueSet":
        return cls(p, (1 << p) - 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, x: int) -> bool:
        return (self.bits >> (x % self.p)) & 1 == 1

    def __iter__(self):
        """The members in ascending order, as Python ints."""
        raw = np.frombuffer(self.bits.to_bytes((self.p + 7) // 8, "little"),
                            dtype=np.uint8)
        return iter(np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist())

    def __eq__(self, other) -> bool:
        return (isinstance(other, ResidueSet)
                and self.p == other.p and self.bits == other.bits)

    def __repr__(self) -> str:
        return f"ResidueSet(p={self.p}, size={len(self)})"

    def is_full(self) -> bool:
        return self.bits == (1 << self.p) - 1

    def missing_residue(self) -> Optional[int]:
        """Smallest residue not in the set, or None when full."""
        if self.is_full():
            return None
        inv = ~self.bits & ((1 << self.p) - 1)
        return (inv & -inv).bit_length() - 1


def _fold_once(bits: int, gens: list[int], p: int) -> int:
    """Union of the rotations of bits by each generator.  Once the union
    is all of F_p no later generator can change it, so the fold stops."""
    mask = (1 << p) - 1
    out = 0
    for i, v in enumerate(gens, 1):
        out |= (bits << v) | (bits >> (p - v)) if v else bits
        if i % FOLD_CHECK_EVERY == 0:
            out &= mask
            if out == mask:
                break
    return out & mask


def _sumset_layers(base: ResidueSet, k: int) -> list[int]:
    """Bit masks of the j-fold sumsets of base for j = 1..k, ending at the
    first full layer: every layer after it is full too."""
    p, gens = base.p, list(base)
    full = (1 << p) - 1
    layers = [base.bits]
    while len(layers) < k and layers[-1] != full:
        layers.append(_fold_once(layers[-1], gens, p))
    return layers


def _decompose_sum(target: int, layers: list[int], gens: list[int], p: int,
                   terms: int) -> list[int]:
    """Greedy witness extraction: split target into terms >= len(layers)
    generators, the smallest feasible one at each level.  A level past the
    last layer has a full layer below it, so it takes gens[0]."""
    picks = [gens[0]] * (terms - len(layers))
    t = (target - gens[0] * len(picks)) % p
    for j in range(len(layers) - 1, 0, -1):
        for v in gens:
            if (layers[j - 1] >> ((t - v) % p)) & 1:
                picks.append(v)
                t = (t - v) % p
                break
        else:
            raise InvariantError(f"{target} not decomposable at level {j + 1}")
    if not (layers[0] >> t) & 1:
        raise InvariantError(f"{target} not decomposable at level 1")
    picks.append(t)
    return picks


@dataclass(frozen=True)
class CoverResult:
    """Growth of the k-fold sumsets of a generating set.

    coverage_sizes[j-1] = |j-fold sumset| up to the first full fold or the
    fold budget; s_min is the first fold reaching all of F_p, None if not
    reached within the budget, and missing_residue the smallest residue
    outside the last fold computed (None when covered).
    """

    p: int
    s_min: Optional[int]
    coverage_sizes: tuple[int, ...]
    missing_residue: Optional[int]

    @property
    def covered(self) -> bool:
        return self.s_min is not None


def product_set(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """{x * y mod p : x in a, y in b}, exact."""
    if a.p != b.p:
        raise ConfigError("mismatched moduli")
    bl = list(b)
    return ResidueSet.from_iterable(a.p, (x * y for x in a for y in bl))


def k_fold_sumset(v: ResidueSet, k: int) -> CoverResult:
    """Iterated sumsets of v, stopping at full coverage or after k folds."""
    if k < 1:
        raise ConfigError("fold count must be >= 1")
    if not v.bits:
        raise ConfigError("empty generating set")
    p = v.p
    layers = _sumset_layers(v, k)
    s_min = len(layers) if layers[-1] == (1 << p) - 1 else None
    return CoverResult(p=p, s_min=s_min,
                       coverage_sizes=tuple(s.bit_count() for s in layers),
                       missing_residue=ResidueSet(p, layers[-1]).missing_residue())


@dataclass(frozen=True)
class GlibichukResult:
    passed: bool
    missing_residue: Optional[int]
    product_size: int
    precondition_met: bool  # |A||B| > 2p
    cover: CoverResult


def glibichuk_check(a: ResidueSet, b: ResidueSet) -> GlibichukResult:
    """Does the 8-fold sumset of A*B cover F_p?

    When |A||B| > 2p this must pass; callers may probe smaller sets, so
    the precondition is recorded rather than enforced.
    """
    prod = product_set(a, b)
    cover = k_fold_sumset(prod, 8)
    return GlibichukResult(
        passed=cover.covered,
        missing_residue=cover.missing_residue,
        product_size=len(prod),
        precondition_met=len(a) * len(b) > 2 * a.p,
        cover=cover,
    )


def fib_residue_set(p: int, max_index: int) -> ResidueSet:
    """{F_n mod p : 1 <= n <= max_index}."""
    if max_index < 1:
        raise ConfigError("max_index must be >= 1")
    return ResidueSet.from_iterable(p, SequenceSpec.fibonacci(1, max_index).residues(p))


def waring_fib_direct(p: int, max_index: int, terms: int = WARING_TERMS) -> CoverResult:
    """Smallest s <= terms such that every residue mod p is a sum of s
    Fibonacci numbers with indices <= max_index; the paper's budget is
    WARING_TERMS = 16."""
    return k_fold_sumset(fib_residue_set(p, max_index), terms)


@dataclass(frozen=True)
class WaringRepresentation:
    """lambda = sum of 8 products F_{2n_i} L_{2m_i} = sum of 16 Fibonacci
    numbers mod p (index 0 contributes F_0 = 0 when n_i = m_i)."""

    p: int
    target: int
    pairs: tuple[tuple[int, int], ...]       # (n_i, m_i), n_i >= m_i
    fib_indices: tuple[int, ...]             # 2(n_i + m_i), 2(n_i - m_i)
    f_size: int                              # |{F_{2n} mod p}| over the window
    l_size: int                              # |{L_{2m} mod p}| over the window


def _first_index(residues: Iterable[int], start: int) -> dict[int, int]:
    """residue -> index of its first occurrence, the first term being
    index start.  Insertion order is ascending index."""
    wit: dict[int, int] = {}
    for i, r in enumerate(residues, start):
        wit.setdefault(r, i)
    return wit


def waring_constructive(p: int, nmax: int, delta: float, lam: int) -> WaringRepresentation:
    """Represent lam mod p as a sum of 16 Fibonacci numbers.

    Takes the even-index window F = {F_{2n} : delta*sqrt(N)/10 < n <=
    delta*sqrt(N)/5} and L = {L_{2m} : 1 <= m <= sqrt(N/delta)}; once
    |F||L| > 2p as value sets mod p, the 8-fold sumset of F*L covers F_p,
    and each product splits as F_{2(n+m)} + F_{2(n-m)}.  The returned sum
    is re-evaluated mod p before returning.
    """
    if p < 2 or p > nmax:
        raise ConfigError("need 2 <= p <= nmax")
    if not (delta > 0 and math.isfinite(delta)):
        raise ConfigError(f"delta must be positive and finite, got {delta}")
    root = math.sqrt(nmax)
    n_lo = math.floor(delta * root / 10)
    n_hi = math.floor(delta * root / 5)
    m_hi = math.floor(math.sqrt(nmax / delta))
    if n_lo + 1 > n_hi or m_hi < 1:
        raise ConstructionError(
            f"empty index window (delta={delta}, N={nmax})")
    f_wit = _first_index(SequenceSpec.fibonacci_even(n_lo + 1, n_hi).residues(p), n_lo + 1)
    # L_{2m} for 1 <= m <= m_hi: every other term of L_2..L_{2 m_hi}
    even_lucas = islice(SequenceSpec.lucas(2, 2 * m_hi).residues(p), 0, None, 2)
    l_wit = _first_index(even_lucas, 1)
    if len(f_wit) * len(l_wit) <= 2 * p:
        raise ConstructionError(
            f"|F||L| = {len(f_wit)}*{len(l_wit)} <= 2p = {2 * p}: "
            "product set too small to force 8-fold coverage")

    # Product residues with (n, m) witnesses; prefer n > m so that both
    # Fibonacci indices in the rewrite are nonnegative.
    prod_wit: dict[int, tuple[int, int]] = {}
    for fr, n in f_wit.items():
        for lr, m in l_wit.items():
            r = fr * lr % p
            cur = prod_wit.get(r)
            if cur is None or (cur[0] < cur[1] and n >= m):
                prod_wit[r] = (n, m)
    gens = sorted(prod_wit)
    layers = _sumset_layers(ResidueSet.from_iterable(p, gens), 8)
    if layers[-1] != (1 << p) - 1:
        raise InvariantError(
            f"8-fold sumset misses residues at p={p} despite |F||L| > 2p")
    target = lam % p
    picks = _decompose_sum(target, layers, gens, p, 8)
    pairs = tuple(prod_wit[u] for u in picks)
    if any(n < m for n, m in pairs):
        raise ConstructionError(
            f"window overlap left a product with n < m (delta={delta}); "
            "use a larger delta (delta^(3/2) > 10 separates the windows)")
    indices = []
    for n, m in pairs:
        indices.extend((2 * (n + m), 2 * (n - m)))
    check = sum(fib_mod(i, p) for i in indices) % p
    if check != target:
        raise InvariantError(f"representation re-evaluates to {check}, not {target}")
    return WaringRepresentation(p=p, target=target, pairs=pairs,
                                fib_indices=tuple(indices),
                                f_size=len(f_wit), l_size=len(l_wit))


@dataclass(frozen=True)
class TernaryReport:
    """Exact count of (x, y, z1, z2) with x y + z1 + z2 = lambda mod p,
    against the main term |X||Y||Z|^2 / p and the error radius
    sqrt(p |X||Y|) |Z|."""

    p: int
    lam: int
    count: int
    main: float
    bound: float


def ternary_count(x: ResidueSet, y: ResidueSet, z: ResidueSet,
                  lam: int) -> TernaryReport:
    """Count solutions of x*y + z1 + z2 = lam exactly.

    The inequality |count - main| <= bound is checked in exact integer
    arithmetic before returning (it is a theorem; failure would be a
    finding).
    """
    if not (x.p == y.p == z.p):
        raise ConfigError("mismatched moduli")
    p = x.p
    nx, ny, nz = len(x), len(y), len(z)
    if min(nx, ny, nz) == 0:
        raise ConfigError("empty factor set")
    if nx * ny * nz * nz > TUPLE_GUARD:
        raise GuardError(f"|X||Y||Z|^2 = {nx * ny * nz * nz} > {TUPLE_GUARD}")
    lam %= p

    zarr = np.fromiter(z, dtype=np.int64, count=nz)
    pair_counts = np.zeros(p, dtype=np.int64)
    step = max(1, 4_000_000 // nz)
    for i in range(0, nz, step):
        block = (zarr[i : i + step, None] + zarr[None, :]) % p
        pair_counts += np.bincount(block.ravel(), minlength=p)

    xy_counts = np.zeros(p, dtype=np.int64)
    yarr = np.fromiter(y, dtype=np.int64, count=ny)
    for xv in x:
        xy_counts += np.bincount(xv * yarr % p, minlength=p)

    # count = sum_v #{xy = v} * #{z1+z2 = lam - v}
    idx = (lam - np.arange(p)) % p
    count = int(np.dot(xy_counts, pair_counts[idx]))

    # |count - q/p| <= sqrt(p nx ny) nz  <=>  (count*p - q)^2 <= p^3 nx ny nz^2
    q = nx * ny * nz * nz
    if (count * p - q) ** 2 > p**3 * nx * ny * nz * nz:
        raise InvariantError(
            f"ternary bound violated at p={p}, lam={lam}: count={count}")
    return TernaryReport(p=p, lam=lam, count=count, main=q / p,
                         bound=math.sqrt(p * nx * ny) * nz)


@dataclass(frozen=True)
class WaringEpsParams:
    """k = least integer with 1/(k+2) < eps/8, and s = 4k < 100/eps."""

    eps: Fraction
    k: int
    s: int


def waring_eps_params(eps: Union[float, str, Fraction]) -> WaringEpsParams:
    """Term count for the short-index representation at quality eps."""
    e = exact_fraction(eps)
    if not 0 < e <= Fraction(1, 2):
        raise ConfigError(f"eps must lie in (0, 1/2], got {eps}")
    k = math.floor(8 / e) - 1
    s = 4 * k
    if not s * e < 100:
        raise InvariantError(f"s = {s} fails s*eps < 100 at eps = {e}")
    return WaringEpsParams(eps=e, k=k, s=s)


@dataclass(frozen=True)
class EpsRepresentation:
    """lam = L_m * (F_{2n_1-1} + ... + F_{2n_k-1}) + z1 + z2 mod p, expanded
    into s = 4k Fibonacci indices, all at most N^eps."""

    p: int
    nmax: int
    params: WaringEpsParams
    target: int
    m: int
    n_tuple: tuple[int, ...]       # odd-index block inside x
    z1_tuple: tuple[int, ...]      # even-index block inside z1
    z2_tuple: tuple[int, ...]
    fib_indices: tuple[int, ...]
    set_sizes: tuple[int, int, int]  # |X|, |Y|, |Z|


def waring_eps_verify(p: int, nmax: int, eps: Union[float, str, Fraction],
                      lam: int) -> EpsRepresentation:
    """Find a short-index Waring representation and self-verify it.

    X runs over k-fold sums of F_{2n-1} (n <= N^{1/(k+2)}), Y over L_m for
    N^{7/(k+2)}/2 < m <= N^{7/(k+2)}, Z over k-fold sums of F_{2l}.  The
    solvability precondition |X||Y||Z|^2 > p^3 guarantees a solution of
    x y + z1 + z2 = lam; the product L_m F_{2n-1} = F_{m+2n-1} + F_{m-2n+1}
    turns it into 4k Fibonacci terms.  Search order is deterministic
    (ascending m, then ascending x, with least-index witnesses).  Z and
    Z + Z are the first two sumset layers of Z, and z1 the least z in Z
    with rest - z in Z.
    """
    if not 2 <= p <= nmax:
        raise ConfigError("need 2 <= p <= nmax")
    params = waring_eps_params(eps)
    k = params.k
    b_cap = _iroot(nmax, k + 2)
    if b_cap < 1:
        raise ConstructionError(f"N^(1/(k+2)) < 1 at N={nmax}, k={k}")
    m_hi = _iroot(nmax**7, k + 2)
    m_lo = _iroot(nmax**7 >> (k + 2), k + 2)  # floor of the half-range point
    # Keep every expanded index >= 1: m - (2n-1) >= 1 needs m >= 2 b_cap.
    m_start = max(m_lo + 1, 2 * b_cap)
    if m_start > m_hi:
        raise ConstructionError(
            f"Lucas window ({m_lo}, {m_hi}] cannot clear 2*N^(1/(k+2)) = {2 * b_cap}")

    # First witness index for each generator residue: F_{2n-1} (every other
    # term of F_1..F_{2 b_cap}) and F_{2l} for n, l <= b_cap, and L_m over
    # the Lucas window.
    odd_fib = islice(SequenceSpec.fibonacci(1, 2 * b_cap).residues(p), 0, None, 2)
    x_idx = _first_index(odd_fib, 1)
    z_idx = _first_index(SequenceSpec.fibonacci_even(1, b_cap).residues(p), 1)
    y_wit = _first_index(SequenceSpec.lucas(m_start, m_hi).residues(p), m_start)
    gens_x = sorted(x_idx)
    gens_z = sorted(z_idx)
    layers_x = _sumset_layers(ResidueSet.from_iterable(p, gens_x), k)
    layers_z = _sumset_layers(ResidueSet.from_iterable(p, gens_z), k)

    sx = layers_x[-1].bit_count()
    sy = len(y_wit)
    sz = layers_z[-1].bit_count()
    if sx * sy * sz * sz <= p**3:
        raise ConstructionError(
            f"|X||Y||Z|^2 = {sx}*{sy}*{sz}^2 <= p^3 = {p**3}: "
            "solvability not guaranteed at these sizes")

    z_set = ResidueSet(p, layers_z[-1])
    layers_zz = _sumset_layers(z_set, 2)   # Z, Z + Z

    target = lam % p
    x_res = list(ResidueSet(p, layers_x[-1]))
    for yv, m in y_wit.items():   # ascending m
        for xv in x_res:
            rest = (target - xv * yv) % p
            if not (layers_zz[-1] >> rest) & 1:
                continue
            z1, z2 = _decompose_sum(rest, layers_zz, list(z_set), p, 2)
            n_tuple = tuple(sorted(x_idx[r] for r in
                                   _decompose_sum(xv, layers_x, gens_x, p, k)))
            z1_tuple = tuple(sorted(z_idx[r] for r in
                                    _decompose_sum(z1, layers_z, gens_z, p, k)))
            z2_tuple = tuple(sorted(z_idx[r] for r in
                                    _decompose_sum(z2, layers_z, gens_z, p, k)))
            indices = []
            for n in n_tuple:
                indices.extend((m + 2 * n - 1, m - 2 * n + 1))
            indices.extend(2 * l for l in z1_tuple)
            indices.extend(2 * l for l in z2_tuple)
            if min(indices) < 1:
                raise InvariantError("expanded index below 1 despite m filter")
            e = params.eps
            top = max(indices)
            if top**e.denominator > nmax**e.numerator:
                raise InvariantError(
                    f"index {top} exceeds N^eps at N={nmax}, eps={e}")
            check = sum(fib_mod(i, p) for i in indices) % p
            if check != target:
                raise InvariantError(
                    f"representation re-evaluates to {check}, not {target}")
            return EpsRepresentation(
                p=p, nmax=nmax, params=params, target=target, m=m,
                n_tuple=n_tuple, z1_tuple=z1_tuple, z2_tuple=z2_tuple,
                fib_indices=tuple(indices), set_sizes=(sx, sy, sz))
    raise InvariantError(
        f"no solution found at p={p}, N={nmax}, eps={params.eps} although "
        "|X||Y||Z|^2 > p^3 guarantees one")
