"""Sumset coverage of F_p and Waring-type Fibonacci representations.

Subsets of Z/pZ are bit vectors packed into a single Python integer, so a
(k+1)-fold sumset is the union over generators v of the k-fold sumset
cyclically rotated by v -- one shift-or pass per generator.  The fold reads
its generators from an int64 array FOLD_CHECK_EVERY = 16 at a time and
stops after the first block whose union covers F_p, so it never converts
the generators it does not reach.  _sumset_layers, the one loop over that
fold, ends at the first full layer, and _decompose_sum, the one witness
routine, reads every level past it as full.  Every Waring window has one
generator, valueset's block-jump stepper, cut at 6p terms: F and L mod p
repeat with period at most 6p, so a window costs O(p) at any N.  On top of
that sit:

* waring_fib_direct: the least s <= WARING_TERMS = 16 (the paper's 16-term
  theorem) with every residue a sum of s Fibonacci numbers.
* glibichuk_check: |A||B| > 2p forces the 8-fold sumset of A*B to be all
  of F_p; checked exactly, with a missing-residue witness on failure.
  A*B, like ternary_count, reads valueset's blockwise pair-count table.
* waring_constructive: writes any residue as a sum of 16 Fibonacci numbers
  by covering F_p with 8 products F_{2n} L_{2m} and rewriting each product
  as F_{2(n+m)} + F_{2(n-m)}.
* waring_eps_verify: the short-index variant; s = 4k indices below N^eps,
  found by solving x*y + z_1 + z_2 = lambda over structured sum sets, with
  Z and Z + Z as the first two sumset layers of Z.  It checks |X||Y||Z|^2
  > p^3, which forces a solution by the bound |T - |X||Y||Z|^2 / p| <=
  sqrt(p |X||Y|) |Z| on the exact count T of ternary_count.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

import numpy as np

from .errors import ConfigError, ConstructionError, GuardError, InvariantError
from .numtheory import PRODUCT_GUARD, exact_fraction, fib_mod, ipow_floor, row_blocks
from .valueset import _pair_counts, fib_residue_array

# The paper's Waring budget: for almost all p <= N, every residue mod p is
# a sum of 16 Fibonacci numbers with index <= delta(N) sqrt(N).
WARING_TERMS = 16

# Largest |X||Y||Z|^2 ternary_count will enumerate.
TUPLE_GUARD = 10**9

# Generators a fold shifts in between two checks of its union against the
# full mask; a check costs about as much as one shift-or.
FOLD_CHECK_EVERY = 16


def _pack_residues(residues: np.ndarray, p: int) -> int:
    """The p-bit mask with a bit set at each residue of an int64 array of
    entries in [0, p)."""
    flags = np.zeros(p, dtype=np.uint8)
    flags[residues] = 1
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


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
        out.bits = _pack_residues(members % p, p)
        return out

    @classmethod
    def full(cls, p: int) -> "ResidueSet":
        return cls(p, (1 << p) - 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, x: int) -> bool:
        return (self.bits >> (x % self.p)) & 1 == 1

    def members(self) -> np.ndarray:
        """The members in ascending order, as an int64 array."""
        raw = np.frombuffer(self.bits.to_bytes((self.p + 7) // 8, "little"),
                            dtype=np.uint8)
        # unpackbits yields only 0 and 1, so the bool view is exact
        bits = np.unpackbits(raw, bitorder="little").view(bool)
        return np.flatnonzero(bits)

    def __iter__(self):
        """The members in ascending order, as Python ints."""
        return iter(self.members().tolist())

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


def _fold_once(bits: int, gens: np.ndarray, p: int) -> int:
    """Union of the rotations of bits by each generator of the int64 array
    gens, read FOLD_CHECK_EVERY at a time.  Once the union is all of F_p no
    later generator can change it, so the fold stops after the block whose
    check finds it full and never reads the blocks after it."""
    mask = (1 << p) - 1
    out = 0
    for start in range(0, len(gens), FOLD_CHECK_EVERY):
        for v in gens[start : start + FOLD_CHECK_EVERY].tolist():
            out |= (bits << v) | (bits >> (p - v)) if v else bits
        out &= mask
        if out == mask:
            break
    return out


def _sumset_layers(base: ResidueSet, k: int) -> list[int]:
    """Bit masks of the j-fold sumsets of base for j = 1..k, ending at the
    first full layer: every layer after it is full too.  The generators
    stay an int64 array, since an early-exiting fold reads few of them."""
    p, gens = base.p, base.members()
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
    """{x * y mod p : x in a, y in b}, exact in int64 for p <= PRODUCT_GUARD."""
    if a.p != b.p:
        raise ConfigError("mismatched moduli")
    if a.p > PRODUCT_GUARD:
        raise GuardError(f"p = {a.p} exceeds the guard {PRODUCT_GUARD}")
    counts = _pair_counts(a.members(), b.members(), a.p, np.multiply)
    return ResidueSet(a.p, _pack_residues(np.flatnonzero(counts), a.p))


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
    """{F_n mod p : 1 <= n <= max_index}, from the block-jump stepper; p is
    at most PRODUCT_GUARD, checked before anything is allocated."""
    if max_index < 1:
        raise ConfigError("max_index must be >= 1")
    # pi(p) <= 6p (Freyd-Brown): each F_n with n > 6p repeats an earlier one
    return ResidueSet(p, _pack_residues(fib_residue_array(1, min(max_index, 6 * p), p), p))


def _fib_window(p: int, a: int, b: int, lo: int, hi: int,
                lucas: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The distinct residues of F_{an+b} (L_{an+b} = F_{an+b-1} + F_{an+b+1}
    when lucas) mod p for lo <= n <= hi, in order of first occurrence, and
    each one's least n, as two int64 arrays, from one block-jump array read
    with stride a; needs a lo + b - lucas >= 1."""
    # F and L mod p have period pi(p) <= 6p in n, so later n add no residue
    hi = min(hi, lo + 6 * p - 1)
    f = fib_residue_array(a * lo + b - lucas, a * hi + b + lucas, p)
    terms = (f[:-2:a] + f[2::a]) % p if lucas else f[::a]
    first = np.sort(np.unique(terms, return_index=True)[1])
    return terms[first], first + lo


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


def _product_witnesses(fr: np.ndarray, fn: np.ndarray, lr: np.ndarray,
                        lm: np.ndarray, p: int) -> dict[int, tuple[int, int]]:
    """Each product residue F L mod p -> its witness (n, m): the first pair
    in (F, L) window order with n >= m, so that both Fibonacci indices in
    the rewrite are nonnegative, else the first pair.

    One int64 key per pair, its flat index plus |F||L| when n < m, and the
    least key per residue is the witness.  The keys are folded into the
    table in row_blocks of F, so no |F| x |L| array is ever held."""
    size = len(fr) * len(lr)
    best = np.full(p, 2 * size, dtype=np.int64)
    for rows in row_blocks(len(fr), len(lr), p):
        key = (np.arange(rows.start * len(lr), rows.stop * len(lr)).reshape(-1, len(lr))
               + size * (fn[rows, None] < lm))
        np.minimum.at(best, (fr[rows, None] * lr % p).ravel(), key.ravel())
    gens = np.flatnonzero(best < 2 * size)
    i, j = np.divmod(best[gens] % size, len(lr))
    return dict(zip(gens.tolist(), zip(fn[i].tolist(), lm[j].tolist())))


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
    if p > PRODUCT_GUARD:
        raise GuardError(f"p = {p} exceeds the guard {PRODUCT_GUARD}")
    root = math.sqrt(nmax)
    n_lo = math.floor(delta * root / 10)
    n_hi = math.floor(delta * root / 5)
    m_hi = math.floor(math.sqrt(nmax / delta))
    if n_lo + 1 > n_hi or m_hi < 1:
        raise ConstructionError(
            f"empty index window (delta={delta}, N={nmax})")
    fr, fn = _fib_window(p, 2, 0, n_lo + 1, n_hi)           # F_{2n}
    lr, lm = _fib_window(p, 2, 0, 1, m_hi, lucas=True)      # L_{2m}
    if len(fr) * len(lr) <= 2 * p:
        raise ConstructionError(
            f"|F||L| = {len(fr)}*{len(lr)} <= 2p = {2 * p}: "
            "product set too small to force 8-fold coverage")

    prod_wit = _product_witnesses(fr, fn, lr, lm, p)
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
                                f_size=len(fr), l_size=len(lr))


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

    zarr = z.members()
    pair_counts = _pair_counts(zarr, zarr, p, np.add)
    xy_counts = _pair_counts(x.members(), y.members(), p, np.multiply)

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
    b_cap = ipow_floor(nmax, Fraction(1, k + 2))
    m_hi = ipow_floor(nmax, Fraction(7, k + 2))
    m_lo = m_hi // 2   # floor of N^(7/(k+2)) / 2, the half-range point
    # Keep every expanded index >= 1: m - (2n-1) >= 1 needs m >= 2 b_cap.
    m_start = max(m_lo + 1, 2 * b_cap)
    if m_start > m_hi:
        raise ConstructionError(
            f"Lucas window ({m_lo}, {m_hi}] cannot clear 2*N^(1/(k+2)) = {2 * b_cap}")
    top_cap = ipow_floor(nmax, params.eps)   # every index must be <= N^eps

    def first_index(*window) -> dict[int, int]:   # residue -> least index
        residues, index = _fib_window(p, *window)
        return dict(zip(residues.tolist(), index.tolist()))
    x_idx = first_index(2, -1, 1, b_cap)             # F_{2n-1}, n <= b_cap
    z_idx = first_index(2, 0, 1, b_cap)              # F_{2l}, l <= b_cap
    y_wit = first_index(1, 0, m_start, m_hi, True)   # L_m over the window
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
            top = max(indices)
            if top > top_cap:
                raise InvariantError(
                    f"index {top} exceeds N^eps at N={nmax}, eps={params.eps}")
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
