"""Bit-vector sumsets, Glibichuk covering, Fibonacci Waring searches, ternary counts."""

import math
import random
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from sparsemod import (
    ConfigError,
    ConstructionError,
    GuardError,
    ResidueSet,
    SequenceSpec,
    fib_mod,
    glibichuk_check,
    ipow_floor,
    k_fold_sumset,
    lucas_mod,
    product_set,
    sieve_primes,
    ternary_count,
    waring_constructive,
    waring_eps_params,
    waring_eps_verify,
    waring_fib_direct,
)
import sparsemod.sumsets as sumsets
from sparsemod.sumsets import (
    FOLD_CHECK_EVERY,
    _decompose_sum,
    _first_index,
    _fold_once,
    _sumset_layers,
    fib_residue_set,
)


def brute_fold(base, prev, p):
    return {(a + b) % p for a in prev for b in base}


def to_mask(members):
    return sum(1 << x for x in set(members))


@st.composite
def dense_folds(draw):
    """(p, previous set, generators) whose union covers F_p after the first
    FOLD_CHECK_EVERY generators, with more generators left to fold: a set
    missing fewer than FOLD_CHECK_EVERY residues, shifted by that many
    distinct generators, covers F_p."""
    p = draw(st.integers(FOLD_CHECK_EVERY + 1, 400))
    missing = draw(st.sets(st.integers(0, p - 1), max_size=FOLD_CHECK_EVERY - 1))
    gens = draw(st.sets(st.integers(0, p - 1), min_size=FOLD_CHECK_EVERY + 1,
                        max_size=min(p, 64)))
    return p, set(range(p)) - missing, sorted(gens)


@st.composite
def sparse_folds(draw):
    """(p, previous set, generators) with |A||G| < p, so the union never
    covers F_p and every generator is folded."""
    p = draw(st.integers(2, 400))
    prev = draw(st.sets(st.integers(0, p - 1), max_size=min(p - 1, 10)))
    cap = min(p - 1, 80) if not prev else (p - 1) // len(prev)
    gens = draw(st.sets(st.integers(0, p - 1), max_size=cap))
    return p, prev, sorted(gens)


@st.composite
def covering_generators(draw):
    """(prime p, generators) whose 8-fold sumset is F_p by Cauchy-Davenport:
    |jG| >= min(p, j(|G| - 1) + 1)."""
    p = draw(st.sampled_from(sieve_primes(400)))
    least = (p - 2) // 7 + 2
    gens = draw(st.sets(st.integers(0, p - 1), min_size=min(p, least),
                        max_size=min(p, least + 20)))
    return p, sorted(gens)


def padded_greedy(target, layers, gens, p):
    """Witness oracle: split target into len(layers) generators, taking the
    smallest v at each level whose remainder lies in the layer below."""
    picks, t = [], target % p
    for j in range(len(layers) - 1, 0, -1):
        v = next(v for v in gens if (layers[j - 1] >> ((t - v) % p)) & 1)
        picks.append(v)
        t = (t - v) % p
    assert (layers[0] >> t) & 1
    return picks + [t]


def first_index_oracle(value, lo, hi):
    """(residue, least i in lo..hi with value(i) = residue), ascending in i,
    from one independent evaluation per index."""
    wit = {}
    for i in range(hi, lo - 1, -1):   # descending, so the least index wins
        wit[value(i)] = i
    return sorted(wit.items(), key=lambda t: t[1])


class TestResidueSet:
    def test_basic_ops(self):
        s = ResidueSet.from_iterable(11, [3, 7, 7, 0])
        assert len(s) == 3
        assert sorted(s) == [0, 3, 7]
        assert 7 in s and 5 not in s
        assert ResidueSet.full(5).missing_residue() is None
        assert ResidueSet.from_iterable(5, [0, 1, 3, 4]).missing_residue() == 2

    def test_iter_matches_membership(self):
        """Iteration yields the members as ascending Python ints."""
        rng = random.Random(4242)
        cases = [ResidueSet(2, 0b10), ResidueSet(2, 0b11), ResidueSet(13),
                 ResidueSet.full(13), ResidueSet.full(16), ResidueSet(61, 1 << 60)]
        for p in (2, 3, 7, 8, 13, 64, 97, 1009):
            cases += [ResidueSet(p, rng.getrandbits(p)) for _ in range(5)]
        for s in cases:
            got = list(s)
            assert got == [x for x in range(s.p) if x in s]
            assert all(type(x) is int for x in got)

    def test_inputs_reduced_mod_p(self):
        assert sorted(ResidueSet.from_iterable(5, [5])) == [0]
        assert sorted(ResidueSet.from_iterable(5, [-1, 12])) == [2, 4]
        with pytest.raises(ConfigError):
            ResidueSet(1, 0)
        with pytest.raises(ConfigError):
            ResidueSet.from_iterable(1, [0])

    @given(st.integers(2, 400),
           st.lists(st.integers(-2**63, 2**63 - 1) | st.integers(-1000, 1000),
                    max_size=300),
           st.booleans())
    def test_from_iterable_matches_set_comprehension(self, p, xs, as_generator):
        """Empty input, duplicates, negatives and values >= p, from a list
        or a one-shot generator."""
        s = ResidueSet.from_iterable(p, (x for x in xs) if as_generator else xs)
        want = {x % p for x in xs}
        assert set(s) == want and len(s) == len(want)
        assert s == ResidueSet(p, to_mask(want))

    def test_from_iterable_rejects_members_outside_int64(self):
        for bad in (2**63, 2**70, -2**63 - 1):
            with pytest.raises(ConfigError, match="int64"):
                ResidueSet.from_iterable(7, [1, bad])
        assert sorted(ResidueSet.from_iterable(7, [2**63 - 1, -2**63])) == [0, 6]


class TestFoldOnce:
    @given(dense_folds() | sparse_folds())
    @example((13, {0, 3, 7, 12}, [5]))     # one generator: a translate
    @example((13, {0, 3, 7, 12}, [0]))     # generator 0: the set itself
    @example((2, {1}, [1]))
    def test_matches_brute_union(self, case):
        """The early-exiting fold equals the set-sum union, whether the union
        covers F_p partway through the generators (dense) or never (sparse);
        a single generator v gives the translate by v."""
        p, prev, gens = case
        got = _fold_once(to_mask(prev), gens, p)
        want = brute_fold(set(gens), prev, p)
        assert got == to_mask(want)
        if len(prev) * len(gens) < p:
            assert len(want) < p
        if len(prev) > p - FOLD_CHECK_EVERY and len(gens) > FOLD_CHECK_EVERY:
            assert len(want) == p

    def test_stops_once_covered(self):
        """Generators past the check that finds F_p covered are never read."""
        p = 101
        prev = to_mask(range(1, p))
        gens = list(range(FOLD_CHECK_EVERY)) + ["unread"]
        assert _fold_once(prev, gens, p) == (1 << p) - 1
        with pytest.raises(TypeError):
            _fold_once(to_mask([0]), gens, p)

    @given(covering_generators(), st.integers(0, 10**6))
    def test_layers_stay_full_and_decompose(self, case, target):
        """Each layer equals the brute j-fold sumset, the layers end at the
        first full one (within 8, as the generators cover by then), and a
        witness still splits any target into 8 generators."""
        p, gens = case
        layers = _sumset_layers(ResidueSet.from_iterable(p, gens), 8)
        g = np.array(gens)
        cur = g
        for layer in layers:
            assert layer == to_mask(cur.tolist())
            cur = np.unique((cur[:, None] + g[None, :]) % p)   # all pair sums
        full = (1 << p) - 1
        assert 1 <= len(layers) <= 8 and layers.index(full) == len(layers) - 1
        picks = _decompose_sum(target, layers, gens, p, 8)
        assert len(picks) == 8 and set(picks) <= set(gens)
        assert sum(picks) % p == target % p

    @given(covering_generators(), st.integers(1, 16), st.integers(0, 10**6))
    @example((7, [0, 1, 2, 3]), 16, 5)     # 14 levels past the last layer
    @example((5, [1, 2]), 2, 0)           # layers end before they cover
    def test_decompose_matches_padded_greedy(self, case, k, raw):
        """On the unpadded layers the witness is the one the greedy picked
        on layers padded to k with the full mask."""
        p, gens = case
        layers = _sumset_layers(ResidueSet.from_iterable(p, gens), k)
        reachable = list(ResidueSet(p, layers[-1]))
        target = reachable[raw % len(reachable)]
        assert _decompose_sum(target, layers, gens, p, k) == padded_greedy(
            target, layers + [(1 << p) - 1] * (k - len(layers)), gens, p)

    def test_layers_never_fold_past_a_full_layer(self, monkeypatch):
        """The layers end at the first full one: nothing is folded past it."""
        calls = []

        def counting_fold(bits, gens, p):
            calls.append(bits)
            return _fold_once(bits, gens, p)

        monkeypatch.setattr(sumsets, "_fold_once", counting_fold)
        base = ResidueSet.from_iterable(7, [0, 1, 2, 3])   # 2G = F_7
        assert _sumset_layers(base, 8) == [0b1111, 0b1111111]
        assert calls == [0b1111]
        cover = k_fold_sumset(base, 16)
        assert (cover.s_min, cover.coverage_sizes) == (2, (4, 7))
        assert len(calls) == 2

    def test_huge_budget_costs_nothing_once_covered(self):
        """A fold budget far past the covering layer adds no layers, so its
        size costs neither time nor memory."""
        base = ResidueSet.from_iterable(7, [0, 1, 2, 3])
        assert len(_sumset_layers(base, 10**7)) == 2
        cover = waring_fib_direct(101, 746, 10**7)
        assert (cover.s_min, cover.coverage_sizes) == (2, (35, 101))


class TestProductSet:
    def test_known(self):
        a = ResidueSet.from_iterable(11, [0, 2, 3])
        b = ResidueSet.from_iterable(11, [1, 5])
        assert sorted(product_set(a, b)) == [0, 2, 3, 4, 10]

    def test_brute_force_agreement(self):
        rng = random.Random(77)
        for _ in range(100):
            p = rng.choice([5, 7, 13, 31, 101])
            a = ResidueSet.from_iterable(p, rng.sample(range(p), rng.randint(1, p)))
            b = ResidueSet.from_iterable(p, rng.sample(range(p), rng.randint(1, p)))
            want = {(x * y) % p for x in a for y in b}
            assert set(product_set(a, b)) == want

    def test_zero_and_empty_factors(self):
        zero = ResidueSet.from_iterable(7, [0])
        empty = ResidueSet(7)
        assert list(product_set(zero, empty)) == []
        assert list(product_set(empty, zero)) == []
        rng = random.Random(78)
        for _ in range(100):
            p = rng.choice([2, 3, 5, 7, 13, 31])
            a = ResidueSet.from_iterable(p, [0] + rng.sample(range(p), rng.randint(0, p)))
            b = ResidueSet.from_iterable(p, rng.sample(range(p), rng.randint(0, p)))
            want = {(x * y) % p for x in a for y in b}
            assert set(product_set(a, b)) == want

    def test_modulus_mismatch(self):
        with pytest.raises(ConfigError):
            product_set(ResidueSet.full(5), ResidueSet.full(7))


class TestKFoldSumset:
    def test_known(self):
        res = k_fold_sumset(ResidueSet.from_iterable(7, [1, 2]), 5)
        assert res.s_min is None
        assert res.coverage_sizes == (2, 3, 4, 5, 6)
        res = k_fold_sumset(ResidueSet.from_iterable(7, [1, 2]), 6)
        assert res.s_min == 6 and res.covered

    def test_sizes_match_brute_force(self):
        """Shift-or folding equals set-comprehension sums, fold by fold."""
        rng = random.Random(1001)
        for _ in range(60):
            p = rng.choice([3, 5, 11, 19, 53])
            elems = rng.sample(range(p), rng.randint(1, min(p, 6)))
            base = set(elems)
            res = k_fold_sumset(ResidueSet.from_iterable(p, elems), 8)
            cur = set(base)
            for i, size in enumerate(res.coverage_sizes):
                assert size == len(cur), (p, sorted(base), i)
                cur = brute_fold(base, cur, p)

    def test_monotone_growth(self):
        rng = random.Random(55)
        for _ in range(50):
            p = rng.choice([11, 29, 97])
            elems = rng.sample(range(p), rng.randint(2, 8))
            res = k_fold_sumset(ResidueSet.from_iterable(p, elems), 10)
            sizes = res.coverage_sizes
            assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_singleton_zero_never_grows(self):
        res = k_fold_sumset(ResidueSet.from_iterable(5, [0]), 4)
        assert res.s_min is None
        assert res.coverage_sizes == (1, 1, 1, 1)

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            k_fold_sumset(ResidueSet(7, 0), 3)

    def test_missing_residue_is_smallest_outside_last_fold(self):
        rng = random.Random(2718)
        seen = set()
        for _ in range(120):
            p = rng.choice([5, 7, 11, 19, 53, 97])
            elems = rng.sample(range(p), rng.randint(1, min(p, 5)))
            res = k_fold_sumset(ResidueSet.from_iterable(p, elems), rng.randint(1, 6))
            last = set(elems)
            for _ in range(len(res.coverage_sizes) - 1):
                last = brute_fold(set(elems), last, p)
            outside = sorted(set(range(p)) - last)
            assert (res.missing_residue is None) == res.covered
            assert res.missing_residue == (outside[0] if outside else None)
            seen.add(res.covered)
        assert seen == {True, False}


class TestFirstIndex:
    @given(st.sampled_from(sieve_primes(3000)), st.integers(1, 200), st.integers(0, 200))
    def test_windows_match_per_index_evaluation(self, p, lo, width):
        """The recurrence-stepped witness maps equal per-index fast doubling."""
        hi = lo + width
        even_fib = _first_index(SequenceSpec.fibonacci_even(lo, hi).residues(p), lo)
        assert list(even_fib.items()) == first_index_oracle(
            lambda n: fib_mod(2 * n, p), lo, hi)
        even_lucas = islice(SequenceSpec.lucas(2, 2 * hi).residues(p), 0, None, 2)
        assert list(_first_index(even_lucas, 1).items()) == first_index_oracle(
            lambda m: lucas_mod(2 * m, p), 1, hi)
        odd_fib = islice(SequenceSpec.fibonacci(1, 2 * hi).residues(p), 0, None, 2)
        assert list(_first_index(odd_fib, 1).items()) == first_index_oracle(
            lambda n: fib_mod(2 * n - 1, p), 1, hi)
        lucas = _first_index(SequenceSpec.lucas(lo, hi).residues(p), lo)
        assert list(lucas.items()) == first_index_oracle(lambda m: lucas_mod(m, p), lo, hi)
        assert sorted(fib_residue_set(p, hi)) == sorted(
            {fib_mod(n, p) for n in range(1, hi + 1)})


class TestGlibichuk:
    def test_always_covers_above_threshold(self):
        """|A||B| > 2p forces the 8-fold sumset of A*B to cover F_p."""
        rng = random.Random(90210)
        for trial in range(300):
            p = rng.choice([q for q in sieve_primes(200) if q > 2])
            while True:
                ka = rng.randint(2, p)
                kb = rng.randint(2, p)
                if ka * kb > 2 * p:
                    break
            a = ResidueSet.from_iterable(p, rng.sample(range(p), ka))
            b = ResidueSet.from_iterable(p, rng.sample(range(p), kb))
            res = glibichuk_check(a, b)
            assert res.precondition_met
            assert res.passed, (p, sorted(a), sorted(b))
            assert res.cover.s_min is not None and res.cover.s_min <= 8

    def test_failing_witness_is_really_missing(self):
        # {0} x {0} can never cover anything but 0
        res = glibichuk_check(ResidueSet.from_iterable(7, [0]),
                              ResidueSet.from_iterable(7, [0]))
        assert not res.passed and not res.precondition_met
        assert res.missing_residue is not None
        # independent check: 8-fold sums of the product set avoid the witness
        prod = {0}
        cur = set(prod)
        for _ in range(7):
            cur = brute_fold(prod, cur, 7)
        assert res.missing_residue not in cur

    def test_witness_brute_force_random(self):
        rng = random.Random(13579)
        found_failure = 0
        for _ in range(200):
            p = rng.choice([11, 13, 17])
            a = ResidueSet.from_iterable(p, rng.sample(range(p), rng.randint(1, 2)))
            b = ResidueSet.from_iterable(p, rng.sample(range(p), rng.randint(1, 2)))
            res = glibichuk_check(a, b)
            prod = {(x * y) % p for x in a for y in b}
            cur = set(prod)
            for _ in range(7):
                cur = brute_fold(prod, cur, p)
            assert res.passed == (len(cur) == p)
            if not res.passed:
                found_failure += 1
                assert res.missing_residue not in cur
        assert found_failure > 0, "sampler never produced a non-covering pair"


class TestWaringFibDirect:
    def test_known(self):
        assert waring_fib_direct(5, 4).s_min == 2
        assert waring_fib_direct(5, 4).coverage_sizes == (3, 5)
        assert waring_fib_direct(2, 3).s_min == 1
        res = waring_fib_direct(3, 1)
        assert res.s_min is None
        assert res.coverage_sizes == (1,) * 16

    def test_fib_residue_set(self):
        assert sorted(fib_residue_set(10, 6)) == [1, 2, 3, 5, 8]
        assert sorted(fib_residue_set(5, 5)) == [0, 1, 2, 3]

    def test_monotone_in_max_index(self):
        """More generators never hurt: s_min is non-increasing in max_index."""
        for p in (101, 211, 499):
            prev = None
            for mi in (3, 6, 12, 24, 48):
                s = waring_fib_direct(p, mi).s_min
                if prev is not None and prev is not None and s is not None:
                    assert prev is None or s <= prev
                prev = s

    def test_small_s_at_survey_scale(self):
        for p in (2503, 3001, 4999):
            res = waring_fib_direct(p, 283)
            assert res.s_min is not None and res.s_min <= 4, (p, res.s_min)


class TestWaringConstructive:
    def test_refuses_thin_windows(self):
        with pytest.raises(ConstructionError, match="2p"):
            waring_constructive(101, 101, 4.0, 1)

    def test_frozen_instance(self):
        rep = waring_constructive(101, 5000, 5.0, 17)
        assert rep.p == 101 and rep.target == 17
        assert rep.f_size == 25 and rep.l_size == 13
        assert len(rep.pairs) == 8
        assert len(rep.fib_indices) == 16
        assert rep.pairs == ((50, 1),) * 7 + ((45, 8),)
        assert rep.fib_indices == (102, 98) * 7 + (106, 74)

    def test_sixteen_fib_sum_identity(self):
        """The emitted indices really sum to the target mod p."""
        rng = random.Random(2048)
        for _ in range(10):
            p = rng.choice([101, 149, 257])
            lam = rng.randrange(p)
            rep = waring_constructive(p, 5000, 5.0, lam)
            total = sum(fib_mod(i, p) for i in rep.fib_indices) % p
            assert total == lam, (p, lam, rep.fib_indices)
            assert all(n >= m for n, m in rep.pairs)
            assert len(rep.fib_indices) == 2 * len(rep.pairs)

    def test_target_reduced_mod_p(self):
        assert waring_constructive(101, 5000, 5.0, 106).target == 5

    def test_exceptional_prime_refused(self):
        # p = 211: the even-index window tops out at 21 distinct residues
        # (short Pisano period), so |F||L| <= 2p no matter how wide N is
        with pytest.raises(ConstructionError):
            waring_constructive(211, 20000, 5.0, 60)


class TestTernaryCount:
    def test_tiny_exact(self):
        x = ResidueSet.from_iterable(11, [1, 2])
        y = ResidueSet.from_iterable(11, [3])
        z = ResidueSet.from_iterable(11, [0, 1])
        rep = ternary_count(x, y, z, 5)
        # brute force: xy in {3, 6}, z1+z2 in {0,1,2}; 3+2=5 once? xy=3: need 2
        # -> (0+... ) wait, z1, z2 ordered over {0,1}: sums 0,1,1,2
        want = sum(1 for xv in (1, 2) for z1 in (0, 1) for z2 in (0, 1)
                   if (xv * 3 + z1 + z2) % 11 == 5)
        assert rep.count == want

    def test_full_sets_uniform(self):
        for p in (3, 7, 13):
            full = ResidueSet.full(p)
            for lam in range(p):
                rep = ternary_count(full, full, full, lam)
                assert rep.count == p**3

    def test_brute_force_random(self):
        rng = random.Random(33033)
        for _ in range(40):
            p = rng.choice([3, 5, 7, 11, 13])
            x = ResidueSet.from_iterable(p, rng.sample(range(p), rng.randint(1, p)))
            y = ResidueSet.from_iterable(p, rng.sample(range(p), rng.randint(1, p)))
            z = ResidueSet.from_iterable(p, rng.sample(range(p), rng.randint(1, p)))
            lam = rng.randrange(p)
            rep = ternary_count(x, y, z, lam)
            want = sum(1 for a in x for b in y for c in z for d in z
                       if (a * b + c + d) % p == lam)
            assert rep.count == want
            assert abs(rep.count - rep.main) <= rep.bound + 1e-9

    def test_guard(self, monkeypatch):
        monkeypatch.setattr(sumsets, "TUPLE_GUARD", 10**6)
        full = ResidueSet.full(101)
        with pytest.raises(GuardError):
            ternary_count(full, full, full, 0)


class TestWaringEpsParams:
    def test_frozen_values(self):
        assert (waring_eps_params("0.5").k, waring_eps_params("0.5").s) == (15, 60)
        assert (waring_eps_params("0.4").k, waring_eps_params("0.4").s) == (19, 76)
        assert (waring_eps_params("0.1").k, waring_eps_params("0.1").s) == (79, 316)

    def test_grid_identities(self):
        """s = 4([8/eps] - 1) and s*eps < 100 across the whole working range."""
        for i in range(1, 51):
            eps = Fraction(i, 100)
            par = waring_eps_params(eps)
            assert par.k == 8 * 100 // i - 1 if (Fraction(8) / eps).denominator == 1 else True
            assert par.k == math.floor(Fraction(8) / eps) - 1
            assert par.s == 4 * par.k
            assert par.s * eps < 100
            assert par.s >= 4

    def test_rejects_out_of_range(self):
        for bad in ("0", "-0.1", "0.51", "0.9"):
            with pytest.raises(ConfigError):
                waring_eps_params(bad)


class TestIpowFloor:
    def test_exact_values(self):
        assert ipow_floor(8, Fraction(1, 3)) == 2
        assert ipow_floor(7, Fraction(1, 3)) == 1
        assert ipow_floor(10**4, Fraction(3, 10)) == 15
        assert ipow_floor(2000, Fraction(3, 10)) == 9
        assert ipow_floor(5, Fraction(2)) == 25

    def test_definition_random(self):
        rng = random.Random(404)
        for _ in range(300):
            n = rng.randint(1, 10**12)
            e = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            r = ipow_floor(n, e)
            assert r**e.denominator <= n**e.numerator
            assert (r + 1) ** e.denominator > n**e.numerator


def brute_eps_z(p, nmax, k):
    """Z = the k-fold sumset of {F_{2l} mod p : l <= N^(1/(k+2))}, by set sums."""
    b_cap = 1
    while (b_cap + 1) ** (k + 2) <= nmax:
        b_cap += 1
    base = {fib_mod(2 * l, p) for l in range(1, b_cap + 1)}
    z = set(base)
    for _ in range(k - 1):
        z = brute_fold(base, z, p)
    return z


class TestWaringEpsVerify:
    @given(st.sampled_from(sieve_primes(300)),
           st.sampled_from([(3**17, "0.5"), (10**9, "0.5"), (2**40, "0.5"),
                            (10**12, "0.4")]),
           st.integers(0, 10**6))
    def test_witness_is_least_z1(self, p, case, lam):
        """z1 is the least z in Z with rest - z in Z, and z2 = rest - z1,
        where rest = lam - x*y for the x and y = L_m of the representation."""
        nmax, eps = case
        assume(p <= nmax)
        try:
            rep = waring_eps_verify(p, nmax, eps, lam)
        except ConstructionError:
            assume(False)
        z = brute_eps_z(p, nmax, rep.params.k)
        assert len(z) == rep.set_sizes[2]
        x = sum(fib_mod(2 * n - 1, p) for n in rep.n_tuple)
        rest = (lam - x * lucas_mod(rep.m, p)) % p
        z1 = sum(fib_mod(2 * l, p) for l in rep.z1_tuple) % p
        z2 = sum(fib_mod(2 * l, p) for l in rep.z2_tuple) % p
        assert z1 == min(v for v in z if (rest - v) % p in z)
        assert z2 == (rest - z1) % p

    def test_precondition_failure_small_n(self):
        with pytest.raises(ConstructionError):
            waring_eps_verify(97, 10**6, "0.5", 11)

    def test_frozen_instance(self):
        rep = waring_eps_verify(97, 3**17, "0.5", 11)
        assert rep.params.k == 15 and rep.params.s == 60
        assert rep.set_sizes == (58, 80, 90)
        assert len(rep.fib_indices) == 60
        total = sum(fib_mod(i, 97) for i in rep.fib_indices) % 97
        assert total == 11

    def test_index_bound_and_identity(self):
        """Indices stay below N^eps and the sum really hits the target."""
        rng = random.Random(60)
        for lam in rng.sample(range(97), 5):
            rep = waring_eps_verify(97, 3**17, "0.5", lam)
            assert sum(fib_mod(i, 97) for i in rep.fib_indices) % 97 == lam
            e = rep.params.eps
            top = max(rep.fib_indices)
            assert top**e.denominator <= rep.nmax**e.numerator
