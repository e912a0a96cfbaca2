"""Sequence specs, residue multisets, collision counts, and value-set surveys."""

import math
import operator
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sparsemod import (
    CollisionStats,
    ConfigError,
    GuardError,
    JTotal,
    ResidueMultiset,
    SequenceSpec,
    collision_stats,
    digit_magnitude,
    j_total,
    j_total_pairscan,
    sieve_primes,
    value_set_survey,
)
import sparsemod.valueset as valueset
import sparsemod.numtheory as numtheory
from sparsemod.numtheory import INDEX_CAP, MODULUS_CAP, PRODUCT_GUARD, is_prime
from sparsemod.valueset import FAMILIES, block_stats, fib_residue_array

# The largest modulus the int64 stepper accepts that is prime.
TOP_PRIME = next(q for q in range(PRODUCT_GUARD, 0, -1) if is_prime(q))

# Block lengths around the stepper's B = ceil(sqrt(length)) boundaries.
block_lengths = st.sampled_from((1, 2)) | st.builds(
    lambda r, d: r * r + d, st.integers(1, 60), st.sampled_from((-1, 0, 1))
).filter(lambda n: n >= 1)


@st.composite
def sequence_specs(draw):
    """A block of any family: indices near 1 or near INDEX_CAP (near
    INDEX_CAP / 2 for the even-index family, whose seed index is 2 lo),
    power bases past 2^32, explicit values past 2^64."""
    family = draw(st.sampled_from(FAMILIES))
    length = draw(st.integers(1, 40))
    if family == "explicit":
        values = draw(st.sets(st.integers(1, 50) | st.integers(1, 2**80),
                              min_size=length, max_size=length))
        return SequenceSpec.explicit(sorted(values))
    top = INDEX_CAP // 2 if family == "fibonacci-even" else INDEX_CAP
    lo = draw(st.integers(1, 10**6) | st.integers(top - 100, top - length + 1))
    base = draw(st.integers(2, 2**70)) if family == "power" else None
    return SequenceSpec(family, lo, lo + length - 1, base=base)


def brute_residues(values, p):
    counts = {}
    for v in values:
        r = v % p
        counts[r] = counts.get(r, 0) + 1
    return counts


class TestSequenceSpec:
    def test_family_lengths(self):
        assert len(SequenceSpec.fibonacci(1, 40)) == 40
        assert len(SequenceSpec.lucas(3, 7)) == 5
        assert len(SequenceSpec.fibonacci_even(2, 10)) == 9
        assert len(SequenceSpec.power(2, 1, 10)) == 10
        assert len(SequenceSpec.explicit((1, 8, 15))) == 3

    def test_exact_values_known(self):
        assert SequenceSpec.fibonacci(1, 10).exact_values() == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        assert SequenceSpec.lucas(1, 10).exact_values() == [1, 3, 4, 7, 11, 18, 29, 47, 76, 123]
        assert SequenceSpec.fibonacci_even(1, 5).exact_values() == [1, 3, 8, 21, 55]
        assert SequenceSpec.power(3, 1, 5).exact_values() == [3, 9, 27, 81, 243]

    def test_residues_match_exact_values(self):
        """The incremental residue generators agree with big-int reduction."""
        specs = [
            SequenceSpec.fibonacci(5, 60),
            SequenceSpec.lucas(2, 50),
            SequenceSpec.fibonacci_even(3, 40),
            SequenceSpec.power(7, 1, 30),
            SequenceSpec.explicit((4, 9, 1000, 10**12)),
        ]
        for spec in specs:
            vals = spec.exact_values()
            for p in (2, 3, 5, 97, 1009):
                assert list(spec.residues(p)) == [v % p for v in vals], (spec.label(), p)

    @given(st.sampled_from((2, 3, 5)) | st.integers(2, PRODUCT_GUARD),
           st.integers(1, 10**15), block_lengths)
    @example(TOP_PRIME, 10**9, 5)             # a short block at the guard
    @example(TOP_PRIME, 1, 48 * 48)           # F_47 + F_46 > p: a sum must be reduced
    @example(2, 1, 3)
    def test_fib_residue_array_matches_residues(self, p, lo, length):
        """The block-jump stepper against the per-term generator."""
        hi = lo + length - 1
        got = fib_residue_array(lo, hi, p)
        assert got.dtype == np.int64 and len(got) == length
        assert got.tolist() == list(SequenceSpec.fibonacci(lo, hi).residues(p))

    def test_fib_residue_array_validation(self):
        with pytest.raises(GuardError):
            fib_residue_array(1, 10, PRODUCT_GUARD + 1)
        for lo, hi, p in ((0, 5, 7), (6, 5, 7), (1, 5, 1)):
            with pytest.raises(ConfigError):
                fib_residue_array(lo, hi, p)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SequenceSpec.fibonacci(0, 10)     # indices start at 1
        with pytest.raises(ConfigError):
            SequenceSpec.fibonacci(10, 9)
        with pytest.raises(ConfigError):
            SequenceSpec.power(1, 1, 5)       # base must be >= 2
        with pytest.raises(ConfigError):
            SequenceSpec.explicit(())
        with pytest.raises(ConfigError):
            SequenceSpec.explicit((3, 3))     # duplicates rejected
        with pytest.raises(ConfigError):
            SequenceSpec.explicit((5, 2))     # must increase
        with pytest.raises(ConfigError):
            SequenceSpec.fibonacci_even(INDEX_CAP // 2, INDEX_CAP // 2 + 1)   # 2n > 2^62
        assert len(SequenceSpec.fibonacci_even(INDEX_CAP // 2 - 1, INDEX_CAP // 2)) == 2

    def test_explicit_takes_a_one_shot_iterable(self):
        spec = SequenceSpec.explicit(v for v in (1, 8, 15))
        assert spec == SequenceSpec.explicit((1, 8, 15))
        assert spec.values == (1, 8, 15) and len(spec) == 3

    @pytest.mark.parametrize("family", FAMILIES)
    def test_size_guard_at_construction(self, family):
        """Every family refuses a block of SIZE_GUARD + 1 terms when the spec
        is built, and builds one of exactly SIZE_GUARD terms."""
        def spec(length):
            if family == "explicit":
                return SequenceSpec.explicit(range(1, length + 1))
            base = 3 if family == "power" else None
            return SequenceSpec(family, 5, 4 + length, base=base)

        assert len(spec(valueset.SIZE_GUARD)) == valueset.SIZE_GUARD == 100_000
        with pytest.raises(GuardError, match="block of 100001 terms exceeds the guard 100000"):
            spec(valueset.SIZE_GUARD + 1)

    def test_labels_distinct(self):
        labels = {
            SequenceSpec.fibonacci(1, 9).label(),
            SequenceSpec.lucas(1, 9).label(),
            SequenceSpec.fibonacci_even(1, 9).label(),
            SequenceSpec.power(2, 1, 9).label(),
            SequenceSpec.explicit((1, 2)).label(),
        }
        assert len(labels) == 5


class TestResidueMultiset:
    def test_fib_mod5(self):
        ms = ResidueMultiset.from_spec(SequenceSpec.fibonacci(1, 4), 5)
        assert (ms.support.tolist(), ms.counts.tolist()) == ([1, 2, 3], [2, 1, 1])
        st = collision_stats(ms)
        assert st == CollisionStats(size=4, collisions=6, distinct=3)

    def test_support_keeps_first_occurrence_order(self):
        """F_1..F_10 mod 7 = 1 1 2 3 5 1 6 0 6 6: the support runs in the
        order residues first appear, not sorted, as int64 arrays."""
        ms = ResidueMultiset.from_spec(SequenceSpec.fibonacci(1, 10), 7)
        assert ms.support.dtype == ms.counts.dtype == np.int64
        assert ms.support.tolist() == [1, 2, 3, 5, 6, 0]
        assert ms.counts.tolist() == [3, 1, 1, 1, 3, 1]
        ms = ResidueMultiset.from_counts(11, Counter([9, 4, 9, 0]))
        assert (ms.support.tolist(), ms.counts.tolist(), ms.total) == ([9, 4, 0], [2, 1, 1], 4)

    def test_explicit_mod7(self):
        ms = ResidueMultiset.from_spec(SequenceSpec.explicit((1, 8, 15)), 7)
        st = collision_stats(ms)
        assert st.collisions == 9 and st.distinct == 1

    def test_all_distinct_multiplicity_one(self):
        ms = ResidueMultiset.from_counts(101, {3: 1, 7: 1, 50: 1})
        st = collision_stats(ms)
        assert st.collisions == st.size == st.distinct == 3

    def test_invariants_random(self):
        """Mass conservation, J_p >= size, and Cauchy-Schwarz on every draw."""
        rng = random.Random(98765)
        primes = [p for p in sieve_primes(500) if p > 3]
        for _ in range(300):
            p = rng.choice(primes)
            lo = rng.randint(1, 50)
            hi = lo + rng.randint(0, 60)
            family = rng.choice(["fib", "lucas", "even", "pow"])
            if family == "fib":
                spec = SequenceSpec.fibonacci(lo, hi)
            elif family == "lucas":
                spec = SequenceSpec.lucas(lo, hi)
            elif family == "even":
                spec = SequenceSpec.fibonacci_even(lo, hi)
            else:
                spec = SequenceSpec.power(rng.randint(2, 10), lo, hi)
            ms = ResidueMultiset.from_spec(spec, p)
            st = collision_stats(ms)
            assert sum(ms.counts.tolist()) == st.size == len(spec)
            assert st.collisions >= st.size
            assert (st.collisions == st.size) == (st.distinct == st.size)
            assert st.distinct * st.collisions >= st.size**2

    def test_from_spec_size_guard(self):
        """A block longer than SIZE_GUARD is refused before any term is
        stepped (stepping 10^12 terms would not finish)."""
        assert valueset.SIZE_GUARD == 100_000
        with pytest.raises(GuardError, match="block of 1000000000000 terms"):
            ResidueMultiset.from_spec(SequenceSpec.fibonacci(1, 10**12), 7)
        with mock.patch.object(valueset, "SIZE_GUARD", 5):
            assert ResidueMultiset.from_spec(SequenceSpec.lucas(3, 7), 7).total == 5
            with pytest.raises(GuardError):
                ResidueMultiset.from_spec(SequenceSpec.lucas(3, 8), 7)

    def test_from_counts_validation(self):
        with pytest.raises(ConfigError):
            ResidueMultiset.from_counts(7, {9: 1})   # residue out of range
        with pytest.raises(ConfigError):
            ResidueMultiset.from_counts(7, {2: 0})   # dead entry
        with pytest.raises(ConfigError, match="empty multiset"):
            ResidueMultiset.from_counts(7, {})

    def test_modulus_cap(self):
        """Residues are int64, so a modulus above MODULUS_CAP = 2^62 is
        refused; the explicit and power families would otherwise take any p."""
        big = MODULUS_CAP + 1
        for spec in (SequenceSpec.explicit((2**63 + 5, 2**64)), SequenceSpec.power(3, 40, 45)):
            with pytest.raises(ConfigError, match="outside"):
                ResidueMultiset.from_spec(spec, big)
            ms = ResidueMultiset.from_spec(spec, MODULUS_CAP)
            assert ms.support.tolist() == [v % MODULUS_CAP for v in spec.exact_values()]
        with pytest.raises(ConfigError, match="outside"):
            ResidueMultiset.from_counts(big, {2**62: 1})
        with pytest.raises(ConfigError, match="outside"):
            ResidueMultiset.from_counts(1, {0: 1})


class TestJTotal:
    def test_explicit_123(self):
        jt = j_total(SequenceSpec.explicit((1, 2, 3)), 5)
        assert jt.total == 11
        assert dict(jt.per_prime) == {2: 5, 3: 3, 5: 3}
        assert jt.main_term == 9
        assert jt.residual == 2

    def test_single_element_diagonal(self):
        for nmax in (5, 100, 1000):
            jt = j_total(SequenceSpec.explicit((7,)), nmax)
            assert jt.total == len(sieve_primes(nmax))
            assert jt.residual == 0

    def test_pairscan_known(self):
        assert j_total_pairscan([1, 2, 3], 5) == 11
        # 10^6 = 2^6 * 5^6, so the pair adds 2*2 beyond the 2*pi(100) diagonal
        assert j_total_pairscan([1, 10**6 + 1], 100) == 2 * 25 + 4
        assert j_total_pairscan([12345], 1000) == len(sieve_primes(1000))

    @given(st.lists(st.integers(1, 10**6) | st.integers(1, 2**70), min_size=1, max_size=8),
           st.integers(0, 3000))
    @example([1, 1 + 2 * 2969 * 2999], 3000)   # one factor is left above sqrt(g)
    @example([5, 5, 7], 100)
    def test_pairscan_counts_prime_divisors(self, vals, nmax):
        """The gcd with the primorial, factored by trial division, against
        testing every prime p <= N on every difference."""
        primes = sieve_primes(nmax)
        want = len(primes) * len(vals) + 2 * sum(
            sum(1 for p in primes if (x - y) % p == 0)
            for i, x in enumerate(vals) for y in vals[i + 1 :])
        assert j_total_pairscan(vals, nmax) == want

    def test_oracle_equivalence_random(self):
        """Per-prime loop equals the difference-factoring scan on explicit specs."""
        rng = random.Random(424242)
        for _ in range(25):
            n_vals = rng.randint(1, 12)
            vals = sorted(rng.sample(range(1, 10**9), n_vals))
            nmax = rng.choice([10, 50, 200, 1000])
            jt = j_total(SequenceSpec.explicit(tuple(vals)), nmax)
            assert jt.total == j_total_pairscan(vals, nmax), (vals, nmax)

    def test_oracle_equivalence_fibonacci(self):
        spec = SequenceSpec.fibonacci(1, 30)
        jt = j_total(spec, 2000)
        assert jt.total == j_total_pairscan(spec.exact_values(), 2000)
        assert jt.residual >= 0

    def test_duplicate_value_counts_every_prime(self):
        # F_1 = F_2 = 1: the repeated value collides mod every prime
        jt = j_total(SequenceSpec.fibonacci(1, 2), 100)
        pi = len(sieve_primes(100))
        assert jt.total == 4 * pi
        assert jt.total == j_total_pairscan([1, 1], 100)


class TestBlockStats:
    @given(sequence_specs(), st.sets(st.sampled_from(sieve_primes(2000)), max_size=30),
           st.booleans())
    @example(SequenceSpec.explicit((1, 2**64 + 1, 2**64 + 7, 3 * 2**64 + 5, 2**200)), set(), True)
    @example(SequenceSpec.power(2**32 + 15, 1, 30), set(), True)
    @example(SequenceSpec.fibonacci(INDEX_CAP - 9, INDEX_CAP), {7, 11}, True)
    @example(SequenceSpec.lucas(INDEX_CAP - 9, INDEX_CAP), {7, 11}, True)
    @example(SequenceSpec.fibonacci_even(INDEX_CAP // 2 - 9, INDEX_CAP // 2), {7, 11}, True)
    @example(SequenceSpec.power(3, INDEX_CAP - 9, INDEX_CAP), {7, 11}, True)
    def test_matches_multisets(self, spec, extra, at_guard):
        """The sweep against ResidueMultiset.from_spec prime by prime, in
        one chunk and in chunks of one or a few primes."""
        primes = sorted({2, 3, 5} | extra | ({TOP_PRIME} if at_guard else set()))
        stats = [collision_stats(ResidueMultiset.from_spec(spec, p)) for p in primes]
        want = ([s.collisions for s in stats], [s.distinct for s in stats])
        assert block_stats(spec, primes) == want
        with mock.patch.object(valueset, "SWEEP_ENTRIES", 7):
            assert block_stats(spec, primes) == want

    def test_even_index_seed_is_checked_like_the_scalar_path(self):
        """F_{2n} past F_{2^62} is refused when the spec is built, before
        residues or block_stats could seed it."""
        with pytest.raises(ConfigError, match="above 2\\^62"):
            SequenceSpec.fibonacci_even(INDEX_CAP // 2 + 1, INDEX_CAP // 2 + 3)

    def test_guard(self):
        with pytest.raises(GuardError):
            block_stats(SequenceSpec.fibonacci(1, 5), [2, PRODUCT_GUARD + 2])

    def test_oversized_block_is_refused_before_the_sweep(self, monkeypatch):
        """A block longer than SIZE_GUARD is refused before its matrix is
        allocated: 10^12 terms would ask for terabytes."""
        def no_rows(*args):
            raise AssertionError("a block was reduced")

        monkeypatch.setattr(valueset, "_block_rows", no_rows)
        with pytest.raises(GuardError, match="block of 1000000000000 terms"):
            block_stats(SequenceSpec.fibonacci(1, 10**12), [7, 11])
        with pytest.raises(GuardError, match="block of 1000000000000 terms"):
            value_set_survey(SequenceSpec.fibonacci(1, 10**12), 100, 10.0)
        monkeypatch.setattr(valueset, "SIZE_GUARD", 5)
        with pytest.raises(GuardError, match="block of 6 terms"):
            block_stats(SequenceSpec.explicit((1, 2, 3, 4, 5, 6)), [7])

    def test_no_primes(self):
        spec = SequenceSpec.fibonacci(1, 60)
        assert block_stats(spec, []) == ([], [])
        assert j_total(spec, 1) == JTotal(total=0, main_term=0, residual=0, per_prime=())
        with pytest.raises(ConfigError):
            value_set_survey(spec, 1, 10.0)


def brute_pair_counts(x, y, p, op, wx, wy):
    """The pair-count table from a Counter over every pair."""
    py_op = {np.add: operator.add, np.multiply: operator.mul}[op]
    tally = Counter()
    for a, u in zip(x, wx):
        for b, v in zip(y, wy):
            tally[py_op(a, b) % p] += u * v
    return [tally[s] for s in range(p)]


weighted_values = st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 1000)), max_size=40)


class TestPairCounts:
    @given(st.sampled_from(sieve_primes(60)), weighted_values, weighted_values,
           st.sampled_from((np.add, np.multiply)), st.booleans(),
           st.sampled_from((1, 7, numtheory.SWEEP_ENTRIES)))
    @example(7, [], [(3, 1)], np.add, False, 1)
    @example(7, [(3, 1)], [], np.multiply, True, 1)
    @example(2, [], [], np.add, True, 1)
    # 9 (2^26 + 1)^2 > 2^53 is odd, so a float64 tally would round it
    @example(5, [(0, 2**26 + 1)] * 3, [(5, 2**26 + 1)] * 3, np.add, True, 1)
    def test_matches_counter(self, p, xs, ys, op, weighted, sweep):
        """Against a Counter over all pairs, in one block and, with
        numtheory.SWEEP_ENTRIES patched below p, in blocks of about p pairs."""
        x = np.array([v for v, _ in xs], dtype=np.int64)
        y = np.array([v for v, _ in ys], dtype=np.int64)
        wx = [w if weighted else 1 for _, w in xs]
        wy = [w if weighted else 1 for _, w in ys]
        weights = (np.array(wx, dtype=np.int64), np.array(wy, dtype=np.int64)) if weighted else None
        with mock.patch.object(numtheory, "SWEEP_ENTRIES", sweep):
            got = valueset._pair_counts(x, y, p, op, weights)
        assert got.dtype == np.int64
        assert got.tolist() == brute_pair_counts(x.tolist(), y.tolist(), p, op, wx, wy)

    def test_rows_longer_than_a_block(self):
        """|y| > SWEEP_ENTRIES > p: each block is a single row of x."""
        rng = random.Random(2024)
        p = 101
        x = [rng.randrange(p) for _ in range(3)]
        y = [rng.randrange(10**6) for _ in range(numtheory.SWEEP_ENTRIES + 5)]
        wx = [rng.randint(1, 9) for _ in x]
        wy = [rng.randint(1, 9) for _ in y]
        arrays = [np.array(v, dtype=np.int64) for v in (x, y, wx, wy)]
        for op in (np.add, np.multiply):
            got = valueset._pair_counts(arrays[0], arrays[1], p, op)
            assert got.tolist() == brute_pair_counts(x, y, p, op, [1] * 3, [1] * len(y))
            got = valueset._pair_counts(arrays[0], arrays[1], p, op, (arrays[2], arrays[3]))
            assert got.tolist() == brute_pair_counts(x, y, p, op, wx, wy)

    def test_blocks_equal_one_block(self, in_blocks):
        """30 x 40 pairs mod 101: one block under the default rule, and 15
        blocks of 2 rows (80 <= p pairs) with SWEEP_ENTRIES at 1."""
        rng = np.random.default_rng(7)
        x, y = rng.integers(0, 10**6, 30), rng.integers(0, 10**6, 40)
        weights = (rng.integers(1, 9, 30), rng.integers(1, 9, 40))
        whole, split, blocks = in_blocks(valueset, valueset._pair_counts,
                                         x, y, 101, np.add, weights)
        assert blocks == [1, 15]
        assert split.tolist() == whole.tolist()
        assert whole.sum() == weights[0].sum() * weights[1].sum()


class TestDigitMagnitude:
    def test_known(self):
        assert digit_magnitude([1, 2, 3]) == 1
        assert digit_magnitude([354224848179261915075]) == 21
        assert digit_magnitude([10**5]) == 5
        assert digit_magnitude([10**5 + 1]) == 6
        assert digit_magnitude([1]) == 0
        assert digit_magnitude([10]) == 1
        assert digit_magnitude([11]) == 2

    def test_containment_is_tight(self):
        rng = random.Random(5)
        for _ in range(200):
            v = rng.randint(1, 10**30)
            m = digit_magnitude([v])
            assert v <= 10**m
            assert m == 0 or v > 10 ** (m - 1)

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigError):
            digit_magnitude([])
        with pytest.raises(ConfigError):
            digit_magnitude([0, 3])


class TestValueSetSurvey:
    def test_explicit_deviation(self):
        sv = value_set_survey(SequenceSpec.explicit((1, 8, 15)), 7, 10.0)
        row = next(r for r in sv.rows if r.p == 7)
        assert row.size == 3 and row.distinct == 1
        assert math.isclose(row.deviation, 2 / 3)

    def test_brute_force_cross_check(self):
        """fib 1..10, N = 10^3: every row against direct big-int reduction."""
        spec = SequenceSpec.fibonacci(1, 10)
        vals = spec.exact_values()
        sv = value_set_survey(spec, 1000, 10.0)
        assert len(sv.rows) == 168
        hits = 0
        for row in sv.rows:
            counts = brute_residues(vals, row.p)
            assert row.size == 10
            assert row.distinct == len(counts), row.p
            if (row.size - row.distinct) * 10 <= row.size:
                hits += 1
        assert sv.fraction == hits / 168

    def test_boundary_tie_counts_as_within(self):
        # size 10, distinct 9 -> deviation exactly 1/10
        spec = SequenceSpec.fibonacci(1, 10)
        sv = value_set_survey(spec, 1000, 10.0)
        tie_rows = [r for r in sv.rows if r.size - r.distinct == 1]
        assert tie_rows, "expected at least one single-collision prime"
        inside = sum(1 for r in sv.rows if (r.size - r.distinct) * 10 <= r.size)
        assert sv.fraction * len(sv.rows) == pytest.approx(inside)

    def test_rejects_bad_delta(self):
        with pytest.raises(ConfigError):
            value_set_survey(SequenceSpec.fibonacci(1, 5), 100, 0.0)
