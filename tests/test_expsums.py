"""Exponential sum norms: L1, Parseval, additive energy, Littlewood ratios."""

import cmath
import dataclasses
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import sparsemod.expsums as expsums
from sparsemod import (
    ConfigError,
    GuardError,
    InvariantError,
    ResidueMultiset,
    SequenceSpec,
    additive_energy_direct,
    collision_stats,
    l1_full_scan,
    littlewood_fib,
    littlewood_pow,
    norm_report,
    sieve_primes,
)
from sparsemod.valueset import SIZE_GUARD


def brute_norms(ms):
    """L1 and L2^2 of S(a) = sum_r c_r e(ar/p) straight from the definition."""
    p = ms.p
    l1 = l2 = 0.0
    for a in range(p):
        s = sum(c * cmath.exp(2j * cmath.pi * a * r / p)
                for r, c in zip(ms.support.tolist(), ms.counts.tolist()))
        l1 += abs(s)
        l2 += abs(s) ** 2
    return l1 / p, l2 / p


def brute_energy(ms):
    p = ms.p
    counts = dict(zip(ms.support.tolist(), ms.counts.tolist()))
    total = 0
    for r1, c1 in counts.items():
        for r2, c2 in counts.items():
            for r3, c3 in counts.items():
                r4 = (r1 + r2 - r3) % p
                total += c1 * c2 * c3 * counts.get(r4, 0)
    return total


@st.composite
def small_multisets(draw, max_support=20):
    """Random count maps over Z/pZ for a prime p below 400."""
    p = draw(st.sampled_from(sieve_primes(400)))
    support = draw(st.sets(st.integers(0, p - 1), min_size=1,
                           max_size=min(p, max_support)))
    return ResidueMultiset.from_counts(
        p, {r: draw(st.integers(1, 6)) for r in sorted(support)})


class TestNormReport:
    def test_point_masses(self):
        rep = norm_report(ResidueMultiset.from_counts(7, {1: 3}))
        assert rep.l1 == pytest.approx(3.0)
        assert rep.l2sq == 9 and isinstance(rep.l2sq, int)
        assert rep.energy == 81
        rep = norm_report(ResidueMultiset.from_counts(11, {4: 1}))
        assert rep.l1 == pytest.approx(1.0)
        assert rep.energy == 1

    def test_matches_direct_dft(self):
        rng = random.Random(314159)
        for _ in range(40):
            p = rng.choice([q for q in sieve_primes(200) if q > 2])
            support = rng.sample(range(p), rng.randint(1, min(p, 12)))
            ms = ResidueMultiset.from_counts(
                p, {r: rng.randint(1, 4) for r in support})
            rep = norm_report(ms)
            l1, l2 = brute_norms(ms)
            assert rep.l1 == pytest.approx(l1, rel=1e-9)
            assert rep.l2sq == pytest.approx(l2, rel=1e-9)

    def test_parseval_is_collision_count(self):
        """(1/p) sum |S|^2 equals J_p exactly, by orthogonality."""
        rng = random.Random(2718)
        for _ in range(60):
            p = rng.choice([q for q in sieve_primes(1000) if q > 2])
            spec = SequenceSpec.fibonacci(rng.randint(1, 30),
                                          rng.randint(31, 80))
            ms = ResidueMultiset.from_spec(spec, p)
            rep = norm_report(ms)
            st = collision_stats(ms)
            assert rep.l2sq == st.collisions

    def test_energy_against_convolution_and_brute(self):
        rng = random.Random(1618)
        for _ in range(30):
            p = rng.choice([11, 13, 17, 31, 101])
            support = rng.sample(range(p), rng.randint(1, min(p, 8)))
            ms = ResidueMultiset.from_counts(
                p, {r: rng.randint(1, 3) for r in support})
            rep = norm_report(ms)
            direct = additive_energy_direct(ms)
            assert rep.energy == direct == brute_energy(ms)

    def test_full_scan_equals_mirrored_path(self):
        rng = random.Random(55555)
        for _ in range(25):
            p = rng.choice([q for q in sieve_primes(500) if q > 2])
            support = rng.sample(range(p), rng.randint(1, min(p - 1, 20)))
            ms = ResidueMultiset.from_counts(
                p, {r: rng.randint(1, 5) for r in support})
            rep = norm_report(ms)
            assert l1_full_scan(ms) == pytest.approx(rep.l1, rel=1e-12)

    def test_chain_inequalities(self):
        rng = random.Random(808)
        for _ in range(50):
            p = rng.choice([q for q in sieve_primes(2000) if q > 3])
            support = rng.sample(range(p), rng.randint(1, min(p - 1, 25)))
            ms = ResidueMultiset.from_counts(
                p, {r: rng.randint(1, 6) for r in support})
            r = norm_report(ms)    # raises InvariantError on any violation
            e = expsums._l1_error(ms)
            assert (r.l1 - e) ** 2 <= r.l2sq
            assert r.l2sq**2 <= r.energy
            assert r.l1 + e >= r.karatsuba_lb

    @given(small_multisets())
    @example(ResidueMultiset.from_counts(2, {0: 1}))
    @example(ResidueMultiset.from_counts(2, {1: 3}))
    @example(ResidueMultiset.from_counts(2, {0: 2, 1: 5}))
    @example(ResidueMultiset.from_counts(3, {2: 1}))
    @example(ResidueMultiset.from_counts(3, {0: 4, 1: 1, 2: 2}))
    @example(ResidueMultiset.from_counts(4, {2: 1}))
    @example(ResidueMultiset.from_counts(4, {0: 1, 1: 2, 3: 5}))
    @example(ResidueMultiset.from_counts(101, {r: 1 + r % 3 for r in range(0, 101, 3)}))
    @example(ResidueMultiset.from_spec(SequenceSpec.power(5, 1, 12), 999_983))
    @example(ResidueMultiset.from_counts(1009, {r: 1 for r in range(1009)}))
    def test_geometric_l1_against_full_scan(self, ms):
        """Both L1s lie within E of the true value, so within 2E of each
        other; a full support meets the lower bound L1 >= 1 with equality."""
        l1, full = norm_report(ms).l1, l1_full_scan(ms)
        assert l1 == pytest.approx(full, rel=1e-12)
        assert abs(l1 - full) <= 2 * expsums._l1_error(ms)

    def test_chain_checks_bracket_l1_by_its_error_bound(self, monkeypatch):
        """A point mass meets both L1 checks with equality (L1 = 3,
        L2sq = 9, T = 81): L1 off by 2E or by 10^-9 relative fails the
        matching check, off by E/4 it passes, and an energy planted below
        L2sq^2 fails the exact integer check."""
        ms = ResidueMultiset.from_counts(7, {1: 3})
        e = expsums._l1_error(ms)
        assert expsums._l1_geometric(ms) == 3.0
        for shift, failing in ((2 * e, "L1^2 <= L2sq"), (3e-9, "L1^2 <= L2sq"),
                               (-2 * e, "L1 >= (L2sq^3/T)^(1/2)")):
            monkeypatch.setattr(expsums, "_l1_geometric", lambda ms, s=shift: 3.0 + s)
            with pytest.raises(InvariantError, match=re.escape(f"inequality {failing} failed")):
                norm_report(ms)
        for shift in (e / 4, -e / 4):
            monkeypatch.setattr(expsums, "_l1_geometric", lambda ms, s=shift: 3.0 + s)
            assert norm_report(ms).l1 == 3.0 + shift
        monkeypatch.undo()
        real = expsums._pair_counts
        monkeypatch.setattr(expsums, "_pair_counts", lambda *a: real(*a) - (real(*a) > 0))
        with pytest.raises(InvariantError, match=re.escape("L2sq^2 <= T failed at p=7")):
            norm_report(ms)

    def test_half_moduli_near_the_guard(self):
        """At p ~ 10^6 the products a0 r reach 10^11: unreduced, the phase
        angles would be off by about 10^-10 rad at the top of the range."""
        p = 999_983
        ms = ResidueMultiset.from_spec(SequenceSpec.power(5, 1, 12), p)
        a = np.arange(p // 2 - 2000, p // 2 + 1, dtype=np.int64)
        want = np.abs(np.exp(2j * np.pi / p * (np.outer(a, ms.support) % p)) @ ms.counts)
        got = expsums._half_moduli(ms)[a - 1]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert norm_report(ms).l1 == pytest.approx(l1_full_scan(ms), rel=1e-12)

    def test_geometric_l1_in_support_slices(self, in_blocks):
        """200 residues mod 1009 (22 giant and 23 baby phases each): one
        slice under the default rule, and slices of 22 residues, 990 <= p
        phases, with SWEEP_ENTRIES at 1.  Only the K-term sums regroup, so
        the two L1s agree far inside E."""
        rng = random.Random(4242)
        ms = ResidueMultiset.from_counts(
            1009, {r: rng.randint(1, 5) for r in rng.sample(range(1009), 200)})
        whole, split, blocks = in_blocks(expsums, expsums._l1_geometric, ms)
        assert blocks == [1, 10]
        assert abs(split - whole) <= expsums._l1_error(ms) / 100
        assert split == pytest.approx(l1_full_scan(ms), rel=1e-12)

    def test_full_scan_in_blocks(self, in_blocks):
        """101 rows a of 20 gathers each: one block under the default rule,
        21 blocks of 5 rows (100 <= p entries) with SWEEP_ENTRIES at 1."""
        rng = random.Random(17)
        ms = ResidueMultiset.from_counts(
            101, {r: rng.randint(1, 5) for r in rng.sample(range(101), 20)})
        whole, split, blocks = in_blocks(expsums, l1_full_scan, ms)
        assert blocks == [1, 21]
        assert split == whole
        assert whole == pytest.approx(norm_report(ms).l1, rel=1e-12)

    def test_energy_direct_in_blocks(self, in_blocks):
        """100 x 100 pair sums mod 1009: one block under the default rule,
        10 blocks of 10 rows (1000 <= p entries) with SWEEP_ENTRIES at 1."""
        rng = random.Random(19)
        ms = ResidueMultiset.from_counts(
            1009, {r: rng.randint(1, 5) for r in rng.sample(range(1009), 100)})
        whole, split, blocks = in_blocks(expsums, additive_energy_direct, ms)
        assert blocks == [1, 10]
        assert split == whole == norm_report(ms).energy

    @given(small_multisets())
    @example(ResidueMultiset.from_counts(2, {0: 2, 1: 5}))
    @example(ResidueMultiset.from_counts(4, {0: 1, 1: 2, 3: 5}))
    @example(ResidueMultiset.from_spec(SequenceSpec.power(5, 1, 12), 999_983))
    def test_pairwise_sum_against_fsum(self, ms):
        """numpy's pairwise sum of the half-spectrum moduli stays within a
        few ulps of their correctly rounded sum."""
        mod = expsums._half_moduli(ms)
        if ms.p % 2 == 0:
            mod[-1] *= 0.5
        want = (ms.total + 2 * math.fsum(mod.tolist())) / ms.p
        assert expsums._l1_geometric(ms) == pytest.approx(want, rel=1e-14)

    @given(small_multisets(max_support=8))
    @example(ResidueMultiset.from_counts(2, {0: 2, 1: 5}))
    @example(ResidueMultiset.from_counts(3, {0: 4, 1: 1, 2: 2}))
    def test_pair_sum_energy_against_oracles(self, ms):
        assert norm_report(ms).energy == additive_energy_direct(ms) == brute_energy(ms)

    def test_from_counts_size_guard(self):
        """A total above SIZE_GUARD is refused like a long block: int64
        pair counts of a 4*10^9 total would wrap into a false invariant."""
        with pytest.raises(GuardError, match="multiset of 4000000001 terms"):
            norm_report(ResidueMultiset.from_counts(7, {0: 4 * 10**9, 1: 1}))
        ms = ResidueMultiset.from_counts(7, {0: SIZE_GUARD - 3, 1: 2, 5: 1})
        assert ms.total == SIZE_GUARD
        assert norm_report(ms).energy == additive_energy_direct(ms)

    def test_energy_guard(self, monkeypatch):
        monkeypatch.setattr(expsums, "SIZE_GUARD", 2)
        big = ResidueMultiset.from_counts(3, {0: 1, 1: 1, 2: 1})
        with pytest.raises(GuardError):
            additive_energy_direct(big)


class TestLittlewoodFib:
    def test_frozen_instance(self):
        lf = littlewood_fib(997, 997, 0.3)
        assert lf.seq_len == 7
        assert lf.report.l1 == pytest.approx(2.7379429291753032, rel=1e-12)
        assert lf.ratio == pytest.approx(lf.report.l1 / math.sqrt(7), rel=1e-12)

    def test_near_diagonal_l2(self):
        """F_1..F_12 mod 4999 collide only at F_1 = F_2, so J_p = 12 + 2."""
        lf = littlewood_fib(4999, 4999, 0.3)
        assert lf.seq_len == 12
        assert lf.report.l2sq == lf.seq_len + 2

    def test_diagonal_bound_is_exact(self, monkeypatch):
        """F_1..F_12 mod 4999: a collision count of 12 meets the diagonal
        bound, one of 11 fails it."""
        real = expsums.norm_report

        def plant(l2sq):
            monkeypatch.setattr(expsums, "norm_report",
                                lambda ms: dataclasses.replace(real(ms), l2sq=l2sq))

        plant(12)
        assert littlewood_fib(4999, 4999, 0.3).report.l2sq == 12
        plant(11)
        with pytest.raises(InvariantError, match="L2sq = 11 below the diagonal bound 12"):
            littlewood_fib(4999, 4999, 0.3)

    def test_gamma_range_enforced(self):
        with pytest.raises(ConfigError):
            littlewood_fib(997, 997, 0.34)
        with pytest.raises(ConfigError):
            littlewood_fib(997, 997, 0.0)

    def test_guard(self):
        with pytest.raises(GuardError):
            littlewood_fib(1_000_003, 1_000_003, 0.3)

    def test_guard_comes_first(self, monkeypatch):
        """p above P_GUARD is refused before the primality test or the block."""
        monkeypatch.setattr(expsums, "is_prime", lambda p: pytest.fail("is_prime called"))
        with pytest.raises(GuardError, match="exceeds the guard"):
            littlewood_fib(2**61 - 1, 2**62, 0.3)


class TestLittlewoodPow:
    def test_frozen_instance(self):
        lp = littlewood_pow(101, 2, 10)
        assert lp.report.energy == 218
        assert lp.report.l1 == pytest.approx(2.9091251666122773, rel=1e-12)
        assert lp.energy_exponent == pytest.approx(
            math.log(218) / math.log(10), rel=1e-12)

    def test_energy_brute_force(self):
        for p, g, n in ((101, 2, 10), (197, 2, 14), (4999, 3, 20)):
            lp = littlewood_pow(p, g, n)
            vals = [pow(g, i, p) for i in range(1, n + 1)]
            want = sum(1 for a in vals for b in vals for c in vals
                       if (a + b - c) % p in set(vals))
            # count ordered quadruples a + b = c + d directly
            want = sum(1 for a in vals for b in vals for c in vals for d in vals
                       if (a + b - c - d) % p == 0)
            assert lp.report.energy == want

    def test_single_term(self):
        lp = littlewood_pow(101, 2, 1)
        assert lp.report.l1 == pytest.approx(1.0)
        assert lp.energy_exponent is None

    def test_distinctness_fails_closed(self, monkeypatch):
        """The distinctness postcondition raises, so python -O keeps it."""
        real = expsums.collision_stats
        monkeypatch.setattr(
            expsums, "collision_stats",
            lambda ms: dataclasses.replace(real(ms), distinct=real(ms).distinct - 1))
        with pytest.raises(InvariantError, match="distinct"):
            littlewood_pow(101, 2, 10)

    def test_rejects_non_primitive_base(self):
        with pytest.raises(ConfigError):
            littlewood_pow(11, 3, 4)      # ord_11(3) = 5 < 10

    def test_rejects_window_beyond_sqrt_p(self):
        with pytest.raises(ConfigError):
            littlewood_pow(101, 2, 11)    # 11^2 > 101

    def test_guard_comes_first(self, monkeypatch):
        """p above P_GUARD is refused before is_primitive_root factors p - 1
        by trial division to sqrt(p): at this safe prime below 2^62, of
        which 2 is a primitive root, that would take minutes."""
        monkeypatch.setattr(expsums, "is_primitive_root",
                            lambda g, p: pytest.fail("is_primitive_root called"))
        with pytest.raises(GuardError, match="exceeds the guard"):
            littlewood_pow(4611686018427377339, 2, 5)
