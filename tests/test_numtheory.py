"""Primality, Fibonacci/Lucas modular arithmetic, orders, and per-prime records."""

import math
import random
from fractions import Fraction

import pytest

from sparsemod import (
    ConfigError,
    InvariantError,
    fib_lucas_mod,
    fib_mod,
    is_prime,
    is_primitive_root,
    least_primitive_root,
    legendre,
    legendre5,
    lucas_mod,
    mult_order,
    order_of_appearance,
    prime_record,
    sieve_primes,
)
from sparsemod.numtheory import (
    INDEX_CAP,
    MODULUS_CAP,
    exact_fraction,
    fib_pair_mod,
    mult_order_scan,
    order_of_appearance_scan,
    prime_factors,
)


def fib_list(n):
    """First n Fibonacci numbers as exact integers, F_1 = F_2 = 1."""
    fibs = [0, 1]
    while len(fibs) <= n:
        fibs.append(fibs[-1] + fibs[-2])
    return fibs


def lucas_list(n):
    lucs = [2, 1]
    while len(lucs) <= n:
        lucs.append(lucs[-1] + lucs[-2])
    return lucs


class TestIsPrime:
    def test_small_values(self):
        odd_composites = {9, 15, 21, 25, 27, 33, 35, 39, 45, 49}
        for n in range(50):
            expected = n in {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
            assert is_prime(n) == expected, n
        for n in odd_composites:
            assert not is_prime(n)

    def test_matches_sieve(self):
        flags = set(sieve_primes(10_000))
        for n in range(10_000 + 1):
            assert is_prime(n) == (n in flags), n

    def test_large_known(self):
        assert is_prime(2**31 - 1)
        assert is_prime(10**18 + 9)
        assert not is_prime(10**18 + 7)
        # strong pseudoprime to bases 2 and 3; the witness set must catch it
        assert not is_prime(3215031751)
        # Carmichael numbers
        for n in (561, 1105, 1729, 41041, 825265):
            assert not is_prime(n)

    def test_square_of_prime(self):
        for p in (10007, 99991):
            assert not is_prime(p * p)


class TestSieve:
    def test_counts(self):
        assert len(sieve_primes(10)) == 4
        assert len(sieve_primes(100)) == 25
        assert len(sieve_primes(10**4)) == 1229
        assert len(sieve_primes(10**5)) == 9592

    def test_edges(self):
        assert list(sieve_primes(1)) == []
        assert list(sieve_primes(2)) == [2]
        assert list(sieve_primes(0)) == []

    def test_sorted_and_prime(self):
        ps = list(sieve_primes(2000))
        assert ps == sorted(ps)
        assert all(is_prime(p) for p in ps)


class TestFibMod:
    def test_known_values(self):
        m = 10**9
        assert fib_lucas_mod(10, m) == (55, 123)
        assert fib_mod(0, m) == 0
        assert fib_mod(1, m) == 1
        assert fib_mod(2, m) == 1
        assert lucas_mod(0, m) == 2
        assert lucas_mod(1, m) == 1
        assert lucas_mod(2, m) == 3
        # F_100 mod 10^9 from the exact value 354224848179261915075
        assert fib_mod(100, 10**9) == 354224848179261915075 % 10**9

    def test_against_iterative_oracle(self):
        """Fast doubling equals the plain recurrence for all n <= 10^4, 20 random moduli."""
        rng = random.Random(20260815)
        moduli = [rng.randint(2, 10**12) for _ in range(20)]
        n_max = 10_000
        for m in moduli:
            a, b = 0, 1                     # F_0, F_1
            la, lb = 2 % m, 1               # L_0, L_1
            for n in range(n_max + 1):
                assert fib_lucas_mod(n, m) == (a, la), (n, m)
                a, b = b, (a + b) % m
                la, lb = lb, (la + lb) % m

    def test_pair_consistency(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(0, 2**40)
            m = rng.randint(2, 2**40)
            fa, fb = fib_pair_mod(n, m)
            assert fb == fib_mod(n + 1, m)
            assert fa == fib_mod(n, m)

    def test_caps(self):
        with pytest.raises(ConfigError):
            fib_mod(INDEX_CAP + 1, 5)
        with pytest.raises(ConfigError):
            fib_mod(10, MODULUS_CAP + 1)
        with pytest.raises(ConfigError):
            fib_mod(-1, 5)
        with pytest.raises(ConfigError):
            fib_mod(10, 1)


class TestFactoring:
    def test_prime_factors(self):
        assert prime_factors(1) == []
        assert prime_factors(2) == [2]
        assert prime_factors(360) == [2, 3, 5]
        assert prime_factors(97) == [97]
        assert prime_factors(2**6 * 5**6) == [2, 5]



class TestExactFraction:
    def test_reads_decimals_exactly(self):
        assert exact_fraction(0.4) == Fraction(2, 5)
        assert exact_fraction(0.3) == Fraction(3, 10)
        assert exact_fraction("1/3") == Fraction(1, 3)
        assert exact_fraction(Fraction(2, 7)) == Fraction(2, 7)
        assert exact_fraction(5) == 5

    @pytest.mark.parametrize("bad", ["abc", "nan", "inf", "1/0", "",
                                     math.nan, math.inf, -math.inf])
    def test_rejects_malformed_and_non_finite(self, bad):
        with pytest.raises(ConfigError):
            exact_fraction(bad)


class TestLegendre:
    def test_euler_criterion_brute(self):
        for p in sieve_primes(100):
            if p == 2:
                continue
            squares = {(x * x) % p for x in range(1, p)}
            for a in range(p):
                want = 0 if a == 0 else (1 if a in squares else -1)
                assert legendre(a, p) == want, (a, p)

    def test_legendre5_cases(self):
        # quadratic reciprocity: (5|p) = 1 iff p = +-1 mod 5
        assert legendre5(2) == -1
        assert legendre5(5) == 0
        for p in sieve_primes(500):
            if p in (2, 5):
                continue
            want = 1 if p % 5 in (1, 4) else -1
            assert legendre5(p) == want, p
        assert legendre(5, 11) == 1
        assert legendre(5, 7) == -1


class TestMultOrder:
    def test_known(self):
        assert mult_order(2, 7) == 3
        assert mult_order(3, 7) == 6
        assert mult_order(1, 13) == 1
        assert mult_order(12, 13) == 2

    def test_matches_scan(self):
        rng = random.Random(11)
        for p in sieve_primes(300):
            if p == 2:
                continue
            for _ in range(5):
                g = rng.randint(1, p - 1)
                assert mult_order(g, p) == mult_order_scan(g, p), (g, p)

    def test_divides_group_order(self):
        rng = random.Random(13)
        for _ in range(100):
            p = rng.choice([q for q in sieve_primes(5000) if q > 2])
            g = rng.randint(1, p - 1)
            assert (p - 1) % mult_order(g, p) == 0

    def test_rejects_zero(self):
        with pytest.raises(ConfigError):
            mult_order(0, 7)


class TestOrderOfAppearance:
    def test_known_values(self):
        assert order_of_appearance(2) == 3
        assert order_of_appearance(5) == 5
        assert order_of_appearance(3) == 4
        assert order_of_appearance(7) == 8
        assert order_of_appearance(11) == 10
        assert order_of_appearance(199) == 22

    def test_is_zero_point(self):
        for p in sieve_primes(200):
            z = order_of_appearance(p)
            assert fib_mod(z, p) == 0, p
            # minimality: no smaller positive index hits zero
            for n in range(1, z):
                assert fib_mod(n, p) != 0, (p, n)

    def test_matches_scan_to_1e4(self):
        """Factor stripping equals the linear scan for every prime p <= 10^4."""
        for p in sieve_primes(10_000):
            assert order_of_appearance(p) == order_of_appearance_scan(p), p

    def test_divides_p_minus_eps(self):
        for p in sieve_primes(1000):
            if p in (2, 5):
                continue
            assert (p - legendre5(p)) % order_of_appearance(p) == 0, p

    def test_no_zero_divisor_is_invariant_error(self, monkeypatch):
        import sparsemod.numtheory as nt

        monkeypatch.setattr(nt, "fib_mod", lambda n, m: 1)
        with pytest.raises(InvariantError, match="annihilates"):
            order_of_appearance(7)


class TestPrimitiveRoots:
    def test_known(self):
        assert least_primitive_root(2) == 1
        assert least_primitive_root(3) == 2
        assert least_primitive_root(7) == 3
        assert least_primitive_root(191) == 19
        assert is_primitive_root(2, 11)
        assert not is_primitive_root(3, 11)
        assert not is_primitive_root(1, 3)

    def test_order_is_p_minus_1(self):
        for p in sieve_primes(500):
            g = least_primitive_root(p)
            assert mult_order(g, p) == p - 1


class TestPrimeRecord:
    def test_fields(self):
        rec = prime_record(11)
        assert rec.p == 11
        assert rec.z_p == 10
        assert rec.legendre5 == 1
        assert rec.t_p == mult_order(2, 11) == 10

    def test_t_p_none_when_undefined(self):
        rec2 = prime_record(2)
        assert rec2.t_p is None

    def test_rejects_composites(self):
        for n in (0, 1, 4, 9, 10, 25, 561):
            with pytest.raises(ConfigError):
                prime_record(n)

    def test_legendre5_field_matches_checked_symbol(self):
        for p in sieve_primes(2000):
            assert prime_record(p).legendre5 == legendre5(p), p

    def test_two_primality_checks_per_record(self, monkeypatch):
        """mult_order and order_of_appearance each check p once; the
        Legendre symbols they share are taken unchecked."""
        import sparsemod.numtheory as nt

        calls = []
        real = nt.is_prime
        monkeypatch.setattr(nt, "is_prime", lambda n: calls.append(n) or real(n))
        for p in (3, 5, 11, 99991):
            calls.clear()
            prime_record(p)
            assert calls == [p, p]


class TestClassicalIdentities:
    def test_fib_lucas_exact(self):
        """2F_{u+v} = F_uL_v + L_uF_v and 2(-1)^vF_{u-v} = F_uL_v - L_uF_v over Z."""
        F = fib_list(400)
        L = lucas_list(400)
        for u in range(1, 201):
            for v in range(1, u + 1):
                assert 2 * F[u + v] == F[u] * L[v] + L[u] * F[v]
                assert 2 * (-1) ** v * F[u - v] == F[u] * L[v] - L[u] * F[v]

    def test_product_rewrites_exact(self):
        F = fib_list(400)
        L = lucas_list(400)
        for u in range(2, 201):
            for v in range(1, u):
                assert F[u] * L[v] == F[u + v] + (-1) ** v * F[u - v]
                assert L[u] * F[v] == F[u + v] + (-1) ** (v + 1) * F[u - v]
