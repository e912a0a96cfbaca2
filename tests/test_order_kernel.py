"""Differential properties of the factor-stripping order kernel against
sympy and the linear-scan oracles, on primes <= 10^5."""

import pytest
from hypothesis import example, given, strategies as st

from sparsemod import mult_order, order_of_appearance, sieve_primes
from sparsemod.numtheory import mult_order_scan, order_of_appearance_scan

sympy = pytest.importorskip("sympy")
from sympy.ntheory import n_order  # noqa: E402

PRIMES = sieve_primes(10**5)


@given(st.sampled_from(PRIMES[1:]))   # 2 is not invertible mod 2
@example(3)
@example(99991)
def test_mult_order_of_2(p):
    t = mult_order(2, p)
    assert t == n_order(2, p) == mult_order_scan(2, p)


@given(st.sampled_from(PRIMES))
@example(2)
@example(5)
@example(99991)
def test_order_of_appearance(p):
    z = order_of_appearance(p)
    assert z == order_of_appearance_scan(p)
    assert sympy.fibonacci(z) % p == 0
