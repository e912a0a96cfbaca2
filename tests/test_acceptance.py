"""Acceptance suite: twelve headline checks, one test per criterion.

Each test prints a single summary line (visible with -s or in failure
reports); `pytest -v` shows one pass/fail line per criterion either way.
Runtime budgets are asserted with generous margins.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import sparsemod.expsums as expsums
from sparsemod import (
    ResidueMultiset,
    ResidueSet,
    SequenceSpec,
    SurveyConfig,
    additive_energy_direct,
    collision_stats,
    digit_magnitude,
    glibichuk_check,
    ipow_floor,
    j_total,
    j_total_pairscan,
    least_primitive_root,
    littlewood_pow,
    norm_report,
    order_of_appearance,
    order_of_appearance_scan,
    orders_survey,
    run_survey,
    sieve_primes,
    ternary_count,
    waring_eps_params,
    waring_eps_verify,
    waring_fib_direct,
)
from sparsemod.numtheory import fib_mod


@pytest.fixture(scope="module")
def big_survey():
    """N = 10^4 survey (block 1..floor(N^0.3)) shared by criteria 8 and 9."""
    t0 = time.time()
    rep = run_survey(SurveyConfig(nmax=10_000))
    return rep, time.time() - t0


def test_c01_fibonacci_lucas_identities():
    """Doubling identities and product rewrites, exact over Z and mod p."""
    t0 = time.time()
    fibs = [0, 1]
    lucs = [2, 1]
    for _ in range(400):
        fibs.append(fibs[-1] + fibs[-2])
        lucs.append(lucs[-1] + lucs[-2])
    pairs = [(u, v) for u in range(2, 201) for v in range(1, u)]
    n_checked = 0
    for u, v in pairs:
        assert 2 * fibs[u + v] == fibs[u] * lucs[v] + lucs[u] * fibs[v]
        assert 2 * (-1) ** v * fibs[u - v] == fibs[u] * lucs[v] - lucs[u] * fibs[v]
        assert fibs[u] * lucs[v] == fibs[u + v] + (-1) ** v * fibs[u - v]
        assert lucs[u] * fibs[v] == fibs[u + v] + (-1) ** (v + 1) * fibs[u - v]
        n_checked += 4
    uu = np.array([u for u, _ in pairs], dtype=np.int64)
    vv = np.array([v for _, v in pairs], dtype=np.int64)
    sign = np.where(vv % 2 == 0, 1, -1).astype(np.int64)
    for p in sieve_primes(100):
        if p == 2:
            continue
        f = np.array([x % p for x in fibs], dtype=np.int64)
        lc = np.array([x % p for x in lucs], dtype=np.int64)
        inv2 = pow(2, -1, p)
        fl = f[uu] * lc[vv] % p
        lf = lc[uu] * f[vv] % p
        assert np.all(f[uu + vv] == inv2 * (fl + lf) % p)
        assert np.all(f[uu - vv] == inv2 * sign * (fl - lf) % p)
        assert np.all(fl == (f[uu + vv] + sign * f[uu - vv]) % p)
        assert np.all(lf == (f[uu + vv] - sign * f[uu - vv]) % p)
        n_checked += 4 * len(pairs)
    el = time.time() - t0
    assert el < 1.0, f"identity suite took {el:.2f}s"
    print(f"\nC1 PASS: {n_checked} identity instances exact, {el:.2f}s")


def test_c02_j_total_oracle():
    """J(10^4) for F_1..F_40: oracle equality and error-term constant <= 2."""
    t0 = time.time()
    spec = SequenceSpec.fibonacci(1, 40)
    res = j_total(spec, 10_000)
    vals = spec.exact_values()
    oracle = j_total_pairscan(vals, 10_000)
    assert res.total == oracle == 55944
    assert res.residual >= 0
    m = digit_magnitude(vals)
    assert m == 9
    constant = res.residual * math.log(m) / (len(vals) ** 2 * m)
    assert constant <= 2.0, constant
    el = time.time() - t0
    assert el < 30.0
    print(f"\nC2 PASS: J(10^4) = {res.total} = oracle; residual {res.residual}, "
          f"measured constant {constant:.3f} <= 2, {el:.2f}s")


def test_c03_parseval_energy_oracles():
    """100 random multisets, p <= 2000: Parseval and quadruple-count agree."""
    t0 = time.time()
    rng = random.Random(20260815)
    primes = [p for p in sieve_primes(2000) if p > 2]
    for _ in range(100):
        p = rng.choice(primes)
        support = rng.sample(range(p), rng.randint(1, min(p - 1, 40)))
        ms = ResidueMultiset.from_counts(
            p, {r: rng.randint(1, 5) for r in support})
        rep = norm_report(ms)
        assert rep.l2sq == sum(c * c for c in ms.counts.tolist())
        assert isinstance(rep.l2sq, int)
        assert rep.energy == additive_energy_direct(ms)
    el = time.time() - t0
    assert el < 60.0
    print(f"\nC3 PASS: 100 multisets, L2sq and energy exact, {el:.2f}s")


def test_c04_glibichuk_exhaustive():
    """Every odd prime p <= 200 x 50 random pairs with |A||B| > 2p: covered.

    p = 2 is excluded: |A||B| <= p^2 = 2p there, so no pair can meet the
    precondition.
    """
    t0 = time.time()
    rng = random.Random(777)
    n_checked = 0
    for p in sieve_primes(200):
        if p == 2:
            continue
        for _ in range(50):
            while True:
                ka = rng.randint(2, p)
                kb = rng.randint(2, p)
                if ka * kb > 2 * p:
                    break
            a = ResidueSet.from_iterable(p, rng.sample(range(p), ka))
            b = ResidueSet.from_iterable(p, rng.sample(range(p), kb))
            res = glibichuk_check(a, b)
            assert res.precondition_met
            assert res.passed, (p, sorted(a), sorted(b), res.missing_residue)
            n_checked += 1
    el = time.time() - t0
    assert el < 120.0
    print(f"\nC4 PASS: {n_checked} covering checks, no exceptions, {el:.2f}s")


def test_c05_ternary_bound():
    """100 random (X, Y, Z) with p <= 101: exact bound at every lambda."""
    t0 = time.time()
    rng = random.Random(31337)
    primes = [p for p in sieve_primes(101) if p > 2]
    n_counts = 0
    for _ in range(100):
        p = rng.choice(primes)
        x = ResidueSet.from_iterable(p, rng.sample(range(p), rng.randint(1, p)))
        y = ResidueSet.from_iterable(p, rng.sample(range(p), rng.randint(1, p)))
        z = ResidueSet.from_iterable(p, rng.sample(range(p), rng.randint(1, p)))
        q = len(x) * len(y) * len(z) ** 2
        for lam in range(p):
            rep = ternary_count(x, y, z, lam)
            # |T - q/p| <= sqrt(p|X||Y|)|Z|, squared to stay in integers
            assert (rep.count * p - q) ** 2 <= p**3 * q
            n_counts += 1
    el = time.time() - t0
    assert el < 120.0
    print(f"\nC5 PASS: {n_counts} exact ternary counts within bound, {el:.2f}s")


def test_c06_waring_direct_desk_scale():
    """N = 5000: nearly all p in (N/2, N] need at most 16 Fibonacci terms."""
    t0 = time.time()
    nmax = 5000
    max_index = math.ceil(4 * math.sqrt(nmax))
    primes = [p for p in sieve_primes(nmax) if p > nmax // 2]
    hits = 0
    s_values = []
    for p in primes:
        res = waring_fib_direct(p, max_index, 16)
        if res.s_min is not None and res.s_min <= 16:
            hits += 1
            s_values.append(res.s_min)
    frac = hits / len(primes)
    assert frac >= 0.9, frac
    el = time.time() - t0
    assert el < 300.0
    print(f"\nC6 PASS: {hits}/{len(primes)} primes covered "
          f"(fraction {frac:.3f} >= 0.9, max s_min {max(s_values)}), {el:.2f}s")


def test_c07_eps_params_and_instance():
    """Parameter identities on the eps grid plus one verified representation."""
    t0 = time.time()
    for i in range(1, 50):
        eps = Fraction(i, 100)
        par = waring_eps_params(eps)
        assert par.k == math.floor(Fraction(8) / eps) - 1
        assert par.s == 4 * par.k
        assert par.s * eps < 100
    rep = waring_eps_verify(97, 3**17, "0.5", 11)
    assert rep.params.s == 60 and len(rep.fib_indices) == 60
    assert sum(fib_mod(i, 97) for i in rep.fib_indices) % 97 == 11
    e = rep.params.eps
    assert max(rep.fib_indices) ** e.denominator <= rep.nmax**e.numerator
    el = time.time() - t0
    assert el < 60.0
    print(f"\nC7 PASS: grid eps=0.01..0.49 identities hold; p=97 instance uses "
          f"{rep.params.s} indices <= N^{e} = {ipow_floor(rep.nmax, e)}, {el:.2f}s")


def test_c08_chain_inequalities(big_survey):
    """Norm chains hold for every row in the N = 10^4 survey:
    L2sq^2 <= T on integers, the two L1 facts across l1 +- E."""
    rep, el = big_survey
    seq = rep.config.resolved_sequence()
    checked = 0
    for row in rep.rows:
        assert not row.status.startswith("invariant"), row
        assert row.l1 is not None
        l2sq, e = row.l2sq, expsums._l1_error(ResidueMultiset.from_spec(seq, row.p))
        assert isinstance(l2sq, int) and l2sq * l2sq <= row.energy
        assert (row.l1 - e) ** 2 <= l2sq
        assert l2sq**3 <= (row.l1 + e) ** 2 * row.energy
        checked += 1
    assert el < 600.0
    print(f"\nC8 PASS: chains hold on all {checked} rows (L1 within its error "
          f"bound), survey took {el:.1f}s")


def test_c09_l1_ratio_statistics(big_survey):
    """Ratio L1/sqrt(block length) over p in (N/2, N]: spread <= 50."""
    rep, _ = big_survey
    rows = [r for r in rep.rows if r.p > 5000]
    ratios = [r.l1_ratio for r in rows]
    assert all(r is not None for r in ratios)
    spread = max(ratios) / min(ratios)
    assert spread <= 50.0, spread
    for row in rows:
        # chain-derived lower bound: L1 >= (len^3 / T)^(1/2) via Karatsuba
        assert row.l1 >= (row.vs_size**3 / row.energy) ** 0.5 * (1 - 1e-6)
    print(f"\nC9 PASS: ratio in [{min(ratios):.4f}, {max(ratios):.4f}], "
          f"spread {spread:.4f} <= 50 over {len(rows)} primes")


def test_c10_orders_survey():
    """z(p) is large for well over half the primes; scan oracle agrees."""
    t0 = time.time()
    rep = orders_survey(100_000, 0.5)
    assert rep.z_fraction > 0.5, rep.z_fraction
    for p in sieve_primes(10_000):
        assert order_of_appearance(p) == order_of_appearance_scan(p), p
    el = time.time() - t0
    assert el < 300.0
    print(f"\nC10 PASS: z-fraction {rep.z_fraction:.4f} > 0.5 "
          f"(t-fraction {rep.t_fraction:.4f}); scan oracle agrees on all "
          f"p <= 10^4, {el:.1f}s")


def test_c11_power_block_energy():
    """20 primes in [10^4, 10^5]: energy exponent <= 3 and L1 lower bounds."""
    t0 = time.time()
    primes = [p for p in sieve_primes(100_000) if p >= 10_000][:20]
    expos = []
    for p in primes:
        g = least_primitive_root(p)
        n = ipow_floor(p, Fraction(9, 20))
        res = littlewood_pow(p, g, n)
        rep = res.report
        assert res.energy_exponent is not None
        assert res.energy_exponent <= 3.0, (p, res.energy_exponent)
        assert rep.l1 >= math.sqrt(n**3 / rep.energy) * (1 - 1e-9)
        assert rep.l1 >= n ** (1 / 48) * (1 - 1e-9)
        expos.append(res.energy_exponent)
    el = time.time() - t0
    assert el < 300.0
    print(f"\nC11 PASS: 20 primes {primes[0]}..{primes[-1]}, energy exponent "
          f"in [{min(expos):.3f}, {max(expos):.3f}] <= 3, {el:.2f}s")


def test_c12_cli_determinism(tmp_path):
    """Two `survey --nmax 2000` runs produce byte-identical files."""
    t0 = time.time()
    blobs = {}
    for fmt in ("csv", "json"):
        for run in ("a", "b"):
            out = tmp_path / f"{run}.{fmt}"
            proc = subprocess.run(
                [sys.executable, "-m", "sparsemod.cli", "survey",
                 "--nmax", "2000", "--out", str(out), "--format", fmt],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            blobs[(fmt, run)] = out.read_bytes()
        assert blobs[(fmt, "a")] == blobs[(fmt, "b")]
    payload = json.loads(blobs[("json", "a")])
    assert payload["schema"] == "sparsemod-survey-v5"
    el = time.time() - t0
    assert el < 60.0
    print(f"\nC12 PASS: csv and json byte-identical across runs, {el:.2f}s")
