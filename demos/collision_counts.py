#!/usr/bin/env python3
"""How often does a sparse sequence collide with itself modulo primes?

Walks through the collision count J(N) = sum over p <= N of the number of
ordered pairs (x, y) with x = y mod p, for Fibonacci blocks and explicit
lists: the sweep path (block_stats, every prime at once), the independent
difference-factoring oracle, and the value-set survey that counts how many
residues survive reduction.
"""

import math

from sparsemod import (
    SequenceSpec,
    collision_stats,
    digit_magnitude,
    j_total,
    j_total_pairscan,
    value_set_survey,
)
from sparsemod.valueset import ResidueMultiset


def show_multiset(spec, p):
    ms = ResidueMultiset.from_spec(spec, p)
    st = collision_stats(ms)
    print(f"  {spec.label()} mod {p}: counts {dict(sorted(zip(ms.support.tolist(), ms.counts.tolist())))}")
    print(f"    size {st.size}, distinct {st.distinct}, J_p {st.collisions}")


def main():
    print("== residue multisets ==")
    show_multiset(SequenceSpec.fibonacci(1, 4), 5)
    show_multiset(SequenceSpec.explicit((1, 8, 15)), 7)

    print("\n== J(N) two ways ==")
    spec = SequenceSpec.fibonacci(1, 40)
    vals = spec.exact_values()
    res = j_total(spec, 10_000)
    oracle = j_total_pairscan(vals, 10_000)
    m = digit_magnitude(vals)
    print(f"  block F_1..F_40 (digit magnitude M = {m})")
    print(f"  sweep path:     J(10^4) = {res.total}")
    print(f"  pair scan:      J(10^4) = {oracle}")
    print(f"  diagonal pi(N)*|X| = {res.main_term}, residual = {res.residual}")
    scale = len(vals) ** 2 * m / math.log(m)
    print(f"  residual / (|X|^2 M / log M) = {res.residual / scale:.3f}"
          "  (the error-term constant)")

    print("\n== value-set survey ==")
    sv = value_set_survey(SequenceSpec.fibonacci(1, 10), 1000, 10.0)
    print(f"  F_1..F_10 over the {len(sv.rows)} primes p <= 1000:")
    print(f"  fraction with (size - distinct)/size <= 1/10: {sv.fraction:.3f}")
    small = [r for r in sv.rows if r.distinct < 9][:6]
    print("  most collapsed rows (p, size, distinct):")
    for r in small:
        print(f"    {r.p:5d}  {r.size:4d}  {r.distinct:4d}")


if __name__ == "__main__":
    main()
