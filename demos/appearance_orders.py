#!/usr/bin/env python3
"""How large are z(p) and the order of 2, statistically?

z(p) is the first Fibonacci index with p | F_z; the covering results
upstream need z(p) (and the multiplicative order of 2) to beat p^(1/2)
for most primes.  This script prints the exact fractions at several
bounds and shows factor stripping of p - (5|p) agreeing with a linear scan.
"""

from sparsemod import (
    fib_mod,
    legendre5,
    order_of_appearance,
    order_of_appearance_scan,
    orders_survey,
    prime_record,
    sieve_primes,
)


def main():
    print("== single primes ==")
    print("    p   z(p)  ord_p(2)  (5|p)   F_z mod p")
    for p in (7, 11, 101, 199, 1009):
        rec = prime_record(p)
        print(f"  {p:5d}  {rec.z_p:4d}   {rec.t_p:6d}   {rec.legendre5:+d}"
              f"      {fib_mod(rec.z_p, p)}")

    print("\n== z(p) divides p - (5|p) ==")
    for p in (199, 211, 499):
        eps = legendre5(p)
        print(f"  p = {p}: z = {order_of_appearance(p)} divides "
              f"p - ({eps:+d}) = {p - eps}")

    print("\n== factor stripping vs scan, p <= 2000 ==")
    mism = sum(1 for p in sieve_primes(2000)
               if order_of_appearance(p) != order_of_appearance_scan(p))
    print(f"  mismatches: {mism}")

    print("\n== fractions with z(p) > p^e and ord_p(2) > p^e ==")
    print("    N      e     z-fraction   t-fraction   primes")
    for nmax in (10**3, 10**4, 10**5):
        rep = orders_survey(nmax)
        t_rows = [r for r in rep.rows if r.t_p is not None]
        # z > p^0.6 exactly: z^5 > p^3
        z6 = sum(r.z_p**5 > r.p**3 for r in rep.rows) / len(rep.rows)
        t6 = sum(r.t_p**5 > r.p**3 for r in t_rows) / len(t_rows)
        for e, z, t in ((0.5, rep.z_fraction, rep.t_fraction), (0.6, z6, t6)):
            print(f"  {nmax:6d}  {e:.1f}   {z:10.4f} "
                  f"  {t:10.4f}   {len(rep.rows)}")


if __name__ == "__main__":
    main()
