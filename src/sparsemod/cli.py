"""Command-line front end.

Subcommands: survey, waring, littlewood, orders, jcount.  Exit codes:
0 success, 1 invalid configuration, 2 desk-scale guard exceeded,
3 a checked invariant failed (reports are still written when possible).
"""

import argparse
import os
import sys

from .errors import ConfigError, GuardError, InvariantError
from .numtheory import is_prime
from .valueset import SequenceSpec, check_block, digit_magnitude, j_total, j_total_pairscan
from .sumsets import (WARING_TERMS, waring_constructive, waring_eps_verify,
                      waring_fib_direct)
from .expsums import littlewood_fib, littlewood_pow
from .survey import (DELTA_EXPONENT, GAMMA, PASS_THRESHOLD, SurveyConfig, delta_of,
                     max_index_of, orders_survey, run_survey, write_report)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would exit(2); flag misuse is a config error here (1)
        raise ConfigError(message)


def parse_sequence_spec(text: str) -> SequenceSpec:
    """Parse 'fib:1..40', 'lucas:2..10', 'fib2:1..9', 'pow:2:1..20',
    'list:1,8,15', or a path to a whitespace-separated integer file."""
    head, _, rest = text.partition(":")
    fam = head.strip().lower()
    try:
        if os.path.isfile(text):
            with open(text) as fh:
                return SequenceSpec.explicit(sorted(int(tok) for tok in fh.read().split()))
        if fam in ("list", "explicit"):
            return SequenceSpec.explicit([int(t) for t in rest.split(",")])
        if fam in ("pow", "power"):
            base_s, _, rng = rest.partition(":")
            lo, hi = _parse_range(rng)
            return SequenceSpec.power(int(base_s), lo, hi)
        lo, hi = _parse_range(rest)
        if fam in ("fib", "fibonacci"):
            return SequenceSpec.fibonacci(lo, hi)
        if fam in ("lucas",):
            return SequenceSpec.lucas(lo, hi)
        if fam in ("fib2", "fibonacci-even"):
            return SequenceSpec.fibonacci_even(lo, hi)
    except ValueError as exc:
        raise ConfigError(f"bad sequence spec {text!r}: {exc}") from None
    raise ConfigError(f"unknown sequence family in {text!r}")


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ConfigError(f"expected LO..HI, got {text!r}")
    return int(lo), int(hi)


def _build_parser() -> _Parser:
    p = _Parser(prog="sparsemod",
                description="Sparse sequences modulo primes: surveys, "
                            "Waring representations, exponential-sum norms.")
    sub = p.add_subparsers(dest="command", required=True)

    sv = sub.add_parser("survey", help="per-prime survey over p <= N")
    sv.add_argument("--nmax", type=int, required=True)
    sv.add_argument("--threads", type=int, default=SurveyConfig.workers)
    sv.add_argument("--sequence", type=str, default=None,
                    help=f"override the surveyed block (default fib:1..floor(N^{float(GAMMA)}))")
    sv.add_argument("--out", type=str, required=True)
    sv.add_argument("--format", choices=("csv", "json"), required=True)

    wa = sub.add_parser("waring", help="Fibonacci Waring representations mod p")
    wa.add_argument("--p", type=int, required=True)
    wa.add_argument("--nmax", type=int, default=None)
    wa.add_argument("--lambda", dest="lam", type=int, default=0)
    wa.add_argument("--mode", choices=("direct", "constructive", "epsilon"),
                    default="direct")
    wa.add_argument("--epsilon", type=str, default="0.5")
    wa.add_argument("--delta", type=float, default=None,
                    help=f"window factor (default exp((log N)^{DELTA_EXPONENT}))")

    lw = sub.add_parser("littlewood", help="L1 norms of exponential sums")
    lw.add_argument("--p", type=int, required=True)
    lw.add_argument("--nmax", type=int, required=True)
    lw.add_argument("--base", type=int, default=None,
                    help="powers of a primitive root, block 1..N (default: "
                         f"the survey's Fibonacci block 1..floor(N^{float(GAMMA)}))")

    od = sub.add_parser("orders", help="how often z(p) and ord_p(2) are large")
    od.add_argument("--nmax", type=int, required=True)

    jc = sub.add_parser("jcount", help="total collision count J(N)")
    jc.add_argument("--values", type=str, required=True,
                    help="sequence spec (fib:1..40, list:1,8,15, ...) or a file")
    jc.add_argument("--nmax", type=int, required=True)
    jc.add_argument("--oracle", action="store_true",
                    help="re-derive J(N) by factoring pairwise differences")
    return p


def _cmd_survey(args) -> int:
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ConfigError(f"--out {args.out!r}: no such directory")
    seq = parse_sequence_spec(args.sequence) if args.sequence else None
    config = SurveyConfig(nmax=args.nmax, workers=args.threads, sequence=seq)
    # every row would carry the same guard status; refuse the whole run
    check_block(config.resolved_sequence())
    report = run_survey(config)
    write_report(report, args.out, args.format)
    agg = report.aggregates
    print(f"surveyed {agg['rows']} primes <= {config.nmax} -> {args.out}")
    for key in ("value_set_fraction", "waring16_fraction", "chain_fraction",
                "l1_ratio_min", "l1_ratio_max"):
        print(f"  {key} = {agg[key]}")
    bad = [r.p for r in report.rows if r.status.startswith("invariant:")]
    if bad:
        print(f"invariant failed at {len(bad)} prime(s), first p={bad[0]}", file=sys.stderr)
        return 3
    if config.nmax >= 10**4 and not agg["headline_ok"]:
        print("headline fractions below threshold "
              f"{PASS_THRESHOLD}", file=sys.stderr)
        return 3
    return 0


def _cmd_waring(args) -> int:
    p = args.p
    if not is_prime(p):
        raise ConfigError(f"--p must be prime, got {p}")
    nmax = args.nmax if args.nmax is not None else p
    if args.mode == "epsilon":
        rep = waring_eps_verify(p, nmax, args.epsilon, args.lam)
        prm = rep.params
        print(f"p={p} N={nmax} eps={prm.eps} k={prm.k} s={prm.s}")
        print(f"|X|,|Y|,|Z| = {rep.set_sizes}; m={rep.m} n={rep.n_tuple} "
              f"z1={rep.z1_tuple} z2={rep.z2_tuple}")
        print(f"{prm.s} Fibonacci indices (all <= N^eps): {list(rep.fib_indices)}")
        return 0
    delta = args.delta if args.delta is not None else delta_of(nmax)
    if args.mode == "direct":
        max_index = max_index_of(nmax, delta)
        cover = waring_fib_direct(p, max_index)
        print(f"p={p} max_index={max_index} coverage={list(cover.coverage_sizes)}")
        if cover.covered:
            print(f"every residue mod {p} is a sum of {cover.s_min} "
                  f"Fibonacci numbers with index <= {max_index}")
        else:
            print(f"not covered within {WARING_TERMS} folds")
        return 0
    rep = waring_constructive(p, nmax, delta, args.lam)
    print(f"p={p} lambda={rep.target} |F|={rep.f_size} |L|={rep.l_size}")
    print(f"product pairs (n, m): {list(rep.pairs)}")
    print(f"16 Fibonacci indices: {list(rep.fib_indices)}")
    return 0


def _cmd_littlewood(args) -> int:
    if args.base is None:
        res = littlewood_fib(args.p, args.nmax, GAMMA)
        rep = res.report
        print(f"p={args.p} block=fib:1..{res.seq_len} (gamma={res.gamma})")
        print(f"L1={rep.l1!r} L2sq={rep.l2sq!r} energy={rep.energy}")
        print(f"L1 / sqrt(len) = {res.ratio!r}")
    else:
        res = littlewood_pow(args.p, args.base, args.nmax)
        rep = res.report
        print(f"p={args.p} block=pow({args.base}):1..{args.nmax}")
        print(f"L1={rep.l1!r} L2sq={rep.l2sq!r} energy={rep.energy} "
              f"(exponent={res.energy_exponent})")
        print(f"L1 / N^(1/48) = {res.ratio!r}  "
              f"lower bound (N^3/T)^(1/2) = {rep.karatsuba_lb!r}")
    return 0


def _cmd_orders(args) -> int:
    rep = orders_survey(args.nmax)
    e = rep.threshold_exponent
    print(f"primes <= {rep.nmax}: {len(rep.rows)}")
    print(f"fraction with z(p) > p^{e}: {rep.z_fraction!r}")
    print(f"fraction with ord_p(2) > p^{e}: {rep.t_fraction!r} "
          "(p = 2 excluded)")
    return 0


def _cmd_jcount(args) -> int:
    spec = parse_sequence_spec(args.values)
    vals = spec.exact_values()   # its digit guard, before the sweep
    res = j_total(spec, args.nmax)
    print(f"block {spec.label()}: digit magnitude M = {digit_magnitude(vals)}")
    print(f"J({args.nmax}) = {res.total}")
    print(f"main term pi(N)*|X| = {res.main_term}, residual = {res.residual}")
    if args.oracle:
        oracle = j_total_pairscan(vals, args.nmax)
        print(f"pairscan oracle = {oracle}")
        if oracle != res.total:
            print("oracle mismatch", file=sys.stderr)
            return 3
        print("oracle agrees")
    return 0


_COMMANDS = {
    "survey": _cmd_survey,
    "waring": _cmd_waring,
    "littlewood": _cmd_littlewood,
    "orders": _cmd_orders,
    "jcount": _cmd_jcount,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GuardError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
