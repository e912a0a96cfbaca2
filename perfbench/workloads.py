"""The benchmark's workloads.

Each workload makes its inputs from the seed, runs one pass of calls into
sparsemod (the timed part), and checks every output of a pass against the
committed reference in perfbench/reference/ and, once per run, against
independent oracles on a seeded sample.  Calls are looked up on their
modules at call time, so a traced pass goes through the tracer's wrappers.

Workloads:
  survey       the per-prime survey at N = 20000; its pooled form
               (--threads 2) is checked and, in a traced run, timed
  large_prime  single-prime calls near the desk guards (long spectra,
               wide supports, 10^4..10^5-bit masks), no per-prime loop
  orders       orders, collision counts and value sets over ~18k primes;
               numtheory and valueset only
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from collections import Counter

import numpy as np

from sparsemod import cli, expsums, numtheory, sumsets, survey, valueset
from sparsemod.sumsets import ResidueSet
from sparsemod.valueset import SequenceSpec

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Floats are compared by value, not by bytes, so a change that moves the
# last bits of L1 (a real FFT, a different summation order) still passes;
# 1e-9 is far above double rounding (~1e-15) and far below any real error.
RTOL = 1e-9


def load_reference(name):
    with open(os.path.join(REFERENCE_DIR, f"{name}.json")) as fh:
        return json.load(fh)


def same(got, want):
    """Equality, with floats compared to RTOL."""
    if isinstance(got, float) or isinstance(want, float):
        return (got is not None and want is not None
                and math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0))
    return got == want


def digest(rows):
    h = hashlib.sha256()
    for row in rows:
        h.update((",".join(map(str, row)) + "\n").encode())
    return h.hexdigest()


def attempt(func, *args):
    """Call func; a raised exception is returned as the result."""
    try:
        return func(*args)
    except Exception as exc:  # recorded as a failed operation by the checks
        return exc


def call(module, attr, *args):
    """Look the function up at call time, so tracing wrappers are used."""
    return getattr(module, attr)(*args)


# ---------------------------------------------------------------- oracles
# Written without sparsemod's fast paths: plain recurrences, exact
# integers, and FFT convolution in place of the bitset folds.

def fib_values(n):
    """Exact F_1..F_n."""
    out, a, b = [], 1, 1
    for _ in range(n):
        out.append(a)
        a, b = b, a + b
    return out


def lucas_values(n):
    """Exact L_1..L_n."""
    out, a, b = [], 1, 3
    for _ in range(n):
        out.append(a)
        a, b = b, a + b
    return out


def fib_residues(p, count):
    """{F_n mod p : 1 <= n <= count} by the plain recurrence."""
    seen, a, b = set(), 1 % p, 1 % p
    for _ in range(count):
        seen.add(a)
        a, b = b, (a + b) % p
    return seen


def cover_sizes(gens, p, k):
    """Sizes of the j-fold sumsets of gens mod p for j = 1.., stopping at
    all of F_p or at j = k; also returns the last sumset as a 0/1 array.
    Cyclic convolution by FFT; counts stay below p, so rounding is safe."""
    g = np.zeros(p)
    g[list(gens)] = 1.0
    spectrum = np.fft.rfft(g)
    cur = g
    sizes = [int(cur.sum())]
    while sizes[-1] < p and len(sizes) < k:
        conv = np.fft.irfft(np.fft.rfft(cur) * spectrum, n=p)
        cur = (conv > 0.5).astype(float)
        sizes.append(int(cur.sum()))
    return sizes, cur


def floor_power(n, num, den):
    """floor(n^(num/den)) by integer search."""
    h = 0
    while (h + 1) ** den <= n**num:
        h += 1
    return h


# ---------------------------------------------------------------- survey

SURVEY_NMAX = 20000
SURVEY_GAMMA = (3, 10)    # the CLI default --gamma 0.3
WARM_NMAX = 2000
SURVEY_SAMPLE = 24
INT_COLUMNS = ("p", "t_p", "z_p", "legendre5", "waring_s_min",
               "waring_max_index", "energy", "vs_size", "vs_distinct", "status")
FLOAT_COLUMNS = ("l1", "l2sq", "l1_ratio")


def survey_argv(nmax, threads, out):
    return ["survey", "--nmax", str(nmax), "--format", "json",
            "--out", out, "--threads", str(threads)]


def report_path(argv):
    return argv[argv.index("--out") + 1]


def quiet_main(argv):
    """sparsemod.cli.main with its summary lines kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return call(cli, "main", argv)


def survey_reference(report_bytes):
    report = json.loads(report_bytes)
    rows = report["rows"]
    return {
        "nmax": SURVEY_NMAX,
        "rows": len(rows),
        "int_columns": list(INT_COLUMNS),
        "int_digest": digest([row[c] for c in INT_COLUMNS] for row in rows),
        "float_columns": list(FLOAT_COLUMNS),
        "floats": [[row[c] for c in FLOAT_COLUMNS] for row in rows],
        "aggregates": report["aggregates"],
    }


class Survey:
    """`sparsemod survey --nmax 20000 --format json --threads 1` in-process.

    An operation is one report row; a pass that raises or exits non-zero
    fails every row it should have produced.  The same survey with
    --threads 2 (the worker pool) must give the same bytes: checked at
    N = 2000 after every run and at full size in a traced run, where its
    time gives the pool's efficiency.
    """

    name = reference_name = "survey"

    def __init__(self, seed, workdir):
        def path(label):
            return os.path.join(workdir, f"survey-{label}.json")
        self.argv = survey_argv(SURVEY_NMAX, 1, path("serial"))
        self.pool_argv = survey_argv(SURVEY_NMAX, 2, path("pool"))
        self.warm_argv = survey_argv(WARM_NMAX, 1, path("warm"))
        self.warm_pool_argv = survey_argv(WARM_NMAX, 2, path("warm-pool"))
        primes = numtheory.sieve_primes(SURVEY_NMAX)
        self.largest_prime = primes[-1]
        self.sample = sorted(random.Random(seed).sample(primes, SURVEY_SAMPLE))
        self.first_report = None

    def warm(self):
        """A small survey, then the survey block's norms at the largest
        prime: the allocator sizes its heap to the largest arrays only
        after it has seen them, which left a cold first pass 20-50% slower."""
        quiet_main(self.warm_argv)
        call(expsums, "littlewood_fib", self.largest_prime, SURVEY_NMAX, 0.3)

    def run_pass(self):
        return {"survey": attempt(quiet_main, self.argv)}

    def check_pass(self, outputs, tally, k):
        self.check_report(self.argv, outputs["survey"], tally, k)

    def check_report(self, argv, code, tally, k):
        """Check the report a survey call wrote; k labels its rows."""
        ref = self.reference
        n = ref["rows"]
        tally.attempt(n)

        def fail_all(reason):
            for i in range(n):
                tally.fail((k, i), reason)

        if code != 0:
            fail_all(f"survey exited with {code!r}")
            return
        data = read_bytes(report_path(argv))
        if self.first_report is None:
            self.first_report = data
        elif data != self.first_report:
            fail_all(f"report bytes of {' '.join(argv[:-2])} differ from the first pass")
            return
        report = json.loads(data)
        rows = report["rows"]
        if (len(rows) != n or digest([row[c] for c in INT_COLUMNS] for row in rows)
                != ref["int_digest"]):
            fail_all("integer columns differ from the reference digest")
        for key, want in ref["aggregates"].items():
            if not same(report["aggregates"].get(key), want):
                fail_all(f"aggregate {key} = {report['aggregates'].get(key)!r}, want {want!r}")
        for i, (row, want) in enumerate(zip(rows, ref["floats"])):
            if row["status"].startswith(("guard:", "invariant:")):
                tally.fail((k, i), f"p={row['p']} status {row['status']}")
            for col, w in zip(FLOAT_COLUMNS, want):
                if not same(row[col], w):
                    tally.fail((k, i), f"p={row['p']} {col}={row[col]!r}, want {w!r}")

    def check_oracles(self, tally):
        """Sampled rows of the first pass against independent oracles."""
        rows = json.loads(self.first_report)["rows"]
        index = {row["p"]: i for i, row in enumerate(rows)}
        block = floor_power(SURVEY_NMAX, *SURVEY_GAMMA)
        block_values = fib_values(block)
        for p in self.sample:
            if p not in index:
                tally.fail((0, "oracle", p), f"p={p} missing from the report")
                continue
            i = index[p]
            row = rows[i]
            counts = Counter(v % p for v in block_values)
            ms = valueset.ResidueMultiset.from_counts(p, counts)
            sizes, _ = cover_sizes(fib_residues(p, row["waring_max_index"]), p, 16)
            l1 = expsums.l1_full_scan(ms)
            want = {
                "t_p": None if p == 2 else numtheory.mult_order_scan(2, p),
                "z_p": numtheory.order_of_appearance_scan(p),
                "l1": l1,
                "l2sq": float(sum(c * c for c in counts.values())),
                "energy": expsums.additive_energy_direct(ms),
                "l1_ratio": l1 / math.sqrt(block),
                "vs_size": block,
                "vs_distinct": len(counts),
                "waring_s_min": len(sizes) if sizes[-1] == p else None,
            }
            for col, w in want.items():
                if not same(row[col], w):
                    tally.fail((0, i), f"oracle: p={p} {col}={row[col]!r}, want {w!r}")

    def finish(self, tally):
        if self.first_report is not None:
            self.check_oracles(tally)
        tally.attempt()
        code = attempt(quiet_main, self.warm_pool_argv)
        if (code != 0 or read_bytes(report_path(self.warm_pool_argv))
                != read_bytes(report_path(self.warm_argv))):
            tally.fail(("warm-pool", 0), f"--threads 2 report at N={WARM_NMAX} "
                       f"differs from the serial one (exit {code!r})")

    def pool_metrics(self, tracing, tally, serial_wall):
        """One traced pass of the pooled survey; its rows are checked like a
        serial pass, so its bytes must equal the serial report's."""
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            start = time.perf_counter()
            code = attempt(quiet_main, self.pool_argv)
            wall = time.perf_counter() - start
        self.check_report(self.pool_argv, code, tally, "pool")
        return {
            "survey.pool_efficiency": (serial_wall / (2 * wall), "ratio"),
            "survey.pool_dispatch_s": tracing.layer_metrics(tracer)["survey.dispatch_s"],
        }


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------- large_prime

class CallList:
    """A workload whose pass is a fixed list of calls; an operation is one call."""

    first = None

    def warm(self):
        for _, module, attr, args in self.warm_ops:
            call(module, attr, *args)

    def run_pass(self):
        return {name: attempt(call, module, attr, *args)
                for name, module, attr, args in self.ops}

    def check_pass(self, outputs, tally, k):
        tally.attempt(len(self.ops))
        if self.first is None:
            self.first = outputs
        for name, _, _, args in self.ops:
            res = outputs[name]
            if isinstance(res, Exception):
                reasons = [f"raised {res!r}"]
            else:
                want = self.reference[name]
                reasons = [f"{key}={got!r}, want {want[key]!r}"
                           for key, got in self.summary(name, res).items()
                           if not same(got, want[key])]
                reasons += self.identities(name, res, args, outputs)
            for reason in reasons:
                tally.fail((k, name), f"{name}: {reason}")

    def finish(self, tally):
        if self.first is not None:
            self.check_oracles(tally)

    def pool_metrics(self, tracing, tally, serial_wall):
        """This workload runs no pool."""
        return {"survey.pool_efficiency": (0.0, "ratio"),
                "survey.pool_dispatch_s": (0.0, "s")}


class LargePrime(CallList):
    """Single-prime calls near the desk guards.  An operation is one call.

    The seed picks the two Waring targets; everything else is fixed.
    """

    name = reference_name = "large_prime"

    # (pow p, pow length, fib calls, constructive (p, N, delta),
    #  eps (p, N, eps), direct (p, max_index, s_max), Glibichuk p and windows)
    FULL = dict(pow=(999983, 300), fib=((999983, 999983, 0.3), (199999, 10**6, 0.3)),
                constructive=(30011, 10**7, 5.0), eps=(1009, 10**14, 0.5),
                direct=(99991, 2000, 16), glibichuk=(20011, 210, 200, 30))
    WARM = dict(pow=(10007, 60), fib=((10007, 10007, 0.3), (1999, 10**4, 0.3)),
                constructive=(101, 5000, 5.0), eps=(97, 129140163, 0.5),
                direct=(997, 200, 16), glibichuk=(1009, 40, 40, 10))

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.lam_constructive = rng.randrange(self.FULL["constructive"][0])
        self.lam_eps = rng.randrange(self.FULL["eps"][0])
        self.ops = self.make_ops(self.FULL)
        self.warm_ops = self.make_ops(self.WARM)

    def make_ops(self, prm):
        pow_p, pow_len = prm["pow"]
        g = numtheory.least_primitive_root(pow_p)
        gp, f_len, l_len, short = prm["glibichuk"]
        # Covering probe: even-index Fibonacci window times Lucas values,
        # |A||B| > 2p.  Short probe: {0..short-1}^2, whose 8-fold sumset
        # stops near 8 short^2 < p and so yields a missing-residue witness.
        a = ResidueSet.from_iterable(gp, SequenceSpec.fibonacci_even(101, 100 + f_len).residues(gp))
        b = ResidueSet.from_iterable(gp, SequenceSpec.lucas(1, l_len).residues(gp))
        s = ResidueSet.from_iterable(gp, range(short))
        cp, cn, cd = prm["constructive"]
        ep, en, ee = prm["eps"]
        ops = [("littlewood_pow", expsums, "littlewood_pow", (pow_p, g, pow_len))]
        ops += [(f"littlewood_fib_{p}", expsums, "littlewood_fib", (p, n, gamma))
                for p, n, gamma in prm["fib"]]
        ops += [
            ("waring_constructive", sumsets, "waring_constructive",
             (cp, cn, cd, self.lam_constructive % cp)),
            ("waring_eps_verify", sumsets, "waring_eps_verify",
             (ep, en, ee, self.lam_eps % ep)),
            ("waring_fib_direct", sumsets, "waring_fib_direct", prm["direct"]),
            ("glibichuk_cover", sumsets, "glibichuk_check", (a, b)),
            ("glibichuk_short", sumsets, "glibichuk_check", (s, s)),
        ]
        return ops

    @staticmethod
    def summary(name, res):
        """The reference-checked, target-independent part of a result."""
        if name.startswith("littlewood"):
            r = res.report
            return {"p": r.p, "size": r.size, "l1": r.l1, "l2sq": r.l2sq,
                    "energy": r.energy}
        if name == "waring_constructive":
            return {"f_size": res.f_size, "l_size": res.l_size,
                    "terms": len(res.fib_indices)}
        if name == "waring_eps_verify":
            return {"s": res.params.s, "set_sizes": list(res.set_sizes),
                    "terms": len(res.fib_indices)}
        if name == "waring_fib_direct":
            return {"s_min": res.s_min, "coverage_sizes": list(res.coverage_sizes)}
        return {"passed": res.passed, "missing_residue": res.missing_residue,
                "product_size": res.product_size,
                "precondition_met": res.precondition_met,
                "coverage_sizes": list(res.cover.coverage_sizes)}

    @staticmethod
    def identities(name, res, args, outputs):
        """Every index list must re-evaluate to its target mod p."""
        if name not in ("waring_constructive", "waring_eps_verify"):
            return []
        p, nmax, lam = args[0], args[1], args[-1]
        idx = res.fib_indices
        reasons = []
        if sum(numtheory.fib_mod(i, p) for i in idx) % p != lam % p:
            reasons.append(f"indices do not re-evaluate to {lam} mod {p}")
        lowest = 0 if name == "waring_constructive" else 1
        if min(idx) < lowest:
            reasons.append(f"index below {lowest}")
        if name == "waring_eps_verify" and max(idx) ** 2 > nmax:   # eps = 1/2
            reasons.append("index above N^(1/2)")
        return reasons

    def check_oracles(self, tally):
        out = self.first
        args = {name: a for name, _, _, a in self.ops}

        def expect(name, got, want, what):
            if not same(got, want):
                tally.fail((0, name), f"oracle: {name} {what}={got!r}, want {want!r}")

        for name, (p, *rest) in args.items():
            if not name.startswith("littlewood") or isinstance(out[name], Exception):
                continue
            res = out[name]
            if name == "littlewood_pow":
                g, n = rest
                counts = Counter(pow(g, i, p) for i in range(1, n + 1))
            else:
                counts = Counter(v % p for v in fib_values(res.seq_len))
            ms = valueset.ResidueMultiset.from_counts(p, counts)
            expect(name, res.report.energy, expsums.additive_energy_direct(ms), "energy")
            expect(name, res.report.l2sq, float(sum(c * c for c in counts.values())), "l2sq")
            if p * len(counts) <= 2 * 10**7:   # full-scan cost: p * |support| gathers
                expect(name, res.report.l1, expsums.l1_full_scan(ms), "l1")
        p, max_index, s_max = args["waring_fib_direct"]
        if not isinstance(out["waring_fib_direct"], Exception):
            sizes, _ = cover_sizes(fib_residues(p, max_index), p, s_max)
            expect("waring_fib_direct", list(out["waring_fib_direct"].coverage_sizes),
                   sizes, "coverage_sizes")
        for name in ("glibichuk_cover", "glibichuk_short"):
            a, b = args[name]
            res = out[name]
            if isinstance(res, Exception):
                continue
            prod = np.unique(np.outer(list(a), list(b)) % a.p)
            sizes, last = cover_sizes(prod, a.p, 8)
            missing = None if sizes[-1] == a.p else int(np.flatnonzero(last == 0)[0])
            expect(name, res.product_size, len(prod), "product_size")
            expect(name, list(res.cover.coverage_sizes), sizes, "coverage_sizes")
            expect(name, res.missing_residue, missing, "missing_residue")

# ---------------------------------------------------------------- orders

class Orders(CallList):
    """Orders, collision counts and value sets; numtheory and valueset only.

    An operation is one call.  The seed picks the oracle sample.
    """

    name = reference_name = "orders"
    FULL = dict(orders=200000, n=10**5)
    WARM = dict(orders=2000, n=1000)
    SAMPLE = 12

    def __init__(self, seed, workdir):
        self.fib = SequenceSpec.fibonacci(1, 60)
        self.pow2 = SequenceSpec.power(2, 1, 60)
        self.lucas = SequenceSpec.lucas(1, 60)
        self.fib_exact = fib_values(60)
        self.ops = self.make_ops(self.FULL)
        self.warm_ops = self.make_ops(self.WARM)
        rng = random.Random(seed)
        self.orders_sample = sorted(rng.sample(numtheory.sieve_primes(self.FULL["orders"]), self.SAMPLE))
        self.j_sample = sorted(rng.sample(numtheory.sieve_primes(self.FULL["n"]), self.SAMPLE))

    def make_ops(self, prm):
        n = prm["n"]
        return [
            ("orders_survey", survey, "orders_survey", (prm["orders"],)),
            ("j_total_fib", valueset, "j_total", (self.fib, n)),
            ("j_total_pairscan_fib", valueset, "j_total_pairscan", (self.fib_exact, n)),
            ("j_total_pow", valueset, "j_total", (self.pow2, n)),
            ("value_set_lucas", valueset, "value_set_survey", (self.lucas, n, 10)),
        ]

    @staticmethod
    def summary(name, res):
        if name == "orders_survey":
            return {"rows": len(res.rows),
                    "digest": digest((r.p, r.t_p, r.z_p) for r in res.rows),
                    "z_fraction": res.z_fraction, "t_fraction": res.t_fraction}
        if name.startswith("j_total_pairscan"):
            return {"total": res}
        if name.startswith("j_total"):
            return {"total": res.total, "primes": len(res.per_prime)}
        return {"rows": len(res.rows),
                "digest": digest((r.p, r.size, r.distinct) for r in res.rows),
                "fraction": res.fraction}

    @staticmethod
    def identities(name, res, args, outputs):
        """The pairscan oracle must agree with the per-prime loop."""
        loop = outputs["j_total_fib"]
        if name != "j_total_pairscan_fib" or isinstance(loop, Exception):
            return []
        return [] if res == loop.total else [f"{res} != j_total {loop.total}"]

    def check_oracles(self, tally):
        out = self.first
        if not isinstance(out["orders_survey"], Exception):
            rows = {r.p: r for r in out["orders_survey"].rows}
            for p in self.orders_sample:
                row = rows.get(p)
                want = (p, None if p == 2 else numtheory.mult_order_scan(2, p),
                        numtheory.order_of_appearance_scan(p))
                got = None if row is None else (row.p, row.t_p, row.z_p)
                if got != want:
                    tally.fail((0, "orders_survey"), f"oracle: p={p} got {got}, want {want}")
        exact = {"j_total_fib": self.fib_exact,
                 "j_total_pow": [2**i for i in range(1, 61)]}
        for name, values in exact.items():
            if isinstance(out[name], Exception):
                continue
            per_prime = dict(out[name].per_prime)
            for p in self.j_sample:
                want = sum(c * c for c in Counter(v % p for v in values).values())
                if per_prime.get(p) != want:
                    tally.fail((0, name), f"oracle: p={p} J_p={per_prime.get(p)}, want {want}")
        if not isinstance(out["value_set_lucas"], Exception):
            rows = {r.p: r for r in out["value_set_lucas"].rows}
            lucas = lucas_values(60)
            for p in self.j_sample:
                want = len({v % p for v in lucas})
                got = rows[p].distinct if p in rows else None
                if got != want:
                    tally.fail((0, "value_set_lucas"),
                               f"oracle: p={p} distinct={got}, want {want}")

WORKLOADS = {w.name: w for w in (Survey, LargePrime, Orders)}
