"""Survey rows and aggregates, report serialization, and the CLI contract."""

import csv
import ctypes
import dataclasses
import io
import itertools
import json
import math
import random
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from multiprocessing import Pool
from pathlib import Path

import numpy as np
import pytest

from sparsemod import (
    ConfigError,
    GuardError,
    InvariantError,
    SequenceSpec,
    SurveyConfig,
    collision_stats,
    littlewood_fib,
    mult_order,
    order_of_appearance,
    orders_survey,
    prime_record,
    run_survey,
    sieve_primes,
    survey_csv,
    survey_json,
    waring_fib_direct,
    write_report,
)
import sparsemod.survey as survey_mod
from sparsemod.cli import main, parse_sequence_spec
from sparsemod.numtheory import PRODUCT_GUARD, is_prime
from sparsemod.survey import CSV_COLUMNS, delta_of
from sparsemod.valueset import ResidueMultiset


def composed_csv(report):
    """The CSV as write_report built it whole before it streamed: the oracle."""
    buf = io.StringIO()
    buf.write(f"# {survey_mod.SCHEMA}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in report.rows:
        w.writerow(["" if v is None else repr(v) if isinstance(v, float) else v
                    for v in dataclasses.astuple(r)])
    return buf.getvalue()


def composed_json(report):
    """The JSON as write_report built it whole before it streamed: the oracle."""
    config = {"nmax": report.config.nmax,
              "sequence": report.config.resolved_sequence().label()}
    payload = {"schema": survey_mod.SCHEMA, "config": config,
               "rows": [dataclasses.asdict(r) for r in report.rows],
               "aggregates": report.aggregates}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def blas_threads(path, getter):
    """The thread count an OpenBLAS getter reports in this process."""
    get = getattr(ctypes.CDLL(path), getter)
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


class TestSurveyConfig:
    def test_fields_are_what_varies(self):
        """gamma, rho and the value-set tolerance are the paper's constants."""
        assert [f.name for f in dataclasses.fields(SurveyConfig)] == [
            "nmax", "workers", "sequence"]
        assert (survey_mod.GAMMA, survey_mod.DELTA_EXPONENT, survey_mod.VS_DELTA) == (
            Fraction(3, 10), 0.4, 10)

    def test_defaults_resolve(self):
        cfg = SurveyConfig(nmax=2000)
        seq = cfg.resolved_sequence()
        assert seq == SequenceSpec.fibonacci(1, 9)   # floor(2000^0.3) = 9
        assert cfg.waring_max_index() == math.ceil(
            math.exp(math.log(2000) ** 0.4) * math.sqrt(2000)) == 425

    def test_default_block_is_the_explicit_one(self):
        explicit = SurveyConfig(nmax=2000, sequence=SequenceSpec.fibonacci(1, 9))
        assert run_survey(explicit).rows == run_survey(SurveyConfig(nmax=2000)).rows

    def test_validation(self):
        with pytest.raises(ConfigError):
            SurveyConfig(nmax=1)
        with pytest.raises(ConfigError):
            SurveyConfig(nmax=100, workers=0)

    def test_delta_of_monotone(self):
        assert delta_of(100) < delta_of(10**4) < delta_of(10**6)
        assert delta_of(10**4) == pytest.approx(math.exp(math.log(10**4) ** 0.4))
        with pytest.raises(ConfigError):
            delta_of(1)


class TestRunSurvey:
    def test_rows_match_direct_calls(self):
        cfg = SurveyConfig(nmax=300)
        rep = run_survey(cfg)
        assert [r.p for r in rep.rows] == list(sieve_primes(300))
        spec = cfg.resolved_sequence()
        mi = cfg.waring_max_index()
        for row in rep.rows:
            if row.p in (2, 283):
                continue
            assert row.z_p == order_of_appearance(row.p)
            assert row.t_p == mult_order(2, row.p)
            assert row.waring_s_min == waring_fib_direct(row.p, mi).s_min
            st = collision_stats(ResidueMultiset.from_spec(spec, row.p))
            assert row.vs_size == st.size and row.vs_distinct == st.distinct

    def test_littlewood_column_matches(self):
        rep = run_survey(SurveyConfig(nmax=300))
        row = next(r for r in rep.rows if r.p == 293)
        lf = littlewood_fib(293, 300, 0.3)
        assert row.l1 == pytest.approx(lf.report.l1, rel=1e-12)
        assert row.l1_ratio == pytest.approx(lf.ratio, rel=1e-12)
        assert row.energy == lf.report.energy

    def test_worker_count_does_not_change_rows(self):
        r1 = run_survey(SurveyConfig(nmax=500))
        r2 = run_survey(SurveyConfig(nmax=500, workers=3))
        assert r1.rows == r2.rows
        assert r1.aggregates == r2.aggregates

    def test_aggregates_arithmetic(self):
        rep = run_survey(SurveyConfig(nmax=400))
        agg = rep.aggregates
        n = len(rep.rows)
        assert agg["rows"] == n
        ok16 = sum(1 for r in rep.rows
                   if r.waring_s_min is not None and r.waring_s_min <= 16)
        assert agg["waring16_fraction"] == pytest.approx(ok16 / n)
        ratios = [r.l1_ratio for r in rep.rows if r.l1_ratio is not None]
        assert agg["l1_ratio_min"] == pytest.approx(min(ratios))
        assert agg["l1_ratio_max"] == pytest.approx(max(ratios))

    def test_l2sq_is_exact_collision_count(self):
        """At p = 3 the 19-term survey block has 129 collisions; the float
        spectrum used to report 128.99999999999997."""
        spec = SequenceSpec.fibonacci(1, 19)
        rep = run_survey(SurveyConfig(nmax=5, sequence=spec))
        for row in rep.rows:
            ms = ResidueMultiset.from_spec(spec, row.p)
            assert row.l2sq == collision_stats(ms).collisions
        row = next(r for r in rep.rows if r.p == 3)
        assert row.l2sq == 129 and isinstance(row.l2sq, int)
        cells = list(csv.DictReader(survey_csv(rep).splitlines()[1:]))
        assert [c["l2sq"] for c in cells if c["p"] == "3"] == ["129"]

    def test_status_column(self):
        rep = run_survey(SurveyConfig(nmax=50))
        by_p = {r.p: r for r in rep.rows}
        assert by_p[2].status == "partial:t_p"
        assert by_p[2].t_p is None
        assert all(r.status == "ok" for r in rep.rows if r.p != 2)


class TestPoolBlasThreads:
    def test_workers_run_one_blas_thread(self, monkeypatch):
        """The survey's pool caps each worker's BLAS at one thread and leaves
        the parent's count alone."""
        blas = survey_mod._blas_setter()
        if blas is None:
            pytest.skip("no OpenBLAS loaded")
        path, setter = blas
        getter = (path, setter.replace("set_num", "get_num"))
        pool_kwargs = []

        def recording_pool(*args, **kwargs):
            pool_kwargs.append(kwargs)
            return Pool(*args, **kwargs)

        monkeypatch.setattr(survey_mod, "Pool", recording_pool)
        parent = blas_threads(*getter)
        rep = run_survey(SurveyConfig(nmax=300, workers=2))
        assert rep.rows == run_survey(SurveyConfig(nmax=300)).rows
        assert blas_threads(*getter) == parent
        with Pool(2, **pool_kwargs[0]) as pool:
            assert pool.starmap(blas_threads, [getter] * 4) == [1] * 4

    def test_without_openblas_the_pool_runs_and_says_so(self, monkeypatch, capsys):
        monkeypatch.setattr(survey_mod, "_blas_setter", lambda: None)
        rep = run_survey(SurveyConfig(nmax=300, workers=2))
        assert survey_json(rep) == survey_json(run_survey(SurveyConfig(nmax=300)))
        assert capsys.readouterr().err.count("no OpenBLAS found") == 1


class FakePool:
    """A Pool that records its size and maps in this process."""

    sizes = []

    def __init__(self, processes, initializer=None, initargs=()):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, iterable, chunksize=None):
        return [func(job) for job in iterable]


class TestPoolSize:
    @pytest.mark.parametrize("workers, nmax, cpus, size", [
        (64, 10, 64, 4),       # 4 primes
        (64, 100, 3, 3),       # 3 CPUs
        (2, 100, 8, 2),
        (64, 100, None, None),  # no CPU count: serial
        (64, 2, 8, None),      # one prime: serial
    ])
    def test_pool_never_outnumbers_primes_or_cpus(self, workers, nmax, cpus, size,
                                                  monkeypatch):
        """min(workers, primes, CPUs) processes start, and none when that
        is 1; the rows are the serial rows either way."""
        monkeypatch.setattr(survey_mod, "Pool", FakePool)
        monkeypatch.setattr(FakePool, "sizes", [])
        monkeypatch.setattr(survey_mod.os, "cpu_count", lambda: cpus)
        rep = run_survey(SurveyConfig(nmax=nmax, workers=workers))
        assert FakePool.sizes == ([] if size is None else [size])
        assert rep.rows == run_survey(SurveyConfig(nmax=nmax)).rows


class TestSerialization:
    def test_csv_shape(self):
        rep = run_survey(SurveyConfig(nmax=100))
        text = survey_csv(rep)
        lines = text.splitlines()
        assert lines[0] == "# sparsemod-survey-v5"
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2 + len(rep.rows)
        assert text.endswith("\n")

    def test_json_round_trip(self):
        rep = run_survey(SurveyConfig(nmax=100))
        payload = json.loads(survey_json(rep))
        assert payload["schema"] == "sparsemod-survey-v5"
        assert len(payload["rows"]) == len(rep.rows)
        assert payload["config"] == {"nmax": 100, "sequence": "fibonacci:1..3"}
        assert all(isinstance(row["l2sq"], int) for row in payload["rows"])
        assert payload["aggregates"] == rep.aggregates

    def test_byte_determinism(self, tmp_path):
        """Serial and pooled reports stream the bytes of the whole-text
        composition, and the string renderers return the same."""
        rep1 = run_survey(SurveyConfig(nmax=600))
        rep2 = run_survey(SurveyConfig(nmax=600, workers=2))
        for fmt, render, compose in (("csv", survey_csv, composed_csv),
                                     ("json", survey_json, composed_json)):
            want = compose(rep1)
            for name, rep in (("serial", rep1), ("pool", rep2)):
                out = tmp_path / f"{name}.{fmt}"
                write_report(rep, str(out), fmt)
                assert out.read_bytes() == want.encode()
                assert render(rep) == want

    def test_writer_memory_is_bounded(self, tmp_path):
        """A 9592-row report (one row per prime below 10^5) is encoded into
        its file; built whole, the JSON text peaked at 26.9 MB."""
        small = run_survey(SurveyConfig(nmax=100))
        rows = tuple(dataclasses.replace(small.rows[i % len(small.rows)], p=p)
                     for i, p in enumerate(sieve_primes(10**5)))
        big = dataclasses.replace(small, rows=rows)
        assert len(big.rows) == 9592
        tracemalloc.start()
        try:
            write_report(big, str(tmp_path / "big.json"), "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10**6

    def test_write_rejects_unknown_format(self, tmp_path):
        rep = run_survey(SurveyConfig(nmax=50))
        with pytest.raises(ConfigError):
            write_report(rep, str(tmp_path / "x"), "xml")
        assert not (tmp_path / "x").exists()


class TestOrdersSurvey:
    def test_small_brute_force(self):
        rep = orders_survey(50, 0.5)
        by_p = {row.p: row for row in rep.rows}
        assert by_p[2].t_p is None
        for p in sieve_primes(50):
            assert by_p[p].z_p == order_of_appearance(p)
            if p > 2:
                assert by_p[p].t_p == mult_order(2, p)
        # recompute the fractions: z_p > sqrt(p), exact comparison
        zf = sum(1 for row in rep.rows if row.z_p**2 > row.p) / len(rep.rows)
        assert rep.z_fraction == pytest.approx(zf)

    def test_rows_are_prime_records(self):
        assert list(orders_survey(500).rows) == [prime_record(p) for p in sieve_primes(500)]

    def test_no_primality_tests(self, monkeypatch):
        """The sieve's primes are prime by construction; order_table runs no
        Miller-Rabin on them."""
        import sparsemod.numtheory as nt

        calls = []
        real = nt.is_prime
        monkeypatch.setattr(nt, "is_prime", lambda n: calls.append(n) or real(n))
        assert len(orders_survey(2000).rows) == 303
        assert calls == []

    def test_threshold_zero_counts_everything(self):
        rep = orders_survey(100, 0.0)
        assert rep.z_fraction == 1.0    # z(p) >= 1 > p^0 is false... z > 1 holds
        assert rep.t_fraction == 1.0

    def test_rejects_tiny_bound(self):
        with pytest.raises(ConfigError):
            orders_survey(1, 0.5)

    @pytest.mark.parametrize("nmax, threshold", [(1000, 0.1234567), (1000, 10**6)])
    def test_fine_grained_threshold_is_refused_before_the_sweep(self, nmax, threshold,
                                                                 monkeypatch):
        """p^a for a threshold a/b with bits(p) * max(a, b) above POWER_BITS
        is refused before order_table runs; unguarded, both ran past 20 s."""
        def no_sweep(primes):
            raise AssertionError("order_table ran")

        monkeypatch.setattr(survey_mod, "order_table", no_sweep)
        with pytest.raises(GuardError, match="too fine-grained"):
            orders_survey(nmax, threshold)


class TestParseSequenceSpec:
    def test_families(self):
        assert parse_sequence_spec("fib:1..40") == SequenceSpec.fibonacci(1, 40)
        assert parse_sequence_spec("fibonacci:2..5") == SequenceSpec.fibonacci(2, 5)
        assert parse_sequence_spec("lucas:1..10") == SequenceSpec.lucas(1, 10)
        assert parse_sequence_spec("fib2:3..9") == SequenceSpec.fibonacci_even(3, 9)
        assert parse_sequence_spec("pow:2:1..20") == SequenceSpec.power(2, 1, 20)
        assert parse_sequence_spec("list:1,8,15") == SequenceSpec.explicit((1, 8, 15))

    def test_file_input(self, tmp_path):
        f = tmp_path / "vals.txt"
        f.write_text("21 3 999\n5\n")
        assert parse_sequence_spec(str(f)) == SequenceSpec.explicit((3, 5, 21, 999))

    def test_file_with_duplicates_rejected(self, tmp_path):
        f = tmp_path / "vals.txt"
        f.write_text("7 7 9\n")
        with pytest.raises(ConfigError):
            parse_sequence_spec(str(f))

    def test_errors(self):
        for bad in ("fib:5", "weird:1..2", "pow:1..5", "list:", "fib:a..b"):
            with pytest.raises(ConfigError):
                parse_sequence_spec(bad)


def golden_runs(path):
    """(argv, expected stdout) for each '$ sparsemod ...' block of path."""
    runs = []
    for line in path.read_text().splitlines(keepends=True):
        if line.startswith("$ "):
            runs.append((shlex.split(line[2:])[1:], ""))
        else:
            runs[-1] = (runs[-1][0], runs[-1][1] + line)
    return runs


@pytest.mark.parametrize(
    "argv, want", golden_runs(Path(__file__).parent / "data" / "waring_cli_golden.txt"),
    ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_waring_golden_output(argv, want, capsys):
    """waring prints the recorded bytes in all three modes: the README
    examples and windows far longer than one Pisano period."""
    assert main(argv) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize(
    "argv, want", golden_runs(Path(__file__).parent / "data" / "sweep_cli_golden.txt"),
    ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_sweep_golden_output(argv, want, capsys):
    """orders and jcount print the bytes recorded from the per-prime loops
    the sweep path replaced, and jcount's pairscan oracle agrees."""
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def no_zero_fibonacci(n, p):
    """A planted sweep Fibonacci kernel under which F_n = F_{n+1} = 1 mod
    every p, so no divisor of p - (5|p) annihilates F."""
    one = np.ones(np.broadcast_shapes(np.shape(n), np.shape(p)), dtype=np.int64)
    return one, one


class TestCliExitCodes:
    def test_survey_ok(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["survey", "--nmax", "500", "--out", str(out),
                     "--format", "csv"])
        assert code == 0
        assert out.exists()
        assert "surveyed 95 primes" in capsys.readouterr().out

    def test_bad_flag_is_config_error(self, capsys):
        assert main(["survey", "--nmax", "bad", "--out", "x", "--format",
                     "csv"]) == 1
        assert main(["littlewood", "--p", "11", "--nmax", "5"]) == 1   # p > N
        assert main(["nonsense"]) == 1
        assert main(["waring", "--p", "10"]) == 1                      # not prime

    def test_guard_exit(self, capsys):
        code = main(["littlewood", "--p", "1000003", "--nmax", "1000003"])
        assert code == 2

    def test_waring_direct_guard_exit(self, capsys):
        """Above PRODUCT_GUARD the direct search exits 2 before it allocates
        its p-byte flag array or p-bit masks."""
        p = next(q for q in itertools.count(PRODUCT_GUARD + 1) if is_prime(q))
        tracemalloc.start()
        try:
            code = main(["waring", "--mode", "direct", "--p", str(p)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 10**6
        assert "guard exceeded" in capsys.readouterr().err

    def test_invariant_exit(self, capsys, monkeypatch):
        import sparsemod.cli as cli_mod
        from sparsemod.errors import InvariantError

        def boom(args):
            raise InvariantError("planted")

        monkeypatch.setitem(cli_mod._COMMANDS, "orders", boom)
        assert main(["orders", "--nmax", "100"]) == 3

    def test_survey_invariant_row_exits_3_after_report(self, tmp_path, capsys,
                                                       monkeypatch):
        import sparsemod.survey as survey_mod
        real = survey_mod.norm_report

        def planted(ms):
            if ms.p == 13:
                raise InvariantError("planted")
            return real(ms)

        monkeypatch.setattr(survey_mod, "norm_report", planted)
        out = tmp_path / "r.json"
        code = main(["survey", "--nmax", "100", "--out", str(out), "--format", "json"])
        assert code == 3
        rows = {r["p"]: r for r in json.loads(out.read_text())["rows"]}
        assert rows[13]["status"] == "invariant:planted"
        assert sum(r["status"].startswith("invariant:") for r in rows.values()) == 1
        assert "invariant failed" in capsys.readouterr().err

    def test_survey_headline_below_threshold_exits_3_after_report(self, tmp_path,
                                                                   capsys, monkeypatch):
        """At N >= 10^4 a headline fraction below PASS_THRESHOLD exits 3, and
        the report is still written."""
        monkeypatch.setattr(survey_mod, "PASS_THRESHOLD", 1.5)
        out = tmp_path / "r.csv"
        assert main(["survey", "--nmax", "10000", "--out", str(out), "--format", "csv"]) == 3
        assert len(out.read_text().splitlines()) == 2 + len(sieve_primes(10000))
        assert "headline fractions below threshold" in capsys.readouterr().err

    def test_jcount_oracle_mismatch_exits_3(self, capsys, monkeypatch):
        import sparsemod.cli as cli_mod

        real = cli_mod.j_total_pairscan
        monkeypatch.setattr(cli_mod, "j_total_pairscan", lambda vals, n: real(vals, n) + 2)
        assert main(["jcount", "--values", "fib:1..40", "--nmax", "1000", "--oracle"]) == 3
        captured = capsys.readouterr()
        assert "pairscan oracle" in captured.out
        assert "oracle mismatch" in captured.err

    def test_survey_orders_failure_keeps_report(self, tmp_path, capsys, monkeypatch):
        import sparsemod.numtheory as nt

        monkeypatch.setattr(nt, "fib_mod", lambda n, m: 1)
        out = tmp_path / "r.csv"
        code = main(["survey", "--nmax", "50", "--out", str(out), "--format", "csv"])
        assert code == 3
        lines = out.read_text().splitlines()
        assert len(lines) == 2 + len(sieve_primes(50))
        for line in lines[2:]:
            p, t_p, z_p, leg5, s_min, _, *rest, status = line.split(",")
            assert (t_p, z_p, leg5, s_min) == ("", "", "", "")
            assert rest == [""] * 6
            assert status.startswith("invariant:") and status.endswith(f"annihilates F mod {p}")

    def test_survey_stage_failure_empties_later_fields(self, capsys, monkeypatch):
        import sparsemod.survey as survey_mod
        from sparsemod.errors import GuardError
        real = survey_mod.waring_fib_direct

        def planted(p, max_index, s_max):
            if p == 13:
                raise GuardError("planted")
            return real(p, max_index, s_max)

        monkeypatch.setattr(survey_mod, "waring_fib_direct", planted)
        rows = {r.p: r for r in run_survey(SurveyConfig(nmax=50)).rows}
        bad = rows[13]
        assert bad.status == "guard:planted"
        assert (bad.t_p, bad.z_p, bad.legendre5) == (12, 7, -1)
        assert bad.waring_s_min is bad.l1 is bad.energy is bad.vs_size is None
        assert all(r.status in ("ok", "partial:t_p") for p, r in rows.items() if p != 13)

    def test_oversized_block_is_refused_at_once(self, capsys):
        """A block longer than SIZE_GUARD is refused when its spec is built,
        before any of its terms is stepped: littlewood exits 2 on a
        10^12-term block, and no survey config can hold one."""
        assert main(["littlewood", "--p", "997", "--nmax", str(10**40)]) == 2
        assert "guard exceeded: block of 1000000000000 terms" in capsys.readouterr().err
        with pytest.raises(GuardError, match="block of 1000000000000 terms"):
            parse_sequence_spec("fib:1..1000000000000")
        with pytest.raises(GuardError, match="block of 1000000000000 terms"):
            run_survey(SurveyConfig(nmax=10**40))

    def test_survey_oversized_block_exits_2(self, tmp_path, capsys):
        """The block is refused when --sequence is parsed, before any row,
        and no report is written."""
        out = tmp_path / "r.csv"
        assert main(["survey", "--nmax", "30", "--sequence", "fib:1..1000000000000",
                     "--format", "csv", "--out", str(out)]) == 2
        assert "guard exceeded: block of 1000000000000 terms" in capsys.readouterr().err
        assert not out.exists()

    def test_sweeps_refuse_n_above_the_product_guard_at_once(self, tmp_path, capsys,
                                                              monkeypatch):
        """The sieve refuses a limit above PRODUCT_GUARD before it allocates
        its mask, so every sweep command exits 2 at once (a limit of 4*10^9
        would take a 4 GB mask first); here the guard is lowered to 1000."""
        import sparsemod.numtheory as nt

        monkeypatch.setattr(nt, "PRODUCT_GUARD", 1000)
        assert len(sieve_primes(1000)) == 168
        with pytest.raises(GuardError, match="limit 1001 exceeds the guard 1000"):
            sieve_primes(1001)
        out = tmp_path / "r.csv"
        for argv in (["orders", "--nmax", "1001"],
                     ["jcount", "--values", "fib:1..60", "--nmax", "1001"],
                     ["survey", "--nmax", "1001", "--format", "csv", "--out", str(out)]):
            assert main(argv) == 2
            assert "guard exceeded: limit 1001" in capsys.readouterr().err
        assert not out.exists()

    def test_orders_without_zero_divisor_exits_3(self, capsys, monkeypatch):
        import sparsemod.numtheory as nt

        monkeypatch.setattr(nt, "fib_pair_array", no_zero_fibonacci)
        assert main(["orders", "--nmax", "20"]) == 3
        assert "annihilates" in capsys.readouterr().err

    def test_survey_epsilon_flag_is_gone(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["survey", "--nmax", "100", "--epsilon", "0.25",
                     "--out", str(out), "--format", "json"]) == 1
        assert not out.exists()

    def test_smax_flag_is_gone(self, tmp_path, capsys):
        """The Waring budget is the paper's 16, not a flag or a config key."""
        out = tmp_path / "r.json"
        assert main(["survey", "--nmax", "100", "--smax", "20",
                     "--out", str(out), "--format", "json"]) == 1
        assert not out.exists()
        assert main(["waring", "--p", "101", "--smax", "5"]) == 1
        assert main(["survey", "--nmax", "100", "--out", str(out), "--format", "json"]) == 0
        assert "s_max" not in json.loads(out.read_text())["config"]

    @pytest.mark.parametrize("argv", [
        ["survey", "--nmax", "100", "--gamma", "0.3"],
        ["survey", "--nmax", "100", "--delta-exp", "0.4"],
        ["survey", "--nmax", "100", "--vs-delta", "10"],
        ["waring", "--p", "101", "--delta-exp", "0.4"],
        ["littlewood", "--p", "997", "--nmax", "997", "--gamma", "0.3"],
        ["orders", "--nmax", "100", "--threshold", "0.5"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_fixed_parameter_flags_are_gone(self, argv, tmp_path, capsys):
        """gamma, rho, the value-set tolerance and the orders threshold 1/2
        are the paper's constants; the survey block is set by --sequence, the
        window factor by --delta, and littlewood's other block by --base."""
        out = tmp_path / "r.csv"
        if argv[0] == "survey":
            argv = argv + ["--out", str(out), "--format", "csv"]
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values", ["fib:1..30000", "fib:1..1000000000000"])
    def test_jcount_refuses_an_oversized_block_before_the_sweep(self, values, capsys,
                                                                 monkeypatch):
        """Both guards come before the sweep: the digit guard on the exact
        values refuses a 30000-term block, which at N = 10^5 swept for seconds
        first, and the spec's block guard a 10^12-term block, which failed to
        allocate its matrix."""
        import sparsemod.valueset as valueset

        def no_sweep(*args):
            raise AssertionError("the block was swept")

        monkeypatch.setattr(valueset, "block_stats", no_sweep)
        assert main(["jcount", "--values", values, "--nmax", "100000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("guard exceeded:") and "Traceback" not in err

    def test_jcount_oracle(self, capsys):
        code = main(["jcount", "--values", "list:1,2,3", "--nmax", "5",
                     "--oracle"])
        assert code == 0
        out = capsys.readouterr().out
        assert "J(5) = 11" in out
        assert "oracle agrees" in out

    def test_waring_modes(self, capsys):
        assert main(["waring", "--p", "101", "--mode", "direct"]) == 0
        assert main(["waring", "--p", "101", "--nmax", "5000", "--mode",
                     "constructive", "--delta", "5.0", "--lambda", "17"]) == 0
        out = capsys.readouterr().out
        assert "|F|=25 |L|=13" in out

    def test_waring_direct_honours_delta(self, capsys):
        """max_index = ceil(delta sqrt(N)) with --delta, else delta(N)."""
        assert main(["waring", "--p", "101", "--nmax", "5000", "--mode", "direct",
                     "--delta", "5.0"]) == 0
        assert "max_index=354 " in capsys.readouterr().out
        assert main(["waring", "--p", "101", "--nmax", "5000", "--mode", "direct"]) == 0
        default = math.ceil(delta_of(5000) * math.sqrt(5000))
        assert f"max_index={default} " in capsys.readouterr().out

    def test_littlewood_prints_the_survey_norms(self, capsys):
        """Without --base, littlewood runs the survey's own block
        fib:1..floor(N^(3/10)): at N = 3000 it prints the l1 repr, l2sq and
        energy of the survey row for p, at eight seeded primes."""
        rows = {r.p: r for r in run_survey(SurveyConfig(nmax=3000)).rows}
        primes = [2, 2999] + random.Random(3000).sample(sieve_primes(2998)[1:], 6)
        for p in primes:
            assert main(["littlewood", "--p", str(p), "--nmax", "3000"]) == 0
            row = rows[p]
            assert (f"L1={row.l1!r} L2sq={row.l2sq!r} energy={row.energy}\n"
                    in capsys.readouterr().out), p

    def test_littlewood_pow_mode(self, capsys):
        assert main(["littlewood", "--p", "101", "--nmax", "10",
                     "--base", "2"]) == 0
        assert "energy=218" in capsys.readouterr().out


class TestCliSubprocess:
    def test_console_entry_byte_identical_runs(self, tmp_path):
        """Two survey runs with equal configs write identical bytes."""
        outs = []
        for name in ("one.json", "two.json"):
            path = tmp_path / name
            r = subprocess.run(
                [sys.executable, "-m", "sparsemod.cli", "survey",
                 "--nmax", "800", "--out", str(path), "--format", "json"],
                capture_output=True, text=True)
            assert r.returncode == 0, r.stderr
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestCliBadInput:
    """Malformed numbers and unusable paths exit 1 with an `error:` line;
    main() raising instead would fail the test with the traceback."""

    @staticmethod
    def assert_config_error(argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["survey", "--nmax", "1"],
        ["survey", "--nmax", "100", "--threads", "0"],
        ["survey", "--nmax", "100", "--sequence", "fib:0..5"],
        ["survey", "--nmax", "100", "--out", "missing_dir/x.csv"],
    ])
    def test_survey_rejects_before_any_row(self, argv, tmp_path, monkeypatch, capsys):
        import sparsemod.survey as survey_mod

        def no_rows(job):
            raise AssertionError("a survey row ran")

        monkeypatch.setattr(survey_mod, "_survey_row", no_rows)
        monkeypatch.chdir(tmp_path)
        if "--out" not in argv:
            argv = argv + ["--out", "r.csv"]
        self.assert_config_error(argv + ["--format", "csv"], capsys)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["waring", "--p", "97", "--nmax", "129140163", "--mode", "epsilon",
         "--epsilon", "abc"],
        ["waring", "--p", "97", "--nmax", "129140163", "--mode", "epsilon",
         "--epsilon", "nan"],
        ["waring", "--p", "97", "--nmax", "129140163", "--mode", "epsilon",
         "--epsilon", "1/0"],
        ["waring", "--p", "101", "--nmax", "5000", "--mode", "constructive",
         "--delta", "nan"],
        ["waring", "--p", "101", "--nmax", "5000", "--mode", "constructive",
         "--delta", "inf"],
        ["waring", "--p", "101", "--nmax", "5000", "--mode", "direct",
         "--delta", "nan"],
    ])
    def test_non_finite_numbers(self, argv, capsys):
        self.assert_config_error(argv, capsys)

    def test_sequence_file_with_a_non_integer(self, tmp_path, capsys):
        f = tmp_path / "vals.txt"
        f.write_text("1 2 x\n")
        self.assert_config_error(["jcount", "--values", str(f), "--nmax", "10"], capsys)

    def test_directory_as_values(self, tmp_path, capsys):
        self.assert_config_error(["jcount", "--values", str(tmp_path), "--nmax", "10"],
                                 capsys)

    def test_unwritable_report_path(self, tmp_path, capsys):
        """An --out that names a directory fails at the write, as an OSError."""
        self.assert_config_error(["survey", "--nmax", "50", "--out", str(tmp_path),
                                  "--format", "csv"], capsys)
