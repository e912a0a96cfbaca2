"""Survey rows and aggregates, report serialization, and the CLI contract."""

import json
import math
import subprocess
import sys

import pytest

from sparsemod import (
    ConfigError,
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
from sparsemod.cli import main, parse_sequence_spec
from sparsemod.survey import CSV_COLUMNS, delta_of
from sparsemod.valueset import ResidueMultiset


class TestSurveyConfig:
    def test_defaults_resolve(self):
        cfg = SurveyConfig(nmax=2000)
        seq = cfg.resolved_sequence()
        assert seq == SequenceSpec.fibonacci(1, 9)   # floor(2000^0.3) = 9
        assert cfg.waring_max_index() == math.ceil(
            delta_of(2000, 0.4) * math.sqrt(2000))

    def test_validation(self):
        with pytest.raises(ConfigError):
            SurveyConfig(nmax=1)
        with pytest.raises(ConfigError):
            SurveyConfig(nmax=100, gamma=0.5)
        with pytest.raises(ConfigError):
            SurveyConfig(nmax=100, workers=0)

    def test_delta_of_monotone(self):
        assert delta_of(100, 0.4) < delta_of(10**4, 0.4) < delta_of(10**6, 0.4)
        assert delta_of(10**4, 0.0) == pytest.approx(math.e)


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
        cfg = SurveyConfig(nmax=300, gamma=0.3)
        rep = run_survey(cfg)
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
        assert row.l2sq == 129
        assert ",129.0," in survey_csv(rep)

    def test_status_column(self):
        rep = run_survey(SurveyConfig(nmax=50))
        by_p = {r.p: r for r in rep.rows}
        assert by_p[2].status == "partial:t_p"
        assert by_p[2].t_p is None
        assert all(r.status == "ok" for r in rep.rows if r.p != 2)


class TestSerialization:
    def test_csv_shape(self):
        rep = run_survey(SurveyConfig(nmax=100))
        text = survey_csv(rep)
        lines = text.splitlines()
        assert lines[0] == "# sparsemod-survey-v4"
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2 + len(rep.rows)
        assert text.endswith("\n")

    def test_json_round_trip(self):
        rep = run_survey(SurveyConfig(nmax=100))
        payload = json.loads(survey_json(rep))
        assert payload["schema"] == "sparsemod-survey-v4"
        assert len(payload["rows"]) == len(rep.rows)
        assert payload["config"]["nmax"] == 100
        assert "epsilon" not in payload["config"]
        assert "workers" not in payload["config"]
        assert payload["aggregates"] == rep.aggregates

    def test_byte_determinism(self, tmp_path):
        rep1 = run_survey(SurveyConfig(nmax=600))
        rep2 = run_survey(SurveyConfig(nmax=600, workers=2))
        for fmt in ("csv", "json"):
            f1 = tmp_path / f"a.{fmt}"
            f2 = tmp_path / f"b.{fmt}"
            write_report(rep1, str(f1), fmt)
            write_report(rep2, str(f2), fmt)
            assert f1.read_bytes() == f2.read_bytes()

    def test_write_rejects_unknown_format(self, tmp_path):
        rep = run_survey(SurveyConfig(nmax=50))
        with pytest.raises(ConfigError):
            write_report(rep, str(tmp_path / "x"), "xml")


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

    def test_threshold_zero_counts_everything(self):
        rep = orders_survey(100, 0.0)
        assert rep.z_fraction == 1.0    # z(p) >= 1 > p^0 is false... z > 1 holds
        assert rep.t_fraction == 1.0

    def test_rejects_tiny_bound(self):
        with pytest.raises(ConfigError):
            orders_survey(1, 0.5)


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
        assert main(["littlewood", "--p", "11", "--nmax", "5"]) == 1   # no block
        assert main(["nonsense"]) == 1
        assert main(["waring", "--p", "10"]) == 1                      # not prime

    def test_guard_exit(self, capsys):
        code = main(["littlewood", "--p", "1000003", "--nmax", "1000003",
                     "--gamma", "0.3"])
        assert code == 2

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

    def test_orders_without_zero_divisor_exits_3(self, capsys, monkeypatch):
        import sparsemod.numtheory as nt

        monkeypatch.setattr(nt, "fib_mod", lambda n, m: 1)
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
        default = math.ceil(delta_of(5000, SurveyConfig.delta_exponent) * math.sqrt(5000))
        assert f"max_index={default} " in capsys.readouterr().out

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
        ["survey", "--nmax", "100", "--vs-delta", "nan"],
        ["survey", "--nmax", "100", "--vs-delta", "inf"],
        ["survey", "--nmax", "100", "--delta-exp", "nan"],
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
        ["littlewood", "--p", "997", "--nmax", "997", "--gamma", "nan"],
        ["orders", "--nmax", "100", "--threshold", "nan"],
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
