"""The tracer: nested spans, self time, counters, and the pooled survey."""

import itertools
import json

import pytest

import sparsemod
from perfbench import tracing, workloads
from perfbench.stats import Tally
from sparsemod.survey import SurveyConfig


def test_dispatch_is_self_time_of_run_survey(monkeypatch):
    clock = itertools.count()
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(clock)))
    tracer = tracing.Tracer()
    run = tracer.open("survey.run")                 # t = 0
    for _ in range(2):
        row = tracer.open("survey.row")             # t = 1, 5
        inner = tracer.open("expsums.norm")         # t = 2, 6
        tracer.close(inner)                         # t = 3, 7
        tracer.close(row)                           # t = 4, 8
    tracer.close(run)                               # t = 9
    m = tracing.layer_metrics(tracer)
    # rows cover [1, 4] and [5, 8]; the nested norm spans are not run's children
    assert m["survey.dispatch_s"] == (9 - 6, "s")
    assert m["survey.rows"] == (2, "count")
    assert m["expsums.norm_s"] == (2.0, "s")
    assert m["survey.row_s_p50"] == (3.0, "s")


def test_traced_restores_the_program():
    original = sparsemod.survey.norm_report
    from_spec = vars(sparsemod.valueset.ResidueMultiset)["from_spec"]
    with tracing.traced(tracing.Tracer()):
        assert sparsemod.survey.norm_report is not original
        assert sparsemod.expsums.norm_report is sparsemod.survey.norm_report
    assert sparsemod.survey.norm_report is original
    assert sparsemod.expsums.norm_report is original
    assert vars(sparsemod.valueset.ResidueMultiset)["from_spec"] is from_spec


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_survey_counts_every_row(workers):
    tracer = tracing.Tracer()
    config = SurveyConfig(nmax=300, workers=workers)
    with tracing.traced(tracer):
        traced = sparsemod.survey.run_survey(config)
    plain = sparsemod.survey.run_survey(config)
    assert sparsemod.survey.survey_json(traced) == sparsemod.survey.survey_json(plain)
    m = tracing.layer_metrics(tracer)
    primes = len(plain.rows)
    assert m["survey.rows"][0] == primes
    assert m["numtheory.orders_calls"][0] == 2 * primes - 1   # no t_p at p = 2
    assert m["expsums.spectrum_evals"][0] == sum(p // 2 + 1 for p in (r.p for r in plain.rows))
    assert m["sumsets.recurrence_steps"][0] == primes * config.waring_max_index()
    assert 0 < m["survey.dispatch_s"][0] < sum(end - start for _, start, end, *_ in tracer.spans)


def test_survey_check_counts_failed_rows(tmp_path):
    wl = workloads.Survey(1, str(tmp_path))
    rows = [{"p": p, "t_p": 1, "z_p": 3, "legendre5": -1, "waring_s_min": 2,
             "waring_max_index": 9, "energy": 5, "vs_size": 3, "vs_distinct": 3,
             "status": "ok", "l1": 1.5, "l2sq": 3.0, "l1_ratio": 0.5}
            for p in (2, 3, 5, 7)]
    report = {"rows": rows, "aggregates": {"rows": 4, "chain_fraction": 1.0}}
    data = json.dumps(report).encode()
    wl.reference = workloads.survey_reference(data)

    def check(rows, code=0):
        (tmp_path / "survey-serial.json").write_bytes(json.dumps(dict(report, rows=rows)).encode())
        wl.first_report = None
        tally = Tally()
        wl.check_pass({"survey": code}, tally, 0)
        return tally

    assert check(rows).failed == 0
    shifted = [dict(r) for r in rows]
    shifted[1]["l1"] = 1.5 * (1 + 1e-6)           # beyond RTOL: one row fails
    assert check(shifted).failed_frac == 0.25
    close = [dict(r, l1=1.5 * (1 + 1e-12)) for r in rows]   # last-bit change passes
    assert check(close).failed == 0
    wrong_int = [dict(r) for r in rows]
    wrong_int[0]["energy"] = 6                    # digest mismatch fails every row
    assert check(wrong_int).failed == 4
    bad_status = [dict(r) for r in rows]
    bad_status[2]["status"] = "invariant:chain"   # status is an exact column too
    assert check(bad_status).failed == 4
    assert check(rows, code=3).failed == 4
    assert check(rows, code=RuntimeError("boom")).failed == 4
