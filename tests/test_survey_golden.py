"""The survey report at N = 3000 against a committed golden copy.

Integer columns and the status must match exactly.  L1 may move in its
last bits with the BLAS or libm underneath, so it is held within 2E of the
committed value, E = expsums._l1_error of the row's multiset: both runs lie
within E of the true L1.
"""

import csv
import io
import math
from pathlib import Path

import pytest

import sparsemod.expsums as expsums
from sparsemod import SurveyConfig, run_survey, survey_csv
from sparsemod.valueset import ResidueMultiset, SequenceSpec

GOLDEN = Path(__file__).parent / "data" / "survey_3000.csv"
CONFIG = SurveyConfig(nmax=3000)

INT_COLUMNS = ("p", "t_p", "z_p", "legendre5", "waring_s_min", "waring_max_index",
               "l2sq", "energy", "vs_size", "vs_distinct")


def _table(text):
    lines = text.splitlines()
    return lines[0], list(csv.DictReader(lines[1:]))


def survey_mismatches(got: str, want: str, spec: SequenceSpec) -> list[str]:
    """Every way the CSV report `got` differs from `want` beyond L1's error
    bound, for a survey of the block `spec`; empty when they agree."""
    (got_schema, got_rows), (want_schema, want_rows) = _table(got), _table(want)
    out = []
    if got_schema != want_schema:
        out.append(f"schema {got_schema!r}, want {want_schema!r}")
    if len(got_rows) != len(want_rows):
        out.append(f"{len(got_rows)} rows, want {len(want_rows)}")
    for g, w in zip(got_rows, want_rows):
        if g.keys() != w.keys():
            out.append(f"columns {list(g)}, want {list(w)}")
            break
        where = f"p={w['p']}"
        for col in INT_COLUMNS + ("status",):
            if g[col] != w[col]:
                out.append(f"{where} {col}={g[col]!r}, want {w[col]!r}")
        if not w["l1"] or not g["l1"]:
            if g["l1"] != w["l1"] or g["l1_ratio"] != w["l1_ratio"]:
                out.append(f"{where} l1={g['l1']!r}, want {w['l1']!r}")
            continue
        bound = 2 * expsums._l1_error(ResidueMultiset.from_spec(spec, int(w["p"])))
        l1 = float(w["l1"])
        if not abs(float(g["l1"]) - l1) <= bound:
            out.append(f"{where} l1={g['l1']}, want {w['l1']} within {bound:.3g}")
        root = math.sqrt(int(w["vs_size"]))
        if not abs(float(g["l1_ratio"]) - l1 / root) <= bound / root:
            out.append(f"{where} l1_ratio={g['l1_ratio']}, want {l1 / root!r} "
                       f"within {bound / root:.3g}")
    return out


@pytest.fixture(scope="module")
def golden():
    return GOLDEN.read_text()


@pytest.fixture(scope="module")
def spec():
    return CONFIG.resolved_sequence()


def _replace(text, row, col, value):
    """The report `text` with one cell set to `value`."""
    header, body = text.split("\n", 1)
    rows = list(csv.reader(io.StringIO(body)))
    rows[row + 1][rows[0].index(col)] = value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return header + "\n" + buf.getvalue()


def _cell(text, row, col):
    return _table(text)[1][row][col]


def test_survey_matches_the_golden_report(golden, spec):
    got = survey_csv(run_survey(CONFIG))
    assert len(_table(golden)[1]) == 430
    assert survey_mismatches(got, golden, spec) == []


@pytest.mark.parametrize("col", INT_COLUMNS)
def test_plus_one_in_an_integer_column_fails(golden, spec, col):
    row = 1 if col == "t_p" else 0          # p = 2 has no t_p
    value = _cell(golden, row, col)
    planted = str(int(value) + 1)
    assert survey_mismatches(_replace(golden, row, col, planted), golden, spec)


def test_status_change_fails(golden, spec):
    assert survey_mismatches(_replace(golden, 1, "status", "partial:t_p"), golden, spec)


@pytest.mark.parametrize("col", ("l1", "l1_ratio"))
def test_l1_plant_of_three_e_fails_and_of_e_passes(golden, spec, col):
    row = 100
    p = int(_cell(golden, row, "p"))
    e = expsums._l1_error(ResidueMultiset.from_spec(spec, p))
    if col == "l1_ratio":
        e /= math.sqrt(int(_cell(golden, row, "vs_size")))
    value = float(_cell(golden, row, col))
    for sign in (1, -1):
        assert survey_mismatches(_replace(golden, row, col, repr(value + sign * 3 * e)),
                                 golden, spec)
        assert survey_mismatches(_replace(golden, row, col, repr(value + sign * e)),
                                 golden, spec) == []
