"""Each demo prints the bytes recorded in tests/data/demos/<name>.txt."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_stdout(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    want = (ROOT / "tests" / "data" / "demos" / f"{demo.stem}.txt").read_text()
    assert capsys.readouterr().out == want
