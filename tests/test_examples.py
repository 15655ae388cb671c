"""Smoke tests: every example script runs to completion.

Examples are the public face of the library; they must never rot.
Each is executed in-process (runpy) with stdout captured, and a couple
of headline strings are asserted so silent degradation is caught too.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def run_example(name: str, capsys) -> str:
    path = EXAMPLES_DIR / name
    assert path.exists(), f"missing example {name}"
    argv = sys.argv
    try:
        sys.argv = [str(path)]
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = argv
    return capsys.readouterr().out


class TestExamplesRun:
    def test_all_examples_discovered(self):
        assert len(ALL_EXAMPLES) >= 6

    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "no preprocessing" in out
        assert "Algo_NGST" in out
        assert "bit accounting" in out

    def test_ngst_pipeline(self, capsys):
        out = run_example("ngst_pipeline.py", capsys)
        assert "cosmic rays struck" in out
        assert "with Algo_NGST" in out
        assert "downlink" in out

    def test_otis_thermal_mapping(self, capsys):
        out = run_example("otis_thermal_mapping.py", capsys)
        assert "CATASTROPHE" in out
        assert "geyser kept" in out

    def test_fits_header_recovery(self, capsys):
        out = run_example("fits_header_recovery.py", capsys)
        assert "bit-exact: True" in out
        assert "repair" in out

    def test_sensitivity_tuning(self, capsys):
        out = run_example("sensitivity_tuning.py", capsys)
        assert "optimum L" in out

    def test_fault_campaign(self, capsys):
        out = run_example("fault_campaign.py", capsys)
        assert "uncorrelated" in out
        assert "transit burst" in out
