"""Outputs of the demo configs against the goldens in ``tests/golden/``.

Each golden is the CLI output of one ``demos/configs/`` file.  Every CSV cell
and report line must match byte for byte, except the columns and report
lines a change has declared numerically changed below; those must match at
the stated rtol.
"""

import csv
import math
import re
from pathlib import Path

import pytest

from mwqi.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"

# The closed-form discord replaced the measurement search: last digits move.
# Negativity and coherent information moved when states went from 80-bit
# long double to float64 standard-form numbers, by at most 3.9e-8 and 7.7e-9
# relative.  That is at most 2e-14 bits per photon, at n_w ~ 1e7 next to the
# instability edge, where ab - c^2 is the difference of products near 1e14.
# The discord golden itself is up to 1.9e-8 relative from a 60-digit
# evaluation of the same moments.  Accuracy is guarded in absolute terms, at
# 1e-12 bits per photon, by test_correlation_columns_match_exact_oracle in
# test_correlations.py.
# The error probabilities moved when erfcx and exp gave way to the stdlib
# erfc: 129 of the 139 normal p_qi/p_coh cells of the fig3 curves, by at most
# 6.0e-14 relative, each new cell within 2.3e-16 of exact (the old ones were
# up to 6.0e-14 off); one subnormal cell moved by one step, 4.9e-324.
# Accuracy is guarded at 1e-15 relative by
# test_error_probability_matches_exact_oracle in test_detection.py.
DECLARED_COLUMNS = {
    "discord_per_photon": 1e-8,
    "log_neg_per_photon": 1e-7,
    "coh_info_per_photon": 1e-7,
    "p_qi": 1e-13,
    "p_coh": 1e-13,
}
DECLARED_LINES = {"D = ": 1e-8}  # report lines, by prefix

_NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def _numbers_close(got: str, want: str, rtol: float) -> bool:
    # the absolute floor is a few subnormal steps (4.9e-324 each)
    return math.isclose(float(got), float(want), rel_tol=rtol, abs_tol=1e-322)


def _compare_csv(got: list[str], want: list[str]) -> None:
    meta = [line for line in want if line.startswith("#")]
    assert got[:len(meta)] == meta
    got_rows = list(csv.reader(got[len(meta):]))
    want_rows = list(csv.reader(want[len(meta):]))
    header = want_rows[0]
    assert got_rows[0] == header
    assert len(got_rows) == len(want_rows)
    for row, (got_row, want_row) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        assert len(got_row) == len(header), row
        for column, got_cell, want_cell in zip(header, got_row, want_row):
            rtol = DECLARED_COLUMNS.get(column)
            if rtol is None or not want_cell:
                assert got_cell == want_cell, (row, column)
            else:
                assert got_cell and _numbers_close(got_cell, want_cell, rtol), (row, column)


def _compare_report(got: list[str], want: list[str]) -> None:
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        rtol = next((tol for prefix, tol in DECLARED_LINES.items()
                     if want_line.startswith(prefix)), None)
        if rtol is None:
            assert got_line == want_line
            continue
        assert _NUMBER.sub("#", got_line) == _NUMBER.sub("#", want_line)
        for got_num, want_num in zip(_NUMBER.findall(got_line), _NUMBER.findall(want_line)):
            assert _numbers_close(got_num, want_num, rtol), (got_line, want_line)


@pytest.mark.parametrize("command,name,golden", [
    ("sweep", "source_surfaces", "source_surfaces.csv"),
    ("sweep", "advantage_surface", "advantage_surface.csv"),
    ("fig3", "error_probability_curves", "error_probability_curves.csv"),
    ("report", "operating_point", "operating_point.txt"),
])
def test_demo_output_matches_golden(command, name, golden, tmp_path):
    out = tmp_path / golden
    assert main([command, str(CONFIGS / f"{name}.cfg"), "--out", str(out)]) == 0
    got = out.read_text(encoding="utf-8").splitlines()
    want = (GOLDEN / golden).read_text(encoding="utf-8").splitlines()
    if command == "report":
        _compare_report(got, want)
    else:
        _compare_csv(got, want)
