"""Outputs of the demo configs against the goldens in ``tests/golden/``.

Each golden is the CLI output of one ``demos/configs/`` file.  Every CSV cell
and report line must match byte for byte, except the CSV columns a change has
declared numerically changed below; those must match at the stated rtol.
"""

import ast
import csv
import dataclasses
import math
import types
from pathlib import Path

import numpy as np
import pytest

import mwqi
from mwqi.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"

# The three correlation columns were regenerated when states became
# (a, b, c, s) with s = ab - c^2 taken from the converter, the spectrum and the
# heterodyne discord became closed forms in s, and the entropy lost its
# cancellation at large nu.  Cells moved by up to 3.4e-8 relative, at n_w ~ 1e7
# next to the instability edge, where ab - c^2 of the rounded moments had
# lost its digits; each cell is now within 7.6e-14 relative of an 80-digit
# evaluation from the converter inputs (test_correlation_columns_match_exact_oracle
# in test_correlations.py).  The 1e-12 rtol leaves room for a libm whose
# log2 or log1p is off by an ulp, which test_correlation_columns_survive_libm_ulps
# below applies.
# The error probabilities moved when erfcx and exp gave way to the stdlib
# erfc: 129 of the 139 normal p_qi/p_coh cells of the fig3 curves, by at most
# 6.0e-14 relative, each new cell within 2.3e-16 of exact (the old ones were
# up to 6.0e-14 off); one subnormal cell moved by one step, 4.9e-324.
# Accuracy is guarded at 1e-15 relative by
# test_error_probability_matches_exact_oracle in test_detection.py.
# The stability margin moved when the 6x6 eigvals gave way to the closed-form
# cubic: 577 of the 625 margin cells of each sweep golden, by at most 2.46e-12
# relative, which was the error of the old cells; every stable flag is
# unchanged.  Accuracy is guarded at 2e-13 relative by
# test_stability_margin_matches_exact_oracle in test_converter.py.
# Two fom cells of advantage_surface.csv were regenerated when snr_per_mode
# went from libm pow(x, 2) to x * x, which IEEE rounds alike on every
# platform: rows 58 and 381 of the file, 9.2270367134665709e-01 ->
# 9.2270367134665687e-01 and 6.0511055549712645e-01 -> 6.0511055549712656e-01.
# fom stays byte-exact; test_snr_squares_by_products in test_detection.py pins
# the product form at the statistics of those two points.
# The two Monte-Carlo lines of operating_point.txt were regenerated when the
# oracle's return-idler factor went from numpy's eigh, whose basis within each
# doubly degenerate eigenspace of [[a I, c Z], [c Z, b I]] is the LAPACK
# build's choice, to the pair's closed-form triangular factor.  The normals,
# their order and the seeds are the same; the mean/variance deltas moved from
# 0.13/0.36 se to 0.07/0.27 se (h0) and from 1.80/1.52 se to 1.83/1.45 se (h1).
# test_report_makes_no_linalg_call below keeps every LAPACK routine off the
# report path.
DECLARED_COLUMNS = {
    "margin": 5e-12,
    "discord_per_photon": 1e-12,
    "log_neg_per_photon": 1e-12,
    "coh_info_per_photon": 1e-12,
    "p_qi": 1e-13,
    "p_coh": 1e-13,
}


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
        assert got == want
    else:
        _compare_csv(got, want)


def test_report_correlation_lines_are_unchanged():
    # the (a, b, c, s) closed forms left the operating point's spectrum and its
    # E_N, I and D lines byte for byte as they were
    config = mwqi.parse_config((CONFIGS / "operating_point.cfg").read_text(encoding="utf-8"))
    text, ok = mwqi.report_point(dataclasses.replace(config, mc_validation=False))
    prefixes = ("symplectic spectrum: ", "E_N = ", "I = ", "D = ")
    golden = (GOLDEN / "operating_point.txt").read_text(encoding="utf-8")
    got, want = ([line for line in lines.splitlines() if line.startswith(prefixes)]
                 for lines in (text, golden))
    assert ok and len(want) == 4 and got == want


def _ulp_off_math(direction: float) -> types.SimpleNamespace:
    """The math module with log2 and log1p moved one ulp towards ``direction``."""
    def nudged(fn):
        return lambda x: math.nextafter(fn(x), direction)
    return types.SimpleNamespace(**{**vars(math), "log2": nudged(math.log2),
                                    "log1p": nudged(math.log1p)})


@pytest.mark.parametrize("direction", [math.inf, -math.inf], ids=["up", "down"])
def test_correlation_columns_survive_libm_ulps(monkeypatch, tmp_path, direction):
    # another libm may round log2 or log1p the other way: the correlation
    # columns, the only ones that read them, must stay within their 1e-12 rtol
    for module in (mwqi.states, mwqi.correlations):
        monkeypatch.setattr(module, "math", _ulp_off_math(direction))
    out = tmp_path / "source_surfaces.csv"
    assert main(["sweep", str(CONFIGS / "source_surfaces.cfg"), "--out", str(out)]) == 0
    _compare_csv(out.read_text(encoding="utf-8").splitlines(),
                 (GOLDEN / "source_surfaces.csv").read_text(encoding="utf-8").splitlines())


def test_report_makes_no_linalg_call(monkeypatch):
    # a LAPACK routine may pick another basis or round otherwise on another
    # build, and the report's lines are compared byte for byte
    def banned(*args, **kwargs):
        raise AssertionError("numpy.linalg called on the report path")

    for name in ("eigh", "eig", "eigvalsh", "cholesky", "svd"):
        monkeypatch.setattr(np.linalg, name, banned)
    config = mwqi.parse_config((CONFIGS / "operating_point.cfg").read_text(encoding="utf-8"))
    text, ok = mwqi.report_point(dataclasses.replace(config, mc_samples=1000))
    assert ok and "== Monte-Carlo validation (1000 samples) ==" in text


def test_sources_form_no_matrix_product():
    # numpy hands matrix products and dots to BLAS, whose kernel, picked per
    # CPU at run time, sets the rounding; the seeded lines must not follow it
    blas = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum"}
    for path in sorted(Path(mwqi.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            assert not isinstance(node, ast.BinOp) or not isinstance(node.op, ast.MatMult), \
                f"{path.name}:{node.lineno}: @"
            assert not isinstance(node, ast.Attribute) or node.attr not in blas, \
                f"{path.name}:{node.lineno}: {node.attr}"
