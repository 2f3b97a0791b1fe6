"""Outputs of the demo configs against the goldens in ``tests/golden/``.

Each golden is the CLI output of one ``demos/configs/`` file.  Every CSV cell
and report line must match byte for byte, except the CSV columns a change has
declared numerically changed below; those must match at the stated rtol.
"""

import ast
import collections
import csv
import dataclasses
import math
import os
import subprocess
import sys
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
# in test_correlations.py).  The columns moved again, by at most 5.6e-15
# relative in 38 coh_info and 42 discord cells, when a sweep came to evaluate
# them in one numpy pass: numpy's log2 and log1p, not libm's.  The 1e-12 rtol
# leaves room for a log2 or log1p that is off by an ulp, or that numpy picks per
# CPU, which test_correlation_columns_survive_libm_ulps and
# test_correlation_columns_survive_numpy_without_avx512 below apply.
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
# They were regenerated again when each sample came to read one row of normals
# (the pair's 4, then Re/Im of the optical bath, the mechanical bath and, below
# kappa_I = 1, the vacuum port) in place of runs of the whole sample count per bath
# quadrature, and se_var came to square var_sym by a product.  The generator, the
# seeds and the number of normals are the same; only which normal feeds which
# quadrature changed.  The deltas moved from 0.07/0.27 se to 1.53/0.10 se (h0) and
# from 1.83/1.45 se to 0.94/0.92 se (h1).
# They were regenerated again when each sample came to read 6 normals at every kappa_I:
# the detected pair's 4 (the return and the idler after its loss, through the pair's
# factor), then Re/Im of the one receiver-noise amplitude a_o alpha_o - c_o alpha_b*,
# which sums the optical and mechanical baths.  The sampled distribution is the same;
# the stream is not.  The deltas moved from 1.53/0.10 se to 1.16/0.24 se (h0) and from
# 0.94/0.92 se to 1.30/0.20 se (h1).
# One drive point of both sweep goldens (gamma_w = 1467.80, gamma_o = 68.129, line
# 365 of each file) was regenerated when source_moments and receiver_statistics went
# from libm pow(x, 2) to x * x, the form the sweep's numpy drive stage shares: its
# six output cells in source_surfaces.csv by 1-2 ulp, and its n_w (1 ulp) and fom
# (3 ulp) cells in advantage_surface.csv.  n_w, n_o and e_metric came to within
# 1.3e-16 relative of their 80-digit values (test_drive_cells_match_exact_oracle in
# test_correlations.py), the correlation cells stay within 1.1e-15, and fom is
# 5.2e-16 off a 60-digit evaluation from the converter inputs (it was 1.3e-17 off).
# test_sources_square_by_products below keeps pow off every other site.
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


def _ulp_off_numpy(direction: float) -> types.SimpleNamespace:
    """numpy with log2 and log1p moved one ulp towards ``direction``."""
    def nudged(fn):
        return lambda x: np.nextafter(fn(x), direction)
    return types.SimpleNamespace(**{**vars(np), "log2": nudged(np.log2),
                                    "log1p": nudged(np.log1p)})


def _source_surfaces(tmp_path) -> list[str]:
    out = tmp_path / "source_surfaces.csv"
    assert main(["sweep", str(CONFIGS / "source_surfaces.cfg"), "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("direction", [math.inf, -math.inf], ids=["up", "down"])
def test_correlation_columns_survive_libm_ulps(monkeypatch, tmp_path, direction):
    # another build may round log2 or log1p the other way: the correlation
    # columns, the only ones that read them, must stay within their 1e-12 rtol
    plain = _source_surfaces(tmp_path)
    for module in (mwqi.states, mwqi.correlations):
        monkeypatch.setattr(module, "np", _ulp_off_numpy(direction))
    nudged = _source_surfaces(tmp_path)
    assert nudged != plain  # the nudge reached the columns
    _compare_csv(nudged, (GOLDEN / "source_surfaces.csv").read_text(encoding="utf-8").splitlines())


def _avx512_features() -> list[str]:
    """The AVX-512 targets of numpy's dispatch list that this CPU has."""
    # numpy < 2 has no numpy._core
    umath = np._core._multiarray_umath if hasattr(np, "_core") else np.core._multiarray_umath
    return [name for name in umath.__cpu_dispatch__
            if (name.startswith("AVX512") or name == "X86_V4") and umath.__cpu_features__[name]]


_SWEEP_AT_GOLDEN_AXES = """
import sys
import numpy as np
import mwqi.sweep
from mwqi.cli import main

umath = np._core._multiarray_umath if hasattr(np, "_core") else np.core._multiarray_umath
config, golden, out, *features = sys.argv[1:]
assert not any(umath.__cpu_features__[name] for name in features)
header, *rows = (line.split(",") for line in open(golden) if not line.startswith("#"))
axes = {name: sorted({float(row[i]) for row in rows})
        for i, name in enumerate(header[:header.index("stable")])}
mwqi.sweep.GridAxis.values = lambda self: np.array(axes[self.name])
sys.exit(main(["sweep", config, "--out", out]))
"""


def test_correlation_columns_survive_numpy_without_avx512(tmp_path):
    # numpy picks its log2 and log1p kernels per CPU at run time, and the AVX-512 ones
    # round otherwise than the ones below them: the sweep must hold the declared rtol
    # with that dispatch off.  np.geomspace also rounds 3 of the 50 axis values
    # otherwise there (ROADMAP item 14), so the child sweeps the golden's own values.
    features = _avx512_features()
    if not features:
        pytest.skip("numpy dispatches no AVX-512 kernel on this CPU")
    out = tmp_path / "source_surfaces.csv"
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(mwqi.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", _SWEEP_AT_GOLDEN_AXES,
                    str(CONFIGS / "source_surfaces.cfg"), str(GOLDEN / "source_surfaces.csv"),
                    str(out), *features], check=True, env=env, timeout=300)
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


# the float powers left in src/mwqi, by (file, function): each reaches a byte-compared
# report line, so each waits for the product form (ROADMAP item 9)
_POW_SITES = {
    ("converter.py", "is_stable"): 1,  # the cube root of the stability cubic
}


def test_sources_square_by_products():
    # CPython computes x ** y on floats with libm pow, which may round x ** 2 otherwise
    # than x * x; a product is IEEE-rounded alike on every platform.  Integer powers of
    # integer literals, such as 10 ** 6, are exact and allowed.
    sites = collections.Counter()

    def walk(node, path, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, path, child.name)
                continue
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Pow) and not all(
                    isinstance(side, ast.Constant) and type(side.value) is int
                    for side in (child.left, child.right)):
                sites[path.name, function] += 1
            walk(child, path, function)

    for path in sorted(Path(mwqi.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, None)
    assert dict(sites) == _POW_SITES
