"""Tests of the benchmark itself: generator, checkers, tracer, metric tables.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import gzip
import json
from pathlib import Path

import pytest

import calibration
import check
import mwqi
import mwqi.cli
import mwqi.sweep
import run
from tracer import Tracer
from workloads import DEMO_SEED, JITTER, WORKLOADS, generate

REPO = Path(__file__).resolve().parents[2]

TINY_SWEEP = """[drive]
gamma_w = 5181.95
gamma_o = 668.43

[channel]
eta = 0.07
t_b = 293 k

[grid]
axis = gamma_w log 1e2 1e4 4
axis = gamma_o log 1e1 1e3 4
axis = eta log 1e-3 1e-1 3

[outputs]
select = n_w, fom, p_qi@1e6, p_coh@1e6
"""


def _run_cli(tmp_path, command, config_text):
    cfg, out = tmp_path / "w.cfg", tmp_path / "w.out"
    cfg.write_text(config_text)
    rc = mwqi.cli.main([command, str(cfg), "--out", str(out)])
    return rc, out.read_text()


def _set_cell(csv_text, row, column, value):
    lines = csv_text.splitlines()
    first = next(k for k, line in enumerate(lines) if not line.startswith("#")) + 1
    cells = lines[first + row].split(",")
    cells[column] = value
    lines[first + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


# -- generator --------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_generator_is_deterministic(workload, seed):
    assert generate(workload, seed) == generate(workload, seed)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seeds_change_the_config_within_the_jitter(workload):
    demo = mwqi.parse_config(generate(workload, DEMO_SEED))
    for seed in (1, 2, 3):
        text = generate(workload, seed)
        assert text != generate(workload, DEMO_SEED)
        other = mwqi.parse_config(text)
        for a, b in zip(demo.axes, other.axes):
            assert (a.name, a.spacing, a.count) == (b.name, b.spacing, b.count)
            for x, y in ((a.lo, b.lo), (a.hi, b.hi)):
                assert abs(y / x - 1.0) <= JITTER * 1.01


def test_demo_seed_reproduces_the_report_demo():
    ours = mwqi.parse_config(generate("report_mc", DEMO_SEED))
    theirs = mwqi.parse_config((REPO / "demos" / "configs" / "operating_point.cfg").read_text())
    assert dataclasses.replace(ours, sha256="") == dataclasses.replace(theirs, sha256="")


def test_demo_seed_surfaces_thin_the_demo_grid_to_every_third_value():
    ours = mwqi.parse_config(generate("surfaces", DEMO_SEED))
    theirs = mwqi.parse_config((REPO / "demos" / "configs" / "source_surfaces.cfg").read_text())
    for a, b in zip(ours.axes, theirs.axes):
        assert list(a.values()) == list(b.values()[::3])
    assert dataclasses.replace(ours, sha256="", axes=theirs.axes) == dataclasses.replace(theirs, sha256="")


# -- sweep checker ----------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    rc, text = _run_cli(tmp_path_factory.mktemp("tiny"), "sweep", TINY_SWEEP)
    assert rc == 0
    return text


def test_checker_accepts_a_clean_sweep(tiny_csv):
    outcome = check.check_sweep(tiny_csv, TINY_SWEEP, "tiny", 1, mwqi)
    assert outcome.failed == 0, outcome.problems
    assert outcome.attempted == 48
    assert outcome.health["recomputed_rows"] == outcome.health["stable_points"] > 0


def test_checker_rejects_one_corrupted_cell(tiny_csv):
    # row 0 is stable; column 6 is fom (3 axes, stable, margin, n_w, fom)
    value = float(tiny_csv.splitlines()[4].split(",")[6]) * (1 + 1e-6)
    bad = _set_cell(tiny_csv, 0, 6, f"{value:.16e}")
    outcome = check.check_sweep(bad, TINY_SWEEP, "tiny", 1, mwqi)
    assert outcome.failed == 1


def test_checker_rejects_one_extra_error_entry(tiny_csv):
    bad = _set_cell(tiny_csv, 5, -1, "ValueError: injected")
    outcome = check.check_sweep(bad, TINY_SWEEP, "tiny", 1, mwqi)
    assert outcome.failed == 1


def test_checker_rejects_a_missing_row(tiny_csv):
    bad = "\n".join(tiny_csv.splitlines()[:-1]) + "\n"
    outcome = check.check_sweep(bad, TINY_SWEEP, "tiny", 1, mwqi)
    assert outcome.failed == outcome.attempted


def _surfaces_from_reference():
    with gzip.open(check.REFERENCE_DIR / "surfaces.csv.gz", "rt") as fh:
        lines = fh.read().splitlines()
    body = [line.partition(",")[2] for line in lines]
    return "# from reference\n" + "\n".join(body) + "\n"


def test_reference_catches_a_cell_outside_the_recomputed_sample():
    text = _surfaces_from_reference()
    config = generate("surfaces", DEMO_SEED)
    assert check.check_sweep(text, config, "surfaces", DEMO_SEED, mwqi).failed == 0
    rows = [line.split(",") for line in text.splitlines()[2:]]
    row = max(i for i, cells in enumerate(rows) if cells[2] == "1")
    # discord_per_photon, relative change 1e-5 > RTOL_REFERENCE
    bad = _set_cell(text, row, 7, f"{float(rows[row][7]) * (1 + 1e-5):.16e}")
    outcome = check.check_sweep(bad, config, "surfaces", DEMO_SEED, mwqi)
    assert outcome.failed == 1
    assert any("reference" in p for p in outcome.problems)


# -- report checker ---------------------------------------------------------

@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    text = generate("report_mc", DEMO_SEED).replace("samples = 1000000", "samples = 4000")
    rc, out = _run_cli(tmp_path_factory.mktemp("report"), "report", text)
    assert rc in (0, 3)
    return out


def test_report_checker_accepts_the_report(small_report):
    outcome = check.check_report(small_report, 4000)
    assert outcome.failed == 0, outcome.problems
    assert set(outcome.health["mc_delta_se"]) == {
        "h0_mean_delta_se", "h0_var_delta_se", "h1_mean_delta_se", "h1_var_delta_se"}


def test_report_checker_rejects_a_failed_invariant(small_report):
    bad = small_report.replace("[ok] mu1 >= mu0", "[FAIL] mu1 >= mu0")
    assert check.check_report(bad, 4000).failed == 1


def test_report_checker_rejects_a_changed_number(small_report):
    bad = small_report.replace("figure of merit F = 1.43306947", "figure of merit F = 1.43307947")
    assert bad != small_report
    assert check.check_report(bad, 4000).failed == 1


def test_report_checker_records_mc_deltas_as_health(small_report):
    lines = [line if not line.startswith("h1: mean delta") else
             "h1: mean delta 3.50 se, variance delta 0.10 se" for line in small_report.splitlines()]
    bad = "\n".join(lines).replace("[ok] mc h1 mean within 3 se", "[FAIL] mc h1 mean within 3 se")
    outcome = check.check_report(bad, 4000)
    assert outcome.failed == 0
    assert outcome.health["mc_within_3se"] is False


# -- tracer -----------------------------------------------------------------

def test_tracer_counts_layer_calls_and_restores_bindings(tmp_path):
    original = mwqi.sweep.is_stable
    tracer = Tracer(span_cap=50)
    tracer.install()
    try:
        tracer.recording = True
        rc, text = _run_cli(tmp_path, "sweep", TINY_SWEEP)
    finally:
        tracer.uninstall()
    assert rc == 0
    assert mwqi.sweep.is_stable is original
    snap = tracer.snapshot()
    stable = snap["counts"]["converter.is_stable.stable"]
    assert snap["stats"]["converter.is_stable"][0] == 48
    assert snap["stats"]["detection.receiver_statistics"][0] == 2 * stable
    calls, total, own = snap["stats"]["cli.main"]
    assert calls == 1 and 0 < own < total
    assert len(tracer.spans) == 50 and tracer.spans_dropped > 0
    # spans are kept as they close: a child lies inside its parent's interval
    kept = {span[0]: span for span in tracer.spans}
    nested = [(span, kept[span[1]]) for span in tracer.spans if span[1] in kept]
    assert nested
    assert all(p[0] < c[0] and p[3] <= c[3] and c[4] <= p[4] for c, p in nested)
    assert "sweep.parse_config" in {span[2] for span in tracer.spans}
    path = tmp_path / "spans.json"
    tracer.write_spans(str(path))
    assert json.loads(path.read_text())["spans_dropped"] == tracer.spans_dropped


# -- metric tables ----------------------------------------------------------

def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [why for _, why in WORKLOADS.values()]


# -- calibration ------------------------------------------------------------

def test_each_time_is_scaled_by_the_kernel_times_around_it():
    ref = calibration.REFERENCE_S
    launch = {"setup_s": 1.0, "launch_kernel_s": ref, "kernel_s": 3 * ref,
              "first": {"seconds": 1.0, "kernel_s": ref},
              "later": [{"seconds": 2.0, "kernel_s": ref}, {"seconds": 3.0, "kernel_s": 2 * ref}]}
    setup, first, later = run._scaled_times(launch)
    assert setup == pytest.approx(0.5)
    assert first == pytest.approx(0.5)
    assert later == [pytest.approx(2.0), pytest.approx(2.0)]
