import csv
import dataclasses
import functools
import io
import math
import random
import re
import threading
import weakref
from pathlib import Path

import pytest

import mwqi
import mwqi.sweep as sweep_mod
from mwqi import ConfigError, parse_config, report_point, run_figure3, run_sweep

POINT_CFG = """
[drive]
gamma_w = 5181.95
gamma_o = 668.43

[channel]
eta = 0.07
t_b = 293 k
kappa_i = 1.0

[outputs]
select = n_w, n_o, e_metric, fom
"""

GRID_CFG = POINT_CFG + """
[grid]
axis = gamma_w log 1e3 1e4 4
axis = gamma_o log 1e2 1e4 4
"""


def _parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_defaults_and_units():
    cfg = parse_config(POINT_CFG)
    assert cfg.gamma_w == 5181.95
    assert cfg.eta == 0.07
    assert cfg.t_b == 293.0
    # nominal converter baseline fills the rest
    assert cfg.params.omega_m == pytest.approx(2 * math.pi * 10e6)
    # an omitted key takes its SweepConfig default; base values stay unset
    empty = parse_config("")
    assert empty == mwqi.SweepConfig() and empty.params == mwqi.nominal_params()
    assert (empty.gamma_w, empty.gamma_o, empty.eta, empty.t_b) == (None,) * 4
    assert (empty.kappa_i, empty.m_min, empty.m_max, empty.m_points) == (1.0, 1e4, 1e8, 41)
    assert (empty.seed, empty.mc_validation, empty.mc_samples) == (0, False, 10 ** 6)
    assert empty.axes == empty.outputs == ()


def test_parse_unit_conversion():
    cfg = parse_config(POINT_CFG + "\n[eom]\nkappa_w = 3 mhz\nt_eom = 100 mk\n")
    assert cfg.params.kappa_w == pytest.approx(2 * math.pi * 3e6)
    assert cfg.params.t_eom == pytest.approx(0.1)


def test_parse_error_diagnostics():
    with pytest.raises(ConfigError) as err:
        parse_config("[eom]\nomega_m = 10\n")  # missing unit
    assert "line 2" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config("[drive]\nbogus = 1\n")
    assert "bogus" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config("key_without_section = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[grid]\naxis = gamma_w log 10 1 5\n")  # unordered bounds
    with pytest.raises(ConfigError):
        parse_config("[grid]\naxis = gamma_w log 1 10 1\n")  # count < 2
    # the background is given by its temperature t_b only
    for text in (POINT_CFG + "[channel]\nn_b = 5\n",
                 "[channel]\nn_b = 600\n[grid]\naxis = t_b lin 1 300 3\n"):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "field 'n_b': unknown channel parameter 'n_b'" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config("[outputs]\nselect = nonsense\n")
    with pytest.raises(ConfigError) as err:
        parse_config("[channel]\nexact_h1 = on\n")  # library-only switch
    assert "exact_h1" in str(err.value)
    for key in ("g_w", "g_o"):  # single-photon couplings: no output reads them
        with pytest.raises(ConfigError) as err:
            parse_config(f"[eom]\n{key} = 1 hz\n")
        assert f"unknown eom parameter '{key}'" in str(err.value)


# every parse error names its line, or the field it checks when no one line holds it
@pytest.mark.parametrize("text, message", [
    ("[drive]\ngamma_w = 5 k",
     "line 2, field 'gamma_w': dimensionless value must not carry a unit: '5 k'"),
    ("[drive]\ngamma_w = abc", "line 2, field 'gamma_w': not a number: 'abc'"),
    ("[mc]\nvalidation = yes", "line 2, field 'validation': validation must be 'on' or 'off'"),
    ("[grid]\naxis = gamma_w log 1 10",
     "line 2, field 'axis': axis needs '<name> <lin|log> <min> <max> <count>', "
     "got 'gamma_w log 1 10'"),
    ("[grid]\naxis = omega_m log 1 10 3",
     "line 2, field 'axis': unknown axis 'omega_m' "
     "(known: gamma_w, gamma_o, eta, t_b, t_eom, kappa_i)"),
    ("[grid]\naxis = gamma_w exp 1 10 3",
     "line 2, field 'axis': spacing must be lin or log, got 'exp'"),
    ("[outputs]\nselect = p_qi@0.5",
     "line 2, field 'select': mode count must be >= 1 in 'p_qi@0.5'"),
    ("[target]", "line 1: unknown section [target]"),
    ("[drive]\ngamma_w", "line 2: expected 'key = value', got 'gamma_w'"),
    ("[grid]\nspan = 3", "line 2, field 'span': grid section accepts only 'axis' entries"),
    ("[outputs]\nshow = n_w", "line 2, field 'show': outputs section accepts only 'select'"),
    ("[grid]\naxis = gamma_w log 1 10 3\naxis = gamma_w lin 1 10 3",
     "line 3, field 'axis': duplicate axis 'gamma_w'"),
    ("[channel]\nt_b = 293 k\nt_b = 4 k",
     "line 3, field 't_b': duplicate channel parameter 't_b'"),
    # a repeated output would be a second column of one name; select lines add up
    ("[outputs]\nselect = n_w, n_o, n_w", "line 2, field 'select': duplicate output 'n_w'"),
    ("[outputs]\nselect = n_w, p_qi@1e6\nselect = fom, p_qi@1e6",
     "line 3, field 'select': duplicate output 'p_qi@1e6'"),
    ("[fig3]\nm_min = 1e6\nm_max = 1e4", "field 'm_min': need m_min <= m_max"),
    # in range as written, but omega_o = 2*pi*c / lambda_o overflows
    ("[eom]\nlambda_o = 1e-320 m", "field 'lambda_o': omega_o must be finite and > 0"),
], ids=["unit-on-plain", "not-a-number", "switch", "axis-fields", "axis-name",
        "axis-spacing", "mode-count", "section", "no-equals", "grid-key", "outputs-key",
        "duplicate-axis", "duplicate-key", "duplicate-output", "duplicate-output-lines",
        "m-range", "optical-frequency-overflow"])
def test_parse_error_messages(text, message):
    with pytest.raises(ConfigError) as err:
        parse_config(text + "\n")
    assert str(err.value) == message


@pytest.mark.parametrize("entry", [
    "[fig3]\nm_min = nan",
    "[fig3]\nm_max = nan",
    "[grid]\naxis = gamma_w log nan 1e4 3",
    "[grid]\naxis = gamma_w log 1e2 inf 3",
    "[outputs]\nselect = p_qi@nan",
    "[outputs]\nselect = p_coh@inf",
    "[drive]\ngamma_w = nan",
    "[channel]\nt_b = inf k",
    "[eom]\nomega_m = nan mhz",
    "[eom]\nomega_m = 1e308 ghz",  # finite as written, not once scaled to rad/s
])
def test_non_finite_numbers_rejected(entry):
    with pytest.raises(ConfigError) as err:
        parse_config(POINT_CFG + f"\n{entry}\n")
    assert "not a finite number" in str(err.value)


def test_axis_count_reads_like_other_counts():
    axis, = parse_config("[grid]\naxis = gamma_w log 1 10 1e1\n").axes
    assert axis.count == 10 and isinstance(axis.count, int)
    with pytest.raises(ConfigError) as err:
        parse_config("[grid]\naxis = gamma_w log 1 10 2.5\n")
    assert "integer >= 2" in str(err.value)


@pytest.mark.parametrize("raw", ["0", "2.5", "inf", "nan"])
def test_fig3_point_count_must_be_a_positive_integer(raw):
    with pytest.raises(ConfigError) as err:
        parse_config(POINT_CFG + f"\n[fig3]\nm_points = {raw}\n")
    assert "m_points" in str(err.value)


def test_empty_output_selection_rejected():
    cfg = parse_config("[drive]\ngamma_w = 10\ngamma_o = 1\n")
    with pytest.raises(ConfigError):
        run_sweep(cfg)


# every point is unstable, so no row would ever build a channel
UNSTABLE_NO_CHANNEL_CFG = """
[drive]
gamma_w = 10

[grid]
axis = gamma_o log 1e3 1e4 4

[outputs]
select = n_w, fom
"""


def test_missing_channel_fails_before_the_first_row():
    cfg = parse_config(UNSTABLE_NO_CHANNEL_CFG)
    with pytest.raises(ConfigError) as err:
        run_sweep(cfg)
    assert err.value.field_name == "eta"
    header, *data = _parse_csv(run_sweep(dataclasses.replace(cfg, outputs=("n_w",))))
    assert len(data) == 4 and all(dict(zip(header, r))["stable"] == "0" for r in data)


@pytest.mark.parametrize("run", [run_sweep, run_figure3, report_point])
def test_missing_drive_value_is_named(run):
    cfg = parse_config(POINT_CFG.replace("gamma_o = 668.43\n", ""))
    with pytest.raises(ConfigError) as err:
        run(cfg)
    assert err.value.field_name == "gamma_o"
    assert "gamma_o" in str(err.value) and "gamma_w" not in str(err.value)


def test_axis_gives_a_value_to_the_sweep_only():
    # eta only as an axis, t_b as a value: every sweep point has a channel
    cfg = parse_config(POINT_CFG.replace("eta = 0.07\n", "")
                       + "\n[grid]\naxis = eta log 1e-3 1e-1 3\n")
    header, *data = _parse_csv(run_sweep(cfg))
    records = [dict(zip(header, r)) for r in data]
    assert len(records) == 3 and all(r["error"] == "" and float(r["fom"]) > 0 for r in records)
    # fig3 evaluates the base values, where no eta is given
    with pytest.raises(ConfigError) as err:
        run_figure3(cfg)
    assert err.value.field_name == "eta"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_single_point_sweep_row():
    text = run_sweep(parse_config(POINT_CFG))
    rows = _parse_csv(text)
    header, row = rows[0], rows[1]
    assert header == ["stable", "margin", "n_w", "n_o", "e_metric", "fom", "error"]
    record = dict(zip(header, row))
    assert record["stable"] == "1"
    assert abs(float(record["n_w"]) - 0.739) / 0.739 < 0.05
    assert abs(float(record["n_o"]) - 0.681) / 0.681 < 0.05
    assert float(record["fom"]) > 1.0
    assert record["error"] == ""


def test_stable_points_at_the_adiabatic_edge_build():
    # Gamma_o within 3 ulps of Gamma_w + 1/2, where d = 1 + 2 Gamma_w - 2 Gamma_o is
    # about an ulp of 1/2 or less.  is_stable forms p0's factor 1/2 + Gamma_w - Gamma_o
    # with one rounding; a d of two roundings can be 0 or negative where p0 > 0, and the
    # stable row then raised InstabilityError.  Wherever is_stable says stable,
    # coefficients builds and the sweep row's error cell is empty.
    params = mwqi.nominal_params()
    rng = random.Random(31)
    stable = twice_rounded = 0
    for _ in range(300):
        gamma_w = 10 ** rng.uniform(-4, 2)
        gamma_o, steps = gamma_w + 0.5, rng.randint(-3, 3)
        for _ in range(abs(steps)):
            gamma_o = math.nextafter(gamma_o, math.copysign(math.inf, steps))
        coop = mwqi.Cooperativities(gamma_w, gamma_o)
        if not mwqi.is_stable(coop, params).stable:
            continue
        stable += 1
        twice_rounded += 1.0 + 2.0 * gamma_w - 2.0 * gamma_o <= 0.0
        assert mwqi.coefficients(coop).a_o > 0.0, coop
        cfg = POINT_CFG.replace("5181.95", repr(gamma_w)).replace("668.43", repr(gamma_o))
        header, row = _parse_csv(run_sweep(parse_config(cfg.replace("n_o, e_metric, ", ""))))
        record = dict(zip(header, row))
        assert record["stable"] == "1" and record["error"] == "", (coop, record)
        assert math.isfinite(float(record["n_w"])) and math.isfinite(float(record["fom"]))
    # the edge is reached: 16 of these stable points have a d of two roundings <= 0
    assert stable > 100 and twice_rounded > 10


def test_sweep_deterministic_and_paths_agree():
    cfg = parse_config(GRID_CFG)
    assert run_sweep(cfg) == run_sweep(cfg)
    # sweep, fig3 and report evaluate the same point to the same numbers
    cfg = parse_config(POINT_CFG.replace("select = n_w, n_o, e_metric, fom",
                                         "select = fom, p_qi@1e6, p_coh@1e6")
                       + "\n[fig3]\nm_min = 1e6\nm_max = 1e6\nm_points = 1\n")
    header, row = _parse_csv(run_sweep(cfg))
    swept = dict(zip(header, row))
    assert swept["stable"] == "1" and swept["error"] == ""
    (_, p_qi, p_coh, fom), = _parse_csv(run_figure3(cfg))[1:]
    assert [swept["fom"], swept["p_qi@1e6"], swept["p_coh@1e6"]] == [fom, p_qi, p_coh]
    lines = report_point(cfg)[0].splitlines()
    assert f"figure of merit F = {float(fom):.9g}" in lines
    assert f"M = 1e+06:  P_QI = {float(p_qi):.6e}   P_coh = {float(p_coh):.6e}" in lines
    # every row of a grid with channel axes, whose channels and receivers the
    # sweep shares between rows, equals the row built afresh from the public
    # functions
    cfg = _grid("gamma_w log 4e3 6e3 2", "eta log 1e-3 1e-1 3", "t_b lin 10 300 2",
                "kappa_i lin 0.5 1 2", select="fom, p_qi@1e6, p_coh@1e6")
    header, *data = _parse_csv(run_sweep(cfg))
    assert len(data) == 24
    for row in data:
        gamma_w, eta, t_b, kappa_i = map(float, row[:4])
        assert row[4:] == _public_row(cfg, gamma_w=gamma_w, eta=eta, t_b=t_b, kappa_i=kappa_i)


def _public_row(cfg, t_eom=None, gamma_w=None, eta=None, t_b=None, kappa_i=None):
    """The stable, margin, fom, p_qi@1e6, p_coh@1e6 and error cells of one stable row, built
    afresh from the public functions; an input left None takes the config's base value."""
    params = cfg.params if t_eom is None else dataclasses.replace(cfg.params, t_eom=t_eom)
    baths = mwqi.bath_occupations(params)
    coop = mwqi.Cooperativities(cfg.gamma_w if gamma_w is None else gamma_w, cfg.gamma_o)
    coef = mwqi.coefficients(coop)
    m = mwqi.source_moments(coef, baths.n_w, baths.n_o, baths.n_b)
    ch = mwqi.TargetChannelParams(cfg.eta if eta is None else eta, mwqi.planck_occupation(
        params.omega_w, cfg.t_b if t_b is None else t_b))
    rx = mwqi.ReceiverParams(coef, cfg.kappa_i if kappa_i is None else kappa_i)
    values = (mwqi.figure_of_merit(m, ch, rx, baths),
              mwqi.error_probability(mwqi.receiver_statistics(m, ch, rx, baths).snr_per_m, 1e6),
              mwqi.error_probability(mwqi.coherent_snr_per_mode(m.n_w, ch), 1e6))
    return ["1", f"{mwqi.is_stable(coop, params).margin:.16e}",
            *(f"{value:.16e}" for value in values), ""]


def test_sweep_rows_from_base_values_match_the_public_functions():
    # eta, t_b and kappa_i come from [channel], t_eom and gamma_w from axes: each row
    # reads its inputs by position, from the axis values or else from the base values
    cfg = parse_config(POINT_CFG.replace("kappa_i = 1.0", "kappa_i = 0.6").replace(
        "n_w, n_o, e_metric, fom", "fom, p_qi@1e6, p_coh@1e6")
        + "\n[grid]\naxis = t_eom log 0.03 3 3\naxis = gamma_w log 4e3 6e3 2\n")
    assert (cfg.eta, cfg.t_b, cfg.kappa_i) == (0.07, 293.0, 0.6)
    header, *data = _parse_csv(run_sweep(cfg))
    assert header[:2] == ["t_eom", "gamma_w"] and len(data) == 6
    for row in data:
        t_eom, gamma_w = map(float, row[:2])
        assert row[2:] == _public_row(cfg, t_eom=t_eom, gamma_w=gamma_w)


def test_out_of_range_axis_value_lands_in_error_column():
    # the base eta must lie in [0, 1]; an axis value above 1 fails only the
    # channel outputs of its own point, which keeps its stability cells
    rows = _parse_csv(run_sweep(parse_config(POINT_CFG + """
[grid]
axis = eta lin 0.5 1.5 3
""")))
    data = [dict(zip(rows[0], r)) for r in rows[1:]]
    assert [r["error"] == "" for r in data] == [True, True, False]
    bad = data[2]
    assert "eta must lie in [0; 1]" in bad["error"]
    assert bad["stable"] == "1" and float(bad["margin"]) > 0
    assert bad["fom"] == "" and bad["n_w"] == ""


# a base drive point at 0 K, whose eta = 1.5 row fails the channel
_COLD_DRIVE_CFG = """
[eom]
t_eom = 0 mk
[drive]
gamma_w = {gamma}
gamma_o = {gamma}
[channel]
eta = 0.07
t_b = 293 k
[grid]
axis = eta lin 0.5 1.5 3
[outputs]
select = {select}
"""
_ZERO_N_W = "UndefinedMetricError: normalization undefined at n_w = 0"
# at gamma = 1e-163 and 0 K, n_w underflows to 0 while the cross correlation does not
_ZERO_PHOTONS = "UndefinedMetricError: entanglement metric undefined at zero photon number"


@pytest.mark.parametrize("select, gamma, message", [
    ("fom, log_neg_per_photon", "0", _ZERO_N_W),
    ("log_neg_per_photon, fom", "0", _ZERO_N_W),
    ("fom, e_metric", "1e-163", _ZERO_PHOTONS),
    ("e_metric, fom", "1e-163", _ZERO_PHOTONS),
], ids=["fom, log_neg_per_photon", "log_neg_per_photon, fom", "fom, e_metric", "e_metric, fom"])
def test_row_names_the_report_error_before_the_channel_error(select, gamma, message):
    # the drive point fails the correlation report or the E-metric at every point, and
    # eta = 1.5 the channel: the drive point's error comes first, whatever the order
    rows = _parse_csv(run_sweep(parse_config(_COLD_DRIVE_CFG.format(gamma=gamma, select=select))))
    errors = [dict(zip(rows[0], r))["error"] for r in rows[1:]]
    assert errors == [message] * 3


def test_unselected_rule_sends_no_drive_point_to_the_scalar_functions(monkeypatch):
    # the drive point fails only the E-metric's rule, which neither n_w nor fom reads:
    # its rows take the array path, and only eta = 1.5 fails, at the channel
    calls = _counting(monkeypatch, "coefficients")
    rows = _parse_csv(run_sweep(parse_config(_COLD_DRIVE_CFG.format(gamma="1e-163",
                                                                     select="n_w, fom"))))
    records = [dict(zip(rows[0], r)) for r in rows[1:]]
    assert calls == []
    for r in records[:2]:
        assert r["n_w"] == r["fom"] == "0.0000000000000000e+00" and r["error"] == ""
    assert records[2]["error"] == "ValueError: eta must lie in [0; 1]"


def test_sweep_row_major_order_and_masking():
    text = run_sweep(parse_config(GRID_CFG))
    rows = _parse_csv(text)
    header, data = rows[0], rows[1:]
    assert len(data) == 16
    gw_col = [float(r[0]) for r in data]
    # row-major: first axis slowest
    assert gw_col == sorted(gw_col)
    for r in data:
        record = dict(zip(header, r))
        if record["stable"] == "0":
            assert float(record["margin"]) <= 0
            assert record["n_w"] == "" and record["fom"] == ""
            assert record["error"] == ""
        else:
            assert float(record["n_w"]) > 0
    assert any(r[2] == "0" for r in data)   # grid crosses the unstable region
    assert any(r[2] == "1" for r in data)


def test_sweep_csv_round_trip():
    text = run_sweep(parse_config(GRID_CFG))
    rows = _parse_csv(text)
    width = len(rows[0])
    for row in rows[1:]:
        assert len(row) == width
        for cell in row[:-1]:
            if cell != "":
                float(cell)  # parses back as a number


def test_sweep_metadata_lines():
    cfg = parse_config(GRID_CFG)
    text = run_sweep(cfg)
    lines = text.splitlines()
    assert lines[0].startswith("# mwqi ")
    assert lines[1] == f"# config-sha256={cfg.sha256}"
    assert lines[2] == "# seed=0"


def test_sweep_error_column_keeps_going(monkeypatch):
    # a failure at one drive point fails only its rows: the array pass rejects the point,
    # its row builds it again through the scalar functions and records why, and the
    # other rows are clean
    cfg = parse_config(POINT_CFG.replace(
        "select = n_w, n_o, e_metric, fom",
        "select = log_neg_per_photon") + """
[grid]
axis = gamma_w log 2e3 8e3 3
""")
    bad = cfg.axes[0].values().tolist()[0]
    real_columns, real = sweep_mod.correlation_columns, sweep_mod.coefficients

    def rejecting_first(*moments):
        cells, valid = real_columns(*moments)
        valid[0] = False  # the key at the first gamma_w value
        return cells, valid

    def flaky(coop):
        if coop.gamma_w == bad:
            raise RuntimeError("synthetic metric failure")
        return real(coop)

    monkeypatch.setattr(sweep_mod, "correlation_columns", rejecting_first)
    monkeypatch.setattr(sweep_mod, "coefficients", flaky)
    rows = _parse_csv(run_sweep(cfg))
    header, data = rows[0], rows[1:]
    errors = [dict(zip(header, r))["error"] for r in data]
    assert sum(1 for e in errors if "synthetic metric failure" in e) == 1
    assert sum(1 for e in errors if e == "") == 2


def _grid(*axes, select="n_w, fom, p_qi@1e6, log_neg_per_photon"):
    return parse_config(POINT_CFG.replace("n_w, n_o, e_metric, fom", select)
                        + "\n[grid]\n" + "".join(f"axis = {a}\n" for a in axes))


_GAMMA_W = "gamma_w log 1e3 1e4 3"
_GAMMA_O = "gamma_o log 1e2 3e3 3"
_ETA = "eta log 1e-3 1e-1 4"


def test_sweep_rows_do_not_depend_on_axis_order():
    # all six axes: with a drive axis last the drive point changes at every row, with
    # a channel axis last consecutive rows share it; both must give the same rows
    def rows(cfg):
        header, *data = _parse_csv(run_sweep(cfg))
        order = list(sweep_mod._AXIS_NAMES) + header[len(cfg.axes):]
        return sorted(",".join(dict(zip(header, r))[h] for h in order) for r in data)

    drive = ("t_eom log 0.03 3 2", _GAMMA_W, _GAMMA_O)
    link = (_ETA, "t_b lin 10 300 2", "kappa_i lin 0.5 1 2")
    no_reuse = rows(_grid(*link, *drive))
    assert no_reuse == rows(_grid(*drive, *link))
    assert len(no_reuse) == 2 * 3 * 3 * 4 * 2 * 2
    # the stable column follows the six axis values; the grid crosses the unstable region
    assert {r.split(",")[6] for r in no_reuse} == {"0", "1"}


def _built(monkeypatch, *classes):
    """Count the objects of each of ``classes`` built, wherever they are built."""
    built = []
    for cls in classes:
        monkeypatch.setattr(cls, "__init__", lambda self, *args, _real=cls.__init__, **kwargs:
                            built.append(type(self)) or _real(self, *args, **kwargs))
    return built


@pytest.mark.parametrize("axes, shared", [
    ((_GAMMA_W, _GAMMA_O, _ETA), True),
    ((_ETA, _GAMMA_W, _GAMMA_O), False),
])
def test_source_is_evaluated_once_per_run_of_a_drive_point(monkeypatch, axes, shared):
    # the moments of every drive point come from one array pass, with a correlation
    # output or without; a stable row with a channel output builds its point's moments
    # and coefficients as objects once per run of rows at the point
    passes = _counting(monkeypatch, "_moment_terms")
    built = _built(monkeypatch, mwqi.SourceMoments, mwqi.EomCoefficients)
    for select in ("n_w, fom, p_qi@1e6", "n_w, fom, p_qi@1e6, log_neg_per_photon"):
        passes.clear(), built.clear()
        header, *data = _parse_csv(run_sweep(_grid(*axes, select=select)))
        stable = [record for record in (dict(zip(header, r)) for r in data)
                  if record["stable"] == "1"]
        drive_points = {(r["gamma_w"], r["gamma_o"]) for r in stable}
        assert 0 < len(drive_points) < len(stable) and len(data) == 9 * 4
        assert len(passes) == 1 and all(column.size == 9 for column in passes[0][:6])
        runs = len(drive_points) if shared else len(stable)
        assert built.count(mwqi.SourceMoments) == built.count(mwqi.EomCoefficients) == runs
        assert len(built) == 2 * runs


def test_failing_drive_point_fails_each_of_its_rows(monkeypatch):
    # the hot source overflows the symplectic spectrum; the array pass rejects it, so
    # each row at that drive point calls the scalar report to raise the same error, which
    # names t_eom, while the cool points need no report, and the next drive point is clean
    calls = []
    real = sweep_mod.correlation_report
    monkeypatch.setattr(sweep_mod, "correlation_report",
                        lambda m: calls.append(m) or real(m))
    header, *data = _parse_csv(run_sweep(_grid(
        "gamma_w log 4e3 6e3 2", "t_eom log 0.03 1e160 2", "eta lin 0.05 0.1 3")))
    records = [dict(zip(header, r)) for r in data]
    hot = [r for r in records if r["t_eom"] == "1.0000000000000000e+160"]
    assert len(hot) == 6 and len(calls) == len(hot)
    for r in hot:
        assert r["error"] == "OverflowError: symplectic spectrum overflows float64 (input t_eom)"
        assert r["stable"] == "1"
        assert r["n_w"] == r["fom"] == r["log_neg_per_photon"] == ""
    assert records[3:6] == hot[:3]
    for r in records[6:9]:  # the next drive point
        assert r["error"] == "" and float(r["fom"]) > 0


def test_nothing_is_kept_between_sweeps(monkeypatch):
    # every row shares the base drive point, so a source kept from the
    # previous sweep would be reused at once
    cfg = _grid(_ETA, select="n_w, fom")
    plain = run_sweep(cfg)
    real = sweep_mod._moment_terms

    def doubled(*args):
        n_w, *rest = real(*args)
        return 2.0 * n_w, *rest

    monkeypatch.setattr(sweep_mod, "_moment_terms", doubled)
    swapped = run_sweep(cfg)
    monkeypatch.setattr(sweep_mod, "_moment_terms", real)
    assert run_sweep(cfg) == plain
    (header, *rows), (_, *swapped_rows) = _parse_csv(plain), _parse_csv(swapped)
    n_w = header.index("n_w")
    assert len(rows) == 4 and all(r[header.index("error")] == "" for r in rows)
    assert [float(r[n_w]) for r in swapped_rows] == [2.0 * float(r[n_w]) for r in rows]
    # the same for the channels, which rows at one (eta, t_b) share
    real_channel = sweep_mod.TargetChannelParams

    class Brighter(real_channel):
        # from_temperature builds through cls, so the Planck background doubles too
        def __init__(self, eta, n_b):
            super().__init__(eta=eta, n_b=2.0 * n_b)

    monkeypatch.setattr(sweep_mod, "TargetChannelParams", Brighter)
    _, *brighter_rows = _parse_csv(run_sweep(cfg))
    monkeypatch.setattr(sweep_mod, "TargetChannelParams", real_channel)
    assert run_sweep(cfg) == plain
    fom = header.index("fom")
    assert [r[n_w] for r in brighter_rows] == [r[n_w] for r in rows]
    assert all(float(b[fom]) != float(r[fom]) for b, r in zip(brighter_rows, rows))


def _counting(monkeypatch, name):
    """Count the calls of ``mwqi.sweep.<name>``; a dotted name, such as a classmethod's, is
    looked up one attribute at a time."""
    *path, attr = name.split(".")
    owner, calls = functools.reduce(getattr, path, sweep_mod), []
    real = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda *args, **kwargs: calls.append(args)
                        or real(*args, **kwargs))
    return calls


def test_channel_and_receiver_are_built_once_per_key(monkeypatch):
    # with the drive axis first, a run of rows at one drive point keeps its receiver
    # until kappa_i changes; with it last, the drive point changes at every row, so each
    # stable row builds its own.  The channel is built once per (eta, t_b) either way.
    drive, link = ["gamma_w log 4e3 6e3 2"], [
        "kappa_i lin 0.5 1 2", "eta log 1e-3 1e-1 3", "t_b lin 10 300 2"]
    for axes, builds in ((drive + link, 4), (link + drive, 24)):
        channels = _counting(monkeypatch, "TargetChannelParams.from_temperature")
        receivers = _counting(monkeypatch, "ReceiverParams")
        header, *data = _parse_csv(run_sweep(_grid(*axes, select="fom, p_qi@1e6")))
        records = [dict(zip(header, r)) for r in data]
        assert len(records) == 24
        assert all(r["stable"] == "1" and r["error"] == "" for r in records)
        assert len(channels) == len({(r["eta"], r["t_b"]) for r in records}) == 6
        assert len(receivers) == builds


_HOT_ERROR = "OverflowError: Planck occupation overflows float64 at 1e+308 K (input t_eom)"


@pytest.mark.parametrize("axes, t_eom_calls, hot_rows", [
    ((_GAMMA_W, _GAMMA_O, _ETA), [0.03], 0),  # the base t_eom, 30 mk
    # t_eom changes between consecutive drive points, and each value keeps its occupations
    (("gamma_w log 4e3 6e3 2", "t_eom log 0.03 3 3", _ETA), [0.03, 0.3, 3.0], 0),
    # a failed build is not kept: the array pass asks once per t_eom value, then each
    # of the 8 hot rows asks again through the scalar functions and records the same error
    (("t_eom log 0.03 1e308 2", "gamma_w log 4e3 6e3 2", _ETA), [0.03] + [1e308] * 9, 8),
], ids=["drive-plane", "t_eom-axis", "overflowing-t_eom"])
def test_bath_occupations_are_evaluated_once_per_t_eom(monkeypatch, axes, t_eom_calls,
                                                       hot_rows):
    calls = _counting(monkeypatch, "bath_occupations")
    header, *data = _parse_csv(run_sweep(_grid(*axes)))
    stable = [record for record in (dict(zip(header, r)) for r in data)
              if record["stable"] == "1"]
    assert [params.t_eom for params, in calls] == pytest.approx(t_eom_calls, rel=1e-15)
    hot = [r for r in stable if r.get("t_eom") == "1.0000000000000000e+308"]
    assert len(hot) == hot_rows and len(stable) > len(hot)
    assert all(r["error"] == _HOT_ERROR and r["n_w"] == "" for r in hot)
    assert all(r["error"] == "" for r in stable if r not in hot)


def test_sweep_memo_stays_bounded(monkeypatch):
    # a run of rows at one drive point keeps its moments, coefficients and one receiver,
    # rebuilt where kappa_i changes; with the object being built, that is the peak
    # whatever the grid size.  The drive stage keeps arrays and formatted cells, and
    # builds no report, no state object and, without a channel output, no moments or
    # coefficients at all.
    peaks, calls, states = {}, {}, []

    def track(name, result, live):
        live.add(result)
        peaks[name] = max(peaks.get(name, 0), len(live))
        calls[name] = calls.get(name, 0) + 1

    for name in ("correlation_report", "ReceiverParams"):
        def tracked(*args, _name=name, _real=getattr(sweep_mod, name), _live=weakref.WeakSet()):
            result = _real(*args)
            track(_name, result, _live)
            return result
        monkeypatch.setattr(sweep_mod, name, tracked)
    for cls in (mwqi.SourceMoments, mwqi.EomCoefficients):
        def init(self, *args, _real=cls.__init__, _live=weakref.WeakSet(), **kwargs):
            _real(self, *args, **kwargs)
            track(type(self).__name__, self, _live)
        monkeypatch.setattr(cls, "__init__", init)
    real_state = mwqi.TwoModeGaussianState.__post_init__
    monkeypatch.setattr(mwqi.TwoModeGaussianState, "__post_init__",
                        lambda self: states.append(self) or real_state(self))
    for select in ("fom", "log_neg_per_photon, fom", "log_neg_per_photon"):
        peaks.clear(), calls.clear()
        header, *data = _parse_csv(run_sweep(_grid(
            "gamma_w log 1e2 1e4 20", "gamma_o log 1e1 1e3 20", "kappa_i lin 0.5 1 3",
            "eta log 1e-3 1e-1 2", select=select)))
        assert len(data) == 2400 and all(r[-1] == "" for r in data)
        assert "correlation_report" not in calls
        if select == "log_neg_per_photon":
            assert not calls  # no moments, coefficients or receivers
            continue
        assert min(calls.values()) > 100
        for name in ("SourceMoments", "EomCoefficients"):
            assert peaks[name] <= 2 and calls[name] <= 400  # once per stable drive point
        assert peaks["ReceiverParams"] <= 1 + 1
    assert not states


@pytest.mark.parametrize("axes, builder, bad_key, message", [
    (("gamma_w log 4e3 6e3 2", "eta lin 0.5 1.5 3"), "TargetChannelParams.from_temperature",
     ("eta", "1.5000000000000000e+00"), "ValueError: eta must lie in [0; 1]"),
    (("eta lin 0.05 0.1 2", "kappa_i lin 0.5 1.5 3"), "ReceiverParams",
     ("kappa_i", "1.5000000000000000e+00"), "ValueError: idler_transmissivity must lie in (0; 1]"),
])
def test_failing_channel_or_receiver_fails_each_of_its_rows(monkeypatch, axes, builder,
                                                            bad_key, message):
    # a failed build is not kept: each row with the bad key builds it again
    # and records the same text, and the next key is clean
    calls = _counting(monkeypatch, builder)
    header, *data = _parse_csv(run_sweep(_grid(*axes, select="fom")))
    records = [dict(zip(header, r)) for r in data]
    name, value = bad_key
    bad = [i for i, r in enumerate(records) if r[name] == value]
    assert bad == [2, 5]
    # the two good channels once each; the receiver of the one 6-row run at the base
    # drive point is rebuilt wherever kappa_i changes, here at every row
    assert len(calls) == (6 if builder == "ReceiverParams" else 2 + len(bad))
    for i, r in enumerate(records):
        if i in bad:
            assert r["error"] == message and r["fom"] == "" and r["stable"] == "1"
        else:
            assert r["error"] == "" and float(r["fom"]) > 0


@pytest.mark.parametrize("select", ["n_w, n_o", "fom, p_qi@1e6"])
def test_overflowing_source_occupation_is_named(select):
    # the Planck occupation of a 1e308 K converter overflows; it used to be
    # written as inf cells with an empty error, or end in "snr must be >= 0"
    cfg = parse_config(POINT_CFG.replace("n_w, n_o, e_metric, fom", select)
                       + "\n[eom]\nt_eom = 1e308 k\n")
    (header, row) = _parse_csv(run_sweep(cfg))
    record = dict(zip(header, row))
    assert record["stable"] == "1"
    assert record["error"] == _HOT_ERROR
    assert all(record[token] == "" for token in cfg.outputs)
    assert "inf" not in ",".join(row)


def test_overflowing_background_occupation_is_named():
    # the Planck occupation of a 1e308 K channel overflows: the error names t_b, and
    # the row keeps its stability cells
    cfg = parse_config(POINT_CFG.replace("t_b = 293 k", "t_b = 1e308 k"))
    (header, row) = _parse_csv(run_sweep(cfg))
    record = dict(zip(header, row))
    assert record["stable"] == "1" and record["n_w"] == record["fom"] == ""
    assert record["error"] == (
        "OverflowError: Planck occupation overflows float64 at 1e+308 K (input t_b)")


@pytest.mark.parametrize("eom, axes, named", [
    ("", ("t_eom log 1e154 1e300 5",), 4),
    # the drive plane of advantage_surface.cfg, where 25 rows held nan or inf fom cells
    ("[eom]\nt_eom = 1e154 k\n", ("gamma_w log 1e2 1e4 25", "gamma_o log 1e1 1e3 25"), 265),
], ids=["t_eom-axis", "drive-plane"])
def test_overflowing_receiver_statistics_are_named(eom, axes, named):
    # from t_eom ~ 1e154 K the receiver moments pass float64; rows used to end
    # in the bare "OverflowError: (34; 'Numerical result out of range')".  A row
    # whose snr is finite, though a square inside it overflows, holds finite cells.
    cfg = parse_config(POINT_CFG.replace("n_w, n_o, e_metric, fom", "n_w, fom, p_qi@1e6, p_coh@1e6")
                       + eom + "[grid]\n" + "".join(f"axis = {a}\n" for a in axes))
    header, *data = _parse_csv(run_sweep(cfg))
    errors = 0
    for row in data:
        record = dict(zip(header, row))
        if record["error"]:
            assert record["error"].startswith(
                "OverflowError: receiver statistics overflow float64: mu0=0.0; mu1="), record
            assert record["error"].endswith(" (inputs t_eom and t_b)"), record
            assert all(record[token] == "" for token in cfg.outputs)
            errors += 1
        elif record["stable"] == "1":
            assert all(math.isfinite(float(record[token])) for token in cfg.outputs), record
    assert errors == named


def test_p_coh_cells_build_no_receiver_statistics(monkeypatch):
    # a p_coh@M cell reads only the coherent snr: past t_eom ~ 1e154 K, where the
    # receiver statistics overflow float64, its rows used to end in their error
    calls = []
    monkeypatch.setattr(sweep_mod, "receiver_statistics", lambda *args: calls.append(args))
    cfg = parse_config(POINT_CFG.replace("n_w, n_o, e_metric, fom", "n_o, p_coh@1e6")
                       + "[grid]\naxis = t_eom log 1e100 1e200 5\n")
    header, *data = _parse_csv(run_sweep(cfg))
    assert len(data) == 5 and calls == []
    for row in data:
        record = dict(zip(header, row))
        assert record["stable"] == "1" and record["error"] == "", record
        assert math.isfinite(float(record["p_coh@1e6"])), record


def test_sweep_qualitative_entanglement_region(params):
    # cooperativity grids bracketing the reference operating point: nearly
    # every stable point is entangled (metric above 1)
    cfg = parse_config("""
[drive]
gamma_w = 5181.95
gamma_o = 668.43

[grid]
axis = gamma_w log 1e2 1e4 8
axis = gamma_o log 1e1 1e3 8

[outputs]
select = e_metric, log_neg_per_photon, coh_info_per_photon, discord_per_photon
""")
    rows = _parse_csv(run_sweep(cfg))
    header, data = rows[0], rows[1:]
    stable = [dict(zip(header, r)) for r in data if r[2] == "1"]
    assert len(stable) >= 30
    frac = sum(1 for r in stable if float(r["e_metric"]) > 1.0) / len(stable)
    assert frac > 0.9
    for r in stable:
        assert r["discord_per_photon"] != ""


# ---------------------------------------------------------------------------
# fig3-style curves
# ---------------------------------------------------------------------------

def test_figure3_reference_curves():
    cfg = parse_config(POINT_CFG + "\n[fig3]\nm_min = 1e4\nm_max = 1e8\nm_points = 17\n")
    rows = _parse_csv(run_figure3(cfg))
    assert rows[0] == ["m", "p_qi", "p_coh", "fom"]
    data = [[float(c) for c in r] for r in rows[1:]]
    p_qi = [r[1] for r in data]
    p_coh = [r[2] for r in data]
    assert all(a > b or b == 0.0 for a, b in zip(p_qi, p_qi[1:]))
    assert all(a > b or b == 0.0 for a, b in zip(p_coh, p_coh[1:]))
    assert all(q < c for q, c in zip(p_qi, p_coh) if c > 0)
    assert all(r[3] > 1.0 for r in data)


def test_figure3_single_mode_pair():
    cfg = parse_config(POINT_CFG + "\n[fig3]\nm_min = 1\nm_max = 1\nm_points = 1\n")
    rows = _parse_csv(run_figure3(cfg))
    (_, p_qi, p_coh, _), = [[float(c) for c in r] for r in rows[1:]]
    assert 0.49 < p_qi < 0.5 and 0.49 < p_coh < 0.5
    assert p_qi < p_coh
    # small-argument expansion: erfc(sqrt(x/8))/2 = 1/2 - sqrt(x/(8 pi)) + O(x^(3/2))
    snr_coh = 4 * 0.07 * 7.11498678330953038e-01 / (2 * 610.0130768107351 + 1)
    assert p_coh == pytest.approx(0.5 - math.sqrt(snr_coh / (8 * math.pi)), abs=1e-6)


def test_figure3_dark_channel_is_blind():
    cfg = parse_config(POINT_CFG.replace("eta = 0.07", "eta = 0.0")
                       + "\n[fig3]\nm_min = 10\nm_max = 1000\nm_points = 3\n")
    rows = _parse_csv(run_figure3(cfg))
    for r in rows[1:]:
        assert float(r[1]) == 0.5
        assert float(r[2]) == 0.5


def test_figure3_log_domain_depth():
    cfg = parse_config(POINT_CFG + "\n[fig3]\nm_min = 1e7\nm_max = 1e7\nm_points = 1\n")
    rows = _parse_csv(run_figure3(cfg))
    p_qi = float(rows[1][1])
    assert 0.0 < p_qi < 1e-100  # deep log-domain value survives the round trip


def test_figure3_unstable_point_raises():
    cfg = parse_config(POINT_CFG.replace("gamma_o = 668.43", "gamma_o = 6000"))
    with pytest.raises(mwqi.InstabilityError):
        run_figure3(cfg)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_point_commands_print_the_public_closed_forms():
    # a lossy idler at a point no golden holds: each fig3 cell and each report line of
    # the figure of merit and the error probabilities is its closed form, formatted
    config = parse_config(
        POINT_CFG.replace("eta = 0.07", "eta = 0.3").replace("t_b = 293 k", "t_b = 10 k")
        .replace("kappa_i = 1.0", "kappa_i = 0.6")
        + "\n[fig3]\nm_min = 1\nm_max = 1e9\nm_points = 10\n")
    coef = mwqi.coefficients(mwqi.Cooperativities(5181.95, 668.43))
    baths = mwqi.bath_occupations(config.params)
    m = mwqi.source_moments(coef, baths.n_w, baths.n_o, baths.n_b)
    ch = mwqi.TargetChannelParams.from_temperature(0.3, 10.0, config.params.omega_w)
    rx = mwqi.ReceiverParams(coef, 0.6)
    snr_qi = mwqi.receiver_statistics(m, ch, rx, baths).snr_per_m
    snr_coh = mwqi.coherent_snr_per_mode(m.n_w, ch)
    fom = mwqi.figure_of_merit(m, ch, rx, baths)
    header, *rows = _parse_csv(run_figure3(config))
    assert header == ["m", "p_qi", "p_coh", "fom"] and len(rows) == 10
    for modes, *cells in rows:
        assert cells == ["%.16e" % value for value in (
            mwqi.error_probability(snr_qi, float(modes)),
            mwqi.error_probability(snr_coh, float(modes)), fom)]
    text, ok = report_point(config)
    assert ok
    lines = text.splitlines()
    assert f"figure of merit F = {fom:.9g}" in lines
    for modes in (1e4, 1e5, 1e6, 1e7, 1e8):
        assert (f"M = {modes:.0e}:  P_QI = {mwqi.error_probability(snr_qi, modes):.6e}"
                f"   P_coh = {mwqi.error_probability(snr_coh, modes):.6e}") in lines


def test_report_reference_point():
    text, ok = report_point(parse_config(POINT_CFG))
    assert ok
    assert "n_B = 610.01" in text
    line = next(ln for ln in text.splitlines() if "n_B^thresh" in ln)
    thresh = float(line.split("=")[-1])
    assert abs(thresh - 0.069) / 0.069 < 0.10
    assert "figure of merit" in text


def test_report_decoupled_optical_cavity():
    text, ok = report_point(parse_config("""
[drive]
gamma_w = 5.0
gamma_o = 0.0

[channel]
eta = 0.07
t_b = 293 k
"""))
    assert ok
    assert "E-metric = 0" in text
    assert "figure of merit F = 0" in text


def test_report_mc_validation():
    text, ok = report_point(parse_config(
        POINT_CFG + "\n[mc]\nvalidation = on\nsamples = 50000\nseed = 4\n"))
    assert ok
    assert "Monte-Carlo validation" in text
    assert "within 3 se" in text


def test_report_samples_h0_and_h1_as_two_serial_calls_would():
    # H1 samples on a second thread; its generator is its own, so the lines are those of
    # one call at seed (H0, the channel at eta = 0) and then one at seed + 1 (H1)
    config = parse_config(POINT_CFG.replace("kappa_i = 1.0", "kappa_i = 0.6")
                          + "\n[mc]\nvalidation = on\nsamples = 40000\nseed = 8\n")
    text, ok = report_point(config)
    coef = mwqi.coefficients(mwqi.Cooperativities(5181.95, 668.43))
    baths = mwqi.bath_occupations(config.params)
    m = mwqi.source_moments(coef, baths.n_w, baths.n_o, baths.n_b)
    ch = mwqi.TargetChannelParams.from_temperature(0.07, 293.0, config.params.omega_w)
    rx = mwqi.ReceiverParams(coef, 0.6)
    stats = mwqi.receiver_statistics(m, ch, rx, baths)
    want = []
    for hyp, channel, seed, mu_cf, var_cf in (
            ("h0", mwqi.TargetChannelParams(0.0, ch.n_b), 8, stats.mu0, stats.var0),
            ("h1", ch, 9, stats.mu1, stats.var1)):
        mc = mwqi.mc_receiver_statistics(m, channel, rx, baths, samples=40000, seed=seed)
        want.append(f"{hyp}: mean delta {abs(mc.mu - mu_cf) / mc.se_mu:.2f} se, "
                    f"variance delta {abs(mc.var - var_cf) / mc.se_var:.2f} se")
    assert [ln for ln in text.splitlines() if ln.startswith(("h0:", "h1:"))] == want


def test_report_mc_lines_hold_past_the_fourth_power_overflow():
    # at t_b = 1e200 K the counts' variance passes 1e154: their fourth-power sums overflowed
    # float64, and the lines read "variance delta inf se".  The draws are the same and each
    # statistic scales with n_B, so the lines are those at 1e60 K
    def mc_lines(t_b):
        text, ok = report_point(parse_config(
            POINT_CFG.replace("t_b = 293 k", f"t_b = {t_b}")
            + "\n[mc]\nvalidation = on\nsamples = 40000\nseed = 8\n"))
        assert ok, text
        return [ln for ln in text.splitlines() if ln.startswith(("h0:", "h1:"))]

    lines = mc_lines("1e60 k")
    assert len(lines) == 2 and "inf" not in "".join(lines)
    assert mc_lines("1e200 k") == lines


@pytest.mark.parametrize("failing_seed", [4, 5], ids=["h0", "h1"])
def test_report_sampler_error_leaves_report_point(monkeypatch, failing_seed):
    # an error on either thread leaves report_point with its type and text, after the
    # second thread has been joined
    real = mwqi.detection.mc_receiver_statistics

    def sampler(*args, seed, **kwargs):
        if seed == failing_seed:
            raise FloatingPointError(f"sampler failed at seed {seed}")
        return real(*args, seed=seed, **kwargs)

    monkeypatch.setattr(sweep_mod, "mc_receiver_statistics", sampler)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError) as err:
        report_point(parse_config(POINT_CFG + "\n[mc]\nvalidation = on\nsamples = 1000\n"
                                  "seed = 4\n"))
    assert str(err.value) == f"sampler failed at seed {failing_seed}"
    assert threading.active_count() == threads


def _operating_point_without_mc():
    path = Path(__file__).resolve().parents[1] / "demos" / "configs" / "operating_point.cfg"
    return dataclasses.replace(parse_config(path.read_text()), mc_validation=False)


def test_report_builds_the_receiver_statistics_twice(monkeypatch):
    # one build for the mu/var/snr and P_QI lines, one inside figure_of_merit
    config = _operating_point_without_mc()
    real, calls = mwqi.detection.receiver_statistics, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mwqi.detection, "receiver_statistics", counted)
    monkeypatch.setattr(sweep_mod, "receiver_statistics", counted)
    text, ok = report_point(config)
    assert ok and "P_QI" in text
    assert len(calls) == 2


def test_report_builds_the_source_state_once(monkeypatch):
    # the spectrum line reads the state the correlation report was computed from
    real, states = mwqi.TwoModeGaussianState.__post_init__, []

    def counted(self):
        states.append(self)
        real(self)

    monkeypatch.setattr(mwqi.TwoModeGaussianState, "__post_init__", counted)
    text, ok = report_point(_operating_point_without_mc())
    assert ok and "symplectic spectrum" in text
    assert len(states) == 1


def test_report_unstable_point_raises():
    with pytest.raises(mwqi.InstabilityError):
        report_point(parse_config(POINT_CFG.replace("gamma_o = 668.43",
                                                    "gamma_o = 9000")))


# log ranges each axis may reach: drives to 1e12, temperatures (k) to 1e300,
# transmissivity and idler storage down to 1e-12
_AXIS_RANGES = {"gamma_w": (1e-8, 1e12), "gamma_o": (1e-8, 1e12), "eta": (1e-12, 1.0),
                "t_b": (1e-6, 1e300), "t_eom": (1e-6, 1e300), "kappa_i": (1e-12, 1.0)}
_ALL_OUTPUTS = ("n_w, n_o, e_metric, log_neg_per_photon, coh_info_per_photon, "
                "discord_per_photon, fom, p_qi@1e6, p_coh@1e6")
_PHYSICS_ERROR = re.compile(
    r"(InstabilityError|PhysicalityError|UndefinedMetricError|OverflowError): \S")
_NAMED_OVERFLOW = re.compile(r"OverflowError: .* \((input t_eom|input t_b|inputs t_eom and t_b)\)$")


def _random_grid(rng):
    """1-3 log axes over random spans of their ranges, an end pinned to a range edge at times."""
    axes = []
    for name in rng.sample(sorted(_AXIS_RANGES), rng.randint(1, 3)):
        edges = [math.log10(edge) for edge in _AXIS_RANGES[name]]
        lo, hi = sorted(rng.uniform(*edges) for _ in range(2))
        lo = edges[0] if rng.random() < 0.3 else lo
        hi = edges[1] if rng.random() < 0.3 else hi
        axes.append(f"{name} log {10 ** lo!r} {10 ** hi!r} {rng.randint(2, 4)}")
    return parse_config(POINT_CFG.replace("n_w, n_o, e_metric, fom", _ALL_OUTPUTS)
                        + "\n[grid]\n" + "".join(f"axis = {a}\n" for a in axes))


def test_random_grids_to_the_range_extremes_give_clean_physical_rows():
    # every metric cell finite, every error a physics error, and D >= 0 and
    # I_C <= E_N without slack, on 200 seeded configs with all outputs selected.  A
    # stable row holds every metric cell or else an error, an unstable row neither, and
    # an overflow names its input
    rng = random.Random(2015)
    rows = 0
    for _ in range(200):
        header, *data = _parse_csv(run_sweep(_random_grid(rng)))
        first = header.index("stable") + 2
        for row in data:
            cells = dict(zip(header, row))
            rows += 1
            metrics = row[first:-1]
            assert all(math.isfinite(float(cell)) for cell in metrics if cell), row
            assert not cells["error"] or _PHYSICS_ERROR.match(cells["error"]), row
            if cells["stable"] == "0":
                assert not any(metrics) and not cells["error"], row
            else:
                assert not any(metrics) if cells["error"] else all(metrics), row
            if cells["error"].startswith("OverflowError"):
                assert _NAMED_OVERFLOW.match(cells["error"]), row
            if cells["discord_per_photon"]:
                assert float(cells["discord_per_photon"]) >= 0.0, row
                assert float(cells["coh_info_per_photon"]) <= float(
                    cells["log_neg_per_photon"]), row
    assert rows > 2000
