import csv
import dataclasses
import io
import math
import random
import re
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
    with pytest.raises(ConfigError):
        parse_config(POINT_CFG + "[channel]\nn_b = 5\n")  # both t_b and n_b
    with pytest.raises(ConfigError) as err:
        # n_b would override every t_b axis value
        parse_config("[channel]\nn_b = 600\n[grid]\naxis = t_b lin 1 300 3\n")
    assert "t_b" in str(err.value)
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
    ("[fig3]\nm_min = 1e6\nm_max = 1e4", "field 'm_min': need m_min <= m_max"),
], ids=["unit-on-plain", "not-a-number", "switch", "axis-fields", "axis-name",
        "axis-spacing", "mode-count", "section", "no-equals", "grid-key", "outputs-key",
        "duplicate-axis", "m-range"])
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
    params = cfg.params
    baths = mwqi.bath_occupations(params)
    for row in data:
        gamma_w, eta, t_b, kappa_i = map(float, row[:4])
        coop = mwqi.Cooperativities(gamma_w, cfg.gamma_o)
        coef = mwqi.coefficients(coop)
        m = mwqi.source_moments(coef, baths.n_w, baths.n_o, baths.n_b)
        ch = mwqi.TargetChannelParams(eta, mwqi.planck_occupation(params.omega_w, t_b))
        rx = mwqi.ReceiverParams(coef, kappa_i)
        values = (mwqi.figure_of_merit(m, ch, rx, baths),
                  mwqi.error_probability(mwqi.receiver_statistics(m, ch, rx, baths).snr_per_m,
                                         1e6),
                  mwqi.error_probability(mwqi.coherent_snr_per_mode(m.n_w, ch), 1e6))
        assert row[4:] == ["1", f"{mwqi.is_stable(coop, params).margin:.16e}",
                           *(f"{value:.16e}" for value in values), ""]


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


@pytest.mark.parametrize("select", ["fom, log_neg_per_photon", "log_neg_per_photon, fom"])
def test_row_names_the_report_error_before_the_channel_error(select):
    # n_w = 0 fails the correlation report at every point, and eta = 1.5 the channel
    rows = _parse_csv(run_sweep(parse_config(f"""
[eom]
t_eom = 0 mk
[drive]
gamma_w = 0
gamma_o = 0
[channel]
eta = 0.07
t_b = 293 k
[grid]
axis = eta lin 0.5 1.5 3
[outputs]
select = {select}
""")))
    errors = [dict(zip(rows[0], r))["error"] for r in rows[1:]]
    assert errors == ["UndefinedMetricError: normalization undefined at n_w = 0"] * 3


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
    calls = {"n": 0}
    real = sweep_mod.correlation_report

    def flaky(m):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("synthetic metric failure")
        return real(m)

    monkeypatch.setattr(sweep_mod, "correlation_report", flaky)
    cfg = parse_config(POINT_CFG.replace(
        "select = n_w, n_o, e_metric, fom",
        "select = log_neg_per_photon") + """
[grid]
axis = gamma_w log 2e3 8e3 3
""")
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
    # eta first changes the drive point at every row, eta last shares it
    # between consecutive rows; both must give the same rows
    def rows(cfg):
        header, *data = _parse_csv(run_sweep(cfg))
        order = ["gamma_w", "gamma_o", "eta"] + header[3:]
        return sorted(",".join(dict(zip(header, r))[h] for h in order) for r in data)

    no_reuse = rows(_grid(_ETA, _GAMMA_W, _GAMMA_O))
    assert no_reuse == rows(_grid(_GAMMA_W, _GAMMA_O, _ETA))
    assert len(no_reuse) == 36
    assert {r.split(",")[3] for r in no_reuse} == {"0", "1"}  # crosses the unstable region


@pytest.mark.parametrize("axes, shared", [
    ((_GAMMA_W, _GAMMA_O, _ETA), True),
    ((_ETA, _GAMMA_W, _GAMMA_O), False),
])
def test_source_is_evaluated_once_per_run_of_a_drive_point(monkeypatch, axes, shared):
    calls = []
    real = sweep_mod.coefficients
    monkeypatch.setattr(sweep_mod, "coefficients",
                        lambda coop: calls.append(coop) or real(coop))
    header, *data = _parse_csv(run_sweep(_grid(*axes)))
    stable = [record for record in (dict(zip(header, r)) for r in data)
              if record["stable"] == "1"]
    drive_points = {(r["gamma_w"], r["gamma_o"]) for r in stable}
    assert 0 < len(drive_points) < len(stable)
    assert len(calls) == (len(drive_points) if shared else len(stable))


def test_failing_drive_point_fails_each_of_its_rows(monkeypatch):
    # the hot source overflows the symplectic spectrum; the failure is not
    # kept, so each row at that drive point recomputes it and records the
    # same error, and the next drive point is clean
    calls = []
    real = sweep_mod.correlation_report
    monkeypatch.setattr(sweep_mod, "correlation_report",
                        lambda m: calls.append(m) or real(m))
    header, *data = _parse_csv(run_sweep(_grid(
        "gamma_w log 4e3 6e3 2", "t_eom log 0.03 1e160 2", "eta lin 0.05 0.1 3")))
    records = [dict(zip(header, r)) for r in data]
    hot = [r for r in records if r["t_eom"] == "1.0000000000000000e+160"]
    assert len(hot) == 6 and len(calls) == 2 + len(hot)
    for r in hot:
        assert r["error"] == "OverflowError: symplectic spectrum overflows float64"
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
    real = sweep_mod.source_moments

    def doubled(coef, *baths):
        m = real(coef, *baths)
        return dataclasses.replace(m, n_w=2.0 * m.n_w)

    monkeypatch.setattr(sweep_mod, "source_moments", doubled)
    swapped = run_sweep(cfg)
    monkeypatch.setattr(sweep_mod, "source_moments", real)
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
    """Count the calls of ``mwqi.sweep.<name>``."""
    calls = []
    real = getattr(sweep_mod, name)
    monkeypatch.setattr(sweep_mod, name, lambda *args, **kwargs: calls.append(args)
                        or real(*args, **kwargs))
    return calls


def test_channel_and_receiver_are_built_once_per_key(monkeypatch):
    channels = _counting(monkeypatch, "_channel")
    receivers = _counting(monkeypatch, "ReceiverParams")
    header, *data = _parse_csv(run_sweep(_grid(
        "gamma_w log 4e3 6e3 2", "kappa_i lin 0.5 1 2", "eta log 1e-3 1e-1 3",
        "t_b lin 10 300 2", select="fom, p_qi@1e6")))
    records = [dict(zip(header, r)) for r in data]
    assert len(records) == 24
    assert all(r["stable"] == "1" and r["error"] == "" for r in records)
    assert len(channels) == len({(r["eta"], r["t_b"]) for r in records}) == 6
    assert len(receivers) == len({(r["gamma_w"], r["kappa_i"]) for r in records}) == 4


def test_sweep_memo_stays_bounded(monkeypatch):
    # the caches keep the last source and report, and one receiver per kappa_i
    # value; with the value being built, that is the peak whatever the grid size
    peaks, calls = {}, {}
    for name in ("source_moments", "correlation_report", "ReceiverParams"):
        def tracked(*args, _name=name, _real=getattr(sweep_mod, name), _live=weakref.WeakSet()):
            result = _real(*args)
            _live.add(result)
            peaks[_name] = max(peaks.get(_name, 0), len(_live))
            calls[_name] = calls.get(_name, 0) + 1
            return result
        monkeypatch.setattr(sweep_mod, name, tracked)
    header, *data = _parse_csv(run_sweep(_grid(
        "gamma_w log 1e2 1e4 20", "gamma_o log 1e1 1e3 20", "kappa_i lin 0.5 1 3",
        "eta log 1e-3 1e-1 2", select="log_neg_per_photon, fom")))
    assert len(data) == 2400
    assert min(calls.values()) > 100
    assert peaks["source_moments"] <= 2 and peaks["correlation_report"] <= 2
    assert peaks["ReceiverParams"] <= 3 + 1


@pytest.mark.parametrize("axes, builder, bad_key, message", [
    (("gamma_w log 4e3 6e3 2", "eta lin 0.5 1.5 3"), "_channel",
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
    assert len(calls) == 2 + len(bad)  # the two good keys, once each
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
    assert record["error"] == "OverflowError: Planck occupation overflows float64 at 1e+308 K"
    assert all(record[token] == "" for token in cfg.outputs)
    assert "inf" not in ",".join(row)


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
            assert all(record[token] == "" for token in cfg.outputs)
            errors += 1
        elif record["stable"] == "1":
            assert all(math.isfinite(float(record[token])) for token in cfg.outputs), record
    assert errors == named


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


def test_report_builds_the_receiver_statistics_twice(monkeypatch):
    # one build for the mu/var/snr and P_QI lines, one inside figure_of_merit
    path = Path(__file__).resolve().parents[1] / "demos" / "configs" / "operating_point.cfg"
    config = dataclasses.replace(parse_config(path.read_text()), mc_validation=False)
    real, calls = mwqi.detection.receiver_statistics, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mwqi.detection, "receiver_statistics", counted)
    monkeypatch.setattr(sweep_mod, "receiver_statistics", counted)
    text, ok = report_point(config)
    assert ok and "P_QI" in text
    assert len(calls) == 2


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
    # I_C <= E_N without slack, on 200 seeded configs with all outputs selected
    rng = random.Random(2015)
    rows = 0
    for _ in range(200):
        header, *data = _parse_csv(run_sweep(_random_grid(rng)))
        first = header.index("stable") + 2
        for row in data:
            cells = dict(zip(header, row))
            rows += 1
            assert all(math.isfinite(float(cell)) for cell in row[first:-1] if cell), row
            assert not cells["error"] or _PHYSICS_ERROR.match(cells["error"]), row
            if cells["discord_per_photon"]:
                assert float(cells["discord_per_photon"]) >= 0.0, row
                assert float(cells["coh_info_per_photon"]) <= float(
                    cells["log_neg_per_photon"]), row
    assert rows > 2000
