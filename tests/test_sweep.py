import csv
import dataclasses
import io
import math

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
        "gamma_w log 4e3 6e3 2", "t_eom log 0.03 1e80 2", "eta lin 0.05 0.1 3")))
    records = [dict(zip(header, r)) for r in data]
    hot = [r for r in records if r["t_eom"] == "1.0000000000000000e+80"]
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
    monkeypatch.setattr(sweep_mod, "TargetChannelParams",
                        lambda eta, n_b: real_channel(eta=eta, n_b=2.0 * n_b))
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
    ("", ("t_eom log 1e154 1e300 5",), 5),
    # the drive plane of advantage_surface.cfg, where 25 rows held nan or inf fom cells
    ("[eom]\nt_eom = 1e154 k\n", ("gamma_w log 1e2 1e4 25", "gamma_o log 1e1 1e3 25"), 305),
], ids=["t_eom-axis", "drive-plane"])
def test_overflowing_receiver_statistics_are_named(eom, axes, named):
    # from t_eom ~ 1e154 K the receiver moments pass float64; rows used to end
    # in the bare "OverflowError: (34; 'Numerical result out of range')"
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


def test_report_unstable_point_raises():
    with pytest.raises(mwqi.InstabilityError):
        report_point(parse_config(POINT_CFG.replace("gamma_o = 668.43",
                                                    "gamma_o = 9000")))
