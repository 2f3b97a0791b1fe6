import pytest

import mwqi.cli as cli

POINT_CFG = """
[drive]
gamma_w = 5181.95
gamma_o = 668.43

[channel]
eta = 0.07
t_b = 293 k

[outputs]
select = n_w, n_o, fom
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "point.cfg"
    path.write_text(POINT_CFG)
    return str(path)


def test_sweep_to_stdout(cfg_path, capsys):
    assert cli.main(["sweep", cfg_path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("# mwqi")
    assert "stable,margin,n_w,n_o,fom,error" in out


def test_sweep_to_file(cfg_path, tmp_path):
    out = tmp_path / "grid.csv"
    assert cli.main(["sweep", cfg_path, "--out", str(out)]) == 0
    assert out.read_text().startswith("# mwqi")


def test_fig3_subcommand(cfg_path, tmp_path):
    path = tmp_path / "fig3.cfg"
    path.write_text(POINT_CFG + "\n[fig3]\nm_min = 1e5\nm_max = 1e6\nm_points = 3\n")
    out = tmp_path / "curves.csv"
    assert cli.main(["fig3", str(path), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[3] == "m,p_qi,p_coh,fom"


def test_fig3_overflowing_snr_gives_zero_probabilities(tmp_path):
    # M * snr overflows to inf on a lossless, background-free channel
    path = tmp_path / "fig3.cfg"
    path.write_text(POINT_CFG.replace("eta = 0.07", "eta = 1.0").replace("293 k", "0 k")
                    + "\n[fig3]\nm_min = 1e300\nm_max = 1e308\nm_points = 3\n")
    out = tmp_path / "curves.csv"
    assert cli.main(["fig3", str(path), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[4:]]
    assert len(rows) == 3
    assert all(float(p_qi) == 0.0 and float(p_coh) == 0.0 for _, p_qi, p_coh, _ in rows)


def test_report_subcommand(cfg_path, capsys):
    assert cli.main(["report", cfg_path]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_report_with_mc_flag(tmp_path, capsys):
    path = tmp_path / "mc.cfg"
    path.write_text(POINT_CFG + "\n[mc]\nvalidation = on\nsamples = 20000\nseed = 8\n")
    assert cli.main(["report", str(path)]) == 0
    assert "Monte-Carlo validation" in capsys.readouterr().out


def test_missing_config_exits_1(tmp_path, capsys):
    assert cli.main(["sweep", str(tmp_path / "nope.cfg")]) == 1
    assert "config error" in capsys.readouterr().err


def test_bad_config_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[eom]\nomega_m = ten\n")
    assert cli.main(["sweep", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_unstable_point_exits_2(tmp_path, capsys):
    path = tmp_path / "unstable.cfg"
    path.write_text(POINT_CFG.replace("gamma_o = 668.43", "gamma_o = 7000"))
    assert cli.main(["report", str(path)]) == 2
    assert "physics error" in capsys.readouterr().err
    path.write_text(POINT_CFG.replace("gamma_o = 668.43", "gamma_o = 7000")
                    + "\n[fig3]\nm_min = 10\nm_max = 100\nm_points = 2\n")
    assert cli.main(["fig3", str(path)]) == 2


FIG3_CFG = "\n[fig3]\nm_min = 10\nm_max = 100\nm_points = 2\n"
# the stability cubic's coefficients overflow float64
HUGE_DRIVE_CFG = POINT_CFG.replace("gamma_w = 5181.95", "gamma_w = 1e100") + FIG3_CFG
# no drive and a cold converter: n_w = 0 leaves the per-photon metrics undefined
DARK_CFG = (POINT_CFG.replace("5181.95", "0").replace("668.43", "0")
            + "\n[eom]\nt_eom = 0 mk\n")

# a converter so hot that the source state's ab - c^2 overflows float64 (from ~1e153 k)
HOT_CFG = POINT_CFG + "\n[eom]\nt_eom = 1e160 k\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,text,message", [
    ("report", HUGE_DRIVE_CFG, "overflows"),
    ("fig3", HUGE_DRIVE_CFG, "overflows"),
    ("report", DARK_CFG, "n_w = 0"),
    ("report", HOT_CFG, "overflows"),
], ids=["overflow-report", "overflow-fig3", "zero-photons-report", "hot-source-report"])
def test_physics_error_exits_2(tmp_path, capsys, command, text, message):
    path = tmp_path / "physics.cfg"
    path.write_text(text)
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("physics error: ") and message in err
    assert len(err.splitlines()) == 1


def test_incomplete_config_exits_1_whatever_the_points(tmp_path, capsys):
    # no [channel]: every sweep point is unstable, and so is the fig3 base point
    path = tmp_path / "incomplete.cfg"
    path.write_text("[drive]\ngamma_w = 10\n[grid]\naxis = gamma_o log 1e3 1e4 4\n"
                    "[outputs]\nselect = n_w, fom\n")
    assert cli.main(["sweep", str(path)]) == 1
    path.write_text("[drive]\ngamma_w = 5181.95\ngamma_o = 7000\n" + FIG3_CFG)
    assert cli.main(["fig3", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("config error: ") for line in err)


DRIVE_ONLY_CFG = "[drive]\ngamma_w = 5181.95\ngamma_o = 668.43\n"


@pytest.mark.parametrize("extra, missing", [
    ("[channel]\neta = 0.07\n", "t_b"),
    ("[channel]\nt_b = 293 k\n", "eta"),
    ("[channel]\nn_b = 600\n", "eta"),
    ("[mc]\nvalidation = on\n", "eta"),
], ids=["eta-only", "t_b-only", "n_b-only", "mc-config"])
def test_report_with_part_of_a_channel_exits_1(tmp_path, capsys, extra, missing):
    path = tmp_path / "partial.cfg"
    path.write_text(DRIVE_ONLY_CFG + extra)
    assert cli.main(["report", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"config error: field '{missing}': missing [channel]")


def test_report_without_channel_exits_0(tmp_path, capsys):
    path = tmp_path / "source.cfg"
    path.write_text(DRIVE_ONLY_CFG)
    assert cli.main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "result: all checks passed" in out and "detection" not in out


@pytest.mark.filterwarnings("error")
def test_overflowing_source_lands_in_error_column(tmp_path, capsys):
    path = tmp_path / "hot.cfg"
    path.write_text(HOT_CFG.replace("select = n_w, n_o, fom",
                                    "select = n_w, log_neg_per_photon, discord_per_photon"))
    assert cli.main(["sweep", str(path)]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert row[2:5] == ["", "", ""]
    assert row[5] == "OverflowError: symplectic spectrum overflows float64"


def test_hot_weakly_driven_report_has_nonnegative_discord(tmp_path, capsys):
    # at 300 k the idler holds n_o = 7.7e6, where the textbook entropy and the
    # rounding-picked homodyne branch printed D = -5.2e-8 bits and exited 3
    path = tmp_path / "hot.cfg"
    path.write_text("[eom]\nt_eom = 300 k\n[drive]\ngamma_w = 1e-6\ngamma_o = 0.2848\n")
    assert cli.main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[ok] discord >= 0" in out and "D = 4.049" in out


def test_failed_validation_exits_3(cfg_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "report_point", lambda cfg: ("forced failure\n", False))
    assert cli.main(["report", cfg_path]) == 3


@pytest.mark.parametrize("entry", ["samples = 1", "samples = 0", "samples = 2.5",
                                   "samples = inf", "seed = -3", "seed = 0.5"])
def test_bad_mc_entry_exits_1(tmp_path, capsys, entry):
    path = tmp_path / "mc.cfg"
    path.write_text(POINT_CFG + f"\n[mc]\nvalidation = on\n{entry}\n")
    assert cli.main(["report", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_integral_float_mc_entries_accepted():
    config = cli.parse_config(POINT_CFG + "\n[mc]\nsamples = 1e6\nseed = 7.0\n")
    assert (config.mc_samples, config.seed) == (10 ** 6, 7)
    assert isinstance(config.mc_samples, int) and isinstance(config.seed, int)


def test_zero_standard_error_fails_validation(tmp_path, capsys):
    # two samples give a clamped variance standard error of exactly 0
    path = tmp_path / "mc.cfg"
    path.write_text(POINT_CFG + "\n[mc]\nvalidation = on\nsamples = 2\n")
    assert cli.main(["report", str(path)]) == 3
    out = capsys.readouterr().out
    assert "variance delta inf se" in out
    assert "CHECKS FAILED" in out


@pytest.mark.parametrize("command", ["sweep", "fig3", "report"])
@pytest.mark.parametrize("entry", [
    "[channel]\neta = 2", "[channel]\nkappa_i = 0", "[channel]\nkappa_i = 2",
    "[channel]\nt_b = -1 k", "[drive]\ngamma_w = -1",
    "[eom]\nt_eom = -1 mk", "[eom]\nomega_m = 0 mhz",
])
def test_out_of_range_base_value_exits_1(tmp_path, capsys, command, entry):
    path = tmp_path / "range.cfg"
    path.write_text(POINT_CFG + f"\n{entry}\n")
    assert cli.main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "must be" in err
