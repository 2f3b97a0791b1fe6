import io
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

import mwqi.cli as cli
import mwqi.sweep as sweep

SRC = pathlib.Path(cli.__file__).resolve().parents[1]  # the mwqi under test, installed or src/

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


# a channel axis first, so the drive keys repeat out of order; 12 rows, of which the
# 1e160 k converter's stable rows fill the error cell and gamma_w = 1e2 is unstable
CHUNKED_CFG = POINT_CFG.replace("n_w, n_o, fom", "n_w, log_neg_per_photon, fom, p_qi@1e6") + """
[grid]
axis = eta lin 0.05 0.1 3
axis = t_eom log 0.03 1e160 2
axis = gamma_w log 1e2 1e4 2
"""


# 12 rows: a multiple of 1, 2, 3, 4, 6 and 12 rows, one over 5 and 11, one under 13
@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 4, 5, 6, 11, 12, 13])
def test_sweep_file_is_the_same_at_any_chunk_size(tmp_path, monkeypatch, chunk_rows):
    config = cli.parse_config(CHUNKED_CFG)
    expected = sweep.run_sweep(config)  # in one chunk
    rows = expected.splitlines()[4:]
    assert len(rows) == 12 and sum(row.endswith("float64 (input t_eom)") for row in rows) == 3
    assert sum(row.split(",")[3] == "0" for row in rows) == 6
    monkeypatch.setattr(sweep, "_CHUNK_ROWS", chunk_rows)
    chunks = list(sweep._sweep_chunks(config))
    assert len(chunks) == 1 + -(-12 // chunk_rows) and all(c.endswith("\n") for c in chunks)
    assert sweep.run_sweep(config) == expected
    path = tmp_path / "grid.cfg"
    path.write_text(CHUNKED_CFG)
    out = tmp_path / "grid.csv"
    assert cli.main(["sweep", str(path), "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode()


def test_sweep_out_in_a_missing_directory_is_an_output_error(cfg_path, tmp_path, capsys):
    assert cli.main(["sweep", cfg_path, "--out", str(tmp_path / "missing" / "grid.csv")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("output error: [Errno 2] ")
    assert len(err.splitlines()) == 1


def test_sweep_to_a_closed_pipe_is_an_output_error(tmp_path, monkeypatch, capsys):
    class ClosedPipe(io.StringIO):
        def write(self, text):  # the reader goes away after the first chunk
            if self.tell():
                raise BrokenPipeError(32, "Broken pipe")
            return super().write(text)

    stdout = ClosedPipe()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sweep, "_CHUNK_ROWS", 2)
    path = tmp_path / "grid.cfg"
    path.write_text(CHUNKED_CFG)
    assert cli.main(["sweep", str(path)]) == 1
    assert stdout.getvalue() == next(sweep._sweep_chunks(cli.parse_config(CHUNKED_CFG)))
    assert capsys.readouterr().err == "output error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("text, error", [
    (CHUNKED_CFG.replace("select = n_w, log_neg_per_photon, fom, p_qi@1e6", ""),
     "field 'select': no outputs selected"),
    (CHUNKED_CFG.replace("gamma_w = 5181.95", "").replace("axis = gamma_w", "axis = gamma_o"),
     "field 'gamma_w': missing [drive] gamma_w (a value or a grid axis)"),
], ids=["empty-select", "no-gamma_w"])
def test_sweep_config_error_writes_nothing(tmp_path, capsys, text, error):
    # the config is checked before --out is opened: an existing file keeps its bytes
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    out = tmp_path / "grid.csv"
    out.write_bytes(b"an earlier run\n")
    for argv in (["sweep", str(path), "--out", str(out)], ["sweep", str(path)]):
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"config error: {error}\n")
    assert out.read_bytes() == b"an earlier run\n"


@pytest.mark.parametrize("etas", [25, 100])
def test_sweep_to_a_file_peak_memory(tmp_path, cfg_path, etas):
    # the CSV is written a chunk of rows at a time: 6,400 or 25,600 rows over 256 drive
    # points hold one chunk (~0.2 MB of text) and the drive stage, not every row
    path = tmp_path / "grid.cfg"
    path.write_text(POINT_CFG.replace("n_w, n_o, fom", "n_w, n_o, e_metric, p_coh@1e6")
                    + "[grid]\naxis = gamma_w log 1e2 1e4 16\naxis = gamma_o log 1e1 1e3 16\n"
                    + f"axis = eta log 1e-3 0.1 {etas}\n")
    out = tmp_path / "grid.csv"
    # a first call builds the parser and imports what the sweep reads
    assert cli.main(["sweep", cfg_path, "--out", str(out)]) == 0
    tracemalloc.start()
    try:
        assert cli.main(["sweep", str(path), "--out", str(out)]) == 0
        assert tracemalloc.get_traced_memory()[1] <= 1e6
    finally:
        tracemalloc.stop()
    assert len(out.read_text().splitlines()) == 4 + 256 * etas


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


@pytest.mark.parametrize("command", ["sweep", "fig3", "report"])
def test_config_not_in_utf8_exits_1(tmp_path, capsys, command):
    # the decode error used to escape main() as a traceback
    path = tmp_path / "latin1.cfg"
    path.write_bytes(POINT_CFG.encode() + b"# \xff\n")
    assert cli.main([command, str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: 'utf-8' codec can't decode byte 0xff")
    assert len(err.splitlines()) == 1


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


# a background given as a photon number is no channel key: only t_b sets it
@pytest.mark.parametrize("extra, error", [
    ("[channel]\neta = 0.07\n", "field 't_b': missing [channel] t_b"),
    ("[channel]\nt_b = 293 k\n", "field 'eta': missing [channel] eta"),
    ("[channel]\nn_b = 600\n", "line 5, field 'n_b': unknown channel parameter 'n_b'"),
    ("[mc]\nvalidation = on\n", "field 'eta': missing [channel] eta"),
], ids=["eta-only", "t_b-only", "n_b-only", "mc-config"])
def test_report_with_part_of_a_channel_exits_1(tmp_path, capsys, extra, error):
    path = tmp_path / "partial.cfg"
    path.write_text(DRIVE_ONLY_CFG + extra)
    assert cli.main(["report", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"config error: {error}\n"


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
    assert row[5] == "OverflowError: symplectic spectrum overflows float64 (input t_eom)"


def test_hot_weakly_driven_report_has_nonnegative_discord(tmp_path, capsys):
    # at 300 k the idler holds n_o = 7.7e6, where the textbook entropy and the
    # rounding-picked homodyne branch printed D = -5.2e-8 bits and exited 3
    path = tmp_path / "hot.cfg"
    path.write_text("[eom]\nt_eom = 300 k\n[drive]\ngamma_w = 1e-6\ngamma_o = 0.2848\n")
    assert cli.main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[ok] discord >= 0" in out and "D = 4.049" in out


def test_report_at_an_underflowing_temperature_exits_0(tmp_path, capsys):
    # k_B T underflows to 0, which divided by zero in the Planck occupation
    path = tmp_path / "cold.cfg"
    path.write_text(POINT_CFG + "\n[eom]\nt_eom = 1e-320 k\n")
    assert cli.main(["report", str(path)]) == 0
    assert "result: all checks passed" in capsys.readouterr().out


def test_report_at_the_stable_edge_exits_0(tmp_path, capsys):
    # gamma_o within an ulp of gamma_w + 1/2: d = 1 + 2 gamma_w - 2 gamma_o is ~5.6e-17 and
    # the coefficients ~1e16, so the commutator residuals (printed -1.000e+00, the 1 lost
    # to terms ~1e32) are bounded relative to those terms, not by an absolute 1e-10
    path = tmp_path / "edge.cfg"
    path.write_text("[drive]\ngamma_w = 0.13620493412851956\ngamma_o = 0.6362049341285195\n"
                    "[channel]\neta = 0.07\nt_b = 293 k\n")
    assert cli.main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "commutator residuals: -1.000e+00, -1.000e+00" in out
    assert "[ok] commutator identities" in out and "result: all checks passed" in out


def test_module_entry_point_runs(tmp_path):
    # `python -m mwqi.cli`, in a fresh interpreter, as the `mwqi` script runs it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    path = tmp_path / "fig3.cfg"
    path.write_text(POINT_CFG + FIG3_CFG)
    proc = subprocess.run([sys.executable, "-m", "mwqi.cli", "fig3", str(path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == cli.run_figure3(cli.parse_config(POINT_CFG + FIG3_CFG))
    path.write_text("[eom]\nomega_m = ten\n")
    proc = subprocess.run([sys.executable, "-m", "mwqi.cli", "report", str(path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("config error: ") and len(proc.stderr.splitlines()) == 1


def test_in_process_calls_match_separate_processes(cfg_path, tmp_path, capsys):
    # main() reuses one parser per process; each call must still read only its own argv
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    bad = tmp_path / "bad.cfg"
    bad.write_text("[eom]\nomega_m = ten\n")
    runs = [["report", cfg_path], ["sweep", cfg_path], ["fig3", str(bad)], ["report", cfg_path]]
    separate = [subprocess.run([sys.executable, "-m", "mwqi.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
                for argv in runs]
    for argv, proc in zip(runs, separate):
        code = cli.main(argv)
        assert (code, *capsys.readouterr()) == (proc.returncode, proc.stdout, proc.stderr)
    assert [proc.returncode for proc in separate] == [0, 0, 1, 0]
    assert cli._build_parser() is cli._build_parser()


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
    "[eom]\nlambda_o = 1e-320 m",  # omega_o = 2*pi*c / lambda_o overflows
])
def test_out_of_range_base_value_exits_1(tmp_path, capsys, command, entry):
    path = tmp_path / "range.cfg"
    path.write_text(POINT_CFG + f"\n{entry}\n")
    assert cli.main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "must be" in err
