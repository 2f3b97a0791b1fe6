"""The documented config examples parse, and the documented flag set holds."""

import re
import textwrap
from pathlib import Path

import pytest

import mwqi.cli as cli
import mwqi.sweep as sweep
from mwqi import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_block_parses():
    block, = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    config = parse_config(block)
    assert config.axes and config.outputs and config.mc_validation


def test_sweep_docstring_example_parses():
    example = sweep.__doc__.split("Example::", 1)[1].split("Omitted", 1)[0]
    config = parse_config(textwrap.dedent(example))
    assert config.axes and config.outputs


@pytest.mark.parametrize("argv", [["sweep", "x.cfg", "--threads", "2"],
                                  ["fig3", "x.cfg", "--mc"]])
def test_undocumented_flags_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
