"""The documented config examples parse, the documented flag set holds, and
the sources keep the declared Python floor."""

import ast
import re
import textwrap
from pathlib import Path

import pytest

import mwqi.cli as cli
import mwqi.sweep as sweep
from mwqi import parse_config

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# math functions newer than the floor: cbrt and exp2 came in 3.11, fma in 3.13
NEWER_MATH = {"cbrt", "exp2", "fma"}


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


def test_sources_keep_python_floor():
    # the test interpreter may be newer than the floor, so check the syntax
    # and the stdlib names that a newer interpreter would accept
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    sources = sorted((ROOT / "src" / "mwqi").glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "math":
                assert node.attr not in NEWER_MATH, f"{path.name}:{node.lineno}: math.{node.attr}"
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                assert not NEWER_MATH & {alias.name for alias in node.names}, path.name
