"""The documented config examples parse, the README quick start runs, the
documented flag set holds, the package exports exactly the submodules' public
names, and the sources keep the declared Python floor."""

import ast
import re
import textwrap
import types
from pathlib import Path

import pytest

import mwqi
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


def test_readme_lists_every_eom_key():
    text = README.read_text(encoding="utf-8")
    keys = [key for section, key in sweep._KEYS if section == "eom"]
    assert len(keys) == 7 and all(f"`{key}`" in text for key in keys)


def test_readme_quick_start_runs(capsys):
    block, = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {})
    report, fom, p_qi = capsys.readouterr().out.splitlines()
    assert report.startswith("CorrelationReport(e_metric=")
    assert float(fom) > 1.0
    assert 0.0 < float(p_qi) < 0.5


def test_sweep_docstring_example_parses():
    example = sweep.__doc__.split("Example::", 1)[1].split("Omitted", 1)[0]
    config = parse_config(textwrap.dedent(example))
    assert config.axes and config.outputs


@pytest.mark.parametrize("argv", [["sweep", "x.cfg", "--threads", "2"],
                                  ["fig3", "x.cfg", "--mc"],
                                  ["report", "x.cfg", "--mc"],
                                  ["sweep", "x.cfg", "--seed", "1"]])
def test_undocumented_flags_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "fig3", "report"])
def test_help_lists_only_config_and_out(command, capsys):
    # the config file is a run's whole input; --out only places the output
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert re.findall(r"^  (-?-?\w+)", help_text, re.M) == ["config", "-h", "--out"]


def test_package_exports_exactly_the_submodule_names():
    layers = (mwqi.states, mwqi.converter, mwqi.correlations, mwqi.detection, mwqi.sweep)
    union = [name for layer in layers for name in layer.__all__]
    assert sorted(mwqi.__all__) == sorted(union) and len(set(union)) == len(union)
    assert not [name for name in mwqi.__all__
                if isinstance(getattr(mwqi, name), types.ModuleType)]
    namespace = {}
    exec("from mwqi import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(union)


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
