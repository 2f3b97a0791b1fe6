"""Command-line front end.

Subcommands::

    mwqi sweep <config>   grid sweep, CSV to stdout or --out
    mwqi fig3 <config>    error probability versus mode count, CSV
    mwqi report <config>  single-point report with invariant checks

The config file is a run's whole input, the Monte-Carlo switch and seed
included ([mc] validation, seed); ``--out`` only says where the output goes.

Exit codes: 0 success, 1 config or output error, 2 physics error
(instability, a non-physical state, a metric undefined at zero photons, or a
quantity that overflows float64), 3 validation failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Iterable

from .converter import InstabilityError, UndefinedMetricError
from .states import PhysicalityError
from .sweep import ConfigError, _sweep_chunks, parse_config, report_point, run_figure3

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PHYSICS = 2
EXIT_VALIDATION = 3


@functools.cache  # one parser per process: main() called in-process reuses it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwqi",
        description="Microwave quantum illumination: sweeps, error-probability "
                    "curves, and operating-point reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sweep", "evaluate a parameter grid and emit CSV"),
        ("fig3", "error probabilities versus mode-pair count, CSV"),
        ("report", "human-readable report of one operating point"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the config file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def _emit(chunks: Iterable[str], out: str | None) -> None:
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = parse_config(fh.read())
        code = EXIT_OK
        if args.command == "sweep":  # the rows are made as they are written
            chunks = _sweep_chunks(config)
        elif args.command == "fig3":
            chunks = [run_figure3(config)]
        else:
            text, ok = report_point(config)
            chunks, code = [text], EXIT_OK if ok else EXIT_VALIDATION
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InstabilityError, PhysicalityError, UndefinedMetricError, OverflowError) as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    try:  # --out is opened only now: a config or physics error leaves it as it was
        _emit(chunks, args.out)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
