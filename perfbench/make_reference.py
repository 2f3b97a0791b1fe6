"""Regenerate the reference outputs in ``perfbench/reference/``.

    python3 perfbench/make_reference.py

Runs each workload once at the demo seed through ``mwqi.cli.main`` and keeps
what ``check.py`` compares against: every surfaces row, every 11th
advantage row and the deterministic part of the report.  Only rerun it when
a change of the program's numbers is intended, and say so in CHANGES.md.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
from workloads import DEMO_SEED, WORKLOADS, generate  # noqa: E402


def main() -> int:
    import mwqi.cli

    with tempfile.TemporaryDirectory() as tmp:
        for workload, (command, _) in WORKLOADS.items():
            cfg, out = Path(tmp) / "bench.cfg", Path(tmp) / "bench.out"
            cfg.write_text(generate(workload, DEMO_SEED), encoding="utf-8")
            rc = mwqi.cli.main([command, str(cfg), "--out", str(out)])
            text = out.read_text(encoding="utf-8")
            if command == "sweep":
                path = check.write_reference(workload, text)
            else:
                path = check.write_report_reference(text)
            print(f"{workload}: exit {rc}, wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
