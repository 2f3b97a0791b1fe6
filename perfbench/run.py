"""mwqi benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload surfaces --seed 1 --seconds 30 --trace 0

The checkout is found from this file's location and must hold
``src/mwqi``; without it the run exits with code 2.  The workload
config is generated from (workload, seed) by ``workloads.generate`` and
written to ``perfbench/out/``; the program sees only that text, through its
public entry point ``mwqi.cli.main`` called in-process by ``worker.py``
processes with BLAS pinned to one thread and ``--threads`` at its default.

``--trace 0`` splits the ``--seconds`` into ``LAUNCHES`` equal slots, one
fresh worker process each, so that every metric samples the whole run.  Each
worker sets up, makes its first call and makes later calls until its slot
ends.  Every timing is scaled to the reference host speed by the calibration
kernel timed next to it (see ``calibration.py``), then the median is taken;
the raw medians are printed as comments and every raw and scaled time is
kept in ``perfbench/out/<workload>.result.json``.  The sample counts are
printed with the metrics:
  setup_s       fresh interpreter start -> ``import mwqi`` -> config parsed,
                one per launch;
  first_call_s  the first workload call of a process, one per launch;
  run_s         the later calls of every launch;
  points_per_s  grid points per call (1 for the report) / run_s;
  ok_frac       1 - failed / attempted points over every call;
  peak_rss_mb   peak resident memory of a launch.

``--trace 1`` runs one process for ``--seconds`` whose later calls are split
into an untraced and a traced half (see ``tracer.py``) and prints the
per-layer metrics, which are raw wall times and counts; spans of the first
traced call go to ``perfbench/out/``.

Outputs are checked by ``check.py``; a result that fails the check prints
``"correct": false``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)  # before numpy loads, here and in every worker

import calibration  # noqa: E402
import check  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
LAUNCHES = 10
DEADLINE_S = 170.0

# (name, unit); BENCHMARK.json carries the same names with direction and bound
END_TO_END = [
    ("setup_s", "s"), ("first_call_s", "s"), ("run_s", "s"), ("points_per_s", "1/s"),
    ("ok_frac", "ratio"), ("peak_rss_mb", "MB"),
]
_CALLS_SELF = [
    "converter.is_stable", "converter.coefficients", "converter.source_moments",
    "converter.bath_occupations", "converter.source_state", "states.symplectic_spectrum",
    "correlations.correlation_report", "correlations.gaussian_discord", "correlations.minimize",
    "detection.receiver_statistics", "detection.error_probability", "detection.figure_of_merit",
    "detection.mc_receiver_statistics",
]
PER_LAYER = (
    [(f"{name}.{kind}", unit) for name in _CALLS_SELF for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("converter.is_stable.calls_per_drive_point", "ratio"),
        ("converter.stable_frac", "ratio"),
        ("states.symplectic_spectrum.calls_per_point", "ratio"),
        ("states.entropy.calls", "count"),
        ("correlations.minimize.nfev", "count"),
        ("correlations.nfev_per_discord", "ratio"),
        ("detection.receiver_statistics.calls_per_point", "ratio"),
        ("detection.mc_receiver_statistics.ns_per_sample", "ns"),
        ("detection.mc_receiver_statistics.peak_bytes", "B"),
        ("sweep.run_sweep.self_s", "s"),
        ("sweep.report_point.self_s", "s"),
        ("sweep.parse_config.self_s", "s"),
        ("cli.main.self_s", "s"),
        ("sweep.self_frac", "ratio"),
        ("trace_overhead_s", "s"),
    ]
)


class BenchError(RuntimeError):
    pass


def _launch(workload: str, until: float, trace: int, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    command = WORKLOADS[workload][0]
    result_path = OUT / f"{workload}.worker.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(BENCH / "worker.py"), "--command", command,
            "--config", str(OUT / f"{workload}.cfg"), "--out", str(OUT / f"{workload}.out"),
            "--result", str(result_path), "--until", repr(until),
            "--trace", str(trace), "--spans", str(OUT / f"{workload}.spans.json")]
    launch_kernel_s = calibration.kernel_s()
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before launching a worker")
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchError(f"worker timed out after {remaining:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if Path(result["mwqi_file"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"imported mwqi from {result['mwqi_file']}, not from {SRC}")
    result["setup_s"] = result["parsed_at"] - started
    result["launch_kernel_s"] = launch_kernel_s
    return result


def _scaled_times(result: dict) -> tuple[float, float, list[float]]:
    """Set-up, first-call and later-call times of one launch at the reference speed."""
    setup = calibration.scaled(result["setup_s"], result["launch_kernel_s"], result["kernel_s"])
    calls = [result["first"]] + result["later"]
    before = [result["kernel_s"]] + [c["kernel_s"] for c in calls[:-1]]
    times = [calibration.scaled(c["seconds"], b, c["kernel_s"]) for c, b in zip(calls, before)]
    return setup, times[0], times[1:]


def _calls(result: dict) -> list[dict]:
    return [result["first"]] + result["later"] + result.get("traced", [])


def _check_outputs(workload: str, seed: int, config_text: str, results: list[dict]):
    """Check the first output and the byte-identity of every other call."""
    import mwqi  # from SRC, put on sys.path by main()

    text = (OUT / f"{workload}.out.first").read_text(encoding="utf-8")
    if WORKLOADS[workload][0] == "sweep":
        outcome = check.check_sweep(text, config_text, workload, seed, mwqi)
    else:
        outcome = check.check_report(text, mwqi.parse_config(config_text).mc_samples)
    points = outcome.attempted
    reference_sha = results[-1]["first"]["sha256"]
    attempted = failed = 0
    for result in results:
        for call in _calls(result):
            attempted += points
            rc_ok = call["rc"] == 0 or (call["rc"] == 3 and workload == "report_mc"
                                        and not outcome.health.get("mc_within_3se", True))
            if call["sha256"] != reference_sha or not rc_ok:
                failed += points
                outcome.problems.append(f"call output differs or exit code {call['rc']}")
            else:
                failed += outcome.failed
    return outcome, attempted, failed


def _layer_metrics(result: dict, config) -> tuple[dict, list[str]]:
    snaps = [call["layers"] for call in result["traced"]]
    per_call = [{**{name: stat[0] for name, stat in snap["stats"].items()}, **snap["counts"]}
                for snap in snaps]
    varying = sorted(key for key in per_call[0] if any(c.get(key) != per_call[0][key] for c in per_call))
    first = snaps[0]

    def calls(name):
        return first["stats"].get(name, [0, 0.0, 0.0])[0]

    def seconds(name, column):
        return statistics.median(s["stats"].get(name, [0, 0.0, 0.0])[column] for s in snaps)

    def ratio(num, den):
        return num / den if den else 0.0

    counts = first["counts"]
    stable = counts.get("converter.is_stable.stable", 0)
    drive_points = 1
    for axis in config.axes:
        if axis.name in ("gamma_w", "gamma_o"):
            drive_points *= axis.count
    sweep_self = sum(seconds(name, 2) for name in first["stats"] if name.startswith("sweep."))
    mc = "detection.mc_receiver_statistics"
    values = {}
    for name in _CALLS_SELF:
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.self_s"] = seconds(name, 2)
    values.update({
        "converter.is_stable.calls_per_drive_point": ratio(calls("converter.is_stable"), drive_points),
        "converter.stable_frac": ratio(stable, calls("converter.is_stable")),
        "states.symplectic_spectrum.calls_per_point": ratio(calls("states.symplectic_spectrum"), stable),
        "states.entropy.calls": calls("states.entropy"),
        "correlations.minimize.nfev": counts.get("correlations.minimize.nfev", 0),
        "correlations.nfev_per_discord": ratio(counts.get("correlations.minimize.nfev", 0),
                                               calls("correlations.gaussian_discord")),
        "detection.receiver_statistics.calls_per_point": ratio(calls("detection.receiver_statistics"), stable),
        "detection.mc_receiver_statistics.ns_per_sample": ratio(seconds(mc, 1) * 1e9,
                                                                counts.get(f"{mc}.samples", 0)),
        "detection.mc_receiver_statistics.peak_bytes": counts.get(f"{mc}.peak_bytes", 0),
        "sweep.run_sweep.self_s": seconds("sweep.run_sweep", 2),
        "sweep.report_point.self_s": seconds("sweep.report_point", 2),
        "sweep.parse_config.self_s": seconds("sweep.parse_config", 2),
        "cli.main.self_s": seconds("cli.main", 2),
        "sweep.self_frac": ratio(sweep_self, seconds("cli.main", 1)),
        "trace_overhead_s": (statistics.median(c["seconds"] for c in result["traced"])
                             - statistics.median(c["seconds"] for c in result["later"])),
    })
    return values, varying


def _nproc() -> dict:
    return {"cpu_count": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # SystemExit makes subprocess.run kill and reap a running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (SRC / "mwqi" / "__init__.py").is_file():
        print(f"error: no mwqi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    config_text = generate(args.workload, args.seed)
    (OUT / f"{args.workload}.cfg").write_text(config_text, encoding="utf-8")

    try:
        start = time.monotonic()
        if args.trace:
            results = [_launch(args.workload, start + args.seconds, 1, deadline)]
        else:
            results = [_launch(args.workload, start + args.seconds * (k + 1) / LAUNCHES, 0, deadline)
                       for k in range(LAUNCHES)]
        outcome, attempted, failed = _check_outputs(args.workload, args.seed, config_text, results)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for suffix in ("out.first", "out.later", "worker.json"):
            (OUT / f"{args.workload}.{suffix}").unlink(missing_ok=True)

    import mwqi

    config = mwqi.parse_config(config_text)
    main_run = results[-1]
    if args.trace:
        layer_values, varying = _layer_metrics(main_run, config)
        metrics = {name: {"value": layer_values[name], "unit": unit} for name, unit in PER_LAYER}
        samples = {"traced_calls": len(main_run["traced"]), "untraced_calls": len(main_run["later"]),
                   "spans_dropped": main_run["spans_dropped"]}
        outcome.health["counts_varying_between_calls"] = varying
    else:
        points = outcome.attempted
        scaled = [_scaled_times(r) for r in results]
        later = [t for _, _, ts in scaled for t in ts]
        run_s = statistics.median(later)
        values = {
            "setup_s": statistics.median(setup for setup, _, _ in scaled),
            "first_call_s": statistics.median(first for _, first, _ in scaled),
            "run_s": run_s,
            "points_per_s": points / run_s,
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in results) / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        samples = {"setup_s": len(results), "first_call_s": len(results), "run_s": len(later),
                   "peak_rss_mb": len(results), "points_per_call": points}
        raw_medians = {
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "first_call_s": statistics.median(r["first"]["seconds"] for r in results),
            "run_s": statistics.median(c["seconds"] for r in results for c in r["later"]),
            "kernel_s": statistics.median(c["kernel_s"] for r in results for c in r["later"]),
        }
        print(f"# raw medians, not scaled to the reference speed {json.dumps(raw_medians)}")
    record_times = {"setup_s": [r["setup_s"] for r in results],
                    "first_call_s": [r["first"]["seconds"] for r in results],
                    "later_s": [[c["seconds"] for c in r["later"]] for r in results],
                    "traced_s": [c["seconds"] for c in main_run.get("traced", [])],
                    "kernel_s": [[r["launch_kernel_s"], r["kernel_s"]] + [c["kernel_s"] for c in _calls(r)]
                                 for r in results]}
    if not args.trace:
        record_times["scaled"] = scaled

    environment = dict(main_run["environment"], nproc=_nproc())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": WORKLOADS[args.workload][1], "config": config_text,
        "samples": samples, "times": record_times, "metrics": metrics, "health": outcome.health,
        "problems": outcome.problems, "environment": environment,
    }
    (OUT / f"{args.workload}.result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# samples {json.dumps(samples)}")
    print(f"# health {json.dumps(outcome.health)}")
    for problem in outcome.problems:
        print(f"# problem: {problem}")
    print(f"# environment {json.dumps(environment)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
