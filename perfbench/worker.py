"""One measured process of the mwqi benchmark.

Started by ``run.py`` in a fresh interpreter with BLAS pinned to one thread.
It imports ``mwqi`` and parses the workload config (the end of set-up, read
against the caller's clock), then calls the public entry point
``mwqi.cli.main`` in-process: a first call, then later calls until the
monotonic deadline ``--until`` (at least ``MIN_LATER`` of them).  With
``--trace 1`` the later calls are split into an untraced half and a traced
half.  The calibration kernel (``calibration.py``) is timed after set-up and
after every call.  The result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import calibration

MIN_LATER = 1


def _environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        deps = config.get("Build Dependencies", {}).get("blas", {})
        return {key: deps.get(key) for key in ("name", "version", "openblas configuration")}

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "thread_env": {key: os.environ.get(key) for key in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--command", required=True, choices=("sweep", "report"))
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True, help="output path prefix for mwqi --out")
    ap.add_argument("--result", required=True)
    ap.add_argument("--until", type=float, required=True, help="time.monotonic() deadline")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    import mwqi
    import mwqi.cli
    from mwqi.sweep import parse_config

    with open(args.config, encoding="utf-8") as fh:
        parse_config(fh.read())
    result = {"parsed_at": time.monotonic(), "mwqi_file": mwqi.__file__,
              "kernel_s": calibration.kernel_s()}

    def call(out_path):
        argv = [args.command, args.config, "--out", out_path]
        t0 = time.perf_counter()
        rc = mwqi.cli.main(argv)
        elapsed = time.perf_counter() - t0
        with open(out_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return {"seconds": elapsed, "rc": rc, "sha256": digest, "kernel_s": calibration.kernel_s()}

    def loop(until, before=None, after=None):
        # stop before a call that would overrun the deadline
        calls = []
        while True:
            if before:
                before()
            calls.append(call(args.out + ".later"))
            if after:
                calls[-1]["layers"] = after()
            typical = statistics.median(c["seconds"] for c in calls)
            if len(calls) >= MIN_LATER and time.monotonic() + typical > until:
                return calls

    result["first"] = call(args.out + ".first")
    if args.trace:
        result["later"] = loop((time.monotonic() + args.until) / 2)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

        pending_spans = [True]  # spans of the first traced call only

        def before():
            tracer.reset()
            tracer.recording = bool(pending_spans and pending_spans.pop())

        try:
            result["traced"] = loop(args.until, before, tracer.snapshot)
        finally:
            tracer.uninstall()
        if args.spans:
            tracer.write_spans(args.spans)
        result["spans_dropped"] = tracer.spans_dropped
    else:
        result["later"] = loop(args.until)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["environment"] = _environment()

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
