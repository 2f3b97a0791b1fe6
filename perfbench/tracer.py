"""Per-layer tracing for the benchmark's traced run.

The tracer replaces each public function of the mwqi layer modules at every
module binding through which mwqi code calls it (``mwqi.sweep.is_stable``,
``mwqi.converter.is_stable``, ...), plus the solver
``mwqi.correlations.minimize``.  Each wrapper records the call's time, the
time its wrapped callees took (so self time = duration - callee time) and,
while recording, one span (id, parent, name, start, end).  Counts that
belong to a boundary are read from its return value: stable points from
``is_stable``, solver iterations from ``minimize``, samples and peak
allocated bytes from the Monte-Carlo sampler.

Nothing in the package is touched until :meth:`Tracer.install`, and
:meth:`Tracer.uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc

LAYERS = ("cli", "sweep", "converter", "states", "correlations", "detection")
MC_SAMPLER = "detection.mc_receiver_statistics"


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self.spans_dropped = 0
        self.recording = False
        self._stack: list[list] = []  # [callee time, span id] per open call
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        modules = [importlib.import_module(f"mwqi.{layer}") for layer in LAYERS]
        names = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    names[obj] = f"{layer}.{attr}"
        names[importlib.import_module("mwqi.correlations").minimize] = "correlations.minimize"
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in names:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(names[obj], obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _count(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _observe(self, name: str, result) -> None:
        if name == "converter.is_stable":
            self._count("converter.is_stable.stable", int(result.stable))
        elif name == "correlations.minimize":
            self._count("correlations.minimize.nfev", int(result.nfev))
        elif name == MC_SAMPLER:
            self._count(f"{MC_SAMPLER}.samples", int(result.samples))

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        observed = name in ("converter.is_stable", "correlations.minimize", MC_SAMPLER)
        probe_memory = name == MC_SAMPLER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            if probe_memory:
                tracemalloc.start()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if probe_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    key = f"{MC_SAMPLER}.peak_bytes"
                    self.counts[key] = max(self.counts.get(key, 0), peak)
                duration = t1 - t0
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if self.recording:
                    if len(self.spans) < self.span_cap:
                        self.spans.append((span_id, parent, name, t0, t1))
                    else:
                        self.spans_dropped += 1
            if observed:
                self._observe(name, result)
            return result

        return wrapper

    # -- per-call bookkeeping --------------------------------------------
    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counts.clear()

    def snapshot(self) -> dict:
        return {
            "stats": {name: list(stat) for name, stat in self.stats.items() if stat[0]},
            "counts": dict(self.counts),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "clock": "time.perf_counter, seconds",
                "fields": ["id", "parent", "name", "start", "end"],
                "span_cap": self.span_cap,
                "spans_dropped": self.spans_dropped,
                "spans": self.spans,
                "last_call": self.snapshot(),
            }, fh)
