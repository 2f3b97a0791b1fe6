"""Correctness checks of the benchmark's workload outputs.

Sweep CSV (``check_sweep``), every row:
  * header, row count and the grid values in row-major order;
  * stability flag and margin against the scalar ``mwqi.is_stable``
    (rtol ``RTOL_RECOMPUTE``), which fixes the stable/unstable split;
  * an empty ``error`` cell, finite metric cells on stable rows and empty
    ones on unstable rows.
Then a seeded sample of stable rows (every stable row on ``advantage``, where
it is cheap) is recomputed through the scalar public functions at rtol
``RTOL_RECOMPUTE``.  At the demo seed each row kept in ``reference/`` is
compared with the output at rtol ``RTOL_REFERENCE``; at every seed a few
reference rows are recomputed through the scalar functions at that rtol, so
the scalar path itself cannot drift.  ``RTOL_REFERENCE`` leaves room for the
last-digit changes of a closed-form discord or of float64 states.

Report text (``check_report``): every deterministic ``[ok]``/``[FAIL]`` line
must read ``ok`` and every deterministic number must match the reference at
its printed precision.  The Monte-Carlo 3-se lines are statistical: their se
deltas are returned as health numbers, never as failures.

A point fails when any of its checks fails; a structural error (header, row
count, missing section) fails every point.
"""

from __future__ import annotations

import csv
import gzip
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEMO_SEED, generate

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RTOL_RECOMPUTE = 1e-9
RTOL_REFERENCE = 1e-6
ATOL = 1e-12
MARGIN_ATOL = 1e-9  # times the largest |margin| of the grid
SAMPLE_ROWS = {"surfaces": 24, "advantage": None}  # None: every stable row
ANCHOR_ROWS = 6
REFERENCE_STRIDE = {"surfaces": 1, "advantage": 11}

CORRELATION_OUTPUTS = ("log_neg_per_photon", "coh_info_per_photon", "discord_per_photon")


@dataclass
class CheckResult:
    attempted: int
    failed_points: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    health: dict = field(default_factory=dict)

    def fail(self, point: int | None, message: str) -> None:
        if point is None:
            self.failed_points.update(range(self.attempted))
        else:
            self.failed_points.add(point)
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def failed(self) -> int:
        return len(self.failed_points)


def _close(value: float, expected: float, rtol: float, atol: float = ATOL) -> bool:
    return abs(value - expected) <= atol + rtol * abs(expected)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _scalar_outputs(mwqi, config, overrides: dict, outputs) -> dict:
    """Metric values of one stable point through the scalar public functions."""
    params = config.params
    coop = mwqi.Cooperativities(overrides.get("gamma_w", config.gamma_w),
                                overrides.get("gamma_o", config.gamma_o))
    coef = mwqi.coefficients(coop)
    baths = mwqi.bath_occupations(params)
    source = mwqi.source_moments(coef, baths.n_w, baths.n_o, baths.n_b)
    values = {"n_w": source.n_w, "n_o": source.n_o}
    if "e_metric" in outputs:
        values["e_metric"] = 0.0 if source.cross == 0.0 else mwqi.entanglement_metric(source)
    if any(token in outputs for token in CORRELATION_OUTPUTS):
        report = mwqi.correlation_report(source)
        values.update({token: getattr(report, token) for token in CORRELATION_OUTPUTS})
    channel_tokens = [t for t in outputs if t == "fom" or "@" in t]
    if channel_tokens:
        channel = mwqi.TargetChannelParams.from_temperature(
            overrides.get("eta", config.eta), config.t_b, params.omega_w)
        receiver = mwqi.ReceiverParams(coef, config.kappa_i)
        stats = mwqi.receiver_statistics(source, channel, receiver, baths)
        for token in channel_tokens:
            if token == "fom":
                values[token] = mwqi.figure_of_merit(source, channel, receiver, baths)
            elif token.startswith("p_qi@"):
                values[token] = mwqi.error_probability_qi(stats, float(token[5:]))
            else:
                values[token] = mwqi.error_probability_coherent(
                    source.n_w, channel, float(token[6:]))
    return {token: values[token] for token in outputs}


def _read_reference(workload: str) -> dict[int, list[str]]:
    with gzip.open(REFERENCE_DIR / f"{workload}.csv.gz", "rt", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {int(row[0]): row[1:] for row in rows[1:]}


def write_reference(workload: str, csv_text: str) -> Path:
    """Keep every ``REFERENCE_STRIDE``-th data row of a demo-seed output."""
    lines = [line for line in csv_text.splitlines() if not line.startswith("#")]
    header, rows = lines[0], lines[1:]
    stride = REFERENCE_STRIDE[workload]
    kept = [f"{i},{row}" for i, row in enumerate(rows) if i % stride == 0]
    path = REFERENCE_DIR / f"{workload}.csv.gz"
    path.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(("\n".join([f"row,{header}"] + kept) + "\n").encode("utf-8"))
    return path


def check_sweep(csv_text: str, config_text: str, workload: str, seed: int, mwqi) -> CheckResult:
    """Check one sweep CSV produced from ``config_text``; ``mwqi`` is the package."""
    config = mwqi.parse_config(config_text)
    axes = config.axes
    outputs = config.outputs
    axis_values = [axis.values() for axis in axes]
    total = math.prod(len(v) for v in axis_values)
    result = CheckResult(attempted=total)

    lines = csv_text.splitlines()
    meta = [line for line in lines if line.startswith("#")]
    body = lines[len(meta):]
    expected_header = [a.name for a in axes] + ["stable", "margin"] + list(outputs) + ["error"]
    if not body or body[0].split(",") != expected_header:
        result.fail(None, f"header {body[:1]} != {expected_header}")
        return result
    rows = [row.split(",") for row in body[1:]]
    if len(rows) != total:
        result.fail(None, f"{len(rows)} rows, expected {total}")
        return result

    n_axes = len(axes)
    stable_count = 0
    stable_rows: list[int] = []  # stable rows with finite metric cells
    overrides_of: list[dict] = []
    stability_cache: dict[tuple, object] = {}
    margins = []
    for i, cells in enumerate(rows):
        if len(cells) != len(expected_header):
            result.fail(i, f"row {i}: {len(cells)} cells")
            overrides_of.append({})
            continue
        index = _unravel(i, [len(v) for v in axis_values])
        overrides = {axis.name: float(vals[k]) for axis, vals, k in zip(axes, axis_values, index)}
        overrides_of.append(overrides)
        try:
            got_axes = [float(c) for c in cells[:n_axes]]
            margin = float(cells[n_axes + 1])
        except ValueError:
            result.fail(i, f"row {i}: unreadable axis or margin cell")
            continue
        if any(not _close(g, overrides[a.name], 1e-12, 0.0) for g, a in zip(got_axes, axes)):
            result.fail(i, f"row {i}: grid values {got_axes} != {overrides}")
        if cells[-1] != "":
            result.fail(i, f"row {i}: error cell {cells[-1]!r}")
        key = (overrides.get("gamma_w", config.gamma_w), overrides.get("gamma_o", config.gamma_o))
        if key not in stability_cache:
            stability_cache[key] = mwqi.is_stable(mwqi.Cooperativities(*key), config.params)
        expected = stability_cache[key]
        margins.append((i, margin, expected.margin))
        flag = cells[n_axes]
        if flag != ("1" if expected.stable else "0"):
            result.fail(i, f"row {i}: stable flag {flag!r}, scalar is_stable says {expected.stable}")
            continue
        metrics = cells[n_axes + 2:-1]
        if expected.stable:
            stable_count += 1
            try:
                finite = all(math.isfinite(float(c)) for c in metrics)
            except ValueError:
                finite = False
            if finite:
                stable_rows.append(i)
            else:
                result.fail(i, f"row {i}: non-finite metric cells {metrics}")
        elif any(metrics):
            result.fail(i, f"row {i}: unstable row with metric cells {metrics}")

    scale = max((abs(m[2]) for m in margins), default=0.0)
    for i, got, expected in margins:
        if not _close(got, expected, RTOL_RECOMPUTE, MARGIN_ATOL * scale):
            result.fail(i, f"row {i}: margin {got!r} != scalar {expected!r}")
    result.health["stable_points"] = stable_count

    rng = random.Random(f"mwqi-bench-check/{workload}/{seed}")
    k = SAMPLE_ROWS.get(workload)
    sample = stable_rows if k is None or k >= len(stable_rows) else sorted(rng.sample(stable_rows, k))
    for i in sample:
        expected = _scalar_outputs(mwqi, config, overrides_of[i], outputs)
        for token, cell in zip(outputs, rows[i][n_axes + 2:-1]):
            if not _close(float(cell), expected[token], RTOL_RECOMPUTE):
                result.fail(i, f"row {i}: {token} = {cell}, scalar path gives {expected[token]!r}")
    result.health["recomputed_rows"] = len(sample)

    if workload in REFERENCE_STRIDE:
        reference = _read_reference(workload)
        if seed == DEMO_SEED:
            for i, ref_cells in reference.items():
                _compare_reference_row(result, i, rows[i], ref_cells, expected_header, scale)
        _anchor(result, reference, workload, n_axes, outputs, mwqi)
    return result


def _unravel(flat: int, shape: list[int]) -> list[int]:
    index = []
    for size in reversed(shape):
        flat, k = divmod(flat, size)
        index.append(k)
    return index[::-1]


def _compare_reference_row(result, i, cells, ref_cells, header, margin_scale) -> None:
    for name, cell, ref in zip(header, cells, ref_cells):
        if name in ("stable", "error") or not ref:
            same = cell == ref
        else:
            atol = MARGIN_ATOL * margin_scale if name == "margin" else ATOL
            try:
                same = _close(float(cell), float(ref), RTOL_REFERENCE, atol)
            except ValueError:
                same = False
        if not same:
            result.fail(i, f"row {i}: {name} = {cell!r}, reference {ref!r}")


def _anchor(result, reference, workload, n_axes, outputs, mwqi) -> None:
    """Recompute a few reference rows through the scalar functions."""
    config = mwqi.parse_config(generate(workload, DEMO_SEED))
    stable = [(i, cells) for i, cells in sorted(reference.items()) if cells[n_axes] == "1"]
    step = max(1, len(stable) // ANCHOR_ROWS)
    for i, cells in stable[::step][:ANCHOR_ROWS]:
        overrides = {axis.name: float(c) for axis, c in zip(config.axes, cells)}
        expected = _scalar_outputs(mwqi, config, overrides, outputs)
        for token, ref in zip(outputs, cells[n_axes + 2:-1]):
            if not _close(expected[token], float(ref), RTOL_REFERENCE):
                result.fail(None, f"scalar {token} at reference row {i} = "
                                  f"{expected[token]!r}, reference {ref}")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
_MC_LINE = re.compile(r"^(h[01]): mean delta (\S+) se, variance delta (\S+) se$")


def _deterministic_part(text: str) -> list[str]:
    """The report without its Monte-Carlo section, mc checks and verdict."""
    kept, in_mc = [], False
    for line in text.splitlines():
        if line.startswith("== "):
            in_mc = line.startswith("== Monte-Carlo")
        # rounding-noise residuals are checked as invariants, not as values
        if in_mc or re.match(r"^\[(ok|FAIL)\] mc ", line) or line.startswith("result:") \
                or "residual" in line:
            continue
        kept.append(line)
    return kept


def _tolerance(token: str) -> float:
    """One unit in the last printed digit, or RTOL_REFERENCE if larger."""
    value = abs(float(token))
    if value == 0.0:
        return ATOL
    mantissa = token.lower().lstrip("+-").partition("e")[0]
    # %.6g drops trailing zeros, so a short token still holds six digits
    digits = max(len(mantissa.replace(".", "").lstrip("0")), 6)
    ulp = 10.0 ** (math.floor(math.log10(value)) - digits + 1)
    return max(ulp, RTOL_REFERENCE * value)


def write_report_reference(text: str) -> Path:
    path = REFERENCE_DIR / "report_mc.txt"
    path.parent.mkdir(exist_ok=True)
    path.write_text("\n".join(_deterministic_part(text)) + "\n", encoding="utf-8")
    return path


def check_report(text: str, mc_samples: int) -> CheckResult:
    result = CheckResult(attempted=1)
    lines = text.splitlines()
    checks = {}
    for line in lines:
        m = re.match(r"^\[(ok|FAIL)\] (.+)$", line)
        if m:
            checks[m.group(2)] = m.group(1) == "ok"
    deterministic = {name: ok for name, ok in checks.items() if not name.startswith("mc ")}
    reference_lines = (REFERENCE_DIR / "report_mc.txt").read_text(encoding="utf-8").splitlines()
    expected_checks = {m.group(1) for line in reference_lines
                       if (m := re.match(r"^\[ok\] (.+)$", line)) and not m.group(1).startswith("mc ")}
    if set(deterministic) != expected_checks:
        result.fail(None, f"invariant checks {sorted(deterministic)} != {sorted(expected_checks)}")
    for name, ok in deterministic.items():
        if not ok:
            result.fail(None, f"invariant failed: {name}")

    got = _deterministic_part(text)
    ref_det = _deterministic_part("\n".join(reference_lines))
    if len(got) != len(ref_det):
        result.fail(None, f"{len(got)} deterministic lines, reference has {len(ref_det)}")
    for line, ref_line in zip(got, ref_det):
        tokens, ref_tokens = _NUMBER.findall(line), _NUMBER.findall(ref_line)
        if _NUMBER.sub("#", line) != _NUMBER.sub("#", ref_line) or len(tokens) != len(ref_tokens):
            result.fail(None, f"line {line!r} does not match reference {ref_line!r}")
            continue
        for token, ref in zip(tokens, ref_tokens):
            if abs(float(token) - float(ref)) > _tolerance(ref):
                result.fail(None, f"{token} != reference {ref} in {line!r}")

    if f"== Monte-Carlo validation ({mc_samples} samples) ==" not in lines:
        result.fail(None, "Monte-Carlo section missing")
    deltas = {}
    for line in lines:
        m = _MC_LINE.match(line)
        if m:
            deltas[f"{m.group(1)}_mean_delta_se"] = float(m.group(2))
            deltas[f"{m.group(1)}_var_delta_se"] = float(m.group(3))
    if len(deltas) != 4:
        result.fail(None, f"expected 4 Monte-Carlo deltas, found {len(deltas)}")
    result.health["mc_delta_se"] = deltas
    result.health["mc_within_3se"] = all(v <= 3.0 for v in deltas.values())
    return result
