"""Parameter-grid sweeps with stability masking, error-probability curves,
and single-point reports, all emitted as deterministic CSV or text.

Config format: flat ``key = value`` lines under ``[section]`` headers, with
``#`` comments.  Every physical key carries a unit suffix (hz/khz/mhz/ghz,
mk/k, nm/um/m), so ordinary-frequency inputs become angular rates exactly
once, inside the parser.  Dimensionless values and grid-axis bounds carry no
suffix: axis bounds are plain numbers, in kelvin on t_b and t_eom axes.

Example::

    [eom]
    omega_m = 10 mhz
    t_eom = 30 mk

    [drive]
    gamma_w = 5181.95
    gamma_o = 668.43

    [channel]
    eta = 0.07
    t_b = 293 k
    kappa_i = 1.0

    [grid]
    axis = gamma_w log 1e2 1e4 25
    axis = gamma_o log 1e1 1e3 25

    [outputs]
    select = e_metric, n_w, n_o, fom, p_qi@1e6, p_coh@1e6

Omitted keys take their :class:`SweepConfig` defaults, and [eom] keys those of
the nominal converter; a key given twice is an error, as is an output selected
twice, though several select lines add up.  A config without a [grid] section
evaluates a single point at the base values.  The [mc] section (validation =
on|off, samples, seed) sets the report's Monte-Carlo check; its seed is also
echoed in each output's ``# seed=`` line.  The config text is a run's whole input.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .converter import (
    Cooperativities,
    EomCoefficients,
    EomParams,
    InstabilityError,
    SourceMoments,
    _coefficient_terms,
    _denominator,
    _moment_terms,
    bath_occupations,
    coefficients,
    entanglement_metric,
    is_stable,
    nominal_params,
    source_moments,
)
from .correlations import correlation_columns, correlation_report
from .detection import (
    ReceiverParams,
    TargetChannelParams,
    entanglement_threshold,
    error_probability,
    coherent_snr_per_mode,
    figure_of_merit,
    mc_receiver_statistics,
    receiver_statistics,
)
from .states import PHYSICALITY_TOL

__all__ = [
    "ConfigError",
    "GridAxis",
    "SweepConfig",
    "parse_config",
    "run_sweep",
    "run_figure3",
    "report_point",
]

_FREQ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_TEMP_UNITS = {"mk": 1e-3, "k": 1.0}
_LENGTH_UNITS = {"nm": 1e-9, "um": 1e-6, "m": 1.0}

# allowed range -> test; the text doubles as the error message
_RANGES = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
}
# (section, key) -> (kind, allowed range).  A kind is a unit family of
# _parse_quantity, "switch" for on/off, or an int: the least allowed count.
_KEYS = {
    **{("eom", key): ("freq", "> 0") for key in ("omega_m", "kappa_w", "kappa_o", "omega_w")},
    ("eom", "q_factor"): ("plain", "> 0"),
    ("eom", "lambda_o"): ("length", "> 0"),
    ("eom", "t_eom"): ("temp", ">= 0"),
    ("drive", "gamma_w"): ("plain", ">= 0"),
    ("drive", "gamma_o"): ("plain", ">= 0"),
    ("channel", "eta"): ("plain", "in [0, 1]"),
    ("channel", "t_b"): ("temp", ">= 0"),
    ("channel", "kappa_i"): ("plain", "in (0, 1]"),
    ("fig3", "m_min"): ("plain", ">= 1"),
    ("fig3", "m_max"): ("plain", ">= 1"),
    ("fig3", "m_points"): (1, None),
    ("mc", "validation"): ("switch", None),
    ("mc", "seed"): (0, None),
    ("mc", "samples"): (2, None),
}
_SECTIONS = {section for section, _ in _KEYS} | {"grid", "outputs"}
_AXIS_NAMES = ("gamma_w", "gamma_o", "eta", "t_b", "t_eom", "kappa_i")
_NEEDED = {key: f"[{section}] {key}" for section, key in _KEYS}  # as error messages name it
_MC_FIELDS = {"validation": "mc_validation", "samples": "mc_samples"}  # [mc] key -> field
_CORRELATION_OUTPUTS = ("log_neg_per_photon", "coh_info_per_photon", "discord_per_photon")
_PLAIN_OUTPUTS = ("n_w", "n_o", "e_metric", *_CORRELATION_OUTPUTS, "fom")
_CHUNK_ROWS = 1024  # sweep rows per chunk of CSV text: the CLI writes each as it is made


class ConfigError(ValueError):
    """Config parse or validation failure, with line/field diagnostics."""

    def __init__(self, message: str, line: int | None = None, field_name: str | None = None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if field_name is not None:
            loc.append(f"field '{field_name}'")
        super().__init__(f"{', '.join(loc)}: {message}" if loc else message)
        self.line = line
        self.field_name = field_name


@dataclass(frozen=True)
class GridAxis:
    name: str
    spacing: str  # "lin" | "log"
    lo: float
    hi: float
    count: int

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class SweepConfig:
    params: EomParams = field(default_factory=nominal_params)
    gamma_w: float | None = None
    gamma_o: float | None = None
    eta: float | None = None
    t_b: float | None = None
    kappa_i: float = 1.0
    axes: tuple[GridAxis, ...] = ()
    outputs: tuple[str, ...] = ()
    m_min: float = 1e4
    m_max: float = 1e8
    m_points: int = 41
    seed: int = 0
    mc_validation: bool = False
    mc_samples: int = 10 ** 6
    sha256: str = field(default="", compare=False)


def _parse_quantity(raw: str, kind: str, line: int, key: str) -> float:
    """A finite number; values with a unit come back in SI (frequencies angular)."""
    parts = raw.split()
    if kind == "plain":
        if len(parts) != 1:
            raise ConfigError(f"dimensionless value must not carry a unit: {raw!r}",
                              line, key)
    else:
        units = {"freq": _FREQ_UNITS, "temp": _TEMP_UNITS, "length": _LENGTH_UNITS}[kind]
        if len(parts) != 2 or parts[1].lower() not in units:
            raise ConfigError(
                f"expected '<number> <{'|'.join(units)}>', got {raw!r}", line, key)
    try:
        value = float(parts[0])
    except ValueError:
        raise ConfigError(f"not a number: {parts[0]!r}", line, key) from None
    if not math.isfinite(value):
        raise ConfigError(f"not a finite number: {parts[0]!r}", line, key)
    if kind == "plain":
        return value
    scaled = value * units[parts[1].lower()]
    if kind == "freq":
        scaled *= 2.0 * math.pi  # stored angular
    if not math.isfinite(scaled):
        raise ConfigError(f"not a finite number in SI units: {raw!r}", line, key)
    return scaled


def _parse_count(raw: str, line: int, key: str, low: int) -> int:
    """An integer >= low; integral floats such as 1e6 are accepted."""
    value = _parse_quantity(raw, "plain", line, key)
    if not value.is_integer() or value < low:
        raise ConfigError(f"{key} must be an integer >= {low}, got {raw!r}", line, key)
    return int(value)


def _parse_value(raw: str, kind: str | int, allowed: str | None, line: int, key: str):
    if kind == "switch":
        if raw.lower() not in ("on", "off"):
            raise ConfigError(f"{key} must be 'on' or 'off'", line, key)
        return raw.lower() == "on"
    if isinstance(kind, int):
        return _parse_count(raw, line, key, kind)
    value = _parse_quantity(raw, kind, line, key)
    if not _RANGES[allowed](value):
        raise ConfigError(f"{key} must be {allowed}, got {raw!r}", line, key)
    return value


def _parse_axis(raw: str, line: int, taken: set[str]) -> GridAxis:
    parts = raw.split()
    if len(parts) != 5:
        raise ConfigError(
            f"axis needs '<name> <lin|log> <min> <max> <count>', got {raw!r}", line, "axis")
    name, spacing = parts[0].lower(), parts[1].lower()
    if name not in _AXIS_NAMES:
        raise ConfigError(f"unknown axis {name!r} (known: {', '.join(_AXIS_NAMES)})",
                          line, "axis")
    if name in taken:
        raise ConfigError(f"duplicate axis {name!r}", line, "axis")
    if spacing not in ("lin", "log"):
        raise ConfigError(f"spacing must be lin or log, got {spacing!r}", line, "axis")
    lo, hi = (_parse_quantity(bound, "plain", line, "axis") for bound in parts[2:4])
    if lo <= 0 or lo >= hi:
        raise ConfigError("axis bounds must be positive and ordered", line, "axis")
    return GridAxis(name, spacing, lo, hi, _parse_count(parts[4], line, "axis", 2))


def _parse_output_token(token: str, line: int, taken: list[str]) -> str:
    if token in taken:
        raise ConfigError(f"duplicate output {token!r}", line, "select")
    if token in _PLAIN_OUTPUTS:
        return token
    for prefix in ("p_qi@", "p_coh@"):
        if token.startswith(prefix):
            if _parse_quantity(token[len(prefix):], "plain", line, "select") < 1:
                raise ConfigError(f"mode count must be >= 1 in {token!r}", line, "select")
            return token
    raise ConfigError(f"unknown output {token!r} (known: {', '.join(_PLAIN_OUTPUTS)}, "
                      "p_qi@<M>, p_coh@<M>)", line, "select")


def parse_config(text: str) -> SweepConfig:
    """Parse a sweep config; raises :class:`ConfigError` with diagnostics."""
    section = None
    values: dict[tuple[str, str], float | int | bool] = {}
    axes: list[GridAxis] = []
    outputs: list[str] = []

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", lineno)
        if section is None:
            raise ConfigError("key outside any [section]", lineno)
        key, _, raw = stripped.partition("=")
        key, raw = key.strip().lower(), raw.strip()

        if section == "grid":
            if key != "axis":
                raise ConfigError("grid section accepts only 'axis' entries", lineno, key)
            axes.append(_parse_axis(raw, lineno, {axis.name for axis in axes}))
        elif section == "outputs":
            if key != "select":
                raise ConfigError("outputs section accepts only 'select'", lineno, key)
            for token in filter(None, (t.strip() for t in raw.split(","))):
                outputs.append(_parse_output_token(token, lineno, outputs))
        elif (section, key) in _KEYS:
            value = _parse_value(raw, *_KEYS[section, key], lineno, key)
            if (section, key) in values:
                raise ConfigError(f"duplicate {section} parameter {key!r}", lineno, key)
            values[section, key] = value
        else:
            raise ConfigError(f"unknown {section} parameter {key!r}", lineno, key)

    eom = {key: value for (sec, key), value in values.items() if sec == "eom"}
    try:
        params = dataclasses.replace(nominal_params(), **eom)
    except ValueError as exc:  # each key is in range, so only omega_o = 2*pi*c/lambda_o fails
        raise ConfigError(str(exc), field_name="lambda_o") from None
    config = SweepConfig(
        params=params,
        axes=tuple(axes),
        outputs=tuple(outputs),
        sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        **{_MC_FIELDS.get(key, key): value for (sec, key), value in values.items()
           if sec != "eom"})
    if config.m_max < config.m_min:
        raise ConfigError("need m_min <= m_max", field_name="m_min")
    return config


# ---------------------------------------------------------------------------
# point evaluation
# ---------------------------------------------------------------------------

def _check_config(config: SweepConfig, command: str) -> bool:
    """Raise :class:`ConfigError` naming the first missing needed value; return whether
    the run needs a channel: a sweep for ``fom`` or ``p_*@M`` (axes count as values),
    ``fig3`` always, ``report`` once ``eta`` or ``t_b`` is given or MC is on."""
    sweep = command == "sweep"
    if sweep:
        needs_channel = any(token == "fom" or token.startswith("p_") for token in config.outputs)
    else:
        needs_channel = command == "fig3" or config.mc_validation or any(
            getattr(config, key) is not None for key in ("eta", "t_b"))
    given = {axis.name for axis in config.axes if sweep} | {
        key for key in ("gamma_w", "gamma_o", "eta", "t_b") if getattr(config, key) is not None}
    for key in ("gamma_w", "gamma_o") + (("eta", "t_b") if needs_channel else ()):
        if key not in given:
            where = " (a value or a grid axis)" if sweep else ""
            raise ConfigError(f"missing {_NEEDED[key]}{where}", field_name=key)
    return needs_channel


def _base_point(config: SweepConfig, command: str):
    """(needs channel, cooperativities, params, stability, (coefficients, bath occupations,
    moments)) at the checked config's base values; raises InstabilityError if unstable."""
    needs_channel = _check_config(config, command)
    coop, params = Cooperativities(config.gamma_w, config.gamma_o), config.params
    stability = is_stable(coop, params)
    if not stability.stable:
        raise InstabilityError(
            f"operating point unstable, margin {stability.margin!r} rad/s")
    baths, coef = bath_occupations(params), coefficients(coop)
    return needs_channel, coop, params, stability, (
        coef, baths, source_moments(coef, baths.n_w, baths.n_o, baths.n_b))


def _point_values(plan, m, baths, ch, rx) -> tuple[float, ...]:
    """Channel cell values of one stable sweep row, one per ``(name, mode count)`` in
    ``plan``: ``fom``, ``p_qi@M`` or ``p_coh@M`` over channel ``ch`` and receiver ``rx``.
    The receiver statistics are built at the first ``p_qi@M`` cell."""
    values, stats = [], None
    for token, modes in plan:
        if modes is None:  # fom
            value = figure_of_merit(m, ch, rx, baths)
        else:  # p_qi@M or p_coh@M; p_coh reads no receiver statistics
            if stats is None and token == "p_qi":
                stats = receiver_statistics(m, ch, rx, baths)
            snr = stats.snr_per_m if token == "p_qi" else coherent_snr_per_mode(m.n_w, ch)
            value = error_probability(snr, modes)
        values.append(value)
    return tuple(values)


def _drive_stage(config: SweepConfig, drives, report: bool) -> tuple:
    """The fields of EomCoefficients and of SourceMoments, the cells of n_w, n_o, e_metric
    and, if ``report``, _CORRELATION_OUTPUTS by name, the bath occupations by t_eom and a
    mask, in one array pass over the drive keys: the product of the (t_eom, gamma_w,
    gamma_o) values ``drives``, t_eom slowest.  Where the mask holds, each value is the
    scalar functions' to the bit; elsewhere a scalar function a selected output reads raises."""
    baths_at = {}
    for t in drives[0]:
        try:
            baths_at[t] = bath_occupations(dataclasses.replace(config.params, t_eom=t))
        except Exception:  # not kept: each stable row at this t_eom raises on its own
            pass
    occupations = np.array([dataclasses.astuple(baths_at[t]) if t in baths_at else (math.nan,) * 3
                            for t in drives[0]]).repeat(len(drives[1]) * len(drives[2]), axis=0).T
    gamma_w, gamma_o = np.tile(np.array(list(itertools.product(*drives[1:]))).T, len(drives[0]))
    with np.errstate(all="ignore"):  # a key off the mask may divide by 0 or overflow
        d = _denominator(gamma_w, gamma_o)
        coef = _coefficient_terms(gamma_w, gamma_o, d, np.sqrt)
        n_w, n_o, cross, s = moments = _moment_terms(*coef, *occupations)
        cells = {"n_w": n_w, "n_o": n_o,
                 "e_metric": np.where(cross == 0.0, 0.0, cross / np.sqrt(n_w * n_o))}
        # what coefficients and SourceMoments check (terms >= 0 at d > 0)
        ok = (d > 0) & (n_w < math.inf) & (n_o < math.inf) & (cross < math.inf) & (s >= 0)
        if report or "e_metric" in config.outputs:  # e_metric's rule, and correlation_report's
            ok &= (cross == 0.0) | ((n_w > 0.0) & (n_o > 0.0))
        if report:
            columns, valid = correlation_columns(n_w, n_o, cross, s)
            cells.update(zip(_CORRELATION_OUTPUTS, columns))
            ok &= valid
    return coef, moments, cells, baths_at, ok


def _meta_lines(config: SweepConfig) -> list[str]:
    return [f"# mwqi {__version__}", f"# config-sha256={config.sha256}", f"# seed={config.seed}"]


def run_sweep(config: SweepConfig) -> str:
    """Evaluate the grid and return the CSV text.

    One row per grid point in row-major order (first axis slowest).  Unstable
    points keep their stability flag and margin but leave the metric cells
    empty; a failure at one point lands in the ``error`` column and never
    aborts the sweep.  A config that leaves a needed value unset raises
    :class:`ConfigError` before the first row.  Output is byte-identical for
    an identical config, and each row is the same whatever the axis order.

    What a call builds, and how often:

    - per drive point (t_eom, gamma_w, gamma_o), in one array pass before the rows:
      coefficients, moments, E-metric and any correlation column read, with the
      cells of these outputs formatted once;
    - per run of consecutive rows at one drive point: the cooperativities, the text
      of the stable and margin cells and, for a channel output, moments and
      coefficients as objects and one receiver, rebuilt where kappa_i changes;
    - per row: its six inputs, each an axis value or else the base value; the
      stability test; at a stable row the receiver statistics (once for ``fom``,
      once for any ``p_qi@M``; ``p_coh@M`` reads none) and the channel cells;
    - per key: the bath occupations once per t_eom value, and the channel once per
      (eta, t_b).

    A stable row at a drive point the pass rejects calls that point's scalar functions only
    to raise its error, so a drive point's error comes before a channel's.  A build that
    raises is not kept: each row that needs it raises again, with the same text.  An
    ``OverflowError`` names its input: t_eom at the drive point, t_b at the channel, both at
    the receiver statistics.

    Besides the text it returns, a call holds one chunk of ``_CHUNK_ROWS`` rows at a
    time, the per drive point arrays and cells, and the per key builds above.  ``mwqi
    sweep`` writes each chunk as it is made, so its memory does not grow with the rows.
    """
    return "".join(_sweep_chunks(config))


def _sweep_chunks(config: SweepConfig):
    """:func:`run_sweep`'s text as an iterator of chunks, each ending in a newline: the
    meta lines and header, then the rows ``_CHUNK_ROWS`` at a time.  The checks, the plan
    and the drive stage run before it returns, so a config error raises before any text."""
    if not config.outputs:
        raise ConfigError("no outputs selected", field_name="select")
    # each output as (name, mode count), split once: p_qi@M and p_coh@M carry M
    plan = [(name, float(modes) if modes else None)
            for name, _, modes in (token.partition("@") for token in config.outputs)]
    needs_link = _check_config(config, "sweep")
    needs_report = any(name in _CORRELATION_OUTPUTS for name, _ in plan)
    names = [axis.name for axis in config.axes]
    columns = [axis.values().tolist() for axis in config.axes]
    texts = [["%.16e" % value for value in column] for column in columns]
    no_metrics = "," * (len(config.outputs) - 1)

    # a row's inputs by position in combo + base: the axis value, else the base value
    base = tuple(config.params.t_eom if name == "t_eom" else getattr(config, name)
                 for name in _AXIS_NAMES)
    i_w, i_o, i_eta, i_tb, i_t, i_k = map([*names, *_AXIS_NAMES].index, _AXIS_NAMES)
    drives = [columns[i] if i < len(names) else [base[i - len(names)]] for i in (i_t, i_w, i_o)]
    coefs, moments, stage, baths_at, ok = _drive_stage(config, drives, needs_report)
    # each row's drive key index: the keys are the product of the drives, t_eom slowest
    strides = {i_t: len(drives[1]) * len(drives[2]), i_w: len(drives[2]), i_o: 1}
    steps = [[j * strides.get(i, 0) for j in range(len(col))] for i, col in enumerate(columns)]
    # the drive cells of each key the pass kept, formatted once; "%%" leaves the link cells
    link_plan = [(name, modes) for name, modes in plan if name not in stage]
    form = ",".join("%.16e" if name in stage else "%%.16e" for name, _ in plan)
    drive_cells = [form % tuple(values) if good else None for good, *values in zip(
        ok.tolist(), *(stage[name].tolist() for name, _ in plan if name in stage))]
    coefs, moments = (np.stack(x, axis=1) if needs_link else None for x in (coefs, moments))
    del stage  # the rows read its cells as formatted, and a large grid need not keep both
    channel = functools.lru_cache(maxsize=None)(functools.partial(
        TargetChannelParams.from_temperature, omega_w=config.params.omega_w))
    header = names + ["stable", "margin"] + list(config.outputs) + ["error"]

    def chunks():
        yield "\n".join(_meta_lines(config) + [",".join(header), ""])
        points = zip(itertools.product(*columns), itertools.product(*texts),
                     map(sum, itertools.product(*steps)))
        last = None
        while True:
            rows = []
            for combo, cells, k in itertools.islice(points, _CHUNK_ROWS):
                row = combo + base
                stability_cells, metrics, error, inputs = ",", no_metrics, "", ""
                try:
                    if k != last:  # a new run of rows at one drive point
                        coop = Cooperativities(row[i_w], row[i_o])
                        link, last, text = None, k, None
                    stability = is_stable(coop, config.params)  # the same at every t_eom
                    if text is None:  # once per run: is_stable is pure
                        text = "%d,%.16e" % (stability.stable, stability.margin)
                    stability_cells = text
                    if stability.stable and drive_cells[k] is None:  # only to raise its error
                        inputs = " (input t_eom)"
                        baths = bath_occupations(dataclasses.replace(config.params, t_eom=row[i_t]))
                        m = source_moments(coefficients(coop), baths.n_w, baths.n_o, baths.n_b)
                        if needs_report:
                            correlation_report(m)
                        if "e_metric" in config.outputs:
                            entanglement_metric(m)
                    elif stability.stable and needs_link:
                        if link is None:  # once per run: its source and first receiver, rx
                            rx = ReceiverParams(EomCoefficients(*coefs[k].tolist()), row[i_k])
                            link = SourceMoments(*moments[k].tolist()), baths_at[row[i_t]]
                        elif rx.idler_transmissivity != row[i_k]:  # anew at each kappa_i change
                            rx = ReceiverParams(rx.coef, row[i_k])
                        inputs = " (input t_b)"
                        ch = channel(row[i_eta], row[i_tb])
                        inputs = " (inputs t_eom and t_b)"
                        metrics = drive_cells[k] % _point_values(link_plan, *link, ch, rx)
                    elif stability.stable:
                        metrics = drive_cells[k]
                except Exception as exc:  # recorded per point, sweep continues
                    error = f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")
                    if isinstance(exc, OverflowError):  # name the input that passed float64
                        error += inputs
                rows.append(",".join([*cells, stability_cells, metrics, error]))
            if not rows:
                return
            rows.append("")  # the chunk's closing newline
            yield "\n".join(rows)

    return chunks()


def run_figure3(config: SweepConfig) -> str:
    """Error probabilities of both systems versus the mode-pair count M.

    Columns: m, p_qi, p_coh, fom.  Requires a stable base operating point and
    a channel; probabilities come straight from the stdlib erfc.
    """
    *_, (coef, baths, m) = _base_point(config, "fig3")
    ch = TargetChannelParams.from_temperature(config.eta, config.t_b, config.params.omega_w)
    rx = ReceiverParams(coef, config.kappa_i)
    m_grid = GridAxis("m", "log", config.m_min, config.m_max, config.m_points).values().tolist()
    fom = figure_of_merit(m, ch, rx, baths)
    snr_qi = receiver_statistics(m, ch, rx, baths).snr_per_m
    snr_coh = coherent_snr_per_mode(m.n_w, ch)
    rows = ["%.16e,%.16e,%.16e,%.16e" % (modes, error_probability(snr_qi, modes),
                                         error_probability(snr_coh, modes), fom)
            for modes in m_grid]
    return "\n".join(_meta_lines(config) + ["m,p_qi,p_coh,fom"] + rows) + "\n"


def _se_delta(sampled: float, exact: float, se: float) -> float:
    """|sampled - exact| in standard errors; a zero standard error can validate nothing."""
    return abs(sampled - exact) / se if se > 0 else math.inf


def report_point(config: SweepConfig) -> tuple[str, bool]:
    """Human-readable report of one operating point.

    Returns (text, ok).  ``ok`` is True when every internal invariant holds
    (and, with Monte-Carlo validation on, every sampled statistic agrees with
    its closed form within 3 standard errors).  Raises
    :class:`InstabilityError` for an unstable point and
    :class:`PhysicalityError` for an unphysical source state.
    """
    needs_channel, coop, params, stability, (coef, baths, m) = _base_point(config, "report")
    lines: list[str] = []
    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool):
        checks.append((name, ok))

    lines.append("== operating point ==")
    lines.append(f"gamma_w = {coop.gamma_w:.6g}   gamma_o = {coop.gamma_o:.6g}")
    lines.append(f"t_eom = {params.t_eom:.6g} K")
    lines.append(f"stable: yes (margin {stability.margin:.6g} rad/s, "
                 f"adiabatic criterion {'holds' if stability.adiabatic_stable else 'violated'})")
    lines.append("")
    lines.append("== converter coefficients ==")
    lines.append(f"a_w = {abs(coef.a_w):.9g} (sign {math.copysign(1.0, coef.a_w):+.0f})   "
                 f"a_o = {coef.a_o:.9g}")
    lines.append(f"b = {coef.b:.9g}   c_w = {coef.c_w:.9g}   c_o = {coef.c_o:.9g}")
    # squares by products, which IEEE rounds alike on every platform; libm pow may not
    b2 = coef.b * coef.b
    res_w = coef.a_w * coef.a_w - b2 + coef.c_w * coef.c_w - 1.0
    res_o = coef.a_o * coef.a_o - b2 - coef.c_o * coef.c_o - 1.0
    lines.append(f"commutator residuals: {res_w:.3e}, {res_o:.3e}")
    # relative to a_w^2 + c_w^2 = b^2 + 1 and a_o^2, both >= 1 and ~1e32 where d is an ulp from 0
    check("commutator identities", abs(res_w) < 1e-10 * (coef.a_w * coef.a_w + coef.c_w * coef.c_w)
          and abs(res_o) < 1e-10 * (coef.a_o * coef.a_o))
    lines.append("")
    lines.append("== bath occupations ==")
    lines.append(f"n_w^T = {baths.n_w:.6g}   n_o^T = {baths.n_o:.6g}   n_b^T = {baths.n_b:.6g}")
    lines.append("")
    lines.append("== source moments ==")
    lines.append(f"n_w = {m.n_w:.9g}   n_o = {m.n_o:.9g}   |<d_w d_o>| = {m.cross:.9g}")
    report = correlation_report(m)
    state = report.state
    lines.append(f"symplectic spectrum: nu+ = {state.nu_plus:.9g}, "
                 f"nu- = {state.nu_minus:.9g}, ppt nu- = {state.nu_ppt_minus:.9g}")
    check("source state physical", state.nu_minus >= 1.0 - PHYSICALITY_TOL)

    lines.append("")
    lines.append("== correlations ==")
    lines.append(f"E-metric = {report.e_metric:.9g}")
    lines.append(f"E_N = {report.log_neg:.9g} ebits "
                 f"({report.log_neg_per_photon:.9g} per photon)")
    lines.append(f"I = {report.coh_info:.9g} qubits "
                 f"({report.coh_info_per_photon:.9g} per photon)")
    lines.append(f"D = {report.discord:.9g} bits "
                 f"({report.discord_per_photon:.9g} per photon)")
    check("discord >= 0", report.discord >= 0.0)
    if abs(report.e_metric - 1.0) > 1e-6:
        check("E-metric/negativity agreement",
              (report.e_metric > 1.0) == (report.log_neg > 0.0))

    if needs_channel:
        ch = TargetChannelParams.from_temperature(config.eta, config.t_b, params.omega_w)
        rx = ReceiverParams(coef, config.kappa_i)
        stats = receiver_statistics(m, ch, rx, baths)
        thresh = entanglement_threshold(m, ch.eta)
        fom, snr_coh = figure_of_merit(m, ch, rx, baths), coherent_snr_per_mode(m.n_w, ch)
        lines.append("")
        lines.append("== target channel ==")
        lines.append(f"eta = {ch.eta:.6g}   n_B = {ch.n_b:.6g}   kappa_I = {config.kappa_i:.6g}")
        lines.append(f"entanglement threshold n_B^thresh = {thresh:.6g}")
        lines.append("")
        lines.append("== detection ==")
        lines.append(f"mu0 = {stats.mu0:.9g}   mu1 = {stats.mu1:.9g}")
        lines.append(f"var0 = {stats.var0:.9g}   var1 = {stats.var1:.9g}")
        lines.append(f"snr per mode pair = {stats.snr_per_m:.9g}")
        lines.append(f"figure of merit F = {fom:.9g}")
        for modes in (1e4, 1e5, 1e6, 1e7, 1e8):
            lines.append(f"M = {modes:.0e}:  P_QI = {error_probability(stats.snr_per_m, modes):.6e}"
                         f"   P_coh = {error_probability(snr_coh, modes):.6e}")
        blind = stats.mu0 == stats.mu1 == 0.0 and stats.snr_per_m == 0.0
        check("variances positive", (stats.var0 > 0 and stats.var1 > 0) or blind)
        check("mu1 >= mu0", stats.mu1 >= stats.mu0)

        if config.mc_validation:
            lines.append("")
            lines.append(f"== Monte-Carlo validation ({config.mc_samples} samples) ==")
            # H1 samples on a second thread while H0, the channel at eta = 0, samples on
            # this one: the draws and ufuncs release the GIL, and each has its own generator
            def sample(out, channel, seed):
                try:
                    out.append(mc_receiver_statistics(m, channel, rx, baths,
                                                      samples=config.mc_samples, seed=seed))
                except BaseException as exc:  # raised on the caller's thread, after the join
                    out.append(exc)

            h0, h1 = [], []
            worker = threading.Thread(target=sample, args=(h1, ch, config.seed + 1))
            worker.start()
            sample(h0, TargetChannelParams(0.0, ch.n_b), config.seed)
            worker.join()
            for hyp, (mc_stats,), mu_cf, var_cf in (("h0", h0, stats.mu0, stats.var0),
                                                    ("h1", h1, stats.mu1, stats.var1)):
                if isinstance(mc_stats, BaseException):
                    raise mc_stats
                dmu = _se_delta(mc_stats.mu, mu_cf, mc_stats.se_mu)
                dvar = _se_delta(mc_stats.var, var_cf, mc_stats.se_var)
                lines.append(f"{hyp}: mean delta {dmu:.2f} se, variance delta {dvar:.2f} se")
                check(f"mc {hyp} mean within 3 se", dmu <= 3.0)
                check(f"mc {hyp} variance within 3 se", dvar <= 3.0)

    ok = all(flag for _, flag in checks)
    lines.append("")
    lines.append("== invariant checks ==")
    for name, flag in checks:
        lines.append(f"[{'ok' if flag else 'FAIL'}] {name}")
    lines.append(f"result: {'all checks passed' if ok else 'CHECKS FAILED'}")
    return "\n".join(lines) + "\n", ok
