"""Parameter-grid sweeps with stability masking, error-probability curves,
and single-point reports, all emitted as deterministic CSV or text.

Config format: flat ``key = value`` lines under ``[section]`` headers, with
``#`` comments.  Every physical quantity carries an explicit unit suffix
(hz/khz/mhz/ghz for frequencies, mk/k for temperatures, nm/um/m for lengths)
so that ordinary-frequency inputs are converted to angular rates exactly
once, inside the parser.  Dimensionless values must not carry a suffix.

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

Omitted [eom] keys fall back to the nominal converter parameters.  A config
without a [grid] section evaluates a single point at the base values.  The
[mc] section (validation = on|off, samples, seed) sets the report's
Monte-Carlo check; its seed is also echoed in each output's ``# seed=`` line.
The config text is a run's whole input.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .converter import (
    Cooperativities,
    EomParams,
    InstabilityError,
    bath_occupations,
    coefficients,
    entanglement_metric,
    is_stable,
    nominal_params,
    source_moments,
    source_state,
)
from .correlations import correlation_report
from .detection import (
    Hypothesis,
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
    "config_sha256",
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
    ("channel", "n_b"): ("plain", ">= 0"),
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
_NEEDED = {"gamma_w": "[drive] gamma_w", "gamma_o": "[drive] gamma_o",
           "eta": "[channel] eta", "t_b": "[channel] t_b or n_b"}
_CORRELATION_OUTPUTS = ("log_neg_per_photon", "coh_info_per_photon", "discord_per_photon")
_PLAIN_OUTPUTS = ("n_w", "n_o", "e_metric", *_CORRELATION_OUTPUTS, "fom")


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
    params: EomParams
    gamma_w: float | None
    gamma_o: float | None
    eta: float | None
    t_b: float | None
    n_b: float | None
    kappa_i: float
    axes: tuple[GridAxis, ...]
    outputs: tuple[str, ...]
    m_min: float
    m_max: float
    m_points: int
    seed: int
    mc_validation: bool
    mc_samples: int
    sha256: str = field(default="", compare=False)


def config_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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


def _parse_output_token(token: str, line: int) -> str:
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
            outputs += [_parse_output_token(token, lineno)
                        for token in (t.strip() for t in raw.split(",")) if token]
        elif (section, key) in _KEYS:
            values[section, key] = _parse_value(raw, *_KEYS[section, key], lineno, key)
        else:
            raise ConfigError(f"unknown {section} parameter {key!r}", lineno, key)

    def get(section, key, default=None):
        return values.get((section, key), default)

    eom = {key: value for (sec, key), value in values.items() if sec == "eom"}
    params = dataclasses.replace(nominal_params(), **eom)
    axis_names = [a.name for a in axes]
    if ("channel", "n_b") in values and (("channel", "t_b") in values or "t_b" in axis_names):
        raise ConfigError("give either t_b (a value or a grid axis) or n_b, not both",
                          field_name="t_b")
    m_min, m_max = get("fig3", "m_min", 1e4), get("fig3", "m_max", 1e8)
    if m_max < m_min:
        raise ConfigError("need m_min <= m_max", field_name="m_min")

    return SweepConfig(
        params=params,
        gamma_w=get("drive", "gamma_w"),
        gamma_o=get("drive", "gamma_o"),
        eta=get("channel", "eta"),
        t_b=get("channel", "t_b"),
        n_b=get("channel", "n_b"),
        kappa_i=get("channel", "kappa_i", 1.0),
        axes=tuple(axes),
        outputs=tuple(outputs),
        m_min=m_min,
        m_max=m_max,
        m_points=get("fig3", "m_points", 41),
        seed=get("mc", "seed", 0),
        mc_validation=get("mc", "validation", False),
        mc_samples=get("mc", "samples", 10 ** 6),
        sha256=config_sha256(text),
    )


# ---------------------------------------------------------------------------
# point evaluation
# ---------------------------------------------------------------------------

def _check_config(config: SweepConfig, command: str) -> bool:
    """Raise :class:`ConfigError` naming the first missing needed value; return whether
    the run needs a channel: a sweep for ``fom`` or ``p_*@M`` (axes count as values),
    ``fig3`` always, ``report`` once ``eta``, ``t_b`` or ``n_b`` is given or MC is on."""
    sweep = command == "sweep"
    if sweep:
        needs_channel = any(token == "fom" or token.startswith("p_") for token in config.outputs)
    else:
        needs_channel = command == "fig3" or config.mc_validation or any(
            getattr(config, key) is not None for key in ("eta", "t_b", "n_b"))
    given = {axis.name for axis in config.axes if sweep} | {
        key for key in ("gamma_w", "gamma_o", "eta", "t_b") if getattr(config, key) is not None}
    for key in ("gamma_w", "gamma_o") + (("eta", "t_b") if needs_channel else ()):
        if key not in given and not (key == "t_b" and config.n_b is not None):
            where = " (a value or a grid axis)" if sweep else ""
            raise ConfigError(f"missing {_NEEDED[key]}{where}", field_name=key)
    return needs_channel


def _drive_point(config: SweepConfig, t_eom: float | None = None, gamma_w: float | None = None,
                 gamma_o: float | None = None) -> tuple[Cooperativities, EomParams]:
    """(cooperativities, params) at a drive point; a value left None is the base value."""
    params = config.params if t_eom is None else dataclasses.replace(config.params, t_eom=t_eom)
    return Cooperativities(config.gamma_w if gamma_w is None else gamma_w,
                           config.gamma_o if gamma_o is None else gamma_o), params


def _source(coop: Cooperativities, params: EomParams):
    """(coefficients, bath occupations, source moments); the point must be stable."""
    coef = coefficients(coop)
    baths = bath_occupations(params)
    return coef, baths, source_moments(coef, baths.n_w, baths.n_o, baths.n_b)


def _channel(config: SweepConfig, eta: float, t_b: float | None) -> TargetChannelParams:
    """Channel at eta whose background n_b is given, or the Planck occupation at t_b."""
    if config.n_b is not None:
        return TargetChannelParams(eta=eta, n_b=config.n_b)
    return TargetChannelParams.from_temperature(eta, t_b, config.params.omega_w)


def _base_point(config: SweepConfig, command: str):
    """(needs channel, cooperativities, params, stability, source) at the checked
    config's base values; raises :class:`InstabilityError` if the point is unstable."""
    needs_channel = _check_config(config, command)
    coop, params = _drive_point(config)
    stability = is_stable(coop, params)
    if not stability.stable:
        raise InstabilityError(
            f"operating point unstable, margin {stability.margin!r} rad/s")
    return needs_channel, coop, params, stability, _source(coop, params)


def _point_values(plan, m, baths, report, link, stats=None) -> tuple[float, ...]:
    """Metric values of one stable point, one per ``(name, mode count)`` in ``plan``; the
    correlation ``report`` and the (channel, receiver) ``link`` may be None if unread, and
    the receiver ``stats`` of ``link`` are built on first use if not given."""
    values = []
    ch, rx = link or (None, None)
    for token, modes in plan:
        if token in ("n_w", "n_o"):
            value = getattr(m, token)
        elif token == "e_metric":
            value = 0.0 if m.cross == 0.0 else entanglement_metric(m)
        elif token in _CORRELATION_OUTPUTS:
            value = getattr(report, token)
        elif token == "fom":
            value = figure_of_merit(m, ch, rx, baths)
        else:
            if stats is None:
                stats = receiver_statistics(m, ch, rx, baths)
            snr = stats.snr_per_m if token == "p_qi" else coherent_snr_per_mode(m.n_w, ch)
            value = error_probability(snr, modes)
        values.append(value)
    return tuple(values)


def _meta_lines(config: SweepConfig) -> list[str]:
    return [f"# mwqi {__version__}", f"# config-sha256={config.sha256}", f"# seed={config.seed}"]


def run_sweep(config: SweepConfig) -> str:
    """Evaluate the grid and return the CSV text.

    One row per grid point in row-major order (first axis slowest).  Unstable
    points keep their stability flag and margin but leave the metric cells
    empty; a failure at one point lands in the ``error`` column and never
    aborts the sweep.  A config that leaves a needed value unset raises
    :class:`ConfigError` before the first row.  Output is byte-identical for
    an identical config, and each row is the same whatever the axis order.  Stability and the receiver statistics are evaluated at every point.
    """
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
    template = ",".join(["%.16e"] * len(config.outputs))
    no_metrics = "," * (len(config.outputs) - 1)

    # Work shared between rows, kept for this call only.  The drive key is
    # (t_eom, gamma_w, gamma_o), so consecutive rows at one drive point share
    # its source.  A stable row builds its source, then its correlation report
    # if an output reads one, then its channel and receiver if an output reads
    # them.  A cache stores a value only once its build returns, so a failing
    # build raises again, with the same text, at each row that asks.
    kappa_count = next((axis.count for axis in config.axes if axis.name == "kappa_i"), 1)
    drive = functools.lru_cache(maxsize=1)(lambda key: _drive_point(config, *key))
    source = functools.lru_cache(maxsize=1)(lambda key: _source(*drive(key)))
    report = functools.lru_cache(maxsize=1)(lambda key: correlation_report(source(key)[2]))
    receiver = functools.lru_cache(maxsize=kappa_count)(
        lambda key, kappa_i: ReceiverParams(source(key)[0], kappa_i))
    channel = functools.lru_cache(maxsize=None)(lambda eta, t_b: _channel(config, eta, t_b))

    rows = []
    for combo, cells in zip(itertools.product(*columns), itertools.product(*texts)):
        overrides = dict(zip(names, combo))
        stability_cells, metrics, error = ",", no_metrics, ""
        try:
            key = (overrides.get("t_eom"), overrides.get("gamma_w"), overrides.get("gamma_o"))
            stability = is_stable(*drive(key))
            stability_cells = "%d,%.16e" % (stability.stable, stability.margin)
            if stability.stable:
                _, baths, m = source(key)
                metrics = template % _point_values(
                    plan, m, baths, report(key) if needs_report else None,
                    (channel(overrides.get("eta", config.eta), overrides.get("t_b", config.t_b)),
                     receiver(key, overrides.get("kappa_i", config.kappa_i)))
                    if needs_link else None)
        except Exception as exc:  # recorded per point, sweep continues
            error = f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")
        rows.append(",".join([*cells, stability_cells, metrics, error]))

    header = names + ["stable", "margin"] + list(config.outputs) + ["error"]
    return "\n".join(_meta_lines(config) + [",".join(header)] + rows) + "\n"


def run_figure3(config: SweepConfig) -> str:
    """Error probabilities of both systems versus the mode-pair count M.

    Columns: m, p_qi, p_coh, fom.  Requires a stable base operating point and
    a channel; probabilities come straight from the stdlib erfc.
    """
    *_, (coef, baths, m) = _base_point(config, "fig3")
    link = _channel(config, config.eta, config.t_b), ReceiverParams(coef, config.kappa_i)
    m_grid = np.geomspace(config.m_min, config.m_max, config.m_points).tolist()
    fom, *p = _point_values([("fom", None)] + [(name, modes) for modes in m_grid
                                               for name in ("p_qi", "p_coh")],
                            m, baths, None, link)
    rows = ["%.16e,%.16e,%.16e,%.16e" % (modes, p_qi, p_coh, fom)
            for modes, p_qi, p_coh in zip(m_grid, p[::2], p[1::2])]
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
    lines.append(f"a_w = {coef.a_w:.9g} (sign {coef.sign_w:+.0f})   a_o = {coef.a_o:.9g}")
    lines.append(f"b = {coef.b:.9g}   c_w = {coef.c_w:.9g}   c_o = {coef.c_o:.9g}")
    res_w = coef.a_w ** 2 - coef.b ** 2 + coef.c_w ** 2 - 1.0
    res_o = coef.a_o ** 2 - coef.b ** 2 - coef.c_o ** 2 - 1.0
    lines.append(f"commutator residuals: {res_w:.3e}, {res_o:.3e}")
    check("commutator identities", abs(res_w) < 1e-10 and abs(res_o) < 1e-10)
    lines.append("")
    lines.append("== bath occupations ==")
    lines.append(f"n_w^T = {baths.n_w:.6g}   n_o^T = {baths.n_o:.6g}   n_b^T = {baths.n_b:.6g}")
    lines.append("")
    lines.append("== source moments ==")
    lines.append(f"n_w = {m.n_w:.9g}   n_o = {m.n_o:.9g}   |<d_w d_o>| = {m.cross:.9g}")
    state = source_state(m)
    lines.append(f"symplectic spectrum: nu+ = {state.nu_plus:.9g}, "
                 f"nu- = {state.nu_minus:.9g}, ppt nu- = {state.nu_ppt_minus:.9g}")
    check("source state physical", state.nu_minus >= 1.0 - PHYSICALITY_TOL)

    report = correlation_report(m)
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
        ch, rx = link = (_channel(config, config.eta, config.t_b),
                         ReceiverParams(coef, config.kappa_i))
        stats = receiver_statistics(m, ch, rx, baths)
        thresh = entanglement_threshold(m, ch.eta)
        mode_counts = (1e4, 1e5, 1e6, 1e7, 1e8)
        fom, *p = _point_values([("fom", None)] + [(name, modes) for modes in mode_counts
                                                   for name in ("p_qi", "p_coh")],
                                m, baths, None, link, stats)
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
        for modes, p_qi, p_coh in zip(mode_counts, p[::2], p[1::2]):
            lines.append(f"M = {modes:.0e}:  P_QI = {p_qi:.6e}   P_coh = {p_coh:.6e}")
        blind = stats.mu0 == stats.mu1 == 0.0 and stats.snr_per_m == 0.0
        check("variances positive", (stats.var0 > 0 and stats.var1 > 0) or blind)
        check("mu1 >= mu0", stats.mu1 >= stats.mu0)

        if config.mc_validation:
            lines.append("")
            lines.append(f"== Monte-Carlo validation ({config.mc_samples} samples) ==")
            for hyp in (Hypothesis.H0, Hypothesis.H1):
                mc_stats = mc_receiver_statistics(
                    m, ch, rx, baths, hyp,
                    samples=config.mc_samples, seed=config.seed + (hyp is Hypothesis.H1))
                mu_cf = stats.mu1 if hyp is Hypothesis.H1 else stats.mu0
                var_cf = stats.var1 if hyp is Hypothesis.H1 else stats.var0
                dmu = _se_delta(mc_stats.mu, mu_cf, mc_stats.se_mu)
                dvar = _se_delta(mc_stats.var, var_cf, mc_stats.se_var)
                lines.append(f"{hyp.value}: mean delta {dmu:.2f} se, variance delta {dvar:.2f} se")
                check(f"mc {hyp.value} mean within 3 se", dmu <= 3.0)
                check(f"mc {hyp.value} variance within 3 se", dvar <= 3.0)

    ok = all(flag for _, flag in checks)
    lines.append("")
    lines.append("== invariant checks ==")
    for name, flag in checks:
        lines.append(f"[{'ok' if flag else 'FAIL'}] {name}")
    lines.append(f"result: {'all checks passed' if ok else 'CHECKS FAILED'}")
    return "\n".join(lines) + "\n", ok
