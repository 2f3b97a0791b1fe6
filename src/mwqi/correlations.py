"""Quantum-correlation measures of the source: logarithmic negativity,
coherent information, and Gaussian discord, with per-microwave-photon
normalizations.

Base-2 logarithms throughout: negativity in ebits, coherent information in
qubits, discord in bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .converter import SourceMoments, UndefinedMetricError, entanglement_metric, source_state
from .states import TwoModeGaussianState, entropies, spectrum

__all__ = [
    "CorrelationReport",
    "log_negativity",
    "coherent_information",
    "gaussian_discord",
    "correlation_report",
    "correlation_measures",
    "correlation_columns",
]


minimize = None  # discord is a closed form, so no solver; perfbench's tracer reads this name


@dataclass(frozen=True)
class CorrelationReport:
    """All correlation measures of a source, with n_w-normalized companions, and the
    source state they were computed from."""

    e_metric: float
    log_neg: float
    coh_info: float
    discord: float
    log_neg_per_photon: float
    coh_info_per_photon: float
    discord_per_photon: float
    state: TwoModeGaussianState = field(repr=False, compare=False)


def log_negativity(state: TwoModeGaussianState) -> float:
    """Logarithmic negativity E_N = max(0, -log2(nu_ppt_minus)) in ebits."""
    return _measures(state)[0]


def coherent_information(state: TwoModeGaussianState) -> float:
    """Coherent information I(2>1) = S(rho_1) - S(rho_12) in qubits.

    S(rho_1) is the entropy of the reduced first mode, g(a); S(rho_12) is
    ``state.joint_entropy``.  May be negative.
    """
    return _measures(state)[1]


def gaussian_discord(state: TwoModeGaussianState) -> float:
    """Gaussian quantum discord with the measurement on the second mode.

    discord = g(b) - S(rho_12) + g(sqrt(E_min)), with E_min the
    smallest determinant of the kept (first) mode's covariance after a
    Gaussian measurement on the measured (second) mode (Adesso & Datta,
    PRL 105, 030501 (2010); Giorda & Paris, PRL 105, 020503 (2010)).  On a
    squeezed thermal state heterodyne detection attains it (Adesso & Datta;
    Pirandola et al., PRL 113, 140405 (2014)), leaving the kept mode with
    variance a - c^2/(b + 1), so sqrt(E_min) = (s + a)/(b + 1).

    With a source state built as (microwave, optical) this is the discord of
    the microwave arm conditioned on measuring the retained optical idler.
    The other direction is the discord of the mode-swapped state
    ``TwoModeGaussianState(state.b, state.a, state.c, state.s)``.
    """
    return _measures(state)[2]


def correlation_measures(a, b, s, nu_ppt_minus, joint_entropy) -> tuple[np.ndarray, ...]:
    """(E_N, I, D) of :func:`log_negativity`, :func:`coherent_information` and
    :func:`gaussian_discord`, elementwise over arrays of entries and spectra of states."""
    with np.errstate(all="ignore"):
        # in halves, exactly, so that s + a does not overflow for a state near the float64 limit
        nu_min = np.maximum((0.5 * s + 0.5 * a) / (0.5 * b + 0.5), 1.0)
        g_a, g_b, g_min = entropies(np.stack((a, b, nu_min)))
        discord = g_b - joint_entropy + g_min
        # discord is nonnegative for every physical state; lift rounding noise only
        return (np.where(nu_ppt_minus < 1.0, -np.log2(nu_ppt_minus), 0.0), g_a - joint_entropy,
                np.where((-1e-8 < discord) & (discord < 0.0), 0.0, discord))


def _measures(state: TwoModeGaussianState) -> list[float]:
    return [x.item() for x in correlation_measures(
        state.a, state.b, state.s, state.nu_ppt_minus, state.joint_entropy)]


def correlation_columns(n_w, n_o, cross, s) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-photon (E_N, I, D) / n_w of sources with moment arrays (n_w, n_o, cross, s),
    and the mask of those whose per-photon values :func:`correlation_report` returns."""
    a, b = 2.0 * n_w + 1.0, 2.0 * n_o + 1.0
    *_, nu_ppt_minus, joint_entropy, fault = spectrum(a, b, 2.0 * cross, s)
    with np.errstate(all="ignore"):
        return ([x / n_w for x in correlation_measures(a, b, s, nu_ppt_minus, joint_entropy)],
                (fault == 0) & (n_w > 0.0))


def correlation_report(m: SourceMoments) -> CorrelationReport:
    """Assemble all correlation measures of a source and normalize by n_w."""
    if m.n_w <= 0:
        raise UndefinedMetricError("normalization undefined at n_w = 0")
    state = source_state(m)
    en, info, disc = _measures(state)
    return CorrelationReport(
        e_metric=entanglement_metric(m),
        log_neg=en,
        coh_info=info,
        discord=disc,
        log_neg_per_photon=en / m.n_w,
        coh_info_per_photon=info / m.n_w,
        discord_per_photon=disc / m.n_w,
        state=state,
    )
