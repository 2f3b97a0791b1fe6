"""Quantum-correlation measures of the source: logarithmic negativity,
coherent information, and Gaussian discord, with per-microwave-photon
normalizations.

Base-2 logarithms throughout: negativity in ebits, coherent information in
qubits, discord in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .converter import SourceMoments, UndefinedMetricError, entanglement_metric, source_state
from .states import TwoModeGaussianState, entropy

__all__ = [
    "CorrelationReport",
    "log_negativity",
    "coherent_information",
    "gaussian_discord",
    "correlation_report",
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
    return max(0.0, -math.log2(state.nu_ppt_minus))


def coherent_information(state: TwoModeGaussianState) -> float:
    """Coherent information I(2>1) = S(rho_1) - S(rho_12) in qubits.

    S(rho_1) is the entropy of the reduced first mode, g(a); S(rho_12) is
    ``state.joint_entropy``.  May be negative.
    """
    return entropy(state.a) - state.joint_entropy


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
    # in halves, exactly, so that s + a does not overflow for a state near the float64 limit
    nu_min = (0.5 * state.s + 0.5 * state.a) / (0.5 * state.b + 0.5)
    value = entropy(state.b) - state.joint_entropy + entropy(max(nu_min, 1.0))
    # discord is nonnegative for every physical state; lift rounding noise only
    return 0.0 if -1e-8 < value < 0.0 else value


def correlation_report(m: SourceMoments) -> CorrelationReport:
    """Assemble all correlation measures of a source and normalize by n_w."""
    if m.n_w <= 0:
        raise UndefinedMetricError("normalization undefined at n_w = 0")
    state = source_state(m)
    en = log_negativity(state)
    info = coherent_information(state)
    disc = gaussian_discord(state)
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
