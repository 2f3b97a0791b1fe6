"""Quantum-correlation measures of the source: logarithmic negativity,
coherent information, and Gaussian discord, with per-microwave-photon
normalizations.

Base-2 logarithms throughout: negativity in ebits, coherent information in
qubits, discord in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .converter import SourceMoments, UndefinedMetricError, entanglement_metric, source_state
from .states import TwoModeGaussianState, entropy, symplectic_spectrum

__all__ = [
    "CorrelationReport",
    "log_negativity",
    "coherent_information",
    "gaussian_discord",
    "correlation_report",
]


def __getattr__(name):
    # the benchmark tracer hooks this name; lazy so `import mwqi` never loads scipy,
    # which only the tests and the benchmark need
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class CorrelationReport:
    """All correlation measures of a source, with n_w-normalized companions."""

    e_metric: float
    log_neg: float
    coh_info: float
    discord: float
    log_neg_per_photon: float
    coh_info_per_photon: float
    discord_per_photon: float


def log_negativity(state: TwoModeGaussianState) -> float:
    """Logarithmic negativity E_N = max(0, -log2(nu_ppt_minus)) in ebits."""
    nu = symplectic_spectrum(state).nu_ppt_minus
    if nu <= 0:
        raise ValueError(f"degenerate partial-transpose eigenvalue {nu!r}")
    return max(0.0, -math.log2(nu))


def coherent_information(state: TwoModeGaussianState) -> float:
    """Coherent information I(2>1) = S(rho_1) - S(rho_12) in qubits.

    S(rho_1) is the entropy of the reduced first mode, g(a); the joint
    entropy is g(nu_plus) + g(nu_minus).  May be negative.
    """
    data = symplectic_spectrum(state)
    return entropy(max(state.a, 1.0)) - entropy(data.nu_plus) - entropy(data.nu_minus)


def gaussian_discord(state: TwoModeGaussianState) -> float:
    """Gaussian quantum discord with the measurement on the second mode.

    discord = g(sqrt(B)) - g(nu_plus) - g(nu_minus) + g(sqrt(E_min)), in the
    closed form of Adesso & Datta, PRL 105, 030501 (2010) (also Giorda & Paris,
    PRL 105, 020503 (2010)).  A = det alpha, B = det beta, C = det gamma and
    D = det sigma are the local symplectic invariants, with beta the measured
    (second) mode's block, alpha the kept (first) mode's block and gamma their
    coupling.  E_min is the smallest determinant of the kept mode's covariance
    after a Gaussian measurement on the measured mode, attained on one of two
    branches:

    * heterodyne type, when (D - AB)^2 <= (1 + B) C^2 (A + D):
      sqrt(E_min) = (|C| + sqrt(C^2 + (B - 1)(D - A))) / (B - 1);
    * homodyne type otherwise, the limit of infinitely squeezed measurements:
      E_min = (S - sqrt(S^2 - 4ABD)) / (2B) with S = AB + D - C^2, evaluated
      as 2AD / (S + sqrt(S^2 - 4ABD)) to avoid the cancellation.

    With a source state built as (microwave, optical) this is the discord of
    the microwave arm conditioned on measuring the retained optical idler.
    The other direction is the discord of the mode-swapped state
    ``TwoModeGaussianState(state.b, state.a, state.c_x, state.c_p)``.
    """
    data = symplectic_spectrum(state)
    # a: kept mode, b: measured mode; A = a^2, B = b^2, C = c_x c_p
    a, b, c_x, c_p = state.a, state.b, state.c_x, state.c_p
    a2, b2, c = a * a, b * b, c_x * c_p
    d = (data.nu_plus * data.nu_minus) ** 2
    if (d - a2 * b2) ** 2 <= (1 + b2) * c * c * (a2 + d):
        if c == 0.0:
            # C = 0 on this branch means no coupling at all (and B = 1 gives 0/0)
            nu_min = a
        else:
            b2_m1 = (b - 1) * (b + 1)
            # C^2 + (B - 1)(D - A) in factored form: it vanishes on pure
            # states, where the sum of the two terms cancels
            het = (a * b2_m1 - b * c_x * c_x) * (a * b2_m1 - b * c_p * c_p)
            nu_min = (abs(c) + math.sqrt(max(het, 0.0))) / b2_m1
    else:
        s = a2 * b2 + d - c * c
        nu_min = math.sqrt(2 * a2 * d / (s + math.sqrt(max(s * s - 4 * a2 * b2 * d, 0.0))))
    value = (entropy(max(b, 1.0)) - entropy(data.nu_plus)
             - entropy(data.nu_minus) + entropy(max(nu_min, 1.0)))
    # discord is nonnegative for every physical state; lift rounding noise only
    return 0.0 if -1e-8 < value < 0.0 else value


def correlation_report(m: SourceMoments) -> CorrelationReport:
    """Assemble all correlation measures of a source and normalize by n_w."""
    if m.n_w <= 0:
        raise UndefinedMetricError("normalization undefined at n_w = 0")
    state = source_state(m)
    # an uncorrelated source has metric 0 even when one marginal is empty
    e = 0.0 if m.cross == 0.0 else entanglement_metric(m)
    en = log_negativity(state)
    info = coherent_information(state)
    disc = gaussian_discord(state)
    return CorrelationReport(
        e_metric=e,
        log_neg=en,
        coh_info=info,
        discord=disc,
        log_neg_per_photon=en / m.n_w,
        coh_info_per_photon=info / m.n_w,
        discord_per_photon=disc / m.n_w,
    )
