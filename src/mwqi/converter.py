"""Electro-opto-mechanical converter: thermal occupations, input-output
coefficients, transmitter output moments, and dynamical stability.

The converter couples a driven microwave cavity and a driven optical cavity
to a common mechanical resonator.  With the microwave drive on the red
sideband and the optical drive on the blue sideband, the optical branch is a
down-conversion (entangling) interaction and the microwave branch is a
beam-splitter interaction, so the propagating outputs form a two-mode
squeezed thermal state.

The input-output coefficients are the zero-frequency (adiabatic) solution of
the linearized quantum Langevin equations, with cavity amplitude decay at the
half linewidth kappa (input coupling sqrt(2*kappa), output relation
d_out = sqrt(2*kappa)*c - c_in) and mechanical amplitude decay at gamma_m/2
(noise coupling sqrt(gamma_m)).  In terms of the cooperativities
Gamma_j = G_j^2/(kappa_j*gamma_m) and the denominator
d = 1 + 2*Gamma_w - 2*Gamma_o:

    a_w = |1 - 2*Gamma_w - 2*Gamma_o| / d      (microwave in-band gain)
    a_o = (1 + 2*Gamma_w + 2*Gamma_o) / d      (optical in-band gain)
    b   = 4*sqrt(Gamma_w*Gamma_o) / d          (two-mode-squeezing weight)
    c_w = sqrt(8*Gamma_w) / d                  (mechanical noise, microwave)
    c_o = sqrt(8*Gamma_o) / d                  (mechanical noise, optical)

These closed forms satisfy the output commutator identities
a_w^2 - b^2 + c_w^2 = 1 and a_o^2 - b^2 - c_o^2 = 1 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import TwoModeGaussianState, standard_form

# exact SI values (2019 redefinition)
_c_light = 299792458.0
_hbar = 6.62607015e-34 / (2 * math.pi)
_k_b = 1.380649e-23

__all__ = [
    "InstabilityError",
    "UndefinedMetricError",
    "EomParams",
    "Cooperativities",
    "BathOccupations",
    "EomCoefficients",
    "SourceMoments",
    "StabilityReport",
    "nominal_params",
    "planck_occupation",
    "bath_occupations",
    "coefficients",
    "source_moments",
    "source_state",
    "entanglement_metric",
    "drift_matrix",
    "is_stable",
]


class InstabilityError(RuntimeError):
    """Raised when an operating point lies outside the stable regime."""


class UndefinedMetricError(ZeroDivisionError):
    """Raised when a normalized metric is requested at zero photon number."""


@dataclass(frozen=True)
class EomParams:
    """Physical converter parameters.

    All frequencies and rates are angular (rad/s); ``kappa_w`` and ``kappa_o``
    are cavity half linewidths.

    Attributes
    ----------
    omega_m : float
        Mechanical resonance frequency.
    q_factor : float
        Mechanical quality factor; gamma_m = omega_m / q_factor.
    kappa_w, kappa_o : float
        Microwave / optical cavity half linewidths.
    omega_w : float
        Microwave cavity frequency.
    lambda_o : float
        Optical wavelength in meters.
    g_w, g_o : float
        Single-photon electro- and opto-mechanical coupling rates.
    t_eom : float
        Converter temperature in kelvin.
    """

    omega_m: float
    q_factor: float
    kappa_w: float
    kappa_o: float
    omega_w: float
    lambda_o: float
    g_w: float
    g_o: float
    t_eom: float

    def __post_init__(self):
        for name in ("omega_m", "q_factor", "kappa_w", "kappa_o",
                     "omega_w", "lambda_o", "g_w", "g_o"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.t_eom < 0:
            raise ValueError("t_eom must be >= 0")

    @property
    def gamma_m(self) -> float:
        return self.omega_m / self.q_factor

    @property
    def omega_o(self) -> float:
        """Optical angular frequency, 2*pi*c / lambda_o."""
        return 2 * math.pi * _c_light / self.lambda_o


def nominal_params(t_eom: float = 30e-3) -> EomParams:
    """Experimentally achievable converter parameters.

    A 10 MHz mechanical resonator with Q = 3e4 coupling a 10 GHz microwave
    cavity (half linewidth 0.2*omega_m) to a 1064 nm optical cavity (half
    linewidth 0.1*omega_m), held at 30 mK unless overridden.
    """
    omega_m = 2 * math.pi * 10e6
    return EomParams(
        omega_m=omega_m,
        q_factor=30e3,
        kappa_w=0.2 * omega_m,
        kappa_o=0.1 * omega_m,
        omega_w=2 * math.pi * 10e9,
        lambda_o=1064e-9,
        g_w=2 * math.pi * 0.327,
        g_o=2 * math.pi * 115.512,
        t_eom=t_eom,
    )


@dataclass(frozen=True)
class Cooperativities:
    """Dimensionless cavity-mechanics cooperativities Gamma_j = G_j^2/(kappa_j*gamma_m)."""

    gamma_w: float
    gamma_o: float

    def __post_init__(self):
        if self.gamma_w < 0 or self.gamma_o < 0:
            raise ValueError("cooperativities must be >= 0")

    @classmethod
    def from_intracavity_photons(cls, params: EomParams,
                                 n_w_cavity: float, n_o_cavity: float) -> "Cooperativities":
        """Cooperativities from mean drive-induced intracavity photon numbers.

        The multi-photon rates are G_j = g_j * sqrt(N_j).
        """
        gm = params.gamma_m
        gw = params.g_w ** 2 * n_w_cavity / (params.kappa_w * gm)
        go = params.g_o ** 2 * n_o_cavity / (params.kappa_o * gm)
        return cls(gamma_w=gw, gamma_o=go)


@dataclass(frozen=True)
class BathOccupations:
    """Thermal occupations of the converter's internal noise inputs."""

    n_w: float
    n_o: float
    n_b: float


@dataclass(frozen=True)
class EomCoefficients:
    """Magnitudes of the converter's input-output coefficients.

    ``sign_w`` carries the sign of the microwave in-band coefficient
    (sign of 1 - 2*Gamma_w - 2*Gamma_o); the relative signs matter for the
    phase-sensitive cross correlation of the outputs.  All other phases drop
    out of every quantity computed in this package.
    """

    a_w: float
    a_o: float
    b: float
    c_w: float
    c_o: float
    sign_w: float = 1.0


@dataclass(frozen=True)
class SourceMoments:
    """Second moments of the transmitter output pair.

    ``n_w`` and ``n_o`` are the mean photon numbers of the propagating
    microwave and optical modes; ``cross`` is |<d_w d_o>|, the magnitude of
    the phase-sensitive cross correlation.
    """

    n_w: float
    n_o: float
    cross: float

    def __post_init__(self):
        if self.n_w < 0 or self.n_o < 0 or self.cross < 0:
            raise ValueError("moments must be >= 0")


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the drift-matrix stability test.

    ``margin`` is minus the largest real part of the drift eigenvalues
    (positive means stable).  ``adiabatic_stable`` is the weak-coupling
    criterion Gamma_o < Gamma_w + 1/2, exposed for cross-checking.
    """

    stable: bool
    margin: float
    adiabatic_stable: bool


def planck_occupation(omega: float, temp: float) -> float:
    """Bose-Einstein occupation 1/(exp(hbar*omega/kT) - 1); zero at T = 0."""
    if omega <= 0:
        raise ValueError("omega must be > 0")
    if temp < 0:
        raise ValueError("temp must be >= 0")
    if temp == 0.0:
        return 0.0
    x = _hbar * omega / (_k_b * temp)
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)


def bath_occupations(params: EomParams) -> BathOccupations:
    """Planck occupations of the cavity and mechanical baths at t_eom.

    The optical occupation underflows to zero at any cryogenic temperature;
    it is evaluated anyway for generality.
    """
    return BathOccupations(
        n_w=planck_occupation(params.omega_w, params.t_eom),
        n_o=planck_occupation(params.omega_o, params.t_eom),
        n_b=planck_occupation(params.omega_m, params.t_eom),
    )


def coefficients(coop: Cooperativities) -> EomCoefficients:
    """Input-output coefficients at the given cooperativities.

    Raises
    ------
    InstabilityError
        If the adiabatic denominator d = 1 + 2*Gamma_w - 2*Gamma_o is not
        positive (the optical down-conversion overwhelms the microwave
        cooling and the steady state does not exist).
    """
    gw, go = coop.gamma_w, coop.gamma_o
    d = 1.0 + 2.0 * gw - 2.0 * go
    if d <= 0:
        raise InstabilityError(
            f"unstable operating point: 1 + 2*Gamma_w - 2*Gamma_o = {d!r} <= 0"
        )
    t = 1.0 - 2.0 * gw - 2.0 * go
    return EomCoefficients(
        a_w=abs(t) / d,
        a_o=(1.0 + 2.0 * gw + 2.0 * go) / d,
        b=4.0 * math.sqrt(gw * go) / d,
        c_w=math.sqrt(8.0 * gw) / d,
        c_o=math.sqrt(8.0 * go) / d,
        sign_w=1.0 if t >= 0 else -1.0,
    )


def source_moments(coef: EomCoefficients, n_w_thermal: float,
                   n_o_thermal: float, n_b_thermal: float) -> SourceMoments:
    """Output second moments for given input bath occupations.

    n_w    = a_w^2 n_w^T + b^2 (n_o^T + 1) + c_w^2 n_b^T
    n_o    = b^2 (n_w^T + 1) + a_o^2 n_o^T + c_o^2 (n_b^T + 1)
    cross  = |s_w a_w b (n_w^T + 1) - b a_o n_o^T - c_w c_o (n_b^T + 1)|

    The relative signs in ``cross`` follow the phases of the Langevin
    solution: the mechanical-noise contribution enters with the sign opposite
    to the in-band term, and the in-band term itself flips sign where
    2*Gamma_w + 2*Gamma_o crosses 1.  This sign structure is what keeps the
    output state physical at every stable operating point.
    """
    if min(n_w_thermal, n_o_thermal, n_b_thermal) < 0:
        raise ValueError("occupations must be >= 0")
    n_w = (coef.a_w ** 2 * n_w_thermal
           + coef.b ** 2 * (n_o_thermal + 1.0)
           + coef.c_w ** 2 * n_b_thermal)
    n_o = (coef.b ** 2 * (n_w_thermal + 1.0)
           + coef.a_o ** 2 * n_o_thermal
           + coef.c_o ** 2 * (n_b_thermal + 1.0))
    cross = abs(coef.sign_w * coef.a_w * coef.b * (n_w_thermal + 1.0)
                - coef.b * coef.a_o * n_o_thermal
                - coef.c_w * coef.c_o * (n_b_thermal + 1.0))
    return SourceMoments(n_w=n_w, n_o=n_o, cross=cross)


def source_state(m: SourceMoments, tol: float = 1e-9) -> TwoModeGaussianState:
    """Covariance-matrix state of the transmitter output pair."""
    return standard_form(m.n_w, m.n_o, m.cross, tol=tol)


def entanglement_metric(m: SourceMoments) -> float:
    """Correlation metric |<d_w d_o>| / sqrt(n_w * n_o).

    Exceeds 1 exactly when the two output modes are entangled.
    """
    if m.n_w <= 0 or m.n_o <= 0:
        raise UndefinedMetricError("entanglement metric undefined at zero photon number")
    return m.cross / math.sqrt(m.n_w * m.n_o)


def drift_matrix(coop: Cooperativities, params: EomParams) -> np.ndarray:
    """Drift matrix of the linearized quadrature dynamics.

    Ordering (x_b, p_b, x_w, p_w, x_o, p_o) for the mechanical, microwave,
    and optical fluctuation modes, with damping rates gamma_m/2, kappa_w,
    kappa_o and multi-photon couplings G_j = sqrt(Gamma_j*kappa_j*gamma_m).
    """
    gm = params.gamma_m
    g_w = math.sqrt(coop.gamma_w * params.kappa_w * gm)
    g_o = math.sqrt(coop.gamma_o * params.kappa_o * gm)
    g2 = gm / 2.0
    kw, ko = params.kappa_w, params.kappa_o
    return np.array([
        [-g2, 0.0, 0.0, g_w, 0.0, -g_o],
        [0.0, -g2, -g_w, 0.0, -g_o, 0.0],
        [0.0, g_w, -kw, 0.0, 0.0, 0.0],
        [-g_w, 0.0, 0.0, -kw, 0.0, 0.0],
        [0.0, -g_o, 0.0, 0.0, -ko, 0.0],
        [-g_o, 0.0, 0.0, 0.0, 0.0, -ko],
    ])


def is_stable(coop: Cooperativities, params: EomParams) -> StabilityReport:
    """Dynamical stability of an operating point.

    Stable when every eigenvalue of the drift matrix has a negative real
    part; the margin is minus the largest real part.
    """
    eigs = np.linalg.eigvals(drift_matrix(coop, params))
    margin = float(-np.max(eigs.real))
    return StabilityReport(
        stable=margin > 0.0,
        margin=margin,
        adiabatic_stable=coop.gamma_o < coop.gamma_w + 0.5,
    )
