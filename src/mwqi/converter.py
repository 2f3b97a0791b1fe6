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

    a_w = (1 - 2*Gamma_w - 2*Gamma_o) / d      (microwave in-band gain, signed)
    a_o = (1 + 2*Gamma_w + 2*Gamma_o) / d      (optical in-band gain)
    b   = 4*sqrt(Gamma_w*Gamma_o) / d          (two-mode-squeezing gain)
    c_w = sqrt(8*Gamma_w) / d                  (mechanical noise, microwave)
    c_o = sqrt(8*Gamma_o) / d                  (mechanical noise, optical)

These closed forms satisfy the output commutator identities
a_w^2 - b^2 + c_w^2 = 1 and a_o^2 - b^2 - c_o^2 = 1 exactly.

Stability is read off the characteristic cubic of the linearized dynamics,
l^3 + p2 l^2 + p1 l + p0 with G_j^2 = Gamma_j*kappa_j*gamma_m and

    p2 = gamma_m/2 + kappa_w + kappa_o
    p1 = (gamma_m/2)(kappa_w + kappa_o) + kappa_w*kappa_o + G_w^2 - G_o^2
    p0 = (gamma_m/2) kappa_w kappa_o + G_w^2 kappa_o - G_o^2 kappa_w,

solved in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .states import TwoModeGaussianState

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
    t_eom : float
        Converter temperature in kelvin.
    """

    omega_m: float
    q_factor: float
    kappa_w: float
    kappa_o: float
    omega_w: float
    lambda_o: float
    t_eom: float

    def __post_init__(self):
        # written so that NaN fails too
        for name in ("omega_m", "q_factor", "kappa_w", "kappa_o", "omega_w", "lambda_o",
                     "omega_o"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not 0.0 <= self.t_eom < math.inf:
            raise ValueError("t_eom must be finite and >= 0")

    @property
    def gamma_m(self) -> float:
        return self.omega_m / self.q_factor

    @property
    def omega_o(self) -> float:
        """Optical angular frequency, 2*pi*c / lambda_o."""
        return 2 * math.pi * _c_light / self.lambda_o


def nominal_params() -> EomParams:
    """Experimentally achievable converter parameters.

    A 10 MHz mechanical resonator with Q = 3e4 coupling a 10 GHz microwave
    cavity (half linewidth 0.2*omega_m) to a 1064 nm optical cavity (half
    linewidth 0.1*omega_m), held at 30 mK; ``dataclasses.replace`` sets other values.
    """
    omega_m = 2 * math.pi * 10e6
    return EomParams(
        omega_m=omega_m,
        q_factor=30e3,
        kappa_w=0.2 * omega_m,
        kappa_o=0.1 * omega_m,
        omega_w=2 * math.pi * 10e9,
        lambda_o=1064e-9,
        t_eom=30e-3,
    )


@dataclass(frozen=True)
class Cooperativities:
    """Dimensionless cavity-mechanics cooperativities Gamma_j = G_j^2/(kappa_j*gamma_m)."""

    gamma_w: float
    gamma_o: float

    def __post_init__(self):
        # written so that NaN fails too
        if not (0.0 <= self.gamma_w < math.inf and 0.0 <= self.gamma_o < math.inf):
            raise ValueError("cooperativities must be finite and >= 0")


@dataclass(frozen=True)
class BathOccupations:
    """Thermal occupations of the converter's internal noise inputs."""

    n_w: float
    n_o: float
    n_b: float


@dataclass(frozen=True)
class EomCoefficients:
    """The converter's input-output coefficients.

    ``a_w`` keeps the sign of 1 - 2*Gamma_w - 2*Gamma_o, which matters for the
    phase-sensitive cross correlation of the outputs; every other coefficient is
    non-negative, and all other phases drop out of every quantity computed in this
    package.  ``minor`` is the 2x2 minor a_w a_o + b^2 = (1 - 2*Gamma_w +
    2*Gamma_o)/d, formed with one rounding in the numerator.
    """

    a_w: float
    a_o: float
    b: float
    c_w: float
    c_o: float
    minor: float


@dataclass(frozen=True)
class SourceMoments:
    """Second moments of the transmitter output pair.

    ``n_w`` and ``n_o`` are the mean photon numbers of the propagating
    microwave and optical modes; ``cross`` is |<d_w d_o>|, the magnitude of
    the phase-sensitive cross correlation.  ``s`` is ab - c^2 with a = 2 n_w + 1,
    b = 2 n_o + 1, c = 2 cross; it may overflow to inf where the moments do
    not, and the state built from them then raises OverflowError.
    """

    n_w: float
    n_o: float
    cross: float
    s: float

    def __post_init__(self):
        # negated comparisons, so that NaN fails them
        if not (0.0 <= self.n_w < math.inf and 0.0 <= self.n_o < math.inf
                and 0.0 <= self.cross < math.inf and 0.0 <= self.s):
            raise ValueError("moments must be finite and >= 0")


class StabilityReport(NamedTuple):
    """Outcome of the stability test.

    ``margin`` is minus the largest real part of the roots of the
    characteristic cubic, which are the drift-matrix eigenvalues (positive
    means stable); ``stable`` is ``margin > 0``.  ``adiabatic_stable`` is the
    weak-coupling criterion Gamma_o < Gamma_w + 1/2, exposed for
    cross-checking.
    """

    stable: bool
    margin: float
    adiabatic_stable: bool


def planck_occupation(omega: float, temp: float) -> float:
    """Bose-Einstein occupation 1/(exp(hbar*omega/kT) - 1); zero at T = 0.

    Raises OverflowError past float64, from about 8.6e307 K at 10 GHz."""
    if not 0.0 < omega < math.inf:
        raise ValueError("omega must be finite and > 0")
    if not 0.0 <= temp < math.inf:
        raise ValueError("temp must be finite and >= 0")
    kt = _k_b * temp
    if kt == 0.0:  # T = 0, or a kT that underflows
        return 0.0
    x = _hbar * omega / kt
    if x > 700.0:
        return 0.0
    n = 1.0 / math.expm1(x) if x else math.inf  # x underflows to 0 only past the overflow
    if n == math.inf:
        raise OverflowError(f"Planck occupation overflows float64 at {temp!r} K")
    return n


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
    d = _denominator(gw, go)
    if d <= 0:
        raise InstabilityError(f"unstable operating point: 1 + 2*Gamma_w - 2*Gamma_o = {d!r} <= 0")
    return EomCoefficients(*_coefficient_terms(gw, go, d, math.sqrt))


def _denominator(gw, go):
    """d = 1 + 2*gw - 2*go over floats or arrays alike, as twice the factor that
    :func:`is_stable` multiplies into p0: rounded once where d is small, and of p0's sign."""
    dc, dc_err = _two_diff(gw, go)
    return 2.0 * ((dc + 0.5) + dc_err)  # dc + 0.5 is exact where the sum is small


def _coefficient_terms(gw, go, d, sqrt):
    """(a_w, a_o, b, c_w, c_o, minor) at cooperativities gw, go with d from
    :func:`_denominator`: Python floats with ``math.sqrt``, or arrays with ``np.sqrt``."""
    dc, dc_err = _two_diff(gw, go)
    return ((1.0 - 2.0 * gw - 2.0 * go) / d, (1.0 + 2.0 * gw + 2.0 * go) / d,
            4.0 * sqrt(gw * go) / d, sqrt(8.0 * gw) / d, sqrt(8.0 * go) / d,
            # 0.5 - dc is exact where the numerator is small
            2.0 * ((0.5 - dc) - dc_err) / d)


def source_moments(coef: EomCoefficients, n_w_thermal: float,
                   n_o_thermal: float, n_b_thermal: float) -> SourceMoments:
    """Output second moments for given input bath occupations.

    n_w    = a_w^2 n_w^T + b^2 (n_o^T + 1) + c_w^2 n_b^T
    n_o    = b^2 (n_w^T + 1) + a_o^2 n_o^T + c_o^2 (n_b^T + 1)
    cross  = |a_w b (n_w^T + 1) - b a_o n_o^T - c_w c_o (n_b^T + 1)|

    The relative signs in ``cross`` follow the phases of the Langevin
    solution: the mechanical-noise contribution enters with the sign opposite
    to the in-band term, and the in-band term itself flips sign with a_w where
    2*Gamma_w + 2*Gamma_o crosses 1.  This sign structure is what keeps the
    output state physical at every stable operating point.

    s = ab - c^2, which cancels from the rounded moments near a pure state,
    is the Cauchy-Binet sum of positive terms of the x-block M diag(D) M^T:
    s = minor^2 D_w D_o + c_o^2 D_w D_b + c_w^2 D_o D_b with D = 2 n^T + 1.
    """
    if min(n_w_thermal, n_o_thermal, n_b_thermal) < 0:
        raise ValueError("occupations must be >= 0")
    return SourceMoments(*_moment_terms(coef.a_w, coef.a_o, coef.b, coef.c_w, coef.c_o,
                                        coef.minor, n_w_thermal, n_o_thermal, n_b_thermal))


def _moment_terms(a_w, a_o, b, c_w, c_o, minor, n_w_t, n_o_t, n_b_t):
    """(n_w, n_o, cross, s) of :func:`source_moments`, over floats or arrays alike."""
    # squares by products, which IEEE rounds alike on every platform; libm pow may not
    b2 = b * b
    n_w = a_w * a_w * n_w_t + b2 * (n_o_t + 1.0) + c_w * c_w * n_b_t
    n_o = b2 * (n_w_t + 1.0) + a_o * a_o * n_o_t + c_o * c_o * (n_b_t + 1.0)
    cross = abs(a_w * b * (n_w_t + 1.0) - b * a_o * n_o_t - c_w * c_o * (n_b_t + 1.0))
    # D / 2 = n^T + 1/2 stays finite for every finite n^T, so a zero coefficient gives 0, not nan
    h_w, h_o, h_b = n_w_t + 0.5, n_o_t + 0.5, n_b_t + 0.5
    return n_w, n_o, cross, 4.0 * (minor * minor * h_w * h_o + c_o * c_o * h_w * h_b
                                   + c_w * c_w * h_o * h_b)


def source_state(m: SourceMoments) -> TwoModeGaussianState:
    """Covariance-matrix state of the transmitter output pair."""
    return TwoModeGaussianState(2.0 * m.n_w + 1.0, 2.0 * m.n_o + 1.0, 2.0 * m.cross, m.s)


def entanglement_metric(m: SourceMoments) -> float:
    """Correlation metric |<d_w d_o>| / sqrt(n_w * n_o).

    Exceeds 1 exactly when the two output modes are entangled.  An uncorrelated
    source (cross = 0) gives 0 even when a mode is empty; otherwise an empty mode
    raises UndefinedMetricError.
    """
    if m.cross == 0.0:
        return 0.0
    if m.n_w <= 0 or m.n_o <= 0:
        raise UndefinedMetricError("entanglement metric undefined at zero photon number")
    return m.cross / math.sqrt(m.n_w * m.n_o)


def _two_diff(x: float, y: float) -> tuple[float, float]:
    """(d, err) with d + err = x - y exactly (Knuth's TwoSum)."""
    d = x - y
    bv = d - x
    return d, (x - (d - bv)) - (y + bv)


def is_stable(coop: Cooperativities, params: EomParams) -> StabilityReport:
    """Dynamical stability of an operating point.

    The drift matrix splits into two similar real 3x3 blocks, on
    (x_b, p_w, p_o) and (p_b, x_w, x_o), so its spectrum is the roots of one
    real cubic

        f(l) = (l + gamma_m/2)(l + kappa_w)(l + kappa_o)
               + G_w^2 (l + kappa_o) - G_o^2 (l + kappa_w)
             = l (l^2 + p2 l + p1) + p0,
        p0   = gamma_m kappa_w kappa_o (1/2 + Gamma_w - Gamma_o),

    with the coefficients of the module docstring.  The margin is minus the
    largest real root part: the trigonometric form gives the largest of three
    real roots; Cardano gives the one real root r, and Vieta the real part
    (-p2 - r)/2 of the complex pair.  One Newton step on f then polishes the
    root.  Every step is arranged to keep the digits of a small margin:

    - 1/2 + Gamma_w - Gamma_o is formed with one rounding, so near the
      adiabatic edge p0 is as exact as its inputs;
    - the depressed cubic is formed from the rates' offsets from p2/3, which
      keeps clustered roots apart (a triple root when kappa_w = kappa_o =
      gamma_m/2 at zero drive);
    - the Newton step evaluates f in the first form near l = -gamma_m/2 and
      in the second near l = 0, whichever is closer to the root.

    ``stable`` is ``margin > 0``, the Routh-Hurwitz condition p0 > 0,
    p1 > 0, p2 p1 > p0.

    Raises
    ------
    OverflowError
        If a cooperativity is so large (above ~1e95 at the nominal rates)
        that the cubic overflows float64.
    """
    gm, gw, go = params.gamma_m, coop.gamma_w, coop.gamma_o
    a, kw, ko = 0.5 * gm, params.kappa_w, params.kappa_o
    dg = (gw * kw - go * ko) * gm  # G_w^2 - G_o^2
    c0 = 2.0 * a * kw * ko  # gamma_m kappa_w kappa_o
    dc, dc_err = _two_diff(gw, go)
    p0 = c0 * ((dc + 0.5) + dc_err)  # dc + 0.5 is exact where the sum is small
    p2 = a + kw + ko
    # depressed cubic y^3 + 3 P y + 2 Q in y = l + p2/3
    s = p2 / 3.0
    da, dw, do = a - s, kw - s, ko - s
    big_p = (da * dw + dw * do + do * da + dg) / 3.0
    big_q = 0.5 * (da * dw * do + c0 * dc - s * dg)
    disc = big_q * big_q + big_p * big_p * big_p
    if not math.isfinite(disc):
        raise OverflowError(f"stability cubic overflows at {coop}")
    if disc > 0.0:  # one real root, u + v with u v = -P
        w = -big_q - math.copysign(math.sqrt(disc), big_q)
        u = math.copysign(abs(w) ** (1.0 / 3.0), w)
        v = -big_p / u
        # u^3 + v^3 = -2Q; the quotient form does not cancel where P > 0
        x = (u + v if big_p <= 0.0 else -2.0 * big_q / (u * u + v * v + big_p)) - s
    elif big_p < 0.0:  # three real roots, the largest
        m = math.sqrt(-big_p)
        x = 2.0 * m * math.cos(math.acos(max(-1.0, min(1.0, -big_q / (m * m * m)))) / 3.0) - s
    else:  # triple root
        x = -s
    xa, xw, xo = x + a, x + kw, x + ko
    if abs(xa) < abs(x):
        f = xa * xw * xo + x * dg + c0 * dc
    else:
        f = x * (xw * xo + a * (xw + ko) + dg) + p0
    slope = xw * xo + xa * (xw + xo) + dg
    if slope:
        x -= f / slope
    if disc > 0.0:
        x = max(x, -0.5 * (p2 + x))
    margin = float(-x)
    # as _make does: tuple.__new__ skips the generated Python-level __new__, half the cost
    return tuple.__new__(StabilityReport, (margin > 0.0, margin, go < gw + 0.5))
