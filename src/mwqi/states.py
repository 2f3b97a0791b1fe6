"""Two-mode zero-mean Gaussian states in standard form.

Quadrature convention: x = a + a*, p = -i(a - a*), so the vacuum variance of
every quadrature is 1 and a thermal state with mean photon number n has
variance 2n + 1.  Quadrature ordering is (x1, p1, x2, p2).

Every state this package builds has the standard-form covariance matrix
[[a I, diag(c_x, c_p)], [diag(c_x, c_p), b I]], so a state is held as the
four float64 numbers a, b, c_x, c_p.  States produced by the converter model
can sit exactly on the physical boundary (smallest symplectic eigenvalue
equal to 1), where the textbook root (Delta - sqrt(disc)) / 2 loses every
significant digit.  The spectrum is therefore computed once, at
construction, from factored margins that are products of moment-scale
quantities.  The precision comes from the algebra, not from an extended
float type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PHYSICALITY_TOL",
    "PhysicalityError",
    "TwoModeGaussianState",
    "SymplecticData",
    "standard_form",
    "two_mode_squeezed_vacuum",
    "symplectic_spectrum",
    "entropy",
]


# absolute slack of the uncertainty principle: a, b and nu_minus may fall this far below 1
PHYSICALITY_TOL = 1e-9


class PhysicalityError(ValueError):
    """Raised when a covariance matrix violates the uncertainty principle."""


@dataclass(frozen=True, eq=False)
class SymplecticData:
    """Symplectic spectrum of a two-mode state.

    ``nu_plus >= nu_minus`` are the symplectic eigenvalues (both >= 1 for a
    physical state); ``nu_ppt_minus`` is the smaller symplectic eigenvalue of
    the partially transposed state, which drops below 1 exactly when the
    state is entangled.
    """

    nu_plus: float
    nu_minus: float
    nu_ppt_minus: float


@dataclass(frozen=True, eq=False)
class TwoModeGaussianState:
    """Zero-mean two-mode Gaussian state in standard form.

    Parameters
    ----------
    a, b : float
        Quadrature variances of the first and the second mode.
    c_x, c_p : float
        Cross covariances <x1 x2> and <p1 p2>; c_p = -c_x for the
        phase-sensitive correlations this package produces, c_p = c_x for
        phase-insensitive ones.
    spectrum : SymplecticData, optional
        Computed from the four numbers when omitted.  A constructor passes
        it when the rounded numbers do not carry it, as for a pure state
        whose margins are below their rounding error.

    Raises
    ------
    PhysicalityError
        If an entry is not finite, or a variance is below the vacuum level,
        the matrix is not positive definite, or the state violates the
        uncertainty principle, each by more than ``PHYSICALITY_TOL``; the
        message lists the symplectic eigenvalues.
    OverflowError
        If the finite entries are too large for a float64 spectrum.
    """

    a: float
    b: float
    c_x: float
    c_p: float
    spectrum: SymplecticData | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("a", "b", "c_x", "c_p"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(map(math.isfinite, (self.a, self.b, self.c_x, self.c_p))):
            raise PhysicalityError(f"non-finite covariance entry: {self!r}")
        if min(self.a, self.b) < 1.0 - PHYSICALITY_TOL:
            raise PhysicalityError(
                f"diagonal variance below vacuum level: min={min(self.a, self.b)!r}")
        if self.spectrum is None:
            object.__setattr__(self, "spectrum", _spectrum(self.a, self.b, self.c_x, self.c_p))
        data = self.spectrum
        if data.nu_minus < 1.0 - PHYSICALITY_TOL:
            raise PhysicalityError(
                "state violates the uncertainty principle: "
                f"nu_plus={data.nu_plus!r}, nu_minus={data.nu_minus!r}, "
                f"nu_ppt_minus={data.nu_ppt_minus!r}"
            )

    @property
    def cm(self) -> np.ndarray:
        """4x4 float64 covariance matrix in (x1, p1, x2, p2) ordering."""
        a, b, c_x, c_p = self.a, self.b, self.c_x, self.c_p
        return np.array([[a, 0.0, c_x, 0.0],
                         [0.0, a, 0.0, c_p],
                         [c_x, 0.0, b, 0.0],
                         [0.0, c_p, 0.0, b]])


def standard_form(n_1: float, n_2: float, cross: complex) -> TwoModeGaussianState:
    """Two-mode squeezed thermal state from its second moments.

    Builds the covariance matrix [[a*I, c*Z], [c*Z, b*I]] with a = 2*n_1 + 1,
    b = 2*n_2 + 1, c = 2*|cross| and Z = diag(1, -1).  The local phase
    rotation that makes the phase-sensitive cross correlation real and
    positive is absorbed; no metric computed downstream depends on it.

    Parameters
    ----------
    n_1, n_2 : float
        Mean photon numbers of the two modes.
    cross : complex
        Phase-sensitive cross correlation <a_1 a_2>.

    Raises
    ------
    PhysicalityError
        If the resulting matrix is not a valid quantum covariance matrix;
        the message lists the offending symplectic eigenvalues.
    """
    if n_1 < 0 or n_2 < 0:
        raise ValueError(f"mean photon numbers must be >= 0, got {n_1}, {n_2}")
    c = 2.0 * abs(cross)
    return TwoModeGaussianState(2.0 * n_1 + 1.0, 2.0 * n_2 + 1.0, c, -c)


def two_mode_squeezed_vacuum(r: float) -> TwoModeGaussianState:
    """Pure two-mode squeezed vacuum with squeezing parameter r >= 0.

    The state carries its exact spectrum, nu_plus = nu_minus = 1 and
    nu_ppt_minus = e^{-2r}: the purity margin a^2 - c^2 - 1 is zero, while
    that of the rounded cosh(2r), sinh(2r) is of order 1e-16 a^2.
    """
    if r < 0:
        raise ValueError("squeezing parameter must be >= 0")
    a, c = math.cosh(2.0 * r), math.sinh(2.0 * r)
    return TwoModeGaussianState(a, a, c, -c,
                                spectrum=SymplecticData(1.0, 1.0, math.exp(-2.0 * r)))


# ---------------------------------------------------------------------------
# symplectic spectrum
# ---------------------------------------------------------------------------

def _pair(a: float, b: float, c_x: float, c_p: float) -> tuple[float, float]:
    """(nu_plus, nu_minus) of the standard form a, b, c_x, c_p.

    The squared eigenvalues are the roots of x^2 - Delta*x + det V with
    Delta = a^2 + b^2 + 2 c_x c_p and det V = (ab - c_x^2)(ab - c_p^2).  The
    small root is taken through

        nu_minus^2 - 1 = 2 M / (Delta - 2 + sqrt(disc)),
        M = det V - Delta + 1 = (nu_plus^2 - 1)(nu_minus^2 - 1),

    with M in a factored form whose correction term vanishes on the
    correlation family at hand (c_p = -c_x or c_p = c_x), and
    disc = Delta^2 - 4 det V as a sum of products.  Near the physical
    boundary the direct root (Delta - sqrt(disc)) / 2 loses all significant
    digits; these forms contain no such cancellation.  A disc below its
    rounding noise means V is not positive definite (PhysicalityError);
    entries near 1e77 overflow M or disc (OverflowError).
    """
    a_m1, b_m1 = a - 1.0, b - 1.0  # no rounding for float64 a, b in [0.5, 2**53]
    cc = c_x * c_p
    if cc <= 0:
        m = (a_m1 * (b + 1) + cc) * ((a + 1) * b_m1 + cc) - a * b * (c_x + c_p) ** 2
    else:
        m = (a_m1 * b_m1 - cc) * ((a + 1) * (b + 1) - cc) - a * b * (c_x - c_p) ** 2
    delta_m2 = a_m1 * (a + 1) + b_m1 * (b + 1) + 2 * cc  # Delta - 2
    disc = ((a - b) ** 2 * (a + b - c_x + c_p) * (a + b + c_x - c_p)
            + (a + b) ** 2 * (c_x + c_p) ** 2)
    if not (math.isfinite(m) and math.isfinite(disc)):
        raise OverflowError("symplectic spectrum overflows float64")
    if disc < 0:
        if disc < -PHYSICALITY_TOL * ((delta_m2 + 2) ** 2 + 1):
            raise PhysicalityError(
                f"covariance matrix not positive definite: symplectic discriminant {disc!r}")
        disc = 0.0
    s = math.sqrt(disc)
    denom = delta_m2 + s  # 2 (nu_plus^2 - 1)
    nu_plus = math.sqrt(max(1 + denom / 2, 0.0))
    if denom <= 0:
        # pure or vacuum-like corner: the direct root has nothing to cancel
        return nu_plus, math.sqrt(max(1 + (delta_m2 - s) / 2, 0.0))
    return nu_plus, math.sqrt(max(1 + 2 * m / denom, 0.0))


def _spectrum(a: float, b: float, c_x: float, c_p: float) -> SymplecticData:
    """Spectrum of the state and of its partial transpose (c_p -> -c_p)."""
    nu_plus, nu_minus = _pair(a, b, c_x, c_p)
    _, nu_ppt_minus = _pair(a, b, c_x, -c_p)
    return SymplecticData(nu_plus, nu_minus, nu_ppt_minus)


def symplectic_spectrum(state: TwoModeGaussianState) -> SymplecticData:
    """Symplectic eigenvalues of the state and of its partial transpose.

    The spectrum is computed once, when the state is built; the partial
    transpose flips the sign of c_p.
    """
    return state.spectrum


# ---------------------------------------------------------------------------
# entropy and sampling
# ---------------------------------------------------------------------------

def entropy(nu: float) -> float:
    """Von Neumann entropy in bits of a mode with symplectic eigenvalue nu.

    g(nu) = ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2), with
    g(1) = 0 by continuity.
    """
    # negated comparison, so that NaN fails it
    if not 1.0 - PHYSICALITY_TOL <= nu < math.inf:
        raise ValueError(f"symplectic eigenvalue must be finite and >= 1, got {nu!r}")
    if nu <= 1.0:
        return 0.0
    xp = (nu + 1.0) / 2
    xm = (nu - 1.0) / 2
    return float(xp * np.log2(xp) - xm * np.log2(xm))


def _gaussian_factor(cm) -> np.ndarray:
    """Factor F with F.T @ F = cm, via an eigendecomposition.

    Rows z of standard normals map to z @ F, zero-mean with covariance cm.
    """
    w, u = np.linalg.eigh(np.asarray(cm, dtype=float))
    return (u * np.sqrt(np.clip(w, 0.0, None))).T
