"""Two-mode zero-mean Gaussian states of the squeezed thermal family.

Quadrature convention: x = a + a*, p = -i(a - a*), so the vacuum variance of
every quadrature is 1 and a thermal state with mean photon number n has
variance 2n + 1.  Quadrature ordering is (x1, p1, x2, p2).

Every state this package builds, the converter's output and the receiver's
return-idler pair, is a two-mode squeezed thermal state with covariance
matrix [[a I, c Z], [c Z, b I]], Z = diag(1, -1), held as a, b, c and
s = ab - c^2 = nu_plus nu_minus.  Its maker passes s in: near a pure state
ab - c^2 of the rounded entries keeps no digit, while the converter forms s
as a sum of positive terms.  The spectrum, with nu~ that of the partial
transpose, has closed forms in + - * / and sqrt that subtract nothing nearly
equal:

    nu_plus = (|a - b| + sqrt((a - b)^2 + 4 s)) / 2,       nu_minus = s / nu_plus,
    nu~_plus = (a + b + sqrt((a - b)^2 + 4 c^2)) / 2,      nu~_minus = s / nu~_plus.
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
    """Zero-mean two-mode squeezed thermal state.

    Parameters
    ----------
    a, b : float
        Quadrature variances of the first and the second mode.
    c : float
        Cross covariance <x1 x2> = -<p1 p2>.
    s : float
        ab - c^2 as exact as the maker can form it; it must match the
        entries to ``PHYSICALITY_TOL`` relative to ab + c^2.

    Raises
    ------
    PhysicalityError
        If an entry is not finite, or ``s`` does not match the entries, or a
        variance is below the vacuum level, the matrix is not positive
        definite, or the state violates the uncertainty principle, each by
        more than ``PHYSICALITY_TOL``; the message lists the offending values.
    OverflowError
        If ab, c^2, (a - b)^2 or s overflows float64, from entries near 1e154.
    """

    a: float
    b: float
    c: float
    s: float
    spectrum: SymplecticData = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("a", "b", "c", "s"):
            object.__setattr__(self, name, float(getattr(self, name)))
        a, b, c, s = self.a, self.b, self.c, self.s
        if not all(map(math.isfinite, (a, b, c))):
            raise PhysicalityError(f"non-finite covariance entry: {self!r}")
        if min(a, b) < 1.0 - PHYSICALITY_TOL:
            raise PhysicalityError(f"diagonal variance below vacuum level: min={min(a, b)!r}")
        ab, cc, dd = a * b, c * c, (a - b) * (a - b)
        if not math.isfinite(ab + cc + dd) or s == math.inf:
            raise OverflowError("symplectic spectrum overflows float64")
        # negated, so that a NaN s fails it
        if not abs(s - (ab - cc)) <= PHYSICALITY_TOL * (ab + cc):
            raise PhysicalityError(f"s = {s!r} does not match ab - c^2 = {ab - cc!r}")
        if s <= 0.0:
            raise PhysicalityError(
                f"covariance matrix not positive definite: nu_plus nu_minus = s = {s!r}")
        nu_plus = (abs(a - b) + math.sqrt(dd + 4.0 * s)) / 2
        nu_ppt_plus = (a + b + math.sqrt(dd + 4.0 * cc)) / 2
        # a product state is its own partial transpose: min(a, b) keeps E_N = 0 exact
        data = SymplecticData(nu_plus, s / nu_plus, s / nu_ppt_plus if c else min(a, b))
        if data.nu_minus < 1.0 - PHYSICALITY_TOL:
            raise PhysicalityError(
                "state violates the uncertainty principle: "
                f"nu_plus={data.nu_plus!r}, nu_minus={data.nu_minus!r}, "
                f"nu_ppt_minus={data.nu_ppt_minus!r}"
            )
        object.__setattr__(self, "spectrum", data)

    @property
    def cm(self) -> np.ndarray:
        """4x4 float64 covariance matrix in (x1, p1, x2, p2) ordering."""
        a, b, c = self.a, self.b, self.c
        return np.array([[a, 0.0, c, 0.0],
                         [0.0, a, 0.0, -c],
                         [c, 0.0, b, 0.0],
                         [0.0, -c, 0.0, b]])


def standard_form(n_1: float, n_2: float, cross: complex) -> TwoModeGaussianState:
    """Two-mode squeezed thermal state from its second moments.

    Builds the covariance matrix [[a*I, c*Z], [c*Z, b*I]] with a = 2*n_1 + 1,
    b = 2*n_2 + 1, c = 2*|cross| and Z = diag(1, -1).  The local phase
    rotation that makes the phase-sensitive cross correlation real and
    positive is absorbed; no metric computed downstream depends on it.  The
    moments are taken as exact: s = ab - c^2 of them loses the digits of a
    near-pure state with large entries, which :func:`mwqi.source_state` keeps.

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
    a, b, c = 2.0 * n_1 + 1.0, 2.0 * n_2 + 1.0, 2.0 * abs(cross)
    return TwoModeGaussianState(a, b, c, a * b - c * c)


def two_mode_squeezed_vacuum(r: float) -> TwoModeGaussianState:
    """Pure two-mode squeezed vacuum with squeezing parameter r >= 0, s = 1 exactly."""
    if r < 0:
        raise ValueError("squeezing parameter must be >= 0")
    a, c = math.cosh(2.0 * r), math.sinh(2.0 * r)
    return TwoModeGaussianState(a, a, c, 1.0)


def symplectic_spectrum(state: TwoModeGaussianState) -> SymplecticData:
    """Symplectic eigenvalues of the state and of its partial transpose, computed at build."""
    return state.spectrum


# ---------------------------------------------------------------------------
# entropy and sampling
# ---------------------------------------------------------------------------

_LN2 = math.log(2.0)


def entropy(nu: float) -> float:
    """Von Neumann entropy in bits of a mode with symplectic eigenvalue nu.

    g(nu) = ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2), with
    g(1) = 0 by continuity, evaluated as log2(x+) + x- log1p(1/x-) / ln 2
    with x+- = (nu +- 1)/2: a sum of positive terms, where the textbook form
    is a difference of two terms of size nu log2 nu.
    """
    # negated comparison, so that NaN fails it
    if not 1.0 - PHYSICALITY_TOL <= nu < math.inf:
        raise ValueError(f"symplectic eigenvalue must be finite and >= 1, got {nu!r}")
    if nu <= 1.0:
        return 0.0
    xm = (nu - 1.0) / 2
    return math.log2((nu + 1.0) / 2) + xm * math.log1p(1.0 / xm) / _LN2


def _gaussian_factor(cm) -> np.ndarray:
    """Factor F with F.T @ F = cm, via an eigendecomposition.

    Rows z of standard normals map to z @ F, zero-mean with covariance cm.
    """
    w, u = np.linalg.eigh(np.asarray(cm, dtype=float))
    return (u * np.sqrt(np.clip(w, 0.0, None))).T
