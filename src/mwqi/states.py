"""Two-mode zero-mean Gaussian states as 4x4 covariance matrices.

Quadrature convention: x = a + a*, p = -i(a - a*), so the vacuum variance of
every quadrature is 1 and a thermal state with mean photon number n has
variance 2n + 1.  Quadrature ordering is (x1, p1, x2, p2).

Covariance matrices are stored in extended precision (``np.longdouble``).
States produced by the converter model can sit exactly on the physical
boundary (smallest symplectic eigenvalue equal to 1), and for strongly
amplified operating points plain double arithmetic cannot resolve the
boundary to the tolerances this package guarantees.  All spectral
computations below therefore run in longdouble and use cancellation-free
factorizations of the symplectic invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_L = np.longdouble

__all__ = [
    "PhysicalityError",
    "DegenerateSpectrumError",
    "TwoModeGaussianState",
    "SymplecticData",
    "from_blocks",
    "standard_form",
    "two_mode_squeezed_vacuum",
    "thermal_product",
    "rotate_local",
    "symplectic_spectrum",
    "entropy",
    "sample_quadratures",
]


class PhysicalityError(ValueError):
    """Raised when a covariance matrix violates the uncertainty principle."""


class DegenerateSpectrumError(ArithmeticError):
    """Raised when the symplectic discriminant is negative beyond rounding noise."""


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
    """Zero-mean two-mode Gaussian state.

    Parameters
    ----------
    cm : ndarray
        4x4 real symmetric covariance matrix in (x1, p1, x2, p2) ordering.
    tol : float
        Absolute physicality tolerance on the symplectic eigenvalues.
    """

    cm: np.ndarray
    tol: float = field(default=1e-9)

    def __post_init__(self):
        cm = np.asarray(self.cm, dtype=_L)
        if cm.shape != (4, 4):
            raise ValueError(f"covariance matrix must be 4x4, got {cm.shape}")
        scale = float(np.max(np.abs(cm))) + 1.0
        if float(np.max(np.abs(cm - cm.T))) > 1e-10 * scale:
            raise ValueError("covariance matrix is not symmetric")
        cm = (cm + cm.T) / 2
        cm.flags.writeable = False
        object.__setattr__(self, "cm", cm)
        if float(np.min(np.diagonal(cm))) < 1.0 - self.tol:
            raise PhysicalityError(
                f"diagonal variance below vacuum level: min={float(np.min(np.diagonal(cm)))!r}"
            )
        data = _spectrum_from_cm(cm)
        if data.nu_minus < 1.0 - self.tol:
            raise PhysicalityError(
                "state violates the uncertainty principle: "
                f"nu_plus={data.nu_plus!r}, nu_minus={data.nu_minus!r}, "
                f"nu_ppt_minus={data.nu_ppt_minus!r}"
            )

    @property
    def mode_photon_numbers(self) -> tuple[float, float]:
        """Mean photon number of each reduced mode, (tr(block)/2 - 1)/2."""
        c = self.cm
        n1 = (float(c[0, 0] + c[1, 1]) / 2 - 1.0) / 2
        n2 = (float(c[2, 2] + c[3, 3]) / 2 - 1.0) / 2
        return n1, n2


def from_blocks(a: float, b: float, c_x: float, c_p: float,
                tol: float = 1e-9) -> TwoModeGaussianState:
    """State with covariance [[a*I, diag(c_x, c_p)], [diag(c_x, c_p), b*I]].

    Covers the two correlation families this package produces: phase-sensitive
    correlations (c_p = -c_x) and phase-insensitive ones (c_p = c_x).
    """
    a, b, c_x, c_p = _L(a), _L(b), _L(c_x), _L(c_p)
    cm = np.zeros((4, 4), dtype=_L)
    cm[0, 0] = cm[1, 1] = a
    cm[2, 2] = cm[3, 3] = b
    cm[0, 2] = cm[2, 0] = c_x
    cm[1, 3] = cm[3, 1] = c_p
    return TwoModeGaussianState(cm, tol=tol)


def standard_form(n_1: float, n_2: float, cross: complex,
                  tol: float = 1e-9) -> TwoModeGaussianState:
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
    c = 2 * _L(abs(cross))
    a = 2 * _L(n_1) + 1
    b = 2 * _L(n_2) + 1
    return from_blocks(a, b, c, -c, tol=tol)


def two_mode_squeezed_vacuum(r: float, tol: float = 1e-9) -> TwoModeGaussianState:
    """Pure two-mode squeezed vacuum with squeezing parameter r >= 0."""
    if r < 0:
        raise ValueError("squeezing parameter must be >= 0")
    rl = _L(r)
    a = np.cosh(2 * rl)
    c = np.sinh(2 * rl)
    return from_blocks(a, a, c, -c, tol=tol)


def thermal_product(n_1: float, n_2: float, tol: float = 1e-9) -> TwoModeGaussianState:
    """Uncorrelated product of two thermal states."""
    return standard_form(n_1, n_2, 0.0, tol=tol)


def rotate_local(state: TwoModeGaussianState, phi_1: float, phi_2: float) -> TwoModeGaussianState:
    """Apply independent phase-space rotations to the two modes."""
    def rot(phi):
        c, s = np.cos(_L(phi)), np.sin(_L(phi))
        return np.array([[c, s], [-s, c]], dtype=_L)

    r = np.zeros((4, 4), dtype=_L)
    r[:2, :2] = rot(phi_1)
    r[2:, 2:] = rot(phi_2)
    return TwoModeGaussianState(r @ state.cm @ r.T, tol=state.tol)


# ---------------------------------------------------------------------------
# symplectic spectrum
# ---------------------------------------------------------------------------

def _pair_nus(a, b, c, sign, disc_tol=1e-9):
    """Symplectic pair for invariants Delta = a^2 + b^2 + 2*sign*c^2, det V = (ab - c^2)^2.

    Returns (nu_plus, nu_minus) computed through the factored margin form

        nu_minus^2 - 1 = 2*F1*F2 / (Delta - 2 + sqrt(disc))

    which contains no catastrophic cancellation: for states near the physical
    boundary the direct form (Delta - sqrt(disc))/2 loses all significant
    digits, while F1 and F2 are plain products of moment-scale quantities.
    """
    if sign < 0:
        # phase-sensitive family, C = diag(c, -c)
        delta = (a - c) * (a + c) + (b - c) * (b + c)
        disc = (a - b) * (a - b) * (a + b - 2 * c) * (a + b + 2 * c)
        f1 = (a - 1) * (b + 1) - c * c
        f2 = (a + 1) * (b - 1) - c * c
    else:
        # phase-insensitive family, C = diag(c, c)
        delta = a * a + b * b + 2 * c * c
        disc = (a + b) * (a + b) * ((a - b) * (a - b) + 4 * c * c)
        f1 = (a - 1) * (b - 1) - c * c
        f2 = (a + 1) * (b + 1) - c * c
    if disc < 0:
        if disc < -_L(disc_tol) * (delta * delta + 1):
            raise DegenerateSpectrumError(f"negative symplectic discriminant: {float(disc)!r}")
        disc = _L(0)
    s = np.sqrt(disc)
    nu_plus = np.sqrt(max((delta + s) / 2, _L(0)))
    denom = delta - 2 + s
    if denom <= 0:
        # vacuum-like corner: both eigenvalues coincide at sqrt(delta/2)
        nu_minus = np.sqrt(max(delta / 2, _L(0)))
    else:
        nm2 = 1 + 2 * f1 * f2 / denom
        nu_minus = np.sqrt(max(nm2, _L(0)))
    return nu_plus, nu_minus


def _det2(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _spectrum_generic(cm, disc_tol=1e-9):
    """Fallback for covariance matrices without the diagonal block pattern."""
    A = cm[:2, :2]
    B = cm[2:, 2:]
    C = cm[:2, 2:]
    det_a = _det2(A)
    det_b = _det2(B)
    det_c = _det2(C)
    # det V through the Schur complement of A (A is 2x2 positive definite)
    inv_a = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]], dtype=_L) / det_a
    det_v = det_a * _det2(B - C.T @ inv_a @ C)

    def pair(delta):
        disc = delta * delta - 4 * det_v
        if disc < 0:
            if disc < -_L(disc_tol) * (delta * delta + 1):
                raise DegenerateSpectrumError(
                    f"negative symplectic discriminant: {float(disc)!r}"
                )
            disc = _L(0)
        s = np.sqrt(disc)
        nu_plus = np.sqrt((delta + s) / 2)
        # stable small root: nu-^2 = 2 det V / (Delta + sqrt(disc))
        nu_minus = np.sqrt(max(2 * det_v / (delta + s), _L(0)))
        return nu_plus, nu_minus

    nu_plus, nu_minus = pair(det_a + det_b + 2 * det_c)
    _, nu_ppt_minus = pair(det_a + det_b - 2 * det_c)
    return SymplecticData(float(nu_plus), float(nu_minus), float(nu_ppt_minus))


def _spectrum_from_cm(cm, disc_tol=1e-9):
    a, b = cm[0, 0], cm[2, 2]
    block = (
        cm[0, 0] == cm[1, 1]
        and cm[2, 2] == cm[3, 3]
        and cm[0, 1] == 0 and cm[0, 3] == 0 and cm[1, 2] == 0
        and abs(cm[0, 2]) == abs(cm[1, 3])
    )
    if not block:
        return _spectrum_generic(cm, disc_tol)
    c = abs(cm[0, 2])
    sign = 1 if cm[0, 2] * cm[1, 3] > 0 else -1
    nu_plus, nu_minus = _pair_nus(a, b, c, sign, disc_tol)
    _, nu_ppt_minus = _pair_nus(a, b, c, -sign, disc_tol)
    return SymplecticData(float(nu_plus), float(nu_minus), float(nu_ppt_minus))


def symplectic_spectrum(state: TwoModeGaussianState) -> SymplecticData:
    """Symplectic eigenvalues of the state and of its partial transpose.

    For a two-mode covariance matrix V = [[A, C], [C^T, B]] the squared
    eigenvalues are the roots of x^2 - Delta*x + det V with
    Delta = det A + det B + 2 det C; the partial transpose flips the sign of
    det C.  Both roots are evaluated through subtraction-free expressions so
    that near-pure states keep full precision.
    """
    return _spectrum_from_cm(state.cm)


# ---------------------------------------------------------------------------
# entropy and sampling
# ---------------------------------------------------------------------------

def entropy(nu: float, tol: float = 1e-9) -> float:
    """Von Neumann entropy in bits of a mode with symplectic eigenvalue nu.

    g(nu) = ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2), with
    g(1) = 0 by continuity.
    """
    if nu < 1.0 - tol:
        raise ValueError(f"symplectic eigenvalue must be >= 1, got {nu!r}")
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


def sample_quadratures(state: TwoModeGaussianState, count: int, seed: int) -> np.ndarray:
    """Draw i.i.d. quadrature 4-vectors (x1, p1, x2, p2) from the state.

    The stream is deterministic for a fixed seed.  The sample covariance
    converges to ``state.cm`` entrywise as the count grows.
    """
    if count < 1:
        raise ValueError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, 4)) @ _gaussian_factor(state.cm)
