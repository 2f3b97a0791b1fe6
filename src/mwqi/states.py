"""Two-mode zero-mean Gaussian states of the squeezed thermal family.

Quadrature convention: x = a + a*, p = -i(a - a*), so the vacuum variance of
every quadrature is 1 and a thermal state with mean photon number n has
variance 2n + 1.  Quadrature ordering is (x1, p1, x2, p2).

Every state this package builds, the converter's output and the receiver's
return-idler pair, is a two-mode squeezed thermal state with covariance
matrix [[a I, c Z], [c Z, b I]], Z = diag(1, -1), held as a, b, c and
s = ab - c^2 = nu_plus nu_minus.  Its maker passes s in: near a pure state
ab - c^2 of the rounded entries keeps no digit, while the converter forms s
as a sum of positive terms.  A state is floats only, all set at build: no
matrix is formed.  It carries its spectrum, from closed forms in + - * / and
sqrt that subtract nothing nearly equal, with nu~ that of the partial
transpose (:func:`spectrum` evaluates them over arrays):

    nu_plus = (|a - b| + sqrt((a - b)^2 + 4 s)) / 2,       nu_minus = s / nu_plus,
    nu~_plus = (a + b + sqrt((a - b)^2 + 4 c^2)) / 2,      nu~_minus = s / nu~_plus,

and its joint entropy g(nu_plus) + g(nu_minus).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PHYSICALITY_TOL",
    "PhysicalityError",
    "TwoModeGaussianState",
    "two_mode_squeezed_vacuum",
    "spectrum",
    "entropy",
    "entropies",
]


# absolute slack of the uncertainty principle: a, b and nu_minus may fall this far below 1
PHYSICALITY_TOL = 1e-9


class PhysicalityError(ValueError):
    """Raised when a covariance matrix violates the uncertainty principle."""


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

    The symplectic spectrum is set at build: ``nu_plus >= nu_minus`` (both
    >= 1 for a physical state) and ``nu_ppt_minus``, the smaller eigenvalue
    of the partial transpose, which drops below 1 exactly when the state is
    entangled.  So is ``joint_entropy``, S(rho_12) = g(nu_plus) + g(nu_minus)
    in bits.

    Raises
    ------
    PhysicalityError
        If an entry is not finite, or ``s`` does not match the entries, or a
        variance is below the vacuum level, the matrix is not positive
        definite, or the state violates the uncertainty principle, each by
        more than ``PHYSICALITY_TOL``; the message lists the offending values.
    OverflowError
        If s is inf, or ab + c^2 overflows float64 at the scale of 2^-k that
        the state is checked at from max(a, b) = 2^500 on.
    """

    a: float
    b: float
    c: float
    s: float
    nu_plus: float = field(init=False, repr=False)
    nu_minus: float = field(init=False, repr=False)
    nu_ppt_minus: float = field(init=False, repr=False)
    joint_entropy: float = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("a", "b", "c", "s"):
            object.__setattr__(self, name, float(getattr(self, name)))
        a, b, c, s = self.a, self.b, self.c, self.s
        *spec, fault = (x.item() for x in spectrum(a, b, c, s))
        names = ("nu_plus", "nu_minus", "nu_ppt_minus", "joint_entropy")
        if fault:
            nus = ", ".join(f"{name}={nu!r}" for name, nu in zip(names[:3], spec))
            raise [PhysicalityError(f"non-finite covariance entry: {self!r}"),
                   PhysicalityError(f"diagonal variance below vacuum level: min={min(a, b)!r}"),
                   OverflowError("symplectic spectrum overflows float64"),
                   PhysicalityError(f"s = {s!r} does not match ab - c^2 = {a * b - c * c!r}"),
                   PhysicalityError("covariance matrix not positive definite: "
                                    f"nu_plus nu_minus = s = {s!r}"),
                   PhysicalityError(f"state violates the uncertainty principle: {nus}")][fault - 1]
        for name, value in zip(names, spec):
            object.__setattr__(self, name, value)


def spectrum(a, b, c, s) -> tuple[np.ndarray, ...]:
    """(nu_plus, nu_minus, nu_ppt_minus, joint_entropy, fault) of states (a, b, c, s) over
    arrays.  ``fault`` is 0 where a state passes every check of :class:`TwoModeGaussianState`,
    else the first it fails: non-finite entry 1, sub-vacuum variance 2, overflow 3,
    mismatched s 4, s <= 0 5, uncertainty principle 6 (its other entries mean nothing)."""
    with np.errstate(all="ignore"):
        low, product = np.minimum(a, b), c == 0.0
        # (a - b)^2 overflows from |a - b| ~ 1.3e154: from max(a, b) = 2^500 on, a state is
        # checked and its spectrum formed at a, b, c scaled by 2^-k and s by 2^-2k, exactly
        k = np.maximum(np.frexp(np.maximum(a, b))[1] - 500, 0)  # 0, the identity, below
        a, b, c, s = np.ldexp(a, -k), np.ldexp(b, -k), np.ldexp(c, -k), np.ldexp(s, -2 * k)
        ab, cc, dd = a * b, c * c, (a - b) * (a - b)
        nu_plus = (abs(a - b) + np.sqrt(dd + 4.0 * s)) / 2
        # a product state is its own partial transpose: min(a, b) keeps E_N = 0 exact
        nu_ppt_minus = np.where(product, np.minimum(a, b),
                                s / ((a + b + np.sqrt(dd + 4.0 * cc)) / 2))
        nu = np.ldexp(np.stack((nu_plus, s / nu_plus, nu_ppt_minus)), k)
        # in the order of the fault numbers; negated comparisons, so that NaN fails them
        fails = [~(np.isfinite(a) & np.isfinite(b) & np.isfinite(c)), low < 1.0 - PHYSICALITY_TOL,
                 ~np.isfinite(ab + cc) | (s == np.inf),
                 ~(abs(s - (ab - cc)) <= PHYSICALITY_TOL * (ab + cc)), ~(s > 0.0),
                 ~(nu[1] >= 1.0 - PHYSICALITY_TOL)]
        fault = np.argmax([~np.logical_or.reduce(fails), *fails], axis=0)  # 0: none failed
        g_plus, g_minus = entropies(nu[:2])
        return *nu, g_plus + g_minus, fault


def two_mode_squeezed_vacuum(r: float) -> TwoModeGaussianState:
    """Pure two-mode squeezed vacuum with squeezing parameter r >= 0, s = 1 exactly."""
    if r < 0:
        raise ValueError("squeezing parameter must be >= 0")
    a, c = math.cosh(2.0 * r), math.sinh(2.0 * r)
    return TwoModeGaussianState(a, a, c, 1.0)


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

_LN2 = math.log(2.0)


def entropy(nu: float) -> float:
    """g(nu) of :func:`entropies` at one nu, which must be finite and >= 1 within tolerance."""
    if not 1.0 - PHYSICALITY_TOL <= nu < math.inf:  # negated, so that NaN fails it
        raise ValueError(f"symplectic eigenvalue must be finite and >= 1, got {nu!r}")
    return entropies(nu).item()


def entropies(nu) -> np.ndarray:
    """Von Neumann entropy in bits of modes with symplectic eigenvalues nu, elementwise
    over an array; 0 where nu <= 1 or nu is NaN.

    g(nu) = ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2), with
    g(1) = 0 by continuity, evaluated as log2(x+) + x- log1p(1/x-) / ln 2
    with x+- = (nu +- 1)/2: a sum of positive terms, where the textbook form
    is a difference of two terms of size nu log2 nu.
    """
    nu = np.asarray(nu, dtype=float)
    with np.errstate(all="ignore"):
        xm = (nu - 1.0) / 2
        return np.where(nu > 1.0, np.log2((nu + 1.0) / 2) + xm * np.log1p(1.0 / xm) / _LN2, 0.0)
