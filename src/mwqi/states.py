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
transpose:

    nu_plus = (|a - b| + sqrt((a - b)^2 + 4 s)) / 2,       nu_minus = s / nu_plus,
    nu~_plus = (a + b + sqrt((a - b)^2 + 4 c^2)) / 2,      nu~_minus = s / nu~_plus,

and its joint entropy g(nu_plus) + g(nu_minus).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "PHYSICALITY_TOL",
    "PhysicalityError",
    "TwoModeGaussianState",
    "two_mode_squeezed_vacuum",
    "entropy",
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
        If ab + c^2 or s overflows float64.  (a - b)^2 does not: from
        max(a, b) = 2^500 on, the spectrum is formed at a scale of 2^-k.
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
        if not all(map(math.isfinite, (a, b, c))):
            raise PhysicalityError(f"non-finite covariance entry: {self!r}")
        if min(a, b) < 1.0 - PHYSICALITY_TOL:
            raise PhysicalityError(f"diagonal variance below vacuum level: min={min(a, b)!r}")
        ab, cc = a * b, c * c
        if not math.isfinite(ab + cc) or s == math.inf:
            raise OverflowError("symplectic spectrum overflows float64")
        # negated, so that a NaN s fails it
        if not abs(s - (ab - cc)) <= PHYSICALITY_TOL * (ab + cc):
            raise PhysicalityError(f"s = {s!r} does not match ab - c^2 = {ab - cc!r}")
        if s <= 0.0:
            raise PhysicalityError(
                f"covariance matrix not positive definite: nu_plus nu_minus = s = {s!r}")
        # (a - b)^2 overflows from |a - b| ~ 1.3e154, so from max(a, b) = 2^500 on the spectrum
        # comes from a, b, c scaled by 2^-k and s by 2^-2k, then is scaled back: exactly
        k = math.frexp(max(a, b))[1] - 500 if max(a, b) >= 2.0 ** 500 else 0
        if k:
            a, b, c, s = (math.ldexp(x, -k) for x in (a, b, c, math.ldexp(s, -k)))
            cc = c * c
        dd = (a - b) * (a - b)
        nu_plus = (abs(a - b) + math.sqrt(dd + 4.0 * s)) / 2
        nu_ppt_plus = (a + b + math.sqrt(dd + 4.0 * cc)) / 2
        nu_minus = s / nu_plus
        # a product state is its own partial transpose: min(a, b) keeps E_N = 0 exact
        nu_ppt_minus = s / nu_ppt_plus if self.c else min(a, b)
        if k:
            nu_plus, nu_minus, nu_ppt_minus = (
                math.ldexp(nu, k) for nu in (nu_plus, nu_minus, nu_ppt_minus))
        if nu_minus < 1.0 - PHYSICALITY_TOL:
            raise PhysicalityError(
                "state violates the uncertainty principle: "
                f"nu_plus={nu_plus!r}, nu_minus={nu_minus!r}, nu_ppt_minus={nu_ppt_minus!r}")
        joint_entropy = entropy(nu_plus) + entropy(nu_minus)
        for name, value in zip(("nu_plus", "nu_minus", "nu_ppt_minus", "joint_entropy"),
                               (nu_plus, nu_minus, nu_ppt_minus, joint_entropy)):
            object.__setattr__(self, name, value)


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
