import dataclasses
import math
import random
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

import mwqi
from mwqi import (
    Cooperativities,
    InstabilityError,
    UndefinedMetricError,
    coefficients,
    entanglement_metric,
    is_stable,
    nominal_params,
    planck_occupation,
    source_moments,
    source_state,
)

SOURCE_SURFACES = Path(__file__).resolve().parents[1] / "demos" / "configs" / "source_surfaces.cfg"


# ---------------------------------------------------------------------------
# Planck occupation
# ---------------------------------------------------------------------------

def test_planck_bright_microwave_background():
    n = planck_occupation(2 * math.pi * 10e9, 293.0)
    assert abs(n - 610.0) < 1.0


def test_planck_mechanical_occupation():
    n = planck_occupation(2 * math.pi * 10e6, 30e-3)
    assert abs(n - 62.0) < 0.5


def test_planck_zero_temperature():
    # k_B T underflows to 0 below about 1.8e-301 K, where 1/kT divided by zero
    for temp in (0.0, 1e-310, 5e-324):
        assert planck_occupation(2 * math.pi * 5e9, temp) == 0.0


def test_planck_optical_underflows():
    p = nominal_params()
    assert planck_occupation(p.omega_o, p.t_eom) == 0.0


def test_planck_validation():
    with pytest.raises(ValueError):
        planck_occupation(-1.0, 1.0)
    with pytest.raises(ValueError):
        planck_occupation(1.0, -1.0)


@pytest.mark.parametrize("omega, temp", [
    (math.nan, 1.0), (math.inf, 1.0), (1e9, math.nan), (1e9, math.inf),
])
def test_planck_rejects_non_finite(omega, temp):
    # NaN slipped past the plain comparisons; an infinite temperature
    # ended in ZeroDivisionError
    with pytest.raises(ValueError, match="must be finite"):
        planck_occupation(omega, temp)


@pytest.mark.parametrize("omega, temp", [
    (2 * math.pi * 10e9, 1e308),  # 1 / expm1(x) overflows
    (2 * math.pi * 10e9, 8.7e307),
    (5e-324, 1e300),  # x underflows to 0
])
def test_planck_overflow_is_named(omega, temp):
    # the occupation used to come back as inf and reach the sweep cells
    with pytest.raises(OverflowError, match="Planck occupation overflows float64"):
        planck_occupation(omega, temp)


def test_planck_largest_finite_occupation():
    assert planck_occupation(2 * math.pi * 10e9, 8.6e307) > 1e308


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_coefficients_unit_cooperativities():
    c = coefficients(Cooperativities(1.0, 1.0))
    assert c.a_w == pytest.approx(-3.0, abs=1e-14)  # 1 - 2*Gamma_w - 2*Gamma_o < 0
    assert c.a_o == pytest.approx(5.0, abs=1e-14)
    assert c.b == pytest.approx(4.0, abs=1e-14)
    assert c.c_w == pytest.approx(math.sqrt(8.0), abs=1e-14)
    assert c.c_o == pytest.approx(math.sqrt(8.0), abs=1e-14)
    assert c.a_w ** 2 - c.b ** 2 + c.c_w ** 2 == pytest.approx(1.0, abs=1e-12)
    assert c.a_o ** 2 - c.b ** 2 - c.c_o ** 2 == pytest.approx(1.0, abs=1e-12)


def test_coefficients_decoupled_optical():
    c = coefficients(Cooperativities(2.0, 0.0))
    assert c.b == 0.0
    assert c.c_o == 0.0
    assert c.a_o == 1.0


def test_coefficients_reference_point(ref_coefficients):
    # denominator 1 + 2*5181.95 - 2*668.43 = 9028.04
    assert ref_coefficients.b == pytest.approx(0.8246, abs=5e-5)
    assert ref_coefficients.a_w == pytest.approx(-1.2958, abs=2e-4)


def test_coefficients_instability():
    with pytest.raises(InstabilityError):
        coefficients(Cooperativities(1.0, 2.0))


def stable_grid_50x50():
    """50x50 grid covering the stable region: cooperativity ratio up to 90%
    of the adiabatic bound."""
    gws = np.geomspace(1e-2, 1e4, 50)
    fractions = np.geomspace(1e-4, 0.9, 50)
    return [(gw, f * (gw + 0.5)) for gw in gws for f in fractions]


def test_commutator_identities_on_stable_grid():
    worst = 0.0
    for gw, go in stable_grid_50x50():
        c = coefficients(Cooperativities(gw, go))
        r1 = c.a_w ** 2 - c.b ** 2 + c.c_w ** 2 - 1.0
        r2 = c.a_o ** 2 - c.b ** 2 - c.c_o ** 2 - 1.0
        worst = max(worst, abs(r1), abs(r2))
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# source moments
# ---------------------------------------------------------------------------

def test_moments_zero_occupation_decoupled():
    c = coefficients(Cooperativities(3.0, 0.0))
    m = source_moments(c, 0.0, 0.0, 0.0)
    assert m.n_w == 0.0
    assert m.n_o == 0.0
    assert m.cross == 0.0


def test_moments_zero_occupation_general():
    # cold converter: n_w = b^2, n_o = b^2 + c_o^2, and the output pair sits
    # exactly on the physical boundary (it purifies with the mechanical output)
    c = coefficients(Cooperativities(1.0, 1.0))
    m = source_moments(c, 0.0, 0.0, 0.0)
    assert m.n_w == pytest.approx(c.b ** 2, rel=1e-12)
    assert m.n_o == pytest.approx(c.b ** 2 + c.c_o ** 2, rel=1e-12)
    assert abs(source_state(m).nu_minus - 1.0) < 1e-9


def test_moments_negative_occupation_rejected():
    c = coefficients(Cooperativities(1.0, 1.0))
    with pytest.raises(ValueError):
        source_moments(c, -0.1, 0.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_moments_reject_non_finite(bad):
    # NaN and inf passed the plain `< 0` test
    for field in ("n_w", "n_o", "cross"):
        with pytest.raises(ValueError, match="moments must be finite"):
            mwqi.SourceMoments(**{"n_w": 0.5, "n_o": 0.5, "cross": 0.1, "s": 3.96, field: bad})
    with pytest.raises(ValueError, match="moments must be finite"):
        source_moments(coefficients(Cooperativities(1.0, 1.0)), bad, 0.0, 0.0)


def test_moments_s_overflows_alone():
    # s ~ 4 n_w n_o overflows where the moments do not; the state built from it names it
    m = source_moments(coefficients(Cooperativities(1e2, 1e1)), 1e160, 1e156, 1e163)
    assert m.s == math.inf and math.isfinite(m.n_w) and math.isfinite(m.n_o)
    with pytest.raises(OverflowError, match="symplectic spectrum overflows float64"):
        source_state(m)
    with pytest.raises(ValueError, match="moments must be finite"):
        mwqi.SourceMoments(n_w=0.5, n_o=0.5, cross=0.1, s=math.nan)
    # a mechanical occupation whose 2 n + 1 overflows, with c_o = 0: s is not 0 * inf
    m = source_moments(coefficients(Cooperativities(1e2, 0.0)), 0.0, 0.0, 1e308)
    assert m.s == pytest.approx((2 * m.n_w + 1) * (2 * m.n_o + 1), rel=1e-15)


def test_moments_past_float64_are_an_overflow():
    # finite occupations whose moments pass float64, as a drive of 1e12 at 1e300 K gives:
    # an OverflowError, which the CLI maps to exit 2, not SourceMoments' ValueError
    with pytest.raises(OverflowError, match="source moments overflow float64"):
        source_moments(coefficients(Cooperativities(1e12, 1e12)), 1e300, 1e300, 1e300)


def test_reference_moments(ref_moments):
    assert abs(ref_moments.n_w - 0.739) / 0.739 < 0.05
    assert abs(ref_moments.n_o - 0.681) / 0.681 < 0.05


def test_source_physicality_over_grid(params):
    temps = (0.0, 30e-3, 300e-3)
    worst = math.inf
    for t in temps:
        n_w_t = planck_occupation(params.omega_w, t)
        n_b_t = planck_occupation(params.omega_m, t)
        for gw in np.geomspace(1e-2, 1e4, 25):
            for go in np.geomspace(1e-2, 1e4, 25):
                if 1 + 2 * gw - 2 * go <= 0:
                    continue
                m = source_moments(coefficients(Cooperativities(gw, go)),
                                   n_w_t, 0.0, n_b_t)
                worst = min(worst, source_state(m).nu_minus)
    assert worst >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# entanglement metric
# ---------------------------------------------------------------------------

def test_metric_zero_cross():
    m = mwqi.SourceMoments(n_w=1.0, n_o=1.0, cross=0.0, s=9.0)
    assert entanglement_metric(m) == 0.0


@pytest.mark.parametrize("r", [0.3, 1.0, 2.5])
def test_metric_tmsv(r):
    m = mwqi.SourceMoments(n_w=math.sinh(r) ** 2, n_o=math.sinh(r) ** 2,
                           cross=math.cosh(r) * math.sinh(r), s=1.0)
    assert entanglement_metric(m) == pytest.approx(math.cosh(r) / math.sinh(r), rel=1e-12)
    assert entanglement_metric(m) > 1.0


def test_metric_reference(ref_moments):
    # 1.084 / sqrt(0.739 * 0.681) from the published operating point
    assert entanglement_metric(ref_moments) == pytest.approx(1.528, rel=0.05)


def test_metric_undefined():
    # a correlated source with an empty mode has no metric.  A drive of 5e-324 at 0 K
    # empties one exactly: gamma_w gamma_o underflows, so b = 0 and n_w = 0, while cross =
    # c_w c_o does not.  Each raises UndefinedMetricError, never a bare ZeroDivisionError
    cold = source_moments(coefficients(Cooperativities(5e-324, 5e-324)), 0.0, 0.0, 0.0)
    assert cold.n_w == 0.0 and cold.n_o > 0.0 and cold.cross > 0.0
    for m in (mwqi.SourceMoments(n_w=0.0, n_o=1.0, cross=0.5, s=2.0),
              mwqi.SourceMoments(n_w=1.0, n_o=0.0, cross=0.5, s=2.0),
              mwqi.SourceMoments(n_w=5e-324, n_o=0.0, cross=5e-324, s=1.0), cold):
        with pytest.raises(ZeroDivisionError) as err:
            entanglement_metric(m)
        assert err.type is UndefinedMetricError


def test_metric_zero_for_uncorrelated_source():
    # cross = 0 gives 0 even when a mode is empty, as entanglement_threshold does
    assert entanglement_metric(mwqi.SourceMoments(0.0, 1.0, 0.0, 3.0)) == 0.0
    assert entanglement_metric(mwqi.SourceMoments(0.0, 0.0, 0.0, 1.0)) == 0.0


def test_metric_monotone_in_cooperativities(params):
    # cold converter: the metric falls toward 1 as the down-conversion drive
    # grows at fixed microwave drive, and grows with the microwave drive
    def metric_at(gw, go):
        m = source_moments(coefficients(Cooperativities(gw, go)), 0.0, 0.0, 0.0)
        return entanglement_metric(m)

    go_scan = [metric_at(5.0, go) for go in np.linspace(0.5, 5.0, 12)]
    assert all(a > b for a, b in zip(go_scan, go_scan[1:]))
    gw_scan = [metric_at(gw, 1.0) for gw in np.geomspace(2.0, 1e3, 12)]
    assert all(a < b for a, b in zip(gw_scan, gw_scan[1:]))


def _exact_metric(m):
    """cross / sqrt(n_w n_o) of the moments' float values, to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(m.cross) / (Decimal(m.n_w) * Decimal(m.n_o)).sqrt()


def test_metric_over_all_of_float64():
    # 10,000 seeded moments with n_w and n_o from subnormal to 1e308 and E in 2^+-60, within
    # 4e-16 of a 60-digit quotient.  n_w n_o leaves float64's normal range on about a quarter
    # of them, where the plain cross / sqrt(n_w n_o) raises ZeroDivisionError or is wrong
    rng = random.Random(38)
    worst, count = Decimal(0), 0
    while count < 10_000:
        n_w, n_o = (math.ldexp(1.0 + rng.random(), rng.randint(-1074, 1023)) for _ in "wo")
        with localcontext() as ctx:
            ctx.prec = 60
            root = (Decimal(n_w) * Decimal(n_o)).sqrt()
            cross = float(Decimal(2.0 ** rng.uniform(-60, 60)) * root)
        if not 0.0 < cross < math.inf:  # cross itself passes float64
            continue
        m = mwqi.SourceMoments(n_w, n_o, cross, 1.0)
        exact = _exact_metric(m)
        worst = max(worst, abs(Decimal(entanglement_metric(m)) - exact) / exact)
        count += 1
    assert worst < Decimal("4e-16")


@pytest.mark.parametrize("t_eom, gamma_w, gamma_o", [
    (1e155, 5181.95, 668.43), (1e200, 5181.95, 668.43), (0.0, 1e-160, 1e-160)],
    ids=["hot-1e155", "hot-1e200", "cold-1e-160"])
def test_metric_where_the_photon_product_passes_float64(params, t_eom, gamma_w, gamma_o):
    # at the demo drive and a converter at 1e155 or 1e200 K, n_w n_o overflows (the plain
    # quotient reads 0.0 for 0.97967...); at a drive of 1e-160 and 0 K it underflows (the
    # plain quotient raises ZeroDivisionError)
    baths = mwqi.bath_occupations(dataclasses.replace(params, t_eom=t_eom))
    m = source_moments(coefficients(Cooperativities(gamma_w, gamma_o)),
                       baths.n_w, baths.n_o, baths.n_b)
    assert not 2.2e-308 < m.n_w * m.n_o < math.inf
    e = entanglement_metric(m)
    assert abs(Decimal(e) - _exact_metric(m)) < Decimal("4e-16") * _exact_metric(m)
    if t_eom:
        assert e == pytest.approx(0.97967022230648, rel=1e-13)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def test_stability_decoupled(params):
    rep = is_stable(Cooperativities(0.0, 0.0), params)
    assert rep.stable
    expected = min(params.gamma_m / 2, params.kappa_w, params.kappa_o)
    assert rep.margin == pytest.approx(expected, rel=1e-13)


def test_stability_reference(params, ref_coop):
    rep = is_stable(ref_coop, params)
    assert rep.stable
    assert rep.adiabatic_stable
    assert rep.margin == 5658729.92311345  # as when the report was a dataclass


def test_stability_report_is_a_named_tuple(params, ref_coop):
    rep = is_stable(ref_coop, params)
    assert mwqi.StabilityReport._fields == ("stable", "margin", "adiabatic_stable")
    stable, margin, adiabatic = rep
    assert rep == (stable, margin, adiabatic) == (True, rep.margin, True)
    with pytest.raises(AttributeError):
        rep.margin = 0.0


def test_stability_adiabatic_violation(params):
    rep = is_stable(Cooperativities(10.0, 11.0), params)
    assert not rep.stable
    assert not rep.adiabatic_stable


def drift_matrix(coop, params, num=float, sqrt=math.sqrt):
    """Drift matrix of the linearized quadrature dynamics, the oracle of is_stable.

    Ordering (x_b, p_b, x_w, p_w, x_o, p_o) for the mechanical, microwave,
    and optical fluctuation modes, with damping rates gamma_m/2, kappa_w,
    kappa_o and multi-photon couplings G_j = sqrt(Gamma_j*kappa_j*gamma_m).
    ``num`` and ``sqrt`` set the arithmetic: float64, or Decimal and Decimal.sqrt
    at the context's precision, in an array of objects.
    """
    gm, kw, ko = (num(v) for v in (params.gamma_m, params.kappa_w, params.kappa_o))
    g_w = sqrt(num(coop.gamma_w) * kw * gm)
    g_o = sqrt(num(coop.gamma_o) * ko * gm)
    g2, z = gm / 2, num(0)
    return np.array([
        [-g2, z, z, g_w, z, -g_o],
        [z, -g2, -g_w, z, -g_o, z],
        [z, g_w, -kw, z, z, z],
        [-g_w, z, z, -kw, z, z],
        [z, -g_o, z, z, -ko, z],
        [-g_o, z, z, z, z, -ko],
    ])


def test_drift_matrix_shape(params):
    m = drift_matrix(Cooperativities(3.0, 1.0), params)
    assert m.shape == (6, 6)
    # damped diagonal
    assert np.all(np.diag(m) < 0)


def _solve(m, rhs):
    """x with m x = rhs, by Gauss-Jordan elimination with partial pivoting on lists."""
    n = len(m)
    rows = [list(a) + list(b) for a, b in zip(m, rhs)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [v / head for v in rows[col]]
        for r in range(n):
            if r != col:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _langevin_outputs(coop, params, n_w, n_o, n_b):
    """(T, V) of the Langevin equations at omega = 0, in Decimal at the context's precision.

    The steady state of dc/dt = A c + B d_in is c = (-A)^-1 B d_in, and the outputs are
    d_out = sqrt(2K) c - d_in.  So T = sqrt(2K) (-A)^-1 B - [0 | I] maps the inputs
    (x_b, p_b, x_w, p_w, x_o, p_o) to the outputs (x_w, p_w, x_o, p_o), with B =
    diag(sqrt(gamma_m), sqrt(gamma_m), sqrt(2 kappa_w), sqrt(2 kappa_w), sqrt(2 kappa_o),
    sqrt(2 kappa_o)) and K its cavity block.  V = T diag(2n + 1) T^T is the outputs'
    covariance matrix over thermal inputs.
    """
    drift = drift_matrix(coop, params, Decimal, Decimal.sqrt)
    beta = [Decimal(rate).sqrt() for rate in (params.gamma_m, 2 * params.kappa_w, 2 * params.kappa_o)
            for _ in "xp"]
    x = _solve((-drift).tolist(), np.diag(beta).tolist())
    t = [[beta[i] * x[i][j] - (i == j) for j in range(6)] for i in range(2, 6)]
    dv = [2 * Decimal(n) + 1 for n in (n_b, n_b, n_w, n_w, n_o, n_o)]
    return t, [[sum(ti[k] * dv[k] * tj[k] for k in range(6)) for tj in t] for ti in t]


def _log_uniform(rng, lo, hi):
    """Log-uniform in [2**lo, 2**hi), made without libm, so alike on every platform."""
    return math.ldexp(rng.uniform(1.0, 2.0), rng.randint(lo, hi - 1))


def _langevin_points(rng, count, params):
    """count stable (cooperativities, (n_w^T, n_o^T, n_b^T)): a quarter near the edge
    d = 0, a quarter where a_w changes sign, the rest over about [1e-3, 1.6e4]^2;
    occupations 0 or up to 1.3e5, a bath at up to ~6e4 K at 10 GHz."""
    out = []
    while len(out) < count:
        kind = rng.randrange(4)
        if kind == 0:  # d = 1 + 2 gw - 2 go from ~0.1 down to an ulp
            gw = _log_uniform(rng, -10, 4)
            go = (gw + 0.5) * (1.0 - _log_uniform(rng, -53, -3))
        elif kind == 1:  # 2 gw + 2 go near 1
            gw = rng.uniform(0.0, 0.5)
            go = (0.5 - gw) * (1.0 + rng.uniform(-1e-6, 1e-6))
        else:
            gw, go = _log_uniform(rng, -10, 14), _log_uniform(rng, -10, 14)
        coop = Cooperativities(gw, go)
        if is_stable(coop, params).stable:
            out.append((coop, tuple(0.0 if rng.random() < 0.2 else _log_uniform(rng, -10, 17)
                                    for _ in range(3))))
    return out


def test_closed_forms_match_the_langevin_equations(params):
    """coefficients and source_moments against T and V of :func:`_langevin_outputs` at
    60 digits, whose entries a 120-digit run matches to 1e-43.  The bounds are the closed
    forms' float64 rounding, measured: n_w and cross lose digits to 1 - 2 gw - 2 go near
    the edge d = 0."""
    worst = dict.fromkeys(("coefficients", "n_w", "n_o", "cross", "s"), Decimal(0))
    edge = 0
    with localcontext() as ctx:
        ctx.prec = 60
        for coop, occupations in _langevin_points(random.Random(24), 600, params):
            t, v = _langevin_outputs(coop, params, *occupations)
            c = coefficients(coop)
            exact = (t[0][2], t[2][4], abs(t[0][4]),  # a_w signed, a_o, b
                     (t[0][0] ** 2 + t[0][1] ** 2).sqrt(), (t[2][0] ** 2 + t[2][1] ** 2).sqrt())
            assert (c.a_w < 0) == (exact[0] < 0), coop
            # relative to a_o, the largest coefficient, as a_w may cross 0
            worst["coefficients"] = max(worst["coefficients"], *(
                abs(Decimal(value) - e) / exact[1] for value, e in zip(dataclasses.astuple(c), exact)))
            m = source_moments(c, *occupations)
            for name, e in (("n_w", (v[0][0] - 1) / 2), ("n_o", (v[2][2] - 1) / 2),
                            ("cross", abs(v[0][2]) / 2), ("s", v[0][0] * v[2][2] - v[0][2] ** 2)):
                error = abs(Decimal(getattr(m, name)) - e)
                worst[name] = max(worst[name], error / e if e else error)
            edge += 1 + 2 * Decimal(coop.gamma_w) - 2 * Decimal(coop.gamma_o) < Decimal("1e-12")
    assert edge >= 20
    bounds = {"coefficients": 4e-16, "n_w": 2e-14, "n_o": 1e-15, "cross": 1e-14, "s": 1e-15}
    assert all(worst[name] < bound for name, bound in bounds.items()), worst


def test_stability_agrees_with_adiabatic_criterion(params):
    near_boundary = []
    for gw in np.geomspace(1e-2, 1e4, 20):
        for go in np.geomspace(1e-2, 1e4, 20):
            rep = is_stable(Cooperativities(gw, go), params)
            boundary = gw + 0.5
            if abs(go - boundary) / boundary <= 0.05:
                if rep.stable != rep.adiabatic_stable:
                    near_boundary.append((gw, go))
                continue
            assert rep.stable == rep.adiabatic_stable, (gw, go)
    # disagreements may only occur inside the 5% boundary band; log them
    if near_boundary:
        print(f"near-boundary stability disagreements: {near_boundary}")


def _cubic(coop, params):
    """Float coefficients (p2, p1, p0) of the characteristic cubic."""
    half_gm, kw, ko = params.gamma_m / 2, params.kappa_w, params.kappa_o
    gw2 = coop.gamma_w * kw * params.gamma_m
    go2 = coop.gamma_o * ko * params.gamma_m
    return (half_gm + kw + ko,
            half_gm * (kw + ko) + kw * ko + gw2 - go2,
            half_gm * kw * ko + gw2 * ko - go2 * kw)


def _routh_hurwitz(coop, params):
    p2, p1, p0 = _cubic(coop, params)
    return p0 > 0 and p1 > 0 and p2 * p1 > p0


def _exact_margin(coop, params):
    """Minus the largest real root part of the cubic, to 50 digits.

    The coefficients are formed exactly from the float inputs.  The real root
    is found by bisection on a bracket that holds no other real root; when
    the discriminant is negative the other two roots are a complex pair whose
    real part is (-p2 - r)/2, as the roots sum to -p2.
    """
    with localcontext() as ctx:
        ctx.prec = 200  # holds a product of three doubles exactly
        gm, kw, ko = (Decimal(v) for v in (params.gamma_m, params.kappa_w, params.kappa_o))
        gw2 = Decimal(coop.gamma_w) * kw * gm
        go2 = Decimal(coop.gamma_o) * ko * gm
        p2 = gm / 2 + kw + ko
        p1 = gm / 2 * (kw + ko) + kw * ko + gw2 - go2
        p0 = gm / 2 * kw * ko + gw2 * ko - go2 * kw
        disc = (18 * p2 * p1 * p0 - 4 * p2 ** 3 * p0 + p2 ** 2 * p1 ** 2
                - 4 * p1 ** 3 - 27 * p0 ** 2)
        ctx.prec = 60

        def f(x):
            return ((x + p2) * x + p1) * x + p0

        # Fujiwara's bound: every root has |l| < bound
        bound = 2 * max(abs(p2), abs(p1).sqrt(), (abs(p0) / 2) ** (Decimal(1) / 3))
        lo, hi = -bound, bound
        crit = p2 * p2 - 3 * p1
        if crit > 0:  # a local maximum at `left`, a local minimum at `right`
            left, right = ((-p2 + sign * crit.sqrt()) / 3 for sign in (-1, 1))
            if f(right) <= 0:
                lo = right  # the largest root is right of the minimum
            else:
                hi = left  # the only real root is left of the maximum
        # f(lo) <= 0 < f(hi), and f increases on [lo, hi]
        for _ in range(2000):
            if hi - lo <= abs(hi + lo) * Decimal("1e-52"):
                break
            mid = (lo + hi) / 2
            if f(mid) <= 0:
                lo = mid
            else:
                hi = mid
        r = (lo + hi) / 2
        return -(r if disc >= 0 else max(r, (-p2 - r) / 2))


def test_stability_margin_matches_exact_oracle():
    # every point of the source_surfaces demo grid, stable or not
    config = mwqi.parse_config(SOURCE_SURFACES.read_text(encoding="utf-8"))
    gamma_w, gamma_o = (axis.values() for axis in config.axes)
    checked = 0
    for gw in gamma_w:
        for go in gamma_o:
            coop = Cooperativities(float(gw), float(go))
            exact = _exact_margin(coop, config.params)
            rep = is_stable(coop, config.params)
            assert abs(Decimal(rep.margin) - exact) <= Decimal("2e-13") * abs(exact), (gw, go)
            # built with tuple.__new__: still the named tuple, field for field
            assert type(rep) is mwqi.StabilityReport and rep == mwqi.StabilityReport(*rep)
            assert tuple(rep._asdict()) == mwqi.StabilityReport._fields
            checked += 1
    assert checked == 625


def test_stability_matches_eigenvalue_and_routh_hurwitz_oracles(params):
    eps = np.finfo(float).eps
    p2 = _cubic(Cooperativities(0.0, 0.0), params)[0]
    checked = 0
    for gw in np.geomspace(1e-2, 1e5, 60):
        for go in np.geomspace(1e-2, 1e5, 60):
            coop = Cooperativities(float(gw), float(go))
            rep = is_stable(coop, params)
            if abs(rep.margin) <= 1e-9 * p2:
                continue
            drift = drift_matrix(coop, params)
            eig = -float(np.max(np.linalg.eigvals(drift).real))
            assert rep.stable == (eig > 0) == _routh_hurwitz(coop, params), (gw, go)
            # eigvals resolves an eigenvalue to about eps*|A| in absolute
            # terms: at Gamma_w = Gamma_o = 1e5 (|A| = 1.3e8 rad/s) it is
            # 1.1e-10 off a 59 rad/s margin, which the cubic gets within
            # 1e-16 of the exact value
            assert rep.margin == pytest.approx(
                eig, rel=1e-10, abs=eps * np.linalg.norm(drift)), (gw, go)
            checked += 1
    assert checked > 3500


def test_stability_triple_root(params):
    # kappa_w = kappa_o = gamma_m/2 at zero drive: (l + gamma_m/2)^3.  Many
    # gamma_m, since the rounding of p2/3 decides which branch runs.
    for q_factor in (params.q_factor, *np.geomspace(1e3, 1e6, 400)):
        half_gm = params.omega_m / q_factor / 2
        triple = dataclasses.replace(params, q_factor=q_factor, kappa_w=half_gm, kappa_o=half_gm)
        rep = is_stable(Cooperativities(0.0, 0.0), triple)
        assert rep.stable
        assert rep.margin == pytest.approx(triple.gamma_m / 2, rel=1e-13), q_factor


def test_stability_double_root(params):
    # kappa_o = kappa_w at zero drive: a double root at -kappa, below -gamma_m/2
    double = dataclasses.replace(params, kappa_o=params.kappa_w)
    rep = is_stable(Cooperativities(0.0, 0.0), double)
    assert rep.margin == pytest.approx(params.gamma_m / 2, rel=1e-13)
    eigs = np.linalg.eigvals(drift_matrix(Cooperativities(0.0, 0.0), double))
    assert rep.margin == pytest.approx(-max(eigs.real), rel=1e-13)


@pytest.mark.parametrize("gamma_w", [0.0, 0.3, 10.0, 1e3, 1e5])
def test_stability_real_root_crossing(params, gamma_w):
    # p0 = gamma_m kappa_w kappa_o (1/2 + Gamma_w - Gamma_o) -> 0: a real
    # root crosses zero at the adiabatic edge
    edge = gamma_w + 0.5
    p2 = _cubic(Cooperativities(0.0, 0.0), params)[0]
    assert abs(is_stable(Cooperativities(gamma_w, edge), params).margin) <= 1e-12 * p2
    for step in (1e-3, 1e-6, 1e-9, 1e-12):
        for gamma_o, stable in ((edge * (1 - step), True), (edge * (1 + step), False)):
            coop = Cooperativities(gamma_w, gamma_o)
            rep = is_stable(coop, params)
            assert rep.stable == stable == _routh_hurwitz(coop, params), (gamma_o, rep)
            # the margin shrinks with the step, and keeps its relative digits
            exact = _exact_margin(coop, params)
            assert abs(Decimal(rep.margin) - exact) <= Decimal("1e-13") * abs(exact), gamma_o


def test_stability_complex_pair_crossing(params):
    # with kappa_o > kappa_w, p2 p1 - p0 = (a + kw)(a + ko)(kw + ko)
    # + (a + kw) G_w^2 - (a + ko) G_o^2 (a = gamma_m/2) reaches zero while
    # p0 > 0: a complex pair crosses the imaginary axis
    swapped = dataclasses.replace(params, kappa_w=params.kappa_o, kappa_o=params.kappa_w)
    a, kw, ko, gm = swapped.gamma_m / 2, swapped.kappa_w, swapped.kappa_o, swapped.gamma_m
    gamma_w = 1e5
    hopf = ((a + kw) * (a + ko) * (kw + ko) + (a + kw) * gamma_w * kw * gm) / ((a + ko) * ko * gm)
    assert hopf < gamma_w + 0.5
    for gamma_o, stable in ((hopf * (1 - 1e-6), True), (hopf * (1 + 1e-6), False)):
        coop = Cooperativities(gamma_w, gamma_o)
        p2, p1, p0 = _cubic(coop, swapped)
        assert p0 > 0 and p1 > 0
        eigs = np.linalg.eigvals(drift_matrix(coop, swapped))
        assert abs(eigs[np.argmax(eigs.real)].imag) > 1e6  # the pair sets the margin
        rep = is_stable(coop, swapped)
        assert rep.stable == stable == _routh_hurwitz(coop, swapped)
        exact = _exact_margin(coop, swapped)
        assert abs(Decimal(rep.margin) - exact) <= Decimal("1e-9") * abs(exact)


@pytest.mark.parametrize("gamma_w,gamma_o", [(1e15, 1e15), (1e80, 0.0), (1e90, 5e89)])
def test_stability_extreme_cooperativities(params, gamma_w, gamma_o):
    # far outside the physical range, where eigvals resolves no digit of
    # the margin (6.3e-9 rad/s at Gamma_w = Gamma_o = 1e15)
    coop = Cooperativities(gamma_w, gamma_o)
    exact = _exact_margin(coop, params)
    assert abs(Decimal(is_stable(coop, params).margin) - exact) <= Decimal("1e-13") * abs(exact)


@pytest.mark.parametrize("gamma_w,gamma_o", [(0.0, 1e120), (1e300, 0.0)])
def test_stability_overflow_raises(params, gamma_w, gamma_o):
    with pytest.raises(OverflowError):
        is_stable(Cooperativities(gamma_w, gamma_o), params)


# ---------------------------------------------------------------------------
# parameter plumbing
# ---------------------------------------------------------------------------

def test_bath_occupations(params, baths):
    assert baths.n_o == 0.0
    assert baths.n_b == pytest.approx(62.0, abs=0.5)
    assert 0 < baths.n_w < 1e-6


def test_params_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(nominal_params(), t_eom=-1.0)
    with pytest.raises(ValueError):
        Cooperativities(-1.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cooperativities_reject_non_finite(bad):
    with pytest.raises(ValueError):
        Cooperativities(bad, 1.0)
    with pytest.raises(ValueError):
        Cooperativities(1.0, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_params_reject_non_finite(bad):
    for name in ("omega_m", "q_factor", "kappa_w", "kappa_o",
                 "omega_w", "lambda_o", "t_eom"):
        with pytest.raises(ValueError):
            dataclasses.replace(nominal_params(), **{name: bad})
