import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import mwqi
from mwqi import (
    SourceMoments,
    TwoModeGaussianState,
    UndefinedMetricError,
    coherent_information,
    correlation_report,
    entropy,
    gaussian_discord,
    log_negativity,
    source_moments,
    source_state,
    standard_form,
    two_mode_squeezed_vacuum,
)


def _swapped(state):
    """The state with its two modes exchanged: gaussian_discord of it measures mode 0."""
    return TwoModeGaussianState(state.b, state.a, state.c_x, state.c_p)


# ---------------------------------------------------------------------------
# logarithmic negativity
# ---------------------------------------------------------------------------

def test_log_negativity_vacuum():
    assert log_negativity(standard_form(0, 0, 0)) == 0.0


def test_log_negativity_tmsv():
    # ppt eigenvalue exp(-2r), so E_N = 2r / ln 2
    assert log_negativity(two_mode_squeezed_vacuum(1.0)) == pytest.approx(
        2.0 / math.log(2.0), abs=1e-9)


@pytest.mark.parametrize("n1,n2", [(0.5, 0.5), (3.0, 1.0), (20.0, 0.1)])
def test_log_negativity_separable(n1, n2):
    assert log_negativity(standard_form(n1, n2, 0.0)) == 0.0


# ---------------------------------------------------------------------------
# coherent information
# ---------------------------------------------------------------------------

def test_coherent_information_tmsv():
    # pure global state: joint entropy 0, so I equals the reduced-mode entropy
    r = 1.0
    expected = entropy(math.cosh(2 * r))
    assert coherent_information(two_mode_squeezed_vacuum(r)) == pytest.approx(
        expected, abs=1e-10)


def test_coherent_information_product_thermal():
    assert coherent_information(standard_form(1.0, 1.0, 0.0)) == pytest.approx(-2.0, abs=1e-12)


def test_coherent_information_vacuum():
    assert coherent_information(standard_form(0, 0, 0)) == 0.0


# ---------------------------------------------------------------------------
# Gaussian discord
# ---------------------------------------------------------------------------

# bounds on the log measurement squeezing of the oracle; unbounded, the search
# drifts to squeezings where the conditional covariance loses all precision
_ORACLE_LOG_S = (-14.0, 14.0)


def _oracle_conditional_entropy(kept, coupling, measured, log_s, theta):
    """Entropy of the kept mode after a Gaussian measurement on the other.

    The measurement is parameterized by the seed covariance
    R(theta) diag(s, 1/s) R(theta)^T; s -> 1 is heterodyne, s -> 0 or inf
    approaches homodyne at angle theta.  The post-measurement covariance of
    the kept mode, kept - C (measured + seed)^-1 C^T, is outcome independent.
    """
    s = math.exp(log_s)
    cth, sth = math.cos(theta), math.sin(theta)
    rot = np.array([[cth, sth], [-sth, cth]])
    seed = rot @ np.diag([s, 1.0 / s]) @ rot.T
    m = measured + seed
    det_m = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    inv_m = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det_m
    post = kept - coupling @ inv_m @ coupling.T
    det_post = post[0, 0] * post[1, 1] - post[0, 1] * post[1, 0]
    return entropy(math.sqrt(max(det_post, 1.0)))


def _oracle_discord(state, measured_mode=1, extra_starts=0, seed=0):
    """Discord by explicit measurement optimization: (value, optimal log s).

    A coarse scan over the log squeezing and angle of the measurement seed,
    plus ``extra_starts`` seeded random starts, is polished with bounded
    Nelder-Mead from the three best starts.  An optimum on a log-s bound is a
    homodyne-type measurement, an interior one heterodyne-type.
    """
    data = mwqi.symplectic_spectrum(state)
    cm = np.asarray(state.cm, dtype=float)
    if measured_mode == 1:
        kept, measured, coupling = cm[:2, :2], cm[2:, 2:], cm[:2, 2:]
    else:
        kept, measured, coupling = cm[2:, 2:], cm[:2, :2], cm[2:, :2]
    det_meas = measured[0, 0] * measured[1, 1] - measured[0, 1] * measured[1, 0]
    base = (entropy(math.sqrt(max(det_meas, 1.0)))
            - entropy(data.nu_plus) - entropy(data.nu_minus))

    fun = lambda x: _oracle_conditional_entropy(kept, coupling, measured, x[0], x[1])

    starts = [(ls, th)
              for ls in np.linspace(*_ORACLE_LOG_S, 9)
              for th in np.linspace(0.0, math.pi, 4, endpoint=False)]
    rng = np.random.default_rng(seed)
    starts += [(rng.uniform(*_ORACLE_LOG_S), rng.uniform(0.0, math.pi))
               for _ in range(extra_starts)]
    best = min((minimize(fun, x0, method="Nelder-Mead", bounds=[_ORACLE_LOG_S, (None, None)],
                         options=dict(xatol=1e-10, fatol=1e-14, maxiter=4000))
                for x0 in sorted(starts, key=fun)[:3]),
               key=lambda res: res.fun)
    return base + float(best.fun), float(best.x[0])


def _is_homodyne(log_s):
    return abs(log_s) > _ORACLE_LOG_S[1] - 1.0


@pytest.mark.parametrize("n1,n2", [(0.4, 1.3), (2.0, 2.0), (0.4, 0.0)])
def test_discord_product_state(n1, n2):
    assert abs(gaussian_discord(standard_form(n1, n2, 0.0))) < 1e-6


@pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 2.0])
def test_discord_pure_state_identity(r):
    # for pure states discord equals the entanglement entropy
    state = two_mode_squeezed_vacuum(r)
    expected = entropy(math.cosh(2 * r))
    assert gaussian_discord(state) == pytest.approx(expected, abs=1e-10)
    # and matches the coherent information on the same state
    assert gaussian_discord(state) == pytest.approx(
        coherent_information(state), abs=1e-10)


def test_discord_reference_state(ref_moments):
    state = source_state(ref_moments)
    assert gaussian_discord(state) > 0.0
    assert log_negativity(state) > 0.0


def test_discord_restart_robustness(ref_moments):
    # the oracle's minimum must not depend on where the search starts
    state = source_state(ref_moments)
    values = [_oracle_discord(state, extra_starts=10, seed=s)[0] for s in range(10)]
    assert max(values) - min(values) < 1e-7


def test_discord_both_directions():
    state = two_mode_squeezed_vacuum(0.8)
    # symmetric state: both conditioning directions coincide
    assert gaussian_discord(_swapped(state)) == pytest.approx(
        gaussian_discord(state), abs=1e-7)
    assert gaussian_discord(_swapped(state)) == pytest.approx(
        _oracle_discord(state, measured_mode=0)[0], abs=1e-6)


def test_discord_nonnegative_on_random_states():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n1, n2 = rng.uniform(0.05, 3.0, 2)
        cross = rng.uniform(0.0, 1.0) * math.sqrt(n1 * (n2 + 1))
        assert gaussian_discord(standard_form(n1, n2, cross)) >= 0.0


@pytest.mark.parametrize("measured_mode", [0, 1])
@pytest.mark.parametrize("blocks,homodyne", [
    # (a, b, c_x, c_p) with |c_x| != |c_p|.  Unbounded Nelder-Mead drifted into
    # extreme measurement squeezing on both and returned -0.5274 and 0.109064
    # bits for measured_mode=1, where the discord is 0.018516 and 0.080998.
    pytest.param((1.4, 4.7, 1.2, 0.2), True, id="homodyne"),
    pytest.param((4.6, 16.1, 5.0, -7.2), False, id="heterodyne"),
])
def test_discord_asymmetric_states_match_oracle(blocks, homodyne, measured_mode):
    state = TwoModeGaussianState(*blocks)
    expected, log_s = _oracle_discord(state, measured_mode=measured_mode)
    assert _is_homodyne(log_s) == homodyne
    value = gaussian_discord(state if measured_mode == 1 else _swapped(state))
    assert value >= 0.0
    assert value == pytest.approx(expected, abs=1e-6)


def test_discord_random_asymmetric_states_match_oracle():
    rng = np.random.default_rng(3)
    branches = []
    while len(branches) < 6:
        n1, n2 = rng.uniform(0.05, 3.0, 2)
        c_x, c_p = rng.uniform(-2.0, 2.0, 2) * math.sqrt(n1 * (n2 + 1))
        try:
            state = TwoModeGaussianState(2 * n1 + 1, 2 * n2 + 1, c_x, c_p)
        except mwqi.PhysicalityError:
            continue
        expected, log_s = _oracle_discord(state)
        assert gaussian_discord(state) == pytest.approx(expected, abs=1e-6)
        branches.append(_is_homodyne(log_s))
    assert any(branches) and not all(branches)


def test_discord_demo_grid_matches_oracle(params, baths):
    # every sixth value of each axis of demos/configs/source_surfaces.cfg
    checked = 0
    for gw in np.geomspace(1e2, 1e4, 5):
        for go in np.geomspace(1e1, 1e3, 5):
            coop = mwqi.Cooperativities(gw, go)
            if not mwqi.is_stable(coop, params).stable:
                continue
            state = source_state(source_moments(mwqi.coefficients(coop),
                                                baths.n_w, baths.n_o, baths.n_b))
            expected, log_s = _oracle_discord(state)
            assert not _is_homodyne(log_s)
            assert gaussian_discord(state) == pytest.approx(expected, abs=1e-6)
            checked += 1
    assert checked >= 20


def test_import_loads_no_scipy():
    code = (
        "import sys, mwqi\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
        "import scipy.optimize\n"
        "assert mwqi.correlations.minimize is scipy.optimize.minimize\n"
    )
    # the child imports the same mwqi as this process, installed or from src/
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(mwqi.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


# ---------------------------------------------------------------------------
# metric / negativity equivalence
# ---------------------------------------------------------------------------

def _grid_states(temp, count, params):
    n_w_t = mwqi.planck_occupation(params.omega_w, temp)
    n_b_t = mwqi.planck_occupation(params.omega_m, temp)
    out = []
    for gw in np.geomspace(0.05, 5e3, count):
        for go in np.geomspace(0.05, 5e3, count):
            if 1 + 2 * gw - 2 * go <= 0:
                continue
            out.append(source_moments(
                mwqi.coefficients(mwqi.Cooperativities(gw, go)), n_w_t, 0.0, n_b_t))
    return out


def test_metric_negativity_equivalence(params):
    moments = _grid_states(30e-3, 10, params) + _grid_states(1.0, 10, params)
    checked = entangled = separable = 0
    for m in moments:
        e = mwqi.entanglement_metric(m)
        if abs(e - 1.0) <= 1e-4:
            continue
        checked += 1
        en = log_negativity(source_state(m))
        if e > 1.0:
            entangled += 1
            assert en > 0.0, m
        else:
            separable += 1
            assert en == 0.0, m
    assert checked >= 50
    assert entangled > 0 and separable > 0


# ---------------------------------------------------------------------------
# exact oracle for the correlation columns
# ---------------------------------------------------------------------------

SOURCE_SURFACES = Path(__file__).resolve().parents[1] / "demos" / "configs" / "source_surfaces.cfg"


def _exact_per_photon(m):
    """(log_neg, coh_info, discord) per photon at 50 digits, textbook forms.

    The float64 moments are taken as exact.  At 50 digits the direct roots
    and the unfactored discord terms keep more than 20 significant digits,
    so no cancellation-free rewriting is needed here.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        ln2 = Decimal(2).ln()

        def sqrt(x):
            return max(x, Decimal(0)).sqrt()

        def g(nu):
            if nu <= 1:
                return Decimal(0)
            xp, xm = (nu + 1) / 2, (nu - 1) / 2
            return (xp * xp.ln() - xm * xm.ln()) / ln2

        n_1 = Decimal(m.n_w)
        a, b, c = 2 * n_1 + 1, 2 * Decimal(m.n_o) + 1, 2 * Decimal(m.cross)
        det_v = (a * b - c * c) ** 2

        def roots(delta):
            s = sqrt(delta * delta - 4 * det_v)
            return sqrt((delta + s) / 2), sqrt((delta - s) / 2)

        nu_plus, nu_minus = roots(a * a + b * b - 2 * c * c)
        _, nu_ppt = roots(a * a + b * b + 2 * c * c)
        log_neg = max(Decimal(0), -nu_ppt.ln() / ln2)
        coh_info = g(a) - g(nu_plus) - g(nu_minus)
        big_a, big_b, big_c, big_d = a * a, b * b, -c * c, det_v
        if (big_d - big_a * big_b) ** 2 <= (1 + big_b) * big_c ** 2 * (big_a + big_d):
            nu_min = ((abs(big_c) + sqrt(big_c ** 2 + (big_b - 1) * (big_d - big_a)))
                      / (big_b - 1))
        else:
            s = big_a * big_b + big_d - big_c ** 2
            nu_min = sqrt((s - sqrt(s * s - 4 * big_a * big_b * big_d)) / (2 * big_b))
        discord = g(b) - g(nu_plus) - g(nu_minus) + g(nu_min)
        return tuple(float(value / n_1) for value in (log_neg, coh_info, discord))


def test_correlation_columns_match_exact_oracle():
    # every stable point of the source_surfaces demo grid
    config = mwqi.parse_config(SOURCE_SURFACES.read_text(encoding="utf-8"))
    baths = mwqi.bath_occupations(config.params)
    gamma_w, gamma_o = (axis.values() for axis in config.axes)
    checked = 0
    for gw in gamma_w:
        for go in gamma_o:
            coop = mwqi.Cooperativities(float(gw), float(go))
            if not mwqi.is_stable(coop, config.params).stable:
                continue
            m = source_moments(mwqi.coefficients(coop), baths.n_w, baths.n_o, baths.n_b)
            rep = correlation_report(m)
            got = (rep.log_neg_per_photon, rep.coh_info_per_photon, rep.discord_per_photon)
            for value, exact in zip(got, _exact_per_photon(m)):
                assert value == pytest.approx(exact, abs=1e-12), m
            checked += 1
    assert checked == 547


# ---------------------------------------------------------------------------
# correlation report
# ---------------------------------------------------------------------------

def test_report_tmsv():
    r = 1.0
    m = SourceMoments(n_w=math.sinh(r) ** 2, n_o=math.sinh(r) ** 2,
                      cross=math.cosh(r) * math.sinh(r))
    rep = correlation_report(m)
    expected = (2.0 / math.log(2.0)) / math.sinh(r) ** 2
    assert rep.log_neg_per_photon == pytest.approx(expected, rel=1e-9)
    assert rep.e_metric == pytest.approx(math.cosh(r) / math.sinh(r), rel=1e-12)


def test_report_uncorrelated():
    rep = correlation_report(SourceMoments(n_w=0.5, n_o=0.7, cross=0.0))
    assert rep.e_metric == 0.0
    assert rep.log_neg == 0.0
    assert abs(rep.discord) < 1e-6


def test_report_reference_consistency(ref_moments):
    rep = correlation_report(ref_moments)
    assert rep.e_metric > 1.0
    assert rep.log_neg > 0.0
    assert rep.discord >= 0.0
    assert rep.log_neg_per_photon == pytest.approx(rep.log_neg / ref_moments.n_w, rel=1e-12)


def test_report_zero_photon_error():
    with pytest.raises(UndefinedMetricError):
        correlation_report(SourceMoments(n_w=0.0, n_o=0.5, cross=0.0))
