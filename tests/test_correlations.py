import dataclasses
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
    two_mode_squeezed_vacuum,
)


def _moments_state(n1, n2, cross):
    """The state with mean photon numbers n1, n2 and cross correlation <a1 a2> = cross."""
    a, b, c = 2.0 * n1 + 1.0, 2.0 * n2 + 1.0, 2.0 * cross
    return TwoModeGaussianState(a, b, c, a * b - c * c)


def _swapped(state):
    """The state with its two modes exchanged: gaussian_discord of it measures mode 0."""
    return TwoModeGaussianState(state.b, state.a, state.c, state.s)


def _squeezed_thermal(nu_1, nu_2, r):
    """Two-mode squeezing r applied to thermal modes of symplectic eigenvalues nu_1, nu_2.

    Every state [[a I, c Z], [c Z, b I]] is one of these, with s = nu_1 nu_2.
    """
    ch, sh = math.cosh(r) ** 2, math.sinh(r) ** 2
    return TwoModeGaussianState(nu_1 * ch + nu_2 * sh, nu_1 * sh + nu_2 * ch,
                                (nu_1 + nu_2) * math.sinh(r) * math.cosh(r), nu_1 * nu_2)


# ---------------------------------------------------------------------------
# logarithmic negativity
# ---------------------------------------------------------------------------

def test_log_negativity_vacuum():
    assert log_negativity(_moments_state(0, 0, 0)) == 0.0


def test_log_negativity_tmsv():
    # ppt eigenvalue exp(-2r), so E_N = 2r / ln 2
    assert log_negativity(two_mode_squeezed_vacuum(1.0)) == pytest.approx(
        2.0 / math.log(2.0), abs=1e-9)


@pytest.mark.parametrize("n1,n2", [(0.5, 0.5), (3.0, 1.0), (20.0, 0.1)])
def test_log_negativity_separable(n1, n2):
    assert log_negativity(_moments_state(n1, n2, 0.0)) == 0.0


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
    assert coherent_information(_moments_state(1.0, 1.0, 0.0)) == pytest.approx(-2.0, abs=1e-12)


def test_coherent_information_vacuum():
    assert coherent_information(_moments_state(0, 0, 0)) == 0.0


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


def _oracle_discord(state, cm, measured_mode=1, extra_starts=0, seed=0):
    """Discord by explicit measurement optimization: (value, optimal log s).

    A coarse scan over the log squeezing and angle of the measurement seed,
    plus ``extra_starts`` seeded random starts, is polished with bounded
    Nelder-Mead from the three best starts.  An optimum on a log-s bound is a
    homodyne-type measurement, an interior one heterodyne-type.  ``cm`` is the
    conftest fixture that forms the state's covariance matrix.
    """
    v = cm(state)
    if measured_mode == 1:
        kept, measured, coupling = v[:2, :2], v[2:, 2:], v[:2, 2:]
    else:
        kept, measured, coupling = v[2:, 2:], v[:2, :2], v[2:, :2]
    det_meas = measured[0, 0] * measured[1, 1] - measured[0, 1] * measured[1, 0]
    base = (entropy(math.sqrt(max(det_meas, 1.0)))
            - entropy(state.nu_plus) - entropy(state.nu_minus))

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


def _is_heterodyne(log_s):
    # the seed covariance of a heterodyne measurement is the identity, log s = 0
    return abs(log_s) < 1e-3


@pytest.mark.parametrize("n1,n2", [(0.4, 1.3), (2.0, 2.0), (0.4, 0.0)])
def test_discord_product_state(n1, n2):
    assert abs(gaussian_discord(_moments_state(n1, n2, 0.0))) < 1e-6


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


def test_discord_restart_robustness(ref_moments, cm):
    # the oracle's minimum must not depend on where the search starts
    state = source_state(ref_moments)
    values = [_oracle_discord(state, cm, extra_starts=10, seed=s)[0] for s in range(10)]
    assert max(values) - min(values) < 1e-7


def test_discord_both_directions(cm):
    state = two_mode_squeezed_vacuum(0.8)
    # symmetric state: both conditioning directions coincide
    assert gaussian_discord(_swapped(state)) == pytest.approx(
        gaussian_discord(state), abs=1e-7)
    assert gaussian_discord(_swapped(state)) == pytest.approx(
        _oracle_discord(state, cm, measured_mode=0)[0], abs=1e-6)


def test_discord_nonnegative_on_random_states():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n1, n2 = rng.uniform(0.05, 3.0, 2)
        cross = rng.uniform(0.0, 1.0) * math.sqrt(n1 * (n2 + 1))
        assert gaussian_discord(_moments_state(n1, n2, cross)) >= 0.0


@pytest.mark.parametrize("measured_mode", [0, 1])
@pytest.mark.parametrize("spectrum", [
    # (nu_1, nu_2, r) with a != b: a cold mode squeezed with a hot one, and a
    # mixed state near the separability edge
    pytest.param((1.0, 9.0, 0.6), id="pure-and-hot"),
    pytest.param((2.5, 1.2, 0.3), id="near-separable"),
])
def test_discord_asymmetric_states_match_oracle(spectrum, measured_mode, cm):
    # heterodyne attains the optimum over all Gaussian measurements
    state = _squeezed_thermal(*spectrum)
    expected, log_s = _oracle_discord(state, cm, measured_mode=measured_mode)
    assert _is_heterodyne(log_s)
    value = gaussian_discord(state if measured_mode == 1 else _swapped(state))
    assert value >= 0.0
    assert value == pytest.approx(expected, abs=1e-6)


def test_discord_random_asymmetric_states_match_oracle(cm):
    rng = np.random.default_rng(3)
    for _ in range(6):
        nu_1, nu_2 = rng.uniform(1.0, 7.0, 2)
        state = _squeezed_thermal(nu_1, nu_2, rng.uniform(0.0, 1.5))
        expected, log_s = _oracle_discord(state, cm)
        assert _is_heterodyne(log_s)
        assert gaussian_discord(state) == pytest.approx(expected, abs=1e-6)


def test_discord_demo_grid_matches_oracle(params, baths, cm):
    # every sixth value of each axis of demos/configs/source_surfaces.cfg
    checked = 0
    for gw in np.geomspace(1e2, 1e4, 5):
        for go in np.geomspace(1e1, 1e3, 5):
            coop = mwqi.Cooperativities(gw, go)
            if not mwqi.is_stable(coop, params).stable:
                continue
            state = source_state(source_moments(mwqi.coefficients(coop),
                                                baths.n_w, baths.n_o, baths.n_b))
            expected, log_s = _oracle_discord(state, cm)
            assert _is_heterodyne(log_s)
            assert gaussian_discord(state) == pytest.approx(expected, abs=1e-6)
            checked += 1
    assert checked >= 20


def test_import_loads_no_scipy():
    code = (
        "import sys, mwqi\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
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
_PI = Decimal("3.1415926535897932384626433832795028841971693993751058209749445923078164062862")


def _exact_per_photon(gamma_w, gamma_o, params):
    """(log_neg, coh_info, discord) per photon, then (n_w, n_o, E-metric), at 80 digits from
    the converter inputs.

    The float cooperativities and converter parameters are taken as exact, and
    the model is followed in decimal arithmetic with the textbook forms: the
    Planck occupations, the coefficients, the moments, s = ab - c^2 of the
    moments, the roots of the symplectic quadratic, and the heterodyne discord
    of Adesso & Datta.  At 80 digits the direct roots keep over 20 significant
    digits up to n ~ 1e14, so no cancellation-free rewriting is needed here.
    """
    with localcontext() as ctx:
        ctx.prec = 80

        def planck(omega):
            if params.t_eom == 0.0:
                return Decimal(0)
            x = (Decimal("6.62607015e-34") / (2 * _PI) * Decimal(omega)
                 / (Decimal("1.380649e-23") * Decimal(params.t_eom)))
            return 1 / (x.exp() - 1)

        def g(nu):
            if nu <= 1:
                return Decimal(0)
            xp, xm = (nu + 1) / 2, (nu - 1) / 2
            return (xp * xp.ln() - xm * xm.ln()) / ln2

        n_w_t, n_o_t, n_b_t = (planck(omega)
                               for omega in (params.omega_w, params.omega_o, params.omega_m))
        gw, go = Decimal(gamma_w), Decimal(gamma_o)
        d, t = 1 + 2 * gw - 2 * go, 1 - 2 * gw - 2 * go
        a_w, a_o, b_ = abs(t) / d, (1 + 2 * gw + 2 * go) / d, 4 * (gw * go).sqrt() / d
        c_w, c_o = (8 * gw).sqrt() / d, (8 * go).sqrt() / d
        n_1 = a_w ** 2 * n_w_t + b_ ** 2 * (n_o_t + 1) + c_w ** 2 * n_b_t
        n_2 = b_ ** 2 * (n_w_t + 1) + a_o ** 2 * n_o_t + c_o ** 2 * (n_b_t + 1)
        cross = abs((t / abs(t) if t else 1) * a_w * b_ * (n_w_t + 1) - b_ * a_o * n_o_t
                    - c_w * c_o * (n_b_t + 1))
        a, b, c = 2 * n_1 + 1, 2 * n_2 + 1, 2 * cross
        s = a * b - c * c

        def roots(delta):
            disc = (delta * delta - 4 * s * s).sqrt()
            return ((delta + disc) / 2).sqrt(), ((delta - disc) / 2).sqrt()

        nu_plus, nu_minus = roots(a * a + b * b - 2 * c * c)
        _, nu_ppt = roots(a * a + b * b + 2 * c * c)
        big_a, big_b, big_c, big_d = a * a, b * b, -c * c, s * s
        nu_min = ((abs(big_c) + (big_c ** 2 + (big_b - 1) * (big_d - big_a)).sqrt())
                  / (big_b - 1))
        # the logarithms cancel only in their leading digits: 40 are plenty
        ctx.prec = 40
        ln2 = Decimal(2).ln()
        log_neg = max(Decimal(0), -nu_ppt.ln() / ln2)
        joint = g(nu_plus) + g(nu_minus)
        coh_info = g(a) - joint
        discord = g(b) - joint + g(nu_min)
        e_metric = cross / (n_1 * n_2).sqrt() if cross else Decimal(0)
        return (*(float(value / n_1) for value in (log_neg, coh_info, discord)),
                float(n_1), float(n_2), float(e_metric))


def _source_surfaces_oracle_pairs(names):
    """(cell, exact value) of each of ``names`` on every stable row of the source_surfaces
    demo sweep, read back from its CSV cells."""
    config = mwqi.parse_config(SOURCE_SURFACES.read_text(encoding="utf-8"))
    header, *rows = (line.split(",") for line in mwqi.run_sweep(config).splitlines()[3:])
    stable = [row for row in rows if row[header.index("stable")] == "1"]
    assert len(stable) == 547
    order = ("log_neg_per_photon", "coh_info_per_photon", "discord_per_photon", "n_w", "n_o",
             "e_metric")
    for row in stable:
        gw, go = float(row[header.index("gamma_w")]), float(row[header.index("gamma_o")])
        exact = dict(zip(order, _exact_per_photon(gw, go, config.params)))
        yield (gw, go), [(float(row[header.index(name)]), exact[name]) for name in names]


def test_correlation_columns_match_exact_oracle():
    for point, pairs in _source_surfaces_oracle_pairs(
            ("log_neg_per_photon", "coh_info_per_photon", "discord_per_photon")):
        for got, want in pairs:
            assert got == pytest.approx(want, abs=1e-12), point


def test_drive_cells_match_exact_oracle():
    # the cells of the sweep's array drive stage, which shares its closed forms with the
    # scalar coefficients and source_moments, so only this oracle checks them independently.
    # The largest relative errors on the 547 points are 6.1e-16 (n_w), 6.5e-16 (n_o) and
    # 6.0e-16 (e_metric); the bound leaves room for a libm expm1 an ulp off in the baths
    for point, pairs in _source_surfaces_oracle_pairs(("n_w", "n_o", "e_metric")):
        for got, want in pairs:
            assert got == pytest.approx(want, rel=2e-15, abs=0.0), point


def test_correlation_columns_match_exact_oracle_over_reachable_domain(params):
    # a seeded log-uniform sample of stable drives at five converter temperatures,
    # low drives included.  The 1e-13 / n_w term is the resolution of a
    # symplectic eigenvalue held as a float near 1 (nu - 1 to ~1e-16), which
    # is still open; it dominates only where n_w < 0.1.
    # The sample goes through the array functions in one call.
    rng = np.random.default_rng(16)
    temps = [dataclasses.replace(params, t_eom=t) for t in (0.0, 30e-3, 1.0, 30.0, 300.0)]
    points, moments = [], []
    while len(points) < 300:
        gw, go = (10.0 ** rng.uniform(-6.0, 6.0, 2)).tolist()
        point = temps[len(points) % len(temps)]
        coop = mwqi.Cooperativities(gw, go)
        if not mwqi.is_stable(coop, point).stable:
            continue
        baths = mwqi.bath_occupations(point)
        m = source_moments(mwqi.coefficients(coop), baths.n_w, baths.n_o, baths.n_b)
        points.append((gw, go, point))
        moments.append((m.n_w, m.n_o, m.cross, m.s))
    columns, valid = mwqi.correlation_columns(*np.array(moments).T)
    assert valid.all()
    for (gw, go, point), (n_w, *_), got in zip(points, moments, zip(*columns)):
        log_neg, coh_info, discord = got
        for value, want in zip(got, _exact_per_photon(gw, go, point)):
            assert abs(value - want) <= max(1e-12, 1e-12 * abs(want), 1e-13 / n_w), (gw, go, point)
        assert discord >= 0.0 and coh_info <= log_neg, (gw, go, point)


def test_correlation_columns_physical_on_a_dense_drive_grid():
    # 120 x 120 drives up to Gamma = 1e6, where ab - c^2 of the rounded moments
    # keeps no digit: the hashing inequality I_C <= E_N, D >= 0, no error row
    config = mwqi.parse_config(
        "[drive]\ngamma_w = 1\ngamma_o = 1\n[grid]\naxis = gamma_w log 1e2 1e6 120\n"
        "axis = gamma_o log 1e1 1e6 120\n[outputs]\n"
        "select = log_neg_per_photon, coh_info_per_photon, discord_per_photon\n")
    rows = [line.split(",") for line in mwqi.run_sweep(config).splitlines()[4:]]
    stable = [row for row in rows if row[2] == "1"]
    assert len(rows) == 14400 and len(stable) == 8640
    assert all(row[-1] == "" for row in rows)
    for row in stable:
        log_neg, coh_info, discord = map(float, row[4:7])
        assert discord >= 0.0 and coh_info <= log_neg, row


def test_sweep_row_at_the_degenerate_ppt_eigenvalue_is_clean():
    # the float ab - c^2 of the moments once made nu~_minus = 0 at this drive,
    # and the row ended in "ValueError: degenerate partial-transpose eigenvalue 0.0"
    config = mwqi.parse_config(
        "[drive]\ngamma_w = 313183.10052438447\ngamma_o = 313183.10052438447\n"
        "[outputs]\nselect = log_neg_per_photon, discord_per_photon\n")
    *_, row = mwqi.run_sweep(config).splitlines()
    stable, _, log_neg, discord, error = row.split(",")
    assert (stable, error) == ("1", "")
    assert float(log_neg) > 0.0 and float(discord) > 0.0


# ---------------------------------------------------------------------------
# correlation report
# ---------------------------------------------------------------------------

def test_report_tmsv():
    r = 1.0
    m = SourceMoments(n_w=math.sinh(r) ** 2, n_o=math.sinh(r) ** 2,
                      cross=math.cosh(r) * math.sinh(r), s=1.0)
    rep = correlation_report(m)
    expected = (2.0 / math.log(2.0)) / math.sinh(r) ** 2
    assert rep.log_neg_per_photon == pytest.approx(expected, rel=1e-9)
    assert rep.e_metric == pytest.approx(math.cosh(r) / math.sinh(r), rel=1e-12)


def test_report_uncorrelated():
    rep = correlation_report(SourceMoments(n_w=0.5, n_o=0.7, cross=0.0, s=4.8))
    assert rep.e_metric == 0.0
    assert rep.log_neg == 0.0
    assert abs(rep.discord) < 1e-6
    # an empty idler leaves the metric 0, not undefined
    assert correlation_report(SourceMoments(n_w=0.5, n_o=0.0, cross=0.0, s=2.0)).e_metric == 0.0


def test_report_reference_consistency(ref_moments):
    rep = correlation_report(ref_moments)
    assert rep.e_metric > 1.0
    assert rep.log_neg > 0.0
    assert rep.discord >= 0.0
    assert rep.log_neg_per_photon == pytest.approx(rep.log_neg / ref_moments.n_w, rel=1e-12)


def test_report_evaluates_the_joint_entropy_once(monkeypatch, ref_moments):
    # g(a) and g(b) of the marginals, g(nu+) + g(nu-) once, and g of the heterodyne
    # conditional state: five values of g per source, counted through both module
    # bindings of the array function, for a report and for a sweep's array pass
    calls = []
    real = mwqi.states.entropies

    def counted(nu):
        calls.append(np.size(nu))
        return real(nu)

    monkeypatch.setattr(mwqi.states, "entropies", counted)
    monkeypatch.setattr(mwqi.correlations, "entropies", counted)
    rep = correlation_report(ref_moments)
    assert calls == [2, 3]
    state = rep.state
    assert state.joint_entropy == entropy(state.nu_plus) + entropy(state.nu_minus)
    assert rep.coh_info == pytest.approx(
        entropy(state.a) - entropy(state.nu_plus) - entropy(state.nu_minus), rel=1e-12)
    calls.clear()
    moments = [dataclasses.astuple(ref_moments)] * 7
    columns, valid = mwqi.correlation_columns(*np.array(moments).T)
    assert calls == [14, 21] and valid.all()
    assert [column[6] for column in columns] == [
        rep.log_neg_per_photon, rep.coh_info_per_photon, rep.discord_per_photon]


def test_report_zero_photon_error():
    with pytest.raises(UndefinedMetricError):
        correlation_report(SourceMoments(n_w=0.0, n_o=0.5, cross=0.0, s=2.0))
