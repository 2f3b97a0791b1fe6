import dataclasses
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
from decimal import Decimal, getcontext, localcontext

import numpy as np
import pytest
from scipy.special import erfc

import mwqi
from mwqi import (
    DetectionStatistics,
    ReceiverParams,
    SourceMoments,
    TargetChannelParams,
    TwoModeGaussianState,
    coherent_snr_per_mode,
    entanglement_threshold,
    error_probability,
    error_probability_coherent,
    error_probability_qi,
    figure_of_merit,
    log10_error_probability,
    log_negativity,
    max_fiber_range,
    mc_receiver_statistics,
    receiver_statistics,
    return_state,
    snr_per_mode,
)
from mwqi.detection import _MC_BLOCK, _detected_pair, _mc_weights, _pair_factor


# ---------------------------------------------------------------------------
# return channel
# ---------------------------------------------------------------------------

def test_return_state_vanishing_transmissivity(ref_moments):
    # H0 is the channel at eta = 0: the bare background, uncorrelated with the
    # idler, bit for bit
    pair = return_state(ref_moments, TargetChannelParams(eta=0.0, n_b=50.0))
    b = 2.0 * ref_moments.n_o + 1.0
    h0 = TwoModeGaussianState(101.0, b, 0.0, 101.0 * b)
    assert (pair.a, pair.b, pair.c, pair.s) == (h0.a, h0.b, h0.c, h0.s)


def test_return_state_lossless(ref_moments, cm):
    ch = TargetChannelParams(eta=1.0, n_b=777.0)
    h1 = return_state(ref_moments, ch)
    src = mwqi.source_state(ref_moments)
    assert np.allclose(cm(h1), cm(src))
    assert h1.s == src.s


def test_return_state_reference_numbers(cm):
    # published operating point: cross_R = sqrt(0.07) * 1.084, and the
    # return occupation is dominated by the bright background
    m = SourceMoments(n_w=0.739, n_o=0.681, cross=1.084, s=2.478 * 2.362 - 2.168 ** 2)
    ch = TargetChannelParams(eta=0.07, n_b=610.0)
    v = cm(return_state(m, ch))
    n_r = (v[0, 0] - 1.0) / 2
    cross_r = v[0, 2] / 2
    assert cross_r == pytest.approx(math.sqrt(0.07) * 1.084, rel=1e-12)
    assert cross_r == pytest.approx(0.2868, abs=5e-4)
    assert n_r == pytest.approx(567.4, abs=0.1)


def test_return_cross_independent_of_background(ref_moments, cm):
    cross = []
    occ = []
    for n_b in (10.0, 100.0, 1000.0):
        v = cm(return_state(ref_moments, TargetChannelParams(eta=0.05, n_b=n_b)))
        cross.append(v[0, 2])
        occ.append(v[0, 0])
    assert cross[0] == cross[1] == cross[2]
    assert occ[0] < occ[1] < occ[2]


def test_channel_validation():
    with pytest.raises(ValueError):
        TargetChannelParams(eta=1.5, n_b=1.0)
    with pytest.raises(ValueError):
        TargetChannelParams(eta=0.1, n_b=-1.0)


@pytest.mark.parametrize("n_b", [math.nan, math.inf])
def test_channel_rejects_non_finite(n_b):
    # a NaN background gave NaN receiver statistics, an infinite one a
    # silently blind receiver
    with pytest.raises(ValueError, match="n_b must be finite"):
        TargetChannelParams(eta=0.07, n_b=n_b)


# ---------------------------------------------------------------------------
# entanglement threshold
# ---------------------------------------------------------------------------

def test_threshold_reference(ref_moments, ref_channel):
    thresh = entanglement_threshold(ref_moments, ref_channel.eta)
    assert abs(thresh - 0.069) / 0.069 < 0.10


def test_threshold_zero_eta(ref_moments):
    assert entanglement_threshold(ref_moments, 0.0) == 0.0


def test_threshold_separable_source_clamped():
    m = SourceMoments(n_w=1.0, n_o=1.0, cross=0.5, s=8.0)
    assert entanglement_threshold(m, 0.3) == 0.0


def test_threshold_separates_entangled_return(ref_moments, ref_channel):
    # with the exact H1 background, n_b / (1 - eta), the separability
    # boundary sits exactly at the threshold value
    eta = ref_channel.eta
    thresh = entanglement_threshold(ref_moments, eta)
    for factor, entangled in ((0.8, True), (1.2, False)):
        ch = TargetChannelParams(eta=eta, n_b=factor * thresh / (1.0 - eta))
        state = return_state(ref_moments, ch)
        assert (log_negativity(state) > 0.0) is entangled


# ---------------------------------------------------------------------------
# receiver statistics
# ---------------------------------------------------------------------------

def test_receiver_no_correlation_no_signal(ref_channel, ref_receiver, baths):
    m = SourceMoments(n_w=0.5, n_o=0.5, cross=0.0, s=4.0)
    stats = receiver_statistics(m, ref_channel, ref_receiver, baths)
    assert stats.mu1 == stats.mu0 == 0.0
    assert stats.snr_per_m == 0.0


def test_detection_statistics_is_a_named_tuple(ref_moments, ref_channel, ref_receiver, baths):
    stats = receiver_statistics(ref_moments, ref_channel, ref_receiver, baths)
    assert DetectionStatistics._fields == ("mu0", "mu1", "var0", "var1", "snr_per_m")
    # the values of the reference point when the record was a dataclass
    assert stats == (0.0, 0.4713002361287752, 984.5877149155446, 916.0191264209255,
                     0.00023381609704004703)
    mu0, mu1, var0, var1, snr_per_m = stats
    assert stats.snr_per_m == snr_per_m == 0.00023381609704004703
    with pytest.raises(AttributeError):
        stats.snr_per_m = 0.0


def test_receiver_mean_shift(ref_moments, ref_channel, ref_coefficients, baths):
    stats = receiver_statistics(ref_moments, ref_channel,
                                ReceiverParams(ref_coefficients), baths)
    expected = 2.0 * ref_coefficients.b * math.sqrt(ref_channel.eta) * ref_moments.cross
    assert stats.mu1 - stats.mu0 == pytest.approx(expected, rel=1e-12)
    assert stats.mu1 >= stats.mu0
    assert stats.var0 > 0 and stats.var1 > 0


def _pair_formula(source, ch, rx, baths):
    """(mu0, var0, mu1, var1) written out from the per-pair (N_1, N_2, S)."""
    coef, k_i = rx.coef, rx.idler_transmissivity
    returns = [(ch.n_b, 0.0),
               (ch.eta * source.n_w + (1.0 - ch.eta) * ch.n_b, math.sqrt(ch.eta) * source.cross)]
    out = []
    for n_r, cross_r in returns:
        n_1 = (coef.b ** 2 * (n_r + 1.0) + coef.a_o ** 2 * baths.n_o
               + coef.c_o ** 2 * (baths.n_b + 1.0))
        n_2 = k_i * source.n_o
        s = coef.b * math.sqrt(k_i) * cross_r
        out += [2.0 * s, 2.0 * s * s + 2.0 * n_1 * n_2 + n_1 + n_2]
    return tuple(out)


@pytest.mark.parametrize("eta", [0.0, 0.07, 1.0])
@pytest.mark.parametrize("exact", [False, True], ids=["plain-h1", "exact-h1"])
@pytest.mark.parametrize("kappa_i", [1.0, 0.6])
def test_receiver_statistics_match_pair_formula(ref_moments, ref_coefficients, baths,
                                                eta, exact, kappa_i):
    # a warm optical bath and a lossy idler, which the goldens never reach;
    # the exact H1 background n_b / (1 - eta) is n_b at eta = 1, where it does not enter
    ch = TargetChannelParams(eta=eta, n_b=600.0 / (1.0 - eta) if exact and eta < 1.0 else 600.0)
    rx = ReceiverParams(ref_coefficients, idler_transmissivity=kappa_i)
    warm = mwqi.BathOccupations(n_w=baths.n_w, n_o=0.4, n_b=baths.n_b)
    stats = receiver_statistics(ref_moments, ch, rx, warm)
    assert (stats.mu0, stats.var0, stats.mu1, stats.var1) == _pair_formula(
        ref_moments, ch, rx, warm)
    if eta == 0.0:  # H0 is the channel at eta = 0: both hypotheses coincide
        assert stats.mu1 == stats.mu0 == 0.0
        assert stats.var1 == stats.var0


def _two_pass_statistics(source, ch, rx, baths):
    """The five statistics as one loop over eta = 0 (H0) and ch.eta (H1) writes them, with
    every square a product."""
    coef, k_i = rx.coef, rx.idler_transmissivity
    n_2 = k_i * source.n_o
    optical = coef.a_o * coef.a_o * baths.n_o
    mechanical = coef.c_o * coef.c_o * (baths.n_b + 1.0)
    moments = []
    for eta in (0.0, ch.eta):
        n_r = eta * source.n_w + (1.0 - eta) * ch.n_b
        n_1 = coef.b * coef.b * (n_r + 1.0) + optical + mechanical
        s = coef.b * math.sqrt(k_i) * (math.sqrt(eta) * source.cross)
        moments += [2.0 * s, 2.0 * s * s + 2.0 * n_1 * n_2 + n_1 + n_2]
    mu0, var0, mu1, var1 = moments
    return mu0, mu1, var0, var1, snr_per_mode(mu0, mu1, var0, var1)


def test_receiver_statistics_match_the_two_pass_loop_bit_for_bit():
    # H0's closed form (n_R = n_B, S = 0) must round like the loop at eta = 0, on a
    # seeded sample of drives, baths, channels and idler losses with their edge values
    rng = random.Random(2015)

    def draw(edge, value):
        return edge if rng.random() < 0.1 else value

    seen = set()
    for _ in range(2000):
        gamma_w, gamma_o = 10 ** rng.uniform(-2, 4), draw(0.0, 10 ** rng.uniform(-2, 4))
        if 1.0 + 2.0 * gamma_w - 2.0 * gamma_o <= 0.0:
            continue  # no steady state, no coefficients
        coef = mwqi.coefficients(mwqi.Cooperativities(gamma_w, gamma_o))
        baths = mwqi.BathOccupations(*(draw(0.0, 10 ** rng.uniform(-2, 3)) for _ in range(3)))
        source = mwqi.source_moments(coef, baths.n_w, baths.n_o, baths.n_b)
        source = draw(dataclasses.replace(source, cross=0.0), source)
        ch = TargetChannelParams(draw(0.0, draw(1.0, rng.random())),
                                 draw(0.0, 10 ** rng.uniform(-2, 3)))
        rx = ReceiverParams(coef, draw(0.6, draw(1.0, rng.random())))
        stats = receiver_statistics(source, ch, rx, baths)
        assert [value.hex() for value in stats] == [
            value.hex() for value in _two_pass_statistics(source, ch, rx, baths)]
        # built with tuple.__new__: still the named tuple, field for field
        assert type(stats) is DetectionStatistics and stats == DetectionStatistics(*stats)
        assert tuple(stats._asdict()) == DetectionStatistics._fields
        seen |= {name for name, hit in (
            ("n_b = 0", ch.n_b == 0.0), ("kappa_I = 0.6", rx.idler_transmissivity == 0.6),
            ("cross = 0", source.cross == 0.0), ("eta = 0", ch.eta == 0.0),
            ("eta = 1", ch.eta == 1.0), ("signal", stats.snr_per_m > 0.0)) if hit}
    assert seen == {"n_b = 0", "kappa_I = 0.6", "cross = 0", "eta = 0", "eta = 1", "signal"}


def _exact_receiver_blocks(gamma_w, gamma_o, baths, eta, n_b, kappa_i):
    """[(v_1, v_2, k) under H0, then under H1] at 60 digits from the converter inputs.

    The float cooperativities, bath occupations, eta, n_B and kappa_I are taken
    as exact.  The coefficients and the source moments follow from them, then
    the symmetric-ordered covariance of (Re d_1, Im d_1, Re d_2, Im d_2) under
    the receiver's linear map.  Its Re and Im blocks are independent and alike,
    each [[v_1, k], [k, v_2]].  Nothing here uses a_o^2 - b^2 - c_o^2 = 1, which
    the closed form's normal-ordered occupations rest on.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        gw, go, eta, n_b, k_i = map(Decimal, (gamma_w, gamma_o, eta, n_b, kappa_i))
        n_w_t, n_o_t, n_b_t = map(Decimal, (baths.n_w, baths.n_o, baths.n_b))
        d = 1 + 2 * gw - 2 * go
        a_w, a_o, b = (1 - 2 * gw - 2 * go) / d, (1 + 2 * gw + 2 * go) / d, 4 * (gw * go).sqrt() / d
        c_w, c_o = (8 * gw).sqrt() / d, (8 * go).sqrt() / d
        n_w = a_w * a_w * n_w_t + b * b * (n_o_t + 1) + c_w * c_w * n_b_t
        n_o = b * b * (n_w_t + 1) + a_o * a_o * n_o_t + c_o * c_o * (n_b_t + 1)
        cross = abs(a_w * b * (n_w_t + 1) - b * a_o * n_o_t - c_w * c_o * (n_b_t + 1))
        # quadrature variances (2 n + 1) / 4 of each complex amplitude's Re and Im
        v_2 = (k_i * (2 * n_o + 1) + (1 - k_i)) / 4
        blocks = []
        for e in (Decimal(0), eta):
            n_r = e * n_w + (1 - e) * n_b
            v_1 = (b * b * (2 * n_r + 1) + a_o * a_o * (2 * n_o_t + 1)
                   + c_o * c_o * (2 * n_b_t + 1)) / 4
            # (b / 2) x_R against (sqrt(kappa_I) / 2) x_I, whose covariance is 2 sqrt(eta) cross
            k = b * (k_i * e).sqrt() * cross / 2
            blocks.append((v_1, v_2, k))
        return blocks


def _exact_receiver_statistics(gamma_w, gamma_o, baths, eta, n_b, kappa_i):
    """(mu0, mu1, var0, var1, snr_per_m) at 60 digits from the covariance blocks of
    :func:`_exact_receiver_blocks`.

    N = 2 (Re d_1 Re d_2 + Im d_1 Im d_2) is the quadratic form v^T Q v of
    (Re d_1, Im d_1, Re d_2, Im d_2), so its mean is tr(Q Sigma) and, by Isserlis,
    its symmetric-ordered variance 2 tr((Q Sigma)^2); the normal-ordered count has
    1/2 less.  With the blocks [[v_1, k], [k, v_2]], tr(Q Sigma) = 4 k and
    2 tr((Q Sigma)^2) = 8 (v_1 v_2 + k^2).
    """
    with localcontext() as ctx:
        ctx.prec = 60
        (mu0, var0), (mu1, var1) = (
            (4 * k, 8 * (v_1 * v_2 + k * k) - Decimal("0.5"))
            for v_1, v_2, k in _exact_receiver_blocks(gamma_w, gamma_o, baths, eta, n_b, kappa_i))
        snr = 4 * (mu1 - mu0) ** 2 / (var0.sqrt() + var1.sqrt()) ** 2
        return tuple(float(value) for value in (mu0, mu1, var0, var1, snr))


def test_receiver_statistics_match_exact_oracle(params):
    # seeded stable drives over Gamma in [1e-4, 1e5], baths up to a warm optical one,
    # eta at 0, 1 and between, bright and dark backgrounds, lossless and lossy idlers.
    # coefficients forms d = 1 + 2 Gamma_w - 2 Gamma_o with one rounding, so var, which
    # goes as d^-4, keeps its digits towards the instability edge too.
    rng = random.Random(16)

    def draw(edge, value):
        return edge if rng.random() < 0.15 else value

    points, seen = 0, set()
    while points < 1200:
        coop = mwqi.Cooperativities(*(10 ** rng.uniform(-4, 5) for _ in range(2)))
        if not mwqi.is_stable(coop, params).stable:
            continue
        points += 1
        baths = mwqi.BathOccupations(draw(0.0, 10 ** rng.uniform(-3, 3)),
                                     draw(0.0, 10 ** rng.uniform(-3, 1)),
                                     draw(0.0, 10 ** rng.uniform(-1, 5)))
        coef = mwqi.coefficients(coop)
        source = mwqi.source_moments(coef, baths.n_w, baths.n_o, baths.n_b)
        ch = TargetChannelParams(draw(0.0, draw(1.0, 10 ** rng.uniform(-4, 0))),
                                 draw(0.0, 10 ** rng.uniform(-3, 4)))
        rx = ReceiverParams(coef, draw(1.0, rng.uniform(0.01, 1.0)))
        stats = receiver_statistics(source, ch, rx, baths)
        exact = _exact_receiver_statistics(coop.gamma_w, coop.gamma_o, baths, ch.eta, ch.n_b,
                                           rx.idler_transmissivity)
        assert tuple(stats) == pytest.approx(exact, rel=1e-12, abs=0.0), (coop, baths, ch, rx)
        seen |= {name for name, hit in (
            ("eta = 0", ch.eta == 0.0), ("eta = 1", ch.eta == 1.0),
            ("kappa_I < 1", rx.idler_transmissivity < 1.0), ("warm optical bath", baths.n_o > 0),
            ("signal", stats.snr_per_m > 0.0)) if hit}
    assert seen == {"eta = 0", "eta = 1", "kappa_I < 1", "warm optical bath", "signal"}


def test_receiver_idler_loss_kills_signal(ref_moments, ref_channel, ref_coefficients, baths):
    lossy = ReceiverParams(ref_coefficients, idler_transmissivity=1e-9)
    stats = receiver_statistics(ref_moments, ref_channel, lossy, baths)
    assert stats.snr_per_m < 1e-10
    with pytest.raises(ValueError):
        ReceiverParams(ref_coefficients, idler_transmissivity=0.0)


def test_fom_non_increasing_in_idler_loss(ref_moments, ref_channel, ref_coefficients, baths):
    foms = [figure_of_merit(ref_moments, ref_channel,
                            ReceiverParams(ref_coefficients, k), baths)
            for k in np.linspace(1.0, 0.1, 10)]
    assert all(a >= b - 1e-12 for a, b in zip(foms, foms[1:]))


def test_snr_convention_anchor():
    # the generic SNR definition applied to homodyne detection of a coherent
    # probe must reproduce 4 eta n_w / (2 n_B + 1) identically
    rng = np.random.default_rng(31)
    for _ in range(10):
        eta = rng.uniform(0.001, 0.5)
        n_w = rng.uniform(0.01, 5.0)
        n_b = rng.uniform(0.0, 1e4)
        mu1 = 2.0 * math.sqrt(eta * n_w)
        var = 2.0 * n_b + 1.0
        generic = snr_per_mode(0.0, mu1, var, var)
        quoted = 4.0 * eta * n_w / (2.0 * n_b + 1.0)
        assert abs(generic - quoted) / quoted < 1e-12


@pytest.mark.parametrize("stats, snr", [
    ((0.0, 1e200, 1.0, 1.0), None),  # the squared mean shift; it raised a bare range error
    # a squared denominator or mean shift that overflows where the snr does not
    ((0.0, 1e154, 1e308, 1e308), 1.0),
    ((0.0, 1.3e154, 1e300, 1e300), 1.69e8),
    ((0.0, 1e100, 1e308, 1e308), 1e-108),  # else a finite shift over an infinite square gives 0
    ((0.0, 1.0, math.inf, 1.0), None),  # an infinite variance, else a silently blind receiver
    ((0.0, 1e150, 1e-200, 1e-200), None),  # the quotient
    ((math.nan, 1.0, 1.0, 1.0), None),
], ids=["mean-shift", "denominator", "finite-mean-shift", "small-snr-denominator",
        "variance", "quotient", "nan-mean"])
def test_snr_overflow_is_named(stats, snr):
    if snr is not None:
        assert snr_per_mode(*stats) == snr
        return
    with pytest.raises(OverflowError, match="receiver statistics overflow float64: mu0="):
        snr_per_mode(*stats)


@pytest.mark.parametrize("stats, snr", [
    # the statistics of the two advantage_surface.csv points whose fom cells
    # moved by 1-2 ulp when the squares went from libm pow to products
    ((0.0, 0.5776868647549083, 956.8702779328079, 890.4291936408976),
     0.00036142500351904786),
    ((0.0, 0.015323704553789924, 17.847576157457148, 16.602608455498903),
     1.3636654758513398e-05),
], ids=["gamma_w-147", "gamma_w-1778"])
def test_snr_squares_by_products(stats, snr):
    mu0, mu1, var0, var1 = stats
    dmu, sd = mu1 - mu0, math.sqrt(var0) + math.sqrt(var1)
    assert snr_per_mode(*stats) == 4.0 * (dmu * dmu) / (sd * sd) == snr


# ---------------------------------------------------------------------------
# error probabilities
# ---------------------------------------------------------------------------

def test_error_probability_blind():
    assert error_probability(0.0, 10) == 0.5
    assert error_probability(0.0, 10 ** 9) == 0.5


def test_error_probability_unit_argument():
    # M * snr = 8 puts the erfc argument at 1
    assert error_probability(8.0, 1) == pytest.approx(erfc(1.0) / 2, rel=1e-13)


def test_error_probability_matches_direct_erfc():
    # against scipy's erfc, down to underflow
    for snr_m in (1e-3, 1.0, 50.0, 500.0, 2500.0):
        direct = erfc(math.sqrt(snr_m / 8.0)) / 2.0
        assert error_probability(snr_m, 1) == pytest.approx(direct, rel=1e-12)


def test_error_probability_log_domain_small():
    # 1e-300-scale values stay accurate; the log form reaches further
    snr = 5500.0
    p = error_probability(snr, 1)
    assert 0.0 < p < 1e-290
    assert log10_error_probability(snr, 1) == pytest.approx(math.log10(p), rel=1e-12)
    assert log10_error_probability(snr * 100, 1) < -1e4


def test_error_probability_monotone_in_modes(ref_moments, ref_channel, ref_receiver, baths):
    stats = receiver_statistics(ref_moments, ref_channel, ref_receiver, baths)
    probs = [error_probability_qi(stats, m) for m in np.geomspace(1, 1e7, 15)]
    assert all(a > b for a, b in zip(probs, probs[1:]))


def test_error_probability_validation():
    with pytest.raises(ValueError):
        error_probability(1.0, 0.5)
    with pytest.raises(ValueError):
        error_probability(-1.0, 10)
    with pytest.raises(ValueError, match="snr must be >= 0"):
        log10_error_probability(-1.0, 10)


@pytest.mark.parametrize("func", [error_probability, log10_error_probability])
def test_error_probability_rejects_nan(func):
    with pytest.raises(ValueError, match="snr must be >= 0"):
        func(math.nan, 10)
    with pytest.raises(ValueError, match="mode count must be >= 1"):
        func(1.0, math.nan)


def test_error_probability_blind_with_infinite_modes():
    # inf * 0 is NaN; a receiver with no signal is blind at any M
    assert error_probability(0.0, math.inf) == 0.5
    assert log10_error_probability(0.0, math.inf) == log10_error_probability(0.0, 10)


def test_error_probability_overflowing_argument():
    # M * snr overflows to inf: the probability is 0 and its log -inf
    assert error_probability(1e300, 1e10) == 0.0
    assert log10_error_probability(1e300, 1e10) == -math.inf
    assert log10_error_probability(1e300, 1e300) == -math.inf


def _machin_pi():
    """pi at the current decimal precision, from 16 atan(1/5) - 4 atan(1/239)."""
    eps = Decimal(10) ** -(getcontext().prec + 2)

    def atan_inv(x):
        term = total = Decimal(1) / x
        n = 1
        while abs(term) > eps:
            term /= -x * x
            n += 2
            total += term / n
        return total

    return 16 * atan_inv(5) - 4 * atan_inv(239)


def _exact_log10_half_erfc(z):
    """log10(erfc(z) / 2) for a float z >= 0, to more than 50 digits.

    Below z = 30 from the series erf(z) = (2/sqrt(pi)) e^{-z^2} sum_n
    (2z^2)^n z / (2n+1)!!, with z^2 / ln 10 extra digits for the cancellation
    in 1 - erf(z); above, from the continued fraction (Abramowitz & Stegun
    7.1.14) sqrt(pi) e^{z^2} erfc(z) = 1/(z + (1/2)/(z + 1/(z + (3/2)/(z + ...)))),
    evaluated backward.
    """
    with localcontext() as ctx:
        x = Decimal(z)
        if z < 30:
            ctx.prec = 60 + int(z * z / math.log(10))
            x2 = x * x
            term = total = x
            n = 0
            while term > total.scaleb(-ctx.prec):
                n += 1
                term *= 2 * x2 / (2 * n + 1)
                total += term
            log_half_erfc = ((1 - 2 * (-x2).exp() * total / _machin_pi().sqrt()) / 2).ln()
        else:
            ctx.prec = 60
            fraction = x
            for k in range(100, 0, -1):
                fraction = x + Decimal(k) / 2 / fraction
            log_half_erfc = -x * x - (2 * _machin_pi().sqrt() * fraction).ln()
        ctx.prec = 60
        return log_half_erfc / Decimal(10).ln()


def test_error_probability_matches_exact_oracle():
    # z on a 1/64 grid and M * snr = 8 z^2 make the erfc argument exact in float64
    grid = [k / 8 for k in range(213)]  # [0, 26.5]: erfc(z) / 2 stays normal
    grid += [round(26.5 * (1e6 / 26.5) ** (e / 60) * 64) / 64 for e in range(1, 61)]
    for z in grid:
        exact = _exact_log10_half_erfc(z)
        with localcontext() as ctx:
            ctx.prec = 60
            got = Decimal(log10_error_probability(8 * z * z, 1))
            assert abs(got - exact) <= -exact * Decimal("1e-15"), z
            if z <= 26.5:
                p = Decimal(10) ** exact
                assert abs(Decimal(error_probability(8 * z * z, 1)) - p) <= p * Decimal("1e-15"), z


def test_coherent_benchmark_values(ref_channel):
    snr = coherent_snr_per_mode(0.739, ref_channel)
    # direct evaluation of the benchmark formula at the published point
    assert snr == pytest.approx(4 * 0.07 * 0.739 / (2 * ref_channel.n_b + 1), rel=1e-12)
    assert snr == pytest.approx(1.694e-4, rel=2e-2)
    assert error_probability_coherent(0.0, ref_channel, 100) == 0.5
    # linear in the mode count
    p1 = coherent_snr_per_mode(0.739, ref_channel) * 1
    assert 2 * p1 == pytest.approx(coherent_snr_per_mode(0.739, ref_channel) * 2, rel=1e-15)


# ---------------------------------------------------------------------------
# figure of merit
# ---------------------------------------------------------------------------

def test_fom_zero_for_uncorrelated(ref_channel, ref_receiver, baths):
    m = SourceMoments(n_w=0.5, n_o=0.5, cross=0.0, s=4.0)
    assert figure_of_merit(m, ref_channel, ref_receiver, baths) == 0.0


def test_fom_reference_advantage(ref_moments, ref_channel, ref_receiver, baths):
    assert figure_of_merit(ref_moments, ref_channel, ref_receiver, baths) > 1.0


def test_fom_bright_background_asymptote(ref_moments, ref_channel, ref_receiver, baths):
    foms = [figure_of_merit(ref_moments,
                            TargetChannelParams(eta=ref_channel.eta, n_b=n_b),
                            ref_receiver, baths)
            for n_b in np.geomspace(1e2, 1e6, 9)]
    assert abs(foms[-1] - foms[-2]) / foms[-1] < 1e-3


def _same_channel_snr_per_mode(n_w, ch):
    """The coherent benchmark through snr_per_mode's definition on the channel that
    return_state gives the QI side: mean shift 2 sqrt(eta n_w), quadrature variances
    2 n_B + 1 under H0 and 2 (1 - eta) n_B + 1 under H1."""
    v0, v1 = 2.0 * ch.n_b + 1.0, 2.0 * (1.0 - ch.eta) * ch.n_b + 1.0
    return 16.0 * ch.eta * n_w / (math.sqrt(v0) + math.sqrt(v1)) ** 2


def test_fom_benchmark_convention(params, ref_moments, ref_channel, ref_receiver, baths):
    # fom divides by the benchmark on the H0 channel under both hypotheses, 2 n_B + 1;
    # the QI return keeps only (1 - eta) n_B of background under H1.  Against the
    # same-channel benchmark the phase-conjugate receiver stays within its 3 dB at these
    # points, and the printed fom exceeds that ratio by 4 v0 / (sqrt(v0) + sqrt(v1))^2,
    # in [1, 4 / (1 + sqrt(1 - eta))^2] since (1 - eta) v0 <= v1 <= v0 (up to rounding).
    def ratios(source, ch, rx, bath):
        fom = figure_of_merit(source, ch, rx, bath)
        same = receiver_statistics(source, ch, rx, bath).snr_per_m / _same_channel_snr_per_mode(
            source.n_w, ch)
        return fom, same, fom / same

    fom, same, excess = ratios(ref_moments, ref_channel, ref_receiver, baths)
    assert (fom, same) == pytest.approx((1.4331, 1.3825), rel=1e-4)
    rng = random.Random(19)
    points = worst = 0
    while points < 5000:
        coop = mwqi.Cooperativities(*(10 ** rng.uniform(-4, 6) for _ in range(2)))
        if not mwqi.is_stable(coop, params).stable:
            continue
        points += 1
        bath = mwqi.bath_occupations(dataclasses.replace(params, t_eom=10 ** rng.uniform(-4, 1)))
        coef = mwqi.coefficients(coop)
        source = mwqi.source_moments(coef, bath.n_w, bath.n_o, bath.n_b)
        ch = TargetChannelParams(10 ** rng.uniform(-6, 0), 10 ** rng.uniform(-3, 5))
        fom, same, excess = ratios(source, ch, ReceiverParams(coef), bath)
        assert same <= 2.0, (coop, bath, ch)
        bound = 4.0 / (1.0 + math.sqrt(1.0 - ch.eta)) ** 2
        assert 1.0 - 1e-12 <= excess <= bound * (1.0 + 1e-12), (coop, bath, ch)
        worst = max(worst, same)
    assert worst > 1.99  # the N_S << 1 << N_B regime is reached


# ---------------------------------------------------------------------------
# fiber range
# ---------------------------------------------------------------------------

def test_fiber_range_values():
    assert max_fiber_range(0.2, 2.0 / 3.0, 3.0) == pytest.approx(11.25, abs=1e-12)
    assert max_fiber_range(0.4, 2.0 / 3.0, 3.0) == pytest.approx(5.625, abs=1e-12)
    assert max_fiber_range(0.2, 2.0 / 3.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        max_fiber_range(0.0, 0.5)


@pytest.mark.parametrize("call, message", [
    (lambda: entanglement_threshold(SourceMoments(1.0, 0.0, 0.5, 2.0), 0.1),
     "threshold undefined at n_o = 0"),
    (lambda: snr_per_mode(0.0, 1.0, 0.0, 1.0), "variances must be > 0"),
    (lambda: max_fiber_range(0.2, 0.5, -1.0), "loss budget must be >= 0"),
], ids=["threshold-dark-idler", "snr-zero-variance", "fiber-negative-budget"])
def test_invalid_inputs_are_named(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Monte-Carlo oracle
# ---------------------------------------------------------------------------

def _hypothesis_channel(hyp, ch):
    """The channel sampled under ``hyp``: ``ch`` for H1, ``ch`` at eta = 0 for H0."""
    return ch if hyp == "H1" else TargetChannelParams(eta=0.0, n_b=ch.n_b)


# the test ids keep their established names, Hypothesis.H0 and Hypothesis.H1
@pytest.mark.parametrize("hyp", ["H0", "H1"], ids=lambda hyp: f"Hypothesis.{hyp}")
def test_mc_oracle_agrees_with_closed_form(ref_moments, ref_channel, ref_receiver,
                                           baths, hyp):
    stats = receiver_statistics(ref_moments, ref_channel, ref_receiver, baths)
    mc = mc_receiver_statistics(ref_moments, _hypothesis_channel(hyp, ref_channel),
                                ref_receiver, baths, samples=300000, seed=99)
    mu_cf = stats.mu1 if hyp == "H1" else stats.mu0
    var_cf = stats.var1 if hyp == "H1" else stats.var0
    assert abs(mc.mu - mu_cf) <= 3 * mc.se_mu
    assert abs(mc.var - var_cf) <= 3 * mc.se_var


def test_mc_oracle_needs_two_samples(ref_moments, ref_channel, ref_receiver, baths):
    with pytest.raises(ValueError) as err:
        mc_receiver_statistics(ref_moments, _hypothesis_channel("H0", ref_channel),
                               ref_receiver, baths, samples=1)
    assert str(err.value) == "need at least 2 samples"


def test_mc_oracle_deterministic(ref_moments, ref_channel, ref_receiver, baths):
    a = mc_receiver_statistics(ref_moments, ref_channel, ref_receiver, baths,
                               samples=10000, seed=5)
    b = mc_receiver_statistics(ref_moments, ref_channel, ref_receiver, baths,
                               samples=10000, seed=5)
    assert a == b


def _reference_mc(source, ch, rx, baths, samples, seed, cm):
    """Per-mode complex-amplitude sampler that pins the oracle's draw order.

    Draws one row of 6 normals per sample at every kappa_I: the detected pair's
    quadratures (x_R, p_R, x_I', p_I') through its triangular factor, then Re/Im
    of the receiver noise a_o alpha_o - c_o alpha_b*; and applies the receiver map
    to complex amplitudes mode by mode.  The detected pair's covariance is built
    here from the return's, by the idler's beam splitter of transmissivity kappa_I
    with vacuum (variance 1) at its other port.
    """
    coef, k_i = rx.coef, rx.idler_transmissivity
    rng = np.random.default_rng(seed)
    loss = np.diag([1.0, 1.0, math.sqrt(k_i), math.sqrt(k_i)])
    vacuum = np.diag([0.0, 0.0, 1.0 - k_i, 1.0 - k_i])
    factor = _pair_factor(_detected_pair(source, ch, k_i))
    np.testing.assert_array_max_ulp(factor.T @ factor,
                                    loss @ cm(return_state(source, ch)) @ loss + vacuum, maxulp=4)
    z = rng.standard_normal((samples, 6))
    q = z[:, :4] @ factor
    alpha_r = (q[:, 0] + 1j * q[:, 1]) / 2.0
    alpha_i = (q[:, 2] + 1j * q[:, 3]) / 2.0
    # a_o alpha_o - c_o alpha_b*: two independent thermal amplitudes, one Gaussian sum
    sd = math.sqrt((coef.a_o ** 2 * (2.0 * baths.n_o + 1.0)
                    + coef.c_o ** 2 * (2.0 * baths.n_b + 1.0)) / 4.0)
    noise = sd * z[:, 4] + 1j * sd * z[:, 5]
    d1 = coef.b * np.conj(alpha_r) + noise
    counts = 2.0 * np.real(np.conj(d1) * alpha_i)
    var_sym = float(counts.var(ddof=1))
    m4 = float(np.mean((counts - counts.mean()) ** 4))
    return (float(counts.mean()), var_sym - 0.5,
            float(counts.std(ddof=1)) / math.sqrt(samples),
            math.sqrt(max(m4 - var_sym ** 2, 0.0) / samples))


# a channel of None is the bright one, at the reference eta with the exact H1 background
@pytest.mark.parametrize("hyp, seed, samples, kappa_i, channel", [
    *(pytest.param(hyp, seed, 50000, 0.6, None, id=f"Hypothesis.{hyp}-{seed}")
      for hyp in ("H0", "H1") for seed in (11, 12)),
    # several blocks and a ragged tail, so a mis-ordered block loop shows
    *(pytest.param(hyp, 13, 2 * _MC_BLOCK + 3, 0.6, None,
                   id=f"Hypothesis.{hyp}-blocks-and-tail")
      for hyp in ("H0", "H1")),
    # lossless idler: the detected pair is the return pair itself
    *(pytest.param(hyp, 13, 2 * _MC_BLOCK + 3, 1.0, None,
                   id=f"Hypothesis.{hyp}-blocks-and-tail-lossless")
      for hyp in ("H0", "H1")),
    pytest.param("H1", 14, 2, 0.6, None, id="two-samples"),
    # a lossless target and no background, where the count's mean is 0.6 of its sd (0.08
    # at the demo point): the moments come from power sums about the first block's mean,
    # and the mean left in them is largest here
    pytest.param("H1", 15, 2 * _MC_BLOCK + 3, 0.6, TargetChannelParams(eta=1.0, n_b=0.0),
                 id="mean-near-sd-blocks-and-tail"),
])
def test_mc_oracle_pins_draw_order(ref_moments, ref_channel, ref_coefficients, baths, cm,
                                   hyp, seed, samples, kappa_i, channel):
    # a thermal optical bath and the exact H1 background, and at kappa_i < 1
    # a lossy idler (vacuum port in the detected pair), so every entry of the
    # receiver map is exercised
    ch = channel or TargetChannelParams(eta=ref_channel.eta,
                                        n_b=600.0 / (1.0 - ref_channel.eta))
    rx = ReceiverParams(ref_coefficients, idler_transmissivity=kappa_i)
    warm = mwqi.BathOccupations(n_w=baths.n_w, n_o=0.4, n_b=baths.n_b)
    ch = _hypothesis_channel(hyp, ch)
    mc = mc_receiver_statistics(ref_moments, ch, rx, warm, samples=samples, seed=seed)
    ref = _reference_mc(ref_moments, ch, rx, warm, samples, seed, cm)
    assert (mc.mu, mc.var, mc.se_mu, mc.se_var) == pytest.approx(ref, rel=1e-12, abs=0)


def test_mc_weights_gram_matches_exact_oracle(params):
    # the sampler maps a row of 6 standard normals to (2 Re d_1, Re d_2, 2 Im d_1, Im d_2)
    # by the weights of _mc_weights, so its covariance is their Gram matrix W W^T:
    # [[4 v_1, 2 k], [2 k, v_2]] in each of the Re and Im blocks and 0 between them.  The
    # Gram is formed exactly from the float weights.  Its entries add the detected pair's
    # conditional variance s'/a back to c'^2/a, which hides how s' was rounded, so each
    # block's determinant 4 (v_1 v_2 - k^2) is checked too: it goes as s' where the pair
    # is strongly correlated.  Drives are drawn by d = 1 + 2 Gamma_w - 2 Gamma_o down to
    # 1e-2, which reaches such pairs at eta = 1.
    rng = random.Random(30)

    def draw(edge, value):
        return edge if rng.random() < 0.25 else value

    points, seen = 0, set()
    while points < 60:
        gamma_w = 10 ** rng.uniform(-4, 5)
        d = 10 ** rng.uniform(-2, math.log10(1.0 + 2.0 * gamma_w))
        coop = mwqi.Cooperativities(gamma_w, (1.0 + 2.0 * gamma_w - d) / 2.0)
        if not mwqi.is_stable(coop, params).stable:
            continue
        points += 1
        # warm baths, so that every term of the receiver noise is in play
        baths = mwqi.BathOccupations(10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-3, 1),
                                     10 ** rng.uniform(-1, 5))
        coef = mwqi.coefficients(coop)
        source = mwqi.source_moments(coef, baths.n_w, baths.n_o, baths.n_b)
        eta, n_b = draw(1.0, 10 ** rng.uniform(-4, 0)), draw(0.0, 10 ** rng.uniform(-3, 4))
        for k_i in (1.0, 0.6, 1e-6):
            rx = ReceiverParams(coef, k_i)
            blocks = _exact_receiver_blocks(coop.gamma_w, coop.gamma_o, baths, eta, n_b, k_i)
            for hyp, (v_1, v_2, k) in zip(("H0", "H1"), blocks):
                ch = _hypothesis_channel(hyp, TargetChannelParams(eta, n_b))
                with localcontext() as ctx:
                    ctx.prec = 60
                    rows = [{col: Decimal(w) for col, w in terms}
                            for terms in _mc_weights(source, ch, rx, baths)]
                    gram = [[sum((r[col] * q[col] for col in r.keys() & q.keys()), Decimal(0))
                             for q in rows] for r in rows]
                    block = [[4 * v_1, 2 * k], [2 * k, v_2]]
                    for i, j in itertools.product(range(4), repeat=2):
                        want = block[i % 2][j % 2] if i // 2 == j // 2 else 0
                        assert (gram[i][j] == want if want == 0 else
                                abs(gram[i][j] / want - 1) <= 1e-13), (coop, baths, ch, k_i, i, j)
                    for lo in (0, 2):
                        det = gram[lo][lo] * gram[lo + 1][lo + 1] - gram[lo][lo + 1] ** 2
                        assert abs(det / (4 * (v_1 * v_2 - k * k)) - 1) <= 1e-13, (
                            coop, baths, ch, k_i, "det")
                    correlated = v_1 * v_2 > 10 ** 6 * (v_1 * v_2 - k * k)
                seen |= {name for name, hit in (
                    ("eta = 1", eta == 1.0), ("n_B = 0", n_b == 0.0), ("H0", hyp == "H0"),
                    ("correlated", correlated)) if hit}
    assert seen == {"eta = 1", "n_B = 0", "H0", "correlated"}


@pytest.mark.parametrize("make", [
    *(pytest.param(lambda m, ch, r=r: mwqi.two_mode_squeezed_vacuum(r), id=f"tmsv-{r}")
      for r in (0.5, 3.0, 6.0, 9.0)),
    *(pytest.param(lambda m, ch, hyp=hyp: return_state(m, _hypothesis_channel(hyp, ch)),
                   id=f"return-Hypothesis.{hyp}")
      for hyp in ("H0", "H1")),
    *(pytest.param(lambda m, ch, hyp=hyp: _detected_pair(m, _hypothesis_channel(hyp, ch), 0.6),
                   id=f"detected-Hypothesis.{hyp}")
      for hyp in ("H0", "H1")),
])
def test_pair_factor_determinant_is_s(make, ref_moments, ref_channel):
    # det cm = s^2 and the factor is triangular with diagonal sqrt(a), sqrt(a),
    # sqrt(s/a), sqrt(s/a), so det F = s even near a pure state, where an
    # eigendecomposition's clipped eigenvalues are off (0.978 for 1 at r = 9)
    pair = make(ref_moments, ref_channel)
    assert abs(np.linalg.det(_pair_factor(pair))) == pytest.approx(pair.s, rel=1e-14, abs=0)


@pytest.mark.parametrize("kappa_i, runs", [(1.0, 6), (0.6, 6)],
                         ids=["lossless-idler", "lossy-idler"])
def test_mc_oracle_reads_exactly_the_normals_it_needs(monkeypatch, ref_moments, ref_channel,
                                                      ref_coefficients, baths, kappa_i, runs):
    # the detected pair's 4 quadratures and the receiver noise's Re/Im per sample,
    # whether or not the idler is lossy: the stream ends where the draws end
    default_rng, built = np.random.default_rng, []

    def recording_rng(seed):
        built.append(default_rng(seed))
        return built[-1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    samples = 2 * _MC_BLOCK + 3
    rx = ReceiverParams(ref_coefficients, idler_transmissivity=kappa_i)
    mc_receiver_statistics(ref_moments, ref_channel, rx, baths, samples=samples, seed=7)
    expected = default_rng(7)
    expected.standard_normal(runs * samples)
    assert len(built) == 1
    assert built[0].bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize("kappa_i, samples", [
    pytest.param(kappa_i, samples, id=f"{name}-idler{tag}")
    for samples, tag in ((10 ** 6, ""), (4 * 10 ** 6, "-4e6-samples"))
    for kappa_i, name in ((1.0, "lossless"), (0.6, "lossy"))])
def test_mc_oracle_peak_memory(ref_moments, ref_channel, ref_coefficients, baths, kappa_i,
                               samples):
    # blocks of fixed size, whatever the sample count: the block of normals (786 kB) and
    # four rows of its length (524 kB), and no row of counts
    rx = ReceiverParams(ref_coefficients, idler_transmissivity=kappa_i)
    # a first call imports numpy.random, whose 0.7 MB is no part of the oracle's memory
    mc_receiver_statistics(ref_moments, ref_channel, rx, baths, samples=2)
    tracemalloc.start()
    try:
        mc_receiver_statistics(ref_moments, ref_channel, rx, baths, samples=samples, seed=1)
        assert tracemalloc.get_traced_memory()[1] < 2e6
    finally:
        tracemalloc.stop()


_CORETYPE_CHILD = """
import sys
import mwqi
from mwqi.detection import _MC_BLOCK
gamma_w, gamma_o, eta, n_b = map(float, sys.argv[1:])
coef = mwqi.coefficients(mwqi.Cooperativities(gamma_w, gamma_o))
baths = mwqi.bath_occupations(mwqi.nominal_params())
source = mwqi.source_moments(coef, baths.n_w, baths.n_o, baths.n_b)
for kappa_i in (1.0, 0.6):
    mc = mwqi.mc_receiver_statistics(source, mwqi.TargetChannelParams(eta, n_b),
                                     mwqi.ReceiverParams(coef, kappa_i), baths,
                                     samples=2 * _MC_BLOCK + 3, seed=3)
    print(mc.mu.hex(), mc.var.hex(), mc.se_mu.hex(), mc.se_var.hex())
"""


def test_mc_oracle_does_not_depend_on_the_blas_kernel(ref_coop, ref_channel):
    """The same seed gives the same bits whichever CPU kernel OpenBLAS picks.

    OpenBLAS built with DYNAMIC_ARCH, as numpy's wheels are, picks its kernels
    for the CPU at run time, and ``OPENBLAS_CORETYPE`` overrides the pick;
    kernels differ in summation order and fused multiply-adds, so any BLAS
    call on the samples (a matrix product, a dot) moves the last bits.  An
    OpenBLAS built without DYNAMIC_ARCH ignores the variable, and then both
    runs use one kernel and agree whatever the oracle calls.
    """
    src = pathlib.Path(mwqi.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    args = [repr(value) for value in (ref_coop.gamma_w, ref_coop.gamma_o,
                                      ref_channel.eta, ref_channel.n_b)]
    outputs = [subprocess.run([sys.executable, "-c", _CORETYPE_CHILD, *args],
                              env=dict(env, **extra), capture_output=True, text=True,
                              timeout=120, check=True).stdout
               for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"})]
    assert len(outputs[0].split()) == 8
    assert outputs[0] == outputs[1]
