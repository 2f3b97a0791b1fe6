import math
import tracemalloc
from decimal import Decimal, getcontext, localcontext

import numpy as np
import pytest
from scipy.special import erfc

import mwqi
from mwqi import (
    DetectionStatistics,
    Hypothesis,
    ReceiverParams,
    SourceMoments,
    TargetChannelParams,
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


# ---------------------------------------------------------------------------
# return channel
# ---------------------------------------------------------------------------

def test_return_state_vanishing_transmissivity(ref_moments):
    ch = TargetChannelParams(eta=0.0, n_b=50.0)
    h0 = return_state(ref_moments, ch, Hypothesis.H0)
    h1 = return_state(ref_moments, ch, Hypothesis.H1)
    assert np.allclose(np.asarray(h0.cm, float), np.asarray(h1.cm, float))


def test_return_state_lossless(ref_moments):
    ch = TargetChannelParams(eta=1.0, n_b=777.0)
    h1 = return_state(ref_moments, ch, Hypothesis.H1)
    src = mwqi.source_state(ref_moments)
    assert np.allclose(np.asarray(h1.cm, float), np.asarray(src.cm, float))


def test_return_state_reference_numbers():
    # published operating point: cross_R = sqrt(0.07) * 1.084, and the
    # return occupation is dominated by the bright background
    m = SourceMoments(n_w=0.739, n_o=0.681, cross=1.084)
    ch = TargetChannelParams(eta=0.07, n_b=610.0)
    state = return_state(m, ch, Hypothesis.H1)
    cm = np.asarray(state.cm, float)
    n_r = (cm[0, 0] - 1.0) / 2
    cross_r = cm[0, 2] / 2
    assert cross_r == pytest.approx(math.sqrt(0.07) * 1.084, rel=1e-12)
    assert cross_r == pytest.approx(0.2868, abs=5e-4)
    assert n_r == pytest.approx(567.4, abs=0.1)


def test_return_cross_independent_of_background(ref_moments):
    cross = []
    occ = []
    for n_b in (10.0, 100.0, 1000.0):
        cm = np.asarray(return_state(
            ref_moments, TargetChannelParams(eta=0.05, n_b=n_b), Hypothesis.H1).cm, float)
        cross.append(cm[0, 2])
        occ.append(cm[0, 0])
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
    m = SourceMoments(n_w=1.0, n_o=1.0, cross=0.5)
    assert entanglement_threshold(m, 0.3) == 0.0


def test_threshold_separates_entangled_return(ref_moments, ref_channel):
    # with the exact H1 background, n_b / (1 - eta), the separability
    # boundary sits exactly at the threshold value
    eta = ref_channel.eta
    thresh = entanglement_threshold(ref_moments, eta)
    for factor, entangled in ((0.8, True), (1.2, False)):
        ch = TargetChannelParams(eta=eta, n_b=factor * thresh / (1.0 - eta))
        state = return_state(ref_moments, ch, Hypothesis.H1)
        assert (log_negativity(state) > 0.0) is entangled


# ---------------------------------------------------------------------------
# receiver statistics
# ---------------------------------------------------------------------------

def test_receiver_no_correlation_no_signal(ref_channel, ref_receiver, baths):
    m = SourceMoments(n_w=0.5, n_o=0.5, cross=0.0)
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


@pytest.mark.parametrize("stats", [
    (0.0, 1e200, 1.0, 1.0),  # the squared mean shift; it raised a bare range error
    (0.0, 1e154, 1e308, 1e308),  # the squared denominator, likewise
    (0.0, 1.0, math.inf, 1.0),  # an infinite variance, else a silently blind receiver
    (0.0, 1e150, 1e-200, 1e-200),  # the quotient
    (math.nan, 1.0, 1.0, 1.0),
], ids=["mean-shift", "denominator", "variance", "quotient", "nan-mean"])
def test_snr_overflow_is_named(stats):
    with pytest.raises(OverflowError, match="receiver statistics overflow float64: mu0="):
        snr_per_mode(*stats)


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
    m = SourceMoments(n_w=0.5, n_o=0.5, cross=0.0)
    assert figure_of_merit(m, ref_channel, ref_receiver, baths) == 0.0


def test_fom_reference_advantage(ref_moments, ref_channel, ref_receiver, baths):
    assert figure_of_merit(ref_moments, ref_channel, ref_receiver, baths) > 1.0


def test_fom_bright_background_asymptote(ref_moments, ref_channel, ref_receiver, baths):
    foms = [figure_of_merit(ref_moments,
                            TargetChannelParams(eta=ref_channel.eta, n_b=n_b),
                            ref_receiver, baths)
            for n_b in np.geomspace(1e2, 1e6, 9)]
    assert abs(foms[-1] - foms[-2]) / foms[-1] < 1e-3


# ---------------------------------------------------------------------------
# fiber range
# ---------------------------------------------------------------------------

def test_fiber_range_values():
    assert max_fiber_range(0.2, 2.0 / 3.0, 3.0) == pytest.approx(11.25, abs=1e-12)
    assert max_fiber_range(0.4, 2.0 / 3.0, 3.0) == pytest.approx(5.625, abs=1e-12)
    assert max_fiber_range(0.2, 2.0 / 3.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        max_fiber_range(0.0, 0.5)


# ---------------------------------------------------------------------------
# Monte-Carlo oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
def test_mc_oracle_agrees_with_closed_form(ref_moments, ref_channel, ref_receiver,
                                           baths, hypothesis):
    stats = receiver_statistics(ref_moments, ref_channel, ref_receiver, baths)
    mc = mc_receiver_statistics(ref_moments, ref_channel, ref_receiver, baths,
                                hypothesis, samples=300000, seed=99)
    mu_cf = stats.mu1 if hypothesis is Hypothesis.H1 else stats.mu0
    var_cf = stats.var1 if hypothesis is Hypothesis.H1 else stats.var0
    assert abs(mc.mu - mu_cf) <= 3 * mc.se_mu
    assert abs(mc.var - var_cf) <= 3 * mc.se_var


def test_mc_oracle_deterministic(ref_moments, ref_channel, ref_receiver, baths):
    a = mc_receiver_statistics(ref_moments, ref_channel, ref_receiver, baths,
                               Hypothesis.H1, samples=10000, seed=5)
    b = mc_receiver_statistics(ref_moments, ref_channel, ref_receiver, baths,
                               Hypothesis.H1, samples=10000, seed=5)
    assert a == b


def _reference_mc(source, ch, rx, baths, hypothesis, samples, seed):
    """Per-mode complex-amplitude sampler that pins the oracle's draw order.

    Draws the return-idler quadratures as rows of 4, then Re/Im of the
    optical bath, the mechanical bath and the vacuum port, and applies the
    receiver map to complex amplitudes mode by mode.
    """
    coef, k_i = rx.coef, rx.idler_transmissivity
    rng = np.random.default_rng(seed)
    w, u = np.linalg.eigh(np.asarray(return_state(source, ch, hypothesis).cm, float))
    q = rng.standard_normal((samples, 4)) @ (u * np.sqrt(np.clip(w, 0.0, None))).T
    alpha_r = (q[:, 0] + 1j * q[:, 1]) / 2.0
    alpha_i = (q[:, 2] + 1j * q[:, 3]) / 2.0

    def thermal_amplitudes(n):
        sd = math.sqrt((2.0 * n + 1.0) / 4.0)
        return rng.normal(0.0, sd, samples) + 1j * rng.normal(0.0, sd, samples)

    alpha_o_in = thermal_amplitudes(baths.n_o)
    alpha_b_in = thermal_amplitudes(baths.n_b)
    alpha_vac = thermal_amplitudes(0.0)
    d1 = coef.b * np.conj(alpha_r) + coef.a_o * alpha_o_in - coef.c_o * np.conj(alpha_b_in)
    d2 = math.sqrt(k_i) * alpha_i + math.sqrt(1.0 - k_i) * alpha_vac
    counts = 2.0 * np.real(np.conj(d1) * d2)
    var_sym = float(counts.var(ddof=1))
    m4 = float(np.mean((counts - counts.mean()) ** 4))
    return (float(counts.mean()), var_sym - 0.5,
            float(counts.std(ddof=1)) / math.sqrt(samples),
            math.sqrt(max(m4 - var_sym ** 2, 0.0) / samples))


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
def test_mc_oracle_pins_draw_order(ref_moments, ref_channel, ref_coefficients, baths,
                                   hypothesis, seed):
    # lossy idler (vacuum port in use), a thermal optical bath and the exact
    # H1 background, so every entry of the receiver map is exercised
    ch = TargetChannelParams(eta=ref_channel.eta, n_b=600.0 / (1.0 - ref_channel.eta))
    rx = ReceiverParams(ref_coefficients, idler_transmissivity=0.6)
    warm = mwqi.BathOccupations(n_w=baths.n_w, n_o=0.4, n_b=baths.n_b)
    mc = mc_receiver_statistics(ref_moments, ch, rx, warm, hypothesis,
                                samples=50000, seed=seed)
    ref = _reference_mc(ref_moments, ch, rx, warm, hypothesis, 50000, seed)
    assert (mc.mu, mc.var, mc.se_mu, mc.se_var) == pytest.approx(ref, rel=1e-12, abs=0)


def test_mc_oracle_peak_memory(ref_moments, ref_channel, ref_receiver, baths):
    tracemalloc.start()
    try:
        mc_receiver_statistics(ref_moments, ref_channel, ref_receiver, baths,
                               Hypothesis.H1, samples=10 ** 6, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150e6
