"""Target detection: return channel, microwave-to-optical phase-conjugate
receiver, difference-photocount statistics, error probabilities, and the
quantum-advantage figure of merit.

Detection model
---------------
The microwave signal interrogates a region that either contains a weakly
reflecting object (hypothesis H1) or not (H0).  The returned mode is
c_R = sqrt(eta) d_w + sqrt(1 - eta) c_B, with c_B a bright thermal
background; H0 is the same channel at eta = 0, where c_R = c_B.  A second,
identical converter feeds the return into its microwave port and emits the
phase-conjugated, upconverted optical mode

    d_1 = b c_R* + a_o c_o,in' - c_o b_int'*

which is combined with the (possibly lossy) retained idler d_2 on a balanced
beam splitter; the photocounts of the two outputs are subtracted.  That
difference equals the quadratic form N = d_1* d_2 + d_2* d_1 mode pair by
mode pair.

Because the joint (d_1, d_2) state is zero-mean Gaussian with no
phase-sensitive moments (the conjugation turns the two-mode-squeezing
correlation into a beam-splitter-type correlation S = <d_1* d_2>), the
per-pair statistics follow from Gaussian moment factorization:

    mean     mu  = 2 S
    variance var = 2 S^2 + 2 N_1 N_2 + N_1 + N_2

with N_i the mode occupations.  For M >> 1 independent pairs the aggregate
count is Gaussian and the minimum error probability of the threshold test is
erfc(sqrt(SNR/8))/2 with SNR = M * 4 (mu1 - mu0)^2 / (sqrt(var0) + sqrt(var1))^2.
The same SNR definition applied to homodyne detection of a coherent-state
probe (mean shift 2 sqrt(eta n_w), quadrature variance 2 n_B + 1) gives the
classical benchmark 4 eta M n_w / (2 n_B + 1), which anchors the convention.
The benchmark charges 2 n_B + 1 under both hypotheses, while the QI return
keeps (1 - eta) n_B of background under H1.  On that same channel (variance
2 (1 - eta) n_B + 1 under H1) the benchmark would be 16 eta M n_w /
(sqrt(2 n_B + 1) + sqrt(2 (1 - eta) n_B + 1))^2, larger by a factor between 1
and 4 / (1 + sqrt(1 - eta))^2 = 1 + O(eta); the figure of merit is larger by
the same factor, 3.7 % at eta = 0.07.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .converter import BathOccupations, EomCoefficients, SourceMoments, planck_occupation
from .states import TwoModeGaussianState

__all__ = [
    "TargetChannelParams",
    "ReceiverParams",
    "DetectionStatistics",
    "McReceiverStatistics",
    "return_state",
    "entanglement_threshold",
    "receiver_statistics",
    "snr_per_mode",
    "error_probability",
    "log10_error_probability",
    "error_probability_qi",
    "coherent_snr_per_mode",
    "error_probability_coherent",
    "figure_of_merit",
    "max_fiber_range",
    "mc_receiver_statistics",
]


@dataclass(frozen=True)
class TargetChannelParams:
    """Roundtrip target channel; the no-target hypothesis H0 is this channel at eta = 0.

    Attributes
    ----------
    eta : float
        Roundtrip transmitter-to-target-to-receiver transmissivity, including
        propagation loss and target reflectivity; the physical regime is
        0 < eta << 1, and eta = 0 under H0.
    n_b : float
        Mean background photon number per mode, under both hypotheses.  For
        the background that leaves exactly n_b in the return under H1
        (Tan et al., PRL 101, 253601 (2008)), pass n_b / (1 - eta).
    """

    eta: float
    n_b: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if not 0.0 <= self.n_b < math.inf:
            raise ValueError("n_b must be finite and >= 0")

    @classmethod
    def from_temperature(cls, eta: float, t_b: float, omega_w: float) -> "TargetChannelParams":
        """Channel with the background occupation set by the Planck law at omega_w."""
        return cls(eta=eta, n_b=planck_occupation(omega_w, t_b))


@dataclass(frozen=True)
class ReceiverParams:
    """Receiver converter (identical to the transmitter's) and idler storage loss."""

    coef: EomCoefficients
    idler_transmissivity: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.idler_transmissivity <= 1.0:
            raise ValueError("idler_transmissivity must lie in (0, 1]")


class DetectionStatistics(NamedTuple):
    """Per-mode-pair difference-photocount statistics under both hypotheses.

    ``mu0`` and ``var0`` are those of the channel at eta = 0 (H0), ``mu1``
    and ``var1`` those of the channel as given (H1).
    ``snr_per_m`` is the coefficient such that SNR(M) = M * snr_per_m.
    """

    mu0: float
    mu1: float
    var0: float
    var1: float
    snr_per_m: float


@dataclass(frozen=True)
class McReceiverStatistics:
    """Sampled difference-photocount statistics with standard errors."""

    mu: float
    var: float
    se_mu: float
    se_var: float
    samples: int


def return_state(source: SourceMoments, ch: TargetChannelParams) -> TwoModeGaussianState:
    """Joint state of the returned microwave mode and the retained idler.

    The return carries eta of the signal:
    n_R = eta n_w + (1 - eta) n_B', cross_R = sqrt(eta) |<d_w d_o>|, and the
    idler marginal is unchanged.  cross_R does not depend on the background
    brightness.  The pair's invariant follows from the source's as
    s_R = eta s + (1 - eta)(2 n_B' + 1) b.  For H0 pass the channel at
    eta = 0, ``TargetChannelParams(0.0, ch.n_b)``: the bare background,
    uncorrelated with the idler.
    """
    n_r = ch.eta * source.n_w + (1.0 - ch.eta) * ch.n_b
    b = 2.0 * source.n_o + 1.0
    s_r = ch.eta * source.s + (1.0 - ch.eta) * (2.0 * ch.n_b + 1.0) * b
    cross_r = math.sqrt(ch.eta) * source.cross
    return TwoModeGaussianState(2.0 * n_r + 1.0, b, 2.0 * cross_r, s_r)


def entanglement_threshold(source: SourceMoments, eta: float) -> float:
    """Background brightness above which return and idler are separable.

    eta * (|<d_w d_o>|^2 / n_o - n_w), clamped at zero; a separable source
    (cross^2 <= n_w n_o) gives zero.
    """
    if source.cross == 0.0:
        return 0.0
    if source.n_o <= 0:
        raise ValueError("threshold undefined at n_o = 0")
    return max(0.0, eta * (source.cross * source.cross / source.n_o - source.n_w))


def snr_per_mode(mu0: float, mu1: float, var0: float, var1: float) -> float:
    """Generic threshold-test SNR coefficient, 4 (mu1 - mu0)^2 / (sqrt(var0) + sqrt(var1))^2.

    A statistic or SNR that is not finite raises OverflowError, which names them.
    """
    if var0 <= 0 or var1 <= 0:
        if mu1 == mu0:
            return 0.0  # no photons at all: a blind receiver, not an error
        raise ValueError("variances must be > 0")
    dmu, sd = mu1 - mu0, math.sqrt(var0) + math.sqrt(var1)
    # squares by products, which IEEE rounds alike on every platform; libm pow may not
    sd2 = sd * sd
    snr = 4.0 * (dmu * dmu) / sd2
    if snr == math.inf or sd2 == math.inf:  # a square can overflow where the snr does not
        q = dmu / sd
        snr = 4.0 * (q * q)
    # a non-finite mean reaches snr; an infinite variance alone would give a blind snr 0
    if not math.isfinite(snr + sd):
        raise OverflowError("receiver statistics overflow float64: "
                            f"mu0={mu0!r}, mu1={mu1!r}, var0={var0!r}, var1={var1!r}")
    return snr


def receiver_statistics(source: SourceMoments, ch: TargetChannelParams,
                        rx: ReceiverParams, baths: BathOccupations) -> DetectionStatistics:
    """Closed-form difference-photocount statistics of the receiver.

    The receiver's internal baths carry the occupations of the transmitter's
    converter (``baths``); the retained idler passes a beam splitter of
    transmissivity kappa_I = ``rx.idler_transmissivity`` mixing in vacuum
    before detection.  For the channel at eta = 0 (H0) and as given (H1),
    with n_R = eta n_w + (1 - eta) n_B and cross_R = sqrt(eta) |<d_w d_o>|
    from the return channel, the conjugated return and the lossy idler carry

        N_1 = b^2 (n_R + 1) + a_o^2 n_o^T + c_o^2 (n_b^T + 1)
        N_2 = kappa_I n_o,    S = b sqrt(kappa_I) cross_R

    and the per-pair count has mean 2 S and variance 2 S^2 + 2 N_1 N_2 + N_1 + N_2.
    """
    coef, k_i, eta = rx.coef, rx.idler_transmissivity, ch.eta
    # squares by products, which IEEE rounds alike on every platform; libm pow may not
    n_2, b2 = k_i * source.n_o, coef.b * coef.b
    optical = coef.a_o * coef.a_o * baths.n_o
    mechanical = coef.c_o * coef.c_o * (baths.n_b + 1.0)
    # H0: n_R = n_B and S = 0 exactly, so the mean is 0
    n_1 = b2 * (ch.n_b + 1.0) + optical + mechanical
    var0 = 2.0 * n_1 * n_2 + n_1 + n_2
    n_1 = b2 * (eta * source.n_w + (1.0 - eta) * ch.n_b + 1.0) + optical + mechanical
    s = coef.b * math.sqrt(k_i) * (math.sqrt(eta) * source.cross)
    mu1, var1 = 2.0 * s, 2.0 * s * s + 2.0 * n_1 * n_2 + n_1 + n_2
    # as _make does: tuple.__new__ skips the generated Python-level __new__, half the cost
    return tuple.__new__(DetectionStatistics,
                         (0.0, mu1, var0, var1, snr_per_mode(0.0, mu1, var0, var1)))


def _erfc_argument(snr_per_m: float, modes: float) -> float:
    """z = sqrt(M * snr / 8), the erfc argument of the M-pair test."""
    # negated comparisons, so that NaN fails them
    if not modes >= 1:
        raise ValueError("mode count must be >= 1")
    if not snr_per_m >= 0:
        raise ValueError("snr must be >= 0")
    if snr_per_m == 0.0:
        return 0.0  # a blind receiver, even at M = inf
    return math.sqrt(modes * snr_per_m / 8.0)


def _log_half_erfc(z: float) -> float:
    if z < 26.0:
        # erfc(z) >= 5.7e-296 here, a normal double
        return math.log(0.5 * math.erfc(z))
    # erfc(z) e^{z^2} z sqrt(pi) = 1 - t + 3t^2 - 15t^3 + 105t^4 - 945t^5 + ...
    # with t = 1/(2 z^2) (Abramowitz & Stegun 7.1.23); the first omitted term,
    # 10395 t^6 < 2e-15 at z = 26, is below 3e-18 of the log from here on
    t = 0.5 / (z * z)
    series = t * (1.0 - 3.0 * t * (1.0 - 5.0 * t * (1.0 - 7.0 * t * (1.0 - 9.0 * t))))
    return -z * z - math.log(2.0 * math.sqrt(math.pi) * z) + math.log1p(-series)


def error_probability(snr_per_m: float, modes: float) -> float:
    """Error probability erfc(sqrt(M * snr / 8)) / 2 of the M-pair test.

    Evaluated directly with the stdlib erfc: accurate to full double
    precision down to the normal floor (2.2e-308), subnormal below that, and
    0 past z = sqrt(M * snr / 8) ~ 27.3; use :func:`log10_error_probability`
    for smaller values.  Valid in the many-pair Gaussian regime M >> 1.
    """
    return 0.5 * math.erfc(_erfc_argument(snr_per_m, modes))


def log10_error_probability(snr_per_m: float, modes: float) -> float:
    """Base-10 log of the error probability; usable far below the float floor."""
    return _log_half_erfc(_erfc_argument(snr_per_m, modes)) / math.log(10.0)


def error_probability_qi(stats: DetectionStatistics, modes: float) -> float:
    """Error probability of the phase-conjugate receiver with M mode pairs."""
    return error_probability(stats.snr_per_m, modes)


def coherent_snr_per_mode(n_w: float, ch: TargetChannelParams) -> float:
    """Per-mode SNR of the homodyne-detected coherent-state benchmark.

    4 eta n_w / (2 n_B + 1): the optimal classical transmitter of the same
    mean photon number per mode.  The variance is the H0 one, 2 n_B + 1, under
    both hypotheses; the H1 channel of :func:`return_state`, with variance
    2 (1 - eta) n_B + 1, would raise the benchmark by a factor in
    [1, 4 / (1 + sqrt(1 - eta))^2], that is by O(eta).
    """
    return 4.0 * ch.eta * n_w / (2.0 * ch.n_b + 1.0)


def error_probability_coherent(n_w: float, ch: TargetChannelParams, modes: float) -> float:
    """Error probability of the coherent-state benchmark with M modes."""
    return error_probability(coherent_snr_per_mode(n_w, ch), modes)


def figure_of_merit(source: SourceMoments, ch: TargetChannelParams,
                    rx: ReceiverParams, baths: BathOccupations) -> float:
    """Quantum-advantage figure of merit, SNR_QI / SNR_coherent.

    The mode count cancels; values above 1 mean the entangled transmitter
    beats every classical transmitter of the same per-mode energy.
    """
    stats = receiver_statistics(source, ch, rx, baths)
    benchmark = coherent_snr_per_mode(source.n_w, ch)
    if benchmark == 0.0:
        return 0.0  # dark channel or empty signal: neither system sees anything
    return stats.snr_per_m / benchmark


def max_fiber_range(loss_db_per_km: float, speed_fraction: float,
                    loss_budget_db: float = 3.0) -> float:
    """Maximum free-space target range with a fiber-delay-line idler, in km.

    The idler is stored in a fiber of the longest length the loss budget
    allows, L = budget / loss, providing a delay L / (speed_fraction * c).
    Matching it to the signal roundtrip, 2 R / c = L / (speed_fraction * c),
    gives R = L / (2 * speed_fraction): slower fiber propagation buys more
    storage time per km.  The default 3 dB budget is the idler loss beyond
    which the phase-conjugate receiver's advantage disappears.
    """
    if loss_db_per_km <= 0 or speed_fraction <= 0:
        raise ValueError("loss and speed fraction must be > 0")
    if loss_budget_db < 0:
        raise ValueError("loss budget must be >= 0")
    return (loss_budget_db / loss_db_per_km) / (2.0 * speed_fraction)


_MC_BLOCK = 1 << 14  # samples per block of the Monte-Carlo oracle


def _pair_factor(pair: TwoModeGaussianState) -> np.ndarray:
    """Triangular F, F.T @ F the pair's covariance, from a, c and s in + - * / and sqrt.

    A row z of 4 standard normals maps to z @ F = (x_1, p_1, x_2, p_2), with
    x_1 = sqrt(a) z_1, x_2 = (c / sqrt(a)) z_1 + sqrt(s / a) z_3 and p alike
    with -c.  The maker's s keeps det F = s exact even near a pure state.
    The Monte-Carlo oracle factors the detected pair of :func:`_detected_pair`,
    the return and the idler after its loss.
    """
    ra, cond = math.sqrt(pair.a), math.sqrt(pair.s / pair.a)
    cross = pair.c / ra
    return np.array([[ra, 0.0, cross, 0.0],
                     [0.0, ra, 0.0, -cross],
                     [0.0, 0.0, cond, 0.0],
                     [0.0, 0.0, 0.0, cond]])


def _detected_pair(source: SourceMoments, ch: TargetChannelParams,
                   k_i: float) -> TwoModeGaussianState:
    """The return and the idler after a beam splitter of transmissivity kappa_I = ``k_i``.

    The vacuum port turns the idler's b into kappa_I b + 1 - kappa_I and its c into
    sqrt(kappa_I) c, so s' = a b' - c'^2 = kappa_I s + (1 - kappa_I) a: a sum with no
    cancellation, and the pair itself at kappa_I = 1.
    """
    pair = return_state(source, ch)
    return TwoModeGaussianState(pair.a, k_i * pair.b + (1.0 - k_i), math.sqrt(k_i) * pair.c,
                                k_i * pair.s + (1.0 - k_i) * pair.a)


def _mc_weights(source: SourceMoments, ch: TargetChannelParams, rx: ReceiverParams,
                baths: BathOccupations) -> tuple[tuple[tuple[int, float], ...], ...]:
    """The (column, weight) terms of a row of 6 normals that sum to 2 Re d_1, Re d_2,
    2 Im d_1 and Im d_2, in that order.

    Columns 0-3 map through the detected pair's factor to (x_R, p_R, x_I', p_I');
    columns 4 and 5 are Re and Im of the receiver noise a_o alpha_o - c_o alpha_b*,
    whose two independent thermal amplitudes sum to one of variance
    (a_o^2 (2 n_o^T + 1) + c_o^2 (2 n_b^T + 1)) / 4 in each quadrature.
    N = 2 Re(d_1* d_2) takes its factor 2 on d_1, an exact scaling.
    """
    coef = rx.coef
    f = _pair_factor(_detected_pair(source, ch, rx.idler_transmissivity))
    noise = math.sqrt(coef.a_o * coef.a_o * (2.0 * baths.n_o + 1.0)
                      + coef.c_o * coef.c_o * (2.0 * baths.n_b + 1.0))
    return (((0, f[0, 0] * coef.b), (4, noise)),
            ((0, f[0, 2] / 2.0), (2, f[2, 2] / 2.0)),
            ((1, f[1, 1] * -coef.b), (5, noise)),
            ((1, f[1, 3] / 2.0), (3, f[3, 3] / 2.0)))


def mc_receiver_statistics(source: SourceMoments, ch: TargetChannelParams,
                           rx: ReceiverParams, baths: BathOccupations,
                           samples: int = 10 ** 6, seed: int = 0) -> McReceiverStatistics:
    """Monte-Carlo oracle for the difference-photocount statistics of channel ``ch``.

    Sample H0 by passing the channel at eta = 0, ``TargetChannelParams(0.0, ch.n_b)``.

    Each sample reads one row of 6 standard normals from one generator, at
    every kappa_I.  Rows are drawn in blocks of at most ``_MC_BLOCK`` samples
    (the same numbers as one unblocked draw), each block is pushed through
    the real receiver map, and the power sums of its counts about the first
    block's mean are added up while it is in cache.  Memory is blocks of
    fixed size, whatever the sample count.  Only
    numpy ufuncs and sums touch the samples, so no BLAS or LAPACK routine
    does, and the statistics do not depend on the kernel a BLAS build picks.
    Kept independent of the closed forms in :func:`receiver_statistics`:
    only the input states and the linear receiver map are shared.

    The draw order is part of the seed contract.  A row's first 4 normals
    map through the triangular factor (:func:`_pair_factor`) of the detected
    pair (:func:`_detected_pair`: the return and the idler after its kappa_I
    loss) to the quadratures (x_R, p_R, x_I', p_I'); normals 4 and 5 are the
    real and imaginary parts of the receiver noise a_o alpha_o - c_o alpha_b*
    (:func:`_mc_weights`).  The factor is part of the contract too: another
    factor of the same covariance, an eigendecomposition say, gives other
    samples.  Each sample maps linearly to (Re d_1, Im d_1, Re d_2, Im d_2),
    with complex amplitudes alpha = (x + i p) / 2 and

        d_1 = b alpha_R* + a_o alpha_o - c_o alpha_b*
        d_2 = alpha_I' = sqrt(kappa_I) alpha_I + sqrt(1 - kappa_I) alpha_vac

    and the count is N = 2 Re(d_1* d_2) = 2 Re d_1 Re d_2 + 2 Im d_1 Im d_2.

    Phase-space moments are symmetric ordered, while the photocount
    observable is normal ordered in each mode; for N = d_1* d_2 + d_2* d_1
    the orderings agree on the mean and differ by exactly 1/2 on the second
    moment, so the sampled variance is corrected by -1/2.

    Counts whose variance passes ~1e150, where their fourth-power sums near
    the float64 limit, are sampled times an exact 2**-k, and the moments are
    scaled back.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    sums = _mc_weights(source, ch, rx, baths)
    # d_1's weights times 2**-k scale each count exactly; k > 0 only where the weights'
    # binary exponents put the counts' fourth-power sums near 2**1024
    k = max(0, max(sum(math.frexp(max(abs(w) for _, w in terms))[1] for terms in pair)
                   for pair in (sums[:2], sums[2:])) - (1000 - samples.bit_length()) // 4)
    sums = [[(col, math.ldexp(w, -k if i in (0, 2) else 0)) for col, w in terms]
            for i, terms in enumerate(sums)]

    rng = np.random.default_rng(seed)
    block = np.empty((min(samples, _MC_BLOCK), 6))
    count, d_1, d_2, term = np.empty((4, len(block)))

    def column_sum(z, terms, out):
        # w_0 z[:, col_0] + w_1 z[:, col_1] into out; each product goes to a contiguous
        # row, since a pass over a strided column reads the whole block
        (col_0, w_0), (col_1, w_1) = terms
        out = np.multiply(z[:, col_0], w_0, out=out[:len(z)])
        out += np.multiply(z[:, col_1], w_1, out=term[:len(z)])
        return out

    shift = s_1 = s_2 = s_3 = s_4 = 0.0
    for lo in range(0, samples, _MC_BLOCK):
        z = rng.standard_normal(out=block[:samples - lo])
        dev = column_sum(z, sums[0], count)
        dev *= column_sum(z, sums[1], d_2)
        im = column_sum(z, sums[2], d_1)
        im *= column_sum(z, sums[3], d_2)
        dev += im
        shift = float(dev.mean()) if lo == 0 else shift  # K, the first block's mean
        dev -= shift  # d = count - K, whose power sums are taken while the block is in cache
        sq = np.multiply(dev, dev, out=im)
        s_1, s_2 = s_1 + float(dev.sum()), s_2 + float(sq.sum())
        dev *= sq
        sq *= sq
        s_3, s_4 = s_3 + float(dev.sum()), s_4 + float(sq.sum())

    mean_d = s_1 / samples
    var_sym, md2 = (s_2 - s_1 * mean_d) / (samples - 1), mean_d * mean_d
    m4 = (s_4 - 4.0 * mean_d * s_3 + 6.0 * md2 * s_2 - 3.0 * samples * (md2 * md2)) / samples
    scale = math.ldexp(1.0, k)  # back to counts, before the ordering correction
    return McReceiverStatistics(mu=(shift + mean_d) * scale, var=var_sym * scale * scale - 0.5,
                                se_mu=math.sqrt(var_sym / samples) * scale, samples=samples,
                                se_var=math.sqrt(max(m4 - var_sym * var_sym, 0.0) / samples)
                                * scale * scale)
