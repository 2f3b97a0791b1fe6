"""Target detection: return channel, microwave-to-optical phase-conjugate
receiver, difference-photocount statistics, error probabilities, and the
quantum-advantage figure of merit.

Detection model
---------------
The microwave signal interrogates a region that either contains a weakly
reflecting object (hypothesis H1) or not (H0).  The returned mode is
c_R = c_B under H0 and c_R = sqrt(eta) d_w + sqrt(1 - eta) c_B under H1,
with c_B a bright thermal background.  A second, identical converter feeds
the return into its microwave port and emits the phase-conjugated,
upconverted optical mode

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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .converter import BathOccupations, EomCoefficients, SourceMoments, planck_occupation
from .states import TwoModeGaussianState, _gaussian_factor, standard_form

__all__ = [
    "Hypothesis",
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


class Hypothesis(enum.Enum):
    H0 = "h0"
    H1 = "h1"


@dataclass(frozen=True)
class TargetChannelParams:
    """Roundtrip target channel.

    Attributes
    ----------
    eta : float
        Roundtrip transmitter-to-target-to-receiver transmissivity, including
        propagation loss and target reflectivity; the physical regime is
        0 < eta << 1.
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


def return_state(source: SourceMoments, ch: TargetChannelParams,
                 hypothesis: Hypothesis) -> TwoModeGaussianState:
    """Joint state of the returned microwave mode and the retained idler.

    Under H0 the return is the bare background, uncorrelated with the idler.
    Under H1 the return carries eta of the signal:
    n_R = eta n_w + (1 - eta) n_B', cross_R = sqrt(eta) |<d_w d_o>|, and the
    idler marginal is unchanged.  cross_R does not depend on the background
    brightness.
    """
    n_r, cross_r = _return_moments(source, ch, hypothesis)
    return standard_form(n_r, source.n_o, cross_r)


def _return_moments(source: SourceMoments, ch: TargetChannelParams,
                    hypothesis: Hypothesis) -> tuple[float, float]:
    """(n_R, cross_R): occupation of the returned mode and its correlation with the idler.

    Shared by :func:`return_state`, :func:`receiver_statistics` and the
    Monte-Carlo oracle.
    """
    if hypothesis is Hypothesis.H0:
        return ch.n_b, 0.0
    return (ch.eta * source.n_w + (1.0 - ch.eta) * ch.n_b,
            math.sqrt(ch.eta) * source.cross)


def entanglement_threshold(source: SourceMoments, eta: float) -> float:
    """Background brightness above which return and idler are separable.

    eta * (|<d_w d_o>|^2 / n_o - n_w), clamped at zero; a separable source
    (cross^2 <= n_w n_o) gives zero.
    """
    if source.cross == 0.0:
        return 0.0
    if source.n_o <= 0:
        raise ValueError("threshold undefined at n_o = 0")
    return max(0.0, eta * (source.cross ** 2 / source.n_o - source.n_w))


def snr_per_mode(mu0: float, mu1: float, var0: float, var1: float) -> float:
    """Generic threshold-test SNR coefficient, 4 (mu1 - mu0)^2 / (sqrt(var0) + sqrt(var1))^2.

    A statistic or SNR that is not finite raises OverflowError, which names them.
    """
    if var0 <= 0 or var1 <= 0:
        if mu1 == mu0:
            return 0.0  # no photons at all: a blind receiver, not an error
        raise ValueError("variances must be > 0")
    try:  # ** 2, not x * x: the byte-exact fom goldens hold the roundings of pow
        snr = 4.0 * (mu1 - mu0) ** 2 / (math.sqrt(var0) + math.sqrt(var1)) ** 2
    except OverflowError:  # a bare range error, named below
        snr = math.inf
    # a non-finite mean reaches snr; an infinite variance alone would give a blind snr 0
    if not math.isfinite(snr + var0 + var1):
        raise OverflowError("receiver statistics overflow float64: "
                            f"mu0={mu0!r}, mu1={mu1!r}, var0={var0!r}, var1={var1!r}")
    return snr


def receiver_statistics(source: SourceMoments, ch: TargetChannelParams,
                        rx: ReceiverParams, baths: BathOccupations) -> DetectionStatistics:
    """Closed-form difference-photocount statistics of the receiver.

    The receiver's internal baths carry the occupations of the transmitter's
    converter (``baths``); the retained idler passes a beam splitter of
    transmissivity kappa_I = ``rx.idler_transmissivity`` mixing in vacuum
    before detection.  Under each hypothesis, with (n_R, cross_R) from the
    return channel, the conjugated return and the lossy idler carry

        N_1 = b^2 (n_R + 1) + a_o^2 n_o^T + c_o^2 (n_b^T + 1)
        N_2 = kappa_I n_o,    S = b sqrt(kappa_I) cross_R

    and the per-pair count has mean 2 S and variance 2 S^2 + 2 N_1 N_2 + N_1 + N_2.
    """
    coef, k_i = rx.coef, rx.idler_transmissivity
    n_2 = k_i * source.n_o
    optical = coef.a_o ** 2 * baths.n_o
    mechanical = coef.c_o ** 2 * (baths.n_b + 1.0)
    moments = []
    for hyp in (Hypothesis.H0, Hypothesis.H1):
        n_r, cross_r = _return_moments(source, ch, hyp)
        n_1 = coef.b ** 2 * (n_r + 1.0) + optical + mechanical
        s = coef.b * math.sqrt(k_i) * cross_r
        moments += [2.0 * s, 2.0 * s * s + 2.0 * n_1 * n_2 + n_1 + n_2]
    mu0, var0, mu1, var1 = moments
    return DetectionStatistics(mu0, mu1, var0, var1, snr_per_mode(mu0, mu1, var0, var1))


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
    mean photon number per mode.
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


def mc_receiver_statistics(source: SourceMoments, ch: TargetChannelParams,
                           rx: ReceiverParams, baths: BathOccupations,
                           hypothesis: Hypothesis, samples: int = 10 ** 6,
                           seed: int = 0) -> McReceiverStatistics:
    """Monte-Carlo oracle for the difference-photocount statistics.

    Draws one block of 10 * samples standard normals and pushes it through
    the real receiver map, then estimates the mean and variance of the
    difference count.  Kept independent of the closed forms in
    :func:`receiver_statistics`: only the input states and the linear
    receiver map are shared.

    The draw order is part of the seed contract.  The first 4 * samples
    normals, read as rows of 4, are the return-idler quadratures
    (x_R, p_R, x_I, p_I); then come blocks of ``samples`` normals for the
    real and imaginary parts of the optical bath, the mechanical bath and
    the idler-loss vacuum port, in that order.  Each sample maps linearly to
    (Re d_1, Im d_1, Re d_2, Im d_2), with complex amplitudes
    alpha = (x + i p) / 2 and

        d_1 = b alpha_R* + a_o alpha_o - c_o alpha_b*
        d_2 = sqrt(kappa_I) alpha_I + sqrt(1 - kappa_I) alpha_vac

    and the count is N = 2 Re(d_1* d_2).

    Phase-space moments are symmetric ordered, while the photocount
    observable is normal ordered in each mode; for N = d_1* d_2 + d_2* d_1
    the orderings agree on the mean and differ by exactly 1/2 on the second
    moment, so the sampled variance is corrected by -1/2.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    coef, k_i = rx.coef, rx.idler_transmissivity
    z = np.random.default_rng(seed).standard_normal(10 * samples)
    z_pair = z[:4 * samples].reshape(samples, 4)
    z_bath = z[4 * samples:].reshape(6, samples)

    pair = return_state(source, ch, hypothesis)
    t_i = math.sqrt(k_i) / 2.0
    pair_map = _gaussian_factor(pair.cm) @ np.diag([coef.b / 2.0, -coef.b / 2.0, t_i, t_i])

    def thermal_sd(n):
        # Re/Im of a thermal mode's complex amplitude: variance (2n+1)/4 each
        return math.sqrt((2.0 * n + 1.0) / 4.0)

    opt = coef.a_o * thermal_sd(baths.n_o)
    mech = coef.c_o * thermal_sd(baths.n_b)
    vac = math.sqrt(1.0 - k_i) * thermal_sd(0.0)
    bath_map = np.array([[opt, 0.0, 0.0, 0.0],
                         [0.0, opt, 0.0, 0.0],
                         [-mech, 0.0, 0.0, 0.0],
                         [0.0, mech, 0.0, 0.0],
                         [0.0, 0.0, vac, 0.0],
                         [0.0, 0.0, 0.0, vac]])

    # columns of x: Re d_1, Im d_1, Re d_2, Im d_2
    x = z_pair @ pair_map
    x += z_bath.T @ bath_map
    counts = x[:, 0] * x[:, 2]
    counts += x[:, 1] * x[:, 3]
    counts *= 2.0

    mu = float(counts.mean())
    centered = counts - mu
    sq = centered * centered
    var_sym = float(sq.sum()) / (samples - 1)
    m4 = float(sq @ sq) / samples
    return McReceiverStatistics(
        mu=mu,
        var=var_sym - 0.5,
        se_mu=math.sqrt(var_sym / samples),
        se_var=math.sqrt(max(m4 - var_sym ** 2, 0.0) / samples),
        samples=samples,
    )
