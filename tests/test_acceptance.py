"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the reported deltas.
"""

import dataclasses
import math
import time

import numpy as np

from mwqi import (
    Cooperativities,
    Hypothesis,
    ReceiverParams,
    TargetChannelParams,
    bath_occupations,
    coefficients,
    coherent_snr_per_mode,
    entanglement_metric,
    entanglement_threshold,
    entropy,
    gaussian_discord,
    is_stable,
    log10_error_probability,
    log_negativity,
    max_fiber_range,
    mc_receiver_statistics,
    nominal_params,
    planck_occupation,
    receiver_statistics,
    snr_per_mode,
    source_moments,
    source_state,
    two_mode_squeezed_vacuum,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_01_planck_occupation():
    n = planck_occupation(2 * math.pi * 10e9, 293.0)
    _verdict(1, "bright-background occupation 610 +- 1", abs(n - 610.0) <= 1.0,
             f"n_B = {n:.4f}")


def test_criterion_02_source_moments(ref_moments):
    dev_w = (ref_moments.n_w - 0.739) / 0.739
    dev_o = (ref_moments.n_o - 0.681) / 0.681
    ok = abs(dev_w) < 0.05 and abs(dev_o) < 0.05
    _verdict(2, "source moments within 5% of the published point", ok,
             f"n_w = {ref_moments.n_w:.4f} (delta {dev_w:+.2%}), "
             f"n_o = {ref_moments.n_o:.4f} (delta {dev_o:+.2%})")


def test_criterion_03_entanglement_threshold(ref_moments, ref_channel):
    thresh = entanglement_threshold(ref_moments, ref_channel.eta)
    dev = (thresh - 0.069) / 0.069
    _verdict(3, "separability threshold 0.069 within 10%", abs(dev) < 0.10,
             f"threshold = {thresh:.5f} (delta {dev:+.2%})")


def test_criterion_04_snr_convention_anchor():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10):
        eta = rng.uniform(1e-3, 0.5)
        n_w = rng.uniform(0.01, 5.0)
        n_b = rng.uniform(0.0, 1e4)
        generic = snr_per_mode(0.0, 2.0 * math.sqrt(eta * n_w),
                               2.0 * n_b + 1.0, 2.0 * n_b + 1.0)
        quoted = 4.0 * eta * n_w / (2.0 * n_b + 1.0)
        worst = max(worst, abs(generic - quoted) / quoted)
    _verdict(4, "generic SNR reproduces the coherent benchmark", worst < 1e-12,
             f"worst relative error {worst:.2e}")


def test_criterion_05_quantum_advantage(ref_moments, ref_channel, ref_receiver, baths):
    start = time.time()
    stats = receiver_statistics(ref_moments, ref_channel, ref_receiver, baths)
    snr_coh = coherent_snr_per_mode(ref_moments.n_w, ref_channel)
    fom = stats.snr_per_m / snr_coh
    best_gap = math.inf
    for modes in np.geomspace(1e4, 1e8, 161):
        lg_coh = log10_error_probability(snr_coh, float(modes))
        if lg_coh < -30.0:
            continue
        gap = log10_error_probability(stats.snr_per_m, float(modes)) - lg_coh
        best_gap = min(best_gap, gap)
    elapsed = time.time() - start
    ok = fom > 1.0 and best_gap <= -2.0 and elapsed < 1.0
    _verdict(5, "quantum advantage at the bright-background point", ok,
             f"F = {fom:.4f}, min log10(P_QI/P_coh) = {best_gap:.2f}, {elapsed:.2f} s")


def test_criterion_06_commutator_identities():
    worst = 0.0
    for gw in np.geomspace(1e-2, 1e4, 50):
        for frac in np.geomspace(1e-4, 0.9, 50):
            c = coefficients(Cooperativities(gw, frac * (gw + 0.5)))
            worst = max(worst,
                        abs(c.a_w ** 2 - c.b ** 2 + c.c_w ** 2 - 1.0),
                        abs(c.a_o ** 2 - c.b ** 2 - c.c_o ** 2 - 1.0))
    _verdict(6, "commutator identities on a 50x50 stable grid", worst < 1e-12,
             f"worst residual {worst:.2e}")


def test_criterion_07_metric_negativity_equivalence(params):
    checked = mism = 0
    signs = set()
    for temp in (30e-3, 1.0):
        n_w_t = planck_occupation(params.omega_w, temp)
        n_b_t = planck_occupation(params.omega_m, temp)
        for gw in np.geomspace(0.05, 5e3, 15):
            for go in np.geomspace(0.05, 5e3, 15):
                if 1 + 2 * gw - 2 * go <= 0:
                    continue
                m = source_moments(coefficients(Cooperativities(gw, go)),
                                   n_w_t, 0.0, n_b_t)
                e = entanglement_metric(m)
                if abs(e - 1.0) <= 1e-4:
                    continue
                checked += 1
                signs.add(e > 1.0)
                en = log_negativity(source_state(m))
                if (e > 1.0) != (en > 0.0):
                    mism += 1
    ok = mism == 0 and checked >= 200 and signs == {True, False}
    _verdict(7, "metric/negativity sign equivalence on the grid", ok,
             f"{checked} points checked, {mism} mismatches, both signs seen")


def test_criterion_08_monte_carlo_oracle_agreement():
    start = time.time()
    rng = np.random.default_rng(20240811)
    params0 = nominal_params()
    worst = 0.0
    points = 0
    while points < 20:
        gw = 10 ** rng.uniform(1, 4)
        go = 10 ** rng.uniform(-1, math.log10(0.9 * (gw + 0.5)))
        t_eom = rng.uniform(0.0, 0.3)
        eta = 10 ** rng.uniform(-2, math.log10(0.3))
        n_b = 10 ** rng.uniform(0, 3)
        k_i = rng.uniform(0.3, 1.0)
        params = dataclasses.replace(params0, t_eom=t_eom)
        coop = Cooperativities(gw, go)
        if not is_stable(coop, params).stable:
            continue
        points += 1
        coef = coefficients(coop)
        baths = bath_occupations(params)
        m = source_moments(coef, baths.n_w, baths.n_o, baths.n_b)
        ch = TargetChannelParams(eta=eta, n_b=n_b)
        rx = ReceiverParams(coef, k_i)
        stats = receiver_statistics(m, ch, rx, baths)
        for hyp, mu_cf, var_cf in ((Hypothesis.H0, stats.mu0, stats.var0),
                                   (Hypothesis.H1, stats.mu1, stats.var1)):
            mc = mc_receiver_statistics(m, ch, rx, baths, hyp, samples=10 ** 6,
                                        seed=int(rng.integers(2 ** 32)))
            worst = max(worst,
                        abs(mc.mu - mu_cf) / mc.se_mu,
                        abs(mc.var - var_cf) / mc.se_var)
    elapsed = time.time() - start
    ok = worst <= 3.0 and elapsed < 60.0
    _verdict(8, "closed forms match the sampling oracle at 20 points", ok,
             f"worst delta {worst:.2f} se, {elapsed:.1f} s")


def test_criterion_09_discord_pure_state_identity():
    worst = 0.0
    for r in (0.25, 0.5, 1.0, 2.0):
        got = gaussian_discord(two_mode_squeezed_vacuum(r))
        worst = max(worst, abs(got - entropy(math.cosh(2 * r))))
    _verdict(9, "discord equals entanglement entropy on pure states", worst < 1e-10,
             f"worst deviation {worst:.2e} bits")


def test_criterion_10_fiber_range():
    r = max_fiber_range(0.2, 2.0 / 3.0, 3.0)
    _verdict(10, "delay-line range limit 11.25 km", r == 11.25, f"range = {r} km")


def test_criterion_11_stability(params, ref_coop):
    ref = is_stable(ref_coop, params)
    disagreements = []
    near_boundary = 0
    for gw in np.geomspace(1e-2, 1e4, 20):
        for go in np.geomspace(1e-2, 1e4, 20):
            rep = is_stable(Cooperativities(gw, go), params)
            boundary = gw + 0.5
            if abs(go - boundary) / boundary <= 0.05:
                near_boundary += rep.stable != rep.adiabatic_stable
                continue
            if rep.stable != rep.adiabatic_stable:
                disagreements.append((gw, go))
    ok = ref.stable and not disagreements
    _verdict(11, "cubic stability test agrees with the adiabatic criterion", ok,
             f"reference margin {ref.margin:.3e} rad/s, "
             f"{len(disagreements)} off-band disagreements, "
             f"{near_boundary} inside the 5% band (logged)")
