import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

import mwqi
from mwqi import (
    PhysicalityError,
    SourceMoments,
    TargetChannelParams,
    TwoModeGaussianState,
    entropy,
    return_state,
    source_state,
    two_mode_squeezed_vacuum,
)
from mwqi.detection import _pair_factor

# the published operating point; s = ab - c^2 with a = 2 n_w + 1, b = 2 n_o + 1, c = 2 cross
REF = SourceMoments(n_w=0.739, n_o=0.681, cross=1.084, s=2.478 * 2.362 - 2.168 ** 2)


def _state(a, b, c):
    return TwoModeGaussianState(a, b, c, a * b - c * c)


def test_vacuum_is_identity_cm(cm):
    assert np.allclose(cm(two_mode_squeezed_vacuum(0.0)), np.eye(4), atol=0)


def test_tmsv_standard_form_is_pure():
    # the standard form of a two-mode squeezed vacuum, with s formed from its rounded entries
    r = 1.0
    a = 2.0 * math.sinh(r) ** 2 + 1.0
    state = _state(a, a, 2.0 * math.cosh(r) * math.sinh(r))
    assert abs(state.nu_minus - 1.0) < 1e-10
    assert abs(state.nu_plus - 1.0) < 1e-10


def test_reference_source_cm_is_physical():
    # published operating point, cross correlation recovered from the
    # separability threshold 0.069 at transmissivity 0.07
    assert source_state(REF).nu_minus >= 1.0 - 1e-10


def test_unphysical_cm_rejected_with_diagnostics():
    with pytest.raises(PhysicalityError) as err:
        _state(1.2, 1.2, 10.0)
    assert "nu" in str(err.value)


def test_negative_discriminant_rejected():
    # |c| > sqrt(ab): s = ab - c^2 < 0, so V is not positive definite, and the
    # discriminant (a - b)^2 + 4s of nu_plus is -84
    with pytest.raises(PhysicalityError, match="not positive definite"):
        TwoModeGaussianState(1.0, 3.0, 5.0, -22.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make,error", [
    (lambda: TwoModeGaussianState(math.nan, 1.0, 0.0, 1.0), PhysicalityError),
    (lambda: TwoModeGaussianState(math.inf, 1.0, 0.0, 1.0), PhysicalityError),
    (lambda: TwoModeGaussianState(1.0, math.nan, 0.0, 1.0), PhysicalityError),
    # the cross covariances are c_x = <x1 x2> = c and c_p = <p1 p2> = -c
    (lambda: TwoModeGaussianState(1.0, 1.0, math.nan, 1.0), PhysicalityError),
    (lambda: TwoModeGaussianState(1.0, 1.0, -math.inf, 1.0), PhysicalityError),
    (lambda: TwoModeGaussianState(1.0, 1.0, 0.0, math.nan), PhysicalityError),
    # finite entries whose products overflow float64 at the state's scale: c^2, where
    # max(a, b) < 2^500 leaves the entries unscaled
    (lambda: _state(2.0, 2.0, 1e160), OverflowError),
    (lambda: TwoModeGaussianState(2e154, 2e154, 1e154, 3e308), OverflowError),
    (lambda: TwoModeGaussianState(2e154, 1.0, 0.0, math.inf), OverflowError),
    (lambda: entropy(math.nan), ValueError),
    (lambda: entropy(math.inf), ValueError),
], ids=["nan-a", "inf-a", "nan-b", "nan-c_x", "inf-c_p", "nan-s",
        "overflow-standard_form", "overflow-direct", "overflow-s", "entropy-nan", "entropy-inf"])
def test_non_finite_and_overflowing_rejected(make, error):
    with pytest.raises(error):
        make()


@pytest.mark.parametrize("r", [170.0, 180.0])
def test_squeezed_vacuum_past_the_float64_products_builds(r):
    # a = b ~ cosh(2r) and c ~ sinh(2r): from r ~ 177, ab and c^2 overflow float64 unscaled,
    # while the spectrum nu_plus = nu_minus = 1 and nu~_minus = e^-2r are representable
    state = two_mode_squeezed_vacuum(r)
    assert (state.nu_plus, state.nu_minus) == pytest.approx((1.0, 1.0), rel=1e-15)
    assert state.nu_ppt_minus == pytest.approx(math.exp(-2.0 * r), rel=1e-13)
    # pure: the joint entropy is 0, so I = D = g(a), and E_N = 2r / ln 2
    assert state.joint_entropy == 0.0
    assert mwqi.log_negativity(state) == pytest.approx(2.0 * r / math.log(2.0), rel=1e-14)
    assert mwqi.coherent_information(state) == mwqi.gaussian_discord(state) == entropy(state.a)
    # the array functions agree bit for bit, at the state and next to states that fail
    a, c = math.cosh(2.0 * r), math.sinh(2.0 * r)
    *spec, fault = mwqi.spectrum([a, 2.0, a], [a, 2.0, a], [c, 1e160, c], [1.0, -1e320, math.nan])
    assert fault.tolist() == [0, 3, 4]
    assert [nu[0] for nu in spec] == [state.nu_plus, state.nu_minus, state.nu_ppt_minus,
                                      state.joint_entropy]
    # the mismatch message shows ab - c^2 unscaled, where a == c: at r = 180 as inf - inf
    with pytest.raises(PhysicalityError) as err:
        TwoModeGaussianState(a, a, c, 1e306)
    assert str(err.value) == f"s = 1e+306 does not match ab - c^2 = {'nan' if r > 177 else 0.0}"


@pytest.mark.parametrize("coop, n_b", [
    ((1e2, 0.0), 1e308),  # a = s ~ 3.96e306
    ((0.5, 0.0), 8.9e307),  # a = s ~ 1.78e308, where s + a overflows too
], ids=["a-4e306", "a-1.8e308"])
def test_state_whose_a_minus_b_squared_overflows_builds(coop, n_b):
    # b = 1 and c = 0: (a - b)^2 overflows float64, the spectrum does not
    source = mwqi.source_moments(mwqi.coefficients(mwqi.Cooperativities(*coop)), 0.0, 0.0, n_b)
    state = source_state(source)
    assert (state.b, state.c) == (1.0, 0.0) and state.a == state.s
    assert state.a > 3.9e306 and (state.a - state.b) * (state.a - state.b) == math.inf
    assert state.nu_plus == pytest.approx(state.a, rel=1e-15)
    assert state.nu_minus == pytest.approx(1.0, rel=1e-15)
    assert state.nu_ppt_minus == 1.0
    # a product state: every correlation is 0, the discord's (s + a)/(b + 1) included
    report = mwqi.correlation_report(source)
    assert (report.log_neg, report.coh_info, report.discord) == (0.0, 0.0, 0.0)


def test_states_from_2_to_the_500_keep_the_unscaled_spectrum_bits():
    # from max(a, b) = 2^500 the spectrum is formed at a power-of-two scale; wherever the
    # unscaled closed forms stay finite, that must round exactly as they do
    rng = random.Random(2015)
    for _ in range(500):
        a = 2.0 ** rng.uniform(500, 509)
        b = rng.choice([rng.uniform(2.0, 1e3), a * rng.uniform(0.5, 2.0)])
        c = rng.choice([0.0, rng.uniform(0.0, 0.5) * math.sqrt(a * b)])
        s = a * b - c * c
        dd = (a - b) * (a - b)
        assert math.isfinite(dd + 4.0 * (s + c * c))
        nu_plus = (abs(a - b) + math.sqrt(dd + 4.0 * s)) / 2
        nu_ppt_plus = (a + b + math.sqrt(dd + 4.0 * c * c)) / 2
        expected = nu_plus, s / nu_plus, s / nu_ppt_plus if c else min(a, b)
        state = TwoModeGaussianState(a, b, c, s)
        assert [nu.hex() for nu in (state.nu_plus, state.nu_minus, state.nu_ppt_minus)] == [
            nu.hex() for nu in expected]


def test_negative_photon_number_rejected():
    with pytest.raises(ValueError):
        source_state(SourceMoments(n_w=-0.1, n_o=0.0, cross=0.0, s=0.8))


@pytest.mark.parametrize("make, error, message", [
    (lambda: two_mode_squeezed_vacuum(-0.1), ValueError, "squeezing parameter must be >= 0"),
    (lambda: TwoModeGaussianState(0.5, 1.0, 0.0, 0.5), PhysicalityError,
     "diagonal variance below vacuum level: min=0.5"),
    # s must be ab - c^2 of the entries, here 5; taken as given, nu_minus = 1/3 would pass
    (lambda: TwoModeGaussianState(3.0, 3.0, 2.0, 1.0), PhysicalityError,
     "s = 1.0 does not match ab - c^2 = 5.0"),
    # a, b >= 1 and s > 0, yet nu_minus = 0.76 / sqrt(0.76) < 1
    (lambda: TwoModeGaussianState(2.0, 2.0, 1.8, 0.76), PhysicalityError,
     "state violates the uncertainty principle: nu_plus=0.8717797887081347, "
     "nu_minus=0.8717797887081348, nu_ppt_minus=0.2"),
], ids=["negative-squeezing", "sub-vacuum-variance", "mismatched-s", "uncertainty-principle"])
def test_invalid_states_are_named(make, error, message):
    with pytest.raises(error) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize("make", [
    lambda: TwoModeGaussianState(2.0, 3.0, 1.0, 5.0),
    lambda: TwoModeGaussianState(4.6, 16.1, 5.0, 49.06),
    lambda: _state(2.478, 2.362, 2.168),
    lambda: two_mode_squeezed_vacuum(1.0),
    lambda: _state(3.0, 5.0, 0.0),
    lambda: source_state(REF),
    lambda: return_state(REF, TargetChannelParams(eta=0.07, n_b=610.0)),
], ids=["direct", "asymmetric", "standard_form", "tmsv", "thermal_product",
        "source_state", "return_state"])
def test_cm_is_float64(make, cm):
    # and the factor the Monte-Carlo oracle samples through reproduces it
    state = make()
    factor = _pair_factor(state)
    assert cm(state).dtype == factor.dtype == np.float64
    np.testing.assert_array_max_ulp(factor.T @ factor, cm(state), maxulp=4)


ROOT = Path(__file__).resolve().parents[1]

# numpy.longdouble replaced after numpy is loaded, and scipy imports blocked,
# so any use of either by mwqi raises: results must not depend on the
# platform's long double, and the runtime needs numpy only
_NO_LONGDOUBLE = """
import sys
import numpy


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} imported")


class NoLongDouble:
    def _fail(self, *args, **kwargs):
        raise AssertionError("np.longdouble used")

    __call__ = __getattr__ = __eq__ = __hash__ = __instancecheck__ = _fail


sys.meta_path.insert(0, NoScipy())
numpy.longdouble = NoLongDouble()
import mwqi.cli

configs, out = sys.argv[1], sys.argv[2]
for command, name in [("sweep", "source_surfaces"), ("sweep", "advantage_surface"),
                      ("fig3", "error_probability_curves"), ("report", "operating_point")]:
    code = mwqi.cli.main([command, f"{configs}/{name}.cfg", "--out", f"{out}/{name}.out"])
    assert code == 0, (name, code)
"""


def test_demo_configs_run_without_longdouble(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_LONGDOUBLE, str(ROOT / "demos" / "configs"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# symplectic spectrum
# ---------------------------------------------------------------------------

def test_spectrum_vacuum():
    state = two_mode_squeezed_vacuum(0.0)
    assert state.nu_plus == pytest.approx(1.0, abs=1e-14)
    assert state.nu_minus == pytest.approx(1.0, abs=1e-14)
    assert state.nu_ppt_minus == pytest.approx(1.0, abs=1e-14)


def test_spectrum_thermal_product():
    state = _state(3.0, 3.0, 0.0)
    assert state.nu_plus == pytest.approx(3.0, abs=1e-12)
    assert state.nu_minus == pytest.approx(3.0, abs=1e-12)


def test_spectrum_tmsv_ppt():
    assert two_mode_squeezed_vacuum(1.0).nu_ppt_minus == pytest.approx(math.exp(-2.0), abs=1e-10)


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0])
def test_tmsv_purity(r):
    state = two_mode_squeezed_vacuum(r)
    assert abs(state.nu_plus - 1.0) < 1e-10
    assert abs(state.nu_minus - 1.0) < 1e-10


def _eigvals_oracle(cm):
    # independent route: symplectic eigenvalues are |eig(i Omega V)|
    omega = np.zeros((4, 4))
    for k in (0, 2):
        omega[k, k + 1] = 1.0
        omega[k + 1, k] = -1.0
    eigs = np.abs(np.linalg.eigvals(1j * omega @ np.asarray(cm, float)))
    return np.sort(eigs)[::2]  # each value appears twice


@pytest.mark.parametrize("n1,n2,cross", [
    (0.3, 0.2, 0.1), (2.0, 1.0, 1.5), (0.739, 0.681, 1.084), (5.0, 0.5, 1.2),
])
def test_spectrum_matches_eigenvalue_oracle(n1, n2, cross, cm):
    state = _state(2.0 * n1 + 1.0, 2.0 * n2 + 1.0, 2.0 * cross)
    lo, hi = _eigvals_oracle(cm(state))
    assert state.nu_minus == pytest.approx(lo, abs=1e-9)
    assert state.nu_plus == pytest.approx(hi, abs=1e-9)


@pytest.mark.parametrize("blocks", [
    (1.4, 4.7, 1.2), (16.1, 4.6, 7.2), (2.0, 5.0, -1.5),
])
def test_asymmetric_spectrum_matches_eigenvalue_oracle(blocks, cm):
    # a != b: nu_plus - nu_minus = |a - b| and nu~_plus + nu~_minus = a + b
    state = _state(*blocks)
    lo, hi = _eigvals_oracle(cm(state))
    flip = np.diag([1.0, 1.0, 1.0, -1.0])  # partial transpose: p2 -> -p2
    ppt_lo, _ = _eigvals_oracle(flip @ cm(state) @ flip)
    assert state.nu_minus == pytest.approx(lo, abs=1e-12)
    assert state.nu_plus == pytest.approx(hi, abs=1e-12)
    assert state.nu_ppt_minus == pytest.approx(ppt_lo, abs=1e-12)


def test_beamsplitter_family_spectrum(cm):
    # the partial transpose of [[a I, c Z], [c Z, a I]] is the beam-splitter
    # form [[a I, c I], [c I, a I]], with symplectic eigenvalues a -+ c
    state = _state(3.0, 3.0, 1.2)
    assert state.nu_ppt_minus == pytest.approx(1.8, abs=1e-15)
    assert (state.nu_minus, state.nu_plus) == pytest.approx((math.sqrt(7.56),) * 2, abs=1e-15)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])  # partial transpose: p2 -> -p2
    lo, hi = _eigvals_oracle(flip @ cm(state) @ flip)
    assert (lo, hi) == pytest.approx((1.8, 4.2), abs=1e-12)


def test_product_state_is_separable_exactly():
    # an s one ulp below ab, as the converter can round it, must not give E_N > 0
    state = TwoModeGaussianState(7.0, 1.0, 0.0, math.nextafter(7.0, 0.0))
    assert state.nu_ppt_minus == 1.0


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_values():
    assert entropy(1.0) == 0.0
    assert entropy(3.0) == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("n", [0.1, 0.5, 1.0, 2.5, 40.0])
def test_entropy_thermal_identity(n):
    expected = (n + 1) * math.log2(n + 1) - n * math.log2(n)
    assert entropy(2 * n + 1) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("nu", [3.7, 1e6, 1e12, 1e15, 1e300])
def test_entropy_large_nu_matches_decimal(nu):
    # the textbook difference of two nu log2 nu terms was 4.5e-2 off at 1e15 and nan at 1e306
    with localcontext() as ctx:
        ctx.prec = 340  # xp and xm differ by 1 at 1e300
        xp, xm = (Decimal(nu) + 1) / 2, (Decimal(nu) - 1) / 2
        exact = float((xp * xp.ln() - xm * xm.ln()) / Decimal(2).ln())
    assert entropy(nu) == pytest.approx(exact, rel=4e-16)


def test_entropy_domain_error():
    with pytest.raises(ValueError):
        entropy(0.9)
    assert entropy(1.0 - 1e-12) == 0.0  # inside tolerance


# ---------------------------------------------------------------------------
# sampling through the factor of the Monte-Carlo receiver oracle
# ---------------------------------------------------------------------------

def sample_quadratures(state, count, seed):
    """Draw i.i.d. quadrature 4-vectors (x1, p1, x2, p2) from the state.

    The stream is deterministic for a fixed seed.  The sample covariance
    converges to the state's covariance matrix entrywise as the count grows.
    """
    if count < 1:
        raise ValueError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, 4)) @ _pair_factor(state)


def test_sampling_vacuum_variance():
    q = sample_quadratures(two_mode_squeezed_vacuum(0.0), 10 ** 6, seed=123)
    assert q.shape == (10 ** 6, 4)
    assert np.allclose(q.var(axis=0), 1.0, atol=0.01)


def test_sampling_tmsv_cross_moment():
    r = 0.5
    n = 10 ** 6
    q = sample_quadratures(two_mode_squeezed_vacuum(r), n, seed=77)
    got = float(np.mean(q[:, 0] * q[:, 2]))
    expected = math.sinh(2 * r)
    # se of a product-moment estimate: sqrt((V11 V22 + V12^2) / n)
    a = math.cosh(2 * r)
    se = math.sqrt((a * a + expected ** 2) / n)
    assert abs(got - expected) < 3 * se


def test_sampling_deterministic():
    state = _state(2.0, 1.6, 0.8)
    q1 = sample_quadratures(state, 1000, seed=42)
    q2 = sample_quadratures(state, 1000, seed=42)
    assert np.array_equal(q1, q2)
    q3 = sample_quadratures(state, 1000, seed=43)
    assert not np.array_equal(q1, q3)


def test_sampling_covariance_consistency(cm):
    state = source_state(REF)
    n = 10 ** 6
    q = sample_quadratures(state, n, seed=2024)
    sample_cov = q.T @ q / n
    v = cm(state)
    for i in range(4):
        for j in range(4):
            se = math.sqrt((v[i, i] * v[j, j] + v[i, j] ** 2) / n)
            assert abs(sample_cov[i, j] - v[i, j]) < 5 * se


def test_sampling_count_validation():
    with pytest.raises(ValueError):
        sample_quadratures(two_mode_squeezed_vacuum(0.0), 0, seed=1)
