import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from mwqi import (
    Hypothesis,
    PhysicalityError,
    SourceMoments,
    TargetChannelParams,
    TwoModeGaussianState,
    entropy,
    return_state,
    source_state,
    two_mode_squeezed_vacuum,
)
from mwqi.states import _gaussian_factor

# the published operating point; s = ab - c^2 with a = 2 n_w + 1, b = 2 n_o + 1, c = 2 cross
REF = SourceMoments(n_w=0.739, n_o=0.681, cross=1.084, s=2.478 * 2.362 - 2.168 ** 2)


def _state(a, b, c):
    return TwoModeGaussianState(a, b, c, a * b - c * c)


def test_vacuum_is_identity_cm():
    state = two_mode_squeezed_vacuum(0.0)
    assert np.allclose(np.asarray(state.cm, dtype=float), np.eye(4), atol=0)


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
    # finite entries whose products overflow float64, from about 1.3e154
    (lambda: _state(2e160, 2e160, 1e160), OverflowError),
    (lambda: TwoModeGaussianState(2e154, 2e154, 1e154, 3e308), OverflowError),
    (lambda: TwoModeGaussianState(2e154, 1.0, 0.0, math.inf), OverflowError),
    (lambda: entropy(math.nan), ValueError),
    (lambda: entropy(math.inf), ValueError),
], ids=["nan-a", "inf-a", "nan-b", "nan-c_x", "inf-c_p", "nan-s",
        "overflow-standard_form", "overflow-direct", "overflow-s", "entropy-nan", "entropy-inf"])
def test_non_finite_and_overflowing_rejected(make, error):
    with pytest.raises(error):
        make()


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
], ids=["negative-squeezing", "sub-vacuum-variance", "mismatched-s"])
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
    lambda: return_state(REF, TargetChannelParams(eta=0.07, n_b=610.0), Hypothesis.H1),
], ids=["direct", "asymmetric", "standard_form", "tmsv", "thermal_product",
        "source_state", "return_state"])
def test_cm_is_float64(make):
    assert make().cm.dtype == np.float64


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
def test_spectrum_matches_eigenvalue_oracle(n1, n2, cross):
    state = _state(2.0 * n1 + 1.0, 2.0 * n2 + 1.0, 2.0 * cross)
    lo, hi = _eigvals_oracle(state.cm)
    assert state.nu_minus == pytest.approx(lo, abs=1e-9)
    assert state.nu_plus == pytest.approx(hi, abs=1e-9)


@pytest.mark.parametrize("blocks", [
    (1.4, 4.7, 1.2), (16.1, 4.6, 7.2), (2.0, 5.0, -1.5),
])
def test_asymmetric_spectrum_matches_eigenvalue_oracle(blocks):
    # a != b: nu_plus - nu_minus = |a - b| and nu~_plus + nu~_minus = a + b
    state = _state(*blocks)
    lo, hi = _eigvals_oracle(state.cm)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])  # partial transpose: p2 -> -p2
    ppt_lo, _ = _eigvals_oracle(flip @ state.cm @ flip)
    assert state.nu_minus == pytest.approx(lo, abs=1e-12)
    assert state.nu_plus == pytest.approx(hi, abs=1e-12)
    assert state.nu_ppt_minus == pytest.approx(ppt_lo, abs=1e-12)


def test_beamsplitter_family_spectrum():
    # the partial transpose of [[a I, c Z], [c Z, a I]] is the beam-splitter
    # form [[a I, c I], [c I, a I]], with symplectic eigenvalues a -+ c
    state = _state(3.0, 3.0, 1.2)
    assert state.nu_ppt_minus == pytest.approx(1.8, abs=1e-15)
    assert (state.nu_minus, state.nu_plus) == pytest.approx((math.sqrt(7.56),) * 2, abs=1e-15)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])  # partial transpose: p2 -> -p2
    lo, hi = _eigvals_oracle(flip @ state.cm @ flip)
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
    converges to ``state.cm`` entrywise as the count grows.
    """
    if count < 1:
        raise ValueError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, 4)) @ _gaussian_factor(state.cm)


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


def test_sampling_covariance_consistency():
    state = source_state(REF)
    n = 10 ** 6
    q = sample_quadratures(state, n, seed=2024)
    sample_cov = q.T @ q / n
    cm = np.asarray(state.cm, float)
    for i in range(4):
        for j in range(4):
            se = math.sqrt((cm[i, i] * cm[j, j] + cm[i, j] ** 2) / n)
            assert abs(sample_cov[i, j] - cm[i, j]) < 5 * se


def test_sampling_count_validation():
    with pytest.raises(ValueError):
        sample_quadratures(two_mode_squeezed_vacuum(0.0), 0, seed=1)
