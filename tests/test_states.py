import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mwqi import (
    Hypothesis,
    PhysicalityError,
    SourceMoments,
    SymplecticData,
    TargetChannelParams,
    TwoModeGaussianState,
    entropy,
    return_state,
    source_state,
    standard_form,
    symplectic_spectrum,
    two_mode_squeezed_vacuum,
)
from mwqi.states import _gaussian_factor


def test_vacuum_is_identity_cm():
    state = standard_form(0.0, 0.0, 0.0)
    assert np.allclose(np.asarray(state.cm, dtype=float), np.eye(4), atol=0)


def test_tmsv_standard_form_is_pure():
    r = 1.0
    state = standard_form(math.sinh(r) ** 2, math.sinh(r) ** 2,
                          math.cosh(r) * math.sinh(r))
    data = symplectic_spectrum(state)
    assert abs(data.nu_minus - 1.0) < 1e-10
    assert abs(data.nu_plus - 1.0) < 1e-10


def test_reference_source_cm_is_physical():
    # published operating point, cross correlation recovered from the
    # separability threshold 0.069 at transmissivity 0.07
    state = standard_form(0.739, 0.681, 1.084)
    assert symplectic_spectrum(state).nu_minus >= 1.0 - 1e-10


def test_unphysical_cm_rejected_with_diagnostics():
    with pytest.raises(PhysicalityError) as err:
        standard_form(0.1, 0.1, 5.0)
    assert "nu" in str(err.value)


def test_negative_discriminant_rejected():
    # |c_x| > sqrt(ab): V is not positive definite and disc = -336
    with pytest.raises(PhysicalityError, match="discriminant"):
        TwoModeGaussianState(1.0, 3.0, 5.0, -5.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make,error", [
    (lambda: TwoModeGaussianState(math.nan, 1.0, 0.0, 0.0), PhysicalityError),
    (lambda: TwoModeGaussianState(math.inf, 1.0, 0.0, 0.0), PhysicalityError),
    (lambda: TwoModeGaussianState(1.0, math.nan, 0.0, 0.0), PhysicalityError),
    (lambda: TwoModeGaussianState(1.0, 1.0, math.nan, 0.0), PhysicalityError),
    (lambda: TwoModeGaussianState(1.0, 1.0, 0.0, -math.inf), PhysicalityError),
    (lambda: TwoModeGaussianState(math.nan, 1.0, 0.0, 0.0,
                                  spectrum=SymplecticData(1.0, 1.0, 1.0)), PhysicalityError),
    # finite moments whose symplectic invariants overflow float64
    (lambda: standard_form(1e80, 1e80, 5e79), OverflowError),
    (lambda: TwoModeGaussianState(2e77, 2e77, 1e77, -1e77), OverflowError),
    (lambda: entropy(math.nan), ValueError),
    (lambda: entropy(math.inf), ValueError),
], ids=["nan-a", "inf-a", "nan-b", "nan-c_x", "inf-c_p", "nan-with-spectrum",
        "overflow-standard_form", "overflow-direct", "entropy-nan", "entropy-inf"])
def test_non_finite_and_overflowing_rejected(make, error):
    with pytest.raises(error):
        make()


def test_negative_photon_number_rejected():
    with pytest.raises(ValueError):
        standard_form(-0.1, 0.0, 0.0)


def test_cross_phase_is_absorbed():
    mag = standard_form(1.0, 2.0, 0.8)
    rotated = standard_form(1.0, 2.0, 0.8 * np.exp(1j * 0.7))
    assert np.allclose(np.asarray(mag.cm, float), np.asarray(rotated.cm, float))


@pytest.mark.parametrize("make", [
    lambda: TwoModeGaussianState(2.0, 3.0, 1.0, -1.0),
    lambda: TwoModeGaussianState(4.6, 16.1, 5.0, -7.2),
    lambda: standard_form(0.739, 0.681, 1.084),
    lambda: two_mode_squeezed_vacuum(1.0),
    lambda: standard_form(1.0, 2.0, 0.0),
    lambda: source_state(SourceMoments(n_w=0.739, n_o=0.681, cross=1.084)),
    lambda: return_state(SourceMoments(n_w=0.739, n_o=0.681, cross=1.084),
                         TargetChannelParams(eta=0.07, n_b=610.0), Hypothesis.H1),
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
    data = symplectic_spectrum(standard_form(0.0, 0.0, 0.0))
    assert data.nu_plus == pytest.approx(1.0, abs=1e-14)
    assert data.nu_minus == pytest.approx(1.0, abs=1e-14)
    assert data.nu_ppt_minus == pytest.approx(1.0, abs=1e-14)


def test_spectrum_thermal_product():
    data = symplectic_spectrum(standard_form(1.0, 1.0, 0.0))
    assert data.nu_plus == pytest.approx(3.0, abs=1e-12)
    assert data.nu_minus == pytest.approx(3.0, abs=1e-12)


def test_spectrum_tmsv_ppt():
    data = symplectic_spectrum(two_mode_squeezed_vacuum(1.0))
    assert data.nu_ppt_minus == pytest.approx(math.exp(-2.0), abs=1e-10)


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0])
def test_tmsv_purity(r):
    data = symplectic_spectrum(two_mode_squeezed_vacuum(r))
    assert abs(data.nu_plus - 1.0) < 1e-10
    assert abs(data.nu_minus - 1.0) < 1e-10


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
    state = standard_form(n1, n2, cross)
    data = symplectic_spectrum(state)
    lo, hi = _eigvals_oracle(state.cm)
    assert data.nu_minus == pytest.approx(lo, abs=1e-9)
    assert data.nu_plus == pytest.approx(hi, abs=1e-9)


@pytest.mark.parametrize("blocks", [
    (1.4, 4.7, 1.2, 0.2), (4.6, 16.1, 5.0, -7.2), (2.0, 5.0, -1.5, 0.4),
])
def test_asymmetric_spectrum_matches_eigenvalue_oracle(blocks):
    # |c_x| != |c_p|: the correction term of the factored margin is nonzero
    state = TwoModeGaussianState(*blocks)
    data = symplectic_spectrum(state)
    lo, hi = _eigvals_oracle(state.cm)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])  # partial transpose: p2 -> -p2
    ppt_lo, _ = _eigvals_oracle(flip @ state.cm @ flip)
    assert data.nu_minus == pytest.approx(lo, abs=1e-12)
    assert data.nu_plus == pytest.approx(hi, abs=1e-12)
    assert data.nu_ppt_minus == pytest.approx(ppt_lo, abs=1e-12)


def test_beamsplitter_family_spectrum():
    # [[a I, c I], [c I, b I]] with a = b: eigenvalues a -+ c
    state = TwoModeGaussianState(3.0, 3.0, 1.2, 1.2)
    data = symplectic_spectrum(state)
    assert data.nu_minus == pytest.approx(1.8, abs=1e-12)
    assert data.nu_plus == pytest.approx(4.2, abs=1e-12)
    # phase-insensitive correlations are never entangled
    assert data.nu_ppt_minus >= 1.0 - 1e-12


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
    q = sample_quadratures(standard_form(0.0, 0.0, 0.0), 10 ** 6, seed=123)
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
    state = standard_form(0.5, 0.3, 0.4)
    q1 = sample_quadratures(state, 1000, seed=42)
    q2 = sample_quadratures(state, 1000, seed=42)
    assert np.array_equal(q1, q2)
    q3 = sample_quadratures(state, 1000, seed=43)
    assert not np.array_equal(q1, q3)


def test_sampling_covariance_consistency():
    state = standard_form(0.739, 0.681, 1.084)
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
        sample_quadratures(standard_form(0, 0, 0), 0, seed=1)
