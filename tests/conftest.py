import numpy as np
import pytest

import mwqi

# bright-background reference operating point used across the suite
REF_GAMMA_W = 5181.95
REF_GAMMA_O = 668.43
REF_ETA = 0.07
REF_T_B = 293.0


@pytest.fixture(scope="session")
def params():
    return mwqi.nominal_params()


@pytest.fixture(scope="session")
def ref_coop():
    return mwqi.Cooperativities(REF_GAMMA_W, REF_GAMMA_O)


@pytest.fixture(scope="session")
def ref_coefficients(ref_coop):
    return mwqi.coefficients(ref_coop)


@pytest.fixture(scope="session")
def baths(params):
    return mwqi.bath_occupations(params)


@pytest.fixture(scope="session")
def ref_moments(ref_coefficients, baths):
    return mwqi.source_moments(ref_coefficients, baths.n_w, baths.n_o, baths.n_b)


@pytest.fixture(scope="session")
def ref_channel(params):
    return mwqi.TargetChannelParams.from_temperature(REF_ETA, REF_T_B, params.omega_w)


@pytest.fixture(scope="session")
def ref_receiver(ref_coefficients):
    return mwqi.ReceiverParams(ref_coefficients)


@pytest.fixture(scope="session")
def cm():
    """The 4x4 float64 covariance matrix [[a I, c Z], [c Z, b I]] of a state, in
    (x1, p1, x2, p2) ordering: the matrix form the tests use as an oracle.  A
    fixture, since test modules cannot import this conftest by name while
    ``perfbench/tests`` has one too."""
    def matrix(state):
        a, b, c = state.a, state.b, state.c
        return np.array([[a, 0.0, c, 0.0],
                         [0.0, a, 0.0, -c],
                         [c, 0.0, b, 0.0],
                         [0.0, -c, 0.0, b]])
    return matrix
