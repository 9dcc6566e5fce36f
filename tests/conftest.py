"""Shared fixtures: spaces and a calibrated ball-box constant."""

import numpy as np
import pytest

from carnot import catalog
from carnot.metric import CCSpace, calibrate_ballbox


@pytest.fixture(scope="session")
def heis():
    return CCSpace(catalog.heisenberg())


@pytest.fixture(scope="session")
def engel_space():
    return CCSpace(catalog.engel())


@pytest.fixture(scope="session")
def filiform():
    # filiform chain of length 6: nilpotency degree 6, the tabulated BCH cap
    n = 7
    c = np.zeros((n, n, n))
    for i in range(1, n - 1):
        c[0, i, i + 1] = 1.0
        c[i, 0, i + 1] = -1.0
    return catalog.GradedAlgebra("filiform7", [2] + [1] * 5, c)


@pytest.fixture(scope="session")
def heis_ballbox(heis):
    return calibrate_ballbox(heis, samples=150, seed=3)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
