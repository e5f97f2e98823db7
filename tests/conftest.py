import numpy as np
import pytest

from bardina_strip.operators import OperatorSet
from bardina_strip.strip_grid import StripDomain, make_grid


@pytest.fixture
def small_grid():
    return make_grid(StripDomain(2.0 * np.pi, 1.0), 16, 17)


@pytest.fixture
def medium_grid():
    return make_grid(StripDomain(2.0 * np.pi, 1.0), 32, 33)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def frozen_advection(monkeypatch):
    """Freeze the quadratic term: the advection is zero and so is the squared
    speed, so every stepper solves the linear problem at a CFL number of 0."""
    monkeypatch.setattr(OperatorSet, "advection_modal",
                        lambda self, u_hat, v_hat, lap_u_hat=None: (np.zeros_like(v_hat), 0.0))
