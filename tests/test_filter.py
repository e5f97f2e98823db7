import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bardina_strip.operators import OperatorSet, d2_values
from bardina_strip.solver import SolverConfig
from bardina_strip.strip_grid import (Field, StripDomain, inner_product,
                                      l2_norm, make_grid)

_GRID = make_grid(StripDomain(2.0 * np.pi, 1.0), 16, 17)
_OPS = OperatorSet(_GRID)


def _scale_modes(f, scale):
    coeffs = np.fft.rfft(f.values, axis=0) * scale[:, None]
    return Field(_GRID, np.fft.irfft(coeffs, n=_GRID.nx, axis=0))


def apply_Ah(f, alpha):
    """The filter ``I - alpha^2 d1^2``: each ``x1`` mode times its symbol."""
    return _scale_modes(f, _OPS.helmholtz(alpha))


def invert_Ah(f, alpha):
    """The inverse filter as the stepper applies it: each mode times the
    reciprocal of the symbol."""
    return _scale_modes(f, 1.0 / _OPS.helmholtz(alpha))


def _random_field(seed):
    gen = np.random.default_rng(seed)
    return Field(_GRID, gen.standard_normal(_GRID.shape))


class TestSpec:

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=-0.1)

    def test_multiplier_never_below_one(self):
        mult = _OPS.helmholtz(0.7)
        assert np.all(mult >= 1.0)
        assert mult[0] == 1.0


class TestEigenfunctions:

    def test_unit_wavenumber_doubles(self):
        x1, x2 = _GRID.mesh()
        f = Field(_GRID, np.cos(x1) * (1 + 0.5 * x2))
        out = apply_Ah(f, 1.0)
        assert np.abs(out.values - 2.0 * f.values).max() <= 1e-12

    def test_unit_wavenumber_halves_under_inverse(self):
        x1, x2 = _GRID.mesh()
        f = Field(_GRID, np.cos(x1) * np.ones_like(x2))
        out = invert_Ah(f, 1.0)
        assert np.abs(out.values - 0.5 * f.values).max() <= 1e-12

    def test_alpha_zero_is_identity(self):
        f = _random_field(0)
        alpha = 0.0
        assert np.abs(apply_Ah(f, alpha).values - f.values).max() <= 1e-13
        assert np.abs(invert_Ah(f, alpha).values - f.values).max() <= 1e-13

    def test_mean_mode_untouched(self):
        _x1, x2 = _GRID.mesh()
        f = Field(_GRID, (x2 ** 3 - x2) * np.ones(_GRID.nx)[:, None])
        out = invert_Ah(f, 2.5)
        assert np.abs(out.values - f.values).max() <= 1e-13


class TestRoundTripAndAdjointness:

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2 ** 31 - 1), alpha=st.floats(0.0, 5.0))
    def test_round_trip(self, seed, alpha):
        f = _random_field(seed)
        back = invert_Ah(apply_Ah(f, alpha), alpha)
        assert np.abs(back.values - f.values).max() <= 1e-12 * max(
            1.0, np.abs(f.values).max())

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 2 ** 31 - 1))
    def test_self_adjoint(self, seed):
        gen = np.random.default_rng(seed)
        f = Field(_GRID, gen.standard_normal(_GRID.shape))
        h = Field(_GRID, gen.standard_normal(_GRID.shape))
        alpha = 0.8
        lhs = inner_product(invert_Ah(f, alpha), h)
        rhs = inner_product(f, invert_Ah(h, alpha))
        assert abs(lhs - rhs) <= 1e-12 * (l2_norm(f) * l2_norm(h) + 1e-30)

    def test_smoothing_never_amplifies(self):
        alpha = 1.3
        for seed in range(100):
            f = _random_field(seed)
            assert l2_norm(invert_Ah(f, alpha)) <= l2_norm(f) * (1 + 1e-13)

    def test_modal_magnitudes_monotone(self):
        f = _random_field(7)
        alpha = 0.6
        before = np.abs(np.fft.rfft(f.values, axis=0))
        after = np.abs(np.fft.rfft(invert_Ah(f, alpha).values, axis=0))
        assert np.all(after <= before * (1 + 1e-12))


class TestCommutation:

    def test_commutes_with_d1_and_d2(self):
        f = _random_field(3)
        alpha = 0.9
        scale = np.abs(f.values).max()
        a = _OPS.ladder(invert_Ah(f, alpha).values)[1]
        b = invert_Ah(Field(_GRID, _OPS.ladder(f.values)[1]), alpha).values
        assert np.abs(a - b).max() <= 1e-12 * scale
        a = d2_values(invert_Ah(f, alpha).values, _GRID.dy)
        b = invert_Ah(Field(_GRID, d2_values(f.values, _GRID.dy)), alpha).values
        assert np.abs(a - b).max() <= 1e-11 * scale / _GRID.dy
