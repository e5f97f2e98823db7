import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bardina_strip.horizontal_filter import (FilterSpec, apply_Ah,
                                             helmholtz_multiplier, invert_Ah)
from bardina_strip.strip_grid import (Field, StripDomain, inner_product,
                                      l2_norm, make_grid)

_GRID = make_grid(StripDomain(2.0 * np.pi, 1.0), 16, 17)


def _random_field(seed):
    gen = np.random.default_rng(seed)
    return Field(_GRID, gen.standard_normal(_GRID.shape))


class TestSpec:

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            FilterSpec(alpha=-0.1)

    def test_multiplier_never_below_one(self):
        mult = helmholtz_multiplier(_GRID, FilterSpec(alpha=0.7))
        assert np.all(mult >= 1.0)
        assert mult[0] == 1.0


class TestEigenfunctions:

    def test_unit_wavenumber_doubles(self):
        x1, x2 = _GRID.mesh()
        f = Field(_GRID, np.cos(x1) * (1 + 0.5 * x2))
        out = apply_Ah(f, FilterSpec(alpha=1.0))
        assert np.abs(out.values - 2.0 * f.values).max() <= 1e-12

    def test_unit_wavenumber_halves_under_inverse(self):
        x1, x2 = _GRID.mesh()
        f = Field(_GRID, np.cos(x1) * np.ones_like(x2))
        out = invert_Ah(f, FilterSpec(alpha=1.0))
        assert np.abs(out.values - 0.5 * f.values).max() <= 1e-12

    def test_alpha_zero_is_identity(self):
        f = _random_field(0)
        spec = FilterSpec(alpha=0.0)
        assert np.abs(apply_Ah(f, spec).values - f.values).max() <= 1e-13
        assert np.abs(invert_Ah(f, spec).values - f.values).max() <= 1e-13

    def test_mean_mode_untouched(self):
        _x1, x2 = _GRID.mesh()
        f = Field(_GRID, (x2 ** 3 - x2) * np.ones(_GRID.nx)[:, None])
        out = invert_Ah(f, FilterSpec(alpha=2.5))
        assert np.abs(out.values - f.values).max() <= 1e-13


class TestRoundTripAndAdjointness:

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2 ** 31 - 1), alpha=st.floats(0.0, 5.0))
    def test_round_trip(self, seed, alpha):
        f = _random_field(seed)
        spec = FilterSpec(alpha=alpha)
        back = invert_Ah(apply_Ah(f, spec), spec)
        assert np.abs(back.values - f.values).max() <= 1e-12 * max(
            1.0, np.abs(f.values).max())

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 2 ** 31 - 1))
    def test_self_adjoint(self, seed):
        gen = np.random.default_rng(seed)
        f = Field(_GRID, gen.standard_normal(_GRID.shape))
        h = Field(_GRID, gen.standard_normal(_GRID.shape))
        spec = FilterSpec(alpha=0.8)
        lhs = inner_product(invert_Ah(f, spec), h)
        rhs = inner_product(f, invert_Ah(h, spec))
        assert abs(lhs - rhs) <= 1e-12 * (l2_norm(f) * l2_norm(h) + 1e-30)

    def test_smoothing_never_amplifies(self):
        spec = FilterSpec(alpha=1.3)
        for seed in range(100):
            f = _random_field(seed)
            assert l2_norm(invert_Ah(f, spec)) <= l2_norm(f) * (1 + 1e-13)

    def test_modal_magnitudes_monotone(self):
        f = _random_field(7)
        spec = FilterSpec(alpha=0.6)
        before = np.abs(np.fft.rfft(f.values, axis=0))
        after = np.abs(np.fft.rfft(invert_Ah(f, spec).values, axis=0))
        assert np.all(after <= before * (1 + 1e-12))


class TestCommutation:

    def test_commutes_with_d1_and_d2(self):
        from bardina_strip.operators import OperatorSet
        ops = OperatorSet(_GRID)
        f = _random_field(3)
        spec = FilterSpec(alpha=0.9)
        scale = np.abs(f.values).max()
        a = ops.d1(invert_Ah(f, spec)).values
        b = invert_Ah(ops.d1(f), spec).values
        assert np.abs(a - b).max() <= 1e-12 * scale
        a = ops.d2(invert_Ah(f, spec)).values
        b = invert_Ah(ops.d2(f), spec).values
        assert np.abs(a - b).max() <= 1e-11 * scale / _GRID.dy
