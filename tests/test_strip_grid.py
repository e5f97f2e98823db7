import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bardina_strip.strip_grid import (Field, StripDomain, inner_product,
                                      l2_norm, make_grid)

_HYPO_GRID = make_grid(StripDomain(2.0 * np.pi, 1.0), 16, 17)


class TestMakeGrid:

    def test_spacings_match_definitions(self):
        grid = make_grid(StripDomain(2.0 * np.pi, 1.0), 8, 9)
        assert grid.dx == pytest.approx(np.pi / 4, rel=1e-15)
        assert grid.dy == pytest.approx(0.25, rel=1e-15)

    def test_node_layout(self):
        grid = make_grid(StripDomain(4.0, 2.0), 10, 11)
        assert grid.x1[0] == 0.0
        assert grid.x1[-1] == pytest.approx(4.0 - grid.dx)
        assert grid.x2[0] == -2.0
        assert grid.x2[-1] == 2.0
        assert np.allclose(np.diff(grid.x2), grid.dy)

    def test_quadrature_weights_sum_to_width(self):
        grid = make_grid(StripDomain(2.0 * np.pi, 1.0), 8, 9)
        assert grid.quad_weights.sum() == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("nx,ny,match", [
        (7, 9, "even"), (6, 9, ">= 8"), (8, 8, ">= 9"),
    ])
    def test_rejects_underresolved(self, nx, ny, match):
        with pytest.raises(ValueError, match=match):
            make_grid(StripDomain(2.0 * np.pi, 1.0), nx, ny)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            StripDomain(0.0, 1.0)
        with pytest.raises(ValueError):
            StripDomain(1.0, -2.0)


class TestTransforms:

    def test_cosine_hits_single_mode(self, small_grid):
        f = Field(small_grid, np.cos(2 * np.pi * small_grid.x1[:, None]
                                     / small_grid.domain.lx)
                  * np.ones(small_grid.ny)[None, :])
        coeffs = np.fft.rfft(f.values, axis=0)
        assert coeffs[1] == pytest.approx(small_grid.nx / 2, rel=1e-12)
        others = np.delete(coeffs, 1, axis=0)
        assert np.abs(others).max() < 1e-12 * small_grid.nx

    def test_constant_is_mean_mode(self, small_grid):
        f = Field(small_grid, np.full(small_grid.shape, 0.7))
        coeffs = np.fft.rfft(f.values, axis=0)
        assert np.allclose(coeffs[0].real, 0.7 * small_grid.nx)
        assert np.abs(coeffs[1:]).max() < 1e-12 * small_grid.nx

    def test_round_trip(self, small_grid, rng):
        f = Field(small_grid, rng.standard_normal(small_grid.shape))
        back = np.fft.irfft(np.fft.rfft(f.values, axis=0), n=small_grid.nx, axis=0)
        assert np.abs(back - f.values).max() <= 1e-12 * np.abs(f.values).max()

    def test_parseval(self, small_grid, rng):
        vals = rng.standard_normal(small_grid.shape)
        coeffs = np.fft.rfft(vals, axis=0)
        nx = small_grid.nx
        direct = (vals ** 2).sum(axis=0)
        weights = np.full(small_grid.n_modes, 2.0)
        weights[0] = 1.0
        if nx % 2 == 0:
            weights[-1] = 1.0
        modal = (weights[:, None] * np.abs(coeffs) ** 2).sum(axis=0) / nx
        assert np.abs(direct - modal).max() <= 1e-12 * direct.max()

    def test_hermitian_modal_against_dense_inverse(self, small_grid, rng):
        nm, ny, nx = small_grid.n_modes, small_grid.ny, small_grid.nx
        coeffs = rng.standard_normal((nm, ny)) + 1j * rng.standard_normal((nm, ny))
        coeffs[0] = coeffs[0].real
        coeffs[-1] = coeffs[-1].real  # Nyquist column of an even grid
        f = np.fft.irfft(coeffs, n=nx, axis=0)
        # dense inverse-DFT oracle from the full conjugate-symmetric spectrum
        full = np.zeros((nx, ny), complex)
        full[:nm] = coeffs
        full[nm:] = np.conj(coeffs[1:-1][::-1])
        nodes = np.exp(2j * np.pi * np.outer(np.arange(nx), np.arange(nx)) / nx)
        dense = (nodes @ full) / nx
        assert np.abs(dense.imag).max() <= 1e-13 * np.abs(dense.real).max()
        assert np.abs(f - dense.real).max() <= 1e-12 * np.abs(f).max()


class TestInnerProduct:

    def test_separable_sine_integral(self, small_grid):
        lx, m = small_grid.domain.lx, small_grid.domain.m
        x1, x2 = small_grid.mesh()
        vals = np.sin(2 * np.pi * x1 / lx) * np.sin(np.pi * (x2 + m) / (2 * m))
        f = Field(small_grid, vals)
        # both quadratures integrate this product of full-period squares exactly
        assert inner_product(f, f) == pytest.approx(lx * m / 2, rel=1e-12)

    def test_unit_area(self, small_grid):
        one = Field(small_grid, np.ones(small_grid.shape))
        lx, m = small_grid.domain.lx, small_grid.domain.m
        assert inner_product(one, one) == pytest.approx(lx * 2 * m, rel=1e-15)

    def test_linear_polynomial_exact(self, small_grid):
        x1, x2 = small_grid.mesh()
        f = Field(small_grid, (0.3 + 0.7 * x2) * np.ones_like(x1))
        one = Field(small_grid, np.ones(small_grid.shape))
        lx, m = small_grid.domain.lx, small_grid.domain.m
        assert inner_product(f, one) == pytest.approx(0.3 * lx * 2 * m, rel=1e-13)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2 ** 31 - 1))
    def test_symmetry(self, seed):
        grid = _HYPO_GRID
        gen = np.random.default_rng(seed)
        f = Field(grid, gen.standard_normal(grid.shape))
        h = Field(grid, gen.standard_normal(grid.shape))
        assert inner_product(f, h) == inner_product(h, f)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2 ** 31 - 1),
           a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_bilinearity(self, seed, a, b):
        grid = _HYPO_GRID
        gen = np.random.default_rng(seed)
        f = Field(grid, gen.standard_normal(grid.shape))
        g = Field(grid, gen.standard_normal(grid.shape))
        h = Field(grid, gen.standard_normal(grid.shape))
        combo = Field(grid, a * f.values + b * g.values)
        lhs = inner_product(combo, h)
        rhs = a * inner_product(f, h) + b * inner_product(g, h)
        scale = (abs(a) * l2_norm(f) + abs(b) * l2_norm(g)) * l2_norm(h) + 1e-30
        assert abs(lhs - rhs) <= 1e-12 * scale

    def test_weighted_pairing(self, small_grid, rng):
        f = Field(small_grid, rng.standard_normal(small_grid.shape))
        w = Field(small_grid, 1.0 + rng.random(small_grid.shape))
        direct = small_grid.dx * ((f.values ** 2 * w.values)
                                  @ small_grid.quad_weights).sum()
        assert inner_product(f, f, w) == pytest.approx(direct, rel=1e-14)

    def test_grid_mismatch_rejected(self, small_grid, medium_grid):
        f = Field(small_grid, np.zeros(small_grid.shape))
        h = Field(medium_grid, np.zeros(medium_grid.shape))
        with pytest.raises(ValueError, match="different grids"):
            inner_product(f, h)


class TestFieldValidation:

    def test_rejects_non_finite(self, small_grid):
        vals = np.zeros(small_grid.shape)
        vals[3, 4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Field(small_grid, vals)

    def test_rejects_wrong_shape(self, small_grid):
        with pytest.raises(ValueError, match="shape"):
            Field(small_grid, np.zeros((2, 2)))

    def test_clamped_flag_reflects_walls(self, small_grid):
        x1, x2 = small_grid.mesh()
        f = Field(small_grid, np.sin(x1) * (1 - x2 ** 2) ** 2, clamped=True)
        assert np.all(f.values[:, [0, -1]] == 0.0)
