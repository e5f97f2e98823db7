import itertools

import numpy as np
import pytest

from bardina_strip import operators
from bardina_strip.operators import (OperatorSet, d2_matrix, d2_values,
                                     trilinear_relative)
from bardina_strip.strip_grid import (Field, StripDomain, inner_product,
                                      l2_norm, make_grid)
from bardina_strip.verification import fit_order, identity_test_fields

# d2(v) d1(lap u) - d1(v) d2(lap u) for u = sin(x1) sin(pi x2 / 2),
# v = cos(x1) (1 - x2^2)^2 on the 2pi x [-1, 1] strip, tabulated by
# high-precision numerical differentiation.
B_TABLE = [
    (0.0, -0.75, 4.204542441157709),
    (0.0, -0.25, 1.2439846447862886),
    (0.0, 0.25, 1.2439846447862886),
    (0.0, 0.75, 4.204542441157709),
    (1.5707963267948966, -0.75, -0.39895116258482605),
    (1.5707963267948966, -0.25, -4.422642738230207),
    (1.5707963267948966, 0.25, -4.422642738230207),
    (1.5707963267948966, 0.75, -0.39895116258482605),
    (3.141592653589793, -0.75, 4.204542441157709),
    (3.141592653589793, -0.25, 1.2439846447862886),
    (3.141592653589793, 0.25, 1.2439846447862886),
    (3.141592653589793, 0.75, 4.204542441157709),
    (4.71238898038469, -0.75, -0.39895116258482605),
    (4.71238898038469, -0.25, -4.422642738230207),
    (4.71238898038469, 0.25, -4.422642738230207),
    (4.71238898038469, 0.75, -0.39895116258482605),
]


def _grid(nx=32, ny=33):
    return make_grid(StripDomain(2.0 * np.pi, 1.0), nx, ny)


def _biharmonic(ops, f):
    """Laplacian applied twice; interior rows match the solver's matrix."""
    lap = ops.laplacian_modal
    return np.fft.irfft(lap(lap(np.fft.rfft(f.values, axis=0))), n=ops.grid.nx, axis=0)


def _table_fields(grid):
    x1, x2 = grid.mesh()
    u = Field(grid, np.sin(x1) * np.sin(np.pi * x2 / 2))
    v = Field(grid, np.cos(x1) * (1 - x2 ** 2) ** 2)
    return u, v


class TestD1:

    def test_exact_on_resolved_mode(self):
        grid = _grid()
        ops = OperatorSet(grid)
        kap = 2 * np.pi / grid.domain.lx
        x1, x2 = grid.mesh()
        f = Field(grid, np.sin(kap * x1) * np.ones_like(x2))
        expected = kap * np.cos(kap * x1) * np.ones_like(x2)
        assert np.abs(ops.ladder(f.values)[1] - expected).max() <= 1e-12 * kap

    def test_constant_maps_to_zero(self):
        grid = _grid()
        f = Field(grid, np.full(grid.shape, 3.7))
        assert np.abs(OperatorSet(grid).ladder(f.values)[1]).max() <= 1e-13

    def test_matches_dense_dft_derivative(self, rng):
        grid = _grid(16, 17)
        ops = OperatorSet(grid)
        coeffs = np.zeros((grid.n_modes, grid.ny), complex)
        coeffs[:5] = rng.standard_normal((5, grid.ny)) + 1j * rng.standard_normal((5, grid.ny))
        coeffs[0] = coeffs[0].real
        vals = np.fft.irfft(coeffs, n=grid.nx, axis=0)
        # dense oracle: differentiate the full spectrum mode by mode
        full = np.fft.fft(vals, axis=0)
        k = np.fft.fftfreq(grid.nx, d=1.0 / grid.nx) * 2 * np.pi / grid.domain.lx
        dense = np.real(np.fft.ifft(1j * k[:, None] * full, axis=0))
        got = ops.ladder(vals)[1]
        assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_commutes_with_transforms(self, rng):
        grid = _grid(16, 17)
        ops = OperatorSet(grid)
        f = Field(grid, rng.standard_normal(grid.shape))
        via_field = np.fft.rfft(ops.ladder(f.values)[1], axis=0)
        factor = 1j * grid.wavenumbers.copy()
        factor[-1] = 0.0
        via_modal = factor[:, None] * np.fft.rfft(f.values, axis=0)
        assert np.abs(via_field - via_modal).max() <= 1e-10


class TestD2:

    def test_exact_on_quadratic(self):
        grid = _grid()
        x1, x2 = grid.mesh()
        f = Field(grid, x2 ** 2 * np.ones_like(x1))
        got = d2_values(f.values, grid.dy)
        assert np.abs(got - 2 * x2).max() <= 1e-12

    def test_constant_maps_to_zero(self):
        grid = _grid()
        f = Field(grid, np.full(grid.shape, -1.5))
        assert np.abs(d2_values(f.values, grid.dy)).max() <= 1e-12

    def test_second_order_convergence(self):
        errs, hs = [], []
        for ny in (17, 33, 65):
            grid = _grid(8, ny)
            x1, x2 = grid.mesh()
            m = grid.domain.m
            f = Field(grid, np.sin(np.pi * x2 / (2 * m)) * np.ones_like(x1))
            exact = (np.pi / (2 * m)) * np.cos(np.pi * x2 / (2 * m)) * np.ones_like(x1)
            errs.append(np.abs(d2_values(f.values, grid.dy) - exact).max())
            hs.append(grid.dy)
        assert fit_order(hs, errs) == pytest.approx(2.0, abs=0.1)


class TestLaplacianBiharmonic:

    @staticmethod
    def _eigenfield(grid):
        x1, x2 = grid.mesh()
        m = grid.domain.m
        kap = 2 * np.pi / grid.domain.lx
        f = np.sin(kap * x1) * np.sin(np.pi * (x2 + m) / (2 * m))
        lam = kap ** 2 + (np.pi / (2 * m)) ** 2
        return Field(grid, f), lam

    def test_zero_maps_to_zero(self):
        grid = _grid()
        ops = OperatorSet(grid)
        z = Field(grid, np.zeros(grid.shape))
        assert np.all(ops.ladder(z.values)[5] == 0.0)
        assert np.all(_biharmonic(ops, z) == 0.0)

    def test_laplacian_eigenvalue(self):
        errs, hs = [], []
        for ny in (17, 33, 65):
            grid = _grid(8, ny)
            ops = OperatorSet(grid)
            f, lam = self._eigenfield(grid)
            err_field = np.abs(ops.ladder(f.values)[5] + lam * f.values) / lam
            assert err_field.max() < 0.02
            # wall closures are one-sided with their own constant; the
            # convergence rate is read off the interior rows
            errs.append(err_field[:, 1:-1].max())
            hs.append(grid.dy)
        assert fit_order(hs, errs) == pytest.approx(2.0, abs=0.2)

    def test_biharmonic_eigenvalue_interior(self):
        errs, hs = [], []
        for ny in (33, 65, 129):
            grid = _grid(8, ny)
            ops = OperatorSet(grid)
            f, lam = self._eigenfield(grid)
            got = _biharmonic(ops, f)[:, 2:-2]
            err = np.abs(got - lam ** 2 * f.values[:, 2:-2]).max() / lam ** 2
            errs.append(err)
            hs.append(grid.dy)
        assert errs[0] < 0.02
        assert fit_order(hs, errs) == pytest.approx(2.0, abs=0.25)

    def test_d2_matrix_matches_operator(self, rng):
        grid = _grid(8, 17)
        mat = d2_matrix(grid.ny, grid.dy)
        from bardina_strip.operators import d2sq_values
        vals = rng.standard_normal(grid.shape)
        assert np.allclose(vals @ mat.T, d2sq_values(vals, grid.dy), atol=1e-10)


class TestLadder:

    def test_channels_match_closed_form(self):
        # sin(k x1 + phi) q(x2) with q quadratic: the spectral x1 derivatives
        # and the second-order x2 stencils (wall closures included) are exact
        grid = make_grid(StripDomain(5.0, 1.3), 24, 21)
        ops = OperatorSet(grid)
        x1, x2 = grid.mesh()
        kap, phi = 3 * 2 * np.pi / grid.domain.lx, 0.4
        s, c = np.sin(kap * x1 + phi), np.cos(kap * x1 + phi)
        q, dq, ddq = 0.7 + 0.3 * x2 - 1.1 * x2 ** 2, 0.3 - 2.2 * x2, -2.2
        lap = -kap ** 2 * s * q + s * ddq
        expected = [s * q, kap * c * q, s * dq, -kap ** 2 * s * q, kap * c * dq,
                    lap, kap * c * (ddq - kap ** 2 * q)]
        got = ops.ladder(s * q)
        assert got.shape == (7,) + grid.shape
        for channel, want in zip(got, expected):
            want = np.broadcast_to(want, grid.shape)
            err = np.abs(channel - want).max()
            assert err <= 1e-13 * np.abs(want).max()

    def test_field_computes_its_ladder_once(self, rng, monkeypatch):
        grid = make_grid(StripDomain(5.0, 1.3), 24, 21)
        calls = []
        ladder = OperatorSet.ladder
        monkeypatch.setattr(OperatorSet, "ladder", lambda self, values, coeffs=None:
                            calls.append(1) or ladder(self, values, coeffs))
        f = Field(grid, rng.standard_normal(grid.shape))
        with pytest.raises(ValueError, match="read-only"):
            f.values[0, 0] = 1.0
        first = OperatorSet(grid).field_ladder(f)
        # another operator set on an equal grid reads the same stack
        again = OperatorSet(make_grid(StripDomain(5.0, 1.3), 24, 21)).field_ladder(f)
        assert again is first and len(calls) == 1
        assert np.array_equal(first, ladder(OperatorSet(grid), f.values.copy()))
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0, 0] = 1.0

    def test_values_path_is_the_ladder_of_rfft_coefficients(self, rng):
        # a plain field's ladder is the coefficient ladder of rfft(values)
        grid = make_grid(StripDomain(5.0, 1.3), 24, 21)
        ops = OperatorSet(grid)
        values = rng.standard_normal(grid.shape)
        coeffs = np.fft.rfft(values, axis=0)
        assert np.array_equal(ops.ladder(values), ops.ladder(values, coeffs))

    def test_field_on_another_grid_rejected(self, rng):
        f = Field(_grid(), rng.standard_normal((32, 33)))
        with pytest.raises(ValueError, match="different grids"):
            OperatorSet(make_grid(StripDomain(5.0, 1.0), 32, 33)).field_ladder(f)


class TestBilinearForm:

    def test_horizontal_independence_annihilates(self):
        grid = _grid()
        x1, x2 = grid.mesh()
        v = Field(grid, (1 - x2 ** 2) ** 2 * np.ones_like(x1))
        ops = OperatorSet(grid)
        assert np.abs(ops.bilinear_B(v, v).values).max() <= 1e-12
        assert np.abs(ops.bilinear_B_conservative(v, v).values).max() <= 1e-12

    @pytest.mark.parametrize("form", ["bilinear_B", "bilinear_B_conservative"])
    def test_matches_tabulated_values(self, form):
        errs, hs = [], []
        for ny in (17, 33, 65):
            grid = _grid(32, ny)
            ops = OperatorSet(grid)
            u, v = _table_fields(grid)
            b = getattr(ops, form)(u, v).values
            worst = 0.0
            for x1v, x2v, expected in B_TABLE:
                i = int(round(x1v / grid.dx))
                j = int(round((x2v + grid.domain.m) / grid.dy))
                worst = max(worst, abs(b[i, j] - expected))
            errs.append(worst / max(abs(r[2]) for r in B_TABLE))
            hs.append(grid.dy)
        assert errs[-1] < 5e-3
        assert fit_order(hs, errs) >= 1.8

    def test_forms_agree_under_refinement(self):
        diffs, hs = [], []
        for ny in (33, 65, 129):
            grid = _grid(32, ny)
            ops = OperatorSet(grid)
            u, v, _w = identity_test_fields(grid)
            d = ops.bilinear_B(u, v).values - ops.bilinear_B_conservative(u, v).values
            diffs.append(np.abs(d).max() / np.abs(ops.bilinear_B(u, v).values).max())
            hs.append(grid.dy)
        assert fit_order(hs, diffs) >= 1.8


def _advection_per_transform(ops, u_hat, v_hat):
    """The advective term with one transform per factor and per product, and
    the largest squared speed of the truncated ``v``."""
    grid = ops.grid
    nx, dy = grid.nx, grid.dy
    ik = 1j * grid.wavenumbers.astype(np.complex128)
    ik[-1] = 0.0
    ik = ik[:, None]
    ut, vt = ops.dealias_modal(u_hat), ops.dealias_modal(v_hat)
    d1v = np.fft.irfft(ik * vt, n=nx, axis=0)
    d2v = d2_values(np.fft.irfft(vt, n=nx, axis=0), dy)
    lap = np.fft.irfft(ops.laplacian_modal(ut), n=nx, axis=0)
    b_hat = ik * np.fft.rfft(d2v * lap, axis=0)
    b_hat -= d2_values(np.fft.rfft(d1v * lap, axis=0), dy)
    return ops.dealias_modal(b_hat), float((d1v * d1v + d2v * d2v).max())


class TestBatchedAdvection:

    def test_bitwise_equal_to_per_transform_composition(self, rng):
        # the 2/3 cut keeps 8, 10, 11 and 22 modes
        for nx, ny in itertools.product((24, 30, 32, 64), (21, 33)):
            grid = make_grid(StripDomain(5.0, 1.3), nx, ny)
            ops = OperatorSet(grid)
            u_hat, v_hat = (np.fft.rfft(rng.standard_normal(grid.shape), axis=0)
                            for _ in range(2))
            strided = np.fft.rfft(rng.standard_normal((nx, 2 * ny)), axis=0)[:, ::2]
            assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
            for u, v, lap_u in ((u_hat, v_hat, None), (u_hat, u_hat, None),
                                (u_hat, u_hat, ops.laplacian_modal(u_hat)),
                                (strided, strided, None), (u_hat, strided, None)):
                want_b, want_speed2 = _advection_per_transform(ops, u, v)
                b_hat, speed2 = ops.advection_modal(u, v, lap_u)
                assert np.array_equal(b_hat, want_b) and speed2 == want_speed2
                assert b_hat.flags.f_contiguous
                assert np.all(b_hat[np.arange(grid.n_modes) >= nx / 3.0] == 0.0)

    @pytest.mark.parametrize("ny", [21, 33])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 10, 16, 19, 31])
    def test_blocks_of_rows_equal_one_block(self, monkeypatch, rng, ny, rows):
        # the last block has 1 row at heights 4 and 10 (ny = 21) or 4 and 16
        # (ny = 33), and 2 rows at 19 (ny = 21) or 31 (ny = 33); a block
        # gathers the rows of the whole grid's x2 stencils, however short
        nx = 24
        grid = make_grid(StripDomain(5.0, 1.3), nx, ny)
        ops = OperatorSet(grid)
        u_hat, v_hat = (np.fft.rfft(rng.standard_normal(grid.shape), axis=0)
                        for _ in range(2))
        assert operators.ADVECTION_BLOCK_BYTES >= 8 * nx * ny
        b_hat, speed2 = ops.advection_modal(u_hat, v_hat)
        monkeypatch.setattr(operators, "ADVECTION_BLOCK_BYTES", 8 * nx * rows)
        blocked, blocked_speed2 = ops.advection_modal(u_hat, v_hat)
        assert np.array_equal(blocked, b_hat) and blocked_speed2 == speed2


class TestTrilinearIdentities:

    @staticmethod
    def _conservative(ops, u, v, w):
        return trilinear_relative(ops.bilinear_B_conservative(u, v),
                                  ops.bilinear_B_conservative(u, w), v, w)

    def test_zero_triple(self):
        grid = _grid()
        z = Field(grid, np.zeros(grid.shape), clamped=True)
        assert self._conservative(OperatorSet(grid), z, z, z) == (0.0, 0.0)

    def test_conservative_form_telescopes_exactly(self):
        # spectral summation by parts in x1 plus wall-vanishing tangential
        # derivatives make the conservative pairings cancel to rounding
        grid = _grid(64, 65)
        ops = OperatorSet(grid)
        u, v, w = identity_test_fields(grid)
        r1, r2 = self._conservative(ops, u, v, w)
        assert r1 <= 1e-12
        assert r2 <= 1e-12

    def test_swap_symmetry(self):
        grid = _grid(32, 33)
        ops = OperatorSet(grid)
        u, v, w = identity_test_fields(grid)
        r1a, _ = self._conservative(ops, u, v, w)
        r1b, _ = self._conservative(ops, u, w, v)
        assert r1a == pytest.approx(r1b, rel=1e-9, abs=1e-14)

    def test_pointwise_defect_second_order(self):
        rels, hs = [], []
        for ny in (65, 129, 257):
            grid = _grid(32, ny)
            ops = OperatorSet(grid)
            u, v, w = identity_test_fields(grid)
            b_uv = ops.bilinear_B(u, v)
            b_uw = ops.bilinear_B(u, w)
            r1 = abs(inner_product(b_uv, w) + inner_product(b_uw, v))
            r2 = abs(inner_product(b_uv, v))
            s1 = l2_norm(b_uv) * l2_norm(w) + l2_norm(b_uw) * l2_norm(v)
            s2 = l2_norm(b_uv) * l2_norm(v)
            rels.append((r1 / s1, r2 / s2))
            hs.append(grid.dy)
        assert rels[0][0] < 1e-3 and rels[0][1] < 1e-3
        assert fit_order(hs, [r[0] for r in rels]) >= 1.8
        assert fit_order(hs, [r[1] for r in rels]) >= 1.8


class TestDealiasing:

    @staticmethod
    def _band_limited(grid, kmax, gen):
        c = np.zeros((grid.n_modes, grid.ny), complex)
        c[:kmax + 1] = (gen.standard_normal((kmax + 1, grid.ny))
                        + 1j * gen.standard_normal((kmax + 1, grid.ny)))
        c[0] = c[0].real
        return np.fft.irfft(c, n=grid.nx, axis=0)

    def test_matches_padded_transform_oracle(self, rng):
        # band-limited factors: the products formed on the 48-point grid are
        # exact, so truncating them is what the 2/3 rule must give
        grid = _grid(24, 17)
        ops = OperatorSet(grid)
        nx, dy = grid.nx, grid.dy
        kmax = 7  # inside the retained band (k < 8)
        u_hat, v_hat = (np.fft.rfft(self._band_limited(grid, kmax, rng), axis=0)
                        for _ in range(2))
        got = ops.advection_modal(u_hat, v_hat)[0]

        def pad(c, nx2=48):
            cp = np.zeros((nx2 // 2 + 1, c.shape[1]), complex)
            cp[:c.shape[0]] = c * (nx2 / nx)
            return np.fft.irfft(cp, n=nx2, axis=0)

        def back(values):
            c = np.fft.rfft(values, axis=0)[:grid.n_modes] / 2.0
            c[~(np.arange(grid.n_modes) < nx / 3.0)] = 0.0
            return c

        ik = 1j * grid.wavenumbers[:, None]
        lap = pad(ops.laplacian_modal(u_hat))
        d2v_lap = back(d2_values(pad(v_hat), dy) * lap)
        d1v_lap = back(pad(ik * v_hat) * lap)
        oracle = ik * d2v_lap - d2_values(d1v_lap, dy)
        assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_truncation_is_projection(self, rng):
        grid = _grid(16, 17)
        ops = OperatorSet(grid)
        c = np.fft.rfft(rng.standard_normal(grid.shape), axis=0)
        once = ops.dealias_modal(c)
        assert np.array_equal(ops.dealias_modal(once), once)
        assert np.array_equal(once[:6], c[:6])  # k < 16 / 3 is kept
        assert np.all(once[6:] == 0.0)
