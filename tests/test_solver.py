import hashlib
import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import sympy as sym
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bardina_strip import banded, mms
from bardina_strip.diagnostics import DiagnosticsCollector, closed_bound, energy_budget
from bardina_strip.operators import OperatorSet, d2_matrix, d2_values
from bardina_strip.runio import parse_config_text
from bardina_strip.solver import (DENSE_INVERSE_BYTES, MAX_NODES, MAX_STEPS,
                                  BlowUpError, CflWarning, FieldSpec, Forcing,
                                  ImexStepper, SolverConfig, build_field, build_forcing,
                                  run)
from bardina_strip.strip_grid import Field, inner_product, l2_norm, quadrature
from bardina_strip.verification import SECOND_ORDER_WINDOW, fit_order
from bardina_strip.weights import make_weight_field

# forcing of the steady reference at nu = 0.05, alpha = 0.3, tabulated by
# high-precision numerical differentiation of the closed form
STEADY_FORCING_TABLE = [
    (0.0, -0.75, -0.5639902750651041),
    (0.0, -0.25, 2.0299224853515625),
    (0.0, 0.25, 1.0299224853515625),
    (0.0, 0.75, -3.5639902750651045),
    (1.5707963267948966, -0.75, 0.481318359375),
    (1.5707963267948966, -0.25, -1.210150390625),
    (1.5707963267948966, 0.25, -2.210150390625),
    (1.5707963267948966, 0.75, -2.518681640625),
    (3.141592653589793, -0.75, 3.5639902750651045),
    (3.141592653589793, -0.25, -1.0299224853515625),
    (3.141592653589793, 0.25, -2.0299224853515625),
    (3.141592653589793, 0.75, 0.5639902750651041),
    (4.71238898038469, -0.75, 2.518681640625),
    (4.71238898038469, -0.25, 2.210150390625),
    (4.71238898038469, 0.25, 1.210150390625),
    (4.71238898038469, 0.75, -0.481318359375),
]


def _decay_config(**over):
    kw = dict(nx=32, ny=33, dt=1e-3, t_end=0.05, nu=0.01, alpha=0.5,
              ic=FieldSpec(kind="trig_clamped", amplitude=1.0, k1=1, k2=0))
    kw.update(over)
    return SolverConfig(**kw)


def _mms_forcing(name, grid, nu=0.05, alpha=0.3):
    """The separable forcing of reference ``name`` on ``grid``, as a run builds it."""
    cfg = SolverConfig(lx=grid.domain.lx, m=grid.domain.m, nx=grid.nx, ny=grid.ny,
                       nu=nu, alpha=alpha, forcing=FieldSpec(kind="mms", reference=name))
    return build_forcing(cfg, grid)


def _biharmonic(ops, v):
    """Laplacian applied twice; interior rows match the solver's matrix."""
    lap = ops.laplacian_modal
    return np.fft.irfft(lap(lap(np.fft.rfft(v.values, axis=0))), n=ops.grid.nx, axis=0)


_X1, _X2, _T = sym.symbols("x1 x2 t", real=True)


def _sympy_catalog(lx, m):
    """The reference catalog written out in sympy, an oracle independent of
    the term algebra in ``mms``."""
    k = 2 * sym.pi / lx
    env = (1 - (_X2 / m) ** 2) ** 2
    odd = (_X2 / m) * env
    pulse = (1 + sym.Rational(1, 2) * sym.cos(sym.Rational(13, 10) * _T)) * sym.sin(k * _X1) * env
    return {
        "pulsing_mode": pulse,
        "two_mode": pulse + sym.Rational(2, 5) * sym.sin(sym.Rational(7, 10) * _T
                                                         + sym.Rational(3, 10))
        * sym.cos(k * _X1) * odd,
        "steady_mode": sym.sin(k * _X1) * env + sym.Rational(1, 3) * odd,
        "zero_field": sym.Integer(0) * _X1,
    }


def _lambdified_forcing(name, nu, alpha, lx, m):
    """The residual of the sympy ``v*`` lambdified as one expanded expression."""
    v = _sympy_catalog(lx, m)[name]

    def lap(e):
        return sym.diff(e, _X1, 2) + sym.diff(e, _X2, 2)

    def a_h(e):
        return e - alpha ** 2 * sym.diff(e, _X1, 2)

    lap_v = lap(v)
    g = (a_h(lap(sym.diff(v, _T))) + sym.diff(v, _X2) * sym.diff(lap_v, _X1)
         - sym.diff(v, _X1) * sym.diff(lap_v, _X2) - nu * a_h(lap(lap_v)))
    return sym.lambdify((_X1, _X2, _T), sym.expand(g), modules="numpy")


# positive floats from the smallest subnormal to the largest finite one
_EXTREME_POSITIVE = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from([5e-324, 1e-300, 1e-160, 1e-80, 1e80, 1e155, 1e300, 1.7976931348623157e308]),
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308))
_WAVENUMBERS = st.integers(-4, 4) | st.integers(-10 ** 400, 10 ** 400)
_KINDS = st.sampled_from(["zero", "trig_clamped", "mms"])


class TestConfigValidation:

    def test_rejects_nonpositive_viscosity(self):
        with pytest.raises(ValueError, match="nu"):
            SolverConfig(nu=0.0)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            SolverConfig(dt=-1e-3)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            SolverConfig(scheme="rk4")

    def test_rejects_step_count_above_max_steps(self):
        assert SolverConfig(dt=1e-3, t_end=1e6).n_steps == MAX_STEPS
        with pytest.raises(ValueError, match=r"t_end / dt"):
            SolverConfig(dt=1e-3, t_end=1e6 + 1e-3)

    def test_rejects_grid_beyond_float_range_or_max_nodes(self):
        # both fail before any grid is built, naming the key at fault
        with pytest.raises(ValueError, match="^ny is too large"):
            SolverConfig(ny=10 ** 400)
        assert SolverConfig(nx=2 ** 13, ny=2 ** 14).nx * 2 ** 14 == MAX_NODES
        for nx, ny in ((32, 100000000001), (100000000002, 33), (2 ** 13, 2 ** 14 + 1)):
            with pytest.raises(ValueError, match=r"^nx \* ny = "):
                SolverConfig(nx=nx, ny=ny)
        with pytest.raises(ValueError, match=r"nx \* ny"):
            parse_config_text("nx = 100000000002\n")
        with pytest.raises(ValueError, match="ny is too large"):
            parse_config_text("ny = 1" + "0" * 400 + "\n")

    def test_rejects_incommensurate_horizon(self):
        with pytest.raises(ValueError, match="multiple"):
            SolverConfig(dt=3e-3, t_end=0.01)

    def test_rejects_bad_forcing_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FieldSpec(kind="vortex")
        # the config reader names the section of the key at fault
        with pytest.raises(ValueError, match=r"forcing\.kind"):
            parse_config_text("forcing.kind = vortex\n")
        with pytest.raises(ValueError, match=r"ic\.kind"):
            parse_config_text("ic.kind = vortex\n")

    def test_rejects_wavenumbers_beyond_float_range(self):
        for prefix in ("forcing", "ic"):
            for key in ("k1", "k2"):
                with pytest.raises(ValueError, match=rf"^{prefix}\.{key} is too large"):
                    parse_config_text(f"{prefix}.{key} = 1" + "0" * 400 + "\n")

    # one grid on each side of DENSE_INVERSE_BYTES
    _BOTH_SOLVES = ("nx = 16\nny = 17\n", "nx = 128\nny = 129\n")

    def test_overflowing_operator_names_the_parameters(self):
        # lx and m both enter the operator; neither nu nor dt is at fault
        for grid in self._BOTH_SOLVES:
            for text, at in (("lx = 1e-80\nalpha = 0\n", "lx = 1e-80, m = 1,"),
                             ("m = 1e-100\n", "lx = 6.28319, m = 1e-100,")):
                cfg = parse_config_text(grid + text).solver
                with pytest.raises(ValueError,
                                   match=rf"overflows at {at} nu = 0\.01, dt = 0\.001$"):
                    ImexStepper(cfg)

    @pytest.mark.parametrize("grid", _BOTH_SOLVES, ids=["inverse", "superlu"])
    def test_singular_operator_names_the_parameters(self, grid):
        # at m = 1e200 the x2 stencil underflows: the k = 0 block has zero rows
        cfg = parse_config_text(grid + "m = 1e200\n").solver
        with pytest.raises(ValueError, match=r"^the implicit operator is singular at lx = "
                                             r"6\.28319, m = 1e\+200, nu = 0\.01, dt = 0\.001$"):
            ImexStepper(cfg)

    def test_inverse_beyond_float_range_is_singular(self):
        # at m = 1e155 the 32 x 33 blocks invert to entries beyond the float
        # range: every step would be NaN, so set-up refuses the operator
        cfg = parse_config_text("nx = 32\nny = 33\nm = 1e155\n").solver
        with pytest.raises(ValueError, match=r"^the implicit operator is singular at "
                                             r"lx = 6\.28319, m = 1e\+155,"):
            ImexStepper(cfg)

    def test_mms_envelope_beyond_float_range_is_a_config_error(self):
        cfg = parse_config_text("nx = 16\nny = 17\nm = 1e155\nforcing.kind = mms\n"
                                "forcing.reference = two_mode\n").solver
        with pytest.raises(ValueError, match=r"^m = 1e\+155 is out of range"):
            ImexStepper(cfg)

    @settings(max_examples=50, deadline=None)
    @given(nx=st.integers(4, 16).map(lambda h: 2 * h), ny=st.integers(9, 33),
           lx=_EXTREME_POSITIVE, m=_EXTREME_POSITIVE, nu=_EXTREME_POSITIVE,
           dt=_EXTREME_POSITIVE, alpha=st.just(0.0) | _EXTREME_POSITIVE,
           scheme=st.sampled_from(["imex_euler", "imex_cnab2"]),
           forcing=_KINDS, ic=_KINDS, k1=_WAVENUMBERS, k2=_WAVENUMBERS)
    @example(nx=16, ny=17, lx=1.0, m=1.0, nu=1.0, dt=1.0, alpha=0.0, scheme="imex_euler",
             forcing="trig_clamped", ic="zero", k1=1, k2=10 ** 400)
    def test_any_parsed_config_builds_or_raises_value_error(
            self, nx, ny, lx, m, nu, dt, alpha, scheme, forcing, ic, k1, k2):
        # the forcing and the initial condition see the wavenumbers swapped
        text = (f"nx = {nx}\nny = {ny}\nlx = {lx}\nm = {m}\nnu = {nu}\n"
                f"dt = {dt}\nt_end = {dt}\nalpha = {alpha}\nscheme = {scheme}\n"
                f"forcing.kind = {forcing}\nforcing.reference = two_mode\n"
                f"forcing.amplitude = 1\nforcing.k1 = {k1}\nforcing.k2 = {k2}\n"
                f"ic.kind = {ic}\nic.reference = steady_mode\n"
                f"ic.amplitude = 1\nic.k1 = {k2}\nic.k2 = {k1}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                stepper = ImexStepper(parse_config_text(text).solver)
                state = stepper.initial_state()
            except ValueError:
                return
        assert state.v.values.shape == (nx, ny)

    def test_mms_specs_need_reference(self):
        with pytest.raises(ValueError, match="reference"):
            FieldSpec(kind="mms")
        for prefix in ("forcing", "ic"):
            with pytest.raises(ValueError, match=rf"{prefix}\.reference"):
                parse_config_text(f"{prefix}.kind = mms\n")


class TestFixedPointAndBoundaries:

    def test_zero_data_stays_zero(self):
        state, series = run(SolverConfig(nx=16, ny=17, dt=1e-2, t_end=0.1))
        assert np.all(state.v.values == 0.0)
        assert all(r.energy == 0.0 for r in series.records)

    def test_horizon_zero_returns_initial_state(self):
        cfg = _decay_config(t_end=0.0)
        state, series = run(cfg)
        ic = build_field(cfg.ic, cfg.grid())
        assert np.array_equal(state.v.values, ic.values)
        assert len(series) == 1

    def test_clamped_rows_hold_at_machine_precision(self):
        cfg = _decay_config(t_end=0.02)
        stepper = ImexStepper(cfg)
        state = stepper.initial_state()
        for _ in range(5):
            state = stepper.step(state)
            v = state.v.values
            scale = np.abs(v).max()
            assert np.abs(v[:, [0, -1]]).max() <= 1e-12 * scale
            dv = d2_values(v, stepper.grid.dy)
            assert np.abs(dv[:, [0, -1]]).max() <= 1e-11 * scale / stepper.grid.dy
            # tangential derivatives on the walls vanish with the wall values
            d1v = OperatorSet(stepper.grid).ladder(state.v.values)[1]
            assert np.abs(d1v[:, [0, -1]]).max() <= 1e-12 * scale


class TestImplicitAssembly:
    """The per-mode blocks handed to ``np.linalg.inv`` below
    ``DENSE_INVERSE_BYTES``, and their mirror halves handed to the banded
    factorization above it, against a dense per-mode oracle built here."""

    @staticmethod
    def _dense_block(grid, kap, theta, nu, dt):
        ny, dy = grid.ny, grid.dy
        # kap * kap, the correctly rounded square the solver's
        # wavenumbers ** 2 computes: kap ** 2 of a numpy scalar calls pow,
        # which can differ in the last bit
        lap1d = d2_matrix(ny, dy) - (kap * kap) * np.eye(ny)
        # lap1d @ lap1d, summed over k in ascending order with every product
        # rounded on its own: a BLAS matmul may fuse multiply-adds and differ
        # from any sparse product in the last bit.
        sq = np.zeros((ny, ny))
        for k in range(ny):
            sq += np.outer(lap1d[:, k], lap1d[k, :])
        mat = lap1d - theta * nu * dt * sq
        mat[[0, 1, -2, -1]] = 0.0
        mat[0, 0] = mat[-1, -1] = 1.0
        mat[1, :3] = np.array([-3.0, 4.0, -1.0]) / (2 * dy)
        mat[-2, -3:] = np.array([1.0, -4.0, 3.0]) / (2 * dy)
        return mat

    @staticmethod
    def _inverse_bytes(grid):
        return grid.n_modes * grid.ny ** 2 * 8

    @pytest.mark.parametrize("nx,ny,lx,m", [(16, 17, 2 * np.pi, 1.0),
                                            (12, 21, 5.0, 1.3)])
    @pytest.mark.parametrize("scheme,thetas", [("imex_euler", (1.0,)),
                                               ("imex_cnab2", (0.5,))])
    def test_matches_dense_per_mode_oracle(self, monkeypatch, nx, ny, lx, m,
                                           scheme, thetas):
        # below the bound: the blocks inverted are the oracle's, and the
        # solve through their inverses is the oracle's solve
        handed = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: handed.append(a.copy()) or inv(a))
        cfg = SolverConfig(nx=nx, ny=ny, lx=lx, m=m, nu=0.03, dt=2e-3,
                           scheme=scheme)
        stepper = ImexStepper(cfg)
        grid = stepper.grid
        assert self._inverse_bytes(grid) <= DENSE_INVERSE_BYTES
        assert len(handed) == len(thetas)
        rng = np.random.default_rng(7)
        rhs = (rng.standard_normal((grid.n_modes, ny))
               + 1j * rng.standard_normal((grid.n_modes, ny)))
        for blocks, theta in zip(handed, thetas):
            expected = np.stack([self._dense_block(grid, kap, theta, cfg.nu, cfg.dt)
                                 for kap in grid.wavenumbers])
            assert np.array_equal(blocks, expected)
            exact = np.linalg.solve(expected, rhs[..., None])[..., 0]
            assert np.abs(stepper._solve(rhs) - exact).max() <= 1e-12 * np.abs(exact).max()

    @staticmethod
    def _mirror_halves(block):
        """The even and odd halves of a dense block, folded here: its top
        ``(ny + 1) // 2`` rows with each column added to, or subtracted from,
        its mirror image, once row ``ny - 2`` is negated."""
        ny = len(block)
        h = (ny + 1) // 2
        mat = block.copy()
        mat[-2] *= -1.0
        # the negated block commutes with the mirror j -> ny - 1 - j
        assert np.array_equal(mat[::-1, ::-1], mat)
        top, mirrored = mat[:h, :h], mat[:h, ::-1][:, :h]
        even, odd = top + mirrored, top - mirrored
        if ny % 2:  # the centre column is its own mirror; odd modes vanish there
            even[:, -1], odd[:, -1], odd[-1] = top[:, -1], 0.0, np.eye(h)[-1]
        return even, odd

    @staticmethod
    def _oracle_solve(block, rhs):
        """``block`` solved for ``rhs`` by LAPACK, refined twice against the
        residual in extended precision: on ill-conditioned blocks partial
        pivoting alone leaves errors near the tolerance."""
        x = np.linalg.solve(block, rhs)
        wide = block.astype(np.longdouble)
        for _ in range(2):
            x += np.linalg.solve(block, (rhs - wide @ x.astype(np.clongdouble))
                                 .astype(np.complex128))
        return x

    def _check_banded(self, monkeypatch, cfg, theta, rhs):
        """Capture the rows handed to the banded factorization: they are the
        oracle's mirror halves, and the solve matches the oracle's."""
        handed = []
        factor = banded.lu_pentadiagonal
        monkeypatch.setattr(banded, "lu_pentadiagonal",
                            lambda rows: handed.append(rows.copy()) or factor(rows))
        stepper = ImexStepper(cfg)
        grid = stepper.grid
        ny, n_modes, h = grid.ny, grid.n_modes, (grid.ny + 1) // 2
        m = (h + 1) // 2
        (rows,) = handed
        # the first m rows of every half, then the reversed halves' first m
        # (the last m rows, their slots reversed), half (b // n_modes) and
        # mode (b % n_modes) along the batch axis b
        assert rows.shape == (m, 4 * n_modes, 5)
        rows = np.concatenate([rows[:, :2 * n_modes], rows[::-1, 2 * n_modes:, ::-1]])
        # slot (i, s) holds column i + s - 2; identity rows pad to 2 m rows
        cols = np.arange(2 * m)[:, None] + np.arange(-2, 3)
        inside = (cols >= 0) & (cols < 2 * m)
        halves = np.zeros((2 * n_modes, 2 * m, 2 * m))
        halves[:, np.nonzero(inside)[0], cols[inside]] = rows.transpose(1, 0, 2)[:, inside]
        assert not rows.transpose(1, 0, 2)[:, ~inside].any()
        pad = 2 * m - h
        assert np.array_equal(halves[:, h:, h:],
                              np.broadcast_to(np.eye(pad), (2 * n_modes, pad, pad)))
        assert not halves[:, h:, :h].any() and not halves[:, :h, h:].any()
        exact = np.empty_like(rhs)
        for k, kap in enumerate(grid.wavenumbers):
            block = self._dense_block(grid, kap, theta, cfg.nu, cfg.dt)
            even, odd = self._mirror_halves(block)
            assert np.array_equal(halves[k, :h, :h], even)
            assert np.array_equal(halves[n_modes + k, :h, :h], odd)
            exact[k] = self._oracle_solve(block, rhs[k])
        assert np.abs(stepper._solve(rhs) - exact).max() <= 1e-12 * np.abs(exact).max()

    @pytest.mark.parametrize("nx,ny,lx,m", [(124, 65, 2 * np.pi, 1.0),
                                            (126, 65, 5.0, 1.3),
                                            (124, 66, 2 * np.pi, 1.0)])
    @pytest.mark.parametrize("scheme,theta", [("imex_euler", 1.0), ("imex_cnab2", 0.5)])
    def test_banded_matches_dense_per_mode_oracle(self, monkeypatch, nx, ny, lx, m,
                                                  scheme, theta):
        # above the bound, compared block by block: the whole system would
        # take 134 MB dense
        cfg = SolverConfig(nx=nx, ny=ny, lx=lx, m=m, nu=0.03, dt=2e-3, scheme=scheme)
        assert self._inverse_bytes(cfg.grid()) > DENSE_INVERSE_BYTES
        rng = np.random.default_rng(7)
        shape = (cfg.grid().n_modes, ny)
        rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self._check_banded(monkeypatch, cfg, theta, rhs)

    @settings(max_examples=40, deadline=None)
    @given(nx=st.integers(4, 24).map(lambda h: 2 * h), ny=st.integers(9, 41),
           lx=st.floats(0.5, 50.0), m=st.floats(0.25, 4.0),
           nu_dt=st.floats(1e-8, 1e-2), scheme=st.sampled_from(["imex_euler", "imex_cnab2"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_banded_solve_matches_dense_oracle_on_any_grid(self, nx, ny, lx, m, nu_dt,
                                                           scheme, seed):
        # every grid takes the banded path; the right-hand side has the
        # CNAB2 form, nonzero on the four clamped rows too
        from bardina_strip import solver

        cfg = SolverConfig(nx=nx, ny=ny, lx=lx, m=m, nu=nu_dt / 1e-3, dt=1e-3, scheme=scheme)
        rng = np.random.default_rng(seed)
        shape = (cfg.grid().n_modes, ny)
        rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "DENSE_INVERSE_BYTES", 0)
            self._check_banded(mp, cfg, {"imex_euler": 1.0, "imex_cnab2": 0.5}[scheme], rhs)

    def test_banded_solve_forgets_a_non_finite_one(self, monkeypatch):
        # 16 x 17 pads each half with an identity row, whose value a NaN
        # solve leaves NaN: the next solve must not read it
        from bardina_strip import solver

        monkeypatch.setattr(solver, "DENSE_INVERSE_BYTES", 0)
        cfg = SolverConfig(nx=16, ny=17, nu=0.03, dt=2e-3)
        rhs = np.random.default_rng(3).standard_normal((cfg.grid().n_modes, 17)) + 0j
        expected = ImexStepper(cfg)._solve(rhs)
        stepper = ImexStepper(cfg)
        with np.errstate(invalid="ignore"):
            stepper._solve(np.full_like(rhs, np.nan))
        assert np.array_equal(stepper._solve(rhs), expected)

    @staticmethod
    def _mirror_band(rng, n_modes, ny):
        """Random diagonally dominant bands whose blocks, with row ``ny - 2``
        negated, commute with the mirror, as the implicit operator's do."""
        h = (ny + 1) // 2
        band = rng.uniform(-1.0, 1.0, (n_modes, ny, 5))
        band[:, :, 2] += 6.0
        band[:, 0, :2] = band[:, 1, 0] = 0.0
        if ny % 2:  # the centre row is its own mirror
            band[:, h - 1] += band[:, h - 1, ::-1]
        band[:, h:] = band[:, ny - h - 1::-1, ::-1]
        band[:, -2] *= -1.0
        return band

    # sha256 of the rows handed to the factorization, its factors, the 4 x 4
    # inverses and a solve, for ny 9..40 and for 129, pinned with the earlier
    # construction that formed both halves as arrays and concatenated them
    BANDED_BYTES = {
        "9-40": "df96bbee9b48fe9806a90a4ee694feee325deda24c049ec650eaa01adef21206",
        "129": "f9af157573d89766d70549010dce12747682501e7c8a1d6e0a5b2aa4dc318f13",
    }

    @pytest.mark.parametrize("nys", ["9-40", "129"])
    def test_banded_factors_and_solves_keep_their_bytes(self, monkeypatch, nys):
        handed = []
        factor = banded.lu_pentadiagonal

        def capture(rows):
            handed.extend([rows.copy(), factor(rows)])
            return handed[-1]

        monkeypatch.setattr(banded, "lu_pentadiagonal", capture)
        rng = np.random.default_rng(11)
        digest = hashlib.sha256()
        for ny in range(9, 41) if nys == "9-40" else [129]:
            band = self._mirror_band(rng, 3, ny)
            rhs = rng.standard_normal((3, ny)) + 1j * rng.standard_normal((3, ny))
            handed.clear()
            lu = banded.MirrorBandLU(band)
            x = lu.solve(rhs)
            for k in range(3):
                block = np.zeros((ny, ny))
                for s in range(5):
                    i = np.arange(max(0, 2 - s), min(ny, ny + 2 - s))
                    block[i, i + s - 2] = band[k, i, s]
                exact = np.linalg.solve(block, rhs[k])
                assert np.abs(x[k] - exact).max() <= 1e-12 * np.abs(exact).max()
            for arr in (*handed, lu._meet, x):
                digest.update(np.ascontiguousarray(arr).tobytes())
        assert digest.hexdigest() == self.BANDED_BYTES[nys]

    @pytest.mark.parametrize("pivot", [0.0, 5e-324], ids=["zero", "subnormal"])
    def test_pentadiagonal_factors_mark_a_vanishing_pivot(self, pivot):
        rows = np.zeros((4, 2, 5))
        rows[:, :, 2] = 1.0
        rows[2, 1, 2] = pivot  # the second matrix's reciprocal pivot overflows
        lu = banded.lu_pentadiagonal(rows)
        assert np.all(np.isfinite(lu[:, :, 0])) and not np.all(np.isfinite(lu[:, :, 1]))

    @pytest.mark.parametrize("scheme", ["imex_euler", "imex_cnab2"])
    def test_one_factorization_per_stepper(self, monkeypatch, scheme):
        # one inverse stack below the bound; above it one banded
        # factorization, then the inverse of its 4 x 4 meeting systems
        calls = []
        inv, factor = np.linalg.inv, banded.lu_pentadiagonal
        monkeypatch.setattr(np.linalg, "inv",
                            lambda a: calls.append(f"inv {a.shape[-1]}") or inv(a))
        monkeypatch.setattr(banded, "lu_pentadiagonal",
                            lambda rows: calls.append("banded") or factor(rows))
        for ny, solve in ((33, ["inv 33"]), (181, ["banded", "inv 4"])):
            calls.clear()
            stepper = ImexStepper(_decay_config(ny=ny, scheme=scheme, t_end=5e-3))
            *_, final = stepper.states(1)
            assert final.step_index == 5 and calls == solve

    @staticmethod
    def _cnab2_stepper(nx, ny, lx, m):
        return ImexStepper(SolverConfig(
            nx=nx, ny=ny, lx=lx, m=m, nu=0.03, dt=2e-3, t_end=1e-2, scheme="imex_cnab2",
            ic=FieldSpec(kind="trig_clamped", amplitude=1.0, k1=1, k2=1),
            forcing=FieldSpec(kind="trig_clamped", amplitude=0.5, k1=2, k2=1)))

    @pytest.mark.parametrize("nx,ny,lx,m", [(16, 17, 2 * np.pi, 1.0),
                                            (12, 21, 5.0, 1.3)])
    def test_cnab2_step_matches_the_two_laplacian_oracle(self, nx, ny, lx, m):
        # A v^{n+1} = (L + nu dt L^2 / 2) v^n + dt (3/2 E^n - 1/2 E^{n-1}),
        # clamped rows zero, solved densely mode by mode
        stepper = self._cnab2_stepper(nx, ny, lx, m)
        cfg, grid = stepper.config, stepper.grid
        state = stepper.step(stepper.initial_state())  # the Euler starter
        # the first step starts off the clamped rows, which it restores
        noise = np.random.default_rng(5).standard_normal(grid.shape)
        state = replace(state, v_hat=state.v_hat + 0.01 * np.fft.rfft(noise, axis=0))
        for _ in range(3):
            explicit, _cfl = stepper._explicit_and_cfl(
                state, stepper.ops.laplacian_modal(state.v_hat))
            forcing_term = cfg.dt * (1.5 * explicit - 0.5 * state.prev_explicit)
            exact = np.empty_like(state.v_hat)
            for k, kap in enumerate(grid.wavenumbers):
                lap1d = d2_matrix(ny, grid.dy) - kap ** 2 * np.eye(ny)
                rhs = ((lap1d + 0.5 * cfg.nu * cfg.dt * (lap1d @ lap1d)) @ state.v_hat[k]
                       + forcing_term[k])
                rhs[[0, 1, -2, -1]] = 0.0
                exact[k] = np.linalg.solve(
                    self._dense_block(grid, kap, 0.5, cfg.nu, cfg.dt), rhs)
            state = stepper.step(state)
            assert np.abs(state.v_hat - exact).max() <= 1e-12 * np.abs(exact).max()

    @staticmethod
    def _dense_euler(grid, stepper, state, h):
        """One IMEX-Euler step of ``h`` from ``state``, solved densely mode by
        mode on the Crank-Nicolson block; its explicit term and CFL number."""
        cfg = stepper.config
        explicit, cfl = stepper._explicit_and_cfl(
            state, stepper.ops.laplacian_modal(state.v_hat))
        exact = np.empty_like(state.v_hat)
        for k, kap in enumerate(grid.wavenumbers):
            lap1d = d2_matrix(grid.ny, grid.dy) - kap ** 2 * np.eye(grid.ny)
            rhs = lap1d @ state.v_hat[k] + h * explicit[k]
            rhs[[0, 1, -2, -1]] = 0.0
            exact[k] = np.linalg.solve(
                TestImplicitAssembly._dense_block(grid, kap, 0.5, cfg.nu, cfg.dt), rhs)
        return exact, explicit, cfl

    @pytest.mark.parametrize("nx,ny,lx,m", [(16, 17, 2 * np.pi, 1.0),
                                            (12, 21, 5.0, 1.3)])
    def test_cnab2_start_is_two_euler_half_steps(self, nx, ny, lx, m):
        # the starter on the Crank-Nicolson block, explicit term at t0 and
        # t0 + dt / 2, from a state off its clamped rows
        stepper = self._cnab2_stepper(nx, ny, lx, m)
        cfg, grid = stepper.config, stepper.grid
        noise = np.random.default_rng(5).standard_normal(grid.shape)
        start = stepper.initial_state()
        start = replace(start, t=0.25, step_index=7,
                        v_hat=start.v_hat + 0.01 * np.fft.rfft(noise, axis=0))
        h = cfg.dt / 2
        half, explicit0, cfl0 = self._dense_euler(grid, stepper, start, h)
        exact, _, cfl1 = self._dense_euler(
            grid, stepper, replace(start, t=start.t + h, v_hat=half), h)
        state = stepper.step(start)
        assert np.abs(state.v_hat - exact).max() <= 1e-12 * np.abs(exact).max()
        assert np.array_equal(state.prev_explicit, explicit0)
        assert state.cfl == pytest.approx(max(cfl0, cfl1), rel=1e-12)
        assert (state.t, state.step_index) == (8 * cfg.dt, 8)

    @staticmethod
    def _rigged_start(monkeypatch, scales, cfls):
        """A CNAB2 stepper whose starter's half steps scale their explicit
        terms by ``scales`` and report ``cfls``; the times they are read at."""
        stepper = TestImplicitAssembly._cnab2_stepper(16, 17, 2 * np.pi, 1.0)
        explicit_and_cfl, times = stepper._explicit_and_cfl, []

        def rigged(state, lap_hat):
            times.append(state.t)
            explicit, _cfl = explicit_and_cfl(state, lap_hat)
            return explicit * scales[len(times) - 1], cfls[len(times) - 1]

        monkeypatch.setattr(stepper, "_explicit_and_cfl", rigged)
        return stepper, times

    @pytest.mark.parametrize("cfls", [(0.3, 0.1), (0.1, 0.3)])
    def test_cnab2_start_cfl_is_the_larger_half_step(self, monkeypatch, cfls):
        stepper, times = self._rigged_start(monkeypatch, (1.0, 1.0), cfls)
        assert stepper.step(stepper.initial_state()).cfl == 0.3
        assert times == [0.0, stepper.config.dt / 2]

    @pytest.mark.parametrize("scales", [(np.inf, 1.0), (1.0, np.inf)])
    def test_cnab2_start_blow_up_names_step_one(self, monkeypatch, scales):
        stepper, _ = self._rigged_start(monkeypatch, scales, (0.0, 0.0))
        with pytest.raises(BlowUpError, match="at step 1: non-finite state after t = 0$"):
            stepper.step(stepper.initial_state())

    def test_clamped_rows_vanish_after_every_cnab2_step(self):
        stepper = self._cnab2_stepper(16, 17, 2 * np.pi, 1.0)
        dy = stepper.grid.dy
        for state in stepper.states(1):
            v = state.v_hat
            rows = np.stack([v[:, 0], (-3.0 * v[:, 0] + 4.0 * v[:, 1] - v[:, 2]) / (2 * dy),
                             (v[:, -3] - 4.0 * v[:, -2] + 3.0 * v[:, -1]) / (2 * dy),
                             v[:, -1]])
            if state.step_index > 0:
                assert np.abs(rows).max() <= 1e-12 * np.abs(v).max()


class TestExplicitTerm:

    @pytest.mark.parametrize("scheme", ["imex_euler", "imex_cnab2"])
    def test_is_the_shared_advective_operator(self, scheme):
        cfg = _decay_config(scheme=scheme,
                            forcing=FieldSpec(kind="trig_clamped",
                                              amplitude=0.5, k1=2, k2=1))
        stepper = ImexStepper(cfg)
        state = stepper.initial_state()
        for _ in range(3):
            state = stepper.step(state)
        explicit, _cfl = stepper._explicit_and_cfl(
            state, stepper.ops.laplacian_modal(state.v_hat))
        g_hat = np.fft.rfft(stepper.forcing.at(state.t), axis=0)
        b_hat = stepper.ops.advection_modal(state.v_hat, state.v_hat)[0]
        assert np.abs(b_hat).max() > 0.0
        assert np.array_equal(explicit, (g_hat - b_hat) / stepper.mult[:, None])


@pytest.mark.usefixtures("frozen_advection")
class TestLinearizedPropagator:
    """Single-mode runs with the advection frozen against expm of the
    mass-consistent reduced operator."""

    @staticmethod
    def _oracle_error(scheme, dt, t_end=0.2, nx=16, ny=33, nu=0.05, alpha=0.3):
        cfg = SolverConfig(nx=nx, ny=ny, dt=dt, t_end=t_end, nu=nu, alpha=alpha,
                           scheme=scheme,
                           ic=FieldSpec(kind="trig_clamped", amplitude=1.0, k1=1))
        state, _ = run(cfg)
        grid = cfg.grid()
        dy = grid.dy
        lap1d = d2_matrix(ny, dy) - grid.wavenumbers[1] ** 2 * np.eye(ny)
        bc = np.zeros((4, ny))
        bc[0, 0] = 1.0
        bc[3, -1] = 1.0
        bc[1, :3] = np.array([-3.0, 4.0, -1.0]) / (2 * dy)
        bc[2, -3:] = np.array([1.0, -4.0, 3.0]) / (2 * dy)
        basis = sla.null_space(bc)
        interior = np.arange(2, ny - 2)
        mass = lap1d[interior] @ basis
        stiff = (lap1d @ lap1d)[interior] @ basis
        reduced = np.linalg.solve(mass, nu * stiff)
        v_hat0 = ImexStepper(cfg).initial_state().v_hat[1]
        y0 = np.linalg.solve(mass, lap1d[interior] @ v_hat0)
        exact = basis @ (sla.expm(t_end * reduced) @ y0)
        return float(np.abs(state.v_hat[1] - exact).max())

    @pytest.mark.parametrize("scheme,lo,hi", [
        ("imex_euler", 0.85, 1.15),
        ("imex_cnab2", 1.8, 2.2),
    ])
    def test_order_against_expm(self, scheme, lo, hi):
        dts = [4e-3, 2e-3, 1e-3]
        errs = [self._oracle_error(scheme, dt) for dt in dts]
        assert lo <= fit_order(dts, errs) <= hi


class TestDeterminismAndBlowUp:

    @pytest.mark.parametrize("scheme", ["imex_euler", "imex_cnab2"])
    def test_final_state_does_not_depend_on_recording(self, scheme):
        # the verification studies step a bare stepper to the final state
        # or iterate its states; run records exactly the states they see
        cfg = _decay_config(scheme=scheme,
                            forcing=FieldSpec(kind="trig_clamped",
                                              amplitude=0.5, k1=2, k2=1))
        assert cfg.n_steps % 3 != 0
        every, series = run(cfg)
        ends, ends_series = run(replace(cfg, record_every=MAX_STEPS))
        stepper = ImexStepper(cfg)
        bare = stepper.initial_state()
        for _ in range(cfg.n_steps):
            bare = stepper.step(bare)
        assert (len(series), len(ends_series)) == (cfg.n_steps + 1, 2)
        for state in (ends, bare):
            assert state.t == every.t
            assert np.array_equal(state.v.values, every.v.values)
            assert np.array_equal(state.v_hat, every.v_hat)
        for record_every in (1, 3, MAX_STEPS):
            recorded = []
            run(replace(cfg, record_every=record_every),
                on_record=lambda state, _rec: recorded.append(state))
            yielded = list(ImexStepper(cfg).states(record_every))
            assert len(yielded) == len(recorded) >= 2
            for a, b in zip(yielded, recorded):
                assert (a.t, a.step_index) == (b.t, b.step_index)
                assert np.array_equal(a.v.values, b.v.values)
                assert np.array_equal(a.v_hat, b.v_hat)
            assert yielded[-1].step_index == cfg.n_steps

    def test_bitwise_reproducible(self):
        cfg = _decay_config()
        s1, d1 = run(cfg)
        s2, d2 = run(cfg)
        assert np.array_equal(s1.v.values, s2.v.values)
        assert all(a.csv_values() == b.csv_values()
                   for a, b in zip(d1.records, d2.records))

    def test_blow_up_detected(self):
        cfg = SolverConfig(nx=32, ny=33, dt=0.2, t_end=4.0, nu=1e-4, alpha=0.0,
                           ic=FieldSpec(kind="trig_clamped",
                                        amplitude=200.0, k1=3, k2=2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CflWarning)
            with pytest.raises(BlowUpError, match="blow-up"):
                run(cfg)

    def test_blow_up_names_step_and_last_finite_energy(self):
        cfg = SolverConfig(nx=32, ny=33, dt=0.2, t_end=4.0, nu=1e-4, alpha=0.0,
                           record_every=2,
                           ic=FieldSpec(kind="trig_clamped",
                                        amplitude=200.0, k1=3, k2=2))
        records = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CflWarning)
            with pytest.raises(BlowUpError) as info:
                run(cfg, on_record=lambda s, rec: records.append(rec))
        exc = info.value
        assert 1 <= exc.step <= cfg.n_steps
        assert exc.time == pytest.approx((exc.step - 1) * cfg.dt)
        last = records[-1]
        assert math.isfinite(last.energy)
        assert (exc.energy, exc.energy_time) == (last.energy, last.t)
        assert f"at step {exc.step}:" in str(exc)
        assert f"last finite energy E = {last.energy:.9g}" in str(exc)

    def test_bare_step_blow_up_names_the_step(self):
        stepper = ImexStepper(_decay_config())
        state = stepper.initial_state()
        state.v_hat = np.full_like(state.v_hat, np.nan)
        with pytest.raises(BlowUpError, match="at step 1: non-finite state after t = 0$"):
            stepper.step(state)

    def test_states_compute_no_values_until_read(self, frozen_advection, monkeypatch):
        irfft, calls = np.fft.irfft, []
        monkeypatch.setattr(np.fft, "irfft",
                            lambda *args, **kw: calls.append(args) or irfft(*args, **kw))
        # with the advection frozen, only reading a state's values transforms
        stepper = ImexStepper(_decay_config(scheme="imex_cnab2"))
        *_, final = stepper.states(MAX_STEPS)
        assert final.step_index == stepper.config.n_steps and not calls
        assert final.v.values.shape == stepper.grid.shape and len(calls) == 1
        monkeypatch.undo()  # the advection runs again
        for state in ImexStepper(_decay_config(scheme="imex_cnab2")).states(1):
            assert ("v" in vars(state)) == (state.step_index == 0)

    def test_overflowing_values_raise_blow_up_with_the_step(self):
        stepper = ImexStepper(_decay_config())
        state = stepper.step(stepper.step(stepper.initial_state()))
        # finite coefficients whose inverse transform overflows
        huge = replace(state, v_hat=np.full_like(state.v_hat, 1e308))
        with pytest.raises(BlowUpError, match="at step 2: non-finite state after t = 0.002$"):
            huge.v

    def test_cfl_warning(self):
        cfg = SolverConfig(nx=32, ny=33, dt=0.2, t_end=0.2, nu=0.5, alpha=0.0,
                           ic=FieldSpec(kind="trig_clamped",
                                        amplitude=10.0, k1=2, k2=1))
        with pytest.warns(CflWarning):
            run(cfg)

    def test_cfl_warning_names_step_and_time(self):
        cfg = SolverConfig(nx=32, ny=33, dt=0.2, t_end=0.2, nu=0.5, alpha=0.0,
                           ic=FieldSpec(kind="trig_clamped",
                                        amplitude=10.0, k1=2, k2=1))
        with pytest.warns(CflWarning, match=r"exceeds 0\.5 at step 1 \(t = 0\)"):
            run(cfg)


class TestMemory:

    @pytest.mark.parametrize("dense", [True, False])
    @pytest.mark.parametrize("scheme", ["imex_euler", "imex_cnab2"])
    def test_modal_arrays_keep_their_modes_contiguous(self, monkeypatch, dense, scheme):
        # states and both solves are (n_modes, ny) in Fortran order; the
        # values stay a C-ordered (nx, ny) array
        from bardina_strip import solver

        if not dense:
            monkeypatch.setattr(solver, "DENSE_INVERSE_BYTES", 0)
        cfg = _decay_config(scheme=scheme, t_end=3e-3,
                            forcing=FieldSpec(kind="trig_clamped", amplitude=0.5, k1=2, k2=1))
        stepper = ImexStepper(cfg)
        assert isinstance(stepper._implicit, np.ndarray) == dense
        states = list(stepper.states(1))
        assert all(state.v_hat.flags.f_contiguous for state in states)
        assert all(state.prev_explicit.flags.f_contiguous for state in states[1:]
                   if scheme == "imex_cnab2")
        assert states[-1].v.values.flags.c_contiguous
        assert stepper._solve(states[-1].v_hat).flags.f_contiguous
        assert stepper._solve(np.ascontiguousarray(states[-1].v_hat)).flags.f_contiguous

    def test_run_drops_each_recorded_state(self, monkeypatch):
        # with records only at the ends, the initial state is gone by the
        # second step; run still returns the final state
        cfg = _decay_config(scheme="imex_cnab2", t_end=5e-3, record_every=MAX_STEPS)
        recorded, alive = [], []
        step = ImexStepper.step

        def watched(stepper, state):
            if recorded and state.step_index >= 1:
                alive.append(recorded[0]() is not None)
            return step(stepper, state)

        monkeypatch.setattr(ImexStepper, "step", watched)
        final, series = run(cfg, on_record=lambda state, _rec: recorded.append(
            weakref.ref(state)))
        assert alive == [False] * (cfg.n_steps - 1)
        assert final.step_index == cfg.n_steps and recorded[-1]() is final
        assert len(series) == 2

    def test_setup_and_step_peak_memory(self):
        # tracemalloc peaks at 512 x 513, in fields of nx ny float64 (2.1 MB);
        # a modal array is 1.004 fields.  Each bound is a count of the
        # design's arrays, made before measuring, plus about a field:
        # - set-up: the band (n_modes, ny, 5), 2.5, lives through the banded
        #   set-up; the stacked mirror halves and their factors, 2.5 each,
        #   overlap (the unstacked halves go first), and the sweep factors
        #   (2), the scale (0.5) and the work array (1) are made while the
        #   factors live: 8.5.  The band and the factors go, and the forcing's
        #   values and coefficients (2) come with the transients of its field
        #   formula (about 4) over the 3.5 kept: 9.5.  Bound 11.
        # - one CNAB2 step after the start, above its state: the right-hand
        #   side and the explicit term, 2, then in the advection the kept-mode
        #   product spectra (2, ny, kept), 1.34, with one block's transforms
        #   (under 1), then with the output, 1: 4.34.  The Adams-Bashforth
        #   temporaries (2) and the solve's output (1) come after the
        #   spectra go.  Bound 5.5.
        cfg = SolverConfig(nx=512, ny=513, dt=5e-4, t_end=1e-3, nu=0.01, alpha=0.5,
                           scheme="imex_cnab2",
                           ic=FieldSpec(kind="trig_clamped", amplitude=0.25, k1=1, k2=0),
                           forcing=FieldSpec(kind="trig_clamped", amplitude=1.0, k1=2, k2=1))
        field = cfg.nx * cfg.ny * 8
        tracemalloc.start()
        try:
            stepper = ImexStepper(cfg)
            setup = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state = stepper.step(stepper.initial_state())  # the Euler start
        tracemalloc.start()
        try:
            stepper.step(state)
            step = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert setup <= 11 * field
        assert step <= 5.5 * field


class TestManufacturedForcing:

    def test_zero_reference_gives_zero_forcing(self):
        grid = _decay_config().grid()
        assert np.all(_mms_forcing("zero_field", grid).at(1.7) == 0.0)
        assert np.all(mms.solution_field("zero_field", grid, 0.0).values == 0.0)

    def test_steady_forcing_matches_table(self):
        grid = _decay_config(nx=32, ny=17).grid()
        g = _mms_forcing("steady_mode", grid).at(0.0)
        for x1v, x2v, expected in STEADY_FORCING_TABLE:
            i = int(round(x1v / grid.dx))
            j = int(round((x2v + grid.domain.m) / grid.dy))
            assert g[i, j] == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("name, steady", [
        ("steady_mode", True), ("zero_field", True),
        ("two_mode", False), ("pulsing_mode", False)])
    def test_closed_bound_read_at_each_record(self, name, steady):
        mms_spec = FieldSpec(kind="mms", reference=name)
        cfg = _decay_config(nx=16, ny=17, t_end=0.02, nu=0.05, alpha=0.4,
                            record_every=4, forcing=mms_spec, ic=mms_spec)
        stepper = ImexStepper(cfg)
        series = run(cfg)[1]
        t, lam = series.column("t"), series.meta["lambda1"]
        bounds = closed_bound(series.column("forcing_norm_sq"), cfg.nu, lam)
        g_sq = [l2_norm(Field(stepper.grid, stepper.forcing.at(tn))) ** 2 for tn in t]
        np.testing.assert_allclose(bounds, np.array(g_sq) / (cfg.nu * lam ** 2),
                                   rtol=1e-13, atol=0.0)
        # a steady forcing keeps the bound that the forcing at t = 0 gives
        at_zero = g_sq[0] / (cfg.nu * lam ** 2)
        assert np.allclose(bounds, at_zero, rtol=1e-13, atol=0.0) is steady
        report = energy_budget(series)
        assert report.bound == bounds.max()
        e, d = series.column("energy"), series.column("dissipation")
        excess = np.diff(e) / np.diff(t) + d[1:] - bounds[1:]
        assert report.max_excess == excess.max(initial=0.0)

    def test_several_fields_are_one_contraction(self):
        # the contraction sums the same terms as a sum over the fields, in
        # another order: both err by at most J eps times the sum of |terms|
        grid = _decay_config(nx=64, ny=65).grid()
        g = _mms_forcing("two_mode", grid)
        assert len(g.fields) == 8
        for forcing in (g, Forcing(np.fft.rfft(g.fields, axis=1), g.coefficients)):
            for t in (0.0, 0.37):
                c = forcing.coefficients(t)
                want = sum(cj * s for cj, s in zip(c, forcing.fields))
                size = np.tensordot(np.abs(c), np.abs(forcing.fields), axes=1)
                err = np.abs(forcing.at(t) - want)
                assert np.all(err <= 2 * len(c) * np.finfo(float).eps * size)

    def test_single_field_is_scaled_bit_for_bit(self, rng):
        grid = _decay_config().grid()
        s = rng.standard_normal((1,) + grid.shape)
        forcing = Forcing(s, lambda t: np.array([0.3 + t]))
        assert np.array_equal(forcing.at(0.7), np.float64(0.3 + 0.7) * s[0])

    def test_steady_forcing_time_independent(self):
        forcing = _mms_forcing("steady_mode", _decay_config().grid())
        a = forcing.at(0.0)
        b = forcing.at(3.2)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", ["pulsing_mode", "two_mode", "steady_mode",
                                      "zero_field"])
    def test_solution_matches_the_sympy_catalog(self, name):
        for lx, m in ((2 * np.pi, 1.0), (5.0, 1.3)):
            grid = _decay_config(lx=lx, m=m).grid()
            exact = sym.lambdify((_X1, _X2, _T), _sympy_catalog(lx, m)[name], modules="numpy")
            x1, x2 = grid.mesh()
            for t in (0.0, 0.37):
                want = np.broadcast_to(exact(x1, x2, t), grid.shape)
                got = mms.solution_field(name, grid, t).values
                assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)

    def test_separable_forcing_matches_the_full_expression(self):
        # two_mode's 83 expanded terms fall into 8 time factors
        nu, alpha = 0.05, 0.4
        for lx, m in ((2 * np.pi, 1.0), (5.0, 1.3)):
            full = _lambdified_forcing("two_mode", nu, alpha, lx, m)
            for nx, ny in ((16, 17), (32, 33), (64, 65)):
                grid = _decay_config(nx=nx, ny=ny, lx=lx, m=m).grid()
                forcing = _mms_forcing("two_mode", grid, nu=nu, alpha=alpha)
                assert len(forcing.fields) == 8
                x1, x2 = grid.mesh()
                for t in (0.0, 0.37, 1.2):
                    want = np.broadcast_to(full(x1, x2, t), grid.shape)
                    err = np.abs(forcing.at(t) - want).max()
                    assert err <= 1e-13 * np.abs(want).max()

    def test_forcing_consistent_with_discrete_operators(self):
        # the residual of the discrete operators applied to the closed-form
        # steady solution must reproduce the symbolic forcing to O(dy^2)
        nu, alpha = 0.05, 0.3
        rels, hs = [], []
        for ny in (33, 65, 129):
            cfg = _decay_config(nx=32, ny=ny)
            grid = cfg.grid()
            ops = OperatorSet(grid)
            v = mms.solution_field("steady_mode", grid, 0.0)
            g = _mms_forcing("steady_mode", grid, nu=nu, alpha=alpha).at(0.0)
            advect = ops.bilinear_B(v, v)
            visc = ops.apply_Ah(Field(grid, _biharmonic(ops, v)), alpha)
            resid = advect.values - nu * visc.values - g
            # wall rows of the iterated laplacian are closure-dominated and
            # excluded by the solver; the rate lives on a fixed interior band
            band = np.abs(grid.x2) <= 0.8 * grid.domain.m
            rels.append(np.abs(resid[:, band]).max() / np.abs(g).max())
            hs.append(grid.dy)
        assert rels[-1] < 5e-3
        assert fit_order(hs, rels) == pytest.approx(2.0, abs=0.2)

    def test_alpha_zero_reference_drops_filter_term(self):
        grid = _decay_config().grid()
        with_f = _mms_forcing("steady_mode", grid, nu=0.05, alpha=0.3)
        without = _mms_forcing("steady_mode", grid, nu=0.05, alpha=0.0)
        ops = OperatorSet(grid)
        v = mms.solution_field("steady_mode", grid, 0.0)
        advect = ops.bilinear_B(v, v)
        plain = advect.values - 0.05 * _biharmonic(ops, v)
        got = without.at(0.0)
        band = np.abs(grid.x2) <= 0.8 * grid.domain.m
        interior = np.abs((got - plain)[:, band]).max() / np.abs(got).max()
        assert interior < 1e-2
        assert not np.allclose(with_f.at(0.0), got)


class TestMmsConvergence:

    def test_spatial_second_order(self):
        errs, hs = [], []
        for ny in (17, 33, 65):
            cfg = SolverConfig(nx=16, ny=ny, dt=2e-4, t_end=0.1, nu=0.05,
                               alpha=0.4, scheme="imex_cnab2",
                               forcing=FieldSpec(kind="mms", reference="two_mode"),
                               ic=FieldSpec(kind="mms", reference="two_mode"))
            state, _ = run(cfg)
            exact = mms.solution_field("two_mode", state.v.grid, state.t)
            errs.append(l2_norm(Field(state.v.grid,
                                      state.v.values - exact.values)))
            hs.append(2.0 / (ny - 1))
        assert fit_order(hs, errs) == pytest.approx(2.0, abs=0.3)

    def test_recorded_columns_converge_to_the_manufactured_truth(self):
        # the spatial MMS study's runs, recorded; each column against the
        # collector applied to v* at the record times on the same grid
        columns = ("energy", "dissipation", "energy_w", "dissipation_w",
                   "norm_h2h_gamma", "norm_h3h_gamma")
        ny_values = (33, 65, 129)
        errors = {name: [] for name in columns}
        for ny in ny_values:
            spec = FieldSpec(kind="mms", reference="two_mode")
            cfg = SolverConfig(nx=32, ny=ny, dt=2e-4, t_end=0.25, nu=0.05, alpha=0.4,
                               scheme="imex_cnab2", record_every=125,
                               forcing=spec, ic=spec)
            stepper = ImexStepper(cfg)
            _, series = run(cfg)
            exact = DiagnosticsCollector(
                stepper.ops, cfg.nu, cfg.alpha,
                make_weight_field(stepper.grid, cfg.weight), stepper.forcing.at)
            truth = [exact.record(t, mms.solution_field("two_mode", stepper.grid, t), 0.0)
                     for t in series.column("t")]
            assert len(truth) == 11
            for name in columns:
                want = np.array([getattr(rec, name) for rec in truth])
                errors[name].append(np.abs(series.column(name) / want - 1.0).max())
        h = [1.0 / (ny - 1) for ny in ny_values]
        lo, hi = SECOND_ORDER_WINDOW
        for name in columns:
            assert lo <= fit_order(h, errors[name]) <= hi, (name, errors[name])

    def test_mms_run_derives_the_forcing_once(self, monkeypatch):
        # the initial condition is v* alone and needs no forcing derivation
        built = []
        init = mms.ManufacturedReference.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(mms.ManufacturedReference, "__init__", counting)
        mms.get_reference.cache_clear()
        run(SolverConfig(nx=16, ny=17, dt=1e-3, t_end=2e-3, nu=0.05, alpha=0.4,
                         forcing=FieldSpec(kind="mms", reference="two_mode"),
                         ic=FieldSpec(kind="mms", reference="two_mode")))
        assert len(built) == 1


class TestFileFields:

    def test_initial_condition_from_snapshot(self, tmp_path, rng):
        from bardina_strip.runio import write_snapshot
        cfg = _decay_config(t_end=0.01)
        grid = cfg.grid()
        x1, x2 = grid.mesh()
        vals = np.sin(x1) * (1 - x2 ** 2) ** 2
        path = tmp_path / "ic.bstr"
        write_snapshot(path, Field(grid, vals), 0.0, cfg.alpha, cfg.nu)
        from dataclasses import replace
        file_cfg = replace(cfg, ic=FieldSpec(kind="file", path=str(path)))
        state, _ = run(replace(file_cfg, t_end=0.0))
        assert np.array_equal(state.v.values, vals)

    def test_forcing_from_snapshot_matches_analytic(self, tmp_path):
        from dataclasses import replace

        from bardina_strip.runio import write_snapshot
        cfg = _decay_config(t_end=0.02,
                            forcing=FieldSpec(kind="trig_clamped",
                                              amplitude=0.7, k1=1, k2=0))
        grid = cfg.grid()
        g = build_field(cfg.forcing, grid)
        path = tmp_path / "g.bstr"
        write_snapshot(path, g, 0.0, cfg.alpha, cfg.nu)
        ref_state, _ = run(cfg)
        file_state, _ = run(replace(cfg, forcing=FieldSpec(kind="file",
                                                           path=str(path))))
        assert np.array_equal(ref_state.v.values, file_state.v.values)

    def test_forcing_snapshot_read_once_per_run(self, tmp_path, monkeypatch):
        from dataclasses import replace

        from bardina_strip import runio
        cfg = _decay_config(t_end=0.002)
        grid = cfg.grid()
        x1, x2 = grid.mesh()
        path = tmp_path / "g.bstr"
        runio.write_snapshot(path, Field(grid, np.sin(x1) * (1 - x2 ** 2) ** 2),
                             0.0, cfg.alpha, cfg.nu)
        reads = []
        read_snapshot = runio.read_snapshot

        def counting(p):
            reads.append(p)
            return read_snapshot(p)

        monkeypatch.setattr(runio, "read_snapshot", counting)
        run(replace(cfg, forcing=FieldSpec(kind="file", path=str(path))))
        assert reads == [str(path)]

    def test_dimension_mismatch_rejected(self, tmp_path):
        from bardina_strip.runio import write_snapshot
        small = _decay_config(nx=32, ny=17, t_end=0.01)
        grid = small.grid()
        path = tmp_path / "wrong.bstr"
        write_snapshot(path, Field(grid, np.zeros(grid.shape)), 0.0, 0.5, 0.01)
        cfg = replace(_decay_config(t_end=0.01),
                      ic=FieldSpec(kind="file", path=str(path)))
        with pytest.raises(ValueError, match="does not match"):
            run(cfg)

    def test_snapshot_header_mismatch_warns(self, tmp_path):
        from bardina_strip.runio import write_snapshot
        cfg = _decay_config(t_end=0.0)  # alpha = 0.5, nu = 0.01
        grid = cfg.grid()
        matching, other = tmp_path / "same.bstr", tmp_path / "other.bstr"
        write_snapshot(matching, Field(grid, np.zeros(grid.shape)), 0.3, 0.5, 0.01)
        write_snapshot(other, Field(grid, np.zeros(grid.shape)), 0.0, 0.4, 0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the header's time is not compared
            run(replace(cfg, ic=FieldSpec(kind="file", path=str(matching))))
        with pytest.warns(UserWarning, match=r"alpha = 0\.4, nu = 0\.02; this run "
                                             r"has alpha = 0\.5, nu = 0\.01"):
            run(replace(cfg, ic=FieldSpec(kind="file", path=str(other))))


class TestUnfilteredPath:

    def test_small_filter_scales_shrink_the_gap(self):
        base = dict(nx=32, ny=33, dt=2e-3, t_end=0.3, nu=0.02,
                    ic=FieldSpec(kind="trig_clamped", amplitude=1.0, k1=1, k2=0),
                    forcing=FieldSpec(kind="trig_clamped", amplitude=0.5, k1=2, k2=1))
        ref, _ = run(SolverConfig(alpha=0.0, **base))
        gaps = []
        for alpha in (0.4, 0.2, 0.1):
            state, _ = run(SolverConfig(alpha=alpha, **base))
            gaps.append(l2_norm(Field(state.v.grid,
                                      state.v.values - ref.v.values)))
        assert gaps[0] > gaps[1] > gaps[2]


def weak_residual(v_prev: Field, v_next: Field, dt: float, h: Field,
                  nu: float, alpha: float, g: Field,
                  ops: OperatorSet) -> tuple[float, float]:
    """Defect of the weak-form pairing over one step against a test field.

    Time derivative by backward difference, viscous terms at the new state,
    advective term at the old one (matching the first-order splitting).
    Returns ``(residual, scale)`` where ``scale`` sums the magnitudes of the
    individual pairings.
    """
    a2 = alpha ** 2
    grid = v_prev.grid
    qw = grid.node_weights
    ladder_h = ops.ladder(h.values)
    # pairings of the ladders of v_t and of v_next with the one of h
    _, d1t, d2t, d1d1t, d1d2t, _, _ = quadrature(
        ops.ladder((v_next.values - v_prev.values) / dt) * ladder_h, qw).tolist()
    *_, lap, d1lap = quadrature(ops.ladder(v_next.values) * ladder_h, qw).tolist()
    terms = [
        d1t + d2t,
        a2 * (d1d1t + d1d2t),
        nu * lap,
        nu * a2 * d1lap,
        -inner_product(ops.bilinear_B_conservative(v_prev, v_prev), h),
        inner_product(g, h),
    ]
    residual = sum(terms)
    scale = sum(abs(x) for x in terms)
    return residual, max(scale, 1e-300)


class TestWeakFormResidual:

    def test_residual_small_and_bounded(self):
        rels = []
        for ny, dt in ((33, 1e-3), (65, 1e-3), (129, 1e-3)):
            cfg = _decay_config(ny=ny, dt=dt, nu=0.02, alpha=0.3)
            stepper = ImexStepper(cfg)
            state = stepper.initial_state()
            for _ in range(3):
                prev = state
                state = stepper.step(state)
            grid = stepper.grid
            x1, x2 = grid.mesh()
            h = Field(grid, np.sin(x1 + 0.4) * (1 - x2 ** 2) ** 2
                      * np.cos(0.5 * np.pi * x2), clamped=True)
            g = build_field(cfg.forcing, grid)
            res, scale = weak_residual(prev.v, state.v, cfg.dt, h, cfg.nu,
                                       cfg.alpha, g, stepper.ops)
            rels.append(abs(res) / scale)
        assert max(rels) <= 2e-3
