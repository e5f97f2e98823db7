import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import sympy as sym

from bardina_strip import mms
from bardina_strip.operators import OperatorSet, d2_matrix, d2_values
from bardina_strip.runio import parse_config_text
from bardina_strip.solver import (MAX_NODES, MAX_STEPS, BlowUpError,
                                  CflWarning, FieldSpec, ImexStepper,
                                  SolverConfig, build_field, build_forcing, run)
from bardina_strip.strip_grid import Field, inner_product, l2_norm, quadrature
from bardina_strip.verification import fit_order

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
    """The block-diagonal operator handed to SuperLU against a dense
    per-mode oracle built here."""

    @staticmethod
    def _dense_block(grid, kap, theta, nu, dt):
        ny, dy = grid.ny, grid.dy
        lap1d = d2_matrix(ny, dy) - kap ** 2 * np.eye(ny)
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

    @pytest.mark.parametrize("nx,ny,lx,m", [(16, 17, 2 * np.pi, 1.0),
                                            (12, 21, 5.0, 1.3)])
    @pytest.mark.parametrize("scheme,thetas", [("imex_euler", (1.0,)),
                                               ("imex_cnab2", (0.5, 1.0))])
    def test_matches_dense_per_mode_oracle(self, monkeypatch, nx, ny, lx, m,
                                           scheme, thetas):
        import scipy.sparse.linalg as spla

        handed = []
        splu = spla.splu

        def capture(mat):
            handed.append(mat)
            return splu(mat)

        monkeypatch.setattr(spla, "splu", capture)
        cfg = SolverConfig(nx=nx, ny=ny, lx=lx, m=m, nu=0.03, dt=2e-3,
                           scheme=scheme)
        ImexStepper(cfg)
        grid = cfg.grid()
        assert len(handed) == len(thetas)
        for mat, theta in zip(handed, thetas):
            expected = sla.block_diag(*(
                self._dense_block(grid, kap, theta, cfg.nu, cfg.dt)
                for kap in grid.wavenumbers))
            assert mat.format == "csc"
            assert np.array_equal(mat.toarray(), expected)
            assert np.diff(mat.tocsr().indptr).max() <= 5


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


class TestLinearizedPropagator:
    """Single-mode runs with the advection frozen against expm of the
    mass-consistent reduced operator."""

    @staticmethod
    def _oracle_error(scheme, dt, t_end=0.2, nx=16, ny=33, nu=0.05, alpha=0.3):
        cfg = SolverConfig(nx=nx, ny=ny, dt=dt, t_end=t_end, nu=nu, alpha=alpha,
                           scheme=scheme, nonlinear=False,
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
    def test_g_norm_finite_for_time_independent_references(self, name, steady):
        mms_spec = FieldSpec(kind="mms", reference=name)
        cfg = _decay_config(nx=16, ny=17, t_end=0.002, nu=0.05, alpha=0.4,
                            forcing=mms_spec, ic=mms_spec)
        assert build_forcing(cfg, cfg.grid()).time_independent is steady
        g_norm = run(cfg)[1].meta["g_norm"]
        assert math.isfinite(g_norm) is steady
        if name == "steady_mode":
            assert g_norm > 0

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
    qw = grid.dx * grid.quad_weights
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
