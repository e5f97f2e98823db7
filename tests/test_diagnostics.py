import math
import tracemalloc

import numpy as np
import pytest

from bardina_strip.diagnostics import (DiagnosticsCollector, DiagnosticsRecord,
                                       DiagnosticsSeries, StreamingTranslationModulus,
                                       energy_budget, lambda1_estimate,
                                       poincare_check, prolong, random_clamped_field)
from bardina_strip.operators import OperatorSet
from bardina_strip.runio import parse_config_text
from bardina_strip.solver import (MAX_STEPS, FieldSpec, ImexStepper, SolverConfig,
                                  build_field, run)
from bardina_strip.strip_grid import Field, StripDomain, make_grid
from bardina_strip.verification import galerkin_refinement_study, run_suite
from bardina_strip.weights import WeightSpec, make_weight_field


def _run_decay(nx=32, ny=33, t_end=0.3, record_every=2, **over):
    kw = dict(nx=nx, ny=ny, dt=1e-3, t_end=t_end, nu=0.01, alpha=0.5,
              record_every=record_every,
              ic=FieldSpec(kind="trig_clamped", amplitude=1.0, k1=1, k2=0))
    kw.update(over)
    cfg = SolverConfig(**kw)
    traj = []  # (t, field) per record; a state's field is read-only
    state, series = run(cfg, on_record=lambda s, r: traj.append((s.t, s.v)))
    return cfg, state, series, traj


def _lambda1_error(grid):
    analytic = (np.pi / (2.0 * grid.domain.m)) ** 2
    return abs(lambda1_estimate(grid) - analytic) / analytic


class TestLambda1:

    def test_matches_analytic_value(self):
        grid = make_grid(StripDomain(2 * np.pi, 1.0), 8, 65)
        assert lambda1_estimate(grid) == pytest.approx((np.pi / 2) ** 2, rel=0.01)

    @pytest.mark.parametrize("ny", [9, 17, 65, 129, 513])
    def test_closed_form_matches_tridiagonal_eigensolve(self, ny):
        from scipy.linalg import eigvalsh_tridiagonal

        grid = make_grid(StripDomain(2 * np.pi, 1.0), 8, ny)
        n, dy = ny - 2, grid.dy
        (oracle,) = eigvalsh_tridiagonal(np.full(n, 2.0 / dy ** 2), np.full(n - 1, -1.0 / dy ** 2),
                                         select="i", select_range=(0, 0))
        assert abs(lambda1_estimate(grid) - oracle) <= 1e-13 * oracle

    def test_second_order_in_dy(self):
        errs = []
        for ny in (17, 33, 65):
            grid = make_grid(StripDomain(2 * np.pi, 1.0), 8, ny)
            errs.append(_lambda1_error(grid))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.4)
        assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.4)

    def test_scales_with_half_width(self):
        grid = make_grid(StripDomain(2 * np.pi, 2.0), 8, 65)
        assert lambda1_estimate(grid) == pytest.approx((np.pi / 4) ** 2, rel=0.01)


class TestEnergyBudget:

    def test_unforced_decay_is_monotone(self):
        _cfg, _state, series, _ = _run_decay(record_every=1)
        report = energy_budget(series)
        e = series.column("energy")
        assert np.all(np.diff(e) < 0)
        assert report.max_energy_increase == 0.0
        assert report.max_excess <= 1e-10 * e[0]

    @staticmethod
    def _max_settled_residual(ny, dt):
        # the first record pair carries the projection of the initial state
        # onto the discrete clamped subspace and scales like 1/dt; the
        # budget identity applies from the second pair on
        import warnings as _warnings
        from bardina_strip.solver import CflWarning
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", CflWarning)
            _, _, series, _ = _run_decay(ny=ny, dt=dt, t_end=0.2, record_every=1)
        return np.abs(series.column("budget_residual")[2:]).max()

    def test_identity_residual_floor_is_second_order_in_dy(self):
        residuals = [self._max_settled_residual(ny, 1e-3) for ny in (33, 65, 129)]
        assert residuals[0] / residuals[1] >= 3.0
        assert residuals[1] / residuals[2] >= 3.0

    def test_identity_residual_dt_part_shrinks_at_first_order(self):
        # measured above the fixed spatial quadrature floor
        floor = self._max_settled_residual(129, 5e-4)
        r8 = self._max_settled_residual(129, 8e-3) - floor
        r4 = self._max_settled_residual(129, 4e-3) - floor
        r2 = self._max_settled_residual(129, 2e-3) - floor
        assert r8 > r4 > r2 > 0
        assert r8 / r4 >= 1.7

    def test_forced_steady_state_balances(self):
        cfg = SolverConfig(nx=32, ny=33, dt=5e-3, t_end=10.0, nu=0.1, alpha=0.4,
                           record_every=200,
                           forcing=FieldSpec(kind="trig_clamped",
                                             amplitude=1.0, k1=1, k2=0))
        _, series = run(cfg)
        last = series.records[-1]
        prev = series.records[-2]
        assert abs(last.energy - prev.energy) <= 1e-3 * last.energy
        assert 2 * last.dissipation == pytest.approx(2 * last.forcing_power,
                                                     rel=5e-2)

    def test_budget_columns_finite_for_every_forcing_kind(self, tmp_path):
        from bardina_strip.runio import write_snapshot
        common = dict(nx=16, ny=17, dt=1e-3, t_end=5e-3, nu=0.05, alpha=0.4)
        trig = FieldSpec(kind="trig_clamped", amplitude=1.0)
        path = tmp_path / "g.bstr"
        write_snapshot(path, build_field(trig, SolverConfig(**common).grid()),
                       0.0, 0.4, 0.05)
        forcings = [FieldSpec(), trig, FieldSpec(kind="file", path=str(path)),
                    FieldSpec(kind="mms", reference="two_mode")]
        for forcing in forcings:
            ic = forcing if forcing.kind == "mms" else trig
            _, series = run(SolverConfig(forcing=forcing, ic=ic, **common))
            for name in ("budget_residual", "weighted_budget_residual",
                         "forcing_power"):
                assert np.all(np.isfinite(series.column(name))), (forcing.kind, name)

    def test_mms_budget_residual_at_discretization_level(self):
        # the forcing is read at each record time, so the exact balance
        # dE/dt + 2 D = 2 P closes up to the time discretization
        mms = FieldSpec(kind="mms", reference="two_mode")
        _, series = run(SolverConfig(nx=64, ny=65, dt=1e-3, t_end=0.15, nu=0.05,
                                     alpha=0.4, scheme="imex_cnab2",
                                     forcing=mms, ic=mms))
        t, e = series.column("t"), series.column("energy")
        scale = (np.abs(np.diff(e) / np.diff(t)).max()
                 + 2.0 * series.column("dissipation").max())
        settled = np.abs(series.column("budget_residual")[2:]).max()
        assert settled <= 0.02 * scale

    def test_excess_measured_against_closed_bound(self):
        _, _, series, _ = _run_decay(record_every=1)
        report = energy_budget(series)
        assert report.bound == 0.0  # no forcing
        # the energy decays faster than D, so dE/dt + D stays below 0
        assert report.max_excess == 0.0

    def test_report_matches_numpy_on_the_columns(self):
        # the bound differs per record: measured against the largest bound,
        # 8, every excess would read as 0, not 4.5
        t, e, d = [0.0, 0.5, 1.0, 2.0], [1.0, 3.0, 2.0, 6.0], [0.5, 1.0, 2.0, 1.0]
        e_w, d_w = [2.0, 5.0, 4.0, 3.0], [1.0, 2.0, 3.0, 2.0]
        g_sq = [0.0, 16.0, 0.0, 1.0]
        series = DiagnosticsSeries(meta=dict(nu=0.5, lambda1=2.0))
        for n in range(4):
            series.append(DiagnosticsRecord(
                t=t[n], energy=e[n], dissipation=d[n], energy_w=e_w[n],
                dissipation_w=d_w[n], norm_l2=0.0, norm_h1h=0.0, norm_h2h_gamma=0.0,
                norm_h3h_gamma=0.0, budget_residual=0.0, weighted_budget_residual=0.0,
                cfl=0.0, forcing_norm_sq=g_sq[n]))
        bounds = np.array(g_sq) / (0.5 * 2.0 ** 2)
        dedt_plus_d = np.diff(e) / np.diff(t) + np.array(d[1:])
        np.testing.assert_array_equal(dedt_plus_d - bounds[1:], [-3.0, 0.0, 4.5])
        assert (dedt_plus_d - bounds.max()).max() < 0.0
        report = energy_budget(series)
        assert report.max_energy_increase == np.diff(e).max() == 4.0
        assert report.max_excess == (dedt_plus_d - bounds[1:]).max() == 4.5
        assert report.bound == bounds.max() == 8.0
        assert report.initial_energy_w == e_w[0] == 2.0
        assert report.sup_energy_w == np.max(e_w) == 5.0
        assert report.dissipation_w_integral == np.trapezoid(d_w, t) == 4.5


class TestWeightedBudget:

    def test_degenerate_weight_reduces_to_plain_energy(self):
        _, _, series, _ = _run_decay(
            weight=WeightSpec(epsilon=0.1, rho=10.0, gamma=0.0))
        e = series.column("energy")
        ew = series.column("energy_w")
        assert np.abs(e - ew).max() <= 1e-12 * e[0]

    def test_weighted_energy_monotone_in_rho(self):
        sups = []
        for rho in (1.0, 1.05, 10.0):
            _, _, series, _ = _run_decay(
                t_end=0.05, weight=WeightSpec(epsilon=0.1, rho=rho, gamma=2 / 3))
            sups.append(energy_budget(series).sup_energy_w)
        assert sups[0] <= sups[1] <= sups[2]
        assert sups[0] < sups[2]

    def test_report_integrals_finite(self):
        _, _, series, _ = _run_decay()
        rep = energy_budget(series)
        assert np.isfinite(rep.sup_energy_w)
        assert np.isfinite(rep.dissipation_w_integral)
        assert rep.sup_energy_w >= series.column("energy_w")[-1]


def _modulus(traj, lags):
    grid = traj[0][1].grid
    acc = StreamingTranslationModulus(grid, OperatorSet(grid), lags,
                                      dt_record=traj[1][0] - traj[0][0],
                                      weight=make_weight_field(grid, SolverConfig.weight))
    for t, f in traj:
        acc.add(t, f)
    return acc.result()


class TestTranslationModulus:

    def test_constant_trajectory_gives_zero(self, medium_grid):
        vals = np.outer(np.sin(medium_grid.x1), (1 - medium_grid.x2 ** 2) ** 2)
        traj = [(0.1 * i, Field(medium_grid, vals)) for i in range(9)]
        mod = _modulus(traj, [1, 2, 4])
        assert np.all(mod.modulus == 0.0)

    def test_off_cadence_add_is_refused(self, medium_grid):
        vals = np.outer(np.sin(medium_grid.x1), (1 - medium_grid.x2 ** 2) ** 2)
        acc = StreamingTranslationModulus(
            medium_grid, OperatorSet(medium_grid), [1, 2], dt_record=0.1,
            weight=make_weight_field(medium_grid, SolverConfig.weight))
        acc.add(0.0, Field(medium_grid, vals))
        acc.add(0.1, Field(medium_grid, vals))
        # the record at t = 0.2 is skipped
        with pytest.raises(ValueError, match=r"t = 0\.3 .* t = 0\.1\b"):
            acc.add(0.3, Field(medium_grid, vals))

    def test_decaying_run_slope_and_envelope(self):
        _, _, _, traj = _run_decay(t_end=0.5)
        mod = _modulus(traj, [2 ** j for j in range(6)])
        assert mod.slope >= 0.5
        assert mod.envelope_dominates()
        assert np.all(np.diff(mod.modulus) > 0)


class TestSharedLadder:
    """A recorded state's ladder serves the collector and the modulus."""

    @staticmethod
    def _observed_run(observe):
        cfg = SolverConfig(nx=32, ny=33, dt=1e-3, t_end=0.04, nu=0.01, alpha=0.5,
                           ic=FieldSpec(kind="trig_clamped", amplitude=1.0, k1=1, k2=0))
        grid = cfg.grid()
        weight = make_weight_field(grid, cfg.weight)

        def modulus():
            return StreamingTranslationModulus(grid, OperatorSet(grid), [1, 2, 4, 8],
                                               dt_record=2 * cfg.dt, weight=weight)

        accs = (modulus(), modulus())

        def observer(state, _rec):
            if state.step_index % 2 == 0:
                observe(state, *accs)

        _, series = run(cfg, on_record=observer)
        return series, accs

    def test_one_ladder_per_record(self, monkeypatch):
        # one ladder per record, built from the state's coefficients
        calls = []
        ladder = OperatorSet.ladder
        monkeypatch.setattr(OperatorSet, "ladder", lambda self, values, coeffs=None:
                            calls.append(coeffs is not None) or ladder(self, values, coeffs))
        series, _ = self._observed_run(lambda state, acc, _: acc.add(state.t, state.v))
        assert len(calls) == len(series) == 41 and all(calls)

    def test_state_values_are_read_only(self):
        def observe(state, *_):
            with pytest.raises(ValueError, match="read-only"):
                state.v.values[0, 0] = 1.0
        self._observed_run(observe)

    def test_shared_modulus_equals_fresh_ladder(self):
        def observe(state, shared, fresh):
            shared.add(state.t, state.v)
            # a fresh operator set's ladder of the state's coefficients
            copy = Field(state.v.grid, state.v.values.copy())
            OperatorSet(state.grid).field_ladder(copy, state.v_hat.copy())
            fresh.add(state.t, copy)

        _, (shared, fresh) = self._observed_run(observe)
        got = [x.hex() for x in shared.result().modulus.tolist()]
        assert got == [x.hex() for x in fresh.result().modulus.tolist()]
        assert all(x > 0 for x in shared.result().modulus)


class TestStateLadder:
    """A solver state's ladder is built from its coefficients ``v_hat``."""

    @staticmethod
    def _state(n, steps=5):
        cfg = SolverConfig(nx=n, ny=n + 1, dt=1e-3, t_end=steps * 1e-3, nu=0.01, alpha=0.5,
                           ic=FieldSpec(kind="trig_clamped", amplitude=1.0, k1=1, k2=1))
        stepper = ImexStepper(cfg)
        *_, state = stepper.states(MAX_STEPS)
        return stepper, state

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_agrees_with_the_values_ladder(self, n):
        # the values path starts from rfft(irfft(v_hat)), which differs from
        # v_hat by a few eps of the largest coefficient; no channel's symbol
        # exceeds d1 lap's kmax (kmax^2 + 4 / dy^2), so that bounds the
        # difference, relative to each channel's maximum, with a factor 10
        stepper, state = self._state(n)
        grid = stepper.grid
        kmax = grid.wavenumbers[-1]
        bound = 10 * np.finfo(float).eps * kmax * (kmax ** 2 + 4 / grid.dy ** 2)
        modal = stepper.ops.ladder(state.v.values, state.v_hat)
        values = OperatorSet(grid).ladder(state.v.values)
        for a, b in zip(modal, values):
            assert np.abs(a - b).max() <= bound * np.abs(b).max()

    def test_channel_0_is_the_state_values(self):
        stepper, state = self._state(64)
        ladder = stepper.ops.field_ladder(state.v, state.v_hat)
        assert np.array_equal(ladder[0], state.v.values)
        assert np.array_equal(state.v.values, np.fft.irfft(state.v_hat, n=64, axis=0))

    def test_first_record_peak_memory(self):
        # a fresh state's first record: its values, the (7, nx, ny) stack,
        # the two-channel modal work array and the transients of one channel
        stepper, state = self._state(128, steps=1)
        grid, cfg = stepper.grid, stepper.config
        collector = DiagnosticsCollector(stepper.ops, cfg.nu, cfg.alpha,
                                         make_weight_field(grid, cfg.weight),
                                         stepper.forcing.at)
        tracemalloc.start()
        try:
            collector.record(state.t, state.v, state.cfl, coeffs=state.v_hat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14 * grid.nx * grid.ny * 8


class TestProlongation:

    def test_exact_on_resolved_smooth_data(self):
        coarse = make_grid(StripDomain(2 * np.pi, 1.0), 16, 17)
        fine = make_grid(StripDomain(2 * np.pi, 1.0), 32, 33)
        x1, x2 = coarse.mesh()
        f = Field(coarse, np.sin(2 * x1) * (0.3 + 0.5 * x2))
        lifted = prolong(f, fine)
        fx1, fx2 = fine.mesh()
        exact = np.sin(2 * fx1) * (0.3 + 0.5 * fx2)
        assert np.abs(lifted.values - exact).max() <= 1e-12

    def test_rejects_non_nested(self):
        coarse = make_grid(StripDomain(2 * np.pi, 1.0), 16, 17)
        bad = make_grid(StripDomain(2 * np.pi, 1.0), 24, 33)
        f = Field(coarse, np.zeros(coarse.shape))
        with pytest.raises(ValueError, match="nested"):
            prolong(f, bad)


def _leg(nx, ny, every, **over):
    """The ``(t, v)`` records of a stepped run at ``nx`` x ``ny``, every
    ``every``-th step and the last, as a generator."""
    stepper = ImexStepper(SolverConfig(nx=nx, ny=ny, **over))
    return ((state.t, state.v) for state in stepper.states(every))


class TestRefinementStudy:

    def test_rejects_non_nested_resolutions(self):
        legs = [_leg(nx, ny, 1, dt=1e-2, t_end=0.1) for nx, ny in [(16, 17), (24, 25)]]
        with pytest.raises(ValueError, match="nested"):
            galerkin_refinement_study(legs, dt_record=1e-2)

    def test_rejects_resolutions_with_different_record_counts(self):
        legs = [_leg(16, 17, 1, dt=1e-2, t_end=0.1), _leg(32, 33, 1, dt=1e-2, t_end=0.05)]
        with pytest.raises(ValueError, match="shorter|longer"):
            galerkin_refinement_study(legs, dt_record=1e-2)

    def test_rejects_a_record_off_the_cadence(self):
        # states() yields the last step too: 0, 3, 6, 9 and 10, whose one-step
        # interval a record weight of 3 dt would count as three
        legs = [_leg(nx, ny, 3, dt=1e-2, t_end=0.1) for nx, ny in [(16, 17), (32, 33)]]
        with pytest.raises(ValueError, match=r"t = 0\.1 is off the cadence.*t = 0\.09"):
            galerkin_refinement_study(legs, dt_record=3e-2)

    def test_rejects_legs_out_of_step(self):
        # equally many records, but the finer leg's dt is twice the coarse one's
        legs = [_leg(16, 17, 1, dt=1e-2, t_end=0.1), _leg(32, 33, 1, dt=2e-2, t_end=0.2)]
        with pytest.raises(ValueError, match=r"out of step.*t = 0\.01 .*t = 0\.02"):
            galerkin_refinement_study(legs, dt_record=1e-2)

    def test_deltas_equal_the_premultiplied_dot_form(self):
        def make_config(nx, ny):
            return SolverConfig(nx=nx, ny=ny, dt=1e-2, t_end=0.1, record_every=2,
                                ic=FieldSpec(kind="trig_clamped", amplitude=1.0))
        resolutions = [(16, 17), (32, 33), (64, 65)]
        study = galerkin_refinement_study(
            [((s.t, s.v) for s in ImexStepper(make_config(nx, ny)).states(2))
             for nx, ny in resolutions], dt_record=2e-2)
        # the oracle: channels premultiplied by the root of the node weights,
        # each record's squared distance one vdot
        steppers = [ImexStepper(make_config(nx, ny)) for nx, ny in resolutions]
        sums = [0.0, 0.0]
        for states in zip(*(s.states(2) for s in steppers)):
            for j, (coarse, fine) in enumerate(zip(states, states[1:])):
                grid = fine.v.grid
                diff = prolong(coarse.v, grid).values - fine.v.values
                ch = (steppers[j + 1].ops.ladder(diff)[:5]
                      * np.sqrt(grid.node_weights))
                sums[j] += 2e-2 * float(np.vdot(ch, ch).real)
        np.testing.assert_allclose(study.deltas, np.sqrt(sums), rtol=1e-13, atol=0)

    def test_list_and_generator_legs_give_the_same_deltas(self):
        kw = dict(dt=1e-2, t_end=0.1, ic=FieldSpec(kind="trig_clamped", amplitude=1.0))
        resolutions = [(16, 17), (32, 33)]
        lists = galerkin_refinement_study(
            [list(_leg(nx, ny, 2, **kw)) for nx, ny in resolutions], dt_record=2e-2)
        generators = galerkin_refinement_study(
            [_leg(nx, ny, 2, **kw) for nx, ny in resolutions], dt_record=2e-2)
        assert lists.deltas[0] > 0
        assert [d.hex() for d in lists.deltas] == [d.hex() for d in generators.deltas]

    def test_linear_problem_converges_at_second_order(self, frozen_advection):
        kw = dict(dt=1e-3, t_end=0.2, nu=0.02, alpha=0.3,
                  ic=FieldSpec(kind="trig_clamped", amplitude=1.0, k1=1, k2=0))
        study = galerkin_refinement_study(
            [_leg(nx, ny, 20, **kw) for nx, ny in [(16, 17), (32, 33), (64, 65)]],
            dt_record=20 * 1e-3)
        assert study.monotone
        # values converge at second order but the x2-linear lift has a
        # first-order-accurate derivative, so the trajectory-space ratio
        # sits between 2 and 4 rather than at the clean value-space 4
        assert 2.0 <= study.deltas[0] / study.deltas[1] <= 6.0

    def test_nonlinear_decay_is_cauchy(self):
        kw = dict(dt=2e-3, t_end=0.3, nu=0.01, alpha=0.5,
                  ic=FieldSpec(kind="trig_clamped", amplitude=1.0, k1=1, k2=0))
        study = galerkin_refinement_study(
            [_leg(nx, ny, 25, **kw) for nx, ny in [(16, 17), (32, 33), (64, 65)]],
            dt_record=25 * 2e-3, tau=0.05)
        assert study.monotone


class TestStudiesRecordNothing:
    """The studies that read only solver states compute no diagnostics record."""

    @pytest.fixture
    def records(self, monkeypatch):
        calls = []
        record = DiagnosticsCollector.record
        monkeypatch.setattr(DiagnosticsCollector, "record",
                            lambda self, *a, **kw: calls.append(1) or record(self, *a, **kw))
        return calls

    def test_compactness_suite(self, records):
        settings = parse_config_text(
            "nx = 16\nny = 17\ndt = 1e-3\nt_end = 0.064\nnu = 0.01\n"
            "ic.kind = trig_clamped\nic.amplitude = 1.0\n")
        run_suite("compactness", settings)
        assert records == []

    def test_refinement_study(self, records, monkeypatch):
        # the legs' steppers are built first; the study steps them but builds none
        legs = [_leg(nx, ny, 2, dt=1e-2, t_end=0.1,
                     ic=FieldSpec(kind="trig_clamped", amplitude=1.0))
                for nx, ny in [(16, 17), (32, 33)]]
        built = []
        init = ImexStepper.__init__

        def counting_init(self, config):
            built.append(config)
            init(self, config)

        monkeypatch.setattr(ImexStepper, "__init__", counting_init)
        study = galerkin_refinement_study(legs, dt_record=2e-2)
        assert built == []
        assert records == []
        assert study.deltas[0] > 0


class TestPoincare:

    def test_eigenmode_saturates_sharp_constant(self):
        grid = make_grid(StripDomain(2 * np.pi, 1.0), 16, 129)
        x1, x2 = grid.mesh()
        m = grid.domain.m
        v = Field(grid, np.sin(np.pi * (x2 + m) / (2 * m)) * np.ones_like(x1))
        ops = OperatorSet(grid)
        from bardina_strip.strip_grid import l2_norm
        ladder = ops.ladder(v.values)
        ratio = l2_norm(v) / math.sqrt(l2_norm(Field(grid, ladder[1])) ** 2
                                       + l2_norm(Field(grid, ladder[2])) ** 2)
        lam = lambda1_estimate(grid)
        assert ratio == pytest.approx(lam ** -0.5, rel=1e-3)
        assert ratio < 2.0 / lam

    def test_random_audit_passes(self):
        grid = make_grid(StripDomain(2 * np.pi, 1.0), 32, 33)
        spec = WeightSpec(epsilon=0.05, rho=10.0, gamma=2 / 3)
        report = poincare_check(30, spec, grid, seed=3)
        assert report.passed
        assert report.worst_zero_order > 0.0
        assert report.samples == 30

    @pytest.mark.parametrize("m", [0.1, 1.0, 10.0])
    def test_audit_passes_at_every_strip_width(self, m):
        # both ratios are lengths, so both bounds scale as m: 2 / sqrt(lambda1)
        # with lambda1 -> (pi / (2 m))^2; a zero-order bound of 2 / lambda1
        # failed this correct discretization at m = 0.1
        grid = make_grid(StripDomain(2 * np.pi, m), 64, 65)
        report = poincare_check(100, WeightSpec(epsilon=0.05, rho=10.0, gamma=2 / 3),
                                grid, seed=7)
        assert report.passed
        assert report.bound == pytest.approx(4 * m / np.pi, rel=1e-3)

    def test_random_fields_are_clamped(self, medium_grid, rng):
        f = random_clamped_field(medium_grid, rng)
        assert np.all(f.values[:, 0] == 0.0)
        assert np.all(f.values[:, -1] == 0.0)
