"""Acceptance gate: one test per criterion, one printed line per criterion.

Criteria 4, 5 and 7 share the baseline unforced decay run (128 x 129,
nu = 0.01, alpha = 0.5, dt = 1e-3, T = 5) through a module-scoped fixture:
per-step diagnostics feed the energy checks while a streaming accumulator
collects the time-translation modulus at twice the step cadence.
"""

from dataclasses import replace

import numpy as np
import pytest

from bardina_strip.diagnostics import (StreamingTranslationModulus,
                                       energy_budget, poincare_check)
from bardina_strip.operators import OperatorSet
from bardina_strip.solver import FieldSpec, SolverConfig, run
from bardina_strip.strip_grid import (Field, StripDomain, inner_product,
                                      l2_norm, make_grid)
from bardina_strip.verification import (ALPHA_SLOPE_WINDOW,
                                        DEPENDENCE_SPREAD_BOUND,
                                        ENERGY_INCREASE_BOUND,
                                        FIRST_DERIVATIVE_CONSTANT,
                                        FIRST_ORDER_WINDOW, GAMMA_GROWTH_MIN,
                                        HALVING_FACTOR, HALVING_FLOOR,
                                        IDENTITY_DEFECT_BOUND,
                                        IDENTITY_ORDER_MIN,
                                        LAMBDA1_ERROR_BOUND,
                                        MODULUS_SLOPE_MIN, RHO_RATIO_BOUND,
                                        SECOND_ORDER_WINDOW,
                                        TELESCOPING_BOUND, alpha_sweep_study,
                                        continuous_dependence_study,
                                        decay_config,
                                        galerkin_refinement_study,
                                        mms_spatial_study,
                                        mms_temporal_study,
                                        operator_identity_study,
                                        weight_rho_stability)
from bardina_strip.weights import (WeightSpec, certify_phi_control,
                                   lemma_beta_set, make_weight_field)


def _report(num, ok, detail):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def baseline_run():
    cfg = decay_config()  # 128 x 129, dt = 1e-3, T = 5, record every step
    grid = cfg.grid()
    ops = OperatorSet(grid)
    weight = make_weight_field(grid, cfg.weight)
    acc = StreamingTranslationModulus(grid, ops, [1, 2, 4, 8, 16, 32],
                                      dt_record=2 * cfg.dt, norm="h2h",
                                      weight=weight)

    def observer(state, _rec):
        if state.step_index % 2 == 0:
            acc.add(state.t, state.v)

    _state, series = run(cfg, on_record=observer)
    return cfg, series, acc.result()


def test_criterion_1_operator_identities():
    study = operator_identity_study(nx=128, ny=129)
    ok = (study.r1_pointwise[0] <= IDENTITY_DEFECT_BOUND
          and study.r2_pointwise[0] <= IDENTITY_DEFECT_BOUND
          and study.order_r1 >= IDENTITY_ORDER_MIN
          and study.order_r2 >= IDENTITY_ORDER_MIN
          and study.r1_conservative <= TELESCOPING_BOUND
          and study.r2_conservative <= TELESCOPING_BOUND)
    assert _report(1, ok, (
        f"r1={study.r1_pointwise[0]:.2e} r2={study.r2_pointwise[0]:.2e} "
        f"orders=({study.order_r1:.2f}, {study.order_r2:.2f}) "
        f"conservative=({study.r1_conservative:.1e}, {study.r2_conservative:.1e})"))


def test_criterion_2_filter_exactness(rng):
    grid = make_grid(StripDomain(2 * np.pi, 1.0), 64, 65)
    x1, x2 = grid.mesh()
    ops, alpha = OperatorSet(grid), 1.0
    f = Field(grid, np.cos(x1) * (1 + 0.3 * x2))
    eig = np.abs(ops.apply_Ah(f, alpha).values - 2 * f.values).max()
    worst_rt = 0.0
    worst_adj = 0.0
    for _ in range(20):
        g = Field(grid, rng.standard_normal(grid.shape))
        h = Field(grid, rng.standard_normal(grid.shape))
        back = ops.invert_Ah(ops.apply_Ah(g, alpha), alpha)
        worst_rt = max(worst_rt, np.abs(back.values - g.values).max()
                       / np.abs(g.values).max())
        adj = abs(inner_product(ops.invert_Ah(g, alpha), h)
                  - inner_product(g, ops.invert_Ah(h, alpha)))
        worst_adj = max(worst_adj, adj / (l2_norm(g) * l2_norm(h)))
    ok = eig <= 1e-12 and worst_rt <= 1e-12 and worst_adj <= 1e-12
    assert _report(2, ok, (f"eigenfunction={eig:.1e} roundtrip={worst_rt:.1e} "
                           f"self-adjoint={worst_adj:.1e}"))


def test_criterion_3_mms_convergence():
    _errs, spatial = mms_spatial_study()
    _e1, t_euler = mms_temporal_study("imex_euler")
    _e2, t_cnab2 = mms_temporal_study("imex_cnab2")
    lo1, hi1 = FIRST_ORDER_WINDOW
    lo2, hi2 = SECOND_ORDER_WINDOW
    ok = (lo2 <= spatial <= hi2 and lo1 <= t_euler <= hi1
          and lo2 <= t_cnab2 <= hi2)
    assert _report(3, ok, (f"spatial={spatial:.2f} euler={t_euler:.2f} "
                           f"cnab2={t_cnab2:.2f}"))


def test_criterion_4_energy_decay(baseline_run):
    cfg, series, _mod = baseline_run
    budget = energy_budget(series)
    e0 = series.records[0].energy
    tol = ENERGY_INCREASE_BOUND * e0
    increase_ok = budget.max_energy_increase <= tol
    monotone = bool(np.all(np.diff(series.column("energy")) <= tol))

    short = replace(cfg, t_end=0.256)
    _, s_coarse = run(short)
    _, s_fine = run(replace(short, dt=cfg.dt / 2))
    exc_coarse = energy_budget(s_coarse).max_energy_increase
    exc_fine = energy_budget(s_fine).max_energy_increase
    halving_ok = exc_fine <= HALVING_FACTOR * exc_coarse + HALVING_FLOOR * e0
    ok = increase_ok and monotone and halving_ok
    assert _report(4, ok, (
        f"max increase={budget.max_energy_increase:.2e} (tol {tol:.2e}) "
        f"halving {exc_coarse:.2e} -> {exc_fine:.2e}"))


@pytest.fixture(scope="module")
def doubled_run():
    cfg = decay_config(nx=256, ny=257, record_every=5)
    _, series = run(cfg)
    return series


def test_criterion_5_weighted_estimates(baseline_run, doubled_run):
    _cfg, series, _ = baseline_run
    base = energy_budget(series)
    dbl = energy_budget(doubled_run)
    sup_ok = base.sup_energy_w <= 1.05 * base.initial_energy_w
    ratio_base = base.sup_energy_w / base.initial_energy_w
    ratio_dbl = dbl.sup_energy_w / dbl.initial_energy_w
    stable_sup = abs(ratio_base - ratio_dbl) <= 0.05 * ratio_dbl
    int_base, int_dbl = base.dissipation_w_integral, dbl.dissipation_w_integral
    stable_int = (np.isfinite(int_base) and np.isfinite(int_dbl)
                  and abs(int_base - int_dbl) <= 0.05 * int_dbl)
    ok = sup_ok and stable_sup and stable_int
    assert _report(5, ok, (
        f"sup/initial={ratio_base:.6f} (doubled {ratio_dbl:.6f}) "
        f"int D_w={int_base:.4f} (doubled {int_dbl:.4f})"))


def test_criterion_6a_weight_certification_rho_stability():
    """Strong-form constants across rho in {1, 10, 100} for every index.

    Documented expected failure: the blend-region term
    ``2 gamma g^(2 gamma - 1) |g''| (d1 r)^2`` grows like ``rho^(1/3)`` for
    the pure-x1 second derivative even at the threshold exponent, and the
    first-derivative constant saturates at 3 gamma only well above rho = 1,
    so the factor-two stability bound cannot hold for those indices.  The
    weak form (normalized by the squared weight) is rho-stable for every
    admissible index; see the certification report and the module tests.
    """
    reports = weight_rho_stability(epsilon=0.1, gamma=2.0 / 3.0,
                                   rhos=(1.0, 10.0, 100.0))
    lines = []
    ok = True
    for beta in lemma_beta_set():
        ratio = reports[100.0].c_strong[beta] / reports[1.0].c_strong[beta]
        good = ratio <= RHO_RATIO_BOUND
        ok = ok and good
        lines.append(f"beta={beta}: ratio={ratio:.2f}{'' if good else ' *'}")
    assert _report("6a", ok, "strong-form C ratios rho=100 vs rho=1: "
                   + "; ".join(lines))


def test_criterion_6b_weight_certification_gamma_growth():
    reports = weight_rho_stability(epsilon=0.1, gamma=1.0,
                                   rhos=(1.0, 100.0))
    ratio = reports[100.0].aggregate_strong / reports[1.0].aggregate_strong
    ok = ratio >= GAMMA_GROWTH_MIN
    assert _report("6b", ok, (f"aggregate growth at gamma=1: {ratio:.2f} "
                              f">= {GAMMA_GROWTH_MIN:g}"))


def test_criterion_6c_explicit_first_derivative_constant():
    spec = WeightSpec(epsilon=0.1, gamma=2.0 / 3.0)
    rep = certify_phi_control(spec, betas=[(1, 0)], x1_extent=400.0)
    c = rep.c_strong[(1, 0)]
    ok = c <= FIRST_DERIVATIVE_CONSTANT
    assert _report("6c", ok, (f"limit-weight |d1 phi| constant: {c:.3f} "
                              f"<= {FIRST_DERIVATIVE_CONSTANT:g}"))


def test_criterion_7_compactness_modulus(baseline_run):
    _cfg, _series, mod = baseline_run
    ok = mod.slope >= MODULUS_SLOPE_MIN and mod.envelope_dominates()
    assert _report(7, ok, (f"slope={mod.slope:.3f} envelope "
                           f"{'dominates' if mod.envelope_dominates() else 'violated'}"))


def test_criterion_8_poincare_suite():
    grid = make_grid(StripDomain(2 * np.pi, 1.0), 64, 65)
    spec = WeightSpec(epsilon=0.05, rho=10.0, gamma=2.0 / 3.0)
    audit = poincare_check(100, spec, grid, seed=7)
    lam_ok = audit.lambda1_error <= LAMBDA1_ERROR_BOUND
    ok = audit.passed and lam_ok
    assert _report(8, ok, (
        f"|psi v|/|psi grad v|={audit.worst_zero_order:.3f}<= {audit.bound:.3f}, "
        f"|psi grad v|/|psi lap v|={audit.worst_first_order:.3f}<= {audit.bound:.3f}, "
        f"lambda1 err={audit.lambda1_error:.2e}"))


def test_criterion_9_alpha_consistency():
    alphas, diffs, slope = alpha_sweep_study(alphas=(0.4, 0.2, 0.1, 0.05))
    monotone = all(b < a for a, b in zip(diffs, diffs[1:]))
    ok = monotone and ALPHA_SLOPE_WINDOW[0] <= slope <= ALPHA_SLOPE_WINDOW[1]
    assert _report(9, ok, ("diffs=" + ", ".join(f"{d:.2e}" for d in diffs)
                           + f" slope={slope:.2f}"))


def test_criterion_10_refinement_cauchy():
    def make_config(nx, ny):
        return SolverConfig(
            nx=nx, ny=ny, dt=1e-3, t_end=1.0, nu=0.01, alpha=0.5,
            record_every=20,
            ic=FieldSpec(kind="trig_clamped", amplitude=1.0, k1=1, k2=0))

    study = galerkin_refinement_study(
        make_config, [(64, 65), (128, 129), (256, 257)], tau=0.1)
    ok = study.monotone
    assert _report(10, ok, "deltas=" + ", ".join(f"{d:.3e}" for d in study.deltas))


def test_criterion_11_continuous_dependence():
    deltas, ratios = continuous_dependence_study()
    spread = abs(ratios[0] - ratios[1]) / ratios[1]
    ok = spread <= DEPENDENCE_SPREAD_BOUND
    assert _report(11, ok, (
        f"C(delta=1e-3)={ratios[0]:.4f} C(delta=1e-4)={ratios[1]:.4f} "
        f"spread={spread:.2%}"))
