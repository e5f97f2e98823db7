"""Property suites behind ``verify`` and the acceptance tests.

Each suite runs named checks (measured value against a bound) and returns a
report; the command-line runner prints one line per check and exits nonzero
if any fails.  The studies here own their field constructions and frozen
parameters so the test suite and the CLI measure exactly the same things.
Each suite reads only part of the config: ``operators`` and ``alpha_sweep``
``nx`` and ``ny`` (``alpha_sweep`` notes the distance at each alpha);
``weights`` ``epsilon``, ``m`` and ``gamma`` (it certifies the strip, the box
of half-width ``epsilon m`` in ``y = epsilon x``); ``poincare`` the
grid, ``rho``, ``gamma``, ``seed`` and ``epsilon`` (capped at 0.05); ``mms``
only ``scheme``; ``budget`` and ``compactness`` the whole solver config,
though ``compactness`` observes the states of even step index whatever the
cadence, so the final state of an odd step count is left out, records none
and refuses a run too short for its largest lag.  ``budget`` accepts every
forcing kind: the closed bound is read at each record time.

Every study that steps runs through :meth:`ImexStepper.states`; the refinement
study steps nothing: it reads one given trajectory per resolution, side by side.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .diagnostics import (CADENCE_RTOL, StreamingTranslationModulus, check_cadence,
                          energy_budget, poincare_check, prolong, random_clamped_field)
from .operators import H1_CHANNELS, H2H_CHANNELS, OperatorSet, trilinear_relative
from .runio import RunSettings
from .solver import (MAX_STEPS, BlowUpError, FieldSpec, ImexStepper, SolverConfig,
                     SolverState, run, scale_keys)
from .strip_grid import Field, Grid, StripDomain, l2_norm, make_grid, squared_quadrature
from .weights import (GAMMA_THRESHOLD, WeightSpec, certify_lemma_wfuncs,
                      certify_phi_control, lemma_beta_set, make_weight_field)

__all__ = [
    "CheckResult", "SuiteReport", "SUITE_NAMES", "run_suite",
    "identity_test_fields", "operator_identity_study", "fit_order",
    "mms_spatial_study", "mms_temporal_study", "decay_config",
    "alpha_sweep_study", "RefinementStudy", "galerkin_refinement_study",
    "continuous_dependence_study", "weight_rho_stability", "compare_nse",
]

# Bounds shared by the suites and the acceptance criteria.
IDENTITY_DEFECT_BOUND = 1e-3  # pointwise-form r1, r2 at the base resolution
IDENTITY_ORDER_MIN = 1.8  # fitted x2 order of the pointwise-form r1, r2
TELESCOPING_BOUND = 1e-12  # conservative-form r1, r2
FIRST_ORDER_WINDOW = (0.7, 1.3)  # fitted MMS orders, imex_euler in time
SECOND_ORDER_WINDOW = (1.7, 2.3)  # fitted MMS orders, space and imex_cnab2
ENERGY_INCREASE_BOUND = 1e-8  # unforced per-record energy increase, times E(0)
HALVING_FACTOR, HALVING_FLOOR = 0.5, 1e-16  # after dt halving: factor x coarse + floor x E(0)
RHO_RATIO_BOUND = 2.0  # lemma constants at rho = 100 over rho = 1, gamma <= 2/3
GAMMA_GROWTH_MIN = 3.0  # the same ratio of the largest strong-form constants, gamma > 2/3
FIRST_DERIVATIVE_CONSTANT = 3.0  # limit weight: |d1 phi| <= C eps psi
MODULUS_SLOPE_MIN = 0.5  # log-log slope of the translation modulus
LAMBDA1_ERROR_BOUND = 0.01  # relative error of the discrete lambda1
ALPHA_SLOPE_WINDOW = (1.5, 2.5)  # log-log slope of the alpha sweep's distances
DEPENDENCE_SPREAD_BOUND = 0.2  # relative spread of continuous-dependence ratios


@dataclass
class CheckResult:
    name: str
    measured: float
    bound: float
    comparison: str = "<="
    note: str = ""

    @property
    def passed(self) -> bool:
        if self.comparison == "<=":
            return self.measured <= self.bound
        return self.measured >= self.bound

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        out = (f"[{mark}] {self.name}: measured {self.measured:.6g} "
               f"{self.comparison} {self.bound:.6g}")
        if self.note:
            out += f"  ({self.note})"
        return out


@dataclass
class SuiteReport:
    suite: str
    results: list[CheckResult] = dc_field(default_factory=list)

    def add(self, *args, **kwargs) -> CheckResult:
        res = CheckResult(*args, **kwargs)
        self.results.append(res)
        return res

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def format(self) -> str:
        lines = [f"suite {self.suite}:"]
        lines.extend("  " + r.line() for r in self.results)
        lines.append(f"  => {'ALL CHECKS PASSED' if self.passed else 'FAILURES PRESENT'}")
        return "\n".join(lines)


def fit_order(h_values, errors) -> float:
    """Least-squares slope of ``log err`` against ``log h``."""
    return float(np.polyfit(np.log(np.asarray(h_values, dtype=float)),
                            np.log(np.asarray(errors, dtype=float)), 1)[0])


# ---------------------------------------------------------------------------
# Operator identity study
# ---------------------------------------------------------------------------

def identity_test_fields(grid: Grid):
    """Smooth clamped triple with mixed phases in both directions.

    The phases matter: with phase-pure components the quadratic pairings
    fall into orthogonal trigonometric families and the pointwise-form
    defect vanishes identically instead of at second order.
    """
    x1, x2 = grid.mesh()
    z = x2 / grid.domain.m
    env = (1.0 - z ** 2) ** 2
    u = Field(grid, (np.sin(x1 + 0.3) * np.sin(3.1 * z + 0.4)
                     + 0.6 * np.cos(2 * x1 - 0.8) * np.cos(2.3 * z)) * np.ones_like(x1))
    v = Field(grid, (np.cos(2 * x1 + 0.5) * np.sin(2.7 * z + 0.2)
                     + 0.5 * np.sin(x1 - 0.9) * np.exp(-0.6 * z)) * env, clamped=True)
    w = Field(grid, (np.sin(x1 + 0.7) * np.exp(0.5 * z)
                     + 0.4 * np.cos(x1 + 1.3) * np.sin(2.3 * z)) * env, clamped=True)
    return u, v, w


@dataclass
class OperatorIdentityStudy:
    ny_values: list[int]
    r1_pointwise: list[float]
    r2_pointwise: list[float]
    r1_conservative: float
    r2_conservative: float

    @property
    def order_r1(self) -> float:
        h = [1.0 / (ny - 1) for ny in self.ny_values]
        return fit_order(h, self.r1_pointwise)

    @property
    def order_r2(self) -> float:
        h = [1.0 / (ny - 1) for ny in self.ny_values]
        return fit_order(h, self.r2_pointwise)


def operator_identity_study(nx: int = 128, ny: int = 129) -> OperatorIdentityStudy:
    """Skew-symmetry defects under two ``x2`` doublings.

    The pointwise form carries the measurable second-order defect; the
    conservative form telescopes exactly (wall-vanishing tangential
    derivatives plus spectral summation by parts), so its residuals are
    reported once at the base resolution and should sit at rounding level.
    """
    domain = StripDomain(2.0 * np.pi, 1.0)
    ny_values = [(ny - 1) * 2 ** j + 1 for j in range(3)]
    r1s, r2s = [], []
    for j, ny_j in enumerate(ny_values):
        grid = make_grid(domain, nx, ny_j)
        ops = OperatorSet(grid)
        u, v, w = identity_test_fields(grid)
        r1, r2 = trilinear_relative(ops.bilinear_B(u, v), ops.bilinear_B(u, w), v, w)
        r1s.append(r1)
        r2s.append(r2)
        if j == 0:
            cons = trilinear_relative(ops.bilinear_B_conservative(u, v),
                                      ops.bilinear_B_conservative(u, w), v, w)
    return OperatorIdentityStudy(ny_values=ny_values, r1_pointwise=r1s,
                                 r2_pointwise=r2s, r1_conservative=cons[0],
                                 r2_conservative=cons[1])


# ---------------------------------------------------------------------------
# Manufactured-solution convergence studies
# ---------------------------------------------------------------------------

def _final_state(stepper: ImexStepper, state: SolverState | None = None) -> SolverState:
    """The state at ``t_end`` from ``state`` (the config's initial state by
    default): the last one :meth:`ImexStepper.states` yields, bitwise the
    one :func:`run` returns at any record cadence."""
    *_, final = stepper.states(MAX_STEPS, state)
    return final


def _mms_config(scheme: str, nx: int, ny: int, dt: float, t_end: float) -> SolverConfig:
    """The manufactured problem both MMS studies solve: ``two_mode`` at
    ``nu = 0.05``, ``alpha = 0.4``."""
    spec = FieldSpec(kind="mms", reference="two_mode")
    return SolverConfig(nx=nx, ny=ny, dt=dt, t_end=t_end, nu=0.05, alpha=0.4,
                        scheme=scheme, forcing=spec, ic=spec)


@functools.cache  # frozen, so one process computes it once
def mms_spatial_study():
    """Final-time ``imex_cnab2`` error against the closed-form solution under
    ``x2`` refinement, ``ny`` = 33, 65, 129 at ``nx = 32``: ``(errors, order)``."""
    from .mms import solution_field  # a run that needs no mms never loads it

    ny_values = (33, 65, 129)
    errors = []
    for ny in ny_values:
        cfg = _mms_config("imex_cnab2", 32, ny, 2e-4, 0.25)
        state = _final_state(ImexStepper(cfg))
        exact = solution_field(cfg.ic.reference, state.v.grid, state.t)
        errors.append(l2_norm(Field(state.v.grid, state.v.values - exact.values)))
    h = [1.0 / (ny - 1) for ny in ny_values]
    return tuple(errors), fit_order(h, errors)


@functools.cache  # frozen but for the scheme
def mms_temporal_study(scheme: str):
    """Error against a small-step reference on the same grid: ``(errors, order)``.

    Measuring against the same-grid reference isolates the time-integration
    error from the fixed spatial discretization floor, which would otherwise
    contaminate the fitted order.
    """
    ref_cfg = _mms_config("imex_cnab2", 16, 33, 2.5e-4, 0.48)
    ref_state = _final_state(ImexStepper(ref_cfg))
    dts = (8e-3, 4e-3, 2e-3)
    errors = []
    for dt in dts:
        state = _final_state(ImexStepper(_mms_config(scheme, 16, 33, dt, 0.48)))
        errors.append(l2_norm(Field(state.v.grid,
                                    state.v.values - ref_state.v.values)))
    return tuple(errors), fit_order(dts, errors)


# ---------------------------------------------------------------------------
# Decay, weighted bounds, compactness
# ---------------------------------------------------------------------------

def decay_config(nx: int = 128, ny: int = 129, record_every: int = 1) -> SolverConfig:
    """Unforced clamped-trig run used by the decay and compactness checks,
    at ``nu = 0.01``, ``alpha = 0.5``, ``dt = 1e-3`` to ``t_end = 5`` with
    the default weight; ``configs/baseline.cfg`` holds it at its defaults."""
    return SolverConfig(
        nx=nx, ny=ny, dt=1e-3, t_end=5.0, nu=0.01, alpha=0.5,
        scheme="imex_euler", record_every=record_every,
        ic=FieldSpec(kind="trig_clamped", amplitude=1.0, k1=1, k2=0))


def alpha_sweep_study(alphas=(0.4, 0.2, 0.1, 0.05), nx: int = 64, ny: int = 65):
    """Distance at ``t = 1`` between filtered runs and the unfiltered one,
    at ``dt = 2e-3``, ``nu = 0.02``."""
    cfg = SolverConfig(
        nx=nx, ny=ny, dt=2e-3, t_end=1.0, nu=0.02,
        ic=FieldSpec(kind="trig_clamped", amplitude=1.0, k1=1, k2=0),
        forcing=FieldSpec(kind="trig_clamped", amplitude=0.5, k1=2, k2=1))
    diffs, slope = compare_nse(cfg, alphas)
    return list(alphas), diffs, slope


def compare_nse(cfg: SolverConfig, alphas):
    """Per-alpha distances from the ``alpha = 0`` run of the same config, and
    their log-log slope over the pairs with ``alpha > 0`` and a positive
    distance (NaN with fewer than two)."""
    state0 = _final_state(ImexStepper(replace(cfg, alpha=0.0)))
    diffs = []
    for a in alphas:
        state = _final_state(ImexStepper(replace(cfg, alpha=float(a))))
        with np.errstate(over="ignore"):
            dist = l2_norm(Field(state.v.grid, state.v.values - state0.v.values))
        if math.isinf(dist):
            # as in run, a stepped state whose norm leaves the float range has blown up
            raise BlowUpError(state.t, state.step_index)
        diffs.append(dist)
    # a run that never separates from alpha = 0 has no place on a log-log fit
    pairs = [(a, d) for a, d in zip(alphas, diffs) if a > 0 and d > 0]
    slope = fit_order(*zip(*pairs)) if len(pairs) >= 2 else float("nan")
    return diffs, slope


@dataclass
class RefinementStudy:
    deltas: list[float]

    @property
    def monotone(self) -> bool:
        return all(b < a for a, b in zip(self.deltas, self.deltas[1:]))


def galerkin_refinement_study(legs, dt_record: float, tau: float = 0.0) -> RefinementStudy:
    """``L^2(tau, T; H^{2,h})`` distances between consecutive resolutions.

    ``legs`` holds one trajectory per resolution, coarse to fine, on nested
    grids (``2 nx``, ``2 ny - 1``): ``(t, field)`` records ``dt_record``
    apart, at the same times in every leg.  The legs advance side by side, so
    :meth:`ImexStepper.states` legs hold no field past its record.  From
    ``tau`` on, each record adds each pair's squared distance times ``dt_record``.
    """
    legs = list(legs)
    if len(legs) < 2:
        raise ValueError("need at least two resolutions")
    ops = functools.cache(OperatorSet)  # one per fine grid
    sums, t_last = [0.0] * (len(legs) - 1), None
    for records in zip(*legs, strict=True):
        t_last = check_cadence(t_last, records[0][0], dt_record)
        for j, ((t_coarse, coarse), (t_fine, fine)) in enumerate(zip(records, records[1:])):
            if abs(t_fine - t_coarse) > CADENCE_RTOL * dt_record:
                raise ValueError(f"the legs are out of step: a record at t = {t_coarse:.9g} "
                                 f"meets a finer one at t = {t_fine:.9g}")
            if t_last < tau - 1e-12:
                continue
            diff = prolong(coarse, fine.grid).values - fine.values
            ch = ops(fine.grid).ladder(diff)[:H2H_CHANNELS]
            sums[j] += dt_record * float(squared_quadrature(ch, fine.grid.node_weights).sum())
    return RefinementStudy(deltas=[math.sqrt(total) for total in sums])


def continuous_dependence_study():
    """Separation-to-perturbation ratios in the H1 norm at the final time.

    The base state and its perturbations of H1 size 1e-3 and 1e-4, along one
    random clamped direction, advance with one stepper.
    """
    cfg = SolverConfig(nx=64, ny=65, dt=2e-3, t_end=1.0, nu=0.02, alpha=0.3,
                       ic=FieldSpec(kind="trig_clamped", amplitude=1.0, k1=1, k2=0))
    stepper = ImexStepper(cfg)
    grid, ops = stepper.grid, stepper.ops

    def h1_norm(values: np.ndarray) -> float:
        return math.sqrt(squared_quadrature(ops.ladder(values)[:H1_CHANNELS],
                                            grid.node_weights).sum())

    start = stepper.initial_state()
    base = _final_state(stepper, start)
    pert = random_clamped_field(grid, np.random.default_rng(11))
    direction = pert.values / h1_norm(pert.values)

    deltas = [1e-3, 1e-4]
    ratios = []
    for delta in deltas:
        perturbed = Field(grid, start.v.values + delta * direction, clamped=True)
        final = _final_state(stepper, stepper.initial_state(perturbed))
        ratios.append(h1_norm(final.v.values - base.v.values) / delta)
    return deltas, ratios


def weight_rho_stability(epsilon: float = 0.1, m: float = 1.0, gamma: float = GAMMA_THRESHOLD,
                         rhos=(1.0, 10.0, 100.0)):
    """Empirical lemma constants per multi-index across cutoff radii, for any
    gamma, on the strip of half-width ``m``.  The largest radius, whose
    lattice is the largest, goes first: a box it cannot take fails at once."""
    specs = (WeightSpec(epsilon=epsilon, rho=float(rho), gamma=gamma)
             for rho in sorted(rhos, reverse=True))
    return {spec.rho: certify_lemma_wfuncs(spec, m) for spec in specs}


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _suite_operators(settings: RunSettings) -> SuiteReport:
    cfg = settings.solver
    rep = SuiteReport("operators")
    study = operator_identity_study(nx=cfg.nx, ny=cfg.ny)
    rep.add("pointwise r1 at base resolution", study.r1_pointwise[0], IDENTITY_DEFECT_BOUND)
    rep.add("pointwise r2 at base resolution", study.r2_pointwise[0], IDENTITY_DEFECT_BOUND)
    rep.add("fitted order of r1", study.order_r1, IDENTITY_ORDER_MIN, comparison=">=")
    rep.add("fitted order of r2", study.order_r2, IDENTITY_ORDER_MIN, comparison=">=")
    rep.add("conservative r1 (exact telescoping)", study.r1_conservative, TELESCOPING_BOUND)
    rep.add("conservative r2 (exact telescoping)", study.r2_conservative, TELESCOPING_BOUND)
    return rep


def _suite_weights(settings: RunSettings) -> SuiteReport:
    spec, m = settings.solver.weight, settings.solver.m
    rep = SuiteReport("weights")
    reports = weight_rho_stability(epsilon=spec.epsilon, m=m, gamma=spec.gamma)

    def constants(name, value):  # the note: the constant at each radius
        return f"{name} " + ", ".join(f"rho {rho:g}: {value(r):.4f}"
                                      for rho, r in sorted(reports.items()))

    @np.errstate(divide="ignore", invalid="ignore")
    def ratio(value):  # rho 100 over rho 1: inf, or nan, where rho 1's is 0
        return float(np.float64(value(reports[100.0])) / value(reports[1.0]))

    if spec.gamma <= GAMMA_THRESHOLD + 1e-12:
        for beta in lemma_beta_set():
            rep.add(f"strong-form rho ratio, beta={beta}",
                    ratio(lambda r: r.c_strong[beta]), RHO_RATIO_BOUND,
                    note=constants("C_s", lambda r: r.c_strong[beta]))
        for beta in lemma_beta_set():
            rep.add(f"weak-form rho ratio, beta={beta}",
                    ratio(lambda r: r.c_weak[beta]), RHO_RATIO_BOUND,
                    note=constants("C_w", lambda r: r.c_weak[beta]))
        limit = certify_phi_control(spec, m, 40.0, betas=[(1, 0)])
        rep.add("limit-weight first-derivative constant",
                limit.c_strong[(1, 0)], FIRST_DERIVATIVE_CONSTANT)
    else:
        rep.add("aggregate growth above the exponent threshold",
                ratio(lambda r: r.aggregate_strong), GAMMA_GROWTH_MIN,
                comparison=">=", note="growth expected for gamma > 2/3; "
                + constants("max C_s", lambda r: r.aggregate_strong))
    return rep


def _suite_poincare(settings: RunSettings) -> SuiteReport:
    cfg = settings.solver
    rep = SuiteReport("poincare")
    grid = cfg.grid()
    spec = replace(cfg.weight, epsilon=min(cfg.weight.epsilon, 0.05))
    audit = poincare_check(100, spec, grid, seed=settings.seed)
    rep.add("lambda1 relative error vs analytic",
            audit.lambda1_error, LAMBDA1_ERROR_BOUND)
    rep.add("|psi v| / |psi grad v| worst case", audit.worst_zero_order, audit.bound)
    rep.add("|psi grad v| / |psi lap v| worst case", audit.worst_first_order, audit.bound)
    return rep


def _suite_budget(settings: RunSettings) -> SuiteReport:
    cfg = settings.solver
    rep = SuiteReport("budget")
    _, series = run(cfg)
    budget = energy_budget(series)
    e0 = series.records[0].energy
    if settings.solver.forcing.kind == "zero" and e0 > 0:
        rep.add("max per-record energy increase", budget.max_energy_increase,
                ENERGY_INCREASE_BOUND * e0)
        half = replace(cfg, dt=cfg.dt / 2.0,
                       t_end=min(cfg.t_end, 256 * cfg.dt))
        short = replace(cfg, t_end=half.t_end)
        b_short = energy_budget(run(short)[1])
        b_half = energy_budget(run(half)[1])
        rep.add("energy increase after dt halving",
                b_half.max_energy_increase,
                HALVING_FACTOR * b_short.max_energy_increase + HALVING_FLOOR * e0)
    rep.add("max excess over the closed dissipation bound", budget.max_excess,
            1e-8 * max(e0, 1.0))
    return rep


def _suite_compactness(settings: RunSettings) -> SuiteReport:
    cfg = settings.solver
    lags = [2 ** j for j in range(6)]
    if cfg.n_steps < 2 * lags[-1]:  # a lag of k records of 2 dt first pairs at step 2 k
        raise ValueError(f"the compactness suite needs t_end >= {2 * lags[-1]} dt to reach its "
                         f"largest lag; t_end = {cfg.t_end:g}, dt = {cfg.dt:g}")
    rep = SuiteReport("compactness")
    stepper = ImexStepper(cfg)
    acc = StreamingTranslationModulus(
        stepper.grid, stepper.ops, lags, dt_record=2 * cfg.dt,
        weight=make_weight_field(stepper.grid, cfg.weight))
    for state in stepper.states(2):
        # the final state of an odd step count is one step after the last
        # yielded one, not two: it would break the cadence
        if state.step_index % 2 == 0:
            acc.add(state.t, state.v)
    mod = acc.result()
    if not np.all(np.isfinite(mod.modulus)):
        raise ValueError(f"the translation modulus is out of range; it scales with "
                         f"{scale_keys(cfg, ('dt', 'lx', 'm'))}")
    if not mod.modulus.any():
        raise ValueError("the translation modulus is zero at every lag: the trajectory "
                         "never moves, so it has no slope")
    rep.add("translation modulus log-log slope", mod.slope, MODULUS_SLOPE_MIN, comparison=">=")
    rep.add("sqrt-envelope dominates", float(mod.envelope_dominates()), 1.0,
            comparison=">=")
    return rep


def _suite_mms(settings: RunSettings) -> SuiteReport:
    cfg = settings.solver
    rep = SuiteReport("mms")
    _errs, spatial = mms_spatial_study()
    rep.add("spatial order (imex_cnab2)", spatial, SECOND_ORDER_WINDOW[0], comparison=">=")
    rep.add("spatial order upper window", spatial, SECOND_ORDER_WINDOW[1])
    _errs, temporal = mms_temporal_study(cfg.scheme)
    lo, hi = FIRST_ORDER_WINDOW if cfg.scheme == "imex_euler" else SECOND_ORDER_WINDOW
    rep.add(f"temporal order ({cfg.scheme})", temporal, lo, comparison=">=")
    rep.add("temporal order upper window", temporal, hi)
    return rep


def _suite_alpha_sweep(settings: RunSettings) -> SuiteReport:
    cfg = settings.solver
    rep = SuiteReport("alpha_sweep")
    alphas, diffs, slope = alpha_sweep_study(nx=cfg.nx, ny=cfg.ny)
    monotone = all(b < a for a, b in zip(diffs, diffs[1:]))
    rep.add("differences decrease with alpha", float(monotone), 1.0,
            comparison=">=",
            note=", ".join(f"alpha {a:g}: {d:.6e}" for a, d in zip(alphas, diffs)))
    rep.add("log-log slope lower window", slope, ALPHA_SLOPE_WINDOW[0], comparison=">=")
    rep.add("log-log slope upper window", slope, ALPHA_SLOPE_WINDOW[1])
    return rep


SUITES = {
    "operators": _suite_operators,
    "weights": _suite_weights,
    "poincare": _suite_poincare,
    "budget": _suite_budget,
    "compactness": _suite_compactness,
    "mms": _suite_mms,
    "alpha_sweep": _suite_alpha_sweep,
}
SUITE_NAMES = tuple(sorted(SUITES))


def run_suite(name: str, settings: RunSettings) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {SUITE_NAMES}")
    return SUITES[name](settings)
