"""Quantities mirroring the model's estimate chains.

Per-record scalars: the energy ``E = |grad v|^2 + alpha^2 |d1 grad v|^2``
and dissipation ``D = nu (|lap v|^2 + alpha^2 |d1 lap v|^2)``, their
weighted counterparts, the anisotropic space norms, discrete budget
residuals and the advective CFL number.  Post-processing turns a recorded
series into one budget report; a streaming accumulator builds the
time-translation compactness modulus from states as they arrive;
:func:`prolong` lifts a field onto a nested finer grid; and random clamped
fields feed weighted Poincare audits.

Testing the evolution equation against ``v`` gives the exact balance
``dE/dt + 2 D = -2 (g, v)``, so the budget residual is formed with the
forcing power ``P = -(g, v)``, ``g`` taken at the record time whatever its
kind; the inequality form bounds ``dE/dt + D`` at each record by the
closed bound ``|g(t_n)|^2 / (nu lambda1^2)``, with ``g`` at the same time.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field

import numpy as np

from .operators import H2H_CHANNELS, OperatorSet
from .strip_grid import Field, Grid, quadrature, squared_quadrature
from .weights import WeightSpec, make_weight_field

__all__ = [
    "CSV_SCHEMA",
    "CSV_COLUMNS",
    "DiagnosticsRecord",
    "DiagnosticsSeries",
    "DiagnosticsCollector",
    "lambda1_estimate",
    "BudgetReport",
    "closed_bound",
    "energy_budget",
    "TranslationModulus",
    "StreamingTranslationModulus",
    "prolong",
    "PoincareReport",
    "poincare_check",
    "random_clamped_field",
]

# the time-series schema in file order: (CSV column, DiagnosticsRecord
# attribute, the config keys the column scales with besides the sizes of the
# initial condition and the forcing; the rest scale with those alone)
CSV_SCHEMA = (
    ("t", "t", ()), ("E", "energy", ("alpha",)), ("D", "dissipation", ("alpha", "nu")),
    ("E_w", "energy_w", ("alpha",)), ("D_w", "dissipation_w", ("alpha", "nu")),
    ("norm_l2", "norm_l2", ()), ("norm_h1h", "norm_h1h", ()),
    ("norm_h2h_gamma", "norm_h2h_gamma", ()), ("norm_h3h_gamma", "norm_h3h_gamma", ()),
    ("budget_residual", "budget_residual", ("alpha", "nu", "dt")),
    ("weighted_budget_residual", "weighted_budget_residual", ("alpha", "nu", "dt")),
    ("cfl", "cfl", ("dt",)),
)
CSV_COLUMNS = tuple(column for column, _, _ in CSV_SCHEMA)


@dataclass
class DiagnosticsRecord:
    t: float
    energy: float
    dissipation: float
    energy_w: float
    dissipation_w: float
    norm_l2: float
    norm_h1h: float
    norm_h2h_gamma: float
    norm_h3h_gamma: float
    budget_residual: float
    weighted_budget_residual: float
    cfl: float
    forcing_power: float = 0.0
    forcing_norm_sq: float = 0.0  # |g(t)|^2, which the closed bound reads

    def csv_values(self) -> tuple[float, ...]:
        return tuple(getattr(self, attr) for _, attr, _ in CSV_SCHEMA)


@dataclass
class DiagnosticsSeries:
    records: list[DiagnosticsRecord] = dc_field(default_factory=list)
    meta: dict = dc_field(default_factory=dict)

    def append(self, rec: DiagnosticsRecord):
        self.records.append(rec)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    def __len__(self) -> int:
        return len(self.records)


def lambda1_estimate(grid: Grid) -> float:
    """The discrete first Dirichlet eigenvalue of ``-d2^2`` on ``[-m, m]``
    (the k = 0 mode, ``(pi / (2 m))^2`` in the limit): the smallest
    eigenvalue of ``tridiag(-1, 2, -1) / dy^2`` on the ``ny - 2`` interior
    nodes, which is exactly ``(2 sin(pi / (2 (ny - 1))) / dy)^2``."""
    return (2.0 * math.sin(math.pi / (2 * (grid.ny - 1))) / grid.dy) ** 2


class DiagnosticsCollector:
    """Computes one :class:`DiagnosticsRecord` per call, with budget memory.

    Every quantity comes from the state's :meth:`OperatorSet.field_ladder`,
    built from its ``x1`` coefficients when :meth:`record` is given them,
    and one :func:`squared_quadrature` against the grid's ``node_weights``
    and those times ``weight``, the only weight data the collector keeps
    (``weight`` is the sampled array of :func:`make_weight_field`).  The
    ladder of a solver state is shared with other consumers, such as the
    streaming modulus, and is never squared in place.  ``g(t)`` returns
    the forcing's values at a time; the forcing power ``-(g, v)`` and
    ``|g|^2`` read it at the record time, so ``forcing_power``, both budget
    residuals and the closed bound hold for every forcing kind.
    """

    def __init__(self, ops: OperatorSet, nu: float, alpha: float,
                 weight: np.ndarray, g: Callable[[float], np.ndarray]):
        grid = ops.grid
        self.ops = ops
        self.nu = nu
        self.alpha = alpha
        self.g = g
        self.lambda1 = lambda1_estimate(grid)
        self._qw = grid.node_weights
        self._qw_phi = self._qw * weight
        self._prev: tuple[float, float, float] | None = None

    @np.errstate(over="ignore", invalid="ignore")
    def record(self, t: float, v: Field, cfl: float,
               coeffs: np.ndarray | None = None) -> DiagnosticsRecord:
        """The record of ``v`` at ``t``; ``coeffs``, the ``x1`` coefficients
        of ``v.values`` if the caller holds them, spare the ladder its
        forward transform."""
        a2 = self.alpha ** 2
        plain, weighted = squared_quadrature(self.ops.field_ladder(v, coeffs),
                                             self._qw, self._qw_phi).tolist()
        f, d1f, d2f, d1d1f, d1d2f, lap, d1lap = plain
        f_w, d1f_w, d2f_w, d1d1f_w, d1d2f_w, lap_w, d1lap_w = weighted

        energy = (d1f + d2f) + a2 * (d1d1f + d1d2f)
        dissipation = self.nu * (lap + a2 * d1lap)
        energy_w = (d1f_w + d2f_w) + a2 * (d1d1f_w + d1d2f_w)
        dissipation_w = self.nu * (lap_w + a2 * d1lap_w)
        h2h_w_sq = f_w + (d1f_w + d2f_w) + (d1d1f_w + d1d2f_w)

        g = self.g(t)
        g_sq = float(squared_quadrature(g[None], self._qw)[0, 0])
        sq = g * v.values
        power, power_w = -float(quadrature(sq, self._qw)), -float(quadrature(sq, self._qw_phi))
        residual = residual_w = 0.0
        if self._prev is not None:
            t0, e0, ew0 = self._prev
            dtr = t - t0
            if dtr > 0:
                residual = (energy - e0) / dtr + 2.0 * dissipation - 2.0 * power
                residual_w = (energy_w - ew0) / dtr + 2.0 * dissipation_w - 2.0 * power_w
        self._prev = (t, energy, energy_w)

        return DiagnosticsRecord(
            t=t, energy=energy, dissipation=dissipation,
            energy_w=energy_w, dissipation_w=dissipation_w,
            norm_l2=math.sqrt(f),
            norm_h1h=math.sqrt(f + d1f),
            norm_h2h_gamma=math.sqrt(h2h_w_sq),
            norm_h3h_gamma=math.sqrt(h2h_w_sq + d1lap_w),
            budget_residual=residual, weighted_budget_residual=residual_w,
            cfl=cfl, forcing_power=power, forcing_norm_sq=g_sq)


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BudgetReport:
    """The energy chain of a recorded trajectory, plain then weighted.

    ``max_energy_increase`` is the largest rise of ``E`` between two records
    and ``max_excess`` the largest excess of ``dE/dt + D`` over the closed
    bound ``|g(t_n)|^2 / (nu lambda1^2)`` at each record ``n``, each 0 when
    there is none; ``bound`` is the largest of those bounds.  The weighted
    energy's initial and supremal values and the time integral of ``D_w``
    close the chain.
    """

    max_energy_increase: float
    max_excess: float
    bound: float
    initial_energy_w: float
    sup_energy_w: float
    dissipation_w_integral: float


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def closed_bound(forcing_norm_sq, nu: float, lambda1: float) -> np.ndarray:
    """The closed bound ``|g|^2 / (nu lambda1^2)`` on ``dE/dt + D`` for
    each ``|g|^2``; not finite where it leaves the float range."""
    return np.asarray(forcing_norm_sq) / (np.float64(nu) * np.float64(lambda1) ** 2)


@np.errstate(over="ignore")  # a sum beyond the float range is inf
def energy_budget(series: DiagnosticsSeries) -> BudgetReport:
    """The run's budget, from its columns ``t``, ``E``, ``D``, ``E_w`` and
    ``D_w``, the records' ``forcing_norm_sq`` and ``meta`` (``nu``,
    ``lambda1``) alone."""
    t, e, d = series.column("t"), series.column("energy"), series.column("dissipation")
    e_w = series.column("energy_w")
    bounds = closed_bound(series.column("forcing_norm_sq"), series.meta["nu"],
                          series.meta["lambda1"])
    dedt = np.diff(e) / np.diff(t)
    return BudgetReport(
        max_energy_increase=float(np.diff(e).max(initial=0.0)),
        max_excess=float((dedt + d[1:] - bounds[1:]).max(initial=0.0)),
        bound=float(bounds.max()),
        initial_energy_w=float(e_w[0]), sup_energy_w=float(e_w.max()),
        dissipation_w_integral=float(np.trapezoid(series.column("dissipation_w"), t)))


# ---------------------------------------------------------------------------
# The translation modulus
# ---------------------------------------------------------------------------

# an add may miss the previous one's t + dt_record by this much of dt_record:
# a record time n dt is rounded by at most n dt 2^-53, below 1.2e-7 dt up to
# the solver's MAX_STEPS, while a skipped record misses by a whole dt_record
_CADENCE_RTOL = 1e-6


@dataclass
class TranslationModulus:
    """``M(k)`` table with its log-log slope and square-root envelope."""

    k_values: np.ndarray
    modulus: np.ndarray

    @property
    def slope(self) -> float:
        keep = self.modulus > 0
        if keep.sum() < 2:
            return float("nan")
        coef = np.polyfit(np.log(self.k_values[keep]), np.log(self.modulus[keep]), 1)
        return float(coef[0])

    def envelope_dominates(self) -> bool:
        """Largest-k calibrated ``C k^(1/2)`` envelope bounds every entry."""
        kmax = self.k_values[-1]
        env = self.modulus[-1] * np.sqrt(self.k_values / kmax)
        return bool(np.all(self.modulus <= env * (1.0 + 1e-12)))


class StreamingTranslationModulus:
    """Accumulates ``M(k)^2 = sum_n dt |v(t_n + k) - v(t_n)|^2`` on the fly.

    Records must arrive at a fixed cadence, ``dt_record`` apart, and an add
    off that cadence is refused; ``k_lags`` are lags in record units and the
    norm is the ``H^{2,h}`` norm weighted by ``weight``, the sampled weight
    array of :func:`make_weight_field`, and ``"h2h"`` is the one ``norm``
    accepts.  It is the one integral not in :func:`quadrature`: each
    record's channels are kept for the largest lag anyway, so they are kept
    premultiplied by ``sqrt(grid.node_weights * weight)`` and each lag pair
    costs one subtraction into a reused buffer and one dot product.  The
    channels come from :meth:`OperatorSet.field_ladder`, so a solver state
    the collector has recorded costs no second ladder.
    """

    def __init__(self, grid: Grid, ops: OperatorSet, k_lags: list[int],
                 dt_record: float, norm: str = "h2h", *, weight: np.ndarray):
        if norm != "h2h":
            raise ValueError(f"norm must be 'h2h', got {norm!r}")
        if any(l <= 0 for l in k_lags):
            raise ValueError("lags must be positive")
        self.k_lags = sorted(k_lags)
        self.dt_record = dt_record
        self.ops = ops
        self._root_w = np.sqrt(grid.node_weights * weight)
        self._buffer: deque[np.ndarray] = deque(maxlen=self.k_lags[-1] + 1)
        self._work = np.empty((H2H_CHANNELS,) + grid.shape)
        self._sums = {lag: 0.0 for lag in self.k_lags}
        self._t_last: float | None = None

    @np.errstate(over="ignore", invalid="ignore")  # a sum beyond the float range is inf
    def add(self, t: float, v: Field):
        """Add the record of ``v`` at ``t``, which must be the previous
        add's ``t + dt_record`` (to ``_CADENCE_RTOL`` of ``dt_record``)."""
        if self._t_last is not None:
            expected = self._t_last + self.dt_record
            if abs(t - expected) > _CADENCE_RTOL * self.dt_record:
                raise ValueError(
                    f"record at t = {t:.9g} is off the cadence: the previous one is at "
                    f"t = {self._t_last:.9g}, so this one must be at {expected:.9g}")
        self._t_last = t
        channels = self.ops.field_ladder(v)[:H2H_CHANNELS]
        if len(self._buffer) == self._buffer.maxlen:
            # no lag reaches the oldest record any more: reuse its array
            feats = np.multiply(channels, self._root_w, out=self._buffer.popleft())
        else:
            feats = channels * self._root_w
        self._buffer.append(feats)
        n = len(self._buffer)
        diff = self._work
        for lag in self.k_lags:
            if n > lag:
                np.subtract(feats, self._buffer[n - 1 - lag], out=diff)
                self._sums[lag] += self.dt_record * float(np.vdot(diff, diff).real)

    def result(self) -> TranslationModulus:
        k = np.array([lag * self.dt_record for lag in self.k_lags])
        m = np.array([math.sqrt(self._sums[lag]) for lag in self.k_lags])
        return TranslationModulus(k_values=k, modulus=m)


# ---------------------------------------------------------------------------
# Prolongation onto a nested grid
# ---------------------------------------------------------------------------

def prolong(f: Field, fine: Grid) -> Field:
    """Embed a coarse field: spectral padding in ``x1``, linear in ``x2``.

    Requires the nesting ``nx_f = 2 nx_c`` and ``ny_f = 2 ny_c - 1``.
    """
    coarse = f.grid
    if fine.nx != 2 * coarse.nx or fine.ny != 2 * coarse.ny - 1:
        raise ValueError(
            f"grids are not nested: {coarse.shape} -> {fine.shape}")
    c = np.fft.rfft(f.values, axis=0) * (fine.nx / coarse.nx)
    cf = np.zeros((fine.n_modes, coarse.ny), dtype=np.complex128)
    cf[:coarse.n_modes] = c
    cf[coarse.n_modes - 1] *= 0.5  # split the coarse Nyquist cosine
    vals_x = np.fft.irfft(cf, n=fine.nx, axis=0)
    out = np.empty((fine.nx, fine.ny))
    out[:, ::2] = vals_x
    out[:, 1::2] = 0.5 * (vals_x[:, :-1] + vals_x[:, 1:])
    return Field(fine, out, clamped=f.clamped)


# ---------------------------------------------------------------------------
# Poincare audit
# ---------------------------------------------------------------------------

def random_clamped_field(grid: Grid, rng: np.random.Generator) -> Field:
    """Random trig combination, ``x1`` modes 0 to 3 times ``1, z, z^2``, under
    a wall-flattening envelope."""
    x1, x2 = grid.mesh()
    z = x2 / grid.domain.m
    envelope = (1.0 - z ** 2) ** 2
    vals = np.zeros(grid.shape)
    for k in range(4):
        phase = 2.0 * np.pi * k * x1 / grid.domain.lx
        for j in range(3):
            a, b = rng.standard_normal(2)
            vals += (a * np.sin(phase) + b * np.cos(phase)) * z ** j * envelope
    return Field(grid, vals, clamped=True)


@dataclass
class PoincareReport:
    lambda1_error: float      # |lambda1 - (pi / (2 m))^2| / (pi / (2 m))^2
    worst_zero_order: float   # max |psi v| / |psi grad v|
    worst_first_order: float  # max |psi grad v| / |psi lap v|
    bound: float              # 2 / sqrt(lambda1), of both ratios
    samples: int

    @property
    def passed(self) -> bool:
        return self.worst_zero_order <= self.bound and self.worst_first_order <= self.bound


# a draw whose |psi v| is below this fraction of its largest value times the
# root of the total weight is degenerate: a bound that scales as |psi v| does
_DEGENERATE_RTOL = 1e-12
# draws per requested sample before the audit gives up
_DRAWS_PER_SAMPLE = 10


def poincare_check(sample_count: int, spec: WeightSpec, grid: Grid,
                   seed: int = 0) -> PoincareReport:
    """Audit both weighted Poincare inequalities over random clamped fields.

    Both bounds are ``2 / sqrt(lambda1)``, a length, as both ratios are.
    The strip inequality ``|v| <= lambda1^(-1/2) |d2 v|`` gives
    ``|v| <= lambda1^(-1/2) |grad v|`` and, through ``|grad v|^2 =
    -(v, lap v)``, ``|grad v| <= lambda1^(-1/2) |lap v|``; the factor 2 is
    the slack for the weight, whose derivatives ``|d psi| <= C eps psi``
    take less than half of ``lambda1^(1/2)`` at a small ``eps``.
    Degenerate draws are redrawn, up to ``_DRAWS_PER_SAMPLE`` draws per
    sample in all.  A ``lambda1``, weight total or ratio beyond the float
    range is a ``ValueError`` that names ``lx`` and ``m``.
    """
    domain = grid.domain
    out_of_range = ValueError(f"the Poincare audit leaves the float range at "
                              f"lx = {domain.lx:g}, m = {domain.m:g}")
    try:
        lam = lambda1_estimate(grid)
        analytic = (math.pi / (2.0 * domain.m)) ** 2
    except OverflowError:
        raise out_of_range from None
    with np.errstate(over="ignore", invalid="ignore"):
        qw_phi = grid.node_weights * make_weight_field(grid, spec)
        root_total = math.sqrt(qw_phi.sum())
    if not (0.0 < lam and 0.0 < analytic and 0.0 < root_total < math.inf):
        raise out_of_range
    ops = OperatorSet(grid)
    rng = np.random.default_rng(seed)
    worst0 = worst1 = 0.0
    n = 0
    for _ in range(_DRAWS_PER_SAMPLE * sample_count):
        if n == sample_count:
            break
        v = random_clamped_field(grid, rng)
        with np.errstate(over="ignore", invalid="ignore"):
            f, d1f, d2f, _, _, lap, _ = squared_quadrature(ops.ladder(v.values),
                                                           qw_phi)[0].tolist()
        nv = math.sqrt(f)
        if nv <= _DEGENERATE_RTOL * root_total * np.abs(v.values).max():
            continue  # rejected degenerate sample
        grad = math.sqrt(d1f + d2f)
        lap = math.sqrt(lap)
        if not all(0.0 < x < math.inf for x in (nv, grad, lap)):
            raise out_of_range
        worst0 = max(worst0, nv / grad)
        worst1 = max(worst1, grad / lap)
        n += 1
    if n < sample_count:
        raise ValueError(f"only {n} of {_DRAWS_PER_SAMPLE * sample_count} random fields "
                         f"were not degenerate at lx = {domain.lx:g}, m = {domain.m:g}")
    return PoincareReport(
        lambda1_error=abs(lam - analytic) / analytic,
        worst_zero_order=worst0, worst_first_order=worst1,
        bound=2.0 / math.sqrt(lam), samples=sample_count)
