"""Quantities mirroring the model's estimate chains.

Per-record scalars: the energy ``E = |grad v|^2 + alpha^2 |d1 grad v|^2``
and dissipation ``D = nu (|lap v|^2 + alpha^2 |d1 lap v|^2)``, their
weighted counterparts, the anisotropic space norms, discrete budget
residuals and the advective CFL number.  Post-processing turns a recorded
series into budget reports; a streaming accumulator builds the
time-translation compactness modulus from states as they arrive;
:func:`prolong` lifts a field onto a nested finer grid; and random clamped
fields feed weighted Poincare audits.

Testing the evolution equation against ``v`` gives the exact balance
``dE/dt + 2 D = -2 (g, v)``, so the budget residual is formed with the
forcing power ``P = -(g, v)``, ``g`` taken at the record time whatever its
kind; the inequality form replaces the power by the bound
``|g|^2 / (nu lambda1^2)``, which needs a time-independent forcing.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .operators import OperatorSet
from .strip_grid import Field, Grid, quadrature
from .weights import WeightField, WeightSpec, make_weight_field

__all__ = [
    "CSV_COLUMNS",
    "DiagnosticsRecord",
    "DiagnosticsSeries",
    "DiagnosticsCollector",
    "Lambda1Estimate",
    "lambda1_estimate",
    "BudgetReport",
    "energy_budget",
    "WeightedBudgetReport",
    "weighted_energy_budget",
    "TranslationModulus",
    "StreamingTranslationModulus",
    "prolong",
    "PoincareReport",
    "poincare_check",
    "random_clamped_field",
]

# the time-series schema: (CSV column, DiagnosticsRecord attribute) in file order
_CSV_SCHEMA = (
    ("t", "t"), ("E", "energy"), ("D", "dissipation"), ("E_w", "energy_w"),
    ("D_w", "dissipation_w"), ("norm_l2", "norm_l2"), ("norm_h1h", "norm_h1h"),
    ("norm_h2h_gamma", "norm_h2h_gamma"), ("norm_h3h_gamma", "norm_h3h_gamma"),
    ("budget_residual", "budget_residual"),
    ("weighted_budget_residual", "weighted_budget_residual"), ("cfl", "cfl"),
)
CSV_COLUMNS = tuple(column for column, _ in _CSV_SCHEMA)


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

    def csv_values(self) -> tuple[float, ...]:
        return tuple(getattr(self, attr) for _, attr in _CSV_SCHEMA)


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


@dataclass(frozen=True)
class Lambda1Estimate:
    """First Dirichlet eigenvalue of ``-d2^2`` on ``[-m, m]`` (k = 0 mode)."""

    value: float
    analytic: float

    @property
    def relative_error(self) -> float:
        return abs(self.value - self.analytic) / self.analytic


def lambda1_estimate(grid: Grid) -> Lambda1Estimate:
    ny, dy, m = grid.ny, grid.dy, grid.domain.m
    n = ny - 2
    diag_main = np.full(n, 2.0 / dy ** 2)
    diag_off = np.full(n - 1, -1.0 / dy ** 2)
    lam = eigvalsh_tridiagonal(diag_main, diag_off, select="i", select_range=(0, 0))
    return Lambda1Estimate(value=float(lam[0]), analytic=(np.pi / (2.0 * m)) ** 2)


class DiagnosticsCollector:
    """Computes one :class:`DiagnosticsRecord` per call, with budget memory.

    Every quantity comes from the state's :meth:`OperatorSet.field_ladder`
    and two quadratures per channel.  The ladder of a solver state is shared
    with other consumers, such as the streaming modulus, so each channel is
    squared into a one-field buffer the collector owns.  ``g(t)`` returns
    the forcing's values at a time; the forcing power ``-(g, v)`` reads it
    at the record time, so ``forcing_power`` and both budget residuals hold
    for every forcing kind.
    """

    def __init__(self, grid: Grid, ops: OperatorSet, nu: float, alpha: float,
                 weight: WeightField, g: Callable[[float], np.ndarray]):
        self.ops = ops
        self.nu = nu
        self.alpha = alpha
        self.g = g
        self.lambda1 = lambda1_estimate(grid).value
        self._qw = grid.dx * grid.quad_weights
        self._qw_phi = self._qw * weight.phi
        self._prev: tuple[float, float, float] | None = None
        self._sq = np.empty(grid.shape)

    @np.errstate(over="ignore", invalid="ignore")
    def record(self, t: float, v: Field, cfl: float) -> DiagnosticsRecord:
        a2 = self.alpha ** 2
        sq = self._sq
        plain, weighted = [], []
        for channel in self.ops.field_ladder(v):
            np.multiply(channel, channel, out=sq)
            plain.append(float(quadrature(sq, self._qw)))
            weighted.append(float(quadrature(sq, self._qw_phi)))
        f, d1f, d2f, d1d1f, d1d2f, lap, d1lap = plain
        f_w, d1f_w, d2f_w, d1d1f_w, d1d2f_w, lap_w, d1lap_w = weighted

        energy = (d1f + d2f) + a2 * (d1d1f + d1d2f)
        dissipation = self.nu * (lap + a2 * d1lap)
        energy_w = (d1f_w + d2f_w) + a2 * (d1d1f_w + d1d2f_w)
        dissipation_w = self.nu * (lap_w + a2 * d1lap_w)
        h2h_w_sq = f_w + (d1f_w + d2f_w) + (d1d1f_w + d1d2f_w)

        gv = self.g(t) * v.values
        power = -float(quadrature(gv, self._qw))
        power_w = -float(quadrature(gv, self._qw_phi))
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
            cfl=cfl, forcing_power=power)


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------

@dataclass
class BudgetReport:
    """Discrete energy balance along a recorded trajectory.

    ``residuals[n] = (E_n - E_{n-1}) / dt + 2 D_n - 2 P_n`` should be
    nonpositive up to discretization error for the dissipative schemes;
    ``excess_over_bound`` measures violation of the closed inequality
    ``dE/dt + D <= |g|^2 / (nu lambda1^2)``.
    """

    times: np.ndarray
    residuals: np.ndarray
    excess_over_bound: np.ndarray
    bound: float
    energy_increases: np.ndarray

    @property
    def max_excess(self) -> float:
        return float(max(self.excess_over_bound.max(initial=0.0), 0.0))

    @property
    def max_energy_increase(self) -> float:
        return float(max(self.energy_increases.max(initial=0.0), 0.0))


def energy_budget(series: DiagnosticsSeries) -> BudgetReport:
    t = series.column("t")
    e = series.column("energy")
    d = series.column("dissipation")
    nu = series.meta["nu"]
    lam = series.meta["lambda1"]
    g_norm = series.meta["g_norm"]
    bound = g_norm ** 2 / (nu * lam ** 2)
    dedt = np.diff(e) / np.diff(t)
    excess = np.maximum(dedt + d[1:] - bound, 0.0)
    return BudgetReport(times=t[1:], residuals=series.column("budget_residual")[1:],
                        excess_over_bound=excess, bound=bound,
                        energy_increases=np.maximum(np.diff(e), 0.0))


@dataclass
class WeightedBudgetReport:
    """Boundedness summary of the weighted energy along a trajectory."""

    times: np.ndarray
    energy_w: np.ndarray
    dissipation_w: np.ndarray
    residuals_w: np.ndarray

    @property
    def sup_energy(self) -> float:
        return float(self.energy_w.max())

    @property
    def initial_energy(self) -> float:
        return float(self.energy_w[0])

    @property
    def dissipation_integral(self) -> float:
        return float(np.trapezoid(self.dissipation_w, self.times))


def weighted_energy_budget(series: DiagnosticsSeries) -> WeightedBudgetReport:
    return WeightedBudgetReport(
        times=series.column("t"),
        energy_w=series.column("energy_w"),
        dissipation_w=series.column("dissipation_w"),
        residuals_w=series.column("weighted_budget_residual")[1:])


# ---------------------------------------------------------------------------
# The translation modulus
# ---------------------------------------------------------------------------

# the leading ladder channels f, d1 f, d2 f, d1 d1 f, d1 d2 f: their squared
# sum is the H^{2,h} norm squared
_H2H_CHANNELS = 5


def _psi_sqrt_quad(grid: Grid, weight: WeightField | None) -> np.ndarray:
    q = np.sqrt(grid.dx * grid.quad_weights)[None, :]
    return q if weight is None else weight.psi * q


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

    Records must arrive at a fixed cadence; ``k_lags`` are lags in record
    units and the norm is the (weighted) ``H^{2,h}`` norm, the one ``norm``
    accepts.  Each record's channels, premultiplied by ``psi * sqrt(dx *
    quad_weights)``, are kept for the largest lag, so each pair costs one
    subtraction into a reused buffer and one dot product.  The channels are
    read from :meth:`OperatorSet.field_ladder`, so a solver state that the
    collector has recorded costs no second ladder.
    """

    def __init__(self, grid: Grid, ops: OperatorSet, k_lags: list[int],
                 dt_record: float, norm: str = "h2h",
                 weight: WeightField | None = None):
        if norm != "h2h":
            raise ValueError(f"norm must be 'h2h', got {norm!r}")
        if any(l <= 0 for l in k_lags):
            raise ValueError("lags must be positive")
        self.k_lags = sorted(k_lags)
        self.dt_record = dt_record
        self.ops = ops
        self._psi_q = _psi_sqrt_quad(grid, weight)
        self._buffer: deque[np.ndarray] = deque(maxlen=self.k_lags[-1] + 1)
        self._work = np.empty((_H2H_CHANNELS,) + grid.shape)
        self._sums = {lag: 0.0 for lag in self.k_lags}

    def add(self, t: float, v: Field):
        """Add the record of ``v``; ``t`` is unused, records keep a fixed cadence."""
        channels = self.ops.field_ladder(v)[:_H2H_CHANNELS]
        if len(self._buffer) == self._buffer.maxlen:
            # no lag reaches the oldest record any more: reuse its array
            feats = np.multiply(channels, self._psi_q, out=self._buffer.popleft())
        else:
            feats = channels * self._psi_q
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
    lambda1: Lambda1Estimate
    worst_zero_order: float   # max |psi v| / |psi grad v|
    worst_first_order: float  # max |psi grad v| / |psi lap v|
    bound_zero_order: float
    bound_first_order: float
    samples: int

    @property
    def passed(self) -> bool:
        return (self.worst_zero_order <= self.bound_zero_order
                and self.worst_first_order <= self.bound_first_order)


def poincare_check(sample_count: int, spec: WeightSpec, grid: Grid,
                   seed: int = 0) -> PoincareReport:
    """Audit both weighted Poincare inequalities over random clamped fields."""
    lam = lambda1_estimate(grid)
    qw_phi = grid.dx * grid.quad_weights * make_weight_field(grid, spec).phi
    ops = OperatorSet(grid)
    rng = np.random.default_rng(seed)
    worst0 = worst1 = 0.0
    n = 0
    while n < sample_count:
        v = random_clamped_field(grid, rng)
        sq = ops.ladder(v.values)
        f, d1f, d2f, _, _, lap, _ = quadrature(sq * sq, qw_phi).tolist()
        nv = math.sqrt(f)
        if nv < 1e-12:
            continue  # rejected degenerate sample
        grad = math.sqrt(d1f + d2f)
        lap = math.sqrt(lap)
        worst0 = max(worst0, nv / grad)
        worst1 = max(worst1, grad / lap)
        n += 1
    return PoincareReport(
        lambda1=lam, worst_zero_order=worst0, worst_first_order=worst1,
        bound_zero_order=2.0 / lam.value,
        bound_first_order=2.0 / math.sqrt(lam.value),
        samples=sample_count)
