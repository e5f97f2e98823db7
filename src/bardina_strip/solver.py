"""IMEX time integration of the horizontally filtered model on the strip.

The evolution solved here, written for the stream function ``v``, is

    (1 - alpha^2 d1^2) lap v_t + B(v, v) - nu (1 - alpha^2 d1^2) lap^2 v = g

with clamped walls (``v = d2 v = 0``) and ``x1``-periodicity; ``alpha = 0``
recovers the unfiltered stream-function vorticity equation.  Per Fourier
mode ``k`` the Helmholtz factor is the scalar ``1 + alpha^2 kappa_k^2``
(``OperatorSet.helmholtz``), so dividing the explicit terms by it turns each
mode into an independent 1D fourth-order boundary value problem in ``x2``:

    (D2 - k^2) (v^{n+1} - v^n) / dt = nu (D2 - k^2)^2 v^{n+1}
        + (g_hat - B_hat(v^n)) / (1 + alpha^2 kappa_k^2)

The stiff linear part is implicit (Euler, or Crank-Nicolson with
Adams-Bashforth-2 extrapolation of the explicit terms), the quadratic term
explicit.  ``B_hat`` is ``OperatorSet.advection_modal``: the conservative
form whose skew-symmetry the operator suite checks, always dealiased by the
2/3 rule.  Solving for the update of the mass operator ``(D2 - k^2)`` keeps
the ``k = 0`` column well-posed, and the combined implicit matrix with the
four clamped boundary rows is pentadiagonal and nonsingular for
``nu dt > 0``.  For all modes at once it is one block-diagonal matrix,
written from the five-point stencil straight into compressed-column arrays
and factorized once per run as a single sparse LU in natural order; a
parameter set whose operator overflows or is singular is a configuration
error that names ``lx``, ``m``, ``nu`` and ``dt``.  Every forcing is one
separable :class:`Forcing` ``g(t) = sum_j c_j(t) S_j``: the ``S_j`` are transformed once per run, and
``g_hat(t)`` is their weighted sum; the diagnostics read the same ``g(t)``.

One step computes the modal Laplacian of ``v^n`` once: it is the mass
operator's right-hand side and, truncated, the advected factor of ``B_hat``.
``B_hat`` costs one batched inverse and one batched forward transform, both
along the contiguous mode axis of its work arrays, and the new values one
more inverse transform.  Every state's field is frozen
(read-only), so the diagnostics collector and a streaming modulus that see
the same recorded state share one derivative ladder
(``OperatorSet.field_ladder``); :func:`run` drops it once the record's
callback returns.  A non-finite state raises
:class:`BlowUpError` with its step; a run longer than ``MAX_STEPS`` steps,
or on a grid of more than ``MAX_NODES`` nodes, is a configuration error.

The one stepping loop is :meth:`ImexStepper.states`: :func:`run` records
the states it yields, and the verification studies read them directly.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import diagnostics as diag
from .operators import OperatorSet, d2_matrix, d2_wall_rows
from .strip_grid import Field, Grid, StripDomain, l2_norm, make_grid
from .weights import WeightSpec, make_weight_field

__all__ = [
    "SCHEMES",
    "CFL_LIMIT",
    "MAX_STEPS",
    "MAX_NODES",
    "FieldSpec",
    "SolverConfig",
    "SolverState",
    "BlowUpError",
    "CflWarning",
    "ImexStepper",
    "run",
    "build_field",
    "Forcing",
    "build_forcing",
]

SCHEMES = ("imex_euler", "imex_cnab2")
CFL_LIMIT = 0.5  # advective CFL number above which a CflWarning is issued
MAX_STEPS = 10 ** 9  # a longer run cannot end on this single-process solver
MAX_NODES = 2 ** 27  # one field on a larger grid takes more than 1 GiB


class BlowUpError(RuntimeError):
    """Non-finite state detected at step ``step``.

    ``time`` is the last good solution time.  :func:`run` adds the last
    finite recorded energy, ``energy`` at ``energy_time``; both stay NaN for
    a bare :meth:`ImexStepper.step`.
    """

    def __init__(self, time: float, step: int):
        super().__init__(time, step)
        self.time = time
        self.step = step
        self.energy = self.energy_time = math.nan

    def __str__(self) -> str:
        msg = f"blow-up detected at step {self.step}: non-finite state after t = {self.time:.6g}"
        if not math.isnan(self.energy):
            msg += f"; last finite energy E = {self.energy:.9g} at t = {self.energy_time:.6g}"
        return msg


class CflWarning(UserWarning):
    pass


def _check_float_range(obj, keys):
    """Reject an int attribute beyond the float range, naming it first."""
    for key in keys:
        try:
            float(getattr(obj, key))
        except OverflowError:
            raise ValueError(f"{key} is too large to convert to a float") from None


@dataclass(frozen=True)
class FieldSpec:
    """Tagged field family, for the forcing (``forcing.*``) or the initial
    condition (``ic.*``).

    ``zero``; ``trig_clamped`` with amplitude/k1/k2; ``mms``, the
    manufactured solution ``reference`` (as a forcing, its residual: the one
    forcing that depends on time); ``file`` reading a snapshot.  Messages
    start with the attribute at fault, so a config reader can prefix the
    key's section.
    """

    kind: str = "zero"
    amplitude: float = 0.0
    k1: int = 1
    k2: int = 0
    reference: str = ""
    path: str = ""

    def __post_init__(self):
        kinds = ("zero", "trig_clamped", "mms", "file")
        if self.kind not in kinds:
            raise ValueError(f"kind must be one of {kinds}, got {self.kind!r}")
        if self.kind == "mms" and not self.reference:
            raise ValueError("reference must name a solution when kind = mms")
        if self.kind == "file" and not self.path:
            raise ValueError("path must name a snapshot when kind = file")
        _check_float_range(self, ("k1", "k2"))


InitialConditionSpec = FieldSpec  # the name perfbench/workloads.py imports


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters: geometry, physics, scheme and output cadence.

    The weight spec only parameterizes the weighted diagnostics columns.
    ``nonlinear=False`` freezes the quadratic term (used by the linearized
    verification against dense propagators).  The forcing is
    time-independent except under an ``mms`` reference whose residual
    depends on time (:attr:`Forcing.time_independent`).
    """

    lx: float = 2.0 * np.pi
    m: float = 1.0
    nx: int = 32
    ny: int = 33
    alpha: float = 0.5
    nu: float = 0.01
    dt: float = 1e-3
    t_end: float = 1.0
    scheme: str = "imex_euler"
    forcing: FieldSpec = FieldSpec()
    ic: FieldSpec = FieldSpec()
    record_every: int = 1
    weight: WeightSpec = WeightSpec(epsilon=0.1, rho=10.0, gamma=2.0 / 3.0)
    nonlinear: bool = True

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not (np.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"nu must be positive, got {self.nu}")
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end / dt = {self.t_end:g} / {self.dt:g} overflows "
                             "the step count")
        if self.n_steps > MAX_STEPS:
            raise ValueError(f"t_end / dt = {self.t_end:g} / {self.dt:g} is "
                             f"{self.n_steps:.3g} steps, more than {MAX_STEPS:.0e}")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * max(self.dt, self.t_end):
            raise ValueError("t_end must be an integer multiple of dt")
        _check_float_range(self, ("nx", "ny"))
        if self.nx * self.ny > MAX_NODES:
            raise ValueError(f"nx * ny = {self.nx} * {self.ny} grid nodes is more "
                             f"than {MAX_NODES}")
        # alpha^2 and the Helmholtz multiplier 1 + (alpha kappa)^2 at the
        # Nyquist wavenumber pi nx / lx must both be finite
        domain = StripDomain(self.lx, self.m)  # rejects lx <= 0 before the division
        kappa_max = np.pi * self.nx / domain.lx
        scale = self.alpha * max(1.0, kappa_max)
        if not math.isfinite(1.0 + scale * scale):
            raise ValueError(f"alpha = {self.alpha:g} overflows the Helmholtz "
                             "multiplier 1 + (alpha kappa_max)^2")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    def grid(self) -> Grid:
        return make_grid(StripDomain(self.lx, self.m), self.nx, self.ny)


@dataclass(eq=False)
class SolverState:
    """Solution snapshot plus the cached pieces the schemes need."""

    t: float
    step_index: int
    v: Field
    v_hat: np.ndarray
    prev_explicit: np.ndarray | None = None  # modal explicit term at t^{n-1}
    cfl: float = 0.0


def clamped_profile(z: np.ndarray, k2: int = 0) -> np.ndarray:
    """``(1 - z^2)^2`` envelope times a cosine modulation; clamped at z = +-1."""
    return (1.0 - z ** 2) ** 2 * np.cos(0.5 * np.pi * k2 * z)


def build_field(spec: FieldSpec, grid: Grid, config: SolverConfig | None = None) -> Field:
    """Materialize a tagged family on the grid; ``mms`` gives ``v*`` at t = 0.

    A ``file`` snapshot that starts the run ``config`` warns when its
    header's ``alpha`` or ``nu`` differs from the run's.
    """
    if spec.kind == "zero":
        return Field(grid, np.zeros(grid.shape), clamped=True)
    if spec.kind == "trig_clamped":
        x1, x2 = grid.mesh()
        z = x2 / grid.domain.m
        vals = (spec.amplitude
                * np.sin(2.0 * np.pi * spec.k1 * x1 / grid.domain.lx)
                * clamped_profile(z, spec.k2))
        return Field(grid, vals, clamped=True)
    if spec.kind == "mms":
        from .mms import solution_field
        return solution_field(spec.reference, grid, 0.0)
    from .runio import read_snapshot
    data = read_snapshot(spec.path)
    if (data.nx, data.ny) != grid.shape:
        raise ValueError(
            f"snapshot grid {(data.nx, data.ny)} does not match run grid {grid.shape}")
    if config is not None and (data.alpha, data.nu) != (config.alpha, config.nu):
        warnings.warn(f"snapshot {spec.path} was written with alpha = {data.alpha}, "
                      f"nu = {data.nu}; this run has alpha = {config.alpha}, "
                      f"nu = {config.nu}", UserWarning, stacklevel=2)
    return Field(grid, data.values, clamped=True)


@dataclass(frozen=True, eq=False)
class Forcing:
    """Separable forcing ``g(t) = sum_j c_j(t) S_j``: ``fields`` stacks the ``S_j``
    (at the grid nodes, or their ``x1`` coefficients), ``coefficients(t)`` gives
    the ``c_j``.  Every kind but ``mms`` is one field with ``c = 1``, which
    :meth:`at` returns bit for bit.  ``time_independent`` says that no ``c_j``
    depends on ``t``.
    """

    fields: np.ndarray
    coefficients: Callable[[float], np.ndarray]
    time_independent: bool

    def at(self, t: float) -> np.ndarray:
        c = self.coefficients(t)
        return sum((cj * s for cj, s in zip(c[1:], self.fields[1:])), c[0] * self.fields[0])


def build_forcing(config: SolverConfig, grid: Grid) -> Forcing:
    """The run's forcing; ``mms`` is the residual of ``v*`` at ``nu``, ``alpha``."""
    spec = config.forcing
    if spec.kind != "mms":
        return Forcing(build_field(spec, grid).values[None], lambda t: np.ones(1), True)
    from .mms import get_reference
    ref = get_reference(spec.reference, config.lx, config.m, nu=config.nu,
                        alpha=config.alpha)
    return Forcing(*ref.sample(grid), ref.time_independent)


class ImexStepper:
    """Holds the per-run factorizations and advances states by one ``dt``;
    :meth:`states` is the loop that steps to ``t_end``."""

    def __init__(self, config: SolverConfig):
        self.config = config
        self.grid = config.grid()
        self.ops = OperatorSet(self.grid)
        self.mult = self.ops.helmholtz(config.alpha)
        ny = self.grid.ny
        self.bc_rows = [0, 1, ny - 2, ny - 1]
        self.theta = 1.0 if config.scheme == "imex_euler" else 0.5
        self._lu = self._build_implicit(self.theta)
        # CNAB2 starts with one IMEX-Euler step: an initial state only
        # satisfies the clamped rows to discretization accuracy, and the
        # Crank-Nicolson half of the operator must not see that defect.
        self._lu_start = self._lu if self.theta == 1.0 else self._build_implicit(1.0)
        self.forcing = g = build_forcing(config, self.grid)
        self._forcing_hat = Forcing(np.fft.rfft(g.fields, axis=1), g.coefficients,
                                    g.time_independent)
        self._warned_cfl = False

    # -- setup ----------------------------------------------------------------

    def _build_implicit(self, theta: float):
        """Factorize ``L - theta nu dt L^2`` for all modes at once.

        ``L = D2 - kappa^2`` acts on one ``x2`` column per mode, so the
        operator is block diagonal with one pentadiagonal block per mode.
        Rows 2..ny-3 of a block hold the five-point stencil, each ``L^2``
        entry summed in the order a sparse ``L @ L`` sums it; the four
        clamped rows hold ``v = 0`` and the wall rows of the ``x2``
        first-derivative stencil.  The nonzeros are written straight into
        CSC arrays and factorized as one sparse LU in natural column order,
        since a fill-reducing ordering has nothing to gain on a band.
        """
        cfg, grid = self.config, self.grid
        ny, n_modes = grid.ny, grid.n_modes
        c = theta * cfg.nu * cfg.dt
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # the stencils do not depend on ny: five nodes hold an interior row
            d2, wall = d2_matrix(5, grid.dy), d2_wall_rows(5, grid.dy)
            a = d2[2, 1]                            # off-diagonal of L
            b = d2[2, 2] - grid.wavenumbers ** 2    # diagonal of L, per mode
            far = np.full(n_modes, -(c * (a * a)))
            near = a - c * (a * b + b * a)
            centre = b - c * ((a * a + b * b) + a * a)
        # slot (j, s) of a block holds its column j at row j + s - 2
        rows = np.arange(ny, dtype=np.int32)[:, None] + np.arange(-2, 3, dtype=np.int32)
        nonzero = (rows >= 2) & (rows <= ny - 3)
        values = np.where(nonzero, np.stack([far, near, centre, near, far], 1)[:, None], 0.0)
        for i, j0, coefs in ((0, 0, [1.0]), (1, 0, wall[0, :3]),
                             (ny - 2, ny - 3, wall[1, 2:]), (ny - 1, ny - 1, [1.0])):
            j = j0 + np.arange(len(coefs))
            values[:, j, i - j + 2] = coefs
            nonzero[j, i - j + 2] = True
        data = values[:, nonzero].ravel()  # block by block, column by column
        del values  # the temporaries go before SuperLU allocates its factors
        at = f"lx = {cfg.lx:g}, m = {cfg.m:g}, nu = {cfg.nu:g}, dt = {cfg.dt:g}"
        if not np.all(np.isfinite(data)):
            raise ValueError(f"the implicit operator overflows at {at}")
        n = n_modes * ny
        indices = (np.arange(0, n, ny, dtype=np.int32)[:, None] + rows[nonzero]).ravel()
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.tile(nonzero.sum(axis=1, dtype=np.int32), n_modes), out=indptr[1:])
        try:
            # one-column panels give the same factors faster on a band
            return spla.splu(sp.csc_array((data, indices, indptr), shape=(n, n)),
                             permc_spec="NATURAL", panel_size=1)
        except RuntimeError as exc:  # exactly singular
            raise ValueError(f"the implicit operator is singular at {at}") from exc

    def initial_state(self) -> SolverState:
        v0 = build_field(self.config.ic, self.grid, self.config).freeze()
        v_hat = np.fft.rfft(v0.values, axis=0)
        return SolverState(t=0.0, step_index=0, v=v0, v_hat=v_hat)

    # -- per-step pieces --------------------------------------------------------

    def _explicit_and_cfl(self, state: SolverState,
                          lap_hat: np.ndarray) -> tuple[np.ndarray, float]:
        """``(g_hat - B_hat) / (1 + alpha^2 kappa^2)`` plus the CFL number.

        ``B_hat`` is :meth:`OperatorSet.advection_modal` of the modal state,
        given its modal Laplacian ``lap_hat``; the truncated
        velocity it returns feeds the CFL estimate, since the truncated field
        is the one actually advecting.
        """
        cfg = self.config
        out = self._forcing_hat.at(state.t)
        cfl = 0.0
        if cfg.nonlinear:
            b_hat, d1v, d2v = self.ops.advection_modal(state.v_hat, state.v_hat, lap_hat)
            out -= b_hat
            speed2 = np.multiply(d1v, d1v, out=d1v)
            speed2 += d2v * d2v
            cfl = cfg.dt * math.sqrt(float(speed2.max())) / min(self.grid.dx, self.grid.dy)
        out /= self.mult[:, None]
        return out, cfl

    def step(self, state: SolverState) -> SolverState:
        cfg = self.config
        step_index = state.step_index + 1
        with np.errstate(over="ignore", invalid="ignore"):
            # the mass operator (D2 - kappa^2) is the modal Laplacian, which
            # the advective term reads too
            rhs = self.ops.laplacian_modal(state.v_hat)
            explicit, cfl = self._explicit_and_cfl(state, rhs)
            if cfl > CFL_LIMIT and not self._warned_cfl:
                warnings.warn(
                    f"advective CFL {cfl:.3g} exceeds {CFL_LIMIT} at step "
                    f"{step_index} (t = {state.t:.6g}); the implicit part is stable "
                    "but the explicit term may not be", CflWarning, stacklevel=2)
                self._warned_cfl = True
            starting = cfg.scheme == "imex_cnab2" and state.prev_explicit is None
            if cfg.scheme == "imex_euler" or starting:
                lu = self._lu_start if starting else self._lu
                rhs += cfg.dt * explicit
            else:
                lu = self._lu
                rhs += 0.5 * cfg.nu * cfg.dt * self.ops.laplacian_modal(rhs)
                rhs += cfg.dt * (1.5 * explicit - 0.5 * state.prev_explicit)
            rhs[:, self.bc_rows] = 0.0

            sol = lu.solve(rhs.view(np.float64).reshape(-1, 2))
            v_hat = (sol[:, 0] + 1j * sol[:, 1]).reshape(rhs.shape)
            if not np.all(np.isfinite(v_hat)):
                raise BlowUpError(state.t, step_index)
            values = np.fft.irfft(v_hat, n=self.grid.nx, axis=0)
        if not np.all(np.isfinite(values)):
            raise BlowUpError(state.t, step_index)
        return SolverState(
            t=step_index * cfg.dt,
            step_index=step_index,
            v=Field(self.grid, values, clamped=True).freeze(), v_hat=v_hat,
            prev_explicit=explicit if cfg.scheme == "imex_cnab2" else None,
            cfl=cfl)

    def states(self, every: int, state: SolverState | None = None):
        """Step ``state`` (the initial state by default) ``n_steps`` times.

        Yields the starting state, every ``every``-th state after it and the
        last one; ``every = MAX_STEPS`` yields only the two ends.
        """
        if state is None:
            state = self.initial_state()
        n_steps = self.config.n_steps
        yield state
        for n in range(1, n_steps + 1):
            state = self.step(state)
            if n % every == 0 or n == n_steps:
                yield state


def run(config: SolverConfig, on_record=None):
    """Integrate to ``t_end``; returns ``(final_state, DiagnosticsSeries)``.

    Diagnostics are appended for each state :meth:`ImexStepper.states`
    yields at the record cadence (step 0 and the final step always
    included).  ``on_record(state, record)`` is invoked at each record
    point, e.g. to feed a streaming modulus.  Runs are deterministic:
    identical configs produce identical outputs.
    """
    stepper = ImexStepper(config)
    grid = stepper.grid
    weight = make_weight_field(grid, config.weight)
    collector = diag.DiagnosticsCollector(
        grid=grid, ops=stepper.ops, nu=config.nu, alpha=config.alpha,
        weight=weight, g=stepper.forcing.at)
    # the closed bound |g|^2 / (nu lambda1^2) needs g constant in time
    g_norm = (l2_norm(Field(grid, stepper.forcing.at(0.0)))
              if stepper.forcing.time_independent else math.nan)
    series = diag.DiagnosticsSeries(meta=dict(
        nu=config.nu, alpha=config.alpha, dt=config.dt,
        record_every=config.record_every,
        g_norm=g_norm, lambda1=collector.lambda1))

    try:
        for state in stepper.states(config.record_every):
            rec = collector.record(state.t, state.v, cfl=state.cfl)
            series.append(rec)
            if on_record is not None:
                on_record(state, rec)
            # the state's ladder has served every consumer of this record;
            # the steps that follow need its memory
            state.v.cache.clear()
    except BlowUpError as exc:
        last = next((r for r in reversed(series.records) if math.isfinite(r.energy)), None)
        if last is not None:
            exc.energy, exc.energy_time = last.energy, last.t
        raise
    return state, series
