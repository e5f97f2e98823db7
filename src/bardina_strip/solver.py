"""IMEX time integration of the horizontally filtered model on the strip.

The evolution solved here, written for the stream function ``v``, is

    (1 - alpha^2 d1^2) lap v_t + B(v, v) - nu (1 - alpha^2 d1^2) lap^2 v = g

with clamped walls (``v = d2 v = 0``) and ``x1``-periodicity; ``alpha = 0``
recovers the unfiltered stream-function vorticity equation.  Per Fourier
mode ``k`` the Helmholtz factor is the scalar ``1 + alpha^2 kappa_k^2``, so
dividing the explicit terms by it turns each mode into an independent 1D
fourth-order boundary value problem in ``x2``:

    (D2 - k^2) (v^{n+1} - v^n) / dt = nu (D2 - k^2)^2 v^{n+1}
        + (g_hat - B_hat(v^n)) / (1 + alpha^2 kappa_k^2)

The stiff linear part is implicit (Euler, or Crank-Nicolson with
Adams-Bashforth-2 extrapolation of the explicit terms), the quadratic term
explicit.  ``B_hat`` is ``OperatorSet.advection_modal``: the conservative
form whose skew-symmetry the operator suite checks, always dealiased by the
2/3 rule.  Solving for the update of the mass operator ``(D2 - k^2)`` keeps
the ``k = 0`` column well-posed, and the combined implicit matrix with the
four clamped boundary rows is banded (bandwidth five) and nonsingular for
``nu dt > 0``.  The operator is assembled in sparse form for all modes at
once, as one block-diagonal matrix, and factorized once per run as a single
sparse LU.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import diagnostics as diag
from .horizontal_filter import FilterSpec, helmholtz_multiplier
from .operators import OperatorSet, d2_matrix, d2_wall_rows
from .strip_grid import Field, Grid, StripDomain, make_grid
from .weights import WeightSpec, make_weight_field

__all__ = [
    "SCHEMES",
    "CFL_LIMIT",
    "ForcingSpec",
    "InitialConditionSpec",
    "SolverConfig",
    "SolverState",
    "BlowUpError",
    "CflWarning",
    "ImexStepper",
    "run",
    "nse_run",
    "build_field",
]

SCHEMES = ("imex_euler", "imex_cnab2")
CFL_LIMIT = 0.5  # advective CFL number above which a CflWarning is issued


class BlowUpError(RuntimeError):
    """Non-finite state detected; ``time`` is the last good solution time."""

    def __init__(self, time: float):
        super().__init__(f"blow-up detected: non-finite state after t = {time:.6g}")
        self.time = time


class CflWarning(UserWarning):
    pass


@dataclass(frozen=True)
class ForcingSpec:
    """Tagged analytic forcing family.

    ``zero``; ``trig_clamped`` with amplitude/k1/k2; ``mms`` evaluating the
    manufactured-solution residual of ``reference`` (the one case where the
    forcing may depend on time); ``file`` reading a snapshot.
    """

    kind: str = "zero"
    amplitude: float = 0.0
    k1: int = 1
    k2: int = 0
    reference: str = ""
    path: str = ""

    def __post_init__(self):
        if self.kind not in ("zero", "trig_clamped", "mms", "file"):
            raise ValueError(f"unknown forcing kind {self.kind!r}")
        if self.kind == "mms" and not self.reference:
            raise ValueError("mms forcing needs a reference solution id")
        if self.kind == "file" and not self.path:
            raise ValueError("file forcing needs a path")


@dataclass(frozen=True)
class InitialConditionSpec:
    kind: str = "zero"
    amplitude: float = 0.0
    k1: int = 1
    k2: int = 0
    reference: str = ""
    path: str = ""

    def __post_init__(self):
        if self.kind not in ("zero", "trig_clamped", "mms", "file"):
            raise ValueError(f"unknown ic kind {self.kind!r}")
        if self.kind == "mms" and not self.reference:
            raise ValueError("mms ic needs a reference solution id")
        if self.kind == "file" and not self.path:
            raise ValueError("file ic needs a path")


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters: geometry, physics, scheme and output cadence.

    The weight spec only parameterizes the weighted diagnostics columns.
    ``nonlinear=False`` freezes the quadratic term (used by the linearized
    verification against dense propagators).  The forcing is
    time-independent except under ``mms``.
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
    forcing: ForcingSpec = ForcingSpec()
    ic: InitialConditionSpec = InitialConditionSpec()
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
            raise ValueError("record_every must be >= 1")
        n = round(self.t_end / self.dt) if self.t_end > 0 else 0
        if abs(n * self.dt - self.t_end) > 1e-9 * max(self.dt, self.t_end):
            raise ValueError("t_end must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt) if self.t_end > 0 else 0

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


def build_field(spec: ForcingSpec | InitialConditionSpec, grid: Grid,
                t: float = 0.0) -> Field:
    """Materialize a tagged analytic family on the grid."""
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
        from .mms import get_reference
        ref = get_reference(spec.reference, grid.domain.lx, grid.domain.m)
        if isinstance(spec, InitialConditionSpec):
            return ref.solution_field(grid, t)
        raise ValueError("mms forcing is evaluated by the stepper, not build_field")
    if spec.kind == "file":
        from .runio import read_snapshot
        data = read_snapshot(spec.path)
        if (data.nx, data.ny) != grid.shape:
            raise ValueError(
                f"snapshot grid {(data.nx, data.ny)} does not match run grid {grid.shape}")
        return Field(grid, data.values, clamped=True)
    raise ValueError(f"unknown spec kind {spec.kind!r}")


class ImexStepper:
    """Holds the per-run factorizations and advances states by one ``dt``."""

    def __init__(self, config: SolverConfig):
        self.config = config
        self.grid = config.grid()
        self.ops = OperatorSet(self.grid)
        self.filter_spec = FilterSpec(config.alpha)
        self.mult = helmholtz_multiplier(self.grid, self.filter_spec)
        ny = self.grid.ny
        self.bc_rows = (0, 1, ny - 2, ny - 1)
        self.theta = 1.0 if config.scheme == "imex_euler" else 0.5
        self._lu = self._build_implicit(self.theta)
        # CNAB2 starts with one IMEX-Euler step: an initial state only
        # satisfies the clamped rows to discretization accuracy, and the
        # Crank-Nicolson half of the operator must not see that defect.
        self._lu_start = self._lu if self.theta == 1.0 else self._build_implicit(1.0)
        self.g: Field | None = None  # the time-independent forcing; None under mms
        self._mms_ref = None
        if config.forcing.kind == "mms":
            from .mms import get_reference
            self._mms_ref = get_reference(config.forcing.reference,
                                          config.lx, config.m, nu=config.nu,
                                          alpha=config.alpha)
        else:
            self.g = build_field(config.forcing, self.grid)
            self._g_static = np.fft.rfft(self.g.values, axis=0)
        self._warned_cfl = False

    # -- setup ----------------------------------------------------------------

    def _build_implicit(self, theta: float):
        """Factorize ``L - theta nu dt L^2`` for all modes at once.

        ``L = D2 - kappa^2`` is assembled in sparse form as one block-diagonal
        matrix, one five-banded ``x2`` block per mode; in every block the four
        clamped rows are replaced by ``v = 0`` and the wall rows of the ``x2``
        first-derivative stencil.
        """
        cfg = self.config
        ny, dy, n_modes = self.grid.ny, self.grid.dy, self.grid.n_modes
        modes = sp.identity(n_modes, format="csr")
        lap = (sp.kron(modes, sp.csr_matrix(d2_matrix(ny, dy)), format="csr")
               - sp.diags(np.repeat(self.grid.wavenumbers ** 2, ny), format="csr"))
        mat = lap - theta * cfg.nu * cfg.dt * (lap @ lap)
        del lap  # the temporaries go before SuperLU allocates its factors
        keep = np.ones(ny)
        keep[list(self.bc_rows)] = 0.0
        clamped = np.zeros((ny, ny))
        clamped[[0, -1], [0, -1]] = 1.0
        clamped[[1, -2]] = d2_wall_rows(ny, dy)
        big = (sp.diags(np.tile(keep, n_modes), format="csr") @ mat
               + sp.kron(modes, sp.csr_matrix(clamped), format="csr")).tocsc()
        del mat
        try:
            return spla.splu(big)
        except RuntimeError as exc:  # singular factorization
            raise ValueError(
                "implicit operator factorization failed; "
                f"check nu, dt > 0 (nu={cfg.nu}, dt={cfg.dt})") from exc

    def initial_state(self) -> SolverState:
        v0 = build_field(self.config.ic, self.grid)
        v_hat = np.fft.rfft(v0.values, axis=0)
        return SolverState(t=0.0, step_index=0, v=v0, v_hat=v_hat)

    # -- per-step pieces --------------------------------------------------------

    def _forcing_modal(self, t: float) -> np.ndarray:
        if self._mms_ref is not None:
            g = self._mms_ref.forcing_field(self.grid, t)
            return np.fft.rfft(g.values, axis=0)
        return self._g_static

    def _explicit_and_cfl(self, state: SolverState) -> tuple[np.ndarray, float]:
        """``(g_hat - B_hat) / (1 + alpha^2 kappa^2)`` plus the CFL number.

        ``B_hat`` is :meth:`OperatorSet.advection_modal` of the modal state;
        the truncated velocity it returns feeds the CFL estimate, since the
        truncated field is the one actually advecting.
        """
        cfg = self.config
        out = self._forcing_modal(state.t).copy()
        cfl = 0.0
        if cfg.nonlinear:
            b_hat, d1v, d2v = self.ops.advection_modal(state.v_hat, state.v_hat)
            out -= b_hat
            vmax = float(np.sqrt(d1v ** 2 + d2v ** 2).max())
            cfl = cfg.dt * vmax / min(self.grid.dx, self.grid.dy)
        return out / self.mult[:, None], cfl

    def step(self, state: SolverState) -> SolverState:
        cfg = self.config
        with np.errstate(over="ignore", invalid="ignore"):
            explicit, cfl = self._explicit_and_cfl(state)
            if cfl > CFL_LIMIT and not self._warned_cfl:
                warnings.warn(
                    f"advective CFL {cfl:.3g} exceeds {CFL_LIMIT} at "
                    f"t = {state.t:.6g}; the implicit part is stable but the "
                    "explicit term may not be", CflWarning, stacklevel=2)
                self._warned_cfl = True
            # the mass operator (D2 - kappa^2) is the modal Laplacian
            rhs = self.ops.laplacian_modal(state.v_hat)
            starting = cfg.scheme == "imex_cnab2" and state.prev_explicit is None
            if cfg.scheme == "imex_euler" or starting:
                lu = self._lu_start if starting else self._lu
                rhs += cfg.dt * explicit
            else:
                lu = self._lu
                rhs += 0.5 * cfg.nu * cfg.dt * self.ops.laplacian_modal(
                    self.ops.laplacian_modal(state.v_hat))
                rhs += cfg.dt * (1.5 * explicit - 0.5 * state.prev_explicit)
            rhs[:, list(self.bc_rows)] = 0.0

            flat = rhs.ravel()
            sol = lu.solve(np.column_stack([flat.real, flat.imag]))
            v_hat = (sol[:, 0] + 1j * sol[:, 1]).reshape(rhs.shape)
            if not np.all(np.isfinite(v_hat)):
                raise BlowUpError(state.t)
            values = np.fft.irfft(v_hat, n=self.grid.nx, axis=0)
        if not np.all(np.isfinite(values)):
            raise BlowUpError(state.t)
        v = Field(self.grid, values, clamped=True)
        return SolverState(
            t=(state.step_index + 1) * cfg.dt,
            step_index=state.step_index + 1,
            v=v, v_hat=v_hat,
            prev_explicit=explicit if cfg.scheme == "imex_cnab2" else None,
            cfl=cfl)


def run(config: SolverConfig, on_record=None):
    """Integrate to ``t_end``; returns ``(final_state, DiagnosticsSeries)``.

    Diagnostics are appended at the record cadence (step 0 and the final
    step always included).  ``on_record(state, record)`` is invoked at each
    record point, e.g. to capture fields for trajectory post-processing.
    Runs are deterministic: identical configs produce identical outputs.
    """
    stepper = ImexStepper(config)
    grid = stepper.grid
    weight = make_weight_field(grid, config.weight)
    # under mms, the one time-dependent forcing, stepper.g is None: NaN budgets
    collector = diag.DiagnosticsCollector(
        grid=grid, ops=stepper.ops, nu=config.nu, alpha=config.alpha,
        weight=weight, g=stepper.g)
    series = diag.DiagnosticsSeries.for_run(
        nu=config.nu, alpha=config.alpha, dt=config.dt,
        record_every=config.record_every,
        g_norm=collector.g_norm, lambda1=collector.lambda1)

    state = stepper.initial_state()
    rec = collector.record(state.t, state.v, cfl=0.0)
    series.append(rec)
    if on_record is not None:
        on_record(state, rec)
    for n in range(1, config.n_steps + 1):
        state = stepper.step(state)
        if n % config.record_every == 0 or n == config.n_steps:
            rec = collector.record(state.t, state.v, cfl=state.cfl)
            series.append(rec)
            if on_record is not None:
                on_record(state, rec)
    return state, series


def nse_run(config: SolverConfig, on_record=None):
    """The unfiltered equation: the identical code path with ``alpha = 0``."""
    return run(replace(config, alpha=0.0), on_record=on_record)
