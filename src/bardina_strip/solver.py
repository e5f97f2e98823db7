"""IMEX time integration of the horizontally filtered model on the strip.

The evolution solved here, written for the stream function ``v``, is

    (1 - alpha^2 d1^2) lap v_t + B(v, v) - nu (1 - alpha^2 d1^2) lap^2 v = g

with clamped walls (``v = d2 v = 0``) and ``x1``-periodicity; ``alpha = 0``
recovers the unfiltered stream-function vorticity equation.  Per Fourier
mode ``k`` the Helmholtz factor is the scalar ``1 + alpha^2 kappa_k^2``
(``OperatorSet.helmholtz``), so dividing the explicit terms by it turns each
mode into an independent 1D fourth-order boundary value problem in ``x2``
(the step multiplies by its reciprocal, bit for bit numpy's complex division
by it):

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
``L - theta nu dt L^2`` with ``theta = 1`` (Euler) or ``1/2``
(Crank-Nicolson), written once per run, for either scheme, from the
five-point stencil; a parameter set whose operator overflows or is
singular is a configuration error that names ``lx``, ``m``, ``nu`` and
``dt``.  The size of the per-mode inverses, ``n_modes ny^2`` float64,
chooses the solve.  Up to ``DENSE_INVERSE_BYTES`` (2 MiB; 64 x 65 needs
1.1 MiB) every block is inverted once and a solve is one batched matrix
product.  Above it the blocks are split by their mirror symmetry: with the
``x2 = +M`` wall-derivative row negated, a block commutes with the
reflection ``x2 -> -x2``, so it splits into an even and an odd half of
about ``ny / 2`` unknowns, both still pentadiagonal.  All ``2 n_modes``
halves are factorized at once without pivoting, from both ends towards
their middle, and a solve sweeps them all at once, one pair of rows per
step of a Python loop (:class:`banded.MirrorBandLU`).  Against a dense
solve refined in extended precision it errs by 1e-13 at 128 x 129 and
5e-14 at 256 x 257, where SuperLU erred by 4e-13 and 2e-12.  No run
imports scipy; the timings behind the bound are at ``DENSE_INVERSE_BYTES``.
Every forcing is one separable :class:`Forcing`
``g(t) = sum_j c_j(t) S_j``: the ``S_j`` are transformed once per run, and
``g_hat(t)`` is their weighted sum; the diagnostics read the same ``g(t)``.

One step computes the modal Laplacian ``L v^n`` of ``v^n`` once: it is the
mass operator's right-hand side and, truncated, the advected factor of
``B_hat``.  ``B_hat`` streams over blocks of ``x2`` rows
(``operators.ADVECTION_BLOCK_BYTES``), so a step's temporaries beyond its
modal arrays scale with a block, not the grid.  The Laplacian and the
right-hand side go over blocks of modal rows of the same size: a block of
the explicit term is the forcing minus ``B_hat`` times the reciprocal
symbol, and the scheme's combination takes it while it is in cache.
Modal arrays (states, the forcing's coefficients, the step's arrays and
both solves' outputs) are ``(n_modes, ny)`` in Fortran order, each ``x2``
row's modes contiguous.

CNAB2's first step is two IMEX-Euler steps of ``dt / 2`` (Rannacher's
start), with the explicit term at ``t`` and ``t + dt / 2``: an initial state
satisfies the clamped rows only to discretization accuracy, the
Crank-Nicolson half must not see that defect, and implicit Euler damps it.
Implicit Euler at ``dt / 2`` is the Crank-Nicolson operator
``A = L - nu dt L^2 / 2`` itself, so the start needs no second
factorization.  The first half step's explicit term starts the
Adams-Bashforth history.  After it, CNAB2 solves for the sum
``s = v^{n+1} + v^n``: on the interior rows
``(L + nu dt L^2 / 2) v^n = 2 L v^n - A v^n``, so the Crank-Nicolson half
needs no second Laplacian.

A state is modal: :class:`SolverState` holds ``v_hat``, and its values are
one inverse transform computed on first read, so a state nobody reads costs
no transform.  :func:`run` hands the collector the state's ``v_hat`` with
its values, so the record builds the state's derivative ladder
(``OperatorSet.field_ladder``) from the coefficients, with no forward
transform.  Like every :class:`Field`, a state's values are read-only and
keep their ladder, so a streaming modulus that sees the same recorded state
reads the collector's ladder; :func:`run` drops the state and its ladder
once the record's callback returns, and keeps no weight field beyond the
collector's ``qw * phi``.  A state whose coefficients, or values when read, are not finite raises
:class:`BlowUpError` with its step; a run longer than ``MAX_STEPS`` steps,
or on a grid of more than ``MAX_NODES`` nodes, is a configuration error, and
so is one whose recorded columns or closed bound overflow.

The one stepping loop is :meth:`ImexStepper.states`: :func:`run` records
the states it yields, and the verification studies read them directly.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import diagnostics as diag
from .operators import OperatorSet, d2_matrix, d2_wall_rows
from .strip_grid import Field, Grid, StripDomain, make_grid
from .weights import WeightSpec, make_weight_field

__all__ = [
    "SCHEMES",
    "CFL_LIMIT",
    "MAX_STEPS",
    "MAX_NODES",
    "DENSE_INVERSE_BYTES",
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
    "scale_keys",
]

# each scheme and its implicit weight: it factorizes L - theta nu dt L^2
_THETA = {"imex_euler": 1.0, "imex_cnab2": 0.5}
SCHEMES = tuple(_THETA)
CFL_LIMIT = 0.5  # advective CFL number above which a CflWarning is issued
MAX_STEPS = 10 ** 9  # a longer run cannot end on this single-process solver
MAX_NODES = 2 ** 27  # one field on a larger grid takes more than 1 GiB
# the largest per-mode inverse stack (n_modes ny^2 float64) solved densely;
# a larger operator is factorized in banded form.  Measured in process on 2
# vCPUs with one BLAS thread (medians of 200, ranges over three runs), dense
# against banded, a solve takes 0.065-0.080 against 0.25-0.26 ms at 64 x 65,
# 0.24-0.28 against 0.30-0.43 ms at 96 x 97 and 0.52-1.0 against 0.41-0.75 ms
# at 128 x 129, and set-up 9-10 against 1.7-2 ms, 31-36 against 2.4-2.7 ms and
# 62-79 against 3.4-3.6 ms; at 512 x 513 the inverses would take 516 MiB.  The
# dense solve is faster up to about 96 x 97, but its set-up grows like ny^3
# per mode, so the bound stays at 2 MiB.
DENSE_INVERSE_BYTES = 2 * 2 ** 20


class BlowUpError(RuntimeError):
    """Non-finite state detected at step ``step``.

    ``time`` is the last time whose modal state is finite: the one before
    ``step`` when the step's coefficients overflow, the state's own when
    only its values or its recorded energies and norms do.  :func:`run`
    adds the last finite recorded energy, ``energy`` at ``energy_time``;
    both stay NaN for a bare :meth:`ImexStepper.step`.
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

    Every leaf field, the specs' fields included, is one ``runio`` config
    key.  The weight spec only parameterizes the weighted diagnostics
    columns; its ``gamma`` defaults to ``GAMMA_THRESHOLD``.  The forcing is
    constant in time except under an ``mms`` reference whose residual has a
    time factor; the diagnostics read it at each record time either way.
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
    weight: WeightSpec = WeightSpec(epsilon=0.1, rho=10.0)

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
    """Modal solution snapshot plus the pieces the schemes carry.

    ``v_hat`` holds the ``x1`` Fourier coefficients of the stream function,
    ``(n_modes, ny)`` in Fortran order.  ``v``, their values as a C-ordered
    :class:`Field`, is computed on first read and kept with the
    state; values that overflow raise :class:`BlowUpError` with the state's
    step and time.
    """

    t: float
    step_index: int
    v_hat: np.ndarray
    grid: Grid
    prev_explicit: np.ndarray | None = None  # modal explicit term at t^{n-1}
    cfl: float = 0.0

    @functools.cached_property
    def v(self) -> Field:
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.fft.irfft(self.v_hat, n=self.grid.nx, axis=0,
                                  out=np.empty(self.grid.shape))
        try:
            return Field(self.grid, values, clamped=True)
        except ValueError:  # non-finite values; the shape is the grid's
            raise BlowUpError(self.t, self.step_index) from None


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
    :meth:`at` returns bit for bit; several fields are one contraction.
    """

    fields: np.ndarray
    coefficients: Callable[[float], np.ndarray]

    def at(self, t: float) -> np.ndarray:
        c = self.coefficients(t)
        if len(self.fields) == 1:
            return c[0] * self.fields[0]
        return (c @ self.fields.reshape(len(self.fields), -1)).reshape(self.fields.shape[1:])


def _modal(values: np.ndarray) -> np.ndarray:
    """``rfft(values, axis=-2)``, each trailing ``(n_modes, ny)`` block in
    Fortran order: the modal layout of the step, its modes contiguous."""
    shape = values.shape[:-2] + (values.shape[-1], values.shape[-2] // 2 + 1)
    return np.fft.rfft(values, axis=-2, out=np.empty(shape, np.complex128).swapaxes(-1, -2))


def build_forcing(config: SolverConfig, grid: Grid) -> Forcing:
    """The run's forcing; ``mms`` is the residual of ``v*`` at ``nu``, ``alpha``."""
    spec = config.forcing
    if spec.kind != "mms":
        return Forcing(build_field(spec, grid).values[None], lambda t: np.ones(1))
    from .mms import get_reference
    ref = get_reference(spec.reference, config.lx, config.m, nu=config.nu,
                        alpha=config.alpha)
    return Forcing(*ref.sample(grid))


class ImexStepper:
    """Holds the per-run inverses or banded factors and advances states by one ``dt``;
    :meth:`states` is the loop that steps to ``t_end``."""

    def __init__(self, config: SolverConfig):
        self.config = config
        self.grid = config.grid()
        self.ops = OperatorSet(self.grid)
        # the filter's reciprocal symbol: a multiply by it is bit for bit
        # numpy's complex division by the symbol, at a third of the cost
        self._inv_mult = (1.0 / self.ops.helmholtz(config.alpha))[:, None]
        ny = self.grid.ny
        self.bc_rows = [0, 1, ny - 2, ny - 1]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # the clamped rows' x2 first-derivative stencil, which does not
            # depend on ny: five nodes hold it
            self._wall = d2_wall_rows(5, self.grid.dy)
        # the one operator, L - theta nu dt L^2, is implicit Euler's at the
        # step theta dt: the whole step under imex_euler, CNAB2's half steps
        theta = _THETA[config.scheme]
        self._euler_dt = theta * config.dt
        self._implicit = self._build_implicit(theta)
        self.forcing = g = build_forcing(config, self.grid)
        # several fields keep the C order, which fixes the bits of their one sum
        hat = _modal(g.fields) if len(g.fields) == 1 else np.fft.rfft(g.fields, axis=1)
        self._forcing_hat = Forcing(hat, g.coefficients)
        self._warned_cfl = False

    # -- setup ----------------------------------------------------------------

    def _build_implicit(self, theta: float):
        """Invert or factorize ``L - theta nu dt L^2`` for all modes at once.

        ``L = D2 - kappa^2`` acts on one ``x2`` column per mode, so the
        operator is block diagonal with one pentadiagonal block per mode.
        Rows 2..ny-3 of a block hold the five-point stencil, each ``L^2``
        entry summed in the order a sparse ``L @ L`` sums it; the four
        clamped rows hold ``v = 0`` and the wall rows of the ``x2``
        first-derivative stencil.  Up to ``DENSE_INVERSE_BYTES`` of
        inverses, the blocks are inverted one by one and :meth:`_solve`
        multiplies by them; above it, :class:`banded.MirrorBandLU` factorizes
        their mirror halves.  Returns the ``(n_modes, ny, ny)`` inverses or
        the factors.
        """
        cfg, grid = self.config, self.grid
        ny, n_modes = grid.ny, grid.n_modes
        c = theta * cfg.nu * cfg.dt
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # the stencils do not depend on ny: five nodes hold an interior row
            d2, wall = d2_matrix(5, grid.dy), self._wall
            a = d2[2, 1]                            # off-diagonal of L
            b = d2[2, 2] - grid.wavenumbers ** 2    # diagonal of L, per mode
            far = np.full(n_modes, -(c * (a * a)))
            near = a - c * (a * b + b * a)
            centre = b - c * ((a * a + b * b) + a * a)
        stencil = np.stack([far, near, centre, near, far], 1)
        at = f"lx = {cfg.lx:g}, m = {cfg.m:g}, nu = {cfg.nu:g}, dt = {cfg.dt:g}"
        if not (np.all(np.isfinite(stencil)) and np.all(np.isfinite(wall))):
            raise ValueError(f"the implicit operator overflows at {at}")
        # slot (i, s) holds row i at column i + s - 2, rows outermost as the
        # fold reads them; the banded solve reads only the top half
        banded = n_modes * ny * ny * 8 > DENSE_INVERSE_BYTES
        band = np.zeros(((ny + 1) // 2 if banded else ny, n_modes, 5)).transpose(1, 0, 2)
        band[:, 2:ny - 2] = stencil[:, None]
        band[:, 0, 2] = 1.0
        band[:, 1, 1:4] = wall[0, :3]
        if banded:
            from .banded import MirrorBandLU  # only grids above the bound load it
            lu = MirrorBandLU(band, ny)
            if not lu.regular:
                raise ValueError(f"the implicit operator is singular at {at}")
            return lu
        band[:, -1, 2] = 1.0
        band[:, -2, 1:4] = wall[1, 2:]
        cols = np.arange(ny)[:, None] + np.arange(-2, 3)
        inside = (cols >= 0) & (cols < ny)
        blocks = np.zeros((n_modes, ny, ny))
        blocks[:, np.nonzero(inside)[0], cols[inside]] = band[:, inside]
        del band  # the temporaries go before the inverses
        try:
            inverse = np.linalg.inv(blocks)
        except np.linalg.LinAlgError:  # exactly singular
            inverse = None
        # an inverse beyond the float range would make every step NaN
        if inverse is None or not np.all(np.isfinite(inverse)):
            raise ValueError(f"the implicit operator is singular at {at}")
        return inverse

    def initial_state(self, v0: Field | None = None) -> SolverState:
        """The state at ``t = 0`` holding ``v0``, the config's initial
        condition by default; its values are ``v0``'s own."""
        if v0 is None:
            v0 = build_field(self.config.ic, self.grid, self.config)
        state = SolverState(t=0.0, step_index=0, v_hat=_modal(v0.values), grid=self.grid)
        state.v = v0
        return state

    def _clamped_rows(self, v_hat: np.ndarray) -> np.ndarray:
        """The implicit operator's four clamped rows applied to ``v_hat``:
        ``v`` and ``d2 v`` at ``x2 = -M``, then ``d2 v`` and ``v`` at ``+M``."""
        # C-ordered copies of the rows, as the products' bits depend on the layout
        lo, hi = np.ascontiguousarray(v_hat[:, :3]), np.ascontiguousarray(v_hat[:, -3:])
        return np.stack([v_hat[:, 0], lo @ self._wall[0, :3],
                         hi @ self._wall[1, 2:], v_hat[:, -1]], axis=1)

    # -- per-step pieces --------------------------------------------------------

    def _explicit_and_cfl(self, state: SolverState, lap_hat: np.ndarray,
                          combine: Callable[[slice, np.ndarray], None] | None = None,
                          ) -> tuple[np.ndarray, float]:
        """``(g_hat - B_hat) / (1 + alpha^2 kappa^2)`` plus the CFL number.

        ``B_hat`` is :meth:`OperatorSet.advection_modal` of the modal state,
        given its modal Laplacian ``lap_hat``; the largest squared speed of
        the truncated velocity, which it returns too, feeds the CFL estimate,
        since the truncated field is the one actually advecting.  The term
        is formed in blocks of modal rows (``OperatorSet.row_blocks``), each
        multiplied by the reciprocal symbol, bit for bit numpy's complex
        division by it; ``combine(rows, term)``, if given, then takes each
        block while it is in cache: the step adds it to its right-hand side.
        """
        out = np.asfortranarray(self._forcing_hat.at(state.t))
        b_hat, speed2 = self.ops.advection_modal(state.v_hat, state.v_hat, lap_hat)
        for rows in self.ops.row_blocks(16 * self.grid.n_modes):
            term = out[:, rows]
            term -= b_hat[:, rows]
            term *= self._inv_mult
            if combine is not None:
                combine(rows, term)
        return out, self.config.dt * math.sqrt(speed2) / min(self.grid.dx, self.grid.dy)

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """The implicit operator solved for the modal ``rhs``, whose real
        and imaginary parts are two columns of one solve."""
        if isinstance(self._implicit, np.ndarray):  # the per-mode inverses
            # (x2 row, mode, part) arrays, the mode the batch axis of the product
            out = np.empty((rhs.shape[1], rhs.shape[0], 2))
            np.matmul(self._implicit, np.ascontiguousarray(rhs.T).view(np.float64)
                      .reshape(out.shape), out=out, axes=[(1, 2), (0, 2), (0, 2)])
            return out.view(np.complex128)[..., 0].T
        return self._implicit.solve(rhs)

    def _euler(self, state: SolverState) -> tuple[np.ndarray, np.ndarray, float]:
        """One IMEX-Euler step of ``theta dt`` from ``state``: the new
        coefficients, the explicit term at ``state.t`` and the CFL number."""
        # the mass operator (D2 - kappa^2) is the modal Laplacian, which the
        # advective term reads too
        rhs = self.ops.laplacian_modal(state.v_hat)

        def combine(rows, term):
            block = rhs[:, rows]
            block += self._euler_dt * term

        explicit, cfl = self._explicit_and_cfl(state, rhs, combine)
        rhs[:, self.bc_rows] = 0.0
        return self._solve(rhs), explicit, cfl

    def step(self, state: SolverState) -> SolverState:
        """Advance ``state`` by one ``dt``; the new state stays modal."""
        cfg = self.config
        step_index = state.step_index + 1
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.scheme == "imex_euler":
                v_hat, explicit, cfl = self._euler(state)
            elif state.prev_explicit is None:
                # CNAB2 starts with two IMEX-Euler steps of dt / 2 on its own
                # operator (module docstring); the first one's explicit term
                # starts the Adams-Bashforth history
                v_hat, explicit, cfl = self._euler(state)
                if not np.all(np.isfinite(v_hat)):
                    raise BlowUpError(state.t, step_index)
                half = SolverState(t=state.t + self._euler_dt, step_index=state.step_index,
                                   v_hat=v_hat, grid=self.grid)
                v_hat, _, half_cfl = self._euler(half)
                cfl = max(cfl, half_cfl)
            else:
                # Crank-Nicolson for s = v^{n+1} + v^n (module docstring):
                # the interior rows of A s are 2 L v^n plus the AB2 term, its
                # clamped rows those of v^n, since v^{n+1} satisfies them
                rhs, prev = self.ops.laplacian_modal(state.v_hat), state.prev_explicit

                def combine(rows, term):
                    ab2 = np.multiply(1.5, term)
                    ab2 -= 0.5 * prev[:, rows]
                    ab2 *= cfg.dt
                    block = rhs[:, rows]
                    block *= 2.0
                    block += ab2

                explicit, cfl = self._explicit_and_cfl(state, rhs, combine)
                rhs[:, self.bc_rows] = self._clamped_rows(state.v_hat)
                v_hat = self._solve(rhs)
                v_hat -= state.v_hat
        if cfl > CFL_LIMIT and not self._warned_cfl:
            warnings.warn(
                f"advective CFL {cfl:.3g} exceeds {CFL_LIMIT} at step "
                f"{step_index} (t = {state.t:.6g}); the implicit part is stable "
                "but the explicit term may not be", CflWarning, stacklevel=2)
            self._warned_cfl = True
        if not np.all(np.isfinite(v_hat)):
            raise BlowUpError(state.t, step_index)
        return SolverState(
            t=step_index * cfg.dt, step_index=step_index, v_hat=v_hat, grid=self.grid,
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


def scale_keys(config: SolverConfig, keys, sections=("ic", "forcing")) -> str:
    """``keys`` and the keys that size the fields of ``sections`` (a zero
    field has none), each with its value, for an overflow message."""
    named = []
    for section in sections:
        spec = getattr(config, section)
        key = {"trig_clamped": "amplitude", "mms": "reference", "file": "path"}.get(spec.kind)
        if key is not None:
            named.append(f"{section}.{key} = {getattr(spec, key)}")
    named += [f"{key} = {getattr(config, key):g}" for key in keys]
    return ", ".join(named)


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
    # the collector keeps only qw * phi: the weight field is not held here
    collector = diag.DiagnosticsCollector(
        ops=stepper.ops, nu=config.nu, alpha=config.alpha,
        weight=make_weight_field(grid, config.weight), g=stepper.forcing.at)
    series = diag.DiagnosticsSeries(meta=dict(
        nu=config.nu, alpha=config.alpha, dt=config.dt,
        record_every=config.record_every, lambda1=collector.lambda1))

    try:
        for state in stepper.states(config.record_every):
            rec = collector.record(state.t, state.v, cfl=state.cfl, coeffs=state.v_hat)
            # the forcing alone sets the bound, so its overflow is the config's
            if not math.isfinite(diag.closed_bound(rec.forcing_norm_sq, config.nu,
                                                   collector.lambda1)):
                raise ValueError("the closed bound |g|^2 / (nu lambda1^2) is out of "
                                 "range; it scales with "
                                 f"{scale_keys(config, ('nu', 'm'), ('forcing',))}")
            for (column, _, keys), value in zip(diag.CSV_SCHEMA, rec.csv_values()):
                if math.isfinite(value):
                    continue
                # a column that does not scale with dt measures the state
                # alone: past the initial state, its overflow is a blow-up
                if state.step_index > 0 and "dt" not in keys:
                    raise BlowUpError(state.t, state.step_index)
                raise ValueError(f"the recorded {column} is {value} at t = {state.t:.6g}; "
                                 f"it scales with {scale_keys(config, keys)}")
            series.append(rec)
            if on_record is not None:
                on_record(state, rec)
            # the state and its ladder have served every consumer of this
            # record; the steps that follow need their memory
            state.v.ladder = None
            if state.step_index == config.n_steps:
                final = state
            del state
    except BlowUpError as exc:
        last = next((r for r in reversed(series.records) if math.isfinite(r.energy)), None)
        if last is not None:
            exc.energy, exc.energy_time = last.energy, last.t
        raise
    return final, series
