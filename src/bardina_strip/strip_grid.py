"""Strip geometry, discretization and quadrature.

The domain is a channel of half-width ``M`` that is periodic in the
horizontal direction: ``x1 in [0, Lx)`` with ``x1``-periodicity standing in
for the unbounded axis, and ``x2 in [-M, M]`` between two flat walls.

Fields are stored as real ``(nx, ny)`` arrays (``x1`` index first).  The
horizontal direction is handled spectrally: modal code works on
``np.fft.rfft(values, axis=0)``, the ``(nx // 2 + 1, ny)`` complex Fourier
coefficient columns in the unnormalized numpy convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StripDomain",
    "Grid",
    "Field",
    "make_grid",
    "inner_product",
    "l2_norm",
    "quadrature",
    "squared_quadrature",
    "check_same_grid",
]


@dataclass(frozen=True)
class StripDomain:
    """Flat strip: ``x1``-periodic with period ``lx``, walls at ``x2 = -m, +m``."""

    lx: float
    m: float

    def __post_init__(self):
        if not (np.isfinite(self.lx) and self.lx > 0):
            raise ValueError(f"lx must be positive and finite, got {self.lx}")
        if not (np.isfinite(self.m) and self.m > 0):
            raise ValueError(f"m must be positive and finite, got {self.m}")


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform discretization of a :class:`StripDomain`.

    ``x1`` nodes are periodic (no duplicate of the seam node); ``x2`` nodes
    include both walls.  ``node_weights`` are ``dx`` times the trapezoidal
    weights in ``x2``, which sum to ``2 m`` up to rounding.
    """

    domain: StripDomain
    nx: int
    ny: int
    dx: float
    dy: float
    x1: np.ndarray = field(repr=False)
    x2: np.ndarray = field(repr=False)
    node_weights: np.ndarray = field(repr=False)
    wavenumbers: np.ndarray = field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def n_modes(self) -> int:
        return self.nx // 2 + 1

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Broadcastable node coordinates ``(X1, X2)`` of shapes (nx,1), (1,ny)."""
        return self.x1[:, None], self.x2[None, :]


def make_grid(domain: StripDomain, nx: int, ny: int) -> Grid:
    """Build the uniform grid; ``nx`` must be even and >= 8, ``ny`` >= 9.

    The lower bounds guard the biharmonic stencil (five ``x2`` points plus
    four boundary rows need at least nine nodes) and the 2/3-rule dealiasing
    band (at least a couple of resolved modes).  The cell area ``dx * dy``,
    the quadrature's node weight, must be finite.
    """
    if nx % 2 != 0:
        raise ValueError(f"nx must be even, got {nx}")
    if nx < 8:
        raise ValueError(f"nx must be >= 8, got {nx}")
    if ny < 9:
        raise ValueError(f"ny must be >= 9, got {ny}")
    dx = domain.lx / nx
    dy = 2.0 * domain.m / (ny - 1)
    if not math.isfinite(dx * dy):
        raise ValueError(f"the cell area dx * dy overflows at lx = {domain.lx:g}, "
                         f"m = {domain.m:g}")
    x1 = dx * np.arange(nx)
    x2 = -domain.m + dy * np.arange(ny)
    qw = np.full(ny, dy)
    qw[0] = qw[-1] = 0.5 * dy
    kappa = 2.0 * np.pi * np.arange(nx // 2 + 1) / domain.lx
    return Grid(domain=domain, nx=nx, ny=ny, dx=dx, dy=dy,
                x1=x1, x2=x2, node_weights=dx * qw, wavenumbers=kappa)


@dataclass(eq=False)
class Field:
    """Real scalar sample on the grid nodes (stream function, vorticity, forcing).

    A field is a read-only value: ``values`` is made read-only on
    construction (a float64 array passed in is not copied, so it turns
    read-only too), and the derivative ladder that
    ``OperatorSet.field_ladder`` keeps in ``ladder`` cannot go stale.
    ``clamped=True`` marks a field expected to vanish on both walls; it is
    carried along, never checked.
    """

    grid: Grid
    values: np.ndarray
    clamped: bool = False
    ladder: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite entries")
        self.values.flags.writeable = False


def check_same_grid(f, h):
    """Refuse two objects (fields, operator sets) whose grids differ."""
    ga, gb = f.grid, h.grid
    if ga is not gb and (ga.domain != gb.domain or ga.nx != gb.nx or ga.ny != gb.ny):
        raise ValueError("fields live on different grids")


def inner_product(f: Field, h: Field) -> float:
    """L2 pairing: the :func:`quadrature` of ``f h``."""
    check_same_grid(f, h)
    return float(quadrature(f.values * h.values, f.grid.node_weights))


def l2_norm(f: Field) -> float:
    return float(np.sqrt(max(inner_product(f, f), 0.0)))


def quadrature(integrand: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Grid quadrature of every trailing ``(nx, ny)`` block of ``integrand``.

    The package's one grid integral, but for the streaming modulus, which
    stores its channels premultiplied by the root of its weights.
    ``weights`` are the grid's ``node_weights``, of shape ``(ny,)``, or
    those times the sampled weight array, of shape ``(nx, ny)``.  Leading
    axes are kept, so a stack of channels gives one value per channel.
    Field weights take one ``matmul`` of the flattened blocks against the
    flattened weights: for one block that is a flat dot product, and a
    contiguous ``integrand`` is not copied.
    """
    if weights.ndim == 1:
        return (integrand @ weights).sum(axis=-1)
    return integrand.reshape(*integrand.shape[:-2], -1) @ weights.ravel()


def squared_quadrature(stack: np.ndarray, *weights: np.ndarray) -> np.ndarray:
    """The squared norms: the :func:`quadrature` of each channel of ``stack``,
    squared into one field buffer, against each of ``weights``, a row each."""
    sq = np.empty(stack.shape[1:])  # first: after out, it raised a 128x129 run's peak RSS 0.45 MiB
    out = np.empty((len(weights), len(stack)))
    for i, channel in enumerate(stack):
        np.multiply(channel, channel, out=sq)
        out[:, i] = [quadrature(sq, w) for w in weights]
    return out
