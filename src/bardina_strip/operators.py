"""Discrete differential operators, the Helmholtz filter and the
vorticity-advection bilinear form, all acting on ``x1`` Fourier coefficients.

Horizontal derivatives are spectral (exact on resolved modes, Nyquist mode
zeroed for odd derivatives); vertical derivatives use centered second-order
stencils with one-sided second-order closures on the wall rows.  The filter
``I - alpha^2 d1^2`` is the per-mode symbol ``1 + (alpha kappa)^2``.  Quadratic
products are dealiased in ``x1`` with the 2/3 rule: both factors and the
product are truncated to wavenumber indices ``k < nx / 3``.
"""

from __future__ import annotations

import numpy as np

from .strip_grid import Field, Grid, check_same_grid, inner_product, l2_norm

__all__ = ["ADVECTION_BLOCK_BYTES", "H1_CHANNELS", "H2H_CHANNELS", "OperatorSet",
           "d2_matrix", "d2_wall_rows", "trilinear_relative"]

# the bytes of one (rows, nx) float64 array of an advection block, which set
# its height (about six such arrays at once).  In process on 2 vCPUs, one BLAS
# thread, the advection at 512 x 513 took 9.0 ms in blocks of 32 or 64 rows,
# 10.6 ms in 128s and 15.7 ms as one block, with a tracemalloc peak of 7.4
# fields against 2.6 in 64s; 128 x 129 is one block, 1.18 ms (0.99 in 32s).
ADVECTION_BLOCK_BYTES = 2 ** 18
H1_CHANNELS, H2H_CHANNELS = 3, 5  # the ladder prefixes of the H^1 and H^{2,h} norms


def d2_values(values: np.ndarray, dy: float, axis: int = 1,
              out: np.ndarray | None = None) -> np.ndarray:
    """First ``x2`` derivative along ``axis``, one-sided at the walls, into
    ``out`` if given.

    Every element gets the same arithmetic whichever axis holds ``x2``.
    """
    out = np.empty_like(values) if out is None else out
    v, o = values.swapaxes(axis, 0), out.swapaxes(axis, 0)
    np.divide(np.subtract(v[2:], v[:-2], out=o[1:-1]), 2.0 * dy, out=o[1:-1])
    o[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dy)
    o[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dy)
    return out


def d2sq_values(values: np.ndarray, dy: float) -> np.ndarray:
    """Second ``x2`` derivative along axis 1, one-sided at the walls."""
    out = np.empty_like(values)
    dy2 = dy * dy
    mid = np.multiply(2.0, values[:, 1:-1], out=out[:, 1:-1])  # (lo - 2 v + hi) / dy2
    np.subtract(values[:, :-2], mid, out=mid)
    np.divide(np.add(mid, values[:, 2:], out=mid), dy2, out=mid)
    out[:, 0] = (2.0 * values[:, 0] - 5.0 * values[:, 1]
                 + 4.0 * values[:, 2] - values[:, 3]) / dy2
    out[:, -1] = (2.0 * values[:, -1] - 5.0 * values[:, -2]
                  + 4.0 * values[:, -3] - values[:, -4]) / dy2
    return out


def d2_matrix(ny: int, dy: float) -> np.ndarray:
    """Dense ``x2`` second-derivative matrix matching :func:`d2sq_values`."""
    return np.ascontiguousarray(d2sq_values(np.eye(ny), dy).T)


def d2_wall_rows(ny: int, dy: float) -> np.ndarray:
    """Rows of the ``x2`` first-derivative matrix of :func:`d2_values` at the
    two walls, shape ``(2, ny)``: ``x2 = -M`` first, then ``x2 = +M``."""
    return d2_values(np.eye(ny), dy)[:, [0, -1]].T


class OperatorSet:
    """Differential operators bound to one grid.

    Quadratic products (the bilinear forms) are always dealiased: the 2/3
    rule truncates their factors and results in ``x1``.  Linear operators
    are never dealiased.  ``dealias`` has no effect; it is still accepted
    because ``perfbench/worker.py`` passes it.
    """

    def __init__(self, grid: Grid, *, dealias: bool = True):
        self.grid = grid
        self._ik = 1j * grid.wavenumbers.astype(np.complex128)  # d1 per mode
        if grid.nx % 2 == 0:
            self._ik[-1] = 0.0  # odd derivatives zero the Nyquist mode
        with np.errstate(over="ignore"):  # the implicit set-up names an overflow
            self._k2 = grid.wavenumbers ** 2
        self._kept = (grid.nx + 2) // 3  # the 2/3 rule keeps the modes k < nx / 3

    # -- linear operators ---------------------------------------------------

    def helmholtz(self, alpha: float) -> np.ndarray:
        """Per-mode symbol ``1 + (alpha kappa_k)^2`` of ``I - alpha^2 d1^2``;
        the stepper divides its explicit terms by it."""
        return 1.0 + (alpha * self.grid.wavenumbers) ** 2

    def _scale_modes(self, f: Field, scale: np.ndarray) -> Field:
        check_same_grid(f, self)
        coeffs = np.fft.rfft(f.values, axis=0)
        coeffs *= scale[:, None]
        return Field(self.grid, np.fft.irfft(coeffs, n=self.grid.nx, axis=0),
                     clamped=f.clamped)

    def apply_Ah(self, f: Field, alpha: float) -> Field:
        """``(I - alpha^2 d1^2) f``: each mode times :meth:`helmholtz`."""
        return self._scale_modes(f, self.helmholtz(alpha))

    def invert_Ah(self, f: Field, alpha: float) -> Field:
        """The horizontal filter: each mode divided by :meth:`helmholtz`, which
        is never below one, so smoothing in ``x1`` with no boundary condition."""
        return self._scale_modes(f, 1.0 / self.helmholtz(alpha))

    def ladder(self, values: np.ndarray, coeffs: np.ndarray | None = None) -> np.ndarray:
        """The derivative set of the anisotropic norms, stacked ``(7, nx, ny)``.

        Channels in order: ``f, d1 f, d2 f, d1 d1 f, d1 d2 f, lap f,
        d1 lap f``; the ``l2``, ``h1h``, ``H^1`` and ``h2h`` norms use the
        first 1, 2, ``H1_CHANNELS`` and ``H2H_CHANNELS``.  ``coeffs`` are the
        ``x1`` coefficients of ``values``, ``rfft(values)`` if not given; a
        solver state passes its ``v_hat``, whose values are ``irfft(v_hat)``,
        so its ladder needs no forward transform.  Channel 0 is ``values``
        itself.  The four spectral channels are formed two at a time in a
        two-channel modal work array, and each pair comes back through one
        batched inverse transform written straight into the stack; ``d2 f``
        and ``d1 d2 f`` are the ``x2`` stencil applied to ``f`` and ``d1 f``.
        The work array is allocated per call: at 128 x 129 with a record
        every step, a run takes 31 minor page faults per step this way and 32
        with the array kept across calls, and kept it would hold 4.2 MB
        through every step at 512 x 513.
        """
        nx, dy = self.grid.nx, self.grid.dy
        if coeffs is None:
            coeffs = np.fft.rfft(values, axis=0)
        # each channel in Fortran order, as a solver state's v_hat
        modal = np.empty((2, self.grid.ny, self.grid.n_modes), np.complex128).transpose(0, 2, 1)
        ik = self._ik[:, None]
        # the Laplacian's temporaries come and go before the stack exists
        self.laplacian_modal(coeffs, out=modal[0])
        np.multiply(ik, modal[0], out=modal[1])
        out = np.empty((7, nx, self.grid.ny))
        np.fft.irfft(modal, n=nx, axis=1, out=out[5:7])
        np.multiply(ik, coeffs, out=modal[0])
        np.multiply(ik ** 2, coeffs, out=modal[1])
        np.fft.irfft(modal, n=nx, axis=1, out=out[1:4:2])
        out[0] = values
        d2_values(values, dy, out=out[2])
        d2_values(out[1], dy, out=out[4])
        return out

    def field_ladder(self, f: Field, coeffs: np.ndarray | None = None) -> np.ndarray:
        """:meth:`ladder` of ``f.values`` and ``coeffs``, computed once per field.

        The stack is kept, read-only, in ``f.ladder``, so every consumer of
        a recorded state shares one stack, the one its first consumer built;
        any ``OperatorSet`` on the same grid computes the same bits.
        """
        check_same_grid(f, self)
        if f.ladder is None:
            f.ladder = self.ladder(f.values, coeffs)
            f.ladder.flags.writeable = False
        return f.ladder

    def laplacian_modal(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # with no out, the x2 term's own buffer takes the result: a fresh
        # one costs 500 more page faults per call at 512 x 513
        lap = d2sq_values(coeffs, self.grid.dy)
        return np.subtract(lap, self._k2[:, None] * coeffs, out=lap if out is None else out)

    # -- dealiased products ---------------------------------------------------

    def dealias_modal(self, coeffs: np.ndarray) -> np.ndarray:
        out = coeffs.copy()
        out[self._kept:] = 0.0
        return out

    # -- bilinear form --------------------------------------------------------

    def bilinear_B(self, u: Field, v: Field) -> Field:
        """Pointwise form ``d2(v) d1(lap u) - d1(v) d2(lap u)``, from the
        :meth:`ladder` of the 2/3-truncated factors, the product truncated."""
        nx = self.grid.nx

        def trunc(values):  # the truncated values and their x1 coefficients
            coeffs = self.dealias_modal(np.fft.rfft(values, axis=0))
            return np.fft.irfft(coeffs, n=nx, axis=0), coeffs

        lu, lv = self.ladder(*trunc(u.values)), self.ladder(*trunc(v.values))
        return Field(self.grid, trunc(lv[2] * lu[6] - lv[1] * d2_values(lu[5], self.grid.dy))[0])

    def advection_modal(self, u_hat: np.ndarray, v_hat: np.ndarray,
                        lap_u_hat: np.ndarray | None = None) -> tuple[np.ndarray, float]:
        """Dealiased divergence form ``d1(d2(v) lap u) - d2(d1(v) lap u)``, the
        advective term the solver integrates, from and to ``x1`` coefficients
        (``(n_modes, ny)`` in Fortran order), with the largest
        ``(d1 v)^2 + (d2 v)^2`` of the truncated ``v``, which the CFL reads.

        ``lap_u_hat`` is the :meth:`laplacian_modal` of ``u_hat``, if the caller
        has it.  The Laplacian acts mode by mode, so truncating it is bitwise
        the Laplacian of the truncated ``u``.  The values are formed in blocks
        of ``x2`` rows (``ADVECTION_BLOCK_BYTES``), so the work arrays scale
        with a block.  A block gathers its rows and the ``x2`` stencil's halo
        (a row each side; at a wall the one-sided stencil's three rows) into
        zero-padded rows with the ``x1`` modes on their contiguous last axis:
        one batched inverse transform gives the three factors, one batched
        forward transform the two products, of which the kept modes are kept.
        Every element gets the arithmetic of one transform per factor along
        ``x1`` and the whole grid's stencil rows, whatever the block height.
        """
        nx, ny, dy = self.grid.nx, self.grid.ny, self.grid.dy
        kept = self._kept
        ik = self._ik[:kept]
        lap_u_hat = self.laplacian_modal(u_hat) if lap_u_hat is None else lap_u_hat
        rows = max(1, ADVECTION_BLOCK_BYTES // (8 * nx))
        spectra = np.empty((2, ny, kept), dtype=np.complex128)
        speed2 = []
        for j0 in range(0, ny, rows):
            j1 = min(j0 + rows, ny)
            g0, g1 = max(min(j0 - 1, ny - 3), 0), min(max(j1 + 1, 3), ny)
            # the modes beyond the kept ones are zero
            factors = np.zeros((3, g1 - g0, self.grid.n_modes), dtype=np.complex128)
            factors[1, :, :kept] = v_hat[:kept, g0:g1].T
            np.multiply(ik, factors[1, :, :kept], out=factors[0, :, :kept])
            factors[2, :, :kept] = lap_u_hat[:kept, g0:g1].T
            values = np.fft.irfft(factors, n=nx, axis=-1)
            del factors
            inner = slice(j0 - g0, j1 - g0)
            d2v = d2_values(values[1], dy, axis=0)[inner]
            d1v, v, lap = values[:, inner]
            # the products overwrite v and lap, which they no longer need
            np.multiply(d2v, lap, out=v)
            np.multiply(d1v, lap, out=lap)
            spectra[:, j0:j1] = np.fft.rfft(values[1:, inner], axis=-1)[:, :, :kept]
            d1v *= d1v
            d1v += np.multiply(d2v, d2v, out=d2v)
            speed2.append(d1v.max())
        d2v_lap, d1v_lap = spectra
        b_hat = np.zeros((ny, self.grid.n_modes), dtype=np.complex128).T
        out = d2_values(d1v_lap, dy, axis=0, out=b_hat.T[:, :kept])
        np.subtract(np.multiply(ik, d2v_lap, out=d2v_lap), out, out=out)
        return b_hat, float(np.max(speed2))

    def bilinear_B_conservative(self, u: Field, v: Field) -> Field:
        """Values of :meth:`advection_modal`.

        Identical to :meth:`bilinear_B` in the continuum; discretely this is
        the form whose pairings telescope, so it is the one used for energy
        accounting.
        """
        u_hat = np.fft.rfft(u.values, axis=0)
        v_hat = u_hat if v is u else np.fft.rfft(v.values, axis=0)
        b_hat = self.advection_modal(u_hat, v_hat)[0]
        return Field(self.grid, np.fft.irfft(b_hat, n=self.grid.nx, axis=0))


def trilinear_relative(b_uv: Field, b_uw: Field, v: Field, w: Field) -> tuple[float, float]:
    """Relative defects of the skew-symmetry pairings of one bilinear form.

    ``b_uv = B(u, v)`` and ``b_uw = B(u, w)``.  Returns ``(r1, r2)`` with
    ``r1 = |(B(u,v),w) + (B(u,w),v)|`` and ``r2 = |(B(u,v),v)|``, each divided
    by its Cauchy-Schwarz size.  Exact integration by parts makes both vanish
    for clamped ``v, w``; the residuals measure the discretization error.
    """
    r1 = abs(inner_product(b_uv, w) + inner_product(b_uw, v))
    r2 = abs(inner_product(b_uv, v))
    s1 = l2_norm(b_uv) * l2_norm(w) + l2_norm(b_uw) * l2_norm(v)
    s2 = l2_norm(b_uv) * l2_norm(v)
    return r1 / max(s1, 1e-300), r2 / max(s2, 1e-300)
