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

# the bytes of one row of an x2-row block, which set its height: a row of
# nx float64 values in the advection (about six such arrays at once), of
# n_modes complex128 coefficients in the modal Laplacian and the step's
# right-hand side.  In process on 2 vCPUs, one BLAS thread, the advection at
# 512 x 513 took 9.0 ms in blocks of 32 or 64 rows, 10.6 ms in 128s and
# 15.7 ms as one block, with a tracemalloc peak of 7.4 fields against 2.6 in
# 64s; 128 x 129 is one block, 1.18 ms (0.99 in 32s).  At 512 x 513 a modal
# block is 63 rows, about 250 KiB, so it stays in a 2 MiB L2 cache through
# all of its passes.
ADVECTION_BLOCK_BYTES = 2 ** 18
H1_CHANNELS, H2H_CHANNELS = 3, 5  # the ladder prefixes of the H^1 and H^{2,h} norms


def _divide(x: np.ndarray, c: float, out: np.ndarray | None = None) -> np.ndarray:
    """``x / c`` for a real ``c``; a complex ``x`` is multiplied by ``1 / c``.

    numpy divides a complex array by a real as by ``c + 0j`` (Smith's
    algorithm), which evaluates to that product: bit for bit, but for the
    sign of a zero part where ``x`` holds a negative zero, at a third of the
    cost.  A real ``x`` keeps its division, which the product would move by
    an ulp.
    """
    if np.iscomplexobj(x):
        return np.multiply(x, 1.0 / c, out=out)
    return np.divide(x, c, out=out)


def d2_values(values: np.ndarray, dy: float, axis: int = 1,
              out: np.ndarray | None = None) -> np.ndarray:
    """First ``x2`` derivative along ``axis``, one-sided at the walls, into
    ``out`` if given.

    Every element gets the same arithmetic whichever axis holds ``x2``; a
    complex ``values`` is multiplied by ``1 / (2 dy)`` (:func:`_divide`).
    """
    out = np.empty_like(values) if out is None else out
    v, o = values.swapaxes(axis, 0), out.swapaxes(axis, 0)
    _divide(np.subtract(v[2:], v[:-2], out=o[1:-1]), 2.0 * dy, out=o[1:-1])
    o[0] = _divide(-3.0 * v[0] + 4.0 * v[1] - v[2], 2.0 * dy)
    o[-1] = _divide(3.0 * v[-1] - 4.0 * v[-2] + v[-3], 2.0 * dy)
    return out


def d2sq_values(values: np.ndarray, dy: float, rows: slice = slice(None),
                out: np.ndarray | None = None) -> np.ndarray:
    """Second ``x2`` derivative along axis 1, one-sided at the walls, at the
    ``rows`` of ``values`` (all of them by default), into ``out`` if given.

    A row block reads its neighbours' rows as halo, so blocks of any height
    give the bits of the whole array.  A complex ``values`` is multiplied by
    ``1 / dy^2`` (:func:`_divide`).
    """
    ny = values.shape[1]
    j0, j1, _ = rows.indices(ny)
    out = np.empty_like(values[:, j0:j1]) if out is None else out
    dy2 = dy * dy
    a, b = max(j0, 1), min(j1, ny - 1)  # the interior rows: (lo - 2 v + hi) / dy2
    mid = np.multiply(2.0, values[:, a:b], out=out[:, a - j0:b - j0])
    np.subtract(values[:, a - 1:b - 1], mid, out=mid)
    _divide(np.add(mid, values[:, a + 1:b + 1], out=mid), dy2, out=mid)
    if j0 == 0:
        out[:, 0] = _divide(2.0 * values[:, 0] - 5.0 * values[:, 1]
                            + 4.0 * values[:, 2] - values[:, 3], dy2)
    if j1 == ny:
        out[:, -1] = _divide(2.0 * values[:, -1] - 5.0 * values[:, -2]
                             + 4.0 * values[:, -3] - values[:, -4], dy2)
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
        the stepper multiplies its explicit terms by its reciprocal."""
        return 1.0 + (alpha * self.grid.wavenumbers) ** 2

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

    def row_blocks(self, row_bytes: int) -> list[slice]:
        """The ``x2`` rows in blocks of about ``ADVECTION_BLOCK_BYTES``, for
        work arrays of ``row_bytes`` per row; the last block may be shorter."""
        ny = self.grid.ny
        rows = max(1, ADVECTION_BLOCK_BYTES // row_bytes)
        return [slice(j0, min(j0 + rows, ny)) for j0 in range(0, ny, rows)]

    def laplacian_modal(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``(D2 - kappa^2) coeffs`` into ``out`` if given, in blocks of
        modal rows (:meth:`row_blocks`), each through every pass in cache."""
        out = np.empty_like(coeffs) if out is None else out
        k2 = self._k2[:, None]
        for rows in self.row_blocks(16 * self.grid.n_modes):
            lap = d2sq_values(coeffs, self.grid.dy, rows, out=out[:, rows])
            np.subtract(lap, k2 * coeffs[:, rows], out=lap)
        return out

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
        of ``x2`` rows (:meth:`row_blocks`), so the work arrays scale with a
        block; they are allocated once per call.  A block gathers its rows and
        the ``x2`` stencil's halo (a row each side; at a wall the one-sided
        stencil's three rows) into rows with the ``x1`` modes on their
        contiguous last axis, zero past the kept modes, which no block writes:
        one batched inverse transform gives the three factors, and the two
        products' forward transforms write straight into full-width spectra
        rows, the first of them the result's; a running maximum keeps the
        speed.  Every element gets the arithmetic of one transform per factor
        along ``x1`` and the whole grid's stencil rows, whatever the block
        height.
        """
        nx, ny, dy = self.grid.nx, self.grid.ny, self.grid.dy
        kept = self._kept
        ik = self._ik[:kept]
        lap_u_hat = self.laplacian_modal(u_hat) if lap_u_hat is None else lap_u_hat
        # each block's rows with their halo, g0 <= j0 < j1 <= g1
        spans = [(rows, max(min(rows.start - 1, ny - 3), 0), min(max(rows.stop + 1, 3), ny))
                 for rows in self.row_blocks(8 * nx)]
        height = max(g1 - g0 for _, g0, g1 in spans)
        factors = np.zeros((3, height, self.grid.n_modes), dtype=np.complex128)
        values = np.empty((3, height, nx))
        # the products' spectra, x2 rows outermost; the first becomes the
        # result, (n_modes, ny) in Fortran order
        b_hat = np.empty((ny, self.grid.n_modes), dtype=np.complex128)
        d1v_lap = np.empty_like(b_hat)
        speed2 = -np.inf
        for rows, g0, g1 in spans:
            kf = factors[:, :g1 - g0, :kept]
            kf[1] = v_hat[:kept, g0:g1].T
            np.multiply(ik, kf[1], out=kf[0])
            kf[2] = lap_u_hat[:kept, g0:g1].T
            np.fft.irfft(factors[:, :g1 - g0], n=nx, axis=-1, out=values[:, :g1 - g0])
            inner = slice(rows.start - g0, rows.stop - g0)
            d2v = d2_values(values[1, :g1 - g0], dy, axis=0)[inner]
            d1v, v, lap = values[:, inner]
            # the products overwrite v and lap, which they no longer need
            np.fft.rfft(np.multiply(d2v, lap, out=v), axis=-1, out=b_hat[rows])
            np.fft.rfft(np.multiply(d1v, lap, out=lap), axis=-1, out=d1v_lap[rows])
            d1v *= d1v
            d1v += np.multiply(d2v, d2v, out=d2v)
            speed2 = np.maximum(speed2, d1v.max())
        del factors, values, d1v, v, lap, d2v  # before the stencil's output
        d2v_lap = np.multiply(ik, b_hat[:, :kept], out=b_hat[:, :kept])
        np.subtract(d2v_lap, d2_values(d1v_lap[:, :kept], dy, axis=0), out=d2v_lap)
        b_hat[:, kept:] = 0.0
        return b_hat.T, float(speed2)

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
