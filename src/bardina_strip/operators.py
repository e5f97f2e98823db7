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

from .strip_grid import Field, Grid, _check_same_grid, inner_product, l2_norm

__all__ = ["OperatorSet", "d2_matrix", "d2_wall_rows", "trilinear_relative"]


def d2_values(values: np.ndarray, dy: float, axis: int = 1) -> np.ndarray:
    """First ``x2`` derivative along ``axis``, one-sided at the walls.

    Every element gets the same arithmetic whichever axis holds ``x2``.
    """
    out = np.empty_like(values)
    v, o = np.moveaxis(values, axis, 0), np.moveaxis(out, axis, 0)
    o[1:-1] = (v[2:] - v[:-2]) / (2.0 * dy)
    o[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dy)
    o[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dy)
    return out


def d2sq_values(values: np.ndarray, dy: float) -> np.ndarray:
    """Second ``x2`` derivative along axis 1, one-sided at the walls."""
    out = np.empty_like(values)
    dy2 = dy * dy
    out[:, 1:-1] = (values[:, :-2] - 2.0 * values[:, 1:-1] + values[:, 2:]) / dy2
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
        _check_same_grid(f, self)
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

    def ladder(self, values: np.ndarray) -> np.ndarray:
        """The derivative set of the anisotropic norms, stacked ``(7, nx, ny)``.

        Channels in order: ``f, d1 f, d2 f, d1 d1 f, d1 d2 f, lap f,
        d1 lap f``, so the ``l2``, ``h1h`` and ``h2h`` norms use the first
        one, two and five.  One forward transform feeds the four spectral
        channels, which come back through one batched inverse transform;
        ``d2 f`` and ``d1 d2 f`` are the ``x2`` stencil applied to ``f`` and
        ``d1 f``.
        """
        nx, dy = self.grid.nx, self.grid.dy
        c = np.fft.rfft(values, axis=0)
        ik = self._ik[:, None]
        modal = np.empty((4,) + c.shape, dtype=np.complex128)
        np.multiply(ik, c, out=modal[0])
        np.multiply(ik ** 2, c, out=modal[1])
        modal[2] = self.laplacian_modal(c)
        del c
        np.multiply(ik, modal[2], out=modal[3])
        # each stage is freed once used, so the result is allocated next to
        # the inverse transform's output alone
        spectral = np.fft.irfft(modal, n=nx, axis=1)
        del modal
        out = np.empty((7, nx, self.grid.ny))
        out[0] = values
        out[[1, 3, 5, 6]] = spectral
        del spectral
        out[2] = d2_values(values, dy)
        out[4] = d2_values(out[1], dy)
        return out

    def field_ladder(self, f: Field) -> np.ndarray:
        """:meth:`ladder` of ``f.values``, computed once per frozen field.

        A frozen field (every solver state is one) keeps its ladder, read-only,
        in ``f.cache``, so every consumer of a recorded state shares one
        stack; any ``OperatorSet`` on the same grid computes the same bits.
        A writable field gets a fresh stack on every call.
        """
        _check_same_grid(f, self)
        frozen = not f.values.flags.writeable
        hit = f.cache.get("ladder")
        if frozen and hit is not None and hit[0] is f.values:
            return hit[1]
        stack = self.ladder(f.values)
        if frozen:
            stack.flags.writeable = False
            f.cache["ladder"] = (f.values, stack)
        return stack

    def laplacian_modal(self, coeffs: np.ndarray) -> np.ndarray:
        return d2sq_values(coeffs, self.grid.dy) - self._k2[:, None] * coeffs

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

        def trunc(values):
            return np.fft.irfft(self.dealias_modal(np.fft.rfft(values, axis=0)), n=nx, axis=0)

        lu, lv = self.ladder(trunc(u.values)), self.ladder(trunc(v.values))
        return Field(self.grid, trunc(lv[2] * lu[6] - lv[1] * d2_values(lu[5], self.grid.dy)))

    def advection_modal(self, u_hat: np.ndarray, v_hat: np.ndarray,
                        lap_u_hat: np.ndarray | None = None,
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dealiased divergence form ``d1(d2(v) lap u) - d2(d1(v) lap u)``, the
        advective term the solver integrates, from and to ``x1`` coefficients;
        also the values of ``d1 v`` and ``d2 v`` of the truncated ``v``.

        ``lap_u_hat`` is the :meth:`laplacian_modal` of ``u_hat``, if the caller
        has it.  The Laplacian acts mode by mode, so truncating it is bitwise
        the Laplacian of the truncated ``u``.  The work arrays hold the ``x1``
        modes on their last, contiguous axis: the three kept factors come back
        through one batched inverse transform and the two products go out
        through one batched forward transform, both along that axis, and the
        ``x2`` stencils act along axis 0.  Every element gets the arithmetic
        of one transform per factor along ``x1``, so the results are those
        bits.  ``d1 v`` and ``d2 v`` are ``(nx, ny)`` transposed views.
        """
        nx, ny, dy = self.grid.nx, self.grid.ny, self.grid.dy
        kept = self._kept
        ik = self._ik[:kept]
        modal = np.zeros((3, ny, self.grid.n_modes), dtype=np.complex128)
        factors = modal[:, :, :kept]  # the modes beyond stay zero
        factors[1] = v_hat[:kept].T
        np.multiply(ik, factors[1], out=factors[0])
        lap_u_hat = self.laplacian_modal(u_hat) if lap_u_hat is None else lap_u_hat
        factors[2] = lap_u_hat[:kept].T
        d1v, v, lap = np.fft.irfft(modal, n=nx, axis=-1)
        # each batch is freed once transformed: held together to the end,
        # they set the step's peak memory on large grids
        del modal, factors
        d2v = d2_values(v, dy, axis=0)
        products = np.empty((2, ny, nx))
        np.multiply(d2v, lap, out=products[0])
        np.multiply(d1v, lap, out=products[1])
        d2v_lap, d1v_lap = np.fft.rfft(products, axis=-1)[:, :, :kept]
        del products
        b_hat = np.zeros((self.grid.n_modes, ny), dtype=np.complex128)
        b_hat[:kept] = (ik * d2v_lap - d2_values(d1v_lap, dy, axis=0)).T
        return b_hat, d1v.T, d2v.T

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

    def trilinear_identity_relative(self, u: Field, v: Field, w: Field) -> tuple[float, float]:
        """:func:`trilinear_relative` of the conservative form."""
        return trilinear_relative(self.bilinear_B_conservative(u, v),
                                  self.bilinear_B_conservative(u, w), v, w)


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
