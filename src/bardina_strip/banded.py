"""Banded LU of the implicit operator's per-mode blocks, in numpy alone.

:class:`MirrorBandLU` slices the mirror halves of each pentadiagonal block
straight into the rows of :func:`lu_pentadiagonal`, the batched factorization
that eliminates them from both ends at once.  The solver imports this module
only for grids above ``solver.DENSE_INVERSE_BYTES``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MirrorBandLU", "lu_pentadiagonal"]


def lu_pentadiagonal(rows: np.ndarray) -> np.ndarray:
    """Crout factors, without pivoting, of a batch of pentadiagonal matrices.

    ``rows[i, b, s]`` is row ``i`` of matrix ``b`` at column ``i + s - 2``;
    slots outside a matrix hold zero.  The matrix is ``L U`` with ``U``
    unit upper triangular.  Returns ``(h, 5, batch)``: per row ``i`` the
    two subdiagonal entries of ``L`` (columns ``i - 2`` and ``i - 1``) and
    the two superdiagonal entries of ``U``, each divided by the pivot
    ``L[i, i]``, and the reciprocal pivot between them.  A zero or
    vanishing pivot leaves a non-finite entry.
    """
    h = rows.shape[0]
    lu = np.zeros((h, 5) + rows.shape[1:2])
    l2, l1, inv, u1, u2 = lu.transpose(1, 0, 2)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for i in range(h):
            e, c, d, a, b = rows[i].T
            if i >= 2:
                c = c - e * u1[i - 2]
                d = d - e * u2[i - 2]
            if i >= 1:
                d = d - c * u1[i - 1]
                a = a - c * u2[i - 1]
            inv[i] = 1.0 / d
            l2[i], l1[i], u1[i], u2[i] = e * inv[i], c * inv[i], a * inv[i], b * inv[i]
    return lu


class MirrorBandLU:
    """Banded LU of the implicit blocks, split by the mirror ``x2 -> -x2``.

    ``band[k, i, s]`` is row ``i`` of mode ``k``'s ``ny``-row block at
    column ``i + s - 2``, zero outside the block; only the top
    ``(ny + 1) // 2`` rows are read, so ``band`` may hold only those.  With
    its row ``ny - 2`` negated, a block commutes with the reflection
    ``j -> ny - 1 - j``, so it maps
    mirror-even columns to mirror-even ones and odd to odd.  Each half is
    the block's top ``(ny + 1) // 2`` rows with every column folded onto its
    mirror image, added (even) or subtracted (odd), and stays pentadiagonal;
    identity rows pad both halves to an even ``2 m`` rows, with a zero
    right-hand side (the odd half of an odd ``ny`` has a zero centre value).
    Band rows are sliced into both halves at once; only a half's last two
    rows reach past the centre, and they alone are folded in place.

    Each half is eliminated from both ends at once: one
    :func:`lu_pentadiagonal` call factors the first ``m`` rows of all
    ``2 n_modes`` halves and the first ``m`` of the reversed halves, which
    are their last ``m`` rows.  The four unknowns where the two ends meet
    solve a 4 x 4 system per half, inverted once.  A solve
    folds the right-hand side into the halves, scaled by the reciprocal
    pivots, sweeps inwards and then outwards one pair of rows (row ``p``
    and row ``2 m - 1 - p``) at a time, for both halves, all modes and
    both complex parts in each numpy call, and unfolds.  The factors are
    stored once per end, half and mode and broadcast over the work array's
    axis of real and imaginary parts; the fold and unfold read and write the
    contiguous modes of Fortran-ordered ``(n_modes, ny)`` arrays.
    """

    def __init__(self, band: np.ndarray, ny: int):
        n_modes = len(band)
        h = (ny + 1) // 2
        m = (h + 1) // 2
        pad = 2 * m - h
        # row r of (end, half, mode): the top end holds half row r, the
        # bottom end half row 2 m - 1 - r with its slots reversed
        rows = np.empty((m, 2, 2, n_modes, 5))
        top, bottom = rows[:, 0], rows[pad:, 1, :, :, ::-1][::-1]
        top[...] = band[:, :m].transpose(1, 0, 2)[:, None]
        bottom[...] = band[:, m:h].transpose(1, 0, 2)[:, None]
        rows[:pad, 1] = (0.0, 0.0, 1.0, 0.0, 0.0)
        # only rows h - 2 and h - 1 reach past the centre: column c >= h folds
        # onto its mirror ny - 1 - c, added (even) or subtracted (odd, as x + -y)
        q, sign = 1 - ny % 2, np.array([1.0, -1.0])[:, None, None]
        last, before = bottom[-1], bottom[-2]
        last[..., q:q + 2] += sign * last[..., 4:2:-1]
        before[..., q + 2:q + 3] += sign * before[..., 4:]
        last[..., 3:] = before[..., 4] = 0.0
        if ny % 2:  # the odd half's centre value is zero: no column, an identity row
            (top[h - 3] if h - 3 < m else bottom[h - 3 - m])[1, :, 4] = before[1, :, 3] = 0.0
            last[1] = (0.0, 0.0, 1.0, 0.0, 0.0)
        lu = lu_pentadiagonal(rows.reshape(m, 4 * n_modes, 5))
        del rows, top, bottom, last, before
        ends = (lu[:, :, :2 * n_modes], lu[:, :, 2 * n_modes:])
        # the unknowns where the ends meet, x[m - 2 .. m + 1], from the unit
        # upper rows m - 2 and m - 1 of either end
        (_, _, _, a1, a2), (_, _, _, b1, b2) = (end[m - 2:].transpose(1, 0, 2) for end in ends)
        meet = np.zeros((2 * n_modes, 4, 4))
        meet[:, np.arange(4), np.arange(4)] = 1.0
        meet[:, 0, 1:3] = np.stack([a1[0], a2[0]], 1)
        meet[:, 1, 2:4] = np.stack([a1[1], a2[1]], 1)
        meet[:, 2, 1::-1] = np.stack([b1[1], b2[1]], 1)
        meet[:, 3, 2:0:-1] = np.stack([b1[0], b2[0]], 1)
        regular = np.all(np.isfinite(lu))
        if regular:
            try:
                meet = np.linalg.inv(meet)
            except np.linalg.LinAlgError:  # exactly singular
                regular = False
        self.regular = bool(regular and np.all(np.isfinite(meet)))
        # a pair of rows is (real, imaginary part) x (top, bottom end) x
        # (even, odd) x modes: each factor is stored once and broadcast over
        # the two parts; the scale holds the halving of the unfold
        l2, l1, inv, u1, u2 = lu[:, :, None].transpose(1, 0, 2, 3)
        self._scale = 0.5 * inv
        self._meet = meet.transpose(1, 2, 0)[:, :, None]
        # once a pair is final, both pairs it enters are updated at once:
        # pairs p + 1 and p + 2 going inwards, p - 2 and p - 1 outwards;
        # the two pairs that meet are final together
        down, up = np.zeros((2, m, 2, 1, 4 * n_modes))
        down[:-1, 0], down[:-2, 1] = l1[1:], l2[2:]
        up[2:, 0], up[1:-1, 1] = u2[:-2], u1[:-2]
        # two zero pairs pad the work array at either end
        self._work = pairs = np.zeros((m + 4, 2, 4 * n_modes))
        self._inwards = [(down[p], pairs[p + 2], pairs[p + 3:p + 5]) for p in range(m - 1)]
        self._outwards = [(up[p], pairs[p + 2], pairs[p:p + 2]) for p in range(m - 1, 0, -1)]
        self._tmp = np.empty((2, 2, 4 * n_modes))
        self._tmp4 = np.empty((4, 4, 2, 2 * n_modes))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for the complex ``(n_modes, ny)`` ``rhs``; the solution is
        in Fortran order, each row's modes contiguous."""
        n_modes, ny = rhs.shape
        m, t = len(self._scale), self._tmp
        h = (ny + 1) // 2
        pad = 2 * m - h
        values = self._work[2:-2]
        w = values.reshape(m, 2, 2, 2, n_modes)
        # row j's real and imaginary parts, each with its modes contiguous
        parts = (np.ascontiguousarray(rhs.T).view(np.float64)
                 .reshape(ny, n_modes, 2).transpose(0, 2, 1))
        lo, hi = parts[:h], parts[::-1][:h]
        # the top end holds rows 0 .. m - 1, the bottom end rows 2 m - 1 .. m
        top, bottom = w[:, :, 0], w[pad:, :, 1]
        np.add(lo[:m], hi[:m], out=top[:, :, 0])
        np.subtract(lo[:m], hi[:m], out=top[:, :, 1])
        np.add(lo[:m - 1:-1], hi[:m - 1:-1], out=bottom[:, :, 0])
        np.subtract(lo[:m - 1:-1], hi[:m - 1:-1], out=bottom[:, :, 1])
        w[:pad, :, 1] = 0.0
        # row ny - 2, the mirror of row 1, enters negated
        np.subtract(lo[1], hi[1], out=top[1, :, 0])
        np.add(lo[1], hi[1], out=top[1, :, 1])
        np.multiply(values, self._scale, out=values)
        mul, sub = np.multiply, np.subtract  # small grids' sweeps are mostly call overhead
        for factors, pair, pairs in self._inwards:
            mul(factors, pair, t)
            sub(pairs, t, pairs)
        # the meeting rows m - 2, m - 1, m, m + 1
        ends = values[m - 2:].reshape(2, 2, 2, -1)
        z = ends[[0, 1, 1, 0], :, [0, 0, 1, 1]]
        np.multiply(self._meet, z, out=self._tmp4)
        ends[[0, 1, 1, 0], :, [0, 0, 1, 1]] = self._tmp4.sum(axis=1)
        for factors, pair, pairs in self._outwards:
            mul(factors, pair, t)
            sub(pairs, t, pairs)
        out = np.empty((ny, n_modes), dtype=np.complex128)
        res = out.view(np.float64).reshape(ny, n_modes, 2).transpose(0, 2, 1)
        for end, rows in ((top, slice(0, m)), (bottom[::-1], slice(m, h))):
            np.subtract(end[:, :, 0], end[:, :, 1], out=res[::-1][rows])
            np.add(end[:, :, 0], end[:, :, 1], out=res[rows])
        return out.T
