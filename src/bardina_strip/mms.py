"""Manufactured reference solutions and their exact forcing.

Each reference is a closed-form clamped stream function ``v*(x, t)``: a sum
of separable terms ``a(t) trig(n k x1) P(x2)``, ``k = 2 pi / lx``, where the
time factor ``a`` is a product of ``cos`` or ``sin(omega t + phi)`` factors,
``trig`` is ``sin`` or ``cos`` and ``P`` is a polynomial.  The forcing that
makes ``v*`` an exact solution of the filtered model,

    g = (1 - alpha^2 d1^2) lap v*_t + B(v*, v*) - nu (1 - alpha^2 d1^2) lap^2 v*,

is such a sum too, derived exactly by term algebra: ``d/dt`` is the product
rule on the time factor, ``d1`` swaps the trig factor, ``d2``
differentiates ``P``, the filter is the scalar ``1 + (alpha n k)^2``, and a
product of two trig factors splits into trig factors at ``n_i +- n_j``.
Terms that share a time factor are summed into one field, so
``g = sum_j c_j(t) S_j`` and a grid samples each ``S_j`` once.  The solution
alone, as an initial condition or a reference, is evaluated from the
catalog's terms and needs no derivation.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial import Polynomial

from .strip_grid import Field, Grid

__all__ = ["ManufacturedReference", "get_reference", "solution_field"]

_PULSE, _PHASE = (("cos", 1.3, 0.0),), (("sin", 0.7, 0.3),)
# name -> terms (c, a, trig, n, P) of c a(t) trig(n k x1) P(x2): a time factor
# is a sorted tuple of (cos | sin, omega, phi), () the constant 1; the
# profiles are the envelope (1 - (x2/m)^2)^2 and its odd partner (x2/m) env
_CATALOG = {
    # single horizontal mode with a pulsing amplitude
    "pulsing_mode": ((1.0, (), "sin", 1, "env"), (0.5, _PULSE, "sin", 1, "env")),
    # two modes with distinct vertical profiles and phases
    "two_mode": ((1.0, (), "sin", 1, "env"), (0.5, _PULSE, "sin", 1, "env"),
                 (0.4, _PHASE, "cos", 1, "odd")),
    # steady field: the time-derivative part of the residual vanishes
    "steady_mode": ((1.0, (), "sin", 1, "env"), (1 / 3, (), "cos", 0, "odd")),
    # trivial reference: zero solution, zero forcing
    "zero_field": (),
}
_DERIVATIVE = {"sin": ("cos", 1.0), "cos": ("sin", -1.0)}  # d sin = cos, d cos = -sin
# trig_a(x) trig_b(y) = 1/2 sum of sign trig(x + s y) over its (trig, s, sign)
_PRODUCT = {("sin", "sin"): (("cos", -1, 1.0), ("cos", 1, -1.0)),
            ("cos", "cos"): (("cos", -1, 1.0), ("cos", 1, 1.0)),
            ("sin", "cos"): (("sin", 1, 1.0), ("sin", -1, 1.0)),
            ("cos", "sin"): (("sin", 1, 1.0), ("sin", -1, -1.0))}


def _add(terms: dict, key: tuple, p: Polynomial):
    """Add ``p`` to the term at ``key``: a sum of terms maps
    ``(time factor, trig, n)`` to the ``x2`` polynomial, constant folded in."""
    terms[key] = terms[key] + p if key in terms else p


def _solution(name: str, m: float) -> dict:
    if name not in _CATALOG:
        raise ValueError(f"unknown reference {name!r}; available: {sorted(_CATALOG)}")
    try:
        inv_m2 = 1.0 / m ** 2
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"m = {m:g} is out of range for the reference {name!r}") from None
    env = Polynomial([1.0, 0.0, -inv_m2]) ** 2
    profiles = {"env": env, "odd": Polynomial([0.0, 1.0 / m]) * env}
    terms = {}
    for c, time, trig, n, profile in _CATALOG[name]:
        _add(terms, (time, trig, n), c * profiles[profile])
    return terms


def _time_values(times, t: float) -> np.ndarray:
    return np.array([math.prod(getattr(math, f)(omega * t + phi) for f, omega, phi in time)
                     for time in times], dtype=float)


def _separate(terms: dict, lx: float, grid: Grid, what: str):
    """``(time factors, S)``: the distinct time factors, sorted for a fixed
    summation order, and the sum of each one's terms at the grid nodes.
    ``S`` beyond the float range is a ``ValueError`` that starts with ``what``."""
    times = sorted({time for time, _, _ in terms}) or [()]
    fields = np.zeros((len(times), *grid.shape))
    with np.errstate(over="ignore", invalid="ignore"):
        for (time, trig, n), p in terms.items():
            x1_factor = getattr(np, trig)(2.0 * np.pi / lx * n * grid.x1)
            fields[times.index(time)] += np.outer(x1_factor, p(grid.x2))
    if not np.all(np.isfinite(fields)):
        raise ValueError(f"{what} overflows on the grid at lx = {lx:g}, m = {grid.domain.m:g}")
    return times, fields


def solution_field(name: str, grid: Grid, t: float) -> Field:
    """``v*`` of ``name`` at time ``t``, without deriving any forcing."""
    times, fields = _separate(_solution(name, grid.domain.m), grid.domain.lx, grid,
                              f"the reference {name!r}")
    values = sum(c * s for c, s in zip(_time_values(times, t), fields))
    return Field(grid, values, clamped=True)


class ManufacturedReference:
    """The forcing of ``v*`` for fixed parameters: the residual's terms,
    grouped by their time factor, give ``g = sum_j c_j(t) S_j``."""

    def __init__(self, name: str, lx: float, m: float, nu: float, alpha: float):
        k = 2.0 * np.pi / lx

        def each(terms, f):  # the polynomial p of each term at mode n becomes f(n, p)
            return {(time, trig, n): f(n, p) for (time, trig, n), p in terms.items()}

        def lap(terms):
            return each(terms, lambda n, p: p.deriv(2) - (n * k) ** 2 * p)

        def a_h(terms):
            return each(terms, lambda n, p: (1.0 + (alpha * n * k) ** 2) * p)

        def d1(terms):  # a term constant in x1 differentiates to nothing
            out = {}
            for (time, trig, n), p in terms.items():
                dtrig, sign = _DERIVATIVE[trig]
                if n:
                    _add(out, (time, dtrig, n), sign * n * k * p)
            return out

        def d_t(terms):  # the product rule on the time factor
            out = {}
            for (time, trig, n), p in terms.items():
                for i, (f, omega, phi) in enumerate(time):
                    df, sign = _DERIVATIVE[f]
                    rest = time[:i] + time[i + 1:] + ((df, omega, phi),)
                    _add(out, (tuple(sorted(rest)), trig, n), sign * omega * p)
            return out

        def mul(a, b):  # the product of two sums of terms
            out = {}
            for (ta, fa, na), pa in a.items():
                for (tb, fb, nb), pb in b.items():
                    time, half = tuple(sorted(ta + tb)), 0.5 * (pa * pb)
                    for trig, s, sign in _PRODUCT[fa, fb]:
                        n = na + s * nb  # sin(-x) = -sin(x), and sin(0) vanishes
                        if trig == "cos" or n:
                            _add(out, (time, trig, abs(n)),
                                 (-sign if n < 0 and trig == "sin" else sign) * half)
            return out

        v = _solution(name, m)
        self._terms = {}
        # coefficients that overflow here give a non-finite forcing, which
        # sample refuses with the parameters
        with np.errstate(over="ignore", invalid="ignore"):
            lap_v = lap(v)
            d2_v, d2_lap = (each(u, lambda n, p: p.deriv()) for u in (v, lap_v))
            for w, part in ((1.0, a_h(lap(d_t(v)))), (1.0, mul(d2_v, d1(lap_v))),
                            (-1.0, mul(d1(v), d2_lap)), (-nu, a_h(lap(lap_v)))):
                for key, p in part.items():
                    _add(self._terms, key, w * p)
        self._lx = lx
        self._what = f"the forcing of the reference {name!r} at nu = {nu:g}, alpha = {alpha:g}"

    def sample(self, grid: Grid):
        """``(S, c)``: the ``S_j`` stacked at the grid nodes and ``t -> (c_j)``."""
        times, fields = _separate(self._terms, self._lx, grid, self._what)
        return fields, functools.partial(_time_values, times)


@functools.lru_cache(maxsize=16)
def get_reference(name: str, lx: float, m: float, nu: float,
                  alpha: float) -> ManufacturedReference:
    return ManufacturedReference(name, lx, m, nu, alpha)
