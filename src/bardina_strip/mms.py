"""Manufactured reference solutions and their exact forcing.

Each reference is a closed-form clamped stream function ``v*(x, t)``.  The
forcing that makes it an exact solution of the filtered model,

    g = (1 - alpha^2 d1^2) lap v*_t + B(v*, v*) - nu (1 - alpha^2 d1^2) lap^2 v*,

is derived symbolically once per parameter set and evaluated at the grid
nodes.  With ``alpha = 0`` the same expression is the residual of the
unfiltered stream-function equation.  Time-dependent forcing is allowed
here (and only here).  The solution alone, as an initial condition, is
lambdified once per ``(name, lx, m)`` and needs no derivation.
"""

from __future__ import annotations

import functools

import numpy as np
import sympy as sym

from .strip_grid import Field, Grid

__all__ = ["ManufacturedReference", "get_reference", "solution_field"]

_X1, _X2, _T = sym.symbols("x1 x2 t", real=True)


def _envelope(m):
    return (1 - (_X2 / m) ** 2) ** 2


def _catalog(lx: float, m: float) -> dict[str, sym.Expr]:
    k = 2 * sym.pi / lx
    env = _envelope(m)
    odd = (_X2 / m) * env
    return {
        # single horizontal mode with a pulsing amplitude
        "pulsing_mode": (1 + sym.Rational(1, 2) * sym.cos(sym.Rational(13, 10) * _T))
        * sym.sin(k * _X1) * env,
        # two modes with distinct vertical profiles and phases
        "two_mode": (1 + sym.Rational(1, 2) * sym.cos(sym.Rational(13, 10) * _T))
        * sym.sin(k * _X1) * env
        + sym.Rational(2, 5) * sym.sin(sym.Rational(7, 10) * _T + sym.Rational(3, 10))
        * sym.cos(k * _X1) * odd,
        # steady field: the time-derivative part of the residual vanishes
        "steady_mode": sym.sin(k * _X1) * env + sym.Rational(1, 3) * odd,
        # trivial reference: zero solution, zero forcing
        "zero_field": sym.Integer(0) * _X1,
    }


@functools.lru_cache(maxsize=16)
def _solution(name: str, lx: float, m: float):
    """Closed form ``v*`` of ``name`` and its lambdified evaluator."""
    catalog = _catalog(lx, m)
    if name not in catalog:
        raise ValueError(f"unknown reference {name!r}; "
                         f"available: {sorted(catalog)}")
    v = catalog[name]
    return v, sym.lambdify((_X1, _X2, _T), v, modules="numpy")


def _sample(fn, grid: Grid, t: float) -> np.ndarray:
    x1, x2 = grid.mesh()
    return np.broadcast_to(fn(x1, x2, t), grid.shape).astype(float)


def solution_field(name: str, grid: Grid, t: float) -> Field:
    """``v*`` of ``name`` at time ``t``, without deriving any forcing."""
    _, fn = _solution(name, grid.domain.lx, grid.domain.m)
    return Field(grid, _sample(fn, grid, t), clamped=True)


class ManufacturedReference:
    """Lambdified reference solution and forcing for fixed parameters."""

    def __init__(self, name: str, lx: float, m: float, nu: float, alpha: float):
        v, self._v = _solution(name, lx, m)

        def lap(expr):
            return sym.diff(expr, _X1, 2) + sym.diff(expr, _X2, 2)

        def a_h(expr):
            return expr - alpha ** 2 * sym.diff(expr, _X1, 2)

        lap_v = lap(v)
        advection = (sym.diff(v, _X2) * sym.diff(lap_v, _X1)
                     - sym.diff(v, _X1) * sym.diff(lap_v, _X2))
        g = a_h(lap(sym.diff(v, _T))) + advection - nu * a_h(lap(lap_v))
        self._g = sym.lambdify((_X1, _X2, _T), sym.expand(g), modules="numpy")

    def solution_field(self, grid: Grid, t: float) -> Field:
        return Field(grid, _sample(self._v, grid, t), clamped=True)

    def forcing_field(self, grid: Grid, t: float) -> Field:
        return Field(grid, _sample(self._g, grid, t))


@functools.lru_cache(maxsize=16)
def get_reference(name: str, lx: float, m: float, nu: float,
                  alpha: float) -> ManufacturedReference:
    return ManufacturedReference(name, lx, m, nu, alpha)
