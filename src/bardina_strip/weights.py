"""Polynomial-growth Sobolev weights and their derivative certification.

Two weight families share one scale parameter ``epsilon`` and exponent
``gamma``:

* the limit weight ``phi(x) = (1 + |eps x1|^3 + |eps x2|^2)^gamma``;
* the cutoff weight ``varphi`` obtained by flattening the radical
  ``r(x) = (1 + |eps x1|^3 + |eps x2|^2)^(1/2)`` through the piecewise
  profile :func:`g_profile` with cutoff radius ``rho``, so the weight is
  constant once ``r >= rho + 1`` and equals the limit weight while
  ``r <= rho``.

:func:`make_weight_field` samples ``varphi`` at the grid nodes as one
``(nx, ny)`` array, the only weight data a run keeps, with the cutoff
profile evaluated only where ``r > rho``: the diagnostics integrate squared
channels against the grid's ``node_weights`` times it.  In the lemma that
array is ``psi^2``, with ``psi = varphi^(1/2)`` the multiplier of the
weighted Sobolev norms; ``psi`` is a symbol of the lemma, not an array.  The
certification routines measure, by high-order finite differences on an
oversampled lattice, the empirical constants in the pointwise controls

    |d^beta psi^2| <= C eps^|beta| psi      (strong form)
    |d^beta psi^2| <= C eps^|beta| psi^2    (weak form)

for multi-indices ``0 < |beta| <= 3`` with ``beta2 <= 2``.  As ``varphi(x) =
Phi(eps x)``, ``Phi`` the weight at ``epsilon = 1``, each constant is one of
``Phi`` in ``y = eps x`` on the box the strip ``|x2| <= m`` maps to: the
lattice lives in ``y``, and ``epsilon`` enters only through ``|y2| <= eps m``.
The config reader enforces ``gamma <= 2/3`` unless ``--override-gamma`` is
given; larger exponents are only meaningful for sharpness experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .strip_grid import Grid

__all__ = [
    "GAMMA_THRESHOLD",
    "WeightSpec",
    "g_profile",
    "phi_limit",
    "varphi",
    "make_weight_field",
    "lemma_beta_set",
    "certify_lemma_wfuncs",
    "certify_phi_control",
    "CertificationReport",
]

GAMMA_THRESHOLD = 2.0 / 3.0


@dataclass(frozen=True)
class WeightSpec:
    """Parameters ``(epsilon, rho, gamma)`` of one weight.

    ``rho = math.inf`` selects the limit weight.  Above ``GAMMA_THRESHOLD``
    the strong derivative control is known to fail, so such specs exist only
    to demonstrate the failure; the config reader admits them only under
    ``--override-gamma``.
    """

    epsilon: float
    rho: float = math.inf
    gamma: float = GAMMA_THRESHOLD

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (self.rho == math.inf or (np.isfinite(self.rho) and self.rho >= 1)):
            raise ValueError(f"rho must be >= 1 or inf, got {self.rho}")
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")

    @property
    def is_limit(self) -> bool:
        return self.rho == math.inf


def g_profile(tau, rho: float):
    """Piecewise cutoff profile: quadratic cap, identity, parabolic blend, plateau.

    The four branches are ``1/4 + tau^2`` on ``[0, 1/2]``, ``tau`` on
    ``[1/2, rho]``, ``rho + 1/2 - (rho + 1 - tau)^2 / 2`` on ``[rho, rho+1]``
    and the constant ``rho + 1/2`` beyond.  Values and first derivatives
    match at every junction.
    """
    if not (np.isfinite(rho) and rho >= 1):
        raise ValueError(f"rho must be >= 1 and finite, got {rho}")
    tau_arr = np.asarray(tau, dtype=np.float64)
    if np.any(tau_arr < 0):
        raise ValueError("g_profile requires tau >= 0")
    out = np.select([tau_arr <= 0.5, tau_arr <= rho, tau_arr <= rho + 1.0],
                    [0.25 + tau_arr ** 2, tau_arr, rho + 0.5 - 0.5 * (rho + 1.0 - tau_arr) ** 2],
                    rho + 0.5)
    return float(out) if np.ndim(tau) == 0 else out


def _radical_sq(x1, x2, epsilon: float):
    """``1 + |eps x1|^3 + |eps x2|^2`` (the squared radical)."""
    return 1.0 + np.abs(epsilon * np.asarray(x1)) ** 3 + (epsilon * np.asarray(x2)) ** 2


def phi_limit(x1, x2, spec: WeightSpec):
    """Limit weight ``(1 + |eps x1|^3 + |eps x2|^2)^gamma``."""
    s = _radical_sq(x1, x2, spec.epsilon)
    s **= spec.gamma  # in place on arrays, with ``**``'s arithmetic
    return s


def varphi(x1, x2, spec: WeightSpec):
    """Cutoff weight ``g(r)^(2 gamma)`` with ``r`` the radical.

    Wherever ``r <= rho`` the profile is the identity, and the value is
    computed through the same power expression as :func:`phi_limit`, so the
    two agree exactly (not merely to rounding) in that region.
    """
    if spec.is_limit:
        return phi_limit(x1, x2, spec)
    s = np.asarray(_radical_sq(x1, x2, spec.epsilon))
    # r <= rho exactly where s <= top, the largest float whose rounded root is <= rho
    top = spec.rho * spec.rho
    while math.sqrt(top) > spec.rho:
        top = math.nextafter(top, 0.0)
    while math.sqrt(math.nextafter(top, math.inf)) <= spec.rho:
        top = math.nextafter(top, math.inf)
    outside = ~(s <= top)
    general = g_profile(np.sqrt(s[outside]), spec.rho) ** (2.0 * spec.gamma)
    s **= spec.gamma
    s[outside] = general
    return s


def make_weight_field(grid: Grid, spec: WeightSpec) -> np.ndarray:
    """``varphi`` at the grid nodes, a float ``(nx, ny)`` array ``>= 1``."""
    x1, x2 = grid.mesh()
    # a radical beyond the float range lies beyond any finite rho, where the
    # cutoff weight is constant; only the limit weight can overflow
    with np.errstate(over="ignore"):
        phi = varphi(x1, x2, spec)
    if not np.all(np.isfinite(phi)):
        raise ValueError(f"the weight overflows on the grid at lx = {grid.domain.lx:g}, "
                         f"m = {grid.domain.m:g}, epsilon = {spec.epsilon:g}, "
                         f"gamma = {spec.gamma:g}")
    if np.any(phi < 1.0 - 1e-12):
        raise ValueError("weight must be >= 1 everywhere")
    return phi


# ---------------------------------------------------------------------------
# Derivative certification
# ---------------------------------------------------------------------------

_STENCILS = {
    1: (np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0, 2),
    2: (np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0, 2),
    3: (np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0, 3),
}
_PAD = 3  # widest stencil half-width
_N2 = 41  # y2 nodes of the narrowest boxes
# lattice steps across the blend along y1; along y2 the step is at most
# 1 / _BLEND_SAMPLES, as |D2 r| < 1 and 1 + y2^2 varies on the unit scale
_BLEND_SAMPLES = 30
# the constants odd in y2 shrink with the box while the rounding of their
# quotients grows: against the same lattice in extended precision (rho = 100)
# it moved a constant by 5e-6 of itself at this half-width, 6e-4 at 1e-3
_MIN_BOX = 1e-2
# the weights suite's largest lattice under it, 4558 x 657 at rho = 100 (box
# 10.93), took 0.74-0.90 s and 171 MiB peak RSS (2 vCPUs, one BLAS thread);
# the box at the reach of rho = 100, 21.8, needs 4558 x 1309 nodes
_MAX_NODES = 3_000_000


def lemma_beta_set() -> list[tuple[int, int]]:
    """All multi-indices ``0 < |beta| <= 3`` with ``beta2 <= 2``."""
    return [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2)]


def _validate_betas(betas) -> list[tuple[int, int]]:
    betas = [tuple(int(b) for b in beta) for beta in betas]
    for b1, b2 in betas:
        if not (b1 >= 0 and 0 <= b2 <= 2 and 0 < b1 + b2 <= 3):
            raise ValueError(f"beta = {(b1, b2)} is outside the certified range: "
                             f"0 < |beta| <= 3 and beta2 <= 2")
    return betas


def _fd(values: np.ndarray, beta: tuple[int, int], steps: tuple[float, float]) -> np.ndarray:
    """Fourth-order central difference ``D^beta`` on a lattice of spacings
    ``steps``; trims _PAD from both ends of each axis."""
    out = values
    for axis, (order, h) in enumerate(zip(beta, steps)):
        v = out.swapaxes(axis, 0)
        n = v.shape[0]
        out = v[_PAD:n - _PAD]
        if order:
            coeffs, half = _STENCILS[order]
            shifted = [v[_PAD + off:n - _PAD + off] for off in range(-half, half + 1)]
            out = coeffs[0] * shifted[0]
            term = np.empty_like(out)
            for c, x in zip(coeffs[1:], shifted[1:]):
                if c != 0.0:
                    out += np.multiply(c, x, out=term)
            out /= h ** order
        out = out.swapaxes(0, axis)
    return out


@dataclass
class CertificationReport:
    """Empirical constants per multi-index for one weight spec.

    ``c_strong[beta]`` is ``max |D^beta Phi| / Phi^(1/2)`` over the lattice
    in ``y``, that is ``max |d^beta psi^2| / (eps^|beta| psi)`` over the
    strip, ``c_weak[beta]`` the same against ``Phi``.  Lattice points where a
    stencil straddles a profile junction are left out: there the pointwise
    (almost-everywhere) derivative is not what the stencil measures.
    """

    c_strong: dict[tuple[int, int], float]
    c_weak: dict[tuple[int, int], float]

    @property
    def aggregate_strong(self) -> float:
        return max(self.c_strong.values())


def _off_junctions(spec: WeightSpec, y1: np.ndarray, y2: np.ndarray, h1: float,
                   h2: float) -> np.ndarray:
    """The lattice points whose stencils stay clear of the two profile
    junctions: a step moves the radical by ``h1 |D1 r| + h2 |D2 r|``."""
    r = np.sqrt(_radical_sq(y1, y2, 1.0))
    margin = 5.0 * (h1 * (1.5 * y1 ** 2 / r) + h2 * (np.abs(y2) / r)) + 1e-12
    return (np.abs(r - spec.rho) > margin) & (np.abs(r - (spec.rho + 1.0)) > margin)


def _certify(spec: WeightSpec, m: float, betas, reach: float, n1: int) -> CertificationReport:
    """The constants of ``Phi`` on ``[0, reach] x [-box, box]`` in ``y = eps x``,
    ``box = min(eps m, reach)``: the strip ``|x2| <= m``, cut at the reach."""
    betas = _validate_betas(lemma_beta_set() if betas is None else betas)
    box = min(spec.epsilon * m, reach)
    n2 = max(_N2, 2 * math.ceil(_BLEND_SAMPLES * box) + 1)
    where = f"the certification box {box:g} (epsilon = {spec.epsilon:g}, m = {m:g})"
    if not box >= _MIN_BOX:
        raise ValueError(f"{where} is narrower than {_MIN_BOX:g}, which its lattice "
                         f"cannot resolve")
    if n1 * n2 > _MAX_NODES:
        raise ValueError(f"{where} needs {n1} x {n2} lattice nodes at rho = {spec.rho:g}, "
                         f"more than {_MAX_NODES}")
    h1 = reach / (n1 - 1)
    h2 = 2.0 * box / (n2 - 1)
    y1 = -_PAD * h1 + h1 * np.arange(n1 + 2 * _PAD)
    y2 = -box - _PAD * h2 + h2 * np.arange(n2 + 2 * _PAD)
    beyond = ValueError(f"the weight leaves the float range on the certification lattice "
                        f"at gamma = {spec.gamma:g}, rho = {spec.rho:g}")
    with np.errstate(over="ignore"):
        w = varphi(y1[:, None], y2[None, :], replace(spec, epsilon=1.0))  # Phi
    if not np.all(np.isfinite(w)):
        raise beyond
    psi_sq = w[_PAD:-_PAD, _PAD:-_PAD]
    psi = np.sqrt(psi_sq)
    keep = True if spec.is_limit else _off_junctions(spec, y1[_PAD:-_PAD, None],
                                                     y2[None, _PAD:-_PAD], h1, h2)
    rep = CertificationReport(c_strong={}, c_weak={})
    for beta in betas:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            deriv = np.abs(_fd(w, beta, (h1, h2)))
            ratio = deriv / psi
            rep.c_strong[beta] = float(np.max(ratio, where=keep, initial=0.0))
            np.divide(deriv, psi_sq, out=ratio)
            rep.c_weak[beta] = float(np.max(ratio, where=keep, initial=0.0))
        del deriv, ratio  # before the next differences
        if not (math.isfinite(rep.c_strong[beta]) and math.isfinite(rep.c_weak[beta])):
            raise beyond
    return rep


def certify_lemma_wfuncs(spec: WeightSpec, m: float, betas=None) -> CertificationReport:
    """Certify the derivative controls of the cutoff weight ``psi^2``.

    Samples ``|D^beta Phi|`` on a lattice whose ``y1`` reach puts the radical
    at ``rho + 1.7``, past the plateau, with ~30 samples across the blend,
    excluding stencils that straddle the two profile junctions (the profile
    is C^1 there, so third-difference quotients would measure the curvature
    jump rather than the almost-everywhere derivative).
    """
    if spec.is_limit:
        raise ValueError("cutoff certification requires finite rho; use certify_phi_control")
    reach = ((spec.rho + 1.7) ** 2 - 1.0) ** (1.0 / 3.0)
    lo = max(spec.rho ** 2 - 1.0, 1e-6) ** (1.0 / 3.0)
    blend = max(((spec.rho + 1.0) ** 2 - 1.0) ** (1.0 / 3.0) - lo, 1e-6)
    n1 = int(min(max(2049, math.ceil(_BLEND_SAMPLES * reach / blend)), 16385))
    return _certify(spec, m, betas, reach, n1)


def certify_phi_control(spec: WeightSpec, m: float, reach: float, betas=None,
                        n1: int = 4097) -> CertificationReport:
    """Certify the derivative controls of the limit weight on ``[0, reach]`` in ``y1``.

    The reach is explicit so callers can probe boundedness under lattice
    expansion: for ``gamma <= 2/3`` every admissible constant stabilizes,
    while first-derivative constants grow like ``reach^(3 gamma / 2 - 1)``
    once ``gamma`` exceeds the threshold.  Pure second-order constants
    remain bounded up to ``gamma <= 4/3``; a spec of any ``gamma`` is taken.
    """
    return _certify(replace(spec, rho=math.inf), m, betas, reach, n1)
