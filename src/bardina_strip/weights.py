"""Polynomial-growth Sobolev weights and their derivative certification.

Two weight families share one scale parameter ``epsilon`` and exponent
``gamma``:

* the limit weight ``phi(x) = (1 + |eps x1|^3 + |eps x2|^2)^gamma``;
* the cutoff weight ``varphi`` obtained by flattening the radical
  ``r(x) = (1 + |eps x1|^3 + |eps x2|^2)^(1/2)`` through the piecewise
  profile :func:`g_profile` with cutoff radius ``rho``, so the weight is
  constant once ``r >= rho + 1`` and equals the limit weight while
  ``r <= rho``.

``psi = varphi^(1/2)`` multiplies the integrands of the weighted Sobolev
norms, which the diagnostics collector records as its weighted columns.
The certification routines measure, by high-order finite differences
on an oversampled lattice, the empirical constants in the pointwise controls

    |d^beta psi^2| <= C eps^|beta| psi      (strong form)
    |d^beta psi^2| <= C eps^|beta| psi^2    (weak form)

for multi-indices ``0 < |beta| <= 3`` with ``beta2 <= 2``.  ``gamma <= 2/3``
is enforced unless the spec opts out; larger exponents are only meaningful
for sharpness experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .strip_grid import Grid

__all__ = [
    "GAMMA_THRESHOLD",
    "WeightSpec",
    "WeightField",
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

    ``rho = math.inf`` selects the limit weight.  ``gamma`` beyond ``2/3``
    is rejected unless ``allow_gamma_override`` is set: above that threshold
    the strong derivative control is known to fail, so such specs exist only
    to demonstrate the failure.
    """

    epsilon: float
    rho: float = math.inf
    gamma: float = GAMMA_THRESHOLD
    allow_gamma_override: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (self.rho == math.inf or (np.isfinite(self.rho) and self.rho >= 1)):
            raise ValueError(f"rho must be >= 1 or inf, got {self.rho}")
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.gamma > GAMMA_THRESHOLD + 1e-12 and not self.allow_gamma_override:
            raise ValueError(
                f"gamma = {self.gamma} exceeds the 2/3 threshold; "
                "set allow_gamma_override=True for sharpness experiments")

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
    out = np.where(
        tau_arr <= 0.5, 0.25 + tau_arr ** 2,
        np.where(
            tau_arr <= rho, tau_arr,
            np.where(
                tau_arr <= rho + 1.0,
                rho + 0.5 - 0.5 * (rho + 1.0 - tau_arr) ** 2,
                rho + 0.5,
            ),
        ),
    )
    if np.isscalar(tau) or np.ndim(tau) == 0:
        return float(out)
    return out


def _radical_sq(x1, x2, epsilon: float):
    """``1 + |eps x1|^3 + |eps x2|^2`` (the squared radical)."""
    return 1.0 + np.abs(epsilon * np.asarray(x1)) ** 3 + (epsilon * np.asarray(x2)) ** 2


def phi_limit(x1, x2, spec: WeightSpec):
    """Limit weight ``(1 + |eps x1|^3 + |eps x2|^2)^gamma``."""
    return _radical_sq(x1, x2, spec.epsilon) ** spec.gamma


def varphi(x1, x2, spec: WeightSpec):
    """Cutoff weight ``g(r)^(2 gamma)`` with ``r`` the radical.

    Wherever ``r <= rho`` the profile is the identity, and the value is
    computed through the same power expression as :func:`phi_limit`, so the
    two agree exactly (not merely to rounding) in that region.
    """
    if spec.is_limit:
        return phi_limit(x1, x2, spec)
    s = _radical_sq(x1, x2, spec.epsilon)
    r = np.sqrt(s)
    inside = r <= spec.rho
    general = g_profile(r, spec.rho) ** (2.0 * spec.gamma)
    return np.where(inside, s ** spec.gamma, general)


@dataclass(eq=False)
class WeightField:
    """Weight sampled at the grid nodes: ``phi`` values and ``psi = sqrt(phi)``."""

    grid: Grid
    spec: WeightSpec
    phi: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)

    def __post_init__(self):
        if np.any(self.phi < 1.0 - 1e-12):
            raise ValueError("weight must be >= 1 everywhere")


def make_weight_field(grid: Grid, spec: WeightSpec) -> WeightField:
    x1, x2 = grid.mesh()
    phi = np.broadcast_to(varphi(x1, x2, spec), grid.shape).copy()
    return WeightField(grid=grid, spec=spec, phi=phi, psi=np.sqrt(phi))


# ---------------------------------------------------------------------------
# Derivative certification
# ---------------------------------------------------------------------------

_STENCILS = {
    1: (np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0, 2),
    2: (np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0, 2),
    3: (np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0, 3),
}
_PAD = 3  # widest stencil half-width
_X2_HALFWIDTH = 1.0
_N2 = 41


def lemma_beta_set() -> list[tuple[int, int]]:
    """All multi-indices ``0 < |beta| <= 3`` with ``beta2 <= 2``."""
    return [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2)]


def _validate_betas(betas) -> list[tuple[int, int]]:
    betas = [tuple(int(b) for b in beta) for beta in betas]
    for beta in betas:
        b1, b2 = beta
        order = b1 + b2
        if b1 < 0 or b2 < 0:
            raise ValueError(f"negative multi-index {beta}")
        if order == 0:
            raise ValueError("beta = (0, 0) is outside the certified range (|beta| > 0)")
        if order > 3:
            raise ValueError(f"|beta| = {order} > 3 is outside the certified range")
        if b2 > 2:
            raise ValueError(f"beta2 = {b2} > 2 is outside the certified range")
    return betas


def _fd_axis(values: np.ndarray, order: int, h: float, axis: int) -> np.ndarray:
    """Fourth-order central difference along one axis; trims _PAD from it."""
    coeffs, half = _STENCILS[order]
    n = values.shape[axis]
    out = np.zeros_like(np.take(values, range(_PAD, n - _PAD), axis=axis))
    for c, off in zip(coeffs, range(-half, half + 1)):
        if c == 0.0:
            continue
        sl = np.take(values, range(_PAD + off, n - _PAD + off), axis=axis)
        out += c * sl
    return out / h ** order


def _fd_mixed(values: np.ndarray, beta: tuple[int, int], h1: float, h2: float) -> np.ndarray:
    """Mixed partial derivative; returns the array trimmed by _PAD per axis."""
    b1, b2 = beta
    out = values
    if b1 > 0:
        out = _fd_axis(out, b1, h1, axis=0)
    else:
        out = out[_PAD:-_PAD, :]
    if b2 > 0:
        out = _fd_axis(out, b2, h2, axis=1)
    else:
        out = out[:, _PAD:-_PAD]
    return out


@dataclass
class CertificationReport:
    """Empirical constants per multi-index for one weight spec.

    ``c_strong[beta]`` is ``max |d^beta psi^2| / (eps^|beta| psi)`` over the
    sampled lattice, ``c_weak[beta]`` the same against ``psi^2``.  Lattice
    points where a finite difference stencil straddles a profile junction
    are left out: there the pointwise (almost-everywhere) derivative is not
    what the stencil measures.
    """

    spec: WeightSpec
    c_strong: dict[tuple[int, int], float]
    c_weak: dict[tuple[int, int], float]

    @property
    def aggregate_strong(self) -> float:
        return max(self.c_strong.values())


def _certify(spec: WeightSpec, betas, x1_extent: float, n1: int) -> CertificationReport:
    betas = _validate_betas(betas)
    h1 = x1_extent / (n1 - 1)
    h2 = 2.0 * _X2_HALFWIDTH / (_N2 - 1)
    x1 = -_PAD * h1 + h1 * np.arange(n1 + 2 * _PAD)
    x2 = -_X2_HALFWIDTH - _PAD * h2 + h2 * np.arange(_N2 + 2 * _PAD)
    w = varphi(x1[:, None], x2[None, :], spec)
    w = np.broadcast_to(w, (x1.size, x2.size)).copy()

    x1_t = x1[_PAD:-_PAD][:, None]
    x2_t = x2[_PAD:-_PAD][None, :]
    psi = np.sqrt(varphi(x1_t, x2_t, spec))
    psi = np.broadcast_to(psi, (n1, _N2))

    keep = np.ones((n1, _N2), dtype=bool)
    if not spec.is_limit:  # skip stencils straddling the profile junctions
        s = _radical_sq(x1_t, x2_t, spec.epsilon)
        r = np.sqrt(s)
        dr1 = 1.5 * spec.epsilon * (spec.epsilon * np.abs(x1_t)) ** 2 / r
        dr2 = spec.epsilon * (spec.epsilon * np.abs(x2_t)) / r
        margin = 5.0 * (h1 * dr1 + h2 * dr2) + 1e-12
        for junction in (spec.rho, spec.rho + 1.0):
            keep &= np.abs(r - junction) > margin

    c_strong: dict[tuple[int, int], float] = {}
    c_weak: dict[tuple[int, int], float] = {}
    for beta in betas:
        order = sum(beta)
        deriv = np.abs(_fd_mixed(w, beta, h1, h2))
        scale = spec.epsilon ** order
        ratio_strong = deriv / (scale * psi)
        ratio_weak = deriv / (scale * psi ** 2)
        c_strong[beta] = float(ratio_strong[keep].max())
        c_weak[beta] = float(ratio_weak[keep].max())
    return CertificationReport(spec=spec, c_strong=c_strong, c_weak=c_weak)


def _auto_extent(spec: WeightSpec) -> float:
    """``x1`` reach past the plateau: radical up to ``rho + 1.7``."""
    target = (spec.rho + 1.7) ** 2 - 1.0
    return target ** (1.0 / 3.0) / spec.epsilon


def _auto_n1(spec: WeightSpec, x1_extent: float) -> int:
    """Enough points to put ~30 samples across the blend region."""
    lo = max((spec.rho ** 2 - 1.0), 1e-6) ** (1.0 / 3.0) / spec.epsilon
    hi = ((spec.rho + 1.0) ** 2 - 1.0) ** (1.0 / 3.0) / spec.epsilon
    width = max(hi - lo, 1e-6)
    return int(min(max(2049, math.ceil(30.0 * x1_extent / width)), 16385))


def certify_lemma_wfuncs(spec: WeightSpec, betas=None) -> CertificationReport:
    """Certify the derivative controls of the cutoff weight ``psi^2``.

    Samples ``|d^beta psi^2|`` on a lattice stretching well past the plateau
    radius, excluding stencils that straddle the two profile junctions (the
    profile is C^1 there, so third-difference quotients would measure the
    curvature jump rather than the almost-everywhere derivative).
    """
    if spec.is_limit:
        raise ValueError("cutoff certification requires finite rho; "
                         "use certify_phi_control for the limit weight")
    if betas is None:
        betas = lemma_beta_set()
    extent = _auto_extent(spec)
    return _certify(spec, betas, extent, _auto_n1(spec, extent))


def certify_phi_control(spec: WeightSpec, betas=None, x1_extent: float = 100.0,
                        n1: int = 4097) -> CertificationReport:
    """Certify the derivative controls of the limit weight on ``[0, x1_extent]``.

    The extent is explicit so callers can probe boundedness under lattice
    expansion: for ``gamma <= 2/3`` every admissible constant stabilizes,
    while first-derivative constants grow like ``extent^(3 gamma / 2 - 1)``
    once ``gamma`` exceeds the threshold.  Pure second-order constants
    remain bounded up to ``gamma <= 4/3``.
    """
    if betas is None:
        betas = lemma_beta_set()
    limit = WeightSpec(epsilon=spec.epsilon, rho=math.inf, gamma=spec.gamma,
                       allow_gamma_override=spec.allow_gamma_override)
    return _certify(limit, betas, x1_extent, n1)
