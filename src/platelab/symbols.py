"""Conjugated plate-operator symbols: quadratic factors, roots, classification.

The fourth-order symbol with spectral parameter sigma factors into two
quadratic polynomials in the normal frequency xi_d,

    q_j(xi_d) = (xi_d + i tau dphi_n)^2 + r(x, xi' + i tau dphi_t) + (-1)^j sigma^2,

j = 1, 2, where r is the tangential metric form and (dphi_t, dphi_n) is the
gradient of the exponential weight.  Roots and their classification are
computed on stacks of m points (classify_stack); the per-point functions
classify_roots, factor_roots and quartic_roots are its m = 1 case.
Roots are taken with the Euclidean r: at one frozen point a constant
metric is only a linear change of xi'.  MetricField serves the bracket
layer (weights), where the metric's derivatives enter.
Everything in this module is a pure function of its arguments; there is no
shared state.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "MetricField",
    "TangentialPoint",
    "WeightJet",
    "RootPair",
    "RootCase",
    "RootConfiguration",
    "RootStack",
    "branch_sqrt",
    "point_stack",
    "classify_stack",
    "factor_symbol_eval",
    "factor_roots",
    "quartic_roots",
    "classify_roots",
    "im_sign_criterion",
]

# Relative threshold separating "on the real axis" from "strictly off" in
# root classification.  Scaled by the tangential frequency magnitude.
DEFAULT_CLASSIFY_TOL = 1e-9

# Near-coincident upper roots make the two-root determinant test ill
# conditioned even when the condition itself holds; configurations closer
# than this (relative) separation are flagged marginal.
DEFAULT_SEPARATION_BAND = 1e-5


class MetricField:
    """Tangential quadratic form r(x, xi') = sum_ij g^ij(x) xi'_i xi'_j.

    ``g^ij`` must be symmetric positive definite at every point of interest.
    Complex tangential arguments are admitted: the form is evaluated
    bilinearly, which is exactly the expansion
    r(a) - r(b) + 2i r~(a, b) for xi' = a + i b.

    x is one point (d,) or an (m, d) stack; ``ginv`` and ``dginv`` take the
    stack and return (m, tdim, tdim) and (m, d, tdim, tdim).
    """

    def __init__(self, tdim: int,
                 ginv: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 dginv: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        self.tdim = int(tdim)
        self._ginv = ginv
        self._dginv = dginv
        self._eye = np.eye(self.tdim)
        self._eye.flags.writeable = False

    @classmethod
    @functools.cache
    def euclidean(cls, tdim: int) -> "MetricField":
        """The identity metric, one shared instance per dimension."""
        return cls(tdim)

    @classmethod
    def diagonal(cls, tdim: int,
                 coeffs: Sequence[Callable[[np.ndarray], np.ndarray]],
                 dcoeffs: Optional[Sequence[Callable[[np.ndarray], np.ndarray]]] = None
                 ) -> "MetricField":
        """Diagonal metric with coefficient functions g^ii(x) > 0.

        ``coeffs[i]`` maps an (m, d) stack of points to the (m,) values of
        g^ii; ``dcoeffs[i]`` maps it to their (m, d) spatial gradients and
        is required only for Poisson-bracket evaluation.  Each function is
        called once per stack.
        """
        if len(coeffs) != tdim:
            raise ValueError("need one coefficient function per tangential axis")

        def diagonal_of(fs):   # (..., tdim) values times the identity
            return lambda x: (np.stack([f(x) for f in fs], axis=-1)[..., None]
                              * np.eye(tdim))

        return cls(tdim, diagonal_of(coeffs),
                   None if dcoeffs is None else diagonal_of(dcoeffs))

    def _stacked(self, f, x, shape):
        """f on x as an (m, d) stack, checked against (m, *shape); one
        point (d,) gives the single (shape) row."""
        x = np.asarray(x, dtype=float)
        xs = np.atleast_2d(x)
        out = np.asarray(f(xs), dtype=float)
        if out.shape != (len(xs), *shape):
            raise ValueError(f"metric returned shape {out.shape}, "
                             f"expected {(len(xs), *shape)}")
        return out if x.ndim == 2 else out[0]

    def gmatrix(self, x) -> np.ndarray:
        """g^ij at one point (d,) or an (m, d) stack: (tdim, tdim) or
        (m, tdim, tdim).  The identity metric returns its one read-only
        matrix, broadcast over a stack."""
        if self._ginv is None:
            x = np.asarray(x)
            return self._eye if x.ndim < 2 else np.broadcast_to(
                self._eye, (len(x), self.tdim, self.tdim))
        return self._stacked(self._ginv, x, (self.tdim, self.tdim))

    def dgmatrix(self, x) -> np.ndarray:
        """d/dx_k of g^ij at one point (d,) or an (m, d) stack: (d, tdim,
        tdim) or (m, d, tdim, tdim).  Zero for constant metrics."""
        x = np.asarray(x, dtype=float)
        d = np.atleast_1d(x).shape[-1]
        if self._dginv is None:
            return np.broadcast_to(0.0, (*x.shape[:-1], d, self.tdim, self.tdim))
        return self._stacked(self._dginv, x, (d, self.tdim, self.tdim))

    def bilinear(self, x, a, b):
        """Symmetric bilinear form r~(x, a, b); complex arguments allowed.
        Row-wise on (m, tdim) stacks of a and b, giving m values."""
        if self.tdim == 0:
            return 0.0
        a = np.asarray(a)
        b = np.asarray(b)
        g = self.gmatrix(x)
        return np.matmul((a @ g)[..., None, :], b[..., :, None])[..., 0, 0]

    def r(self, x, xi):
        """Quadratic form r(x, xi); bilinear extension for complex xi."""
        return self.bilinear(x, xi, xi)

    def tangential_norm(self, x, xi) -> float:
        """|xi'|_x for a real tangential covector."""
        if self.tdim == 0:
            return 0.0
        val = self.bilinear(x, xi, xi)
        return math.sqrt(float(np.real(val)))


@dataclass(frozen=True)
class TangentialPoint:
    """Cotangent boundary point (x, xi', tau, sigma).

    tau is the conjugation large parameter, sigma the spectral parameter;
    both are nonnegative.  The joint scale lambda_T = sqrt(tau^2 + |xi'|^2)
    normalizes all relative tolerances.
    """

    x: np.ndarray
    xi_prime: np.ndarray
    tau: float
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "xi_prime",
                           np.asarray(self.xi_prime, dtype=float).reshape(-1))
        if self.tau < 0 or self.sigma < 0:
            raise ValueError("tau and sigma must be nonnegative")

    @property
    def lambda_T(self) -> float:
        return math.sqrt(self.tau ** 2 + float(self.xi_prime @ self.xi_prime))

    @property
    def lambda_T_sigma(self) -> float:
        """Scale augmented by the spectral parameter."""
        return math.sqrt(self.tau ** 2 + float(self.xi_prime @ self.xi_prime)
                         + self.sigma ** 2)

    def require_nondegenerate(self):
        if self.lambda_T_sigma == 0.0:
            raise ValueError("(xi', tau, sigma) = 0: point is degenerate")

    def scaled(self, t: float) -> "TangentialPoint":
        return TangentialPoint(self.x, t * self.xi_prime, t * self.tau, t * self.sigma)


@dataclass(frozen=True)
class WeightJet:
    """First-order data of the weight at a point: value and gradient split
    into tangential and normal parts."""

    phi: float
    d_tangential: np.ndarray
    d_normal: float

    def __post_init__(self):
        object.__setattr__(self, "d_tangential",
                           np.asarray(self.d_tangential, dtype=float).reshape(-1))

    def require_inward(self):
        if self.d_normal <= 0:
            raise ValueError("normal derivative of the weight must be positive")


@dataclass(frozen=True)
class RootPair:
    """Roots of one quadratic factor: pi_1 = -i tau dphi_n - i alpha,
    pi_2 = -i tau dphi_n + i alpha, with Re(alpha) >= 0."""

    alpha: complex
    pi_1: complex
    pi_2: complex
    factor_index: int
    radicand: complex = 0.0


class RootCase(enum.Enum):
    NO_UPPER = "NoUpperRoot"
    ONE_UPPER = "OneUpperRoot"
    TWO_UPPER = "TwoDistinctUpperRoots"
    DOUBLE_UPPER = "DoubleUpperRoot"


@dataclass(frozen=True)
class RootConfiguration:
    case: RootCase
    upper_roots: tuple
    marginal: bool
    pairs: tuple = ()


def branch_sqrt(m):
    """Square root with Re >= 0; ties on the imaginary axis resolved to
    Im >= 0 so that negative real radicands map deterministically.
    Elementwise on an array; a scalar gives a complex."""
    z = np.sqrt(np.asarray(m, dtype=complex))    # principal: Re >= 0
    z = np.where((z.real == 0) & (z.imag < 0), -z, z)
    return complex(z) if z.ndim == 0 else z


@dataclass(frozen=True)
class RootStack:
    """Roots and classification of m points; row i is point i, column j - 1
    of the (m, 2) arrays is factor j.

    ``case`` indexes ``tuple(RootCase)``: 0, 1, 2 upper roots, 3 a double
    upper root.  ``upper`` holds the upper roots in factor order, a double
    root twice; its entries beyond the case's root count are unused.
    """

    radicand: np.ndarray
    alpha: np.ndarray
    pi_1: np.ndarray
    pi_2: np.ndarray
    case: np.ndarray
    upper: np.ndarray
    marginal: np.ndarray


def point_stack(p: TangentialPoint, w: WeightJet) -> tuple:
    """(xi', tau, sigma, dphi_t, dphi_n) of one point as the m = 1 arrays
    that classify_stack takes after x."""
    return (p.xi_prime[None], np.array([p.tau], dtype=float),
            np.array([p.sigma], dtype=float), w.d_tangential[None],
            np.array([w.d_normal], dtype=float))


def classify_stack(x, xi, tau, sigma, dphi_t, dphi_n) -> RootStack:
    """Factor roots and root classification of m points at one x: (m, tdim)
    stacks xi' and dphi_t, (m,) arrays tau, sigma and dphi_n.

    r(x, xi' + i tau dphi_t) is evaluated once per point and serves both
    factors.  With tol = DEFAULT_CLASSIFY_TOL and lambda the joint scale,
    roots pi_{j,2} with Im >= -tol*lambda count as upper.  A point is
    marginal when a pi_{j,2} lies within tol*lambda of the real axis, when
    a pi_{j,1} crosses it at tau > 0, or when two upper roots lie closer
    than DEFAULT_SEPARATION_BAND*lambda without being a double root
    (separation and sigma both <= tol*lambda): the case dispatch is not
    numerically trustworthy there.  No input check: classify_roots checks
    the point it wraps.
    """
    tol = DEFAULT_CLASSIFY_TOL
    r = MetricField.euclidean(xi.shape[-1]).r(x, xi + 1j * tau[:, None] * dphi_t)
    s2 = sigma ** 2
    radicand = np.empty((len(r), 2), dtype=complex)
    radicand[:, 0], radicand[:, 1] = r - s2, r + s2
    alpha = branch_sqrt(radicand)
    shift = (-1j * tau * dphi_n)[:, None]
    i_alpha = 1j * alpha
    pi_1 = shift - i_alpha
    pi_2 = shift + i_alpha

    scale = np.maximum(np.sqrt(tau ** 2 + (xi * xi).sum(axis=-1) + s2), 1e-300)
    im_rel = pi_2.imag / scale[:, None]
    is_upper = im_rel >= -tol
    marginal = ((np.abs(im_rel) <= tol)
                | ((pi_1.imag / scale[:, None] >= -tol) & (tau > 0)[:, None])
                ).any(axis=-1)
    separation = np.abs(pi_2[:, 0] - pi_2[:, 1]) / scale
    count = is_upper.sum(axis=-1)
    double = (count == 2) & (separation <= tol) & (sigma <= tol * scale)
    marginal |= (count == 2) & ~double & (separation <= DEFAULT_SEPARATION_BAND)
    first = np.where(is_upper[:, 0], pi_2[:, 0], pi_2[:, 1])
    return RootStack(radicand=radicand, alpha=alpha, pi_1=pi_1, pi_2=pi_2,
                     case=np.where(double, 3, count),
                     upper=np.where((count == 2)[:, None], pi_2, first[:, None]),
                     marginal=marginal)


def _pairs(roots: RootStack) -> tuple:
    """The two RootPairs of an m = 1 stack."""
    return tuple(RootPair(alpha=a, pi_1=p1, pi_2=p2, factor_index=j,
                          radicand=rad)
                 for j, a, p1, p2, rad in zip(
                     (1, 2), roots.alpha[0].tolist(), roots.pi_1[0].tolist(),
                     roots.pi_2[0].tolist(), roots.radicand[0].tolist()))


def factor_symbol_eval(p: TangentialPoint, w: WeightJet, j: int,
                       xi_d: complex) -> complex:
    """Value of the quadratic factor q_j at a (possibly complex) xi_d, with
    its radicand r(x, xi' + i tau dphi_t) + (-1)^j sigma^2 from the
    Euclidean r."""
    radicand = complex(MetricField.euclidean(p.xi_prime.size).r(
        p.x, p.xi_prime + 1j * p.tau * w.d_tangential))
    return (complex(xi_d) + 1j * p.tau * w.d_normal) ** 2 \
        + radicand + (-1) ** j * p.sigma ** 2


def factor_roots(p: TangentialPoint, w: WeightJet, j: int) -> RootPair:
    """Both roots of q_j.  pi_1 always lies in the closed lower half-plane;
    the sign of Im pi_2 depends on the balance between tau dphi_n and the
    radicand (see im_sign_criterion)."""
    if j not in (1, 2):
        raise ValueError("factor index must be 1 or 2")
    return _pairs(classify_stack(p.x, *point_stack(p, w)))[j - 1]


def quartic_roots(p: TangentialPoint, w: WeightJet) -> tuple:
    """All four roots of the conjugated fourth-order symbol, with
    multiplicity, as the union of the two factor root pairs."""
    r1, r2 = _pairs(classify_stack(p.x, *point_stack(p, w)))
    return (r1.pi_1, r1.pi_2, r2.pi_1, r2.pi_2)


def classify_roots(p: TangentialPoint, w: WeightJet) -> RootConfiguration:
    """Count the factor roots pi_{j,2} lying in the closed upper half-plane:
    the m = 1 case of classify_stack, after checking that the weight is
    inward and the point nondegenerate."""
    w.require_inward()
    p.require_nondegenerate()
    roots = classify_stack(p.x, *point_stack(p, w))
    case = tuple(RootCase)[roots.case[0]]
    count = 1 if case is RootCase.DOUBLE_UPPER else int(roots.case[0])
    return RootConfiguration(
        case=case,
        upper_roots=tuple(roots.upper[0, :count].tolist()),
        marginal=bool(roots.marginal[0]),
        pairs=_pairs(roots))


def im_sign_criterion(p: TangentialPoint, w: WeightJet, j: int) -> bool:
    """Algebraic test for Im pi_{j,2} < 0, without computing roots:

        (dphi_n)^2 r(x,xi') + r~(x,xi',dphi_t)^2
            < tau^2 (dphi_n)^2 |dphi|_x^2 + (-1)^(j+1) sigma^2 (dphi_n)^2,

    where |dphi|_x^2 = r(x, dphi_t) + dphi_n^2.  Equivalent to the direct
    sign test whenever tau > 0.
    """
    w.require_inward()
    metric = MetricField.euclidean(p.xi_prime.size)
    dn = w.d_normal
    r_xi = float(np.real(metric.r(p.x, p.xi_prime)))
    r_mix = float(np.real(metric.bilinear(p.x, p.xi_prime, w.d_tangential)))
    grad_sq = float(np.real(metric.r(p.x, w.d_tangential))) + dn ** 2
    lhs = dn ** 2 * r_xi + r_mix ** 2
    rhs = p.tau ** 2 * dn ** 2 * grad_sq + (-1) ** (j + 1) * p.sigma ** 2 * dn ** 2
    return lhs < rhs
