"""Conjugated plate-operator symbols: quadratic factors, roots, classification.

The fourth-order symbol with spectral parameter sigma factors into two
quadratic polynomials in the normal frequency xi_d,

    q_j(xi_d) = (xi_d + i tau dphi_n)^2 + r(xi' + i tau dphi_t) + (-1)^j sigma^2,

j = 1, 2, where (dphi_t, dphi_n) is the gradient of the exponential weight
and r(xi') = |xi'|^2 is the Euclidean tangential form, extended bilinearly
to complex arguments: at one frozen point a constant metric is only a
linear change of xi'.  lscheck and weights share the form.  Roots and
their classification are computed on stacks of m points (classify_stack);
the per-point functions classify_roots, factor_roots and quartic_roots are
its m = 1 case.
Everything in this module is a pure function of its arguments; there is no
shared state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
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


def _form(a, b):
    """The Euclidean form sum_i a_i b_i over the last axis, extended
    bilinearly (no conjugation) to complex arguments, so that
    _form(a + i b, a + i b) = |a|^2 - |b|^2 + 2i a.b.  Row-wise on stacks."""
    return np.einsum("...i,...i->...", a, b)


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
        """Scale augmented by the spectral parameter; inf when a square
        overflows."""
        return math.sqrt(self.tau * self.tau
                         + float(self.xi_prime @ self.xi_prime)
                         + self.sigma * self.sigma)

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

    r(xi' + i tau dphi_t) is evaluated once per point and serves both
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
    arg = xi + 1j * tau[:, None] * dphi_t
    r = _form(arg, arg)
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
    its radicand r(xi' + i tau dphi_t) + (-1)^j sigma^2."""
    arg = p.xi_prime + 1j * p.tau * w.d_tangential
    radicand = complex(_form(arg, arg))
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
    inward and the point nondegenerate.  A point whose scale lambda or any
    factor root is not finite is a ValueError: it overflows a float."""
    w.require_inward()
    p.require_nondegenerate()
    roots = classify_stack(p.x, *point_stack(p, w))
    lam = p.lambda_T_sigma
    if not (math.isfinite(lam) and np.isfinite(roots.pi_1).all()
            and np.isfinite(roots.pi_2).all()):
        raise ValueError(f"lambda = {lam:.6g} or a factor root is not finite: "
                         f"the point overflows a float")
    case = tuple(RootCase)[roots.case[0]]
    count = 1 if case is RootCase.DOUBLE_UPPER else int(roots.case[0])
    return RootConfiguration(
        case=case,
        upper_roots=tuple(roots.upper[0, :count].tolist()),
        marginal=bool(roots.marginal[0]),
        pairs=_pairs(roots))


def im_sign_criterion(p: TangentialPoint, w: WeightJet, j: int) -> bool:
    """Algebraic test for Im pi_{j,2} < 0, without computing roots:

        (dphi_n)^2 |xi'|^2 + (xi' . dphi_t)^2
            < tau^2 (dphi_n)^2 |dphi|^2 + (-1)^(j+1) sigma^2 (dphi_n)^2.

    Equivalent to the direct sign test whenever tau > 0.
    """
    w.require_inward()
    dn = w.d_normal
    r_xi = float(_form(p.xi_prime, p.xi_prime))
    r_mix = float(_form(p.xi_prime, w.d_tangential))
    grad_sq = float(_form(w.d_tangential, w.d_tangential)) + dn ** 2
    lhs = dn ** 2 * r_xi + r_mix ** 2
    rhs = p.tau ** 2 * dn ** 2 * grad_sq + (-1) ** (j + 1) * p.sigma ** 2 * dn ** 2
    return lhs < rhs
