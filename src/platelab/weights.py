"""Weight construction and sub-ellipticity verification.

Weights have the form phi = exp(gamma * psi) for a base field psi with
analytic gradient and Hessian; jets of phi follow by the chain rule.  The
verification evaluates the Poisson bracket of the real and imaginary parts
of the conjugated second-order factor on (a sampled version of) its real
characteristic set and reports the normalized margin {q_s, q_a}/lambda^3.
All bracket derivatives are analytic; finite differences appear only in
test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .symbols import MetricField

__all__ = [
    "ScalarField",
    "AffineField",
    "Polynomial1DField",
    "PeakField1D",
    "TensorProductField",
    "WeightField",
    "BracketJet",
    "poisson_bracket",
    "symbol_jets",
    "characteristic_points",
    "SubellipticityReport",
    "subellipticity_check",
    "GammaSearchResult",
    "gamma_search",
    "MuSearchError",
    "MuSearchResult",
    "mu_search",
    "build_global_weight",
]


class ScalarField:
    """Scalar function on R^d with analytic first and second derivatives."""

    dim: int

    def jet(self, x):
        """Values (m,), gradients (m, d) and Hessians (m, d, d) at points x."""
        raise NotImplementedError


def _points(x, d):
    """x as an (m, d) array of points; a d-vector is the m = 1 case."""
    return np.asarray(x, dtype=float).reshape(-1, d)


def _horner(c, t):
    v = np.zeros_like(t)
    for ck in c[::-1]:
        v = v * t + ck
    return v


class AffineField(ScalarField):
    def __init__(self, const: float, slope):
        self.const = float(const)
        self.slope = np.atleast_1d(np.asarray(slope, dtype=float))
        self.dim = self.slope.size

    def jet(self, x):
        x = _points(x, self.dim)
        return (self.const + x @ self.slope, np.tile(self.slope, (len(x), 1)),
                np.zeros((len(x), self.dim, self.dim)))


class Polynomial1DField(ScalarField):
    """Polynomial of one variable, coefficients in increasing degree."""

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        self.coeffs = c
        self.dcoeffs = [k * c[k] for k in range(1, c.size)]
        self.ddcoeffs = [k * (k - 1) * c[k] for k in range(2, c.size)]
        self.dim = 1

    def jet(self, x):
        t = _points(x, 1)[:, 0]
        return (_horner(self.coeffs, t), _horner(self.dcoeffs, t)[:, None],
                _horner(self.ddcoeffs, t)[:, None, None])


class PeakField1D(ScalarField):
    """C^2 piecewise-quartic bump on [x0, x1]: zero at both ends, strictly
    increasing up to its single interior critical point, decreasing after.

    Each half is 1 - a*s^2 - b*s^4 in the distance s to the peak, with the
    same a on both sides so values, first and second derivatives match.
    b >= 0 on both halves keeps the derivative single-signed.
    """

    def __init__(self, x0: float, x1: float, peak: float):
        if not (x0 < peak < x1):
            raise ValueError("peak must lie strictly inside the interval")
        self.x0, self.x1, self.peak = float(x0), float(x1), float(peak)
        wl = self.peak - self.x0
        wr = self.x1 - self.peak
        self.a = 1.0 / max(wl, wr) ** 2          # K/2 with K <= 2/min-width^2
        self.bl = (1.0 - self.a * wl ** 2) / wl ** 4
        self.br = (1.0 - self.a * wr ** 2) / wr ** 4
        assert self.bl >= 0 and self.br >= 0
        self.dim = 1

    def jet(self, x):
        s = _points(x, 1)[:, 0] - self.peak
        b = np.where(s < 0, self.bl, self.br)
        return (1.0 - self.a * s ** 2 - b * s ** 4,
                (-2.0 * self.a * s - 4.0 * b * s ** 3)[:, None],
                (-2.0 * self.a - 12.0 * b * s ** 2)[:, None, None])


class TensorProductField(ScalarField):
    """Product of one-dimensional factors: psi(x) = prod_i f_i(x_i)."""

    def __init__(self, factors: Sequence[ScalarField]):
        self.factors = list(factors)
        self.dim = len(self.factors)

    def jet(self, x):
        x = _points(x, self.dim)
        # jets[k][n]: n-th derivative of factor k along its own column
        jets = [[a.reshape(len(x)) for a in f.jet(x[:, k])]
                for k, f in enumerate(self.factors)]

        def product(orders):
            return np.prod([jets[k][n] for k, n in enumerate(orders)], axis=0)

        # d/dx_i d/dx_j differentiates factor k (k == i) + (k == j) times
        axes = range(self.dim)
        grad = np.array([product([int(k == i) for k in axes]) for i in axes])
        H = np.array([[product([(k == i) + (k == j) for k in axes])
                       for j in axes] for i in axes])
        return product([0] * self.dim), grad.T, np.moveaxis(H, -1, 0)


@dataclass
class WeightField:
    """phi = exp(gamma * psi) with jets from the chain rule:
    dphi = gamma phi dpsi and
    Hess phi = gamma phi (gamma dpsi dpsi^T + Hess psi)."""

    psi: ScalarField
    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    @property
    def dim(self):
        return self.psi.dim

    def phi_jet(self, x):
        pv, pg, ph = self.psi.jet(x)
        g = self.gamma
        phi = np.exp(g * pv)
        dphi = (g * phi)[:, None] * pg
        hess = (g * phi)[:, None, None] * (g * np.einsum("mi,mj->mij", pg, pg) + ph)
        return phi, dphi, hess


@dataclass(frozen=True)
class BracketJet:
    """Values (m,) and first derivatives (m, d) of a symbol at m
    phase-space points."""
    value: np.ndarray
    dx: np.ndarray
    dxi: np.ndarray

    def __getitem__(self, rows):
        return BracketJet(self.value[rows], self.dx[rows], self.dxi[rows])


def poisson_bracket(f: BracketJet, g: BracketJet):
    """{f, g} = sum_j (d_xi_j f d_x_j g - d_x_j f d_xi_j g) at each point."""
    return np.sum(f.dxi * g.dx, axis=-1) - np.sum(f.dx * g.dxi, axis=-1)


def symbol_jets(wf: WeightField, x, xi, tau, sigma, j: int,
                metric: Optional[MetricField] = None):
    """Jets of q_s^j and q_a at m real phase-space points.

    Coordinates: x and xi are (m, d) arrays (a d-vector is one point),
    tangential components first, the normal component last; tau and sigma
    are scalars or (m,) arrays.
    q_s^j = |xi|_x^2 - tau^2 |dphi|_x^2 + (-1)^j sigma^2
    and q_a = 2 tau (xi_d dphi_n + r~(x, xi', dphi_t)).
    """
    x = _points(x, wf.dim)
    xi = _points(xi, wf.dim)
    tau = np.asarray(tau, dtype=float)
    tcol = tau[..., None]
    m, d = x.shape
    tdim = d - 1

    phi, dphi, hess = wf.phi_jet(x)
    dpt, dpn = dphi[:, :tdim], dphi[:, tdim]
    xit, xid = xi[:, :tdim], xi[:, tdim]
    # hess[:, i, k] = d/dx_k of gradient component i
    dpt_x, dpn_x = hess[:, :tdim], hess[:, tdim]

    # metric terms and their spatial gradients; all vanish in 1-D
    r_xi = r_dp = r_mix = dr_xi = dr_dp = dr_mix = g_dp = g_mix = 0.0
    g_xit = g_dpt = np.zeros((m, 0))
    if tdim:
        metric = metric or MetricField.euclidean(tdim)
        g = metric.gmatrix(x)
        dg = metric.dgmatrix(x)
        r_xi = np.einsum("mi,mij,mj->m", xit, g, xit)
        r_dp = np.einsum("mi,mij,mj->m", dpt, g, dpt)
        r_mix = np.einsum("mi,mij,mj->m", xit, g, dpt)
        g_xit = np.einsum("mij,mj->mi", g, xit)
        g_dpt = np.einsum("mij,mj->mi", g, dpt)
        dr_xi = np.einsum("mi,mkij,mj->mk", xit, dg, xit)
        dr_dp = np.einsum("mi,mkij,mj->mk", dpt, dg, dpt)
        dr_mix = np.einsum("mi,mkij,mj->mk", xit, dg, dpt)
        g_dp = 2.0 * np.einsum("mi,mij,mjk->mk", dpt, g, dpt_x)
        g_mix = np.einsum("mi,mij,mjk->mk", xit, g, dpt_x)

    qs = xid ** 2 + r_xi - tau ** 2 * (dpn ** 2 + r_dp) + (-1) ** j * sigma ** 2
    qa = 2.0 * tau * (xid * dpn + r_mix)

    dqs_dxi = np.column_stack([2.0 * g_xit, 2.0 * xid])
    dqa_dxi = np.column_stack([2.0 * tcol * g_dpt, 2.0 * tau * dpn])

    grad_sq_x = 2.0 * dpn[:, None] * dpn_x + dr_dp + g_dp
    dqs_dx = dr_xi - tcol ** 2 * grad_sq_x
    dqa_dx = 2.0 * tcol * (xid[:, None] * dpn_x + (dr_mix + g_mix))

    return BracketJet(qs, dqs_dx, dqs_dxi), BracketJet(qa, dqa_dx, dqa_dxi)


def characteristic_points(wf: WeightField, x, j: int,
                          ratios: Sequence[float],
                          taus: Sequence[float] = (1.0,),
                          directions: Optional[Sequence] = None,
                          metric: Optional[MetricField] = None):
    """Real solutions (x, xi, tau, sigma) of q^j = 0 above the rows of the
    (m, d) array x, as arrays over the kept samples, followed by the symbol
    jets (qs, qa) of symbol_jets at them.

    The imaginary part fixes xi_d = -r~(x, xi', dphi_t)/dphi_n on each
    tangential ray; the real part then determines the ray magnitude (d >= 2)
    or the admissible sigma (d = 1).  ratios are sigma/tau values.  Samples
    failing the residual filter |q| <= 1e-8 lambda^2 are dropped.
    """
    x = _points(x, wf.dim)
    tdim = x.shape[1] - 1
    _, dphi, _ = wf.phi_jet(x)
    flat = np.linalg.norm(dphi, axis=1) == 0.0
    if flat.any():
        raise ValueError(f"weight gradient vanishes at x = {x[np.argmax(flat)]}: "
                         f"characteristic solve undefined")
    # no characteristic ray leaves a point with dphi_n = 0 (only in d >= 2)
    x, dphi = x[dphi[:, tdim] != 0], dphi[dphi[:, tdim] != 0]
    dpt, dpn = dphi[:, :tdim], dphi[:, tdim]
    ratios = np.asarray(ratios, dtype=float)
    taus = np.asarray(taus, dtype=float)

    if tdim == 0:
        # q_a = 0 forces xi = 0; q_s^j then vanishes only for j = 2 at
        # sigma = tau |phi'|, which must fall inside the sampled ratio band
        rho_star = np.abs(dpn)
        hit = (j == 2) & (rho_star <= max(ratios, default=0.0) + 1e-15)
        ix, it = np.nonzero(hit[:, None] & (taus > 0))
        tau = taus[it]
        xi = np.zeros((len(ix), 1))
        sigma = rho_star[ix] * tau
    else:
        metric = metric or MetricField.euclidean(tdim)
        g = metric.gmatrix(x)
        if directions is None:
            directions = _default_directions(tdim)
        e = np.array(directions, dtype=float).reshape(-1, tdim)
        e = e / np.linalg.norm(e, axis=1, keepdims=True)
        grad_sq = dpn ** 2 + np.einsum("mi,mij,mj->m", dpt, g, dpt)
        c_e = np.einsum("ei,mij,mj->me", e, g, dpt) / dpn[:, None]
        denom = c_e ** 2 + np.einsum("ei,mij,ej->me", e, g, e)
        num = grad_sq[:, None] + (-1) ** (j + 1) * ratios ** 2
        # one sample per (point, direction, tau, ratio) with num, denom > 0
        ok = ((denom > 0)[:, :, None, None] & (taus > 0)[:, None]
              & (num > 0)[:, None, None, :])
        ix, ie, it, ir = np.nonzero(ok)
        tau = taus[it]
        s = tau * np.sqrt(num[ix, ir] / denom[ix, ie])
        xi = np.column_stack([s[:, None] * e[ie], -s * c_e[ix, ie]])
        sigma = ratios[ir] * tau

    x = x[ix]
    qs, qa = symbol_jets(wf, x, xi, tau, sigma, j, metric)
    lam2 = np.sum(xi * xi, axis=1) + tau ** 2
    keep = np.hypot(qs.value, qa.value) <= 1e-8 * lam2
    return x[keep], xi[keep], tau[keep], sigma[keep], qs[keep], qa[keep]


def _default_directions(tdim: int, n: int = 8):
    if tdim == 1:
        return np.array([[1.0], [-1.0]])
    return np.random.default_rng(2).normal(size=(n, tdim))


@dataclass
class SubellipticityReport:
    """samples holds one row (x, xi, tau, sigma), of length 2d + 2, per
    characteristic sample that the margin was taken over."""
    margin: float
    vacuous: bool
    samples: np.ndarray
    refinement_levels: int

    def __bool__(self):
        return self.margin > 0


def subellipticity_check(wf: WeightField, j: int, region_grid: Sequence,
                         ratio_band, metric: Optional[MetricField] = None,
                         tau0: float = 1.0, taus: Sequence[float] = (1.0,),
                         refine: bool = True) -> SubellipticityReport:
    """Minimum of {q_s, q_a}/lambda^3 over the sampled characteristic set of
    q^j, with samples restricted to tau >= tau0 * sigma.

    ratio_band = (lo, hi) bounds tau/sigma; sigma = 0 rays are always
    included.  An empty characteristic sample is reported as a vacuous pass
    with margin +inf.  The first pass samples 8 directions and 9 ratios;
    refine=True doubles both until the margin moves by less than 10%, for
    at most three levels.  A 1-D sample has no directions and depends on
    the ratios only through their maximum 1/lo: its first pass is final.
    """
    lo, hi = ratio_band
    if lo <= 0 or hi < lo:
        raise ValueError("ratio band must satisfy 0 < lo <= hi")
    lo = max(lo, tau0)
    tdim = wf.dim - 1

    def run(ndir, nrat):
        rhos = np.concatenate([[0.0], 1.0 / np.geomspace(lo, hi, nrat)])
        dirs = _default_directions(tdim, ndir) if tdim else None
        xs, xi, tau, sigma, qs, qa = characteristic_points(
            wf, region_grid, j, rhos, taus, dirs, metric)
        lam = np.sqrt(np.sum(xi * xi, axis=1) + tau ** 2)
        margin = np.min(poisson_bracket(qs, qa) / lam ** 3, initial=math.inf)
        return float(margin), np.column_stack([xs, xi, tau, sigma])

    ndir, nrat = 8, 9
    margin, samples = run(ndir, nrat)
    levels = 1
    while refine and tdim and levels < 3:
        ndir *= 2
        nrat = 2 * nrat - 1
        new_margin, new_samples = run(ndir, nrat)
        levels += 1
        stable = (math.isinf(margin) and math.isinf(new_margin)) or \
            (not math.isinf(margin) and not math.isinf(new_margin)
             and abs(new_margin - margin) <= 0.1 * max(abs(margin), 1e-30))
        margin, samples = new_margin, new_samples
        if stable:
            break

    return SubellipticityReport(margin=margin, vacuous=len(samples) == 0,
                                samples=samples, refinement_levels=levels)


@dataclass
class GammaSearchResult:
    gamma0: float
    margins: dict
    history: list


def gamma_search(psi: ScalarField, tau0: float, region_grid: Sequence,
                 ratio_hi: float = 64.0, metric: Optional[MetricField] = None,
                 refine: bool = True) -> GammaSearchResult:
    """Least gamma (within a factor-of-two bracket up to 2^20, then four
    bisection rounds) making the sub-ellipticity margin positive for both
    factors on the region, sampled over the ratio band (tau0, ratio_hi).

    Fails with diagnostics when the recipe hypotheses are violated on the
    region (psi must stay nonnegative and |dpsi| >= 1e-8): no gamma can
    repair either.
    """
    x = _points(region_grid, psi.dim)
    pv, pg, _ = psi.jet(x)
    if np.any(pv < 0):
        i = int(np.argmax(pv < 0))
        raise ValueError(f"psi({x[i]}) = {pv[i]:.3e} < 0: the recipe "
                         f"requires a nonnegative base weight")
    gnorm = np.linalg.norm(pg, axis=1)
    i = int(np.argmin(gnorm))
    if gnorm[i] < 1e-8:
        raise ValueError(
            f"|dpsi| = {gnorm[i]:.3e} at x = {x[i]}: gradient lower bound "
            f"violated on the region; move the region away from critical points")

    def margins_at(gamma):
        wf = WeightField(psi, gamma)
        return {jj: subellipticity_check(wf, jj, x, (tau0, ratio_hi),
                                         metric=metric, tau0=tau0,
                                         refine=refine).margin
                for jj in (1, 2)}

    history = []
    gamma = 1.0
    m = margins_at(gamma)
    history.append((gamma, m))
    while not all(v > 0 for v in m.values()):
        gamma *= 2.0
        if gamma > 2.0 ** 20:
            raise RuntimeError(f"no admissible gamma up to {2.0 ** 20}")
        m = margins_at(gamma)
        history.append((gamma, m))

    if gamma > 1.0:
        lo, hi = gamma / 2.0, gamma
        m_hi = m
        for _ in range(4):
            mid = 0.5 * (lo + hi)
            mm = margins_at(mid)
            history.append((mid, mm))
            if all(v > 0 for v in mm.values()):
                hi, m_hi = mid, mm
            else:
                lo = mid
        gamma, m = hi, m_hi

    return GammaSearchResult(gamma0=gamma, margins=m, history=history)


class MuSearchError(RuntimeError):
    def __init__(self, mu_max, worst, worst_point):
        super().__init__(
            f"t(rho) >= C lambda^4 unreachable up to mu = {mu_max}; "
            f"worst normalized value {worst:.3e} at {worst_point}")
        self.mu_max = mu_max
        self.worst = worst
        self.worst_point = worst_point


@dataclass
class MuSearchResult:
    mu: float
    target: float
    min_ratio: float


def _sphere_samples(dim: int, n: int, tau0: float, seed: int):
    """Uniform points on the unit sphere of (xi, tau, sigma) with tau, sigma
    >= 0 and tau >= tau0 * sigma."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        v = rng.normal(size=dim + 2)
        v /= np.linalg.norm(v)
        xi, tau, sigma = v[:dim], abs(v[dim]), abs(v[dim + 1])
        if tau + 1e-15 >= tau0 * sigma:
            out.append((xi, tau, sigma))
    return out


def mu_search(wf: WeightField, j: int, region_grid: Sequence,
              metric: Optional[MetricField] = None, tau0: float = 1.0,
              target: Optional[float] = None, target_fraction: float = 0.5,
              mu_max: float = 2.0 ** 24, nsphere: int = 200,
              seed: int = 0) -> MuSearchResult:
    """Smallest power-of-two mu with
    t = mu((q_s^j)^2 + q_a^2) + tau {q_s^j, q_a} >= C lambda^4
    over real (xi, tau, sigma) samples with tau >= tau0 sigma above every
    region point.

    The sample is the full unit sphere plus the characteristic set (where
    only the bracket term survives, so omitting it would let mu*f mask
    a sub-ellipticity failure) and jittered copies around it.  When no
    target C is supplied it is taken as target_fraction times the limiting
    near-characteristic margin.  Aborts at mu_max when unreachable; mu_max
    below the first candidate 1 is a ValueError."""
    if not mu_max >= 1.0:
        raise ValueError(f"mu_max must be >= 1, the first mu tried; got {mu_max}")
    d = wf.dim
    x = _points(region_grid, d)
    # rows (xi, tau, sigma): the unit sphere, then the characteristic set
    sphere = np.array([np.r_[xi, tau, sigma] for xi, tau, sigma in
                       _sphere_samples(d, nsphere, tau0, seed)]).reshape(-1, d + 2)
    rhos = [0.0] + list(np.geomspace(1e-3, 1.0 / tau0, 7))
    c_x, c_xi, c_tau, c_sig, _, _ = characteristic_points(
        wf, x, j, rhos, (1.0,), None, metric)
    base = np.column_stack([c_xi, c_tau, c_sig])
    base = base / np.sqrt(np.sum(base * base, axis=1))[:, None]
    # four jittered copies of each characteristic sample, drawn in order
    jittered = base[:, None] + np.random.default_rng(seed + 1).normal(
        size=(len(base), 4, d + 2)) * 0.05
    jittered[..., d:] = np.abs(jittered[..., d:])
    ok = jittered[..., d] >= tau0 * jittered[..., d + 1]

    # the sphere above every region point, then the characteristic samples
    # and their admissible jittered copies above their own points
    X = np.concatenate([np.repeat(x, len(sphere), axis=0), c_x,
                        np.repeat(c_x, 4, axis=0)[ok.ravel()]])
    V = np.concatenate([np.tile(sphere, (len(x), 1)), base, jittered[ok]])
    XI, T, S = V[:, :d], V[:, d], V[:, d + 1]
    qs, qa = symbol_jets(wf, X, XI, T, S, j, metric)
    f = qs.value ** 2 + qa.value ** 2
    g = T * poisson_bracket(qs, qa)
    lam4 = (np.sum(XI * XI, axis=1) + T ** 2) ** 2

    if target is None:
        # limiting value of min (mu f + g)/lam^4 as mu -> inf is governed by
        # g on the near-characteristic samples
        near = f <= 1e-4 * lam4 ** 2
        lim = float(np.min(g[near] / lam4[near], initial=math.inf))
        if not math.isfinite(lim) or lim <= 0:
            lim = 0.2
        target = target_fraction * min(lim, 1.0)

    mu = 1.0
    while mu <= mu_max:
        val = (mu * f + g) / lam4
        i = int(np.argmin(val))
        if val[i] >= target:
            return MuSearchResult(mu=mu, target=target, min_ratio=float(val[i]))
        mu *= 2.0
    raise MuSearchError(mu_max, float(val[i]),
                        (tuple(X[i].tolist()), tuple(XI[i].tolist()),
                         float(T[i]), float(S[i])))


def build_global_weight(domain, exclusion, gamma: float = 1.0,
                        grid_n: int = 200) -> WeightField:
    """Base weight for an interval or rectangle: psi = 0 on the boundary
    with strictly negative outward normal derivative, psi > 0 inside, and
    dpsi != 0 outside the exclusion set, whose center hosts the single
    critical point.  The three properties are verified on a fine grid
    before returning.

    domain: ("interval", (x0, x1)) or ("rectangle", ((x0,x1), (y0,y1))).
    exclusion: (a, b) sub-interval, or ((cx, cy), radius) disc.
    """
    kind, geom = domain
    if kind == "interval":
        x0, x1 = map(float, geom)
        a, b = map(float, exclusion)
        if not (x0 < a < b < x1):
            raise ValueError("exclusion set must be nonempty and strictly interior")
        psi = PeakField1D(x0, x1, 0.5 * (a + b))
        _verify_global_weight(psi, [(x0, x1)], lambda p: a < p[0] < b, grid_n)
        return WeightField(psi, gamma)

    if kind == "rectangle":
        (x0, x1), (y0, y1) = geom
        (cx, cy), rad = exclusion
        if rad <= 0:
            raise ValueError("exclusion set must be nonempty")
        if not (x0 < cx - rad and cx + rad < x1 and y0 < cy - rad and cy + rad < y1):
            raise ValueError("exclusion disc must be strictly interior")
        psi = TensorProductField([PeakField1D(x0, x1, cx), PeakField1D(y0, y1, cy)])
        _verify_global_weight(
            psi, [(x0, x1), (y0, y1)],
            lambda p: (p[0] - cx) ** 2 + (p[1] - cy) ** 2 <= rad ** 2, grid_n)
        return WeightField(psi, gamma)

    raise ValueError(f"unsupported domain kind {kind!r}")


def _verify_global_weight(psi, box, excluded, n):
    """Check psi on the (n+1)^d tensor grid of the box [(lo, hi), ...]: it
    vanishes on every face, its outward normal derivative is negative on the
    open faces (grid points on exactly one face), it is positive inside, and
    dpsi != 0 at interior points where excluded(x) is false."""
    idx = np.indices((n + 1,) * len(box)).reshape(len(box), -1).T
    x = np.column_stack([np.linspace(lo, hi, n + 1)[i]
                         for (lo, hi), i in zip(box, idx.T)])
    v, g, _ = psi.jet(x)
    nfaces = np.sum((idx == 0) | (idx == n), axis=1)
    if np.any(np.abs(v[nfaces > 0]) > 1e-12):
        raise RuntimeError("weight does not vanish on the boundary")
    outward = np.sum(np.where(idx == n, g, 0.0) - np.where(idx == 0, g, 0.0),
                     axis=1)
    if np.any(outward[nfaces == 1] >= 0):
        raise RuntimeError("outward normal derivative not strictly negative")
    inside = nfaces == 0
    if np.any(v[inside] <= 0):
        raise RuntimeError(f"weight not positive at {x[inside & (v <= 0)][0]}")
    for p in x[inside & (np.linalg.norm(g, axis=1) == 0)]:
        if not excluded(p):
            raise RuntimeError(f"critical point at {p} escapes the exclusion set")
