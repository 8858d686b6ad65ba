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

import itertools
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
        """(value, gradient of shape (d,), Hessian of shape (d, d)) at x."""
        raise NotImplementedError


def _horner(c, t):
    v = 0.0
    for ck in c[::-1]:
        v = v * t + ck
    return v


class AffineField(ScalarField):
    def __init__(self, const: float, slope):
        self.const = float(const)
        self.slope = np.atleast_1d(np.asarray(slope, dtype=float))
        self.dim = self.slope.size

    def jet(self, x):
        return (self.const + float(self.slope @ np.atleast_1d(x)),
                self.slope.copy(), np.zeros((self.dim, self.dim)))


class Polynomial1DField(ScalarField):
    """Polynomial of one variable, coefficients in increasing degree."""

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        self.coeffs = c
        self.dcoeffs = [k * c[k] for k in range(1, c.size)]
        self.ddcoeffs = [k * (k - 1) * c[k] for k in range(2, c.size)]
        self.dim = 1

    def jet(self, x):
        t = float(np.atleast_1d(x)[0])
        return (_horner(self.coeffs, t), np.array([_horner(self.dcoeffs, t)]),
                np.array([[_horner(self.ddcoeffs, t)]]))


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
        s = float(np.atleast_1d(x)[0]) - self.peak
        b = self.bl if s < 0 else self.br
        return (1.0 - self.a * s ** 2 - b * s ** 4,
                np.array([-2.0 * self.a * s - 4.0 * b * s ** 3]),
                np.array([[-2.0 * self.a - 12.0 * b * s ** 2]]))


class TensorProductField(ScalarField):
    """Product of one-dimensional factors: psi(x) = prod_i f_i(x_i)."""

    def __init__(self, factors: Sequence[ScalarField]):
        self.factors = list(factors)
        self.dim = len(self.factors)

    def jet(self, x):
        x = np.atleast_1d(x)
        jets = [f.jet(x[i:i + 1]) for i, f in enumerate(self.factors)]
        vals = [jt[0] for jt in jets]
        grads = [jt[1][0] for jt in jets]
        hesss = [jt[2][0, 0] for jt in jets]
        v = 1.0
        for vi in vals:
            v *= vi
        grad = np.zeros(self.dim)
        H = np.zeros((self.dim, self.dim))
        for i in range(self.dim):
            others = np.prod([vals[k] for k in range(self.dim) if k != i])
            grad[i] = grads[i] * others
            H[i, i] = hesss[i] * others
            for j in range(self.dim):
                if j != i:
                    rest = np.prod([vals[k] for k in range(self.dim)
                                    if k not in (i, j)])
                    H[i, j] = grads[i] * grads[j] * rest
        return v, grad, H


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
        phi = math.exp(g * pv)
        dphi = g * phi * pg
        hess = g * phi * (g * np.outer(pg, pg) + ph)
        return phi, dphi, hess


@dataclass(frozen=True)
class BracketJet:
    """Value and first derivatives of a symbol on phase space."""
    value: float
    dx: np.ndarray
    dxi: np.ndarray


def poisson_bracket(f: BracketJet, g: BracketJet) -> float:
    """{f, g} = sum_j (d_xi_j f d_x_j g - d_x_j f d_xi_j g)."""
    return float(f.dxi @ g.dx - f.dx @ g.dxi)


def symbol_jets(wf: WeightField, x, xi, tau: float, sigma: float, j: int,
                metric: Optional[MetricField] = None):
    """Jets of q_s^j and q_a at a real phase-space point.

    Coordinates: x and xi are d-vectors, tangential components first, the
    normal component last.  q_s^j = |xi|_x^2 - tau^2 |dphi|_x^2 + (-1)^j sigma^2
    and q_a = 2 tau (xi_d dphi_n + r~(x, xi', dphi_t)).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    d = x.size
    tdim = d - 1

    phi, dphi, hess = wf.phi_jet(x)
    dpt, dpn = dphi[:tdim], dphi[tdim]
    xit, xid = xi[:tdim], xi[tdim]

    # metric terms and their spatial gradients; all vanish in 1-D
    dqs_dxi = np.zeros(d)
    dqa_dxi = np.zeros(d)
    if tdim:
        metric = metric or MetricField.euclidean(tdim)
        g = metric.gmatrix(x)
        dg = metric.dgmatrix(x)
        r_xi = float(np.real(xit @ g @ xit))
        r_dp = float(np.real(dpt @ g @ dpt))
        r_mix = float(np.real(xit @ g @ dpt))
        dqs_dxi[:tdim] = 2.0 * (g @ xit)
        dqa_dxi[:tdim] = 2.0 * tau * (g @ dpt)
        dr_xi = np.array([xit @ dg[k] @ xit for k in range(d)])
        dr_dp = np.array([dpt @ dg[k] @ dpt for k in range(d)])
        dr_mix = np.array([xit @ dg[k] @ dpt for k in range(d)])
    else:
        r_xi = r_dp = r_mix = 0.0
        dr_xi = dr_dp = dr_mix = np.zeros(d)

    qs = xid ** 2 + r_xi - tau ** 2 * (dpn ** 2 + r_dp) + (-1) ** j * sigma ** 2
    qa = 2.0 * tau * (xid * dpn + r_mix)

    dqs_dxi[tdim] = 2.0 * xid
    dqa_dxi[tdim] = 2.0 * tau * dpn

    # x-derivatives; hess columns give d/dx_k of each gradient component
    dqs_dx = np.zeros(d)
    dqa_dx = np.zeros(d)
    for k in range(d):
        hcol = hess[:, k]
        dpt_k = hcol[:tdim]
        dpn_k = hcol[tdim]
        grad_sq_k = 2.0 * dpn * dpn_k + dr_dp[k]
        if tdim:
            grad_sq_k += 2.0 * float(dpt @ (g @ dpt_k))
        dqs_dx[k] = dr_xi[k] - tau ** 2 * grad_sq_k
        mix_k = dr_mix[k]
        if tdim:
            mix_k += float(xit @ (g @ dpt_k))
        dqa_dx[k] = 2.0 * tau * (xid * dpn_k + mix_k)

    qs_jet = BracketJet(qs, dqs_dx, dqs_dxi)
    qa_jet = BracketJet(qa, dqa_dx, dqa_dxi)
    return qs_jet, qa_jet


def _lambda_tau(xi, tau) -> float:
    return math.sqrt(float(np.dot(xi, xi)) + tau ** 2)


def characteristic_points(wf: WeightField, x, j: int,
                          ratios: Sequence[float],
                          taus: Sequence[float] = (1.0,),
                          directions: Optional[Sequence] = None,
                          metric: Optional[MetricField] = None,
                          residual_tol: float = 1e-8):
    """Real solutions (x, xi, tau, sigma, qs, qa) of q^j = 0 above a spatial
    point, with the symbol jets (qs, qa) of symbol_jets at each.

    The imaginary part fixes xi_d = -r~(x, xi', dphi_t)/dphi_n on each
    tangential ray; the real part then determines the ray magnitude (d >= 2)
    or the admissible sigma (d = 1).  ratios are sigma/tau values.  Points
    failing the residual filter |q| <= residual_tol * lambda^2 are dropped.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.size
    tdim = d - 1
    metric = metric or MetricField.euclidean(tdim)
    phi, dphi, _ = wf.phi_jet(x)
    dpt, dpn = dphi[:tdim], dphi[tdim]
    if dpn == 0.0 and np.linalg.norm(dphi) == 0.0:
        raise ValueError("weight gradient vanishes: characteristic solve undefined")
    grad_sq = dpn ** 2 + (float(np.real(metric.r(x, dpt))) if tdim else 0.0)

    pts = []
    if tdim == 0:
        # q_a = 0 forces xi = 0; q_s^j then vanishes only for j = 2 at
        # sigma = tau |phi'|, which must fall inside the sampled ratio band
        if j == 2:
            rho_star = abs(dpn)
            if rho_star <= max(ratios, default=0.0) + 1e-15:
                for tau in taus:
                    if tau > 0:
                        pts.append((x, np.zeros(1), tau, rho_star * tau))
        return _filter_residual(wf, metric, pts, j, residual_tol)

    if directions is None:
        directions = _default_directions(tdim)
    for e in directions:
        e = np.asarray(e, dtype=float)
        e = e / np.linalg.norm(e)
        if dpn == 0:
            continue
        c_e = float(np.real(metric.bilinear(x, e, dpt))) / dpn if tdim else 0.0
        denom = c_e ** 2 + float(np.real(metric.r(x, e)))
        for tau in taus:
            for rho in ratios:
                num = grad_sq + (-1) ** (j + 1) * rho ** 2
                if num <= 0 or denom <= 0:
                    continue
                s = tau * math.sqrt(num / denom)
                xi = np.zeros(d)
                xi[:tdim] = s * e
                xi[tdim] = -s * c_e
                pts.append((x, xi, tau, rho * tau))
    return _filter_residual(wf, metric, pts, j, residual_tol)


def _default_directions(tdim: int, n: int = 8):
    if tdim == 1:
        return [np.array([1.0]), np.array([-1.0])]
    rng = np.random.default_rng(2)
    return [rng.normal(size=tdim) for _ in range(n)]


def _filter_residual(wf, metric, pts, j, residual_tol):
    kept = []
    for (x, xi, tau, sigma) in pts:
        qs, qa = symbol_jets(wf, x, xi, tau, sigma, j, metric)
        lam2 = float(np.dot(xi, xi)) + tau ** 2
        if math.hypot(qs.value, qa.value) <= residual_tol * lam2:
            kept.append((x, xi, tau, sigma, qs, qa))
    return kept


@dataclass
class SubellipticityReport:
    """samples holds the (x, xi, tau, sigma, qs, qa) tuples of
    characteristic_points that the margin was taken over."""
    margin: float
    vacuous: bool
    samples: tuple
    refinement_levels: int

    def __bool__(self):
        return self.margin > 0


def subellipticity_check(wf: WeightField, j: int, region_grid: Sequence,
                         ratio_band, metric: Optional[MetricField] = None,
                         tau0: float = 1.0, nratios: int = 9,
                         taus: Sequence[float] = (1.0,),
                         ndirections: int = 8,
                         refine: bool = True, max_levels: int = 3,
                         residual_tol: float = 1e-8) -> SubellipticityReport:
    """Minimum of {q_s, q_a}/lambda^3 over the sampled characteristic set of
    q^j, with samples restricted to tau >= tau0 * sigma.

    ratio_band = (lo, hi) bounds tau/sigma; sigma = 0 rays are always
    included.  An empty characteristic sample is reported as a vacuous pass
    with margin +inf.  With refine=True the directional sampling is doubled
    until the margin moves by less than 10%.
    """
    lo, hi = ratio_band
    if lo <= 0 or hi < lo:
        raise ValueError("ratio band must satisfy 0 < lo <= hi")
    lo = max(lo, tau0)

    def run(ndir, nrat):
        rhos = [0.0] + [1.0 / t for t in np.geomspace(lo, hi, nrat)]
        samples = []
        margin = math.inf
        for x in region_grid:
            x = np.atleast_1d(np.asarray(x, dtype=float))
            tdim = x.size - 1
            dirs = _default_directions(tdim, ndir) if tdim else None
            for pt in characteristic_points(wf, x, j, rhos, taus, dirs,
                                            metric, residual_tol):
                _, xi, tau, _, qs, qa = pt
                br = poisson_bracket(qs, qa)
                lam3 = _lambda_tau(xi, tau) ** 3
                samples.append(pt)
                margin = min(margin, br / lam3)
        return margin, samples

    ndir, nrat = ndirections, nratios
    margin, samples = run(ndir, nrat)
    levels = 1
    while refine and levels < max_levels:
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

    vacuous = len(samples) == 0
    return SubellipticityReport(margin=margin, vacuous=vacuous,
                                samples=tuple(samples),
                                refinement_levels=levels)


@dataclass
class GammaSearchResult:
    gamma0: float
    margins: dict
    history: list


def gamma_search(psi: ScalarField, tau0: float, region_grid: Sequence,
                 ratio_hi: float = 64.0, metric: Optional[MetricField] = None,
                 **check_kw) -> GammaSearchResult:
    """Least gamma (within a factor-of-two bracket up to 2^20, then four
    bisection rounds) making the sub-ellipticity margin positive for both
    factors on the region, sampled over the ratio band (tau0, ratio_hi).

    Fails with diagnostics when the recipe hypotheses are violated on the
    region (psi must stay nonnegative and |dpsi| >= 1e-8): no gamma can
    repair either.
    """
    worst = math.inf
    worst_x = None
    for x in region_grid:
        x = np.atleast_1d(x)
        pv, pg, _ = psi.jet(x)
        if pv < 0:
            raise ValueError(f"psi({x}) = {pv:.3e} < 0: the recipe "
                             f"requires a nonnegative base weight")
        gnorm = float(np.linalg.norm(pg))
        if gnorm < worst:
            worst, worst_x = gnorm, x
    if worst < 1e-8:
        raise ValueError(
            f"|dpsi| = {worst:.3e} at x = {worst_x}: gradient lower bound "
            f"violated on the region; move the region away from critical points")

    band = (tau0, ratio_hi)

    def margins_at(gamma):
        wf = WeightField(psi, gamma)
        return {jj: subellipticity_check(wf, jj, region_grid, band,
                                         metric=metric, tau0=tau0, **check_kw).margin
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
    near-characteristic margin.  Aborts at mu_max when unreachable."""
    d = wf.dim
    sphere = _sphere_samples(d, nsphere, tau0, seed)
    jit = np.random.default_rng(seed + 1)

    rows = []
    for x in region_grid:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        samples = [(xi, tau, sigma) for xi, tau, sigma in sphere]
        rhos = [0.0] + list(np.geomspace(1e-3, 1.0 / tau0, 7))
        for (_, xi_c, tau_c, sig_c, _, _) in characteristic_points(
                wf, x, j, rhos, (1.0,), None, metric):
            scale = math.sqrt(float(xi_c @ xi_c) + tau_c ** 2 + sig_c ** 2)
            base = (xi_c / scale, tau_c / scale, sig_c / scale)
            samples.append(base)
            for _ in range(4):
                pert = jit.normal(size=d + 2) * 0.05
                xi_p = base[0] + pert[:d]
                tau_p = abs(base[1] + pert[d])
                sig_p = abs(base[2] + pert[d + 1])
                if tau_p >= tau0 * sig_p:
                    samples.append((xi_p, tau_p, sig_p))
        for xi, tau, sigma in samples:
            qs, qa = symbol_jets(wf, x, xi, tau, sigma, j, metric)
            br = poisson_bracket(qs, qa)
            lam4 = (float(xi @ xi) + tau ** 2) ** 2
            rows.append((qs.value ** 2 + qa.value ** 2, tau * br, lam4,
                         (tuple(x), tuple(xi), tau, sigma)))

    if target is None:
        # limiting value of min (mu f + g)/lam^4 as mu -> inf is governed by
        # g on the near-characteristic samples
        lim = math.inf
        for f, g, lam4, _ in rows:
            if f <= 1e-4 * lam4 ** 2:
                lim = min(lim, g / lam4)
        if not math.isfinite(lim) or lim <= 0:
            lim = 0.2
        target = target_fraction * min(lim, 1.0)

    mu = 1.0
    while mu <= mu_max:
        worst = math.inf
        worst_pt = None
        for f, g, lam4, pt in rows:
            val = (mu * f + g) / lam4
            if val < worst:
                worst, worst_pt = val, pt
        if worst >= target:
            return MuSearchResult(mu=mu, target=target, min_ratio=worst)
        mu *= 2.0
    raise MuSearchError(mu_max, worst, worst_pt)


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
    axes = [np.linspace(lo, hi, n + 1) for lo, hi in box]
    for idx in itertools.product(range(n + 1), repeat=len(box)):
        x = np.array([ax[i] for ax, i in zip(axes, idx)])
        v, g, _ = psi.jet(x)
        faces = [(k, 1.0 if i == n else -1.0)
                 for k, i in enumerate(idx) if i in (0, n)]
        if faces:
            if abs(v) > 1e-12:
                raise RuntimeError("weight does not vanish on the boundary")
            if len(faces) == 1 and faces[0][1] * g[faces[0][0]] >= 0:
                raise RuntimeError("outward normal derivative not strictly negative")
        elif v <= 0:
            raise RuntimeError(f"weight not positive at {x}")
        elif not excluded(x) and np.linalg.norm(g) == 0:
            raise RuntimeError(f"critical point at {x} escapes the exclusion set")
