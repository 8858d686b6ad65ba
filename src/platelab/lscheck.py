"""Lopatinskii-Shapiro checks for the bi-Laplacian with two boundary operators.

Boundary operators are polynomials of degree <= 3 in the normal frequency
xi_d whose coefficients are tangential symbols built from the Euclidean
form r(xi') = |xi'|^2 of symbols (at a frozen boundary point a constant
metric is only a linear change of xi') and an optional parameter symbol
a'(x, xi').  After conjugation by an exponential weight the test dispatches
on the root configuration of the conjugated quartic; the unconjugated
condition, a 2x2 determinant at xi_d = i|xi'|, is its tau = 0 double-root
row.  An independent rank oracle and a positivity margin provide two more
routes to the same verdict.  All three routes run on stacks of points; the
per-point functions ls_conjugated, ls_rank_oracle and positivity_margin are
their m = 1 case, and sample_conjugated evaluates a block of samples in one
pass.

A boundary pair is data: two operators, each an order and a table of
tangential terms per normal power, and an optional parameter symbol.  The
built-in catalog is one such table with a row per family, a --bc-file
states the same data as text, and both build their operators through one
constructor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .symbols import (
    RootCase,
    TangentialPoint,
    WeightJet,
    _form,
    classify_roots,
    classify_stack,
    point_stack,
)

__all__ = [
    "TangentialTerm",
    "ParameterSymbol",
    "BoundaryOperatorSymbol",
    "LSReport",
    "catalog_names",
    "catalog_bc",
    "load_bc_file",
    "ls_unconjugated",
    "ls_conjugated",
    "ls_rank_oracle",
    "positivity_margin",
    "sample_conjugated",
    "perturbation_margin",
]

DEFAULT_MARGIN_TOL = 1e-8

# perturbation_margin: frozen directions; log-spaced radii from the floor to
# the cap, in blocks (one pass of all 128 x 64 rows cost 1.2 MB of peak RSS)
PERTURBATION_DIRECTIONS = 64
PERTURBATION_FLOOR, PERTURBATION_CAP = 1e-4, 1.0
PERTURBATION_RADII, PERTURBATION_BLOCK = 128, 16

# sample_conjugated: samples evaluated per stacked pass
SAMPLE_BLOCK = 1024


@dataclass(frozen=True)
class TangentialTerm:
    """One entry of a tangential coefficient table: coef * r^r_power * a'^a_power."""
    coef: complex
    r_power: int = 0
    a_power: int = 0


class ParameterSymbol:
    """Homogeneous tangential symbol a'(x, xi') of a declared degree.

    The scalar form is c * xi'_1 * r(xi')^((deg-1)/2) for odd degrees
    and c * r(xi')^(deg/2) for even ones: polynomial in xi', hence well
    defined for the complex arguments produced by conjugation.  An (m, tdim)
    stack of xi' gives m values.
    """

    def __init__(self, degree: int, scale: float = 1.0):
        self.degree = int(degree)
        self.scale = float(scale)

    def __call__(self, x, xi):
        xi = np.asarray(xi)
        if self.degree == 0:
            return self.scale
        r = np.asarray(_form(xi, xi), dtype=complex)
        if self.degree % 2 == 0:
            return self.scale * r ** (self.degree // 2)
        return self.scale * xi[..., 0] * r ** ((self.degree - 1) // 2)


class BoundaryOperatorSymbol:
    """Principal symbol of a boundary operator, polynomial in xi_d.

    ``terms[m]`` lists the tangential table entries multiplying xi_d^m.
    Homogeneity of total degree ``order`` is enforced by construction:
    m + 2*r_power + aprime.degree*a_power == order for every entry.
    """

    def __init__(self, name: str, order: int,
                 terms: dict,
                 aprime: Optional[ParameterSymbol] = None):
        self.name = name
        self.order = int(order)
        self.terms = {int(m): tuple(v) for m, v in terms.items() if v}
        self.aprime = aprime
        if self.order < 0 or self.order > 3:
            raise ValueError("normal order must lie in 0..3")
        for m, entries in self.terms.items():
            if m < 0 or m > min(3, self.order):
                raise ValueError(f"normal power {m} out of range for order {self.order}")
            for t in entries:
                deg = m + 2 * t.r_power
                if t.a_power:
                    if self.aprime is None:
                        raise ValueError("term references a' but no parameter symbol given")
                    deg += self.aprime.degree * t.a_power
                if deg != self.order:
                    raise ValueError(
                        f"term {t} at normal power {m} breaks homogeneity "
                        f"(degree {deg} != order {self.order})")

    def coeff_vector(self, x, xi) -> np.ndarray:
        """Coefficients (c_0, ..., c_3) of the polynomial in xi_d at frozen
        (x, xi'); xi' may be complex.  An (m, tdim) stack of xi' gives an
        (m, 4) array; a tdim-vector is the m = 1 case and gives a 4-vector."""
        xi = np.asarray(xi)
        rows = xi.reshape(-1, xi.shape[-1])
        out = np.zeros((len(rows), 4), dtype=complex)
        for m, entries in self.terms.items():
            acc = 0.0 + 0.0j
            for t in entries:
                val = complex(t.coef)
                if t.r_power:
                    val = val * np.asarray(_form(rows, rows),
                                           dtype=complex) ** t.r_power
                if t.a_power:
                    val = val * self.aprime(x, rows) ** t.a_power
                acc = acc + val
            out[:, m] = acc
        return out.reshape(xi.shape[:-1] + (4,))

    def conjugated_coeff_vector(self, x, arg, shift) -> np.ndarray:
        """(m, 4) coefficients of b(x, xi' + i tau dphi_t, xi_d + i tau dphi_n)
        in powers of xi_d, for an (m, tdim) stack arg = xi' + i tau dphi_t
        and (m,) shift = i tau dphi_n: the frozen-coefficient stack at arg,
        binomially shifted."""
        c = self.coeff_vector(x, arg)
        shift2 = shift * shift
        powers = (None, shift, shift2, shift * shift2)
        out = np.zeros_like(c)
        for m in sorted(self.terms):
            for ell in range(m + 1):
                term = c[:, m] * math.comb(m, ell)
                out[:, ell] += term if ell == m else term * powers[m - ell]
        return out


def _boundary_determinants(c1, c2, z0, z1) -> tuple:
    """b1(z0), b2(z0), the two-point determinant b1(z0) b2(z1) - b2(z0) b1(z1)
    and the value/derivative determinant b1(z0) b2'(z0) - b2(z0) b1'(z0)
    (' the xi_d-derivative), row by row for (..., 4) coefficient stacks c1,
    c2 of b1, b2 in xi_d and z0, z1 of their leading shape."""
    def horner(c, z):
        return (c[..., 0] + z * (c[..., 1] + z * (c[..., 2] + z * c[..., 3])),
                c[..., 1] + z * (2.0 * c[..., 2] + z * 3.0 * c[..., 3]))
    (v1, d1), (v2, d2) = horner(c1, z0), horner(c2, z0)
    return v1, v2, v1 * horner(c2, z1)[0] - v2 * horner(c1, z1)[0], v1 * d2 - v2 * d1


# One row per pair: name -> (b1, b2, parameter).  An operator is (order,
# {normal power m: terms}), a term (coef, r_power, a_power) as in
# TangentialTerm.  The parameter is None or (degree of a', default scale,
# (c, d)): the pair then requires |c a' + d| > 1e-12 on the unit sphere.
_CATALOG = {
    "hinged": (
        (0, {0: [(1.0, 0, 0)]}),
        (2, {2: [(-1.0, 0, 0)]}),
        None),
    "clamped": (
        (0, {0: [(1.0, 0, 0)]}),
        (1, {1: [(-1.0j, 0, 0)]}),
        None),
    "neumann_pair": (
        (1, {1: [(-1.0j, 0, 0)]}),
        (3, {3: [(1.0j, 0, 0)], 1: [(1.0j, 1, 0)]}),
        None),
    "ex2_dn2_dn3": (
        (2, {2: [(-1.0, 0, 0)], 0: [(-2.0, 1, 0)]}),
        (3, {3: [(1.0j, 0, 0)]}),
        None),
    "ex3_dn_dn3_A": (
        (1, {1: [(-1.0j, 0, 0)]}),
        (3, {3: [(1.0j, 0, 0)], 0: [(1.0, 0, 1)]}),
        (3, -1.0, (1.0, -2.0))),
    "ex4_id_dn2_A": (
        (0, {0: [(1.0, 0, 0)]}),
        (2, {2: [(-1.0, 0, 0)], 1: [(-1.0j, 0, 1)]}),
        (1, 1.0, (1.0, 2.0))),
    "ex5_dn2A_dn3": (
        (2, {2: [(-1.0, 0, 0)], 1: [(-1.0j, 0, 1)]}),
        (3, {3: [(1.0j, 0, 0)], 1: [(2.0j, 1, 0)]}),
        (1, 1.0, (2.0, 3.0))),
    # negative-control fixture: proportional rows can never be complete
    "degenerate_equal": (
        (1, {1: [(-1.0j, 0, 0)]}),
        (1, {1: [(-1.0j, 0, 0)]}),
        None),
}


def catalog_names(include_fixtures: bool = False):
    names = [n for n in _CATALOG if n != "degenerate_equal" or include_fixtures]
    return sorted(names)


def _pair(name: str, b1: tuple, b2: tuple,
          aprime: Optional[ParameterSymbol]) -> tuple:
    """The operators {name}_b1 and {name}_b2 of a pair whose operators are
    given as (order, {normal power: terms}), a term (coef, r_power,
    a_power); catalog rows and boundary files both end here."""
    return tuple(
        BoundaryOperatorSymbol(
            f"{name}_{tag}", order,
            {m: [TangentialTerm(*t) for t in terms] for m, terms in table.items()},
            aprime=aprime)
        for tag, (order, table) in (("b1", b1), ("b2", b2)))


def _admissibility_check(name: str, ap: ParameterSymbol, c: float, d: float):
    """Check of |c a' + d| > 1e-12 on the unit sphere |omega'| = 1 in one
    tangential dimension: both of its points, omega' = -1 and 1."""
    for omega in (np.array([-1.0]), np.array([1.0])):
        if not abs(c * complex(ap([0.0, 0.0], omega)) + d) > 1e-12:
            raise ValueError(f"{name}: parameter symbol violates the admissibility "
                             f"constraint on the unit sphere (at omega'={omega})")


def catalog_bc(name: str, params: Optional[dict] = None):
    """Boundary-operator pair from the built-in catalog.

    Families requiring a parameter symbol accept params={"a": scalar}, the
    scale of the parameter symbol.  Construction rejects parameters that
    violate the family's strict admissibility inequality on the unit
    sphere.
    """
    if name not in _CATALOG:
        raise KeyError(f"unknown boundary pair '{name}'; catalog: {catalog_names(True)}")
    b1, b2, param = _CATALOG[name]
    if param is None:
        return _pair(name, b1, b2, None)
    degree, default_scale, (c, d) = param
    ap = ParameterSymbol(degree, scale=float((params or {}).get("a", default_scale)))
    _admissibility_check(name, ap, c, d)
    return _pair(name, b1, b2, ap)


# ---------------------------------------------------------------------------
# declarative file format: one pair per file
#
#   name <identifier>
#   aprime <degree> <scale>          (optional)
#   b1 order <k>
#   b1 term <m> <coef_re> <coef_im> <r_power> <a_power>
#   b2 ...
# ---------------------------------------------------------------------------

def load_bc_file(path) -> tuple:
    name = None
    aprime = None
    orders = {}
    terms = {"b1": {}, "b2": {}}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            try:
                if tok[0] == "name":
                    name = tok[1]
                elif tok[0] == "aprime":
                    aprime = ParameterSymbol(int(tok[1]), float(tok[2]))
                elif tok[0] in ("b1", "b2") and tok[1] == "order":
                    orders[tok[0]] = int(tok[2])
                elif tok[0] in ("b1", "b2") and tok[1] == "term":
                    m = int(tok[2])
                    t = (complex(float(tok[3]), float(tok[4])),
                         int(tok[5]), int(tok[6]))
                    terms[tok[0]].setdefault(m, []).append(t)
                else:
                    raise ValueError("unrecognized directive")
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: cannot parse {raw!r} ({exc})") from exc
    if name is None or "b1" not in orders or "b2" not in orders:
        raise ValueError(f"{path}: file must declare a name and both operator orders")
    return _pair(name, (orders["b1"], terms["b1"]), (orders["b2"], terms["b2"]),
                 aprime)


# ---------------------------------------------------------------------------
# reports and verdicts
# ---------------------------------------------------------------------------

@dataclass
class LSReport:
    verdict: Optional[bool]
    case: Optional[RootCase]
    determinant: Optional[complex]
    margin: float
    marginal: bool
    scale: float = 1.0


def ls_unconjugated(b1: BoundaryOperatorSymbol, b2: BoundaryOperatorSymbol,
                    x, omega_prime) -> LSReport:
    """2x2 determinant test at xi_d = i|omega'|: the tau = 0 row of
    _determinants, a double upper root (case code 3) i|omega'| at scale
    lambda = |omega'|.

    The verdict compares |det| against DEFAULT_MARGIN_TOL times the
    homogeneity power
    |omega'|^(k1+k2-1); posed only for omega' != 0.
    """
    omega_prime = np.asarray(omega_prime, dtype=float).reshape(1, -1)
    nrm = math.sqrt(float(_form(omega_prime[0], omega_prime[0])))
    if nrm == 0.0:
        raise ValueError("undefined: the unconjugated condition is posed only "
                         "for omega' != 0")
    det, margin = _determinants(b1, b2, _Conjugated(
        np.array([3]), np.full((1, 2), 1j * nrm), np.array([nrm]),
        b1.coeff_vector(x, omega_prime), b2.coeff_vector(x, omega_prime)))
    return LSReport(verdict=bool(margin[0] > DEFAULT_MARGIN_TOL),
                    case=RootCase.DOUBLE_UPPER, determinant=complex(det[0]),
                    margin=float(margin[0]), marginal=False, scale=nrm)


class _Conjugated(NamedTuple):
    """m points' conjugated data: root case codes (indices into
    tuple(RootCase)) and upper roots as in RootStack, the scale lambda and
    the (m, 4) xi_d-coefficients of b1 and b2 conjugated."""
    case: np.ndarray
    upper: np.ndarray
    lam: np.ndarray
    c1: np.ndarray
    c2: np.ndarray


# roots of kappa+ per case code; codes 0-2 count the upper roots and 3 is
# a double root (see symbols.RootStack)
_UPPER_COUNT = np.array([0, 1, 2, 2])


def _conjugated(b1, b2, x, xi, tau, sigma, dphi_t, dphi_n, case,
                upper) -> _Conjugated:
    """The _Conjugated stack of m points at one x, from their root cases
    and upper roots."""
    lam = np.sqrt(tau ** 2 + _form(xi, xi) + sigma ** 2)
    arg = xi + 1j * tau[:, None] * dphi_t
    shift = 1j * tau * dphi_n
    return _Conjugated(case, upper, lam,
                       b1.conjugated_coeff_vector(x, arg, shift),
                       b2.conjugated_coeff_vector(x, arg, shift))


def _point(b1, b2, w: WeightJet, p: TangentialPoint):
    """(RootConfiguration, m = 1 _Conjugated stack) of one point, classified
    by classify_roots, which checks the weight and the point."""
    conf = classify_roots(p, w)
    up = conf.upper_roots or (0j,)
    case = np.array([tuple(RootCase).index(conf.case)])
    return conf, _conjugated(b1, b2, p.x, *point_stack(p, w), case,
                             np.array([[up[0], up[-1]]]))


def _determinants(b1, b2, st: _Conjugated) -> tuple:
    """(determinant, margin) per row, dispatched on the root case.

    No upper root: margin inf.  One upper root rho: the margin is the
    scaled norm of (b1, b2)(rho), and the determinant the auxiliary
    value/derivative one.  Two distinct upper roots: the 2x2 value
    determinant at the pair.  Double upper root: the value/derivative
    determinant, which coincides with the unconjugated test at tau = 0.
    """
    k1, k2, lam = b1.order, b2.order, st.lam
    v1, v2, pair, double = _boundary_determinants(st.c1, st.c2, st.upper[:, 0],
                                                  st.upper[:, 1])
    det = np.where(st.case == 2, pair, double)
    margin = np.where(st.case == 1,
                      np.sqrt(np.abs(v1) ** 2 / lam ** (2 * k1)
                              + np.abs(v2) ** 2 / lam ** (2 * k2)),
                      np.abs(det) / lam ** (k1 + k2 - (st.case == 3)))
    return det, np.where(st.case == 0, np.inf, margin)


def _singular_values(b1, b2, st: _Conjugated) -> np.ndarray:
    """(m, 4) singular values of the weighted stability matrices.

    Rows: the conjugated boundary symbols' xi_d-coefficient vectors, then
    kappa+ * xi_d^l, l = 0..3-m+, with kappa+ the monic factor carrying the
    m+ upper roots; zero rows pad every matrix to 6 x 4, which leaves its
    singular values unchanged.  Entries are weighted so that each becomes
    homogeneous of degree zero; a diagonal row/column scaling, so the rank
    is untouched.
    """
    m = len(st.lam)
    mplus = _UPPER_COUNT[st.case]
    z0, z1 = st.upper[:, 0], st.upper[:, 1]
    # monic kappa+ by convolving with (xi_d - rho) for each upper root
    kappa = np.zeros((m, 3), dtype=complex)
    kappa[:, 0] = 1.0
    for k, rho in enumerate((z0, z1)):
        shifted = np.concatenate([np.zeros((m, 1)), kappa[:, :2]], axis=1)
        kappa = np.where((mplus > k)[:, None], shifted - rho[:, None] * kappa,
                         kappa)
    M = np.zeros((m, 6, 4), dtype=complex)
    M[:, 0], M[:, 1] = st.c1, st.c2
    for ell in range(4):
        M[:, 2 + ell, ell:ell + 3] = kappa[:, :4 - ell]
    M[:, 2:][np.arange(4) >= 4 - mplus[:, None]] = 0.0
    lam = st.lam[:, None]
    row_w = lam ** np.concatenate(
        [np.full((m, 1), 3.5 - b1.order), np.full((m, 1), 3.5 - b2.order),
         3.5 - mplus[:, None] - np.arange(4)], axis=1)
    col_w = lam ** (np.arange(4) - 3.5)
    return np.linalg.svd((row_w[:, :, None] * M) * col_w[:, None, :],
                         compute_uv=False)


def _rank(s: np.ndarray) -> np.ndarray:
    """Numerical rank per row of singular values (0 for a zero matrix)."""
    return (s > DEFAULT_MARGIN_TOL * s[:, :1]).sum(axis=-1)


def ls_conjugated(b1: BoundaryOperatorSymbol, b2: BoundaryOperatorSymbol,
                  w: WeightJet, p: TangentialPoint) -> LSReport:
    """Conjugated condition at (x, xi', tau, sigma), dispatching on the root
    configuration (see _determinants): no upper root holds trivially; one
    upper root rho holds iff (b1, b2)(rho) does not vanish; two distinct or
    a double upper root hold iff the 2x2 determinant does not.  A marginal
    root classification withholds the verdict.  The m = 1 case of the
    stacked routes that sample_conjugated runs.
    """
    conf, st = _point(b1, b2, w, p)
    det, margin = _determinants(b1, b2, st)
    verdict = None if conf.marginal else bool(margin[0] > DEFAULT_MARGIN_TOL)
    return LSReport(verdict=verdict, case=conf.case,
                    determinant=None if conf.case is RootCase.NO_UPPER
                    else complex(det[0]),
                    margin=float(margin[0]), marginal=conf.marginal,
                    scale=float(st.lam[0]))


def ls_rank_oracle(b1: BoundaryOperatorSymbol, b2: BoundaryOperatorSymbol,
                   w: WeightJet, p: TangentialPoint) -> int:
    """Rank of the m' x 4 coefficient matrix of {b1, b2} joined with the
    xi_d-shifts of the upper-root factor; 4 exactly when the conjugated
    condition holds.  Independent of the determinant dispatch."""
    _, st = _point(b1, b2, w, p)
    return int(_rank(_singular_values(b1, b2, st))[0])


def positivity_margin(b1: BoundaryOperatorSymbol, b2: BoundaryOperatorSymbol,
                      w: WeightJet, p: TangentialPoint) -> float:
    """Smallest eigenvalue of the weighted Gram matrix M*M: the constant in
    the boundary quadratic-form lower bound.  Positive exactly when the
    conjugated condition holds; invariant under (xi', tau, sigma) dilation
    thanks to the homogeneity weights."""
    _, st = _point(b1, b2, w, p)
    return float(_singular_values(b1, b2, st)[0, -1] ** 2)


def sample_conjugated(b1: BoundaryOperatorSymbol, b2: BoundaryOperatorSymbol,
                      samples: int, seed: int = 0, kappa0: float = 1.0,
                      mu0: float = 0.25, mu1: float = 0.25) -> dict:
    """Seeded three-route agreement test of the conjugated condition at
    x = (0, 0): xi' standard normal, tau log-uniform in [0.1, 10], sigma
    uniform below min(1/kappa0, mu1) tau, dphi = (dphi_t, 1) with dphi_t
    uniform in [-mu0, mu0], drawn from random.Random(seed).

    A sample agrees when the determinant verdict, rank == 4 and a positive
    margin all hold.  Marginal samples are skipped.  The samples are drawn
    one by one and evaluated SAMPLE_BLOCK at a time, all three routes as
    one stack, so memory does not grow with `samples`; sampling stops
    after the first block with a disagreement, and counts the samples
    before it.  That sample is the counterexample (None if none), recorded
    from the per-point routes ls_conjugated, ls_rank_oracle and
    positivity_margin, so the public API reproduces it.  Returns the keys
    samples, passed, marginal_skipped and counterexample.
    """
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    rng = random.Random(seed)
    x0 = np.array([0.0, 0.0])
    dn = 1.0
    agree = 0
    marginal = 0
    counterexample = None
    for start in range(0, samples, SAMPLE_BLOCK):
        # columns xi', tau, sigma, dphi_t, one row per sample in draw order
        draws = np.empty((min(SAMPLE_BLOCK, samples - start), 4))
        for row in draws:
            xi, tau = rng.gauss(0.0, 1.0), 10.0 ** rng.uniform(-1.0, 1.0)
            row[:] = (xi, tau, rng.uniform(0.0, min(1.0 / kappa0, mu1) * tau),
                      rng.uniform(-mu0, mu0) * dn)
        pts = (draws[:, :1], draws[:, 1], draws[:, 2], draws[:, 3:],
               np.full(len(draws), dn))
        roots = classify_stack(x0, *pts)
        st = _conjugated(b1, b2, x0, *pts, roots.case, roots.upper)
        s = _singular_values(b1, b2, st)
        good = roots.marginal | ((_determinants(b1, b2, st)[1] > DEFAULT_MARGIN_TOL)
                                 & (_rank(s) == 4) & (s[:, -1] ** 2 > 1e-16))
        bad = np.flatnonzero(~good)
        stop = int(bad[0]) if bad.size else len(draws)
        skipped = int(roots.marginal[:stop].sum())
        marginal += skipped
        agree += stop - skipped
        if stop < len(draws):
            xi, tau, sigma, dtang = draws[stop].tolist()
            p = TangentialPoint(x0, [xi], tau, sigma)
            w = WeightJet(1.0, [dtang], dn)
            rep = ls_conjugated(b1, b2, w, p)
            counterexample = {"xi_prime": xi, "tau": tau, "sigma": sigma,
                              "dphi_tangential": dtang,
                              "verdict": rep.verdict,
                              "rank": ls_rank_oracle(b1, b2, w, p),
                              "positivity": positivity_margin(b1, b2, w, p),
                              "case": rep.case.value}
            break
    return {"samples": samples, "passed": agree, "marginal_skipped": marginal,
            "counterexample": counterexample}


def perturbation_margin(b1: BoundaryOperatorSymbol, b2: BoundaryOperatorSymbol,
                        x, xi_prime) -> float:
    """On PERTURBATION_RADII log-spaced radii eps from PERTURBATION_FLOOR
    to PERTURBATION_CAP, the largest one below the first at which a
    perturbed determinant lower bound fails, with C1 = half the unperturbed
    margin, over sampled complex perturbations with
    |zeta'| + |delta| + |delta~| = eps |xi'|.

    Sample directions are drawn once from random.Random(0) and rescaled,
    so the scan is reproducible.  Returns PERTURBATION_CAP when no radius
    fails, and 0 when the smallest one fails or the unperturbed margin is
    already below tolerance.
    """
    xi_prime = np.asarray(xi_prime, dtype=float).reshape(-1)
    base = ls_unconjugated(b1, b2, x, xi_prime)
    if base.margin <= DEFAULT_MARGIN_TOL:
        return 0.0
    c1, nrm, power = 0.5 * base.margin, base.scale, b1.order + b2.order - 1

    # row k holds direction k's draws in the order of one draw per
    # direction: Re zeta', Im zeta', then delta and delta~ (Re, Im each)
    tdim = xi_prime.size
    rng = random.Random(0)
    g = np.array([[rng.gauss(0.0, 1.0) for _ in range(2 * tdim + 4)]
                  for _ in range(PERTURBATION_DIRECTIONS)])
    zeta = g[:, :tdim] + 1j * g[:, tdim:2 * tdim]
    delta, delta2 = g[:, -4] + 1j * g[:, -3], g[:, -2] + 1j * g[:, -1]
    total = np.linalg.norm(zeta, axis=1) + np.abs(delta) + np.abs(delta2)
    zeta, delta, delta2 = zeta / total[:, None], delta / total, delta2 / total

    # from below, a block of radii per pass: rows radii, columns directions
    radii = np.geomspace(PERTURBATION_FLOOR, PERTURBATION_CAP, PERTURBATION_RADII)
    for lo in range(0, radii.size, PERTURBATION_BLOCK):
        h = nrm * radii[lo:lo + PERTURBATION_BLOCK, None]
        zp = xi_prime + h[..., None] * zeta
        zd, zd2 = 1j * nrm + h * delta, 1j * nrm + h * delta2
        _, _, det2, det1 = _boundary_determinants(
            b1.coeff_vector(x, zp), b2.coeff_vector(x, zp),
            zd, zd2)
        fails = ((np.abs(det1) < c1 * nrm ** power) | (
            np.abs(det2) < c1 * np.abs(h * (delta - delta2)) * nrm ** (power - 1))
        ).any(axis=1)
        if fails.any():
            first = lo + int(np.argmax(fails))
            return float(radii[first - 1]) if first else 0.0
    return PERTURBATION_CAP
