"""Shared independent oracles for the test suite.

These deliberately avoid the production code paths they check: quartic
roots come from an explicit companion matrix polished by Newton steps on
the quartic, Poisson brackets from central finite differences, beam
frequencies from bisection on the characteristic equation, and polynomial
coefficients from direct expansion in 50-digit arithmetic.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

ORACLE_DPS = 50


def companion_roots(coeffs):
    """Roots of sum_k coeffs[k] z^k (ascending; complex or mpmath numbers):
    eigenvalues of the explicitly assembled companion matrix, polished by
    simultaneous Newton steps until a step is below 1e-14 relative.  The
    polynomial and its derivative are evaluated in ORACLE_DPS digits, so the
    polish is limited only by the float64 roots it returns.  Each Newton
    correction is deflated by the other roots (Aberth), so two near-double
    roots stay apart; the eigenvalues alone miss by O(eps |C| / separation)
    there."""
    with mpmath.workdps(ORACLE_DPS):
        c = [mpmath.mpc(v) for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        n = len(c) - 1
        if n < 1:
            return np.array([])
        C = np.zeros((n, n), dtype=complex)
        C[1:, :-1] = np.eye(n - 1)
        C[:, -1] = [-complex(v / c[-1]) for v in c[:-1]]
        z = np.linalg.eigvals(C)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(60):
                f, df = np.array([[complex(v) for v in mpmath.polyval(
                    c[::-1], mpmath.mpc(zk), derivative=True)] for zk in z]).T
                gap = z[:, None] - z[None, :]
                np.fill_diagonal(gap, np.inf)
                step = f / (df - f * (1.0 / gap).sum(axis=1))
                step = np.where(np.isfinite(step), step, 0.0)
                z = z - step
                if np.abs(step).max() <= 1e-14 * max(1.0, np.abs(z).max()):
                    break
    return z


def match_roots(a, b):
    """Greedy pairing of two equal-length root multisets; returns the
    maximum matched distance."""
    a = list(a)
    b = list(b)
    worst = 0.0
    for ra in a:
        k = min(range(len(b)), key=lambda i: abs(b[i] - ra))
        worst = max(worst, abs(b[k] - ra))
        b.pop(k)
    return worst


def conjugated_quartic_coeffs(p, w, metric=None):
    """xi_d-coefficients (ascending, ORACLE_DPS-digit mpmath numbers) of the
    conjugated fourth-order symbol: each factor's radicand
    r(x, xi' + i tau dphi_t) -/+ sigma^2 from the matrix metric.gmatrix(x)
    (the identity without a metric), then the product of the two quadratic
    factors, all expanded from the float64 inputs in extended precision."""
    tdim = p.xi_prime.size
    g = np.eye(tdim) if metric is None else metric.gmatrix(p.x)
    with mpmath.workdps(ORACLE_DPS):
        mpf = mpmath.mpf
        tau = mpf(p.tau)
        a = [mpmath.mpc(mpf(xi), tau * mpf(dt))
             for xi, dt in zip(p.xi_prime.tolist(), w.d_tangential.tolist())]
        r = sum(mpf(g[i, k]) * a[i] * a[k]
                for i in range(tdim) for k in range(tdim))
        s = mpmath.mpc(0, tau * mpf(w.d_normal))
        s2 = mpf(p.sigma) ** 2
        # (z + s)^2 + rad = z^2 + 2 s z + (s^2 + rad)
        q1, q2 = ([s ** 2 + r + sign * s2, 2 * s, mpf(1)] for sign in (-1, 1))
        return [sum(q1[i] * q2[k - i] for i in range(3) if 0 <= k - i < 3)
                for k in range(5)]


def fd_bracket(fval, gval, x, xi, h=1e-6):
    """Central finite-difference Poisson bracket of two callables f(x, xi)."""
    d = len(x)
    total = 0.0
    for k in range(d):
        ek = np.zeros(d)
        ek[k] = h
        df_dxi = (fval(x, xi + ek) - fval(x, xi - ek)) / (2 * h)
        dg_dx = (gval(x + ek, xi) - gval(x - ek, xi)) / (2 * h)
        df_dx = (fval(x + ek, xi) - fval(x - ek, xi)) / (2 * h)
        dg_dxi = (gval(x, xi + ek) - gval(x, xi - ek)) / (2 * h)
        total += df_dxi * dg_dx - df_dx * dg_dxi
    return total


def beam_characteristic_root(which, k=1, tol=1e-13):
    """k-th positive root of cos(b)cosh(b) = 1 ('clamped'/'free') or
    cos(b)cosh(b) = -1 ('cantilever'), by plain bisection."""
    target = {"clamped": 1.0, "free": 1.0, "cantilever": -1.0}[which]
    f = lambda b: math.cos(b) * math.cosh(b) - target

    roots = []
    lo = 0.5
    b = lo
    prev = f(b)
    while len(roots) < k:
        b += 0.01
        cur = f(b)
        if prev * cur <= 0:
            a_, b_ = b - 0.01, b
            for _ in range(200):
                mid = 0.5 * (a_ + b_)
                if f(a_) * f(mid) <= 0:
                    b_ = mid
                else:
                    a_ = mid
                if b_ - a_ < tol:
                    break
            roots.append(0.5 * (a_ + b_))
        prev = cur
    return roots[k - 1]


def scipy_csr(op):
    """A plate operator's matrix as a scipy.sparse.csr_matrix on its own CSR
    arrays, for references written with scipy's sparse objects."""
    import scipy.sparse
    indptr, indices, data = op.csr
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=op.csr.shape)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
