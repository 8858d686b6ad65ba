"""Shared independent oracles for the test suite.

These deliberately avoid the production code paths they check: quartic
roots come from an explicit companion matrix polished by Newton steps on
the quartic, Poisson brackets from central finite differences, beam
frequencies from bisection on the characteristic equation, and polynomial
coefficients from direct expansion.
"""

import cmath
import math

import numpy as np
import pytest


def companion_roots(coeffs):
    """Roots of sum_k coeffs[k] z^k (ascending): eigenvalues of the
    explicitly assembled companion matrix, polished by four simultaneous
    Newton steps on the polynomial in long double.  Each Newton correction is
    deflated by the other roots (Aberth), so two near-double roots stay
    apart; the eigenvalues alone miss by O(eps |C| / separation) there."""
    c = np.asarray(coeffs, dtype=complex)
    c = np.trim_zeros(c, "b")
    n = c.size - 1
    if n < 1:
        return np.array([])
    monic = c / c[-1]
    C = np.zeros((n, n), dtype=complex)
    C[1:, :-1] = np.eye(n - 1)
    C[:, -1] = -monic[:-1]
    z = np.linalg.eigvals(C).astype(np.clongdouble)
    poly = c[::-1].astype(np.clongdouble)          # descending, for polyval
    dpoly = np.polyder(poly)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(4):
            gap = z[:, None] - z[None, :]
            np.fill_diagonal(gap, np.inf)
            f = np.polyval(poly, z)
            step = f / (np.polyval(dpoly, z) - f * (1.0 / gap).sum(axis=1))
            z -= np.where(np.isfinite(step), step, 0.0)
    return z.astype(complex)


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
    """xi_d-coefficients of the conjugated fourth-order symbol by direct
    expansion of the product of the two quadratic factors."""
    from platelab.symbols import factor_radicand
    s = 1j * p.tau * w.d_normal
    out = {}
    quads = []
    for j in (1, 2):
        rad = factor_radicand(p, w, j, metric)
        # (z + s)^2 + rad = z^2 + 2 s z + (s^2 + rad)
        quads.append(np.array([s ** 2 + rad, 2 * s, 1.0], dtype=complex))
    return np.convolve(quads[0], quads[1])


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


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
