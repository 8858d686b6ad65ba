"""Root formulas, branch conventions, and the sign criterion."""

import cmath
import math

import numpy as np
import pytest

from platelab.symbols import (
    RootCase,
    TangentialPoint,
    WeightJet,
    branch_sqrt,
    classify_roots,
    classify_stack,
    factor_roots,
    factor_symbol_eval,
    im_sign_criterion,
    point_stack,
    quartic_roots,
)

from conftest import companion_roots, conjugated_quartic_coeffs, match_roots


def random_point_and_jet(rng, tdim=1, tau_max=3.0):
    xi = rng.normal(size=tdim)
    tau = float(rng.uniform(0, tau_max))
    sigma = float(rng.uniform(0, tau_max))
    if np.linalg.norm(xi) + tau + sigma < 1e-12:
        xi = np.ones(tdim)
    p = TangentialPoint(np.zeros(tdim + 1), xi, tau, sigma)
    w = WeightJet(float(rng.uniform(0.5, 2.0)), rng.normal(size=tdim),
                  float(rng.uniform(0.2, 2.0)))
    return p, w


def covering_points(seed=11, count=100):
    """(p, w) at x = 0 covering all four root cases, marginal or not: a
    tau = 0 double root, a marginal root on the real axis at tau = 0,
    factor 1's pi_2 on the real axis and within the tolerance of it, one
    and no upper root, then seeded random draws."""
    x = [0.0, 0.0]
    unit = WeightJet(1.0, [0.0], 1.0)
    points = [(TangentialPoint(x, [xi], tau, sigma), unit) for xi, tau, sigma in
              [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 1.0, 0.0),
               (1.0, 1.0 + 1e-11, 0.0), (1.0, 1.0, 1.0), (0.0, 2.0, 1.0)]]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = TangentialPoint(x, rng.normal(size=1), float(10 ** rng.uniform(-1, 1)),
                            float(rng.uniform(0.0, 1.5)))
        points.append((p, WeightJet(1.0, 0.5 * rng.normal(size=1),
                                    float(rng.uniform(0.3, 1.5)))))
    return points


def stack_points(points):
    """x and the classify_stack columns of points that share one x."""
    cols = zip(*(point_stack(p, w) for p, w in points))
    return points[0][0].x, [np.concatenate(c) for c in cols]


class TestFactorEval:
    def test_unconjugated_root(self):
        p = TangentialPoint([0.0, 0.0], [1.0], 0.0, 0.0)
        w = WeightJet(1.0, [0.0], 1.0)
        assert factor_symbol_eval(p, w, 1, 1j) == 0

    def test_real_root_case(self):
        p = TangentialPoint([0.0, 0.0], [0.0], 1.0, 1.0)
        w = WeightJet(1.0, [0.0], 1.0)
        assert factor_symbol_eval(p, w, 2, 0.0) == 0

    def test_matches_root_factorization(self, rng):
        for _ in range(300):
            p, w = random_point_and_jet(rng)
            j = int(rng.integers(1, 3))
            rp = factor_roots(p, w, j)
            zd = complex(rng.normal(), rng.normal()) * p.lambda_T_sigma
            via_roots = (zd - rp.pi_1) * (zd - rp.pi_2)
            direct = factor_symbol_eval(p, w, j, zd)
            assert abs(direct - via_roots) <= 1e-10 * max(p.lambda_T_sigma, 1.0) ** 2 \
                * max(1.0, abs(zd / max(p.lambda_T_sigma, 1e-30))) ** 2


class TestFactorRoots:
    def test_zero_tangential_gradient_formula(self):
        p = TangentialPoint([0.0, 0.0], [1.0], 2.0, 0.0)
        w = WeightJet(1.0, [0.0], 1.0)
        rp = factor_roots(p, w, 1)
        assert rp.alpha == pytest.approx(1.0)
        assert rp.pi_1 == pytest.approx(-3j)
        assert rp.pi_2 == pytest.approx(-1j)

    def test_real_root(self):
        p = TangentialPoint([0.0, 0.0], [0.0], 1.0, 1.0)
        w = WeightJet(1.0, [0.0], 1.0)
        rp = factor_roots(p, w, 2)
        assert rp.alpha == pytest.approx(1.0)
        assert rp.pi_2 == pytest.approx(0.0)

    def test_vieta_identities(self, rng):
        for _ in range(1000):
            p, w = random_point_and_jet(rng, tdim=int(rng.integers(1, 3)))
            j = int(rng.integers(1, 3))
            rp = factor_roots(p, w, j)
            lam = max(p.lambda_T_sigma, w.d_normal * p.tau, 1e-30)
            assert abs(rp.pi_1 + rp.pi_2 + 2j * p.tau * w.d_normal) <= 1e-10 * lam
            prod_expect = -(p.tau * w.d_normal) ** 2 + rp.alpha ** 2
            assert abs(rp.pi_1 * rp.pi_2 - prod_expect) <= 1e-10 * lam ** 2

    def test_branch_convention(self, rng):
        for _ in range(500):
            p, w = random_point_and_jet(rng)
            rp = factor_roots(p, w, int(rng.integers(1, 3)))
            assert rp.alpha.real >= 0
            assert abs(rp.alpha ** 2 - rp.radicand) <= \
                1e-12 * max(abs(rp.radicand), 1e-30)

    def test_branch_tie_prefers_upper(self):
        assert branch_sqrt(-4.0) == 2j
        assert branch_sqrt(complex(-4.0, -0.0)) == 2j

    def test_lower_root_always_lower(self, rng):
        for _ in range(500):
            p, w = random_point_and_jet(rng)
            rp = factor_roots(p, w, int(rng.integers(1, 3)))
            assert rp.pi_1.imag <= -p.tau * w.d_normal * (1 - 1e-12)

    def test_negative_real_radicand_both_lower(self, rng):
        # radicand in R^-: both roots at Im = -tau dphi_n
        for _ in range(200):
            tau = float(rng.uniform(0.5, 2.0))
            sigma = float(rng.uniform(1.1, 3.0)) * tau
            p = TangentialPoint([0.0, 0.0], [0.0], tau, sigma)
            w = WeightJet(1.0, [0.0], 1.0)
            rp = factor_roots(p, w, 1)
            assert rp.pi_1.imag == pytest.approx(-tau * w.d_normal)
            assert rp.pi_2.imag == pytest.approx(-tau * w.d_normal)

    def test_homogeneity(self, rng):
        for _ in range(300):
            p, w = random_point_and_jet(rng)
            j = int(rng.integers(1, 3))
            t = float(rng.uniform(0.1, 10.0))
            rp = factor_roots(p, w, j)
            rp_t = factor_roots(p.scaled(t), w, j)
            lam = max(t * p.lambda_T_sigma, 1e-30)
            assert abs(rp_t.pi_1 - t * rp.pi_1) <= 1e-10 * lam
            assert abs(rp_t.pi_2 - t * rp.pi_2) <= 1e-10 * lam


class TestQuarticRoots:
    def test_unconjugated_double_pair(self):
        p = TangentialPoint([0.0, 0.0], [1.0], 0.0, 0.0)
        w = WeightJet(1.0, [0.0], 1.0)
        roots = sorted(quartic_roots(p, w), key=lambda z: (z.imag, z.real))
        assert roots[0] == pytest.approx(-1j)
        assert roots[1] == pytest.approx(-1j)
        assert roots[2] == pytest.approx(1j)
        assert roots[3] == pytest.approx(1j)

    def test_factor_union_with_real_root(self):
        p = TangentialPoint([0.0, 0.0], [0.0], 1.0, 1.0)
        w = WeightJet(1.0, [0.0], 1.0)
        roots = quartic_roots(p, w)
        assert min(abs(r) for r in roots) == pytest.approx(0.0)

    def test_against_companion_matrix_oracle(self, rng):
        for _ in range(400):
            p, w = random_point_and_jet(rng, tdim=int(rng.integers(1, 3)))
            coeffs = conjugated_quartic_coeffs(p, w)
            oracle = companion_roots(coeffs)
            ours = quartic_roots(p, w)
            lam = max(p.lambda_T_sigma, p.tau * w.d_normal, 1e-30)
            assert match_roots(oracle, ours) <= 1e-8 * lam

    def test_companion_oracle_at_near_double_upper_roots(self):
        # sigma = 0.0359 puts the two upper roots 6.1e-6 apart at
        # lambda = 124; the companion eigenvalues before Newton polishing
        # miss by 4.9e-8 lambda here
        p = TangentialPoint([0.0, 0.0, 0.0], [0.0, 37.5], 118.2, 0.0359)
        w = WeightJet(1.0, [-0.93, -1.5], 0.27)
        conf = classify_roots(p, w)
        assert conf.case is RootCase.TWO_UPPER
        assert abs(conf.upper_roots[0] - conf.upper_roots[1]) < 1e-5
        oracle = companion_roots(conjugated_quartic_coeffs(p, w))
        lam = max(p.lambda_T_sigma, p.tau * w.d_normal)
        assert match_roots(oracle, quartic_roots(p, w)) <= 1e-8 * lam

    def test_companion_oracle_at_two_near_double_pairs(self):
        # small xi' and sigma: the two factors' roots form two pairs 4.4e-7
        # apart, so rounding the quartic's coefficients to float64 alone
        # moves the roots by 1.5e-6 lambda
        p = TangentialPoint([0.0, 0.0], [-0.01533], 2.544, 9.56e-5)
        w = WeightJet(1.0, [-0.00548], 1.802)
        ours = quartic_roots(p, w)
        pairs = sorted(ours, key=lambda z: z.imag)
        assert max(abs(pairs[0] - pairs[1]), abs(pairs[2] - pairs[3])) < 1e-6
        oracle = companion_roots(conjugated_quartic_coeffs(p, w))
        lam = max(p.lambda_T_sigma, p.tau * w.d_normal)
        assert match_roots(oracle, ours) <= 1e-8 * lam


class TestClassification:
    def test_unconjugated_is_double_upper(self):
        p = TangentialPoint([0.0, 0.0], [1.0], 0.0, 0.0)
        w = WeightJet(1.0, [0.0], 1.0)
        conf = classify_roots(p, w)
        assert conf.case is RootCase.DOUBLE_UPPER
        assert conf.upper_roots[0] == pytest.approx(1j)
        assert not conf.marginal

    def test_dominant_tau_gives_no_upper(self):
        p = TangentialPoint([0.0, 0.0], [0.0], 2.0, 1.0)
        w = WeightJet(1.0, [0.0], 1.0)
        conf = classify_roots(p, w)
        assert conf.case is RootCase.NO_UPPER

    def test_rejects_outward_weight(self):
        p = TangentialPoint([0.0, 0.0], [1.0], 1.0, 0.0)
        with pytest.raises(ValueError):
            classify_roots(p, WeightJet(1.0, [0.0], -1.0))

    def test_rejects_degenerate_point(self):
        p = TangentialPoint([0.0, 0.0], [0.0], 0.0, 0.0)
        with pytest.raises(ValueError):
            classify_roots(p, WeightJet(1.0, [0.0], 1.0))

    def test_matches_im_sign_criterion_on_sweep(self, rng):
        # classification of pi_{j,2} flips exactly where the algebraic
        # criterion does, over a tau/sigma sweep at fixed xi'
        w = WeightJet(1.0, [0.3], 1.0)
        for tau in np.linspace(0.05, 3.0, 20):
            for sigma in np.linspace(0.0, 2.5, 20):
                p = TangentialPoint([0.0, 0.0], [1.0], float(tau), float(sigma))
                conf = classify_roots(p, w)
                if conf.marginal:
                    continue
                uppers = {1: False, 2: False}
                for rp in conf.pairs:
                    uppers[rp.factor_index] = rp.pi_2 in conf.upper_roots
                for j in (1, 2):
                    predicted_lower = im_sign_criterion(p, w, j)
                    assert predicted_lower == (not uppers[j])

    def test_per_point_is_a_stacked_row(self):
        # classify_roots is the m = 1 case of classify_stack: equal, value
        # for value, to the row of the same point in a stack
        points = covering_points()
        x, cols = stack_points(points)
        roots = classify_stack(x, *cols)
        seen = set()
        for i, (p, w) in enumerate(points):
            conf = classify_roots(p, w)
            seen.add((conf.case, conf.marginal))
            assert tuple(RootCase)[roots.case[i]] is conf.case
            assert roots.marginal[i] == conf.marginal
            assert conf.upper_roots == \
                tuple(roots.upper[i, :len(conf.upper_roots)].tolist())
            for j, rp in enumerate(conf.pairs):
                assert (rp.radicand, rp.alpha, rp.pi_1, rp.pi_2) == (
                    roots.radicand[i, j], roots.alpha[i, j], roots.pi_1[i, j],
                    roots.pi_2[i, j])
                assert factor_roots(p, w, j + 1) == rp
        assert {case for case, _ in seen} == set(RootCase)
        assert {marginal for _, marginal in seen} == {True, False}

    def test_no_real_double_root(self, rng):
        # sigma bounded below: a double upper root never appears, in
        # particular no real double root
        for _ in range(2000):
            p, w = random_point_and_jet(rng)
            lam = p.lambda_T
            if lam == 0 or p.sigma < 0.01 * lam:
                continue
            conf = classify_roots(p, w)
            assert conf.case is not RootCase.DOUBLE_UPPER


class TestImSignCriterion:
    def test_reduction_at_zero_tangential_data(self, rng):
        # xi' = 0, dphi_t = 0: factor 2 reduces to tau dphi_n > sigma and
        # factor 1 is unconditional for (tau, sigma) != 0
        for _ in range(300):
            tau = float(rng.uniform(0.01, 3.0))
            sigma = float(rng.uniform(0.0, 3.0))
            dn = float(rng.uniform(0.2, 2.0))
            p = TangentialPoint([0.0, 0.0], [0.0], tau, sigma)
            w = WeightJet(1.0, [0.0], dn)
            assert im_sign_criterion(p, w, 2) == (tau * dn > sigma)
            assert im_sign_criterion(p, w, 1)

    def test_agreement_with_direct_roots(self, rng):
        checked = 0
        while checked < 10000:
            p, w = random_point_and_jet(rng, tdim=int(rng.integers(1, 3)))
            if p.tau <= 1e-6:
                continue
            j = int(rng.integers(1, 3))
            rp = factor_roots(p, w, j)
            margin = abs(rp.pi_2.imag) / max(p.lambda_T_sigma, 1e-30)
            if margin <= 1e-9:
                continue
            assert im_sign_criterion(p, w, j) == (rp.pi_2.imag < 0)
            checked += 1

    def test_sufficient_lower_root_constant(self, rng):
        # with |dphi_t| <= K0 dphi_n and C = 2 >= sqrt(1 + K0^2) (K0 = 1,
        # Euclidean): C |xi'| + sigma <= tau dphi_n forces both pi_{j,2} low
        C = 2.0
        for _ in range(2000):
            p, w = random_point_and_jet(rng)
            dn = w.d_normal
            dt = w.d_tangential
            if np.linalg.norm(dt) > dn:
                dt = dt * dn / np.linalg.norm(dt) * 0.99
                w = WeightJet(w.phi, dt, dn)
            if C * np.linalg.norm(p.xi_prime) + p.sigma > p.tau * dn:
                continue
            if p.tau == 0:
                continue
            for j in (1, 2):
                assert factor_roots(p, w, j).pi_2.imag < 1e-12 * p.lambda_T_sigma

    def test_low_frequency_necessity(self, rng):
        # fit the constant on one sample, verify on a fresh one
        kappa0 = 1.0

        def gen(seed, n):
            local = np.random.default_rng(seed)
            out = []
            for _ in range(n):
                p, w = random_point_and_jet(local)
                if p.tau < kappa0 * p.sigma or p.tau == 0:
                    continue
                for j in (1, 2):
                    if factor_roots(p, w, j).pi_2.imag < 0:
                        grad = math.hypot(np.linalg.norm(w.d_tangential), w.d_normal)
                        out.append((np.linalg.norm(p.xi_prime), p.tau, grad))
            return out

        fit = max((xi / tau) / math.sqrt(g ** 2 + 1 / kappa0 ** 2)
                  for xi, tau, g in gen(1, 4000))
        C = 1.05 * fit
        for xi, tau, g in gen(2, 4000):
            assert xi <= C * tau * math.sqrt(g ** 2 + 1 / kappa0 ** 2)
