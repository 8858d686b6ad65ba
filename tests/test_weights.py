"""Weight jets, Poisson brackets, and the sub-ellipticity searches."""

import math

import numpy as np
import pytest

from platelab.weights import (
    AffineField,
    BracketJet,
    MuSearchError,
    PeakField1D,
    Polynomial1DField,
    TensorProductField,
    WeightField,
    _verify_global_weight,
    build_global_weight,
    characteristic_points,
    gamma_search,
    mu_search,
    poisson_bracket,
    subellipticity_check,
    symbol_jets,
)

from conftest import fd_bracket

PARABOLA = Polynomial1DField([0.1, 1.0, -1.0])   # 0.1 + x - x^2
REGION = [np.array([t]) for t in np.linspace(0.05, 0.4, 7)]
TAU0 = 0.01


def make_wf2d(gamma=2.0):
    return WeightField(AffineField(0.3, [0.2, 1.0]), gamma)


def same_jet(f, g):
    """Bitwise equality of two BracketJets."""
    return np.array_equal(f.value, g.value) and np.array_equal(f.dx, g.dx) \
        and np.array_equal(f.dxi, g.dxi)


class TestJets:
    def test_chain_rule(self, rng):
        psi = Polynomial1DField([0.2, 0.7, -0.3, 0.05])
        wf = WeightField(psi, 3.0)
        for _ in range(50):
            x = np.array([float(rng.uniform(0, 1))])
            phi, dphi, hess = (a[0] for a in wf.phi_jet(x))
            pv, pg, ph = (a[0] for a in psi.jet(x))
            assert phi == pytest.approx(math.exp(3.0 * pv), rel=1e-12)
            assert dphi[0] == pytest.approx(3.0 * phi * pg[0], rel=1e-12)
            expect_h = 3.0 * phi * (3.0 * pg[0] ** 2 + ph[0, 0])
            assert hess[0, 0] == pytest.approx(expect_h, rel=1e-12)

    def test_tensor_field_derivatives(self, rng):
        f = TensorProductField([PeakField1D(0.0, 1.0, 0.4),
                                PeakField1D(0.0, 2.0, 1.2)])
        h = 1e-6
        for _ in range(20):
            x = np.array([rng.uniform(0.1, 0.9), rng.uniform(0.2, 1.8)])
            _, g, H = (a[0] for a in f.jet(x))
            for k in range(2):
                ek = np.zeros(2)
                ek[k] = h
                fd = (f.jet(x + ek)[0][0] - f.jet(x - ek)[0][0]) / (2 * h)
                assert g[k] == pytest.approx(fd, rel=1e-6, abs=1e-8)
                fd2 = (f.jet(x + ek)[1][0] - f.jet(x - ek)[1][0]) / (2 * h)
                assert H[:, k] == pytest.approx(fd2, rel=1e-5, abs=1e-6)


def close_rows(batch, one, rtol=1e-13):
    """Row-wise agreement to rtol relative to the largest entry."""
    scale = max(float(np.max(np.abs(batch))), 1e-300)
    return np.allclose(batch, one, rtol=rtol, atol=rtol * scale)


class TestBatchedKernels:
    """Row i of a batched call equals the m = 1 call at point i: bit for bit
    in 1-D, to 1e-13 relative in 2-D."""

    def test_1d_field_and_phi_jets(self, rng):
        xs = rng.uniform(0.05, 0.95, size=(12, 1))
        for psi in (PARABOLA, PeakField1D(0.0, 1.0, 0.4),
                    AffineField(0.2, [0.7])):
            wf = WeightField(psi, 3.0)
            for jet in (psi.jet, wf.phi_jet):
                batch = jet(xs)
                assert [a.shape for a in batch] == [(12,), (12, 1), (12, 1, 1)]
                for i, x in enumerate(xs):
                    for rows, one in zip(batch, jet(x)):
                        assert np.array_equal(rows[i:i + 1], one)

    def test_2d_field_and_phi_jets(self, rng):
        psi = TensorProductField([PeakField1D(0.0, 1.0, 0.4),
                                  PeakField1D(0.0, 2.0, 1.2)])
        xs = np.column_stack([rng.uniform(0.1, 0.9, 9), rng.uniform(0.2, 1.8, 9)])
        for jet in (psi.jet, WeightField(psi, 2.0).phi_jet, make_wf2d().phi_jet):
            batch = jet(xs)
            assert [a.shape for a in batch] == [(9,), (9, 2), (9, 2, 2)]
            for i, x in enumerate(xs):
                for rows, one in zip(batch, jet(x)):
                    assert close_rows(rows[i:i + 1], one)

    def test_1d_symbol_jets(self, rng):
        wf = WeightField(PARABOLA, 2.0)
        x = rng.uniform(0.05, 0.4, size=(10, 1))
        xi = rng.normal(size=(10, 1))
        tau, sigma = rng.uniform(0.2, 2.0, 10), rng.uniform(0.0, 1.0, 10)
        for j in (1, 2):
            qs, qa = symbol_jets(wf, x, xi, tau, sigma, j)
            br = poisson_bracket(qs, qa)
            for i in range(10):
                qs1, qa1 = symbol_jets(wf, x[i], xi[i], tau[i], sigma[i], j)
                assert same_jet(qs[i:i + 1], qs1) and same_jet(qa[i:i + 1], qa1)
                assert np.array_equal(br[i:i + 1], poisson_bracket(qs1, qa1))

    def test_2d_symbol_jets(self, rng):
        wf = make_wf2d()
        x = rng.uniform(0.1, 0.9, size=(10, 2))
        xi = rng.normal(size=(10, 2))
        tau, sigma = rng.uniform(0.2, 2.0, 10), rng.uniform(0.0, 1.0, 10)
        for j in (1, 2):
            qs, qa = symbol_jets(wf, x, xi, tau, sigma, j)
            br = poisson_bracket(qs, qa)
            for i in range(10):
                qs1, qa1 = symbol_jets(wf, x[i], xi[i], tau[i], sigma[i], j)
                for f, f1 in ((qs, qs1), (qa, qa1)):
                    assert close_rows(f.value[i:i + 1], f1.value)
                    assert close_rows(f.dx[i:i + 1], f1.dx)
                    assert close_rows(f.dxi[i:i + 1], f1.dxi)
                assert close_rows(br[i:i + 1], poisson_bracket(qs1, qa1))

    def test_2d_characteristic_points(self, rng):
        wf = make_wf2d()
        x = rng.uniform(0.1, 0.9, size=(6, 2))
        for j in (1, 2):
            args = (j, [0.0, 0.4, 1.5])
            batch = characteristic_points(wf, x, *args)
            rows = [characteristic_points(wf, x[i], *args) for i in range(6)]
            assert len(batch[2]) == sum(len(r[2]) for r in rows) > 0
            for k in range(4):
                assert close_rows(batch[k], np.concatenate([r[k] for r in rows]))
            # q vanishes on the set, so each jet is scaled by its largest entry
            for k in (4, 5):
                fields = [(getattr(batch[k], f), np.concatenate(
                    [getattr(r[k], f) for r in rows])) for f in ("value", "dx", "dxi")]
                scale = max(np.abs(got).max() for got, _ in fields)
                for got, want in fields:
                    assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * scale)


class TestPoissonBracket:
    def test_self_bracket_vanishes(self, rng):
        f = BracketJet(1.0, rng.normal(size=3), rng.normal(size=3))
        assert poisson_bracket(f, f) == 0.0

    def test_antisymmetry_bilinearity(self, rng):
        for _ in range(50):
            f = BracketJet(0.0, rng.normal(size=2), rng.normal(size=2))
            g = BracketJet(0.0, rng.normal(size=2), rng.normal(size=2))
            h = BracketJet(0.0, rng.normal(size=2), rng.normal(size=2))
            assert poisson_bracket(f, g) == pytest.approx(-poisson_bracket(g, f))
            fg = BracketJet(0.0, f.dx + 2 * g.dx, f.dxi + 2 * g.dxi)
            assert poisson_bracket(fg, h) == pytest.approx(
                poisson_bracket(f, h) + 2 * poisson_bracket(g, h))

    def test_against_finite_differences(self, rng):
        wf = make_wf2d()
        for j in (1, 2):
            for _ in range(20):
                x = rng.uniform(0.1, 0.9, size=2)
                xi = rng.normal(size=2)
                tau = float(rng.uniform(0.2, 2.0))
                sigma = float(rng.uniform(0.0, 1.0))
                qs, qa = symbol_jets(wf, x, xi, tau, sigma, j)
                analytic = poisson_bracket(qs, qa)
                num = fd_bracket(
                    lambda a, b: symbol_jets(wf, a, b, tau, sigma, j)[0].value,
                    lambda a, b: symbol_jets(wf, a, b, tau, sigma, j)[1].value,
                    x, xi)
                assert analytic == pytest.approx(num, rel=1e-6, abs=1e-4)

    def test_degree_three_homogeneity(self, rng):
        wf = make_wf2d()
        x = np.array([0.4, 0.5])
        for _ in range(30):
            xi = rng.normal(size=2)
            tau = float(rng.uniform(0.3, 2.0))
            sigma = float(rng.uniform(0, 1))
            qs, qa = symbol_jets(wf, x, xi, tau, sigma, 1)
            b1 = poisson_bracket(qs, qa)
            for t in (0.5, 3.0):
                qs2, qa2 = symbol_jets(wf, x, t * xi, t * tau, t * sigma, 1)
                assert poisson_bracket(qs2, qa2) == pytest.approx(t ** 3 * b1,
                                                                  rel=1e-10)


class TestCharacteristicSet:
    def test_residuals_vanish(self):
        # the 1-D characteristic ratio is sigma/tau = phi'(x) ~ 2.0 here;
        # the sampled band must reach it
        wf = WeightField(PARABOLA, 2.0)
        x, xi, tau, sigma, qs_c, qa_c = characteristic_points(
            wf, np.array([0.2]), 2, ratios=[0.0, 0.3, 4.0])
        assert len(tau) == 1
        qs, qa = symbol_jets(wf, x, xi, tau, sigma, 2)
        assert same_jet(qs_c, qs) and same_jet(qa_c, qa)
        lam2 = np.sum(xi * xi, axis=1) + tau ** 2
        assert np.all(np.hypot(qs.value, qa.value) <= 1e-10 * lam2)

    def test_1d_factor_one_is_elliptic(self):
        wf = WeightField(PARABOLA, 2.0)
        pts = characteristic_points(wf, np.array([0.2]), 1, ratios=[0.0, 0.5, 1.0])
        assert all(len(a) == 0 for a in pts[:4])

    def test_2d_characteristic_solve(self):
        wf = make_wf2d()
        for j in (1, 2):
            x, xi, tau, sigma, qs_c, qa_c = characteristic_points(
                wf, np.array([0.4, 0.3]), j, ratios=[0.0, 0.4])
            assert len(tau)
            qs, qa = symbol_jets(wf, x, xi, tau, sigma, j)
            assert same_jet(qs_c, qs) and same_jet(qa_c, qa)
            assert np.all(np.hypot(qs.value, qa.value) <=
                          1e-9 * (np.sum(xi * xi, axis=1) + tau ** 2))

    def test_overflowed_symbol_is_refused(self):
        # phi and its derivatives are finite, but tau^2 |dphi|^2 is not: the
        # samples are refused, not dropped into a vacuous pass
        wf = make_wf2d(400.0)
        x = np.array([0.5, 0.5])
        assert all(np.isfinite(a).all() for a in wf.phi_jet(x))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                OverflowError, match="q\\^1 overflows on the characteristic set"):
            characteristic_points(wf, x, 1, ratios=[0.0, 0.4])
        with pytest.raises(OverflowError, match="overflows"):
            subellipticity_check(wf, 1, [x], (0.5, 8.0))


class TestSubellipticity:
    def test_small_gamma_fails_large_gamma_passes(self):
        lo_margin = subellipticity_check(WeightField(PARABOLA, 1.0), 2, REGION,
                                         (TAU0, 1e4), tau0=TAU0, refine=False)
        assert not lo_margin.vacuous
        assert lo_margin.margin < 0
        res = gamma_search(PARABOLA, TAU0, REGION, ratio_hi=1e4, refine=False)
        hi_margin = subellipticity_check(WeightField(PARABOLA, 2 * res.gamma0),
                                         2, REGION, (TAU0, 1e4), tau0=TAU0,
                                         refine=False)
        assert hi_margin.margin > 0

    def test_vacuous_regime_flagged(self):
        # a steep weight pushes sigma/tau = |phi'| out of every admissible
        # ratio: no real characteristic points remain
        rep = subellipticity_check(WeightField(PARABOLA, 60.0), 2, REGION,
                                   (1.0, 64.0), tau0=1.0, refine=False)
        assert rep.vacuous
        assert rep.margin == math.inf

    def test_margin_dilation_invariance(self):
        # the check samples at tau = 1; dilating its samples by t leaves the
        # margin {q_s, q_a}/lambda^3 unchanged
        wf = WeightField(PARABOLA, 2.0)
        rep = subellipticity_check(wf, 2, REGION, (TAU0, 1e4), tau0=TAU0,
                                   refine=False)
        x, xi, tau, sigma = rep.samples[:, :1], rep.samples[:, 1:2], \
            rep.samples[:, 2], rep.samples[:, 3]
        assert len(tau) and np.all(tau == 1.0)
        for t in (0.5, 4.0):
            qs, qa = symbol_jets(wf, x, t * xi, t * tau, t * sigma, 2)
            lam = t * np.sqrt(xi[:, 0] ** 2 + tau ** 2)
            assert np.min(poisson_bracket(qs, qa) / lam ** 3) == \
                pytest.approx(rep.margin, rel=1e-9)

    def test_2d_refines_and_reports_its_minimum(self):
        wf = make_wf2d()
        region = [np.array([0.3, 0.2]), np.array([0.5, 0.4]),
                  np.array([0.7, 0.6])]
        for j in (1, 2):
            rep = subellipticity_check(wf, j, region, (0.5, 8.0))
            assert rep.refinement_levels >= 2
            assert rep.samples.shape[1] == 6 and len(rep.samples) > 0
            ratios = []
            for row in rep.samples:
                x, xi, tau, sigma = row[:2], row[2:4], row[4], row[5]
                qs, qa = symbol_jets(wf, x, xi, tau, sigma, j)
                lam = math.sqrt(float(xi @ xi) + tau ** 2)
                ratios.append(poisson_bracket(qs, qa)[0] / lam ** 3)
            assert rep.margin == pytest.approx(min(ratios), rel=1e-12)

    def test_1d_check_is_one_pass(self):
        # a 1-D sample depends on the ratio grid only through its maximum,
        # so refining the grid reproduces the first pass
        wf = WeightField(PARABOLA, 2.0)
        rhos = 1.0 / np.geomspace(TAU0, 1e4, 9)
        finer = 1.0 / np.geomspace(TAU0, 1e4, 17)
        for got, want in zip(characteristic_points(wf, REGION, 2, finer)[:4],
                             characteristic_points(wf, REGION, 2, rhos)[:4]):
            assert len(got) and np.array_equal(got, want)
        for j in (1, 2):
            refined, single = (subellipticity_check(
                wf, j, REGION, (TAU0, 1e4), tau0=TAU0, refine=refine)
                for refine in (True, False))
            assert refined.refinement_levels == single.refinement_levels == 1
            assert refined.margin == single.margin
            assert np.array_equal(refined.samples, single.samples)
            assert len(single.samples) == (0 if j == 1 else len(REGION))

    def test_ratio_band_validation(self):
        wf = WeightField(PARABOLA, 2.0)
        with pytest.raises(ValueError):
            subellipticity_check(wf, 1, REGION, (0.0, 1.0))


class TestGammaSearch:
    def test_finite_gamma_on_model(self):
        res = gamma_search(PARABOLA, TAU0, REGION, ratio_hi=1e4, refine=False)
        assert math.isfinite(res.gamma0)
        assert all(v > 0 for v in res.margins.values())

    def test_gradient_floor_violation(self):
        # region straddles the critical point of x(1-x)
        bad_region = [np.array([t]) for t in np.linspace(0.4, 0.6, 5)]
        with pytest.raises(ValueError, match="gradient lower bound"):
            gamma_search(PARABOLA, TAU0, bad_region)

    def test_negative_base_weight_rejected(self):
        sinking = Polynomial1DField([-0.5, 1.0, -1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            gamma_search(sinking, TAU0, REGION)

    def test_monotone_under_region_shrink(self):
        big = [np.array([t]) for t in np.linspace(0.05, 0.42, 9)]
        small = [np.array([t]) for t in np.linspace(0.1, 0.3, 5)]
        g_big = gamma_search(PARABOLA, TAU0, big, ratio_hi=1e4,
                             refine=False).gamma0
        g_small = gamma_search(PARABOLA, TAU0, small, ratio_hi=1e4,
                               refine=False).gamma0
        assert g_small <= g_big * (1 + 1e-12)

    def test_samples_the_subell_band(self, monkeypatch):
        # subell checks (tau0, ratio_hi); so must the search, even when
        # ratio_hi < 2 tau0
        bands = []

        def spy(wf, j, region, band, **kw):
            bands.append(band)
            return subellipticity_check(wf, j, region, band, **kw)

        monkeypatch.setattr("platelab.weights.subellipticity_check", spy)
        gamma_search(PARABOLA, 1.0, REGION, ratio_hi=1.5, refine=False)
        assert bands and set(bands) == {(1.0, 1.5)}


class TestMuSearch:
    def test_finite_mu_after_gamma_search(self):
        res = gamma_search(PARABOLA, TAU0, REGION, ratio_hi=1e4, refine=False)
        wf = WeightField(PARABOLA, 2 * res.gamma0)
        out = mu_search(wf, 2, REGION, tau0=TAU0, nsphere=150, seed=3)
        assert math.isfinite(out.mu)
        assert out.min_ratio >= out.target
        # re-verify on a fresh sample
        fresh = mu_search(wf, 2, REGION, tau0=TAU0, nsphere=150, seed=99,
                          target=out.target)
        assert fresh.mu <= 2 * out.mu

    def test_negative_control_aborts(self, monkeypatch):
        monkeypatch.setattr("platelab.weights.MU_MAX", 2 ** 10)
        wf = WeightField(PARABOLA, 1.0)
        with pytest.raises(MuSearchError) as err:
            mu_search(wf, 2, REGION, tau0=TAU0, nsphere=100, target=0.05)
        assert err.value.mu_max == 2 ** 10
        assert err.value.worst < 0.05
        assert len(err.value.worst_point) == 4

    def test_t_homogeneity_degree_four(self, rng):
        wf = WeightField(PARABOLA, 2.0)
        x = np.array([0.2])
        mu = 8.0
        for _ in range(30):
            xi = rng.normal(size=1)
            tau = float(rng.uniform(0.2, 2.0))
            sigma = float(rng.uniform(0, tau))

            def tval(s):
                qs, qa = symbol_jets(wf, x, s * xi, s * tau, s * sigma, 2)
                return mu * (qs.value ** 2 + qa.value ** 2) \
                    + s * tau * poisson_bracket(qs, qa)

            base = tval(1.0)
            assert tval(2.0) == pytest.approx(16.0 * base, rel=1e-9)


class TestGlobalWeight:
    def test_interval_construction(self):
        wf = build_global_weight(("interval", (0.0, 1.0)), (0.45, 0.55))
        psi = wf.psi
        (v0, g0, _), (v1, g1, _) = psi.jet([0.0]), psi.jet([1.0])
        assert v0 == pytest.approx(0.0, abs=1e-14)
        assert v1 == pytest.approx(0.0, abs=1e-14)
        assert g0[0] > 0 > g1[0]
        xs = np.linspace(0.01, 0.99, 199)
        crit = [t for t in xs if abs(psi.jet([t])[1][0]) < 1e-12]
        assert all(0.45 < t < 0.55 for t in crit)
        assert min(psi.jet([t])[0] for t in xs) > 0

    def test_off_center_exclusion(self):
        wf = build_global_weight(("interval", (0.0, 1.0)), (0.7, 0.8))
        psi = wf.psi
        grads = [psi.jet([t])[1][0] for t in np.linspace(0.01, 0.69, 80)]
        assert all(g > 0 for g in grads)
        grads = [psi.jet([t])[1][0] for t in np.linspace(0.81, 0.99, 40)]
        assert all(g < 0 for g in grads)

    def test_rectangle_with_disc(self):
        wf = build_global_weight(("rectangle", ((0.0, 1.0), (0.0, 2.0))),
                                 ((0.5, 1.2), 0.2))
        psi = wf.psi
        assert psi.jet([0.5, 0.0])[0] == pytest.approx(0.0, abs=1e-14)
        assert psi.jet([0.3, 0.7])[0] > 0
        g = psi.jet([0.5, 1.2])[1]
        assert np.linalg.norm(g) == pytest.approx(0.0, abs=1e-12)

    def test_exclusion_touching_boundary_rejected(self):
        with pytest.raises(ValueError):
            build_global_weight(("interval", (0.0, 1.0)), (0.0, 0.2))
        with pytest.raises(ValueError):
            build_global_weight(("rectangle", ((0.0, 1.0), (0.0, 1.0))),
                                ((0.1, 0.5), 0.2))

    def test_empty_exclusion_rejected(self):
        with pytest.raises(ValueError):
            build_global_weight(("interval", (0.0, 1.0)), (0.6, 0.6))

    def test_verifier_rejects_nonvanishing_boundary(self):
        for box in ([(0.0, 1.0)], [(0.0, 1.0), (0.0, 1.0)]):
            psi = AffineField(0.3, [1.0] * len(box))
            with pytest.raises(RuntimeError, match="does not vanish"):
                _verify_global_weight(psi, box, lambda x: False, 20)

    def test_verifier_rejects_escaped_critical_point(self):
        peak = PeakField1D(0.0, 1.0, 0.5)
        with pytest.raises(RuntimeError, match="escapes the exclusion set"):
            _verify_global_weight(peak, [(0.0, 1.0)],
                                  lambda x: 0.7 < x[0] < 0.8, 20)
        with pytest.raises(RuntimeError, match="escapes the exclusion set"):
            _verify_global_weight(
                TensorProductField([peak, peak]), [(0.0, 1.0), (0.0, 1.0)],
                lambda x: (x[0] - 0.2) ** 2 + (x[1] - 0.2) ** 2 <= 0.1 ** 2, 20)
