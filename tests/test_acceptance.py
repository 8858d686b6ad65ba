"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a single PASS/FAIL line with its runtime.  Runtime
budgets are asserted where the criterion states one.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from platelab.lscheck import (
    catalog_bc,
    ls_conjugated,
    ls_rank_oracle,
    ls_unconjugated,
    positivity_margin,
)
from platelab.plate import (
    assemble,
    catalog_families,
    check_symmetry,
    clamped_beam_beta,
    make_grid,
    spectrum,
)
from platelab.semigroup import (
    StateVector,
    build_generator,
    decay_fit,
    energy,
    halfplane_check,
    hdot_norm,
    kernel_projection,
    reduced_generator,
    resolvent_sweep,
    simulate,
)
from platelab.symbols import (
    RootCase,
    TangentialPoint,
    WeightJet,
    classify_stack,
    factor_roots,
    im_sign_criterion,
    quartic_roots,
)
from platelab.weights import (
    WeightField,
    gamma_search,
    mu_search,
    poisson_bracket,
    subellipticity_check,
    symbol_jets,
    _sphere_samples,
)
from platelab.cli import main as cli_main

from conftest import companion_roots, conjugated_quartic_coeffs, match_roots

X0 = np.array([0.0, 0.0])


@contextlib.contextmanager
def criterion(num, name, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL "
              f"[{time.perf_counter() - t0:.2f}s]")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num} ({name}): PASS [{elapsed:.2f}s]")
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds {budget}s"


def random_sample(rng, tau_floor=0.0):
    xi = rng.normal(size=1)
    tau = float(10.0 ** rng.uniform(-1, 1))
    sigma = float(rng.uniform(0.0, 2.0 * tau))
    p = TangentialPoint(X0, xi, tau, sigma)
    w = WeightJet(float(rng.uniform(0.5, 2.0)), rng.normal(size=1) * 0.5,
                  float(rng.uniform(0.2, 2.0)))
    return p, w


def test_criterion_1_catalog_determinants():
    with criterion(1, "catalog determinants", budget=1.0):
        cases = [
            ("hinged", None, -2j),
            ("clamped", None, -1j),
            ("ex2_dn2_dn3", None, 5j),
            ("ex3_dn_dn3_A", -1.0, 1j * (-1.0 - 2.0)),
            ("ex4_id_dn2_A", 1.0, -1j * (1.0 + 2.0)),
            ("ex5_dn2A_dn3", 1.0, -1j * (2.0 * 1.0 + 3.0)),
        ]
        for name, a, expected in cases:
            pair = catalog_bc(name, {"a": a} if a is not None else None)
            rep = ls_unconjugated(*pair, X0, [1.0])
            assert abs(rep.determinant - expected) <= 1e-12, name
            assert rep.verdict, name


def test_criterion_2_root_identities():
    with criterion(2, "root identities", budget=10.0):
        rng = np.random.default_rng(101)
        vieta_checked = criterion_checked = quartic_checked = 0
        while vieta_checked < 10_000:
            p, w = random_sample(rng)
            lam = max(p.lambda_T_sigma, p.tau * w.d_normal, 1e-30)
            for j in (1, 2):
                rp = factor_roots(p, w, j)
                assert abs(rp.pi_1 + rp.pi_2 + 2j * p.tau * w.d_normal) \
                    <= 1e-10 * lam
                assert abs(rp.pi_1 * rp.pi_2
                           - (-(p.tau * w.d_normal) ** 2 + rp.alpha ** 2)) \
                    <= 1e-10 * lam ** 2
                # algebraic sign test vs direct roots, strict cases only
                if p.tau > 1e-6 and abs(rp.pi_2.imag) > 1e-9 * lam:
                    assert im_sign_criterion(p, w, j) == (rp.pi_2.imag < 0)
                    criterion_checked += 1
            vieta_checked += 2
            if quartic_checked < 2000:
                ours = quartic_roots(p, w)
                # residual check is well conditioned at every sample
                coeffs = conjugated_quartic_coeffs(p, w)
                for root in ours:
                    res = sum(c * root ** k for k, c in enumerate(coeffs))
                    assert abs(res) <= 1e-8 * lam ** 4
                # the companion oracle certifies 1e-8 lambda only away from
                # root collisions, where its own conditioning is eps/sep
                oracle = companion_roots(coeffs)
                sep = min(abs(a - b) for i, a in enumerate(oracle)
                          for b in oracle[i + 1:])
                if sep > 1e-4 * lam:
                    assert match_roots(oracle, ours) <= 1e-8 * lam
                    quartic_checked += 1
        assert criterion_checked > 5000
        assert quartic_checked == 2000


def test_criterion_3_oracle_agreement():
    with criterion(3, "three-route oracle agreement", budget=30.0):
        rng = np.random.default_rng(202)
        kappa0 = 1.0
        for name in ("clamped", "hinged"):
            pair = catalog_bc(name)
            checked = 0
            while checked < 1000:
                xi = rng.normal(size=1)
                tau = float(10.0 ** rng.uniform(-1, 1))
                sigma = float(rng.uniform(0.0, tau / kappa0))
                p = TangentialPoint(X0, xi, tau, sigma)
                w = WeightJet(1.0, rng.normal(size=1) * 0.4,
                              float(rng.uniform(0.3, 1.5)))
                rep = ls_conjugated(*pair, w, p)
                if rep.marginal:
                    continue
                rank = ls_rank_oracle(*pair, w, p)
                pos = positivity_margin(*pair, w, p)
                assert rep.verdict == (rank == 4), (name, rep.case)
                assert rep.verdict == (pos > 1e-16), (name, rep.case)
                checked += 1


def test_criterion_4_no_real_double_root():
    with criterion(4, "no real double upper root", budget=60.0):
        rng = np.random.default_rng(303)
        produced = 0
        for _ in range(10):
            kept = []
            for _ in range(10_000):
                p, w = random_sample(rng)
                lam = p.lambda_T
                if p.sigma < 0.01 * lam or lam == 0:
                    continue
                w.require_inward()          # the input checks of classify_roots
                p.require_nondegenerate()
                kept.append((p, w))
            roots = classify_stack(
                X0, np.array([p.xi_prime for p, _ in kept]),
                np.array([p.tau for p, _ in kept]),
                np.array([p.sigma for p, _ in kept]),
                np.array([w.d_tangential for _, w in kept]),
                np.array([w.d_normal for _, w in kept]))
            clear = ~roots.marginal
            assert not np.any(roots.case[clear] == tuple(RootCase).index(
                RootCase.DOUBLE_UPPER))
            produced += int(clear.sum())
        assert produced > 50_000


def test_criterion_5_subellipticity_recipe():
    with criterion(5, "sub-ellipticity recipe", budget=60.0):
        from platelab.weights import Polynomial1DField
        psi = Polynomial1DField([0.1, 1.0, -1.0])
        region = [np.array([t]) for t in np.linspace(0.05, 0.4, 7)]
        tau0 = 0.01
        res = gamma_search(psi, tau0, region, ratio_hi=1e4, refine=False)
        assert math.isfinite(res.gamma0)
        wf = WeightField(psi, 2.0 * res.gamma0)
        for j in (1, 2):
            rep = subellipticity_check(wf, j, region, (tau0, 1e4), tau0=tau0,
                                       refine=False)
            assert rep.margin > 0, (j, rep.margin)
        out = mu_search(wf, 2, region, tau0=tau0, nsphere=150, seed=7)
        assert math.isfinite(out.mu)
        # re-verify t >= C lambda^4 on a fresh sample
        fresh = _sphere_samples(1, 200, tau0, seed=991)
        for x in region:
            for xi, tau, sigma in fresh:
                qs, qa = symbol_jets(wf, x, xi, tau, sigma, 2)
                t_val = out.mu * (qs.value ** 2 + qa.value ** 2) \
                    + tau * poisson_bracket(qs, qa)
                lam4 = (float(xi @ xi) + tau ** 2) ** 2
                assert t_val >= out.target * lam4 * (1 - 1e-9)


def test_criterion_6_beam_spectra():
    with criterion(6, "beam spectra", budget=30.0):
        op = assemble(make_grid(200), "hinged")
        mu, _ = spectrum(op, 5)
        for k in range(1, 6):
            exact = (k * math.pi) ** 4
            assert abs(mu[k - 1] - exact) / exact < 0.005, k
        errs = []
        for n in (50, 100, 200):
            opn = assemble(make_grid(n), "hinged")
            mun, _ = spectrum(opn, 1)
            errs.append(abs(mun[0] - math.pi ** 4) / math.pi ** 4)
        for i in range(2):
            order = math.log2(errs[i] / errs[i + 1])
            assert 1.7 <= order <= 2.3, order
        beta1 = clamped_beam_beta(1)
        opc = assemble(make_grid(200), "clamped")
        muc, _ = spectrum(opc, 1)
        assert abs(muc[0] - beta1 ** 4) / beta1 ** 4 < 0.01


def test_criterion_7_selfadjoint_nonnegative():
    with criterion(7, "self-adjointness and nonnegativity", budget=60.0):
        rng = np.random.default_rng(404)
        grid = make_grid(96)
        assert len(catalog_families()) == 7
        for name in catalog_families():
            op = assemble(grid, name)
            M = op.dense()
            scale = np.abs(M).max()
            assert np.abs(M - M.T).max() <= 1e-10 * scale, name
            assert check_symmetry(op) <= 1e-10, name
            mu, _ = spectrum(op, 4)
            assert mu[0] >= -1e-8 * scale, name
            for _ in range(25):
                u = rng.normal(size=op.size)
                q = op.inner(op.apply(u), u) / op.inner(u, u)
                assert q >= -1e-8 * scale, name


def test_criterion_8_semigroup_structure():
    with criterion(8, "semigroup structure", budget=120.0):
        rng = np.random.default_rng(505)
        grid = make_grid(80)
        opn = assemble(grid, "neumann_pair")
        x = opn.nodes[:, 0]
        alpha = np.where((x >= 0.3) & (x <= 0.5), 1.0, 0.0)
        gen = build_generator(opn, alpha)

        for _ in range(50):
            Y = StateVector(rng.normal(size=gen.size), rng.normal(size=gen.size))
            Yn, Yd = kernel_projection(Y, gen)
            scale = max(np.abs(Y.y).max(), np.abs(Y.v).max())
            # projector algebra
            Yn2, _ = kernel_projection(Yn, gen)
            assert np.abs(Yn2.y - Yn.y).max() <= 1e-10 * scale
            assert np.abs(Yn.y + Yd.y - Y.y).max() <= 1e-10 * scale
            assert np.abs(gen.functionals(Yd)).max() <= 1e-10 * scale
            # range(A) in the reduced space, relative to the stiff scale
            AY = gen.apply_A(Y)
            assert np.abs(gen.functionals(AY)).max() <= \
                1e-10 * hdot_norm(gen, AY)
            # energy identity along two routes
            assert energy(Y, gen) == pytest.approx(
                0.5 * hdot_norm(gen, Yd) ** 2, rel=1e-10)

        # undamped conservation over 10^3 steps
        oph = assemble(grid, "hinged")
        gen0 = build_generator(oph, np.zeros(oph.size))
        mu, V = spectrum(oph, 2)
        Y0 = StateVector(V[:, 0] + 0.5 * V[:, 1], np.zeros(oph.size))
        log, _ = simulate(Y0, gen0, T=1.0, dt=1e-3)
        assert abs(log.energies[-1] - log.energies[0]) / log.energies[0] <= 1e-8

        # dissipation ledger closes to O(dt^2) (exact for the midpoint rule)
        opc = assemble(grid, "clamped")
        genc = build_generator(opc, np.where((x >= 0.3) & (x <= 0.5), 1.0, 0.0)
                               if opc.size == gen.size else
                               np.where((opc.nodes[:, 0] >= 0.3)
                                        & (opc.nodes[:, 0] <= 0.5), 1.0, 0.0))
        muc, Vc = spectrum(opc, 2)
        Yc = StateVector(Vc[:, 0] + 0.3 * Vc[:, 1], np.zeros(opc.size))
        for dt in (0.02, 0.01):
            logd, _ = simulate(Yc, genc, T=2.0, dt=dt)
            logd.validate()
            gap = abs(logd.total_dissipated()
                      - (logd.energies[0] - logd.energies[-1]))
            assert gap <= max(1e-10 * logd.energies[0], 4.0 * dt ** 2)


def test_criterion_9_resolvent():
    with criterion(9, "resolvent bounds and sweep", budget=300.0):
        rng = np.random.default_rng(606)
        op = assemble(make_grid(200), "clamped")
        x = op.nodes[:, 0]
        # damping strong enough that the spectral abscissa (~0.9) exceeds the
        # sigma step: resonance peaks are resolved and the fit is grid-stable
        gen = build_generator(op, np.where((x >= 0.2) & (x <= 0.7), 4.0, 0.0))
        red = reduced_generator(gen)

        # a-priori bound on 100 random pairs
        for _ in range(100):
            z = complex(-float(rng.uniform(0.05, 10.0)), rng.normal() * 5.0)
            u = rng.normal(size=red.dim) + 1j * rng.normal(size=red.dim)
            lhs = z * u - red.Ahat @ u
            n_lhs = math.sqrt(abs(np.vdot(lhs, red.Ghat @ lhs).real))
            n_u = math.sqrt(abs(np.vdot(u, red.Ghat @ u).real))
            assert n_lhs >= abs(z.real) * n_u * (1 - 1e-8)

        assert halfplane_check(gen) > 0

        coarse = resolvent_sweep(gen, np.arange(0.0, 200.0 + 1e-9, 1.0))
        fine = resolvent_sweep(gen, np.arange(0.0, 200.0 + 1e-9, 0.5))
        assert math.isfinite(coarse.C) and math.isfinite(fine.C)
        assert np.all(np.isfinite(coarse.norms[~np.isnan(coarse.norms)]))
        assert abs(fine.C - coarse.C) <= 0.10 * max(coarse.C, 1e-30)


def test_criterion_10_logarithmic_decay():
    with criterion(10, "logarithmic decay bound", budget=300.0):
        op = assemble(make_grid(200), "clamped")
        x = op.nodes[:, 0]
        gen = build_generator(op, np.where((x >= 0.3) & (x <= 0.5), 1.0, 0.0))
        mu, V = spectrum(op, 3)
        Y0 = StateVector(V[:, 0] + 0.5 * V[:, 2], np.zeros(op.size))
        amp = hdot_norm(gen, gen.apply_A(Y0)) ** 2
        assert amp > 0

        log1, _ = simulate(Y0, gen, T=1e4, dt=0.5, log_every=10)
        log1.validate()
        C1 = decay_fit(log1, 1, amp)
        assert math.isfinite(C1) and C1 > 0

        log2, _ = simulate(Y0, gen, T=2e4, dt=0.5, log_every=10)
        C2 = decay_fit(log2, 1, amp)
        assert abs(C2 - C1) <= 0.20 * C1
