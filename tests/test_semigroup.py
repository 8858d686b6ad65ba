"""Generator structure, time integration, resolvent, and decay fitting."""

import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from platelab import semigroup
from platelab.plate import (
    CSR,
    DiscretePlateOperator,
    SizeLimitError,
    assemble,
    kernel,
    lower_band,
    make_grid,
    spectrum,
)
from platelab.semigroup import (
    MAX_LOG_BYTES,
    MAX_STEPS,
    DampingError,
    EnergyLog,
    MidpointStepper,
    NegativeEnergyError,
    StateVector,
    build_generator,
    decay_fit,
    energy,
    halfplane_check,
    hdot_norm,
    kernel_projection,
    reduced_generator,
    resolvent_norm,
    resolvent_sweep,
    simulate,
)

N = 80
GRID = make_grid(N)


def bump_alpha(op, lo=0.3, hi=0.5, height=1.0):
    x = op.nodes[:, 0]
    return np.where((x >= lo) & (x <= hi), height, 0.0)


def reference_simulate(Y0, gen, T, dt, log_every):
    """simulate's log and final (y, v), in the arithmetic of an allocating
    step: P @ y, v - (dt/2) P y, 2 v_mid - v and w vdot, with pbtrs on the
    same banded factor through cho_solve_banded."""
    P, a, w = gen.op.matrix, gen.alpha, gen.op.weight
    S = (dt ** 2 / 4.0) * lower_band(P)
    S[0] = 1.0 + S[0] + (dt / 2.0) * a
    factor = (scipy.linalg.cholesky_banded(S, lower=True), True)
    y, v, t, rate = Y0.y.copy(), Y0.v.copy(), Y0.t, 0.0
    Py = P @ y
    times, diss = [t], [0.0]
    energies = [0.5 * (w * float(np.vdot(y, Py)) + w * float(np.vdot(v, v)))]
    nsteps = int(round(T / dt))
    for i in range(nsteps):
        v_mid = scipy.linalg.cho_solve_banded(factor, v - (dt / 2.0) * Py)
        y = y + dt * v_mid
        v = 2.0 * v_mid - v
        Py = P @ y
        t += dt
        rate += w * float(np.vdot(v_mid, a * v_mid))
        if (i + 1) % log_every == 0 or i == nsteps - 1:
            times.append(t)
            energies.append(0.5 * (w * float(np.vdot(y, Py))
                                   + w * float(np.vdot(v, v))))
            diss.append(rate / (i % log_every + 1))
            rate = 0.0
    return np.array(times), np.array(energies), np.array(diss), y, v


def step(stepper, Y):
    """The state one step after Y, which stays as it is."""
    Z = Y.copy()
    stepper.advance(Z.y, Z.v, stepper.gen.op.apply(Z.y))
    return Z


@pytest.fixture(scope="module")
def clamped_gen():
    op = assemble(GRID, "clamped")
    return build_generator(op, bump_alpha(op))


@pytest.fixture(scope="module")
def neumann_gen():
    op = assemble(GRID, "neumann_pair")
    return build_generator(op, bump_alpha(op))


class TestBuildGenerator:
    def test_clamped_has_no_projection_data(self, clamped_gen):
        assert clamped_gen.kernel_dim == 0

    def test_neumann_normalization(self, neumann_gen):
        # phi_0 = constant / sqrt(<alpha 1, 1>)
        gen = neumann_gen
        assert gen.kernel_dim == 1
        w = gen.op.weight
        mass = w * float(gen.alpha.sum())
        expect = 1.0 / math.sqrt(mass)
        assert np.allclose(gen.kernel_damped[:, 0], expect, rtol=1e-10)
        G = w * gen.kernel_damped.T @ (gen.alpha[:, None] * gen.kernel_damped)
        assert np.abs(G - np.eye(1)).max() <= 1e-10

    def test_zero_damping_with_kernel_rejected(self):
        op = assemble(GRID, "neumann_pair")
        with pytest.raises(DampingError, match="Gram"):
            build_generator(op, np.zeros(op.size))

    def test_negative_damping_rejected(self):
        op = assemble(GRID, "clamped")
        with pytest.raises(DampingError, match="nonnegative"):
            build_generator(op, -bump_alpha(op))


class TestProjections:
    def test_projector_algebra(self, neumann_gen, rng):
        gen = neumann_gen
        for _ in range(30):
            Y = StateVector(rng.normal(size=gen.size), rng.normal(size=gen.size))
            Yn, Yd = kernel_projection(Y, gen)
            assert np.allclose(Yn.y + Yd.y, Y.y, atol=1e-12)
            Yn2, _ = kernel_projection(Yn, gen)
            assert np.abs(Yn2.y - Yn.y).max() <= 1e-10 * max(np.abs(Yn.y).max(),
                                                             1e-30)
            _, Yd2 = kernel_projection(Yd, gen)
            assert np.abs(gen.functionals(Yd)).max() <= 1e-10

    def test_kernel_state_projects_to_itself(self, neumann_gen):
        gen = neumann_gen
        phi0 = gen.kernel_damped[:, 0]
        Y = StateVector(phi0, np.zeros_like(phi0))
        assert gen.functionals(Y)[0] == pytest.approx(1.0, rel=1e-12)
        Yn, Yd = kernel_projection(Y, gen)
        assert np.abs(Yn.y - phi0).max() <= 1e-12
        assert np.abs(Yd.y).max() <= 1e-12

    def test_range_A_annihilated(self, neumann_gen, rng):
        # F(AY) = 0: measured against the size of AY, since the functional
        # sees cancellation noise at eps |P| from the stiff block
        gen = neumann_gen
        for _ in range(30):
            Y = StateVector(rng.normal(size=gen.size), rng.normal(size=gen.size))
            AY = gen.apply_A(Y)
            defect = np.abs(gen.functionals(AY)).max()
            assert defect <= 1e-10 * hdot_norm(gen, AY)

    def test_identity_when_kernel_empty(self, clamped_gen, rng):
        Y = StateVector(rng.normal(size=clamped_gen.size),
                        rng.normal(size=clamped_gen.size))
        Yn, Yd = kernel_projection(Y, clamped_gen)
        assert np.abs(Yn.y).max() == 0.0
        assert np.all(Yd.y == Y.y)


class TestEnergy:
    def test_velocity_only_state(self, clamped_gen, rng):
        v = rng.normal(size=clamped_gen.size)
        Y = StateVector(np.zeros_like(v), v)
        assert energy(Y, clamped_gen) == pytest.approx(
            0.5 * clamped_gen.op.norm(v) ** 2, rel=1e-12)

    def test_kernel_state_invisible(self, neumann_gen):
        gen = neumann_gen
        phi0 = gen.kernel_damped[:, 0]
        Y = StateVector(phi0, np.zeros_like(phi0))
        scale = np.abs(gen.op.matrix.data).max() * float(phi0 @ phi0)
        assert abs(energy(Y, gen)) <= 1e-12 * scale

    def test_two_route_identity(self, neumann_gen, rng):
        gen = neumann_gen
        for _ in range(30):
            Y = StateVector(rng.normal(size=gen.size), rng.normal(size=gen.size))
            _, Yd = kernel_projection(Y, gen)
            e1 = energy(Y, gen)
            e2 = 0.5 * hdot_norm(gen, Yd) ** 2
            assert e1 == pytest.approx(e2, rel=1e-10)


class TestStepper:
    def test_single_mode_frequency(self):
        op = assemble(make_grid(120), "hinged")
        gen = build_generator(op, np.zeros(op.size))
        mu, V = spectrum(op, 2)
        omega = math.sqrt(mu[0])
        dt = 1e-3
        Y = StateVector(V[:, 0], np.zeros(op.size))
        probe = int(np.argmax(np.abs(V[:, 0])))
        crossings = []
        prev = Y.y[probe]
        stepper = MidpointStepper(gen, dt)
        Py = op.apply(Y.y)
        for k in range(1, int(2.5 * 2 * math.pi / omega / dt)):
            stepper.advance(Y.y, Y.v, Py)
            cur = Y.y[probe]
            if prev > 0 >= cur or prev < 0 <= cur:
                frac = prev / (prev - cur)
                crossings.append((k - 1 + frac) * dt)
            prev = cur
        period = 2 * (crossings[-1] - crossings[0]) / (len(crossings) - 1)
        omega_obs = 2 * math.pi / period
        assert omega_obs == pytest.approx(omega, rel=1e-4)

    def test_kernel_fixed_point(self, neumann_gen):
        gen = neumann_gen
        phi0 = gen.kernel_damped[:, 0]
        Y = StateVector(phi0, np.zeros_like(phi0))
        dt = 0.7
        Y1 = step(MidpointStepper(gen, dt), Y)
        # P phi0 cancels to eps * |P| * |phi0| in the matvec; the step can
        # move the state by no more than the propagated solve noise
        floor = 50 * np.finfo(float).eps * np.abs(gen.op.matrix.data).max() \
            * np.abs(phi0).max() * dt ** 2
        assert np.abs(Y1.y - Y.y).max() <= floor
        assert np.abs(Y1.v).max() <= floor

    def test_dissipation_identity(self, clamped_gen):
        # the energies of the float64 states in long double: in float64 the
        # rounding of <P y, y> alone takes 0.8 of the tolerance
        gen = clamped_gen
        P = gen.op.matrix.tocoo()
        entries = P.data.astype(np.longdouble)

        def energy_ld(Z):
            y, v = Z.y.astype(np.longdouble), Z.v.astype(np.longdouble)
            Py = np.zeros_like(y)
            np.add.at(Py, P.row, entries * y[P.col])
            return gen.op.weight / 2 * (np.dot(Py, y) + np.dot(v, v))

        mu, V = spectrum(gen.op, 3)
        Y = StateVector(V[:, 0] + 0.2 * V[:, 2], np.zeros(gen.size))
        for dt in (1e-2, 5e-3):
            stepper = MidpointStepper(gen, dt)
            Z = Y.copy()
            for _ in range(50):
                e_before = energy_ld(Z)
                diss = stepper.advance(Z.y, Z.v, gen.op.apply(Z.y))
                e_after = energy_ld(Z)
                lhs = float((e_after - e_before) / dt)
                assert lhs == pytest.approx(-diss, rel=1e-7,
                                            abs=1e-9 * float(e_before))

    def test_undamped_hdot_isometry(self, rng):
        op = assemble(GRID, "clamped")
        gen = build_generator(op, np.zeros(op.size))
        Y = StateVector(rng.normal(size=op.size), rng.normal(size=op.size))
        n0 = hdot_norm(gen, Y)
        Y1 = step(MidpointStepper(gen, 0.05), Y)
        assert hdot_norm(gen, Y1) == pytest.approx(n0, rel=1e-10)

    def test_dt_validation(self, clamped_gen):
        with pytest.raises(ValueError):
            MidpointStepper(clamped_gen, 0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt_is_named(self, clamped_gen, dt):
        with pytest.raises(ValueError, match=f"^dt must be finite and > 0, "
                                             f"got {dt}$"):
            MidpointStepper(clamped_gen, dt)

    @pytest.mark.parametrize("name,grid", [("clamped", make_grid(200)),
                                           ("hinged", make_grid((16, 12)))])
    def test_bound_kernel_is_the_sparse_product(self, name, grid, rng):
        # the private scipy kernel that advance calls must stay the one
        # behind P @ y, bit for bit, over an output that held the old P y
        op = assemble(grid, name)
        gen = build_generator(op, bump_alpha(op))
        Y = StateVector(rng.normal(size=op.size), rng.normal(size=op.size))
        Py = op.matrix @ Y.y
        MidpointStepper(gen, 0.5).advance(Y.y, Y.v, Py)
        assert np.array_equal(Py, op.matrix @ Y.y)

    @pytest.mark.parametrize("name,grid", [("clamped", GRID),
                                           ("neumann_pair", GRID),
                                           ("hinged", make_grid((24, 16)))])
    def test_banded_step_matches_dense_solve(self, name, grid, rng):
        op = assemble(grid, name)
        gen = build_generator(op, bump_alpha(op))
        dt = 0.01
        Y = StateVector(rng.normal(size=op.size), rng.normal(size=op.size))
        Z = step(MidpointStepper(gen, dt), Y)
        P, a = op.dense(), gen.alpha
        S = np.eye(op.size) + (dt ** 2 / 4) * P + (dt / 2) * np.diag(a)
        rhs = Y.v - (dt ** 2 / 4) * (P @ Y.v) - (dt / 2) * a * Y.v - dt * (P @ Y.y)
        v = scipy.linalg.cho_solve(scipy.linalg.cho_factor(S), rhs)
        assert np.abs(Z.v - v).max() <= 1e-12 * np.abs(v).max()
        y = Y.y + (dt / 2) * (Y.v + v)
        assert np.abs(Z.y - y).max() <= 1e-12 * np.abs(y).max()

    @pytest.mark.parametrize("name", ["clamped", "neumann_pair"])
    def test_steps_match_dense_block_midpoint(self, name, rng):
        # 20 steps against (I + dt/2 A) Y1 = (I - dt/2 A) Y0 with the dense
        # block generator A = [[0, -I], [P, diag(alpha)]]
        op = assemble(make_grid(32), name)
        gen = build_generator(op, bump_alpha(op))
        n, dt = op.size, 0.05
        A = np.block([[np.zeros((n, n)), -np.eye(n)],
                      [op.dense(), np.diag(gen.alpha)]])
        lhs = scipy.linalg.lu_factor(np.eye(2 * n) + (dt / 2) * A)
        rhs = np.eye(2 * n) - (dt / 2) * A
        Y = StateVector(rng.normal(size=n), rng.normal(size=n))
        ref = np.concatenate([Y.y, Y.v])
        stepper, Py = MidpointStepper(gen, dt), op.apply(Y.y)
        for _ in range(20):
            stepper.advance(Y.y, Y.v, Py)
            ref = scipy.linalg.lu_solve(lhs, rhs @ ref)
        assert np.concatenate([Y.y, Y.v]) == pytest.approx(
            ref, rel=1e-10, abs=1e-10 * np.abs(ref).max())
        assert np.array_equal(Py, op.apply(Y.y))

    def test_banded_paths_build_no_dense_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense matrix built on a banded path")

        op1 = assemble(make_grid(1200), "clamped")
        op2 = assemble(make_grid((64, 48)), "hinged")
        monkeypatch.setattr(DiscretePlateOperator, "dense", refuse)
        mu, _ = spectrum(op1, 5, vectors=False)
        assert mu.size == 5
        assert spectrum(op2, 5)[1].shape == (op2.size, 5)
        assert kernel(op2).shape == (op2.size, 0)
        gen1 = build_generator(op1, bump_alpha(op1))
        gen2 = build_generator(op2, bump_alpha(op2))
        assert gen1.kernel_dim == 0
        for gen in (gen1, gen2):
            Y = StateVector(np.ones(gen.size), np.zeros(gen.size))
            Z = step(MidpointStepper(gen, 0.5), Y)
            assert np.all(np.isfinite(Z.y))
        # the resolvent is sparse too, and never reduces the generator
        monkeypatch.setattr("platelab.semigroup.reduced_generator", refuse)
        sweep = resolvent_sweep(gen2, [40.0])
        assert sweep.converged.all() and np.isfinite(sweep.norms).all()


class TestSimulate:
    @pytest.mark.parametrize("name,grid,T,dt,log_every", [
        ("clamped", make_grid(200), 250.0, 0.5, 1),
        ("hinged", make_grid((16, 12)), 1.0, 0.01, 1),
        ("ex2_dn2_dn3", make_grid(60), 50.0, 0.5, 7),
    ], ids=["clamped-500-steps", "hinged-2d", "ex2-log-every-7"])
    def test_matches_allocating_reference_bitwise(self, name, grid, T, dt,
                                                  log_every, rng):
        op = assemble(grid, name)
        gen = build_generator(op, bump_alpha(op))
        Y0 = StateVector(rng.normal(size=op.size), rng.normal(size=op.size))
        log, Y = simulate(Y0, gen, T, dt, log_every=log_every)
        times, energies, diss, y, v = reference_simulate(Y0, gen, T, dt,
                                                         log_every)
        assert np.array_equal(log.times, times)
        assert np.array_equal(log.energies, energies)
        assert np.array_equal(log.dissipations, diss)
        assert np.array_equal(Y.y, y) and np.array_equal(Y.v, v)
        assert Y.t == times[-1]

    @pytest.mark.parametrize("args, message", [
        ({"T": -1.0}, "T must be finite and >= 0, got -1.0"),
        ({"T": math.inf}, "T must be finite and >= 0, got inf"),
        ({"log_every": 0}, "log_every must be an integer >= 1, got 0"),
        ({"log_every": 2.0}, "log_every must be an integer >= 1, got 2.0"),
        ({"dt": math.nan}, "dt must be finite and > 0, got nan"),
        ({"dt": math.inf}, "dt must be finite and > 0, got inf"),
        ({"T": 1e300, "dt": 1e-10},
         "T / dt = 1e+300 / 1e-10 is not a finite step count"),
        ({"T": 1e9, "dt": 1e-3},
         "energy log refused for T = 1000000000.0, dt = 0.001, log_every = "
         "1: its three arrays of 1000000000001 rows take 24000000000024 > "
         f"{MAX_LOG_BYTES} bytes"),
        ({"T": 1e9, "dt": 1e-3, "log_every": 100000},
         "time stepping refused for T = 1000000000.0, dt = 0.001: its "
         f"1000000000000 steps exceed {MAX_STEPS}"),
    ], ids=["T-negative", "T-inf", "log-every-0", "log-every-float",
            "dt-nan", "dt-inf", "steps-overflow", "log-too-large",
            "too-many-steps"])
    def test_bad_argument_is_named(self, clamped_gen, args, message):
        Y0 = StateVector(np.ones(clamped_gen.size), np.zeros(clamped_gen.size))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as exc:
            simulate(Y0, clamped_gen, **{"T": 1.0, "dt": 0.1, **args})
        assert (exc.type is SizeLimitError) == message.startswith(
            ("energy log", "time stepping"))

    def test_undamped_conservation_1000_steps(self):
        op = assemble(GRID, "hinged")
        gen = build_generator(op, np.zeros(op.size))
        mu, V = spectrum(op, 2)
        Y0 = StateVector(V[:, 0] + V[:, 1], np.zeros(op.size))
        log, _ = simulate(Y0, gen, T=1.0, dt=1e-3)
        drift = abs(log.energies[-1] - log.energies[0]) / log.energies[0]
        assert drift <= 1e-8

    def test_damped_strict_decay(self, clamped_gen):
        gen = clamped_gen
        mu, V = spectrum(gen.op, 2)
        Y0 = StateVector(V[:, 0], np.zeros(gen.size))
        log, _ = simulate(Y0, gen, T=5.0, dt=0.01)
        log.validate()
        assert log.energies[-1] < 0.95 * log.energies[0]

    def test_kernel_component_constant(self, neumann_gen):
        gen = neumann_gen
        x = gen.op.nodes[:, 0]
        phi0 = gen.kernel_damped[:, 0]
        Y0 = StateVector(0.4 * phi0 + np.sin(math.pi * x) ** 2,
                         np.cos(2 * math.pi * x))
        f0 = gen.functionals(Y0)
        log, Yend = simulate(Y0, gen, T=5.0, dt=0.01)
        fT = gen.functionals(Yend)
        # drift is limited by eps |P| cancellation per step
        scale = np.abs(gen.op.matrix.data).max() * np.finfo(float).eps
        nsteps = log.meta["nsteps"]
        assert np.abs(fT - f0).max() <= 10 * scale * nsteps * log.dt + 1e-10

    def test_ledger_closure(self, clamped_gen):
        gen = clamped_gen
        mu, V = spectrum(gen.op, 2)
        Y0 = StateVector(V[:, 0] + 0.5 * V[:, 1], np.zeros(gen.size))
        closures = []
        for dt in (0.02, 0.01):
            log, _ = simulate(Y0, gen, T=2.0, dt=dt)
            closures.append(abs(log.total_dissipated()
                                - (log.energies[0] - log.energies[-1]))
                            / log.energies[0])
        # identity is exact for the midpoint ledger, far below O(dt^2)
        assert all(c <= 1e-10 for c in closures)

    def test_blowup_detection(self, clamped_gen):
        gen = clamped_gen
        bad = StateVector(np.full(gen.size, np.nan), np.zeros(gen.size))
        with pytest.raises(FloatingPointError):
            simulate(bad, gen, T=0.1, dt=0.01)

    def test_blowup_mid_run_names_step(self, clamped_gen):
        # a finite state whose energy overflows: the first step reports it
        gen = clamped_gen
        mu, V = spectrum(gen.op, 1)
        big = StateVector(1e300 * V[:, 0], np.zeros(gen.size))
        with pytest.raises(FloatingPointError, match="blew up at step 1$"):
            simulate(big, gen, T=0.1, dt=0.01)

    def test_ledger_closure_log_every(self, clamped_gen):
        # rows every 10 steps, the last after 5: each row's rate is the
        # mean since the previous row, so the ledger still telescopes
        gen = clamped_gen
        mu, V = spectrum(gen.op, 2)
        Y0 = StateVector(V[:, 0] + 0.5 * V[:, 1], np.zeros(gen.size))
        log1, _ = simulate(Y0, gen, T=2.05, dt=0.01)
        log10, _ = simulate(Y0, gen, T=2.05, dt=0.01, log_every=10)
        assert log10.times.size == 22
        rows = np.r_[0:206:10, 205]
        assert np.array_equal(log10.energies, log1.energies[rows])
        d1 = log1.dissipations
        means = [d1[a + 1:b + 1].mean() for a, b in zip(rows, rows[1:])]
        assert log10.dissipations[1:] == pytest.approx(means, rel=1e-14)
        e = log10.energies
        assert abs(log10.total_dissipated() - (e[0] - e[-1])) <= 1e-10 * e[0]

    def test_energy_log_validation_catches_growth(self):
        log = EnergyLog(np.array([0.0, 1.0]), np.array([1.0, 1.5]),
                        np.zeros(2), 1.0)
        with pytest.raises(AssertionError):
            log.validate()


class TestDecayFit:
    def test_rejects_stationary_data(self, neumann_gen):
        log = EnergyLog(np.array([0.0]), np.array([0.0]), np.zeros(1), 1.0)
        with pytest.raises(ValueError):
            decay_fit(log, 1, 0.0)

    def test_scaling_invariance(self, clamped_gen):
        gen = clamped_gen
        mu, V = spectrum(gen.op, 2)
        Y0 = StateVector(V[:, 0], np.zeros(gen.size))
        amp = hdot_norm(gen, gen.apply_A(Y0)) ** 2
        log, _ = simulate(Y0, gen, T=3.0, dt=0.05)
        C1 = decay_fit(log, 1, amp)
        Y2 = StateVector(2 * Y0.y, 2 * Y0.v)
        amp2 = hdot_norm(gen, gen.apply_A(Y2)) ** 2
        log2, _ = simulate(Y2, gen, T=3.0, dt=0.05)
        C2 = decay_fit(log2, 1, amp2)
        assert C1 == pytest.approx(C2, rel=1e-9)


class TestReducedGenerator:
    def test_dimension(self, neumann_gen, clamped_gen):
        assert reduced_generator(neumann_gen).dim == 2 * neumann_gen.size - 1
        assert reduced_generator(clamped_gen).dim == 2 * clamped_gen.size

    def test_size_cap(self, monkeypatch):
        # a lowered cap keeps the test small should the guard ever regress
        monkeypatch.setattr("platelab.plate.MAX_DENSE_UNKNOWNS", 100)
        op = assemble(make_grid((16, 12)), "hinged")
        gen = build_generator(op, bump_alpha(op))
        with pytest.raises(SizeLimitError, match="165 > 100.*reduction"):
            reduced_generator(gen)

    def test_apriori_bound(self, clamped_gen, neumann_gen, rng):
        # |(z - A)U| >= |Re z| |U| in the energy norm for Re z < 0
        for gen in (clamped_gen, neumann_gen):
            red = reduced_generator(gen)
            for _ in range(50):
                z = complex(-float(rng.uniform(0.05, 5.0)), rng.normal() * 3)
                u = rng.normal(size=red.dim) + 1j * rng.normal(size=red.dim)
                lhs = z * u - red.Ahat @ u
                nrm_lhs = math.sqrt(abs(np.vdot(lhs, red.Ghat @ lhs).real))
                nrm_u = math.sqrt(abs(np.vdot(u, red.Ghat @ u).real))
                assert nrm_lhs >= abs(z.real) * nrm_u * (1 - 1e-8)

    def test_halfplane_with_damping(self, clamped_gen, neumann_gen):
        assert halfplane_check(clamped_gen) > 0
        assert halfplane_check(neumann_gen) > 0

    def test_undamped_spectrum_on_axis(self):
        op = assemble(GRID, "clamped")
        gen = build_generator(op, np.zeros(op.size))
        red = reduced_generator(gen)
        assert np.abs(red.eigenvalues.real).max() <= 1e-8 * \
            np.abs(red.eigenvalues.imag).max()

    def test_conjugate_pairs(self, clamped_gen):
        eigs = reduced_generator(clamped_gen).eigenvalues
        eigs_sorted = np.sort_complex(eigs)
        conj_sorted = np.sort_complex(eigs.conj())
        assert np.allclose(eigs_sorted, conj_sorted, rtol=1e-8, atol=1e-8)

    def test_eigenvalues_match_dense_solver(self, clamped_gen):
        # eigenvalues come from L^T Ahat L^(-T); both sets must lie within
        # 1e-10 max|lambda| of each other.  (The dense solve on Ahat is the
        # less accurate side: Ahat is badly scaled, |Ahat| ~ 1/h^4.)
        red = reduced_generator(clamped_gen)
        ref = scipy.linalg.eigvals(red.Ahat)
        tol = 1e-10 * np.abs(ref).max()
        gap = np.abs(red.eigenvalues[:, None] - ref[None, :])
        assert red.eigenvalues.size == ref.size
        assert gap.min(axis=1).max() <= tol
        assert gap.min(axis=0).max() <= tol


class TestResolvent:
    def test_apriori_norm_bound(self, clamped_gen):
        nrm = resolvent_norm(clamped_gen, -1.0 + 0.4j)
        assert nrm <= 1.0 + 1e-9

    def test_far_negative_axis_decay(self, clamped_gen):
        for R in (10.0, 100.0):
            nrm = resolvent_norm(clamped_gen, complex(-R, 0.0))
            assert nrm <= 1.0 / R + 1e-12
            assert nrm >= 0.1 / R

    def test_matches_dense_svd(self, neumann_gen, rng):
        red = reduced_generator(neumann_gen)
        for _ in range(5):
            z = complex(rng.uniform(-2, -0.2), rng.uniform(-20, 20))
            nrm = resolvent_norm(neumann_gen, z)
            R = np.linalg.inv(z * np.eye(red.dim) - red.Ahat)
            T = red.L.T @ R @ np.linalg.inv(red.L.T)
            dense = np.linalg.svd(T, compute_uv=False)[0]
            assert nrm == pytest.approx(dense, rel=1e-6)

    def test_matches_dense_svd_without_kernel(self, clamped_gen, rng):
        # empty kernel: the reduction takes A itself, with no projection
        red = reduced_generator(clamped_gen)
        zs = [121j] + [complex(rng.uniform(-2, 0.5), rng.uniform(-150, 150))
                       for _ in range(4)]
        for z in zs:
            nrm = resolvent_norm(clamped_gen, z)
            R = np.linalg.inv(z * np.eye(red.dim) - red.Ahat)
            T = red.L.T @ R @ np.linalg.inv(red.L.T)
            dense = np.linalg.svd(T, compute_uv=False)[0]
            assert nrm == pytest.approx(dense, rel=1e-6)

    def test_unconverged_is_reported(self, clamped_gen, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr("platelab.semigroup.LANCZOS_MAXITER", 1)
            with pytest.raises(RuntimeError, match="did not converge"):
                resolvent_norm(clamped_gen, 3j)
            sweep = resolvent_sweep(clamped_gen, [0.0, 3.0])
            assert not sweep.converged.any()
            assert np.all(sweep.iterations == 1)
        sweep = resolvent_sweep(clamped_gen, [0.0, 3.0])
        assert sweep.converged.all()
        assert np.all(sweep.iterations >= 2)

    def test_eigenvalue_proximity_raises(self, clamped_gen):
        lam = reduced_generator(clamped_gen).eigenvalues[0]
        with pytest.raises(ValueError):
            resolvent_norm(clamped_gen, complex(lam))

    def test_sweep_properties(self, clamped_gen):
        sweep = resolvent_sweep(clamped_gen, np.arange(0.0, 40.0, 1.0))
        assert np.all(np.isfinite(sweep.norms))
        assert sweep.C >= 0 and math.isfinite(sweep.C)
        assert not sweep.skipped
        # universal lower bound |R(z)| >= 1/dist(z, spectrum)
        assert np.all(sweep.norms >= (1 - 1e-6) / sweep.nearest_dist)
        assert np.nanmin(sweep.slack) >= -1e-9
        # a fit is vacuous exactly when the clipped log-norms give C = 0
        assert sweep.vacuous == (sweep.C == 0.0)

    def test_sweep_includes_origin(self, neumann_gen):
        sweep = resolvent_sweep(neumann_gen, [0.0])
        assert math.isfinite(sweep.norms[0])

    def test_exactly_singular_point_is_skipped(self):
        # undamped P = diag(1, 4, ..., 225): B(2i) = P - 4 has an exact zero
        # pivot, so sigma = 2 sits on the eigenvalue 2i and is skipped
        P = sp.diags(np.arange(1.0, 16.0) ** 2, format="csr")
        op = dataclasses.replace(assemble(make_grid(16), "clamped"),
                                 csr=CSR(P.indptr, P.indices, P.data))
        gen = build_generator(op, np.zeros(op.size))
        sweep = resolvent_sweep(gen, [0.5, 2.0])
        assert sweep.skipped == [2.0]
        assert math.isfinite(sweep.norms[0]) and math.isnan(sweep.norms[1])
        assert sweep.nearest_dist[1] == 0.0 and sweep.iterations[1] == 0

    @pytest.mark.parametrize("flip, named", [
        (0, "the start vector's energy is -"), (1, "Ritz value 0 is -"),
        (3, "residual 0's energy is -"),
    ], ids=["start", "ritz-value", "residual"])
    def test_negative_energy_is_named(self, clamped_gen, monkeypatch, flip,
                                      named):
        # the energy product turns negative from its flip-th use on: the
        # start normalization uses it once, then each Lanczos step twice for
        # the Ritz value and once for the residual
        gram, calls = semigroup._Resolvent.gram, []

        def flipped(res, x):
            calls.append(x)
            return (-1.0 if len(calls) > flip else 1.0) * gram(res, x)
        monkeypatch.setattr(semigroup._Resolvent, "gram", flipped)
        with pytest.raises(NegativeEnergyError,
                           match=f"^{re.escape(named)}.* at sigma = 3 "):
            resolvent_norm(clamped_gen, 3j)

    @pytest.mark.parametrize("z", [1e307j, 1e160j, complex(1e200, 1e200)])
    def test_overflowing_point_is_refused(self, clamped_gen, z):
        # z^2 overflows B(z); its failed factor says nothing about z
        with pytest.raises(OverflowError, match="non-finite entry"):
            resolvent_norm(clamped_gen, z)
        with pytest.raises(OverflowError, match="non-finite entry"):
            resolvent_sweep(clamped_gen, [0.0, z.imag])


def dense_reference(gen, z):
    """Energy norm of (z - Ahat)^(-1) by dense SVD, and the distance from z
    to the reduced spectrum."""
    red = reduced_generator(gen)
    R = np.linalg.inv(z * np.eye(red.dim) - red.Ahat)
    T = red.L.T @ R @ np.linalg.inv(red.L.T)
    return (np.linalg.svd(T, compute_uv=False)[0],
            np.abs(red.eigenvalues - z).min())


class TestSparseResolvent:
    @pytest.mark.parametrize("name,grid,k", [("clamped", 24, 0),
                                             ("neumann_pair", 24, 1),
                                             ("ex2_dn2_dn3", 24, 2),
                                             ("hinged", (12, 10), 0),
                                             ("clamped", (12, 10), 0)])
    def test_matches_dense_reference(self, name, grid, k):
        # z = 0 is where K(0) = P is singular for the kernel families
        op = assemble(make_grid(grid), name)
        gen = build_generator(op, bump_alpha(op, 0.2, 0.7, 4.0))
        assert gen.kernel_dim == k
        for z in (0.0, -1 + 0.4j, -0.3 + 7j):
            assert resolvent_norm(gen, z) == pytest.approx(
                dense_reference(gen, z)[0], rel=1e-8)
        sigmas = [0.0, 0.5, 3.0, 20.0]
        sweep = resolvent_sweep(gen, sigmas)
        assert sweep.converged.all() and not sweep.skipped
        for s, nrm, dist in zip(sigmas, sweep.norms, sweep.nearest_dist):
            ref, ref_dist = dense_reference(gen, 1j * s)
            assert nrm == pytest.approx(ref, rel=1e-8)
            assert dist == pytest.approx(ref_dist, rel=1e-8)

    def test_2d_sweep_converges(self):
        # power iteration on R*R ran out of 1000 steps at each of these
        op = assemble(make_grid((32, 24)), "hinged")
        gen = build_generator(op, bump_alpha(op, 0.2, 0.7, 4.0))
        sweep = resolvent_sweep(gen, [36.0, 38.0, 40.0, 42.0])
        assert sweep.converged.all()
        assert sweep.iterations.max() <= 20
        assert np.all(sweep.norms * sweep.nearest_dist >= 1 - 1e-9)
