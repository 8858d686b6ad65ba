"""Damped plate semigroup on a discrete bi-Laplacian.

The state Y = (y, dy/dt) evolves by dY/dt = -A Y with the block generator
A = [[0, -I], [P, alpha]].  Stationary states (kernel of P paired with a
zero velocity) are removed through the damping-weighted linear forms F;
the complement carries the energy inner product <P u0, v0> + <u1, v1>, in
which the reduced generator has spectrum in the open right half-plane as
soon as the damping controls the kernel.  Time integration is implicit
midpoint: unconditionally stable, exactly conservative when alpha = 0, and
the discrete dissipation identity closes to solver roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from .plate import DiscretePlateOperator, kernel as plate_kernel, lower_band

__all__ = [
    "StateVector",
    "EnergyLog",
    "Generator",
    "build_generator",
    "kernel_projection",
    "energy",
    "hdot_norm",
    "hdot_inner",
    "MidpointStepper",
    "simulate",
    "decay_fit",
    "ReducedGenerator",
    "reduced_generator",
    "resolvent_norm",
    "resolvent_sweep",
    "halfplane_check",
]


@dataclass
class StateVector:
    y: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.y.shape != self.v.shape:
            raise ValueError("position and velocity grids differ")

    def copy(self) -> "StateVector":
        return StateVector(self.y.copy(), self.v.copy(), self.t)


@dataclass
class EnergyLog:
    times: np.ndarray
    energies: np.ndarray
    dissipations: np.ndarray
    dt: float
    scheme: str = "implicit-midpoint"
    meta: dict = field(default_factory=dict)

    def validate(self):
        """Energies nonnegative and nonincreasing to 1e-9 relative to E0."""
        e0 = max(self.energies[0], 1e-300)
        if np.any(self.energies < -1e-9 * e0):
            raise AssertionError("negative energy in log")
        jumps = np.diff(self.energies)
        if np.any(jumps > 1e-9 * e0):
            k = int(np.argmax(jumps))
            raise AssertionError(
                f"energy increases at step {k}: {self.energies[k]} -> "
                f"{self.energies[k + 1]}")

    def total_dissipated(self) -> float:
        return float(np.sum(self.dissipations) * self.dt)


@dataclass
class Generator:
    """Plate generator data: operator, damping, and kernel basis.

    kernel_damped columns are orthonormal for the damping-weighted product
    <alpha u, v>, which is an inner product on the kernel precisely when the
    damping sees every stationary mode.
    """

    op: DiscretePlateOperator
    alpha: np.ndarray
    kernel_damped: np.ndarray
    _reduced: Optional["ReducedGenerator"] = None

    @property
    def size(self):
        return self.op.size

    @property
    def kernel_dim(self):
        return self.kernel_damped.shape[1]

    def apply_A(self, Y: StateVector) -> StateVector:
        return StateVector(-Y.v, self.op.apply(Y.y) + self.alpha * Y.v, Y.t)

    def functionals(self, Y: StateVector) -> np.ndarray:
        """F_j(Y) = <alpha u0, phi_j> + <u1, phi_j> over the damped-orthonormal
        kernel basis (the normalizing Gram factor is the identity)."""
        if self.kernel_dim == 0:
            return np.zeros(0)
        w = self.op.weight
        return w * (self.kernel_damped.T @ (self.alpha * Y.y + Y.v))


class DampingError(ValueError):
    """Damping that no generator accepts: non-finite, negative, or blind to
    a stationary mode."""


def build_generator(op: DiscretePlateOperator, alpha_profile) -> Generator:
    """Generator with precomputed kernel projection data.

    alpha_profile: damping values over the unknowns.  Rejects non-finite or
    negative damping, and rejects damping whose weighted Gram matrix on the
    stationary kernel is not positive definite (no projection can then
    separate the stationary states).
    """
    alpha = np.asarray(alpha_profile, dtype=float)
    if alpha.shape != (op.size,):
        raise ValueError(f"damping profile shape {alpha.shape} != ({op.size},)")
    if not np.all(np.isfinite(alpha)):
        raise DampingError("damping must be finite")
    if np.any(alpha < 0):
        raise DampingError("damping must be nonnegative")

    kvecs = plate_kernel(op)
    nk = len(kvecs)
    K = np.column_stack(kvecs) if nk else np.zeros((op.size, 0))

    if nk:
        w = op.weight
        G = w * (K.T @ (alpha[:, None] * K))
        ev = scipy.linalg.eigvalsh(G)
        if ev[0] <= 1e-12 * max(ev[-1], 1e-300):
            raise DampingError(
                "damping-weighted Gram matrix is singular on the stationary "
                f"kernel (eigenvalues {ev}); the damping does not control "
                "some stationary mode")
        # Gram-Schmidt in the alpha-weighted product via Cholesky
        L = scipy.linalg.cholesky(G, lower=True)
        Kd = scipy.linalg.solve_triangular(L, K.T, lower=True).T
        Gd = w * (Kd.T @ (alpha[:, None] * Kd))
        if np.abs(Gd - np.eye(nk)).max() > 1e-10:
            raise AssertionError("damped kernel basis failed orthonormality")
    else:
        Kd = K
    return Generator(op, alpha, Kd)


def kernel_projection(Y: StateVector, gen: Generator):
    """Split Y into its stationary part sum F_j(Y) (phi_j, 0) and the
    complement; the two pieces are not orthogonal, but the splitting is a
    pair of continuous projectors."""
    if gen.kernel_dim == 0:
        return StateVector(np.zeros_like(Y.y), np.zeros_like(Y.v), Y.t), Y.copy()
    coeff = gen.functionals(Y)
    yn = gen.kernel_damped @ coeff
    Yn = StateVector(yn, np.zeros_like(Y.v), Y.t)
    Yd = StateVector(Y.y - yn, Y.v.copy(), Y.t)
    return Yn, Yd


def energy(Y: StateVector, gen: Generator) -> float:
    """E = (<P y, y> + |v|^2)/2 in the grid product; stationary kernel
    states are invisible to it."""
    return 0.5 * hdot_inner(gen, Y, Y)


def hdot_inner(gen: Generator, Y: StateVector, Z: StateVector) -> float:
    op = gen.op
    return op.inner(op.apply(Y.y), Z.y) + op.inner(Y.v, Z.v)


def hdot_norm(gen: Generator, Y: StateVector) -> float:
    return math.sqrt(max(hdot_inner(gen, Y, Y), 0.0))


class MidpointStepper:
    """Implicit midpoint for dY/dt = -AY with a cached banded Cholesky factor
    of S = I + (dt^2/4) P + (dt/2) diag(alpha), which has P's bandwidth; S is
    SPD for every dt > 0 because P is nonnegative and alpha >= 0."""

    def __init__(self, gen: Generator, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.gen = gen
        self.dt = dt
        self._P = gen.op.matrix
        S = (dt ** 2 / 4.0) * lower_band(self._P)   # S in lower band storage
        S[0] = 1.0 + S[0] + (dt / 2.0) * gen.alpha
        self._band = scipy.linalg.cholesky_banded(S, lower=True)

    def advance(self, Y: StateVector):
        """One step; returns (next state, dissipation rate at the midpoint)."""
        dt, gen = self.dt, self.gen
        P, alpha = self._P, gen.alpha
        rhs = Y.v - (dt / 2.0) * alpha * Y.v \
            - P @ ((dt ** 2 / 4.0) * Y.v + dt * Y.y)
        v_new = scipy.linalg.cho_solve_banded((self._band, True), rhs,
                                              check_finite=False)
        y_new = Y.y + (dt / 2.0) * (Y.v + v_new)
        v_mid = 0.5 * (Y.v + v_new)
        diss = gen.op.inner(alpha * v_mid, v_mid)
        return StateVector(y_new, v_new, Y.t + dt), diss


def simulate(Y0: StateVector, gen: Generator, T: float, dt: float,
             log_every: int = 1):
    """Trajectory of the damped plate flow with its energy ledger.

    The log records (t, E, dissipation-rate); the energy is nonincreasing
    up to solver roundoff, and the kernel component of the state is a
    constant of the motion.  NaN or overflow aborts with the step index.
    """
    if not (np.all(np.isfinite(Y0.y)) and np.all(np.isfinite(Y0.v))):
        raise FloatingPointError("initial state is not finite")
    stepper = MidpointStepper(gen, dt)
    nsteps = int(round(T / dt))
    times = [Y0.t]
    energies = [energy(Y0, gen)]
    diss = [0.0]
    Y = Y0.copy()
    for i in range(nsteps):
        Y, d = stepper.advance(Y)
        if not (np.all(np.isfinite(Y.y)) and np.all(np.isfinite(Y.v))):
            raise FloatingPointError(f"state blew up at step {i + 1}")
        if (i + 1) % log_every == 0 or i == nsteps - 1:
            times.append(Y.t)
            energies.append(energy(Y, gen))
            diss.append(d)
    log = EnergyLog(np.array(times), np.array(energies), np.array(diss), dt,
                    meta={"T": T, "nsteps": nsteps, "log_every": log_every})
    return log, Y


def decay_fit(log: EnergyLog, n: int, amp: float) -> float:
    """sup over logged times of E(t) (log(2+t))^(4n) / amp; the empirical
    constant of the logarithmic decay bound.  amp is |A^n Y0|^2 in the
    energy norm and must be positive (stationary data carries no decay
    statement)."""
    if amp <= 0:
        raise ValueError("amplitude |A^n Y0|^2 must be positive; the initial "
                         "state is stationary")
    vals = log.energies * np.log(2.0 + log.times) ** (4 * n)
    return float(vals.max() / amp)


# ---------------------------------------------------------------------------
# reduced generator and resolvent
# ---------------------------------------------------------------------------

@dataclass
class ReducedGenerator:
    """Matrix of A restricted to the functional-kernel complement.

    The complement {Y : F_j(Y) = 0} is A-invariant, so Ahat, the matrix of A
    in a Euclidean-orthonormal basis of it (the standard basis when the
    kernel is empty), is the exact restriction.  Ghat is the energy Gram
    matrix in that basis (SPD there), and L its Cholesky factor; operator
    norms are measured with it.  T is the complex upper-triangular Schur
    factor of B = L^T Ahat L^(-T), the restriction in energy-orthonormal
    coordinates: B = Z T Z^H with Z unitary, so the energy norm of any
    function of Ahat is the Euclidean norm of the same function of T.
    """

    Ahat: np.ndarray
    Ghat: np.ndarray
    L: np.ndarray
    T: np.ndarray
    eigenvalues: np.ndarray

    @property
    def dim(self):
        return self.Ahat.shape[0]


def reduced_generator(gen: Generator) -> ReducedGenerator:
    if gen._reduced is not None:
        return gen._reduced
    n = gen.size
    w = gen.op.weight
    P = gen.op.dense()      # raises SizeLimitError above MAX_DENSE_UNKNOWNS
    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = -np.eye(n)
    A[n:, :n] = P
    A[n:, n:] = np.diag(gen.alpha)
    G = np.zeros((2 * n, 2 * n))
    G[:n, :n] = w * P
    G[n:, n:] = w * np.eye(n)
    if gen.kernel_dim:
        # F rows: F_j(Y) = w (alpha phi_j)^T y + w phi_j^T v
        F = np.hstack([w * (gen.alpha[:, None] * gen.kernel_damped).T,
                       w * gen.kernel_damped.T])
        Q = scipy.linalg.null_space(F)
        AQ = A @ Q
        del A
        Ahat = Q.T @ AQ
        # invariance check: AQ must stay in range(Q)
        resid = np.linalg.norm(AQ - Q @ Ahat) / max(np.linalg.norm(AQ), 1e-300)
        if resid > 1e-8:
            raise AssertionError(f"reduced subspace is not invariant "
                                 f"(residual {resid:.2e})")
        del AQ
        Ghat = Q.T @ G @ Q
        Ghat = 0.5 * (Ghat + Ghat.T)
        del G, Q
    else:
        # the complement is the whole space: no projection to take
        Ahat, Ghat = A, G
    L = scipy.linalg.cholesky(Ghat, lower=True)
    # B = L^T Ahat L^(-T), formed as (L^(-1) (L^T Ahat)^T)^T
    B = scipy.linalg.solve_triangular(L, (L.T @ Ahat).T, lower=True).T
    Tr, Zr = scipy.linalg.schur(B, output="real")
    del B
    # eigenvalues of the quasi-triangular factor come in exact conjugate pairs
    eigs = scipy.linalg.eigvals(Tr)
    T, _ = scipy.linalg.rsf2csf(Tr, Zr)
    del Tr, Zr
    red = ReducedGenerator(Ahat, Ghat, L, T, eigs)
    gen._reduced = red
    return red


def _weighted_opnorm_inv(red: ReducedGenerator, z: complex,
                         maxiter: int = 1000):
    """|(z - Ahat)^(-1)| in the energy norm, which is |(z - T)^(-1)|_2, by
    power iteration on (z - T)^(-H) (z - T)^(-1) with two triangular solves
    per step, from a seed-0 random start to 1e-9 relative change.

    Returns (norm, iterations, converged).  When maxiter runs out, converged
    is False and norm is only a lower bound.
    """
    M = -red.T
    M[np.diag_indices_from(M)] += z
    rng = np.random.default_rng(0)
    x = rng.normal(size=red.dim) + 1j * rng.normal(size=red.dim)
    x /= np.linalg.norm(x)
    sigma_old = 0.0
    for it in range(1, maxiter + 1):
        y = scipy.linalg.solve_triangular(M, x, check_finite=False)
        x2 = scipy.linalg.solve_triangular(M, y, trans="C", check_finite=False)
        nrm = np.linalg.norm(x2)
        if nrm == 0:
            return 0.0, it, True
        x = x2 / nrm
        sigma = math.sqrt(nrm)
        if abs(sigma - sigma_old) <= 1e-9 * max(sigma, 1e-300):
            return sigma, it, True
        sigma_old = sigma
    return sigma, maxiter, False


def resolvent_norm(gen: Generator, z: complex, maxiter: int = 1000) -> float:
    """Operator norm of (z - reduced A)^(-1) in the energy inner product.

    Largest-singular-value power iteration through the Schur factor of the
    reduced generator.  Raises ValueError when z sits on (or numerically at)
    an eigenvalue of the reduced generator, and RuntimeError when the
    iteration does not converge within maxiter steps.
    """
    red = reduced_generator(gen)
    scale = max(np.abs(red.eigenvalues).max(), 1.0)
    dist = np.abs(red.eigenvalues - z).min()
    if dist < 1e-12 * scale:
        raise ValueError(f"z = {z} is within {dist:.2e} of the reduced "
                         f"spectrum; resolvent norm undefined")
    nrm, _, converged = _weighted_opnorm_inv(red, complex(z), maxiter=maxiter)
    if not converged:
        raise RuntimeError(f"power iteration at z = {z} did not converge in "
                           f"{maxiter} iterations; {nrm} is only a lower "
                           f"bound")
    return nrm


@dataclass
class SweepResult:
    """Per-point arrays over the grid.  Skipped points carry a nan norm and
    0 iterations; converged is False only where the power iteration ran out
    of maxiter, so that norm is a lower bound."""

    sigmas: np.ndarray
    norms: np.ndarray
    skipped: list
    C: float
    slack: np.ndarray
    nearest_dist: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def resolvent_sweep(gen: Generator, sigma_grid,
                    maxiter: int = 1000) -> SweepResult:
    """Resolvent norms along the imaginary axis and the least C with
    log |R(i s)| <= C (1 + sqrt|s|) on the grid.

    Grid points within eigenvalue-resolution of the spectrum are skipped and
    flagged.  The per-point slack C (1 + sqrt s) - log |R| is reported; the
    distance to the nearest reduced eigenvalue gives the universal lower
    bound |R| >= 1/dist for cross-checking.  Each point costs O(dim^2) per
    iteration on the Schur factor computed once by reduced_generator.
    """
    red = reduced_generator(gen)
    sigmas = np.asarray(list(sigma_grid), dtype=float)
    scale = max(np.abs(red.eigenvalues).max(), 1.0)
    norms = np.full(sigmas.size, np.nan)
    dists = np.empty(sigmas.size)
    iterations = np.zeros(sigmas.size, dtype=int)
    converged = np.ones(sigmas.size, dtype=bool)
    skipped = []
    for i, s in enumerate(sigmas):
        z = 1j * s
        dists[i] = np.abs(red.eigenvalues - z).min()
        if dists[i] < 1e-12 * scale:
            skipped.append(float(s))
            continue
        norms[i], iterations[i], converged[i] = _weighted_opnorm_inv(
            red, z, maxiter=maxiter)

    ok = ~np.isnan(norms)
    ratios = np.maximum(np.log(norms[ok]), 0.0) / (1.0 + np.sqrt(np.abs(sigmas[ok])))
    C = float(ratios.max()) if ratios.size else 0.0
    slack = np.full(sigmas.size, np.nan)
    slack[ok] = C * (1.0 + np.sqrt(np.abs(sigmas[ok]))) - np.log(norms[ok])
    return SweepResult(sigmas, norms, skipped, C, slack, dists, iterations,
                       converged)


def halfplane_check(gen: Generator, count: Optional[int] = None) -> float:
    """Minimum real part over the reduced generator's eigenvalues (all of
    them when count is omitted); positive means the spectrum stays in the
    open right half-plane."""
    red = reduced_generator(gen)
    eigs = red.eigenvalues
    if count is not None:
        if count > eigs.size:
            raise ValueError(f"requested {count} eigenvalues of a "
                             f"{eigs.size}-dimensional reduced generator")
        idx = np.argsort(np.abs(eigs.real))[:count]
        eigs = eigs[idx]
    return float(eigs.real.min())
