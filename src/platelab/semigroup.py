"""Damped plate semigroup on a discrete bi-Laplacian.

The state Y = (y, dy/dt) evolves by dY/dt = -A Y with the block generator
A = [[0, -I], [P, alpha]].  Stationary states (kernel of P paired with a
zero velocity) are removed through the damping-weighted linear forms F;
the complement carries the energy inner product <P u0, v0> + <u1, v1>, in
which the reduced generator has spectrum in the open right half-plane as
soon as the damping controls the kernel.  Time integration is implicit
midpoint: unconditionally stable, exactly conservative when alpha = 0, and
the discrete dissipation identity closes to solver roundoff.

The resolvent is sparse at every size: at each point z, one LU factor of
the bordered matrix B(z) around K(z) = P + z^2 - z alpha, then Lanczos on
R* R in the energy product for the norm and ARPACK on R for the nearest
eigenvalue.  The dense reduced generator serves only the a-priori bound,
the half-plane check and dense test references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import SizeLimitError, _lapack
from .plate import (DiscretePlateOperator, _csr_out, _rows, _sorted,
                    kernel as plate_kernel, lower_band)

__all__ = [
    "StateVector",
    "EnergyLog",
    "Generator",
    "build_generator",
    "kernel_projection",
    "energy",
    "hdot_norm",
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
        """Each row's mean rate times the time since the previous row."""
        return float(np.sum(self.dissipations[1:] * np.diff(self.times)))


@dataclass
class Generator:
    """Plate generator data: operator, damping, and kernel basis.

    kernel_damped is one (N, nk) array, (N, 0) without a kernel; its columns
    are orthonormal for the damping-weighted product <alpha u, v>, which is
    an inner product on the kernel precisely when the damping sees every
    stationary mode.
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

    def _F(self, u, v) -> np.ndarray:
        """F_j = w <alpha u + v, phi_j> for real or complex (u, v); the
        damped-orthonormal basis makes the normalizing Gram factor I."""
        return self.op.weight * (self.kernel_damped.T @ (self.alpha * u + v))

    def functionals(self, Y: StateVector) -> np.ndarray:
        """F_j(Y) = <alpha u0, phi_j> + <u1, phi_j> in the grid product."""
        return self._F(Y.y, Y.v)


class DampingError(ValueError):
    """Damping that no generator accepts: non-finite, negative, or blind to
    a stationary mode."""


def build_generator(op: DiscretePlateOperator, alpha_profile) -> Generator:
    """Generator with precomputed kernel projection data.

    alpha_profile: damping values over the unknowns.  Rejects non-finite or
    negative damping, and rejects damping whose weighted Gram matrix on the
    stationary kernel is not positive definite (no projection can then
    separate the stationary states), and grids where roundoff eps ||P||_inf
    in P moves the slowest damped rate ev_min, the least eigenvalue of that
    Gram matrix, by over MAX_KERNEL_ROUNDOFF ev_min (SizeLimitError).
    plate.kernel refuses an indefinite operator.
    """
    alpha = np.asarray(alpha_profile, dtype=float)
    if alpha.shape != (op.size,):
        raise ValueError(f"damping profile shape {alpha.shape} != ({op.size},)")
    if not np.all(np.isfinite(alpha)):
        raise DampingError("damping must be finite")
    if np.any(alpha < 0):
        raise DampingError("damping must be nonnegative")

    K, w = plate_kernel(op), op.weight
    G = w * (K.T @ (alpha[:, None] * K))
    ev = _lapack.eigh(G, vectors=False)
    if ev.size and ev[0] <= 1e-12 * max(ev[-1], 1e-300):
        raise DampingError(
            "damping-weighted Gram matrix is singular on the stationary "
            f"kernel (eigenvalues {ev}); the damping does not control "
            "some stationary mode")
    rho = np.finfo(float).eps * op.scale / ev[0] ** 2 if ev.size else 0.0
    if rho > MAX_KERNEL_ROUNDOFF:
        raise SizeLimitError(
            f"generator refused on the {' x '.join(map(str, op.grid.n))}-cell "
            f"grid: rho = eps ||P|| / ev_min^2 = {rho:.3g} exceeds its limit "
            f"{MAX_KERNEL_ROUNDOFF:g}, with ev_min = {ev[0]:.6g}")
    # Gram-Schmidt in the alpha-weighted product via Cholesky
    Kd = _lapack.cholesky_solve(G, K.T).T
    Gd = w * (Kd.T @ (alpha[:, None] * Kd))
    if np.abs(Gd - np.eye(ev.size)).max(initial=0.0) > 1e-10:
        raise AssertionError("damped kernel basis failed orthonormality")
    return Generator(op, alpha, Kd)


def kernel_projection(Y: StateVector, gen: Generator):
    """Split Y into its stationary part sum F_j(Y) (phi_j, 0) and the
    complement; the two pieces are not orthogonal, but the splitting is a
    pair of continuous projectors."""
    yn = gen.kernel_damped @ gen.functionals(Y)
    Yn = StateVector(yn, np.zeros_like(Y.v), Y.t)
    Yd = StateVector(Y.y - yn, Y.v.copy(), Y.t)
    return Yn, Yd


def _energy(w, y, v, Py) -> float:
    """(<P y, y> + |v|^2)/2 in the grid product of weight w, from Py = P y."""
    return 0.5 * (w * float(np.vdot(y, Py)) + w * float(np.vdot(v, v)))


def energy(Y: StateVector, gen: Generator) -> float:
    """E = (<P y, y> + |v|^2)/2 in the grid product; stationary kernel
    states are invisible to it."""
    return _energy(gen.op.weight, Y.y, Y.v, gen.op.apply(Y.y))


def hdot_norm(gen: Generator, Y: StateVector) -> float:
    """Energy norm sqrt(<P y, y> + |v|^2) = sqrt(2 E)."""
    return math.sqrt(max(2.0 * energy(Y, gen), 0.0))


class MidpointStepper:
    """Implicit midpoint for dY/dt = -AY through the midpoint velocity,
    S v_mid = v - (dt/2) P y, y' = y + dt v_mid, v' = 2 v_mid - v, with a
    cached banded Cholesky factor of S = I + (dt^2/4) P + (dt/2) diag(alpha):
    P's bandwidth, SPD for every dt > 0 as P is nonnegative and alpha >= 0.
    A step allocates nothing: it solves in place with the factor, reuses two
    work vectors and calls the CSR kernel behind P @ y on P's arrays."""

    def __init__(self, gen: Generator, dt: float):
        if not 0 < dt < math.inf:
            raise ValueError(f"dt must be finite and > 0, got {dt}")
        self.gen = gen
        self.dt = dt
        P = gen.op.csr
        S = (dt ** 2 / 4.0) * lower_band(P)   # S in lower band storage
        S[0] = 1.0 + S[0] + (dt / 2.0) * gen.alpha
        self._band = _lapack.cholesky_banded(S)
        self._csr = (*P.shape, *P)
        self._mid, self._work = np.empty(gen.size), np.empty(gen.size)

    def advance(self, y, v, Py) -> float:
        """One step in place from (y, v), given Py = P y, which all three
        then hold for the next state: one banded solve and one sparse
        product.  Returns the dissipation rate <alpha v_mid, v_mid>."""
        dt, mid, work = self.dt, self._mid, self._work
        np.subtract(v, np.multiply(Py, dt / 2.0, out=mid), out=mid)
        mid, info = _lapack.flapack.dpbtrs(self._band, mid, lower=1,
                                           overwrite_b=1)
        if info:
            raise ValueError(f"dpbtrs rejected argument {-info}")
        y += np.multiply(mid, dt, out=work)
        np.subtract(np.multiply(mid, 2.0, out=work), v, out=v)
        Py.fill(0.0)                        # csr_matvec adds P y to Py
        _lapack.sparsetools.csr_matvec(*self._csr, y, Py)
        return self.gen.op.weight * float(
            np.vdot(mid, np.multiply(self.gen.alpha, mid, out=work)))


def simulate(Y0: StateVector, gen: Generator, T: float, dt: float,
             log_every: int = 1):
    """Trajectory of the damped plate flow with its energy ledger.

    The log records (t, E, mean dissipation rate since the previous row)
    every log_every steps and after the last, in three arrays of
    1 + ceil(nsteps / log_every) rows allocated up front; the energy is
    nonincreasing up to solver roundoff, and the kernel component of the
    state is a constant of the motion.  One MidpointStepper steps a copy of
    Y0 in place.  T must be finite and >= 0, dt finite and > 0, T / dt
    finite and log_every an integer >= 1; a log above MAX_LOG_BYTES or more
    than MAX_STEPS steps raises SizeLimitError.  NaN or overflow, which
    makes the energy non-finite, aborts with the step index.
    """
    if not 0 <= T < math.inf:
        raise ValueError(f"T must be finite and >= 0, got {T}")
    if not (isinstance(log_every, (int, np.integer)) and log_every >= 1):
        raise ValueError(f"log_every must be an integer >= 1, got {log_every!r}")
    stepper = MidpointStepper(gen, dt)
    if not (np.all(np.isfinite(Y0.y)) and np.all(np.isfinite(Y0.v))):
        raise FloatingPointError("initial state is not finite")
    if not math.isfinite(T / dt):
        raise ValueError(f"T / dt = {T} / {dt} is not a finite step count")
    nsteps = int(round(T / dt))
    rows = 1 + -(-nsteps // log_every)
    if 24 * rows > MAX_LOG_BYTES:
        raise SizeLimitError(
            f"energy log refused for T = {T}, dt = {dt}, log_every = "
            f"{log_every}: its three arrays of {rows} rows take "
            f"{24 * rows} > {MAX_LOG_BYTES} bytes")
    if nsteps > MAX_STEPS:
        raise SizeLimitError(
            f"time stepping refused for T = {T}, dt = {dt}: its {nsteps} "
            f"steps exceed {MAX_STEPS}")
    times, energies, diss = np.empty(rows), np.empty(rows), np.zeros(rows)
    Y, Py, rate, row = Y0.copy(), gen.op.apply(Y0.y), 0.0, 0
    y, v, w = Y.y, Y.v, gen.op.weight
    times[0], energies[0] = Y.t, _energy(w, y, v, Py)
    for i in range(nsteps):
        d = stepper.advance(y, v, Py)
        Y.t += dt
        e = _energy(w, y, v, Py)
        if not math.isfinite(e):
            raise FloatingPointError(f"state blew up at step {i + 1}")
        rate += d
        if (i + 1) % log_every == 0 or i == nsteps - 1:
            row += 1
            times[row], energies[row] = Y.t, e
            diss[row] = rate / (i % log_every + 1)    # steps since last row
            rate = 0.0
    log = EnergyLog(times, energies, diss, dt,
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
# reduced generator
# ---------------------------------------------------------------------------

@dataclass
class ReducedGenerator:
    """Dense matrix of A restricted to the functional-kernel complement, for
    the a-priori bound, the half-plane check and the dense test references.

    The complement {Y : F_j(Y) = 0} is A-invariant, so Ahat, the matrix of A
    in a Euclidean-orthonormal basis of it (the standard basis when the
    kernel is empty), is the exact restriction.  Ghat is the energy Gram
    matrix in that basis (SPD there), and L its Cholesky factor; operator
    norms are measured with it.  The eigenvalues are those of
    L^T Ahat L^(-T), the restriction in energy-orthonormal coordinates.
    The resolvent does not use this class: it is sparse at every size.
    """

    Ahat: np.ndarray
    Ghat: np.ndarray
    L: np.ndarray
    eigenvalues: np.ndarray

    @property
    def dim(self):
        return self.Ahat.shape[0]


def reduced_generator(gen: Generator) -> ReducedGenerator:
    if gen._reduced is not None:
        return gen._reduced
    import scipy.linalg
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
    red = ReducedGenerator(Ahat, Ghat, L, scipy.linalg.eigvals(B))
    gen._reduced = red
    return red


# ---------------------------------------------------------------------------
# resolvent: one sparse factor per point
# ---------------------------------------------------------------------------

MAX_RESOLVENT_BYTES = 2 ** 30   # cap of _resolvent_bytes, per point
MAX_LOG_BYTES = 2 ** 30         # cap of simulate's three float64 log arrays
MAX_STEPS = 10 ** 9             # cap of simulate's steps: 3 h at n = 200
MAX_KERNEL_ROUNDOFF = 1e-2      # cap of rho in build_generator
ARNOLDI_VECTORS = 8             # ARPACK basis: 20 takes twice the solves
LANCZOS_MAXITER = 1000          # Lanczos steps per point before giving up


@dataclass
class _Pencil:
    """The bordered matrix B(z) = B0 + z B1 + z^2 B2 on one CSC pattern,

        B(z) = [[K(z),                  (alpha - z) Phi],
                [w Phi^T (alpha - z),   w Phi^T Phi    ]],

    K(z) = P + z^2 - z diag(alpha), Phi the damped kernel basis and w the
    grid weight.  Without a kernel B(z) is K(z).  Solving with B(z) gives a
    state in the complement {F = 0} whose image under z - A is the right-hand
    side up to a stationary state; B(z) is nonsingular exactly when z is not
    an eigenvalue of the reduced generator, z = 0 included.  A z at which
    an entry overflows (z^2 first) raises OverflowError: no factor of B(z)
    is then a statement about z."""

    indices: np.ndarray
    indptr: np.ndarray
    coeffs: np.ndarray      # (3, nnz): B0, B1, B2 on the pattern

    def at(self, z: complex):
        """B(z) as its CSC arrays (data, indices, indptr)."""
        with np.errstate(over="ignore", invalid="ignore"):
            data = self.coeffs[0] + z * self.coeffs[1] + z * z * self.coeffs[2]
        if not np.isfinite(data).all():
            raise OverflowError(f"B(z) has a non-finite entry at z = {z}")
        return data, self.indices, self.indptr


def _pencil(gen: Generator) -> _Pencil:
    n, k, w = gen.size, gen.kernel_dim, gen.op.weight
    a, Phi = gen.alpha, gen.kernel_damped
    P = gen.op.csr
    i = np.arange(n)
    # the border column block, row by row of Phi, and the corner
    r, c = np.repeat(i, k), n + np.tile(np.arange(k), n)
    rb, cb = n + np.repeat(np.arange(k), k), n + np.tile(np.arange(k), k)
    aPhi, Phi1 = (a[:, None] * Phi).ravel(), Phi.ravel()
    # (power of z, rows, columns, values) of each term
    parts = [(0, _rows(P), P.indices, P.data), (1, i, i, -a),
             (2, i, i, np.ones(n)), (0, r, c, aPhi), (1, r, c, -Phi1),
             (0, c, r, w * aPhi), (1, c, r, -w * Phi1),
             (0, rb, cb, w * (Phi.T @ Phi).ravel())]
    power = np.concatenate([np.full(len(rr), p) for p, rr, _, _ in parts])
    rows, cols = (np.concatenate([part[j] for part in parts]).astype(np.int32)
                  for j in (1, 2))
    vals = np.concatenate([part[3] for part in parts])
    # one triplet list for all three, so they share a pattern; CSC is the
    # CSR of the transpose, converted as scipy.sparse's csc_matrix((values,
    # (rows, cols))) converts it: sorted, duplicates summed, explicit zeros
    # kept
    coeffs = []
    for p in range(3):
        B = _sorted(_csr_out(_lapack.sparsetools.coo_tocsr, n + k, rows.size,
                             rows.size, cols, rows,
                             np.where(power == p, vals, 0.0)))
        _lapack.sparsetools.csr_sum_duplicates(n + k, n + k, *B)
        coeffs.append(B.data[:B.indptr[-1]])
    return _Pencil(B.indices[:B.indptr[-1]], B.indptr, np.array(coeffs))


def _resolvent_bytes(gen: Generator) -> int:
    """Bytes of one point, complex entries at 16 B: the LU factor of B(z)
    at the band bound of natural order (L within P's half-bandwidth b and U
    within 2b under partial pivoting, plus k dense rows and columns from the
    border), then min(LANCZOS_MAXITER, 2N) Lanczos vectors and ARNOLDI_VECTORS
    ARPACK vectors of length 2N.  The minimum-degree order fills less: on a
    64 x 48 hinged plate L + U hold 294,087 entries against the bound's
    837,963."""
    n, k = gen.size, gen.kernel_dim
    b = lower_band(gen.op.csr).shape[0] - 1
    factor = (n + k) * (3 * b + 1) + 2 * k * (n + k)
    vectors = (min(LANCZOS_MAXITER, 2 * n) + ARNOLDI_VECTORS) * 2 * n
    return 16 * (factor + vectors)


class NegativeEnergyError(ValueError):
    """A negative energy <X, X> in the resolvent's Lanczos iteration."""


class _Resolvent:
    """R = (z - A)^(-1) on the complement {F = 0} of the stationary states,
    from one sparse LU factor of B(z).  States are complex vectors (u, v) of
    length 2N.  The energy product <X, Y> = w (Y_u^H P X_u + Y_v^H X_v) is
    an inner product on the complement, where A* = [[0, I], [-P, alpha]];
    the adjoint R* reuses the factor through B(z)^H."""

    def __init__(self, gen: Generator, pencil: _Pencil, z: complex):
        self.gen, self.z = gen, complex(z)
        self.lu = _lapack.splu(*pencil.at(self.z))

    def gram(self, x):
        n, w = self.gen.size, self.gen.op.weight
        return w * np.concatenate([self.gen.op.apply(x[:n]), x[n:]])

    def apply(self, x):
        """R x: B(z) [u; rho] = [(z - alpha) f - g; -w Phi^T f], then
        v = f - z u + Phi rho."""
        gen, n, z = self.gen, self.gen.size, self.z
        Phi, f, g = gen.kernel_damped, x[:n], x[n:]
        s = self.lu.solve(np.concatenate([(z - gen.alpha) * f - g,
                                          -gen.op.weight * (Phi.T @ f)]))
        u = s[:n]
        return np.concatenate([u, f - z * u + Phi @ s[n:]])

    def adjoint(self, x):
        """R* x: B(z)^H [u; r] = [g + (conj z - alpha) f; 0], which solves
        (conj z - A*) (u, v) = (f, g) up to a stationary state with
        v = conj(z) u - f - w Phi r; that state is then removed."""
        gen, n, zc = self.gen, self.gen.size, self.z.conjugate()
        Phi, f, g = gen.kernel_damped, x[:n], x[n:]
        s = self.lu.solve(np.concatenate([g + (zc - gen.alpha) * f,
                                          np.zeros(gen.kernel_dim)]),
                          trans="H")
        u = s[:n]
        return _stationary_free(gen, np.concatenate(
            [u, zc * u - f - gen.op.weight * (Phi @ s[n:])]))

    def nearest_dist(self, v0) -> float:
        """|z - lambda| for the eigenvalue lambda of the reduced generator
        nearest z, from ARPACK's largest eigenvalue mu = 1/(z - lambda) of R
        with scipy's default limit of 10 restarts per unknown; nan when
        ARPACK stops short."""
        mu = _lapack.eig_largest(self.apply, v0, ARNOLDI_VECTORS, 1e-12,
                                 10 * v0.size)
        return 1.0 / abs(mu)

    def _root(self, what: str, value: float) -> float:
        if not value >= 0:
            raise NegativeEnergyError(
                f"{what} is {value:.6g} at sigma = {self.z.imag:g} (z = "
                f"{self.z}): the energy product is not positive on the "
                f"complement, so the operator is indefinite or has a "
                f"stationary mode outside the kernel basis")
        return math.sqrt(value)

    def norm(self, start):
        """|R| in the energy norm, the square root of the largest eigenvalue
        of R* R: Lanczos in the energy product with full reorthogonalization
        from `start`, stopped when the top Ritz value's square root moves by
        at most 1e-9 relative.  Returns (norm, steps, converged); when
        LANCZOS_MAXITER runs out, converged is False and norm is only a
        lower bound.
        """
        m = min(LANCZOS_MAXITER, start.size)
        Q = np.empty((m, start.size), dtype=complex)
        diag, off = np.zeros(m), np.zeros(m)
        q = start / self._root("the start vector's energy",
                               np.vdot(start, self.gram(start)).real)
        sigma_old = 0.0
        for j in range(m):
            Q[j] = q
            r = self.adjoint(self.apply(q))
            # classical Gram-Schmidt, twice, in einsum's own loops: threaded
            # BLAS on these thin products doubled a 2-D sweep's time on 2 cores
            for _ in range(2):
                c = np.einsum("ij,j->i", Q[:j + 1], self.gram(r).conj()).conj()
                r -= np.einsum("i,ij->j", c, Q[:j + 1])
                diag[j] += c[j].real
            theta = _lapack.eigvalsh_tridiagonal(diag[:j + 1], off[:j], j)
            sigma = self._root(f"Ritz value {j}", theta)
            off[j] = self._root(f"residual {j}'s energy",
                                np.vdot(r, self.gram(r)).real)
            # a vanishing residual means an invariant Krylov space, on which
            # the Ritz value is exact
            if abs(sigma - sigma_old) <= 1e-9 * sigma or off[j] <= 1e-14 * theta:
                return sigma, j + 1, True
            sigma_old = sigma
            q = r / off[j]
        return sigma, m, m < LANCZOS_MAXITER


def _stationary_free(gen: Generator, x):
    """x minus its stationary part (Phi F(x), 0), in place."""
    n = gen.size
    x[:n] -= gen.kernel_damped @ gen._F(x[:n], x[n:])
    return x


def _point(gen: Generator, pencil: _Pencil, z: complex, skip: float, start):
    """(nearest_dist, norm, steps, converged) at z, from the start vector
    of both iterations.  The norm is nan and steps 0 when z lies within
    `skip` of the reduced spectrum; nearest_dist is nan, and converged
    False, when ARPACK does not converge."""
    try:
        res = _Resolvent(gen, pencil, z)
    except RuntimeError:        # B(z) exactly singular: z is an eigenvalue
        return 0.0, math.nan, 0, True
    dist = res.nearest_dist(start)
    if dist < skip:
        return dist, math.nan, 0, True
    nrm, steps, converged = res.norm(start)
    return dist, nrm, steps, converged and not math.isnan(dist)


def _prepare(gen: Generator):
    """The pencil, the skip distance 1e-12 scale, with scale =
    max(max alpha + sqrt(|P|_inf), 1) bounding every eigenvalue modulus of
    the generator, and every point's start vector, a seeded normal draw
    without its stationary part; raises SizeLimitError when
    _resolvent_bytes exceeds MAX_RESOLVENT_BYTES."""
    need = _resolvent_bytes(gen)
    if need > MAX_RESOLVENT_BYTES:
        raise SizeLimitError(
            f"resolvent refused for {gen.size} plate unknowns: its LU factor "
            f"and Lanczos basis take an estimated {need} > "
            f"{MAX_RESOLVENT_BYTES} bytes")
    bound = float(gen.alpha.max(initial=0.0)) + math.sqrt(gen.op.scale)
    x = np.random.default_rng(0).normal(size=(2, 2 * gen.size))
    return (_pencil(gen), 1e-12 * max(bound, 1.0),
            _stationary_free(gen, x[0] + 1j * x[1]))


def resolvent_norm(gen: Generator, z: complex) -> float:
    """Operator norm of (z - reduced A)^(-1) in the energy inner product.

    Lanczos on R* R through one sparse factor of B(z).  Raises ValueError
    when z sits on (or numerically at) an eigenvalue of the reduced
    generator, OverflowError when B(z) has a non-finite entry,
    NegativeEnergyError when an energy in the Lanczos iteration is negative,
    and RuntimeError when Lanczos or the nearest-eigenvalue search does not
    converge.
    """
    pencil, skip, start = _prepare(gen)
    dist, nrm, steps, converged = _point(gen, pencil, complex(z), skip, start)
    if math.isnan(nrm):
        raise ValueError(f"z = {z} is within {dist:.2e} of the reduced "
                         f"spectrum; resolvent norm undefined")
    if not converged:
        raise RuntimeError(f"Lanczos or ARPACK at z = {z} did not converge "
                           f"({steps} Lanczos steps, nearest-eigenvalue "
                           f"distance {dist}); {nrm} is only a lower bound")
    return nrm


@dataclass
class SweepResult:
    """Per-point arrays over the grid.  Skipped points carry a nan norm and
    0 iterations; converged is False where Lanczos ran out of steps, so
    that norm is a lower bound, or where ARPACK did not find the nearest
    eigenvalue, whose distance is then nan.  vacuous is True when no
    evaluated norm exceeds 1: log |R| is clipped at 0, so C = 0 then
    bounds nothing."""

    sigmas: np.ndarray
    norms: np.ndarray
    skipped: list
    C: float
    vacuous: bool
    slack: np.ndarray
    nearest_dist: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def resolvent_sweep(gen: Generator, sigma_grid) -> SweepResult:
    """Resolvent norms along the imaginary axis and the least C with
    log |R(i s)| <= C (1 + sqrt|s|) on the grid.

    Grid points within 1e-12 scale of the spectrum are skipped and flagged.
    The per-point slack C (1 + sqrt s) - log |R| is reported; the distance
    to the nearest reduced eigenvalue gives the universal lower bound
    |R| >= 1/dist for cross-checking.  Each point costs one sparse LU of
    B(i s), then two solves per Lanczos step and one per ARPACK product.
    A sigma at which B(i sigma) has a non-finite entry raises OverflowError,
    one with a negative Lanczos energy NegativeEnergyError.
    """
    sigmas = np.asarray(list(sigma_grid), dtype=float)
    pencil, skip, start = _prepare(gen)
    norms = np.full(sigmas.size, np.nan)
    dists = np.empty(sigmas.size)
    iterations = np.zeros(sigmas.size, dtype=int)
    converged = np.ones(sigmas.size, dtype=bool)
    skipped = []
    for i, s in enumerate(sigmas):
        dists[i], norms[i], iterations[i], converged[i] = _point(
            gen, pencil, 1j * s, skip, start)
        if np.isnan(norms[i]):
            skipped.append(float(s))

    ok = ~np.isnan(norms)
    ratios = np.maximum(np.log(norms[ok]), 0.0) / (1.0 + np.sqrt(np.abs(sigmas[ok])))
    C = float(ratios.max()) if ratios.size else 0.0
    slack = np.full(sigmas.size, np.nan)
    slack[ok] = C * (1.0 + np.sqrt(np.abs(sigmas[ok]))) - np.log(norms[ok])
    return SweepResult(sigmas, norms, skipped, C, not np.any(norms[ok] > 1.0),
                       slack, dists, iterations, converged)


def halfplane_check(gen: Generator) -> float:
    """Minimum real part over all the reduced generator's eigenvalues;
    positive means the spectrum stays in the open right half-plane."""
    return float(reduced_generator(gen).eigenvalues.real.min())
