"""Finite-difference bi-Laplacians on intervals and tensor rectangles.

Each boundary family is one row of `_FAMILIES`, which 1-D and 2-D
assembly both read: the layout of its unknowns, its base matrix, the
boundary rows left by eliminating two ghost layers, and its default
parameter.  Families containing the Dirichlet trace (hinged, clamped, ex4)
live on lattice nodes with the boundary values removed; the rest live on
cell centers, where the half-offset geometry makes the eliminated rows
symmetric with the plain grid inner product <u, v> = h^d sum u v.  The base
is the square of the layout's three-point Laplacian or the five-point
fourth-difference stencil (truncation order h^2).

On a rectangle the operator is B0 x I + 2 L0 x L1 + I x B1, from the 1-D
family matrix B and Laplacian L of each axis: exact where u = 0 on an edge
or B = L^2 leaves no tangential term (ex2, ex3 and ex5 stay 1-D).

Discrete boundary parameters ("a" in ex3/ex4/ex5) are real scalars, the
1-D trace of the corresponding symbol-level parameter; defaults are chosen
so the operator stays nonnegative.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import SizeLimitError, _lapack
from ._lapack import sparsetools

__all__ = [
    "Grid",
    "make_grid",
    "GridScaleError",
    "SizeLimitError",
    "IndefiniteError",
    "CSR",
    "DiscretePlateOperator",
    "assemble",
    "check_symmetry",
    "spectrum",
    "kernel",
    "catalog_families",
    "export_columnar",
    "load_damping_profile",
    "clamped_beam_beta",
]

MAX_DENSE_UNKNOWNS = 3000   # cap of DiscretePlateOperator.dense()
# cell widths h whose matrix scale h^-4 is a normal float, with room for the
# row sums, at most 64 h^-4 on a square cell
CELL_WIDTHS = ((64.0 / sys.float_info.max) ** 0.25, sys.float_info.min ** -0.25)


class GridScaleError(ValueError):
    """A cell width outside CELL_WIDTHS: h^4 under- or overflows."""

    def __init__(self, axis: int, h: float):
        super().__init__(f"cell width h = {h:.3g} on axis {axis} lies outside "
                         f"[{CELL_WIDTHS[0]:.3g}, {CELL_WIDTHS[1]:.3g}], where "
                         f"the plate matrices' scale h^-4 is a finite normal "
                         f"float")
        self.axis = axis


@dataclass(frozen=True)
class Grid:
    """Uniform grid on an interval or rectangle: n cells per axis, spacing
    h = length/n, lattice nodes including the boundary."""

    dimension: int
    n: tuple
    lengths: tuple

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if any(k < 8 for k in self.n):
            raise ValueError("need at least 8 cells per axis for the stencil width")
        if any(l <= 0 for l in self.lengths):
            raise ValueError("lengths must be positive")
        for axis, h in enumerate(self.h):
            if not CELL_WIDTHS[0] <= h <= CELL_WIDTHS[1]:
                raise GridScaleError(axis, h)

    @property
    def h(self) -> tuple:
        return tuple(l / k for l, k in zip(self.lengths, self.n))

    def axis_nodes(self, axis: int, layout: str) -> np.ndarray:
        h = self.h[axis]
        if layout == "node":
            return h * np.arange(1, self.n[axis])          # interior lattice
        return h * (np.arange(self.n[axis]) + 0.5)         # cell centers


def make_grid(n, lengths=None) -> Grid:
    if np.isscalar(n):
        n = (int(n),)
    n = tuple(int(k) for k in n)
    dimension = len(n)
    if lengths is None:
        lengths = (1.0,) * dimension
    elif np.isscalar(lengths):
        lengths = (float(lengths),) * dimension
    return Grid(dimension, n, tuple(float(l) for l in lengths))


class CSR(NamedTuple):
    """A square matrix as the three arrays of scipy.sparse's CSR format,
    with the same index dtype, column order and values as the scipy.sparse
    operations that build it would give."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def shape(self) -> tuple:
        return (self.indptr.size - 1,) * 2


@dataclass
class DiscretePlateOperator:
    grid: Grid
    bc_name: str
    csr: CSR
    nodes: np.ndarray           # (N, d) unknown coordinates
    layout: str
    weight: float               # quadrature weight h^d of the grid product
    tensor_factors: Optional[tuple] = None    # the two axes' Laplacians (CSR)

    @property
    def size(self) -> int:
        return self.csr.shape[0]

    def apply(self, u: np.ndarray) -> np.ndarray:
        Pu = np.zeros(self.size, np.result_type(self.csr.data, u))
        sparsetools.csr_matvec(*self.csr.shape, *self.csr, u, Pu)
        return Pu

    def inner(self, u, v) -> float:
        return self.weight * float(np.vdot(v, u).real)

    def norm(self, u) -> float:
        return math.sqrt(max(self.inner(u, u), 0.0))

    @property
    def scale(self) -> float:
        """||M||_inf, the largest absolute row sum.  The first call sorts
        each row's columns in place, as scipy.sparse's abs() does to its
        operand: every later product then sums a row in column order."""
        indptr, _, data = _sorted(self.csr)
        rows = np.flatnonzero(np.diff(indptr))
        return float(np.add.reduceat(np.abs(data), indptr[rows]).max(initial=0.0))

    def dense(self) -> np.ndarray:
        """The matrix as an array, for the dense O(N^3) paths only."""
        if self.size > MAX_DENSE_UNKNOWNS:
            raise SizeLimitError(
                f"dense matrix refused for {self.size} > {MAX_DENSE_UNKNOWNS} plate "
                f"unknowns: eigenvectors of an operator without tensor factors "
                f"and the generator reduction are dense O(N^3); spectrum "
                f"eigenvalues, tensor-factor eigenvectors, time stepping and "
                f"the resolvent are banded or sparse")
        return _dense(self.csr)


# ---------------------------------------------------------------------------
# CSR arrays from the scipy.sparse kernels that scipy's own operations call,
# so the index dtype, column order and summation order are scipy's
# ---------------------------------------------------------------------------

def _dense(A: CSR) -> np.ndarray:
    out = np.zeros(A.shape)
    sparsetools.csr_todense(*A.shape, *A, out)
    return out


def _rows(A: CSR) -> np.ndarray:
    return np.repeat(np.arange(A.shape[0], dtype=A.indices.dtype), np.diff(A.indptr))


def _sorted(A: CSR) -> CSR:
    """A with each row's columns ascending, sorted in place."""
    sparsetools.csr_sort_indices(A.shape[0], *A)
    return A


def _csr_out(kernel, n: int, nnz: int, *args) -> CSR:
    """The n x n CSR matrix of at most nnz entries that kernel(n, n, *args,
    indptr, indices, data) writes."""
    out = (np.empty(n + 1, np.int32), np.empty(nnz, np.int32), np.empty(nnz))
    kernel(n, n, *args, *out)
    return CSR(out[0], out[1][:out[0][-1]], out[2][:out[0][-1]])


def _diags(diagonals: dict, n: int) -> CSR:
    """sp.diags(values, offsets, shape=(n, n), format="csr") for diagonals
    {offset: a scalar, or an array of its n - |offset| entries}."""
    offsets = sorted(diagonals)
    table = np.zeros((n, len(offsets)))
    for c, k in enumerate(offsets):
        table[max(0, -k):n - max(0, k), c] = diagonals[k]
    keep = table != 0                   # dia_tocsr drops explicit zeros
    cols = np.arange(n)[:, None] + np.array(offsets)
    return CSR(np.append(0, np.cumsum(keep.sum(axis=1))).astype(np.int32),
               cols[keep].astype(np.int32), table[keep])


def _kron(A: CSR, B: CSR) -> CSR:
    """sp.kron(A, B, format="csr"): the products in A's then B's entry
    order, through coo_tocsr, then sorted."""
    m, nnz = B.shape[0], A.data.size * B.data.size
    return _sorted(_csr_out(sparsetools.coo_tocsr, A.shape[0] * m, nnz, nnz,
                            (_rows(A)[:, None] * m + _rows(B)).ravel(),
                            (A.indices[:, None] * m + B.indices).ravel(),
                            (A.data[:, None] * B.data).ravel()))


def _add(A: CSR, B: CSR) -> CSR:
    return _csr_out(sparsetools.csr_plus_csr, A.shape[0],
                    A.data.size + B.data.size, *A, *B)


# ---------------------------------------------------------------------------
# one-dimensional building blocks
# ---------------------------------------------------------------------------

def _dirichlet_laplacian(n: int, h: float) -> CSR:
    """-u'' on the n - 1 interior nodes with u = 0 at both ends."""
    main = np.full(n - 1, 2.0 / h ** 2)
    off = np.full(n - 2, -1.0 / h ** 2)
    return _diags({-1: off, 0: main, 1: off}, n - 1)


def _neumann_laplacian(n: int, h: float) -> CSR:
    """-u'' on n cell centers with zero-flux ends (graph Laplacian form)."""
    main = np.full(n, 2.0 / h ** 2)
    main[[0, -1]] = 1.0 / h ** 2
    off = np.full(n - 1, -1.0 / h ** 2)
    return _diags({-1: off, 0: main, 1: off}, n)


_LAPLACIANS = {"node": _dirichlet_laplacian, "cell": _neumann_laplacian}


@dataclass(frozen=True)
class _Family:
    """One row of the family table: unknowns on lattice nodes or cell
    centers (layout); a base matrix that is the square L^2 of the layout's
    Laplacian (square) or the five-point stencil [1 -4 6 -4 1]/h^4; the
    2 x 2 eliminated ghost rows corner(a, h), added at the first two
    unknowns and mirrored at the last two; the default parameter a; why a
    family off rectangles is refused there, when the reason is not a
    tangential term that the Kronecker sum omits (no_rectangle)."""

    layout: str
    square: bool
    corner: Optional[Callable] = None
    default_a: float = 0.0
    no_rectangle: Optional[str] = None

    @property
    def laplacian_square(self) -> bool:   # B = L^2: the 2-D tensor factors
        return self.square and self.corner is None

    @property
    def on_rectangles(self) -> bool:      # u = 0 on each edge, or B = L^2
        return self.layout == "node" or self.laplacian_square


def _ex4_corner(a, h):
    # hinged ghosts with a first-order tilt: u_-1 = -c u_1,
    # c = (1 - a h/2)/(1 + a h/2); only the diagonal entry moves
    c = (1.0 - a * h / 2.0) / (1.0 + a * h / 2.0)
    return ((-c / h ** 4, 0.0), (0.0, 0.0))


def _ex5_corner(a, h):
    # tilted second-derivative condition with free third derivative;
    # beta = 1/(1 + a h) keeps the eliminated rows symmetric
    beta = 1.0 / (1.0 + a * h)
    return (((3.0 - beta * (2.0 + a * h) - 6.0) / h ** 4, (beta - 3.0 + 4.0) / h ** 4),
            (beta * (2.0 + a * h) / h ** 4, -beta / h ** 4))


_FAMILIES = {
    "hinged": _Family("node", True),
    # ghosts u_0 = 0, u_-1 = u_1
    "clamped": _Family("node", False, lambda a, h: ((1.0 / h ** 4, 0.0), (0.0, 0.0))),
    "ex4_id_dn2_A": _Family("node", False, _ex4_corner, default_a=1.0),
    "neumann_pair": _Family("cell", True),
    # free end: second and third normal derivatives vanish
    "ex2_dn2_dn3": _Family("cell", False, lambda a, h: (
        (-5.0 / h ** 4, 2.0 / h ** 4), (2.0 / h ** 4, -1.0 / h ** 4)),
        no_rectangle="the ex2_dn2_dn3 symbols are the free edge with Poisson "
                     "ratio nu = 2, whose energy is unbounded below on a "
                     "rectangle (u = xy gives -2|Omega|), so no 2-D "
                     "discretization of them is a nonnegative plate operator"),
    # zero slope with a third-derivative load: L^2 plus a boundary diagonal -a/h
    "ex3_dn_dn3_A": _Family("cell", True, lambda a, h: ((-a / h, 0.0), (0.0, 0.0)),
                            default_a=-1.0),
    "ex5_dn2A_dn3": _Family("cell", False, _ex5_corner, default_a=1.0),
}


def catalog_families():
    return tuple(_FAMILIES)


def _axis_matrices(family: _Family, n: int, h: float, a: float):
    """(B, L) on one axis of n cells of width h: the 1-D family matrix and
    the Laplacian of the family's layout."""
    L = _LAPLACIANS[family.layout](n, h)
    m = L.shape[0]
    if family.square:                     # L @ L, columns left unsorted
        B = _csr_out(sparsetools.csr_matmat, m, sparsetools.csr_matmat_maxnnz(
            m, m, *L[:2], *L[:2]), *L, *L)
    else:
        stencil = np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / h ** 4
        B = _diags(dict(zip(range(-2, 3), stencil)), m)
    if family.corner is not None:
        B = _sorted(B)
        for (i, j), v in np.ndenumerate(family.corner(a, h)):
            for r, c in ((i, j), (m - 1 - i, m - 1 - j)):
                B.data[B.indptr[r] + np.flatnonzero(
                    B.indices[B.indptr[r]:B.indptr[r + 1]] == c)[0]] += v
    return B, L


def assemble(grid: Grid, bc_pair, params: Optional[dict] = None
             ) -> DiscretePlateOperator:
    """Constrained bi-Laplace matrix on the unknowns determined by the
    boundary family.

    bc_pair is a catalog name.  Rectangles take hinged, clamped,
    ex4_id_dn2_A and neumann_pair.
    """
    params = dict(params or {})
    name = bc_pair
    if name == "degenerate_equal":
        raise KeyError("degenerate_equal is an analysis fixture; it does not "
                       "determine a well-posed discretization")
    if name not in _FAMILIES:
        raise KeyError(f"unknown boundary pair '{name}'; "
                       f"families: {catalog_families()}")
    family = _FAMILIES[name]
    a = float(params.get("a", family.default_a))
    if grid.dimension == 2 and not family.on_rectangles:
        covered = [k for k, f in _FAMILIES.items() if f.on_rectangles]
        reason = family.no_rectangle or (
            f"the {name} boundary operators carry tangential derivatives, "
            f"which a Kronecker sum of 1-D matrices omits")
        raise NotImplementedError(
            f"2-D assembly covers {', '.join(covered[:-1])} and {covered[-1]}; "
            f"{reason}")
    axes = [_axis_matrices(family, k, h, a) for k, h in zip(grid.n, grid.h)]
    if grid.dimension == 1:
        M, factors = axes[0][0], None
    else:
        (B0, L0), (B1, L1) = axes
        I0, I1 = (_diags({0: 1.0}, L.shape[0]) for L in (L0, L1))
        L01 = _kron(L0, L1)
        M = _add(_add(_kron(B0, I1), L01._replace(data=2.0 * L01.data)),
                 _kron(I0, B1))
        factors = (L0, L1) if family.laplacian_square else None
    coords = np.meshgrid(*(grid.axis_nodes(ax, family.layout)
                           for ax in range(grid.dimension)), indexing="ij")
    return DiscretePlateOperator(
        grid, name, M, np.column_stack([c.ravel() for c in coords]),
        family.layout, weight=math.prod(grid.h), tensor_factors=factors)


# ---------------------------------------------------------------------------
# spectral machinery
# ---------------------------------------------------------------------------

def check_symmetry(op: DiscretePlateOperator) -> float:
    """max over 20 random u, v of |<Mu,v> - <u,Mv>| / (|u| |v| ||M||)."""
    rng = np.random.default_rng(0)
    scale = op.scale
    worst = 0.0
    for _ in range(20):
        u = rng.normal(size=op.size)
        v = rng.normal(size=op.size)
        lhs = op.inner(op.apply(u), v)
        rhs = op.inner(u, op.apply(v))
        worst = max(worst, abs(lhs - rhs)
                    / (op.norm(u) * op.norm(v) * scale))
    return worst


def lower_band(matrix) -> np.ndarray:
    """LAPACK lower band storage ab[k, j] = M[j + k, j] of a symmetric CSR
    matrix (a CSR or a scipy.sparse.csr_matrix)."""
    row, col = _rows(matrix), matrix.indices
    low = col <= row
    row, col = row[low], col[low]
    ab = np.zeros((int((row - col).max()) + 1, matrix.shape[0]))
    np.add.at(ab, (row - col, col), matrix.data[low])
    return ab


def _tensor_pairs(op: DiscretePlateOperator, count: int):
    """Lowest `count` eigenpairs of (L0 x I + I x L1)^2 from those of the two
    factors, forming only the selected Kronecker columns."""
    (lam0, V0), (lam1, V1) = (_lapack.eigh(_dense(L)) for L in op.tensor_factors)
    sums = (lam0[:, None] + lam1[None, :]) ** 2
    # a stable sort breaks ties by factor index (i, j)
    i, j = np.unravel_index(np.argsort(sums, axis=None, kind="stable")[:count],
                            sums.shape)
    cols = (V0[:, None, i] * V1[None, :, j]).reshape(op.size, count)
    return sums[i, j], cols / math.sqrt(op.weight)


def spectrum(op: DiscretePlateOperator, count: int, vectors: bool = True):
    """Lowest eigenpairs, ascending, grid-orthonormal eigenvectors; with
    vectors=False, (eigenvalues, None) from the band or the tensor factors.
    Eigenvectors of an operator without tensor factors come from the dense
    eigh of the whole matrix: the decay experiments' initial data depend on
    its LAPACK signs."""
    if count > op.size:
        raise ValueError(f"requested {count} eigenpairs of a size-{op.size} operator")
    if op.tensor_factors is not None:
        mu, V = _tensor_pairs(op, count)
        return mu, V if vectors else None
    if not vectors:
        mu = _lapack.eigvals_banded(lower_band(op.csr), max(count, 1))
        return mu[:count], None
    mu, V = _lapack.eigh(op.dense())
    return mu[:count], V[:, :count] / math.sqrt(op.weight)


# accepted |M c| / (||M|| |c|) of a closed-form kernel candidate c: true kernel
# vectors leave 0.4 eps at most up to n = 20,000; ex3's constant 2,250 eps at 5,000
KERNEL_RESIDUAL = 4 * np.finfo(float).eps


class IndefiniteError(ValueError):
    """An operator without a Cholesky factor once its closed-form stationary
    modes are pinned: no plate energy is defined for it."""


def kernel(op: DiscretePlateOperator) -> np.ndarray:
    """Grid-orthonormal basis of the stationary space, one (N, nk) array.

    The candidates are the closed forms, constants and in 1-D affine
    functions, accepted when |M c| <= KERNEL_RESIDUAL ||M|| |c|.  With one
    unknown pinned per accepted candidate (0, then N - 1: no combination of
    1 and x vanishes on both), a banded Cholesky of the rest of M that
    completes proves it positive definite, so by Cauchy interlacing the
    candidates span the kernel.  IndefiniteError when it does not."""
    cands = [np.ones(op.size)]
    if op.grid.dimension == 1:
        cands.append(op.nodes[:, 0].copy())
    tol = KERNEL_RESIDUAL * op.scale
    good = [c for c in cands if np.abs(op.apply(c)).max() <= tol * np.abs(c).max()]
    # dropping the first and last columns of the band drops those unknowns:
    # LAPACK reads no entry past the last row
    rest = lower_band(op.csr)[:, min(len(good), 1):op.size - (len(good) > 1)]
    factor, info = _lapack.flapack.dpbtrf(rest, lower=1)
    if info:
        raise IndefiniteError(
            f"the operator is indefinite: with {len(good)} closed-form mode(s) "
            f"pinned, Cholesky pivot {info} is {factor[0, info - 1]:.6g}, "
            f"against the roundoff eps ||M|| = {np.finfo(float).eps * op.scale:.6g}")
    B = np.column_stack(good) if good else np.zeros((op.size, 0))
    for k in range(B.shape[1]):     # grid-orthonormalize
        for j in range(k):
            B[:, k] -= op.inner(B[:, k], B[:, j]) * B[:, j]
        B[:, k] /= op.norm(B[:, k])
    return B


def clamped_beam_beta(k: int = 1) -> float:
    """k-th positive root of cos(b) cosh(b) = 1 by bisection; the clamped
    beam eigenvalues are beta^4 on the unit interval."""
    f = lambda b: math.cos(b) * math.cosh(b) - 1.0
    # roots interlace near (k + 1/2) pi for k >= 1
    lo = (k + 0.25) * math.pi
    hi = (k + 0.75) * math.pi
    if f(lo) * f(hi) > 0:
        lo = k * math.pi
        hi = (k + 1) * math.pi
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(hi - lo) < 1e-13:
            break
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# external interfaces
# ---------------------------------------------------------------------------

def export_columnar(op: DiscretePlateOperator, directory, eig_count: int = 0):
    """Write node coordinates, matrix triplets, and optionally eigenvalues
    as plain columnar text files."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    np.savetxt(out / "nodes.txt", np.column_stack([np.arange(op.size), op.nodes]),
               fmt=["%d"] + ["%.17g"] * op.nodes.shape[1],
               header="index coordinates")
    row, col, data = _rows(op.csr), op.csr.indices, op.csr.data
    order = np.lexsort((col, row))
    np.savetxt(out / "matrix.txt", np.column_stack(
        [row[order], col[order], data[order]]),
        fmt=["%d", "%d", "%.17g"], header="row col value")
    if eig_count:
        mu, _ = spectrum(op, eig_count, vectors=False)
        np.savetxt(out / "eigenvalues.txt", np.column_stack(
            [np.arange(eig_count), mu]), fmt=["%d", "%.17g"],
            header="index eigenvalue")


def load_damping_profile(path, nodes: np.ndarray) -> np.ndarray:
    """Damping values on the operator's unknowns from a sampled-values file
    (columns: coordinates then value; '#' comments).  1-D profiles are
    linearly interpolated and their rows must span every node; higher
    dimensions require one row per node, each within a quarter of the
    smallest cell side of its node (Euclidean distance)."""
    raw = np.loadtxt(path, ndmin=2)
    d = nodes.shape[1]
    if raw.shape[1] != d + 1:
        raise ValueError(f"profile file has {raw.shape[1]} columns, "
                         f"expected {d + 1}")
    if d == 1:
        x = nodes[:, 0]
        if not raw[:, 0].min() <= x.min() <= x.max() <= raw[:, 0].max():
            raise ValueError(f"1-D profile rows must span every node, "
                             f"[{x.min():.6g}, {x.max():.6g}]")
        order = np.argsort(raw[:, 0])
        return np.interp(x, raw[order, 0], raw[order, 1])
    if raw.shape[0] != nodes.shape[0]:
        raise ValueError("2-D profiles must supply one row per grid unknown")
    # a quarter of the smallest cell side: the nodes' balls are disjoint, so
    # each row is matched at most once, and exactly once when every node is.
    # The nodes are the lattice of their axes' coordinates, in 'ij' order:
    # the one node a row can match rounds each of its coordinates
    axes = [np.unique(nodes[:, ax]) for ax in range(d)]
    tol = min(np.diff(x).min() for x in axes) / 4
    node = np.ravel_multi_index([np.clip(np.rint((raw[:, ax] - x[0]) / (x[1] - x[0])),
                                         0, x.size - 1).astype(int)
                                 for ax, x in enumerate(axes)], [x.size for x in axes])
    hit = np.linalg.norm(raw[:, :d] - nodes[node], axis=1) <= tol
    count = np.bincount(node[hit], minlength=nodes.shape[0])
    if np.any(count != 1):
        i = int(np.argmax(count != 1))
        raise ValueError(f"node {tuple(nodes[i].tolist())} has "
                         f"{count[i]} profile rows within "
                         f"a quarter cell ({tol:.6g}); each node needs one")
    alpha = np.empty(nodes.shape[0])
    alpha[node[hit]] = raw[hit, d]
    return alpha
