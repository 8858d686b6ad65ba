"""scipy's compiled LAPACK, CSR, SuperLU and ARPACK kernels, without scipy's
package code.

`import scipy.linalg` spends about 0.17 s cloning numpy's namespace, and
`import scipy.sparse.linalg` more, before the plate side and the resolvent
can call a few compiled routines.  This module loads scipy's extension
modules by file, so no scipy __init__ runs, and registers each in
sys.modules, where a later `import scipy.linalg`, `scipy.sparse` or
`scipy.sparse.linalg` reuses it: scipy/linalg/_flapack (LAPACK, dstebz
included) and scipy/sparse/_sparsetools (the CSR kernels) on import, and
scipy/sparse/linalg's _superlu (SuperLU's gstrf) and _arpacklib (ARPACK's
znaupd and zneupd) at the first factor or eigenvalue the resolvent asks
for.  That file layout is scipy's private one: where the load fails, a
plain import of the same module replaces it.  The wrappers pass their
scipy counterparts' arguments, so their results are bit-identical, and
keep scipy's checks: a non-finite input raises ValueError, a nonzero info
an error naming the routine.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np


def _load(name: str):
    if name in sys.modules:
        return sys.modules[name]
    _, *packages, stem = name.split(".")
    try:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        path = next(p for p in (os.path.join(root, *packages, stem + suffix)
                                for suffix in EXTENSION_SUFFIXES)
                    if os.path.isfile(p))
        spec = importlib.util.spec_from_file_location(
            name, path, loader=ExtensionFileLoader(name, path))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (AttributeError, ImportError, OSError, StopIteration):
        return importlib.import_module(name)
    sys.modules[name] = module
    return module


flapack = _load("scipy.linalg._flapack")
sparsetools = _load("scipy.sparse._sparsetools")


def _finite(a) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def _checked(routine: str, out: tuple, failure: str):
    """The outputs of a LAPACK call but its last, info."""
    *out, info = out
    if info < 0:
        raise ValueError(f"{routine}: illegal value in argument {-info}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine}: {failure.format(info)}")
    return out


def eigh(a: np.ndarray, vectors: bool = True):
    """scipy.linalg.eigh(a), or eigvalsh(a) with vectors=False: dsyevr."""
    if _finite(a).size == 0:
        return (np.empty(0), np.empty((0, 0))) if vectors else np.empty(0)
    lwork, liwork = _checked("dsyevr_lwork", flapack.dsyevr_lwork(
        a.shape[0], lower=1), "workspace query failed ({})")
    w, v, _, _ = _checked("dsyevr", flapack.dsyevr(
        a, compute_v=int(vectors), lower=1, lwork=int(lwork),
        liwork=int(liwork)), "internal error ({})")
    return (w, v) if vectors else w


def cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^-1 b for the Cholesky factor L L^T = a, as scipy.linalg's
    solve_triangular(cholesky(a, lower=True), b, lower=True): dpotrf, dtrtrs."""
    if _finite(a).size == 0:
        return np.empty_like(b)
    c, = _checked("dpotrf", flapack.dpotrf(a, lower=1, clean=1),
                  "leading minor {} is not positive definite")
    x, = _checked("dtrtrs", flapack.dtrtrs(c, _finite(b), lower=1),
                  "singular factor at diagonal {}")
    return x


def cholesky_banded(ab: np.ndarray) -> np.ndarray:
    """scipy.linalg.cholesky_banded(ab, lower=True): dpbtrf."""
    c, = _checked("dpbtrf", flapack.dpbtrf(_finite(ab), lower=1),
                  "leading minor {} is not positive definite")
    return c


def eigvals_banded(ab: np.ndarray, count: int) -> np.ndarray:
    """The `count` lowest eigenvalues of a lower band, as eig_banded(ab,
    lower=True, eigvals_only=True, select="i", select_range=(0, count - 1)):
    dsbevx with its mmax = 1 and abstol = 2 dlamch('s')."""
    w, _, m, _ = _checked("dsbevx", flapack.dsbevx(
        _finite(ab), 0.0, 1.0, 1, count, compute_v=0, mmax=1, range=2,
        lower=1, overwrite_ab=0, abstol=2 * flapack.dlamch("s")),
        "{} eigenvalues did not converge")
    return w[:m]


def eigvalsh_tridiagonal(d: np.ndarray, e: np.ndarray, i: int):
    """The i-th lowest eigenvalue of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, as scipy.linalg's eigvalsh_tridiagonal(
    d, e, select="i", select_range=(i, i))[0]: dstebz at tolerance 0, or
    d[0] itself when the matrix is 1 x 1."""
    _finite(e)
    if _finite(d).size == 1:
        return d[0]
    _, w, _, _ = _checked("dstebz", flapack.dstebz(
        d, e, 2, 0.0, 1.0, i + 1, i + 1, 0.0, "E"),
        "eigenvalues failed to converge (info {})")
    return w[0]


def splu(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray):
    """SuperLU factor of the square CSC matrix (data, indices, indptr), as
    scipy.sparse.linalg.splu(A, permc_spec="MMD_AT_PLUS_A") of its canonical
    csc_matrix: gstrf.  The factor's solve(b, trans) is scipy's; reading
    its L or U raises, as no sparse-matrix constructor is given.
    RuntimeError when the matrix is exactly singular."""
    superlu = _load("scipy.sparse.linalg._dsolve._superlu")
    return superlu.gstrf(
        indptr.size - 1, data.size, data, indices, indptr,
        csc_construct_func=None, ilu=False,
        options=dict(DiagPivotThresh=None, ColPerm="MMD_AT_PLUS_A",
                     PanelSize=None, Relax=None))


# the reverse-communication state of scipy's ARPACK wrappers, all zero
_ARPACK_STATE = {
    **dict.fromkeys(("getv0_rnorm0", "aitr_betaj", "aitr_rnorm1",
                     "aitr_wnorm", "aup2_rnorm"), 0.0),
    **dict.fromkeys((
        "ido which bmat info iter maxiter mode n nconv ncv nev np shift "
        "getv0_first getv0_iter getv0_itry getv0_orth aitr_iter aitr_j "
        "aitr_orth1 aitr_orth2 aitr_restart aitr_step3 aitr_step4 aitr_ierr "
        "aup2_initv aup2_iter aup2_getv0 aup2_cnorm aup2_kplusp aup2_nev "
        "aup2_nev0 aup2_np0 aup2_numcnv aup2_update aup2_ushift").split(), 0)}


def eig_largest(matvec, v0: np.ndarray, ncv: int, tol: float, maxiter: int):
    """The eigenvalue of largest modulus of the complex operator x -> matvec(x)
    on vectors of v0's length, as scipy.sparse.linalg's eigs(A, k=1,
    which="LM", tol=tol, ncv=ncv, v0=v0, maxiter=maxiter,
    return_eigenvectors=False)[0]: znaupd from v0 in scipy's state dict,
    then zneupd.  nan when znaupd stops at maxiter restarts, where eigs
    raises ArpackNoConvergence.  A request for a random restart vector,
    which eigs draws from fresh OS entropy, raises instead."""
    arpack = _load("scipy.sparse.linalg._eigen.arpack._arpacklib")
    n = v0.size
    state = {**_ARPACK_STATE, "tol": tol, "info": 1, "maxiter": maxiter,
             "mode": 1, "n": n, "ncv": ncv, "nev": 1, "shift": 1}
    resid = np.array(v0, dtype=complex)     # znaupd overwrites its start
    v, ipntr = np.zeros((n, ncv), complex), np.zeros(14, np.int32)
    workd, workl = np.zeros(3 * n, complex), np.zeros(3 * ncv * (ncv + 2),
                                                       complex)
    rwork = np.zeros(ncv)
    while True:
        arpack.znaupd_wrap(state, resid, v, ipntr, workd, workl, rwork)
        if state["ido"] == 99:
            break
        if state["ido"] not in (1, 5):
            raise np.linalg.LinAlgError(
                f"znaupd: request ido = {state['ido']} is not served")
        workd[ipntr[1]:ipntr[1] + n] = matvec(workd[ipntr[0]:ipntr[0] + n])
    if state["info"] == 1:
        return complex("nan")
    if state["info"]:
        raise np.linalg.LinAlgError(f"znaupd: ARPACK error {state['info']}")
    d = np.zeros(1, complex)
    arpack.zneupd_wrap(state, 0, 0, np.zeros(ncv, np.int32), d,
                       np.zeros((n, 1), complex, order="F"), 0,
                       np.zeros(3 * ncv, complex), resid, v, ipntr, workd,
                       workl, rwork)
    if state["info"]:
        raise np.linalg.LinAlgError(f"zneupd: ARPACK error {state['info']}")
    return d[0]
