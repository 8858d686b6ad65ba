"""scipy's compiled LAPACK and CSR kernels, without scipy's package code.

`import scipy.linalg` spends about 0.17 s cloning numpy's namespace before
the plate side can call a few compiled routines.  This module loads
scipy/linalg/_flapack and scipy/sparse/_sparsetools by file, so no scipy
__init__ runs, and registers each in sys.modules, where a later
`import scipy.linalg` or `scipy.sparse` reuses it.  That file layout is
scipy's private one: where the load fails, a plain import of the same two
modules replaces it.  The wrappers pass their scipy.linalg counterparts'
arguments, so their results are bit-identical, and keep scipy's checks: a
non-finite input raises ValueError, a nonzero info an error naming the
routine.
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
    _, package, stem = name.split(".")
    try:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        path = next(p for p in (os.path.join(root, package, stem + suffix)
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
