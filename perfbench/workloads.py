"""The benchmark's workloads: the platelab CLI commands each one runs, and
the checks applied to each command's artifact.

The checks do not trust the package's own verdicts.  They test properties
that hold for any correct implementation: the spectral-radius lower bound
of a resolvent norm, energy monotonicity and the dissipation ledger of a
trajectory, closed-form eigenvalues, and reference constants recorded when the
benchmark was written.  A check returns the problems it found and the work units
the artifact shows were completed.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EPS = 2.220446049250313e-16
# first two positive roots of cos(b) cosh(b) = 1: clamped (and free) beam
# eigenvalues on the unit interval are beta^4
BETA = (4.730040744862704, 7.853204624095838)
# a (1, m) hinged mode on the unit square has eigenvalue pi^4 (1 + m^2)^2
HINGED_SQUARE = (4.0 * math.pi ** 4, 25.0 * math.pi ** 4)

SWEEP_ALPHA = "bump:0.2:0.7:4.0"
DECAY_ALPHA = "bump:0.3:0.5:1.0"
PSI = "parabola:0.1"
GAMMA0_REF = 11.5          # gamma-search result (a dyadic, so exact)
# least C with log|R(i s)| <= C (1 + sqrt s); the grid peak is the point
# s = 121 next to the eigenvalue 0.88 + 120.85i, inside both grids below
SWEEP_C_REF = 6.5703157083e-4
SWEEP_C_RTOL = 1e-5        # a changed norm algorithm may move the 10th digit
DECAY_C_RTOL = 1e-6

LS_FAMILIES = ("hinged", "clamped", "neumann_pair", "ex2_dn2_dn3",
               "ex3_dn_dn3_A", "ex4_id_dn2_A", "ex5_dn2A_dn3")

# Sizes per scale.  "full" is what the benchmark measures; "small" runs the
# same commands in about a second each, for the tests and for per-layer
# probes of layers a workload does not use.
SIZES = {
    "full": {
        "sigma_grid": "110:125:0.5",     # 31 points at criterion 9's spacing
        "sim_T": 2500.0, "fit_T": 5000.0, "fit_C_ref": 0.11801299622472308,
        "plate_n": 1200, "plate_2d": (64, 48),
        "ls_samples": 300, "region_n": 200,
    },
    "small": {
        "sigma_grid": "118:124:0.5",
        "sim_T": 200.0, "fit_T": 400.0, "fit_C_ref": 0.10968940066713229,
        "plate_n": 200, "plate_2d": (16, 12),
        "ls_samples": 50, "region_n": 40,
    },
}


@dataclass
class Op:
    """One CLI command with the exit code it must return and the check of
    its artifact (written to the file named by `out`)."""

    args: list
    out: str
    expect_exit: int
    check: Callable[[Path], tuple]


def check_op(op: Op, code: int, out: Path):
    """Problems with one command's exit code and artifact, and the work
    units it completed.  The artifact is removed so no later run reads it."""
    try:
        if code != op.expect_exit:
            problems, work = [f"exit {code}, expected {op.expect_exit}"], 0
        else:
            try:
                problems, work = op.check(out)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems, work = [f"unreadable artifact: {exc!r}"], 0
    finally:
        with contextlib.suppress(FileNotFoundError):
            out.unlink()
    return [f"{' '.join(op.args)}: {p}" for p in problems], work


def work_dir() -> Path:
    """Scratch space for a run's artifacts and captured output, inside the
    checkout."""
    path = Path(__file__).resolve().parent / "_work"
    path.mkdir(exist_ok=True)
    return path


def read_csv(path: Path):
    """Metadata dict and float rows of a platelab CSV artifact."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    meta = {}
    for ln in lines:
        if ln.startswith("#"):
            key, _, val = ln[1:].partition("=")
            meta[key.strip()] = val.strip()
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    return meta, [[float(x) for x in ln.split(",")] for ln in body[1:]]


def read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def grid_points(spec: str) -> int:
    lo, hi, step = (float(p) for p in spec.split(":"))
    return int(round((hi - lo) / step)) + 1


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_resolvent(npoints: int):
    def check(path):
        meta, rows = read_csv(path)
        problems = []
        if len(rows) != npoints:
            problems.append(f"{len(rows)} sigma rows, expected {npoints}")
        if meta.get("skipped") != "0":
            problems.append(f"skipped = {meta.get('skipped')}, expected 0")
        for sigma, norm, _, dist in rows:
            # |R(z)| >= 1/dist(z, spectrum) for any matrix and any norm
            if not (math.isfinite(norm) and norm * dist >= 1.0 - 1e-9):
                problems.append(f"norm {norm!r} at sigma {sigma} breaks "
                                f"norm * dist >= 1 (dist {dist!r})")
        c = float(meta.get("C", "nan"))
        if not abs(c - SWEEP_C_REF) <= SWEEP_C_RTOL * SWEEP_C_REF:
            problems.append(f"C = {c!r}, reference {SWEEP_C_REF}")
        return problems, len(rows)
    return check


def check_energy_log(T: float, dt: float):
    nsteps = int(round(T / dt))

    def check(path):
        _, rows = read_csv(path)
        problems = []
        if len(rows) != nsteps + 1:
            problems.append(f"{len(rows)} rows, expected {nsteps + 1}")
            return problems, 0
        e = [r[1] for r in rows]
        e0 = e[0]
        if not e0 > 0:
            return [f"initial energy {e0!r} not positive"], 0
        rises = [k for k in range(nsteps) if e[k + 1] - e[k] > 1e-12 * e0]
        if rises:
            problems.append(f"energy rises at step {rises[0] + 1}")
        dissipated = sum(r[2] for r in rows) * dt
        gap = abs(dissipated - (e0 - e[-1])) / e0
        if not gap <= 1e-6:
            problems.append(f"dissipation ledger gap {gap:.3e} > 1e-6")
        return problems, nsteps
    return check


def check_decay_fit(T: float, dt: float, c_ref: float):
    def check(path):
        rec = read_json(path)
        problems = []
        if not abs(rec["C"] - c_ref) <= DECAY_C_RTOL * c_ref:
            problems.append(f"decay constant {rec['C']!r}, reference {c_ref}")
        if not 0 < rec["final_energy"] < math.inf:
            problems.append(f"final energy {rec['final_energy']!r}")
        return problems, int(round(T / dt))
    return check


def _eig_tol(ref: float, h: float, norm_bound: float) -> float:
    """Second-order discretization error plus eigensolver roundoff."""
    return 30.0 * h * h * ref + 10.0 * EPS * norm_bound


def check_spectrum_1d(family: str, n: int):
    h = 1.0 / n
    norm_bound = 16.0 / h ** 4

    def check(path):
        _, rows = read_csv(path)
        mu = [r[1] for r in rows]
        problems = []
        if len(mu) != 5 or any(b < a for a, b in zip(mu, mu[1:])):
            return [f"expected 5 ascending eigenvalues, got {mu}"], 0
        if family == "clamped":
            pairs = list(zip(mu[:2], (b ** 4 for b in BETA)))
        elif family == "ex2_dn2_dn3":
            # free beam: affine kernel (two zero modes), then the clamped values
            pairs = list(zip(mu[:4], (0.0, 0.0) + tuple(b ** 4 for b in BETA)))
        else:
            pairs = [(mu[0], 0.0)] if mu[0] < 0 else []
        for got, ref in pairs:
            if not abs(got - ref) <= _eig_tol(ref, h, norm_bound):
                problems.append(f"{family}: eigenvalue {got!r}, closed form {ref!r}")
        unknowns = n - 1 if family == "clamped" else n
        return problems, unknowns
    return check


def check_spectrum_hinged_2d(nx: int, ny: int):
    h = 1.0 / min(nx, ny)

    def check(path):
        _, rows = read_csv(path)
        mu = [r[1] for r in rows]
        problems = []
        for got, ref in zip(mu[:2], HINGED_SQUARE):
            if not abs(got - ref) <= 20.0 * h * h * ref:
                problems.append(f"hinged square: eigenvalue {got!r}, "
                                f"closed form {ref!r}")
        return problems, (nx - 1) * (ny - 1)
    return check


def check_ls(samples: int):
    def check(path):
        rep = read_json(path)["conjugated"]
        problems = []
        if rep["counterexample"] is not None:
            problems.append(f"counterexample {rep['counterexample']}")
        if rep["passed"] + rep["marginal_skipped"] != samples:
            problems.append(f"passed {rep['passed']} + marginal "
                            f"{rep['marginal_skipped']} != {samples}")
        return problems, rep["passed"] + rep["marginal_skipped"]
    return check


def check_ls_negative(path):
    rep = read_json(path)["conjugated"]
    if rep["counterexample"] is None:
        return ["degenerate_equal: no counterexample reported"], 0
    return [], rep["passed"] + rep["marginal_skipped"] + 1


def check_gamma_search(path):
    rec = read_json(path)
    if rec["gamma0"] != GAMMA0_REF:
        return [f"gamma0 = {rec['gamma0']!r}, reference {GAMMA0_REF}"], 0
    return [], 0


def check_subell(path):
    rec = read_json(path)
    factors = [rec["factor_1"], rec["factor_2"]]
    nsamples = sum(f["characteristic_samples"] for f in factors)
    problems = []
    # an empty characteristic sample is a vacuous pass that times no
    # bracket work (margin +inf)
    if nsamples == 0:
        problems.append("vacuous: no characteristic samples")
    for j, f in enumerate(factors, 1):
        if f["characteristic_samples"] and not f["margin"] > 0:
            problems.append(f"factor {j} margin {f['margin']!r} not positive")
    return problems, 0


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def sweep_ops(seed: int, size: dict):
    grid = size["sigma_grid"]
    return [Op(["resolvent", "--bc", "clamped", "--n", "200", "--alpha",
                SWEEP_ALPHA, "--sigma-grid", grid], "res.csv", 0,
               check_resolvent(grid_points(grid)))]


def decay_ops(seed: int, size: dict):
    dt = 0.5
    return [
        Op(["simulate", "--bc", "clamped", "--n", "200", "--alpha", DECAY_ALPHA,
            "--T", repr(size["sim_T"]), "--dt", repr(dt), "--seed", str(seed)],
           "log.csv", 0, check_energy_log(size["sim_T"], dt)),
        Op(["decay-fit", "--bc", "clamped", "--n", "200",
            "--T", repr(size["fit_T"]), "--dt", repr(dt)],
           "fit.json", 0, check_decay_fit(size["fit_T"], dt, size["fit_C_ref"])),
    ]


def plate_ops(seed: int, size: dict):
    n = size["plate_n"]
    nx, ny = size["plate_2d"]
    ops = [Op(["spectrum", "--bc", fam, "--count", "5", "--n", str(n)],
              f"spec_{fam}.csv", 0, check_spectrum_1d(fam, n))
           for fam in ("clamped", "ex2_dn2_dn3", "ex5_dn2A_dn3")]
    ops.append(Op(["spectrum", "--bc", "hinged", "--dim", "2", "--n", str(nx),
                   "--n-y", str(ny), "--count", "5"],
                  "spec_hinged2d.csv", 0, check_spectrum_hinged_2d(nx, ny)))
    return ops


def audit_ops(seed: int, size: dict):
    samples = size["ls_samples"]
    ops = [Op(["ls-check", "--bc", fam, "--samples", str(samples),
               "--seed", str(seed)], f"ls_{fam}.json", 0, check_ls(samples))
           for fam in LS_FAMILIES]
    ops.append(Op(["ls-check", "--bc", "degenerate_equal", "--samples",
                   str(samples), "--seed", str(seed)],
                  "ls_degenerate_equal.json", 1, check_ls_negative))
    region = ["--psi", PSI, "--tau0", "0.01", "--ratio-hi", "1e4",
              "--region-n", str(size["region_n"])]
    ops.append(Op(["gamma-search"] + region, "gamma.json", 0,
                  check_gamma_search))
    # gamma = gamma0 makes factor 2's characteristic sample non-empty; the
    # README's gamma = 25 samples nothing on either factor
    ops.append(Op(["subell", "--gamma", repr(GAMMA0_REF)] + region,
                  "subell.json", 0, check_subell))
    return ops


@dataclass
class Workload:
    """Why each workload exists is stated in BENCHMARK.json."""

    name: str
    work_unit: str
    ops: Callable[[int, dict], list]


WORKLOADS = {w.name: w for w in (
    Workload("sweep", "sigma points", sweep_ops),
    Workload("decay", "midpoint steps", decay_ops),
    Workload("plate", "eigen-solved unknowns", plate_ops),
    Workload("audit", "LS samples", audit_ops),
)}
