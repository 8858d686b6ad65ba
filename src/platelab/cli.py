"""Command-line front end: reproducible experiments over the library.

Each command has its own keys (COMMANDS), set by a flat key = value file
and overridden by flags; one parser per key (_KEYS) reads and range-checks
both.  Every run is seeded.  Outputs are plain text: CSV tables with '#'
metadata lines and floats at 17 significant digits, or JSON records with
sorted keys; each artifact echoes every key of its command (_manifest).
Exit codes: 0 all checks pass, 1 a mathematical check failed, 2
configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import functools
import json
import math
import os
import re
import sys

# One BLAS thread per CLI process unless the caller chose a count.  OpenBLAS
# reads OPENBLAS_NUM_THREADS, then GOTO_NUM_THREADS, then OMP_NUM_THREADS,
# once, when numpy loads it.  No dense problem here reaches 3,000 unknowns:
# extra threads spin idle and cost CPU without saving wall time, and they
# make the 2-D resolvent norms depend on the core count.  A process that
# loaded numpy before this module keeps its own setting.
if "numpy" not in sys.modules and not any(
        var in os.environ for var in
        ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from . import SizeLimitError  # noqa: E402  (each command imports its layers)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


class CheckFailure(Exception):
    pass


def fmt(x) -> str:
    return f"{x:.17g}"


def _cell(v) -> str:
    return fmt(v) if isinstance(v, float) else str(v)


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _target(path):
    """Text stream of an artifact: standard output for None or '-', which
    stays open, else the file."""
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w")


def write_json(path, obj):
    text = json.dumps(obj, sort_keys=True, indent=2, default=_json_default)
    with _target(path) as fh:
        fh.write(text + "\n")


CSV_CHUNK_ROWS = 256   # rows formatted per write: the text held at once


def write_csv(path, meta: dict, columns: dict):
    """Metadata lines, then the header and rows of `columns`, which maps
    each header to a 1-D array: fmt on a float column, str on any other.
    Rows are formatted and written CSV_CHUNK_ROWS at a time, so no copy of
    the whole table or its text is held."""
    cells = [fmt if col.dtype.kind == "f" else str for col in columns.values()]
    nrows = len(next(iter(columns.values())))
    with _target(path) as fh:
        fh.write("".join(f"# {k} = {_cell(v)}\n" for k, v in sorted(meta.items()))
                 + ",".join(columns) + "\n")
        for lo in range(0, nrows, CSV_CHUNK_ROWS):
            chunk = [map(cell, col[lo:lo + CSV_CHUNK_ROWS].tolist())
                     for cell, col in zip(cells, columns.values())]
            fh.write("".join(",".join(row) + "\n" for row in zip(*chunk)))


def read_config(path, keys) -> dict:
    """Values of the --config file of key = value lines, each parsed and
    range-checked like its flag; a key outside `keys` is an error naming
    the file and line."""
    cfg = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"--config: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, 1):
            # '#' opens a comment at the start of a line or after whitespace
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                                  f"got {raw.rstrip()!r}")
            key, _, val = (s.strip() for s in line.partition("="))
            if key not in keys:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}; "
                                  f"this command takes "
                                  f"{', '.join(sorted(keys))}")
            try:
                cfg[key] = _KEYS[key](val)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"{path}:{lineno}: {key} = {val}: {exc}")
    return cfg


def _spec_parser(key):
    """A malformed spec is a configuration error naming its key, not a
    traceback."""
    def wrap(parse):
        @functools.wraps(parse)
        def checked(spec, *args):
            try:
                return parse(spec, *args)
            except (ValueError, IndexError, OSError) as exc:
                raise ConfigError(f"bad spec for --{key} {spec!r}: {exc}") \
                    from None
        return checked
    return wrap


def _split_spec(spec, forms: dict):
    """Kind and fields of 'kind:field:...', as many fields as forms[kind]
    (such as 'a:b:height') names; kind "" is a form without a kind, split
    from ':' + spec."""
    kind, *fields = spec.split(":")
    if kind not in forms or len(fields) != forms[kind].count(":") + 1:
        raise ValueError("expected " + " or ".join(
            f"{k}:{form}" if k else form for k, form in forms.items()))
    return kind, fields


@_spec_parser("alpha")
def parse_alpha_spec(spec, nodes: np.ndarray) -> np.ndarray:
    """Damping profile: 'bump:a:b:height' (finite a <= b), 'const:v', or
    'file:path'."""
    kind, fields = _split_spec(spec, {"bump": "a:b:height", "const": "v",
                                      "file": "path"})
    if kind == "file":
        from . import plate
        return plate.load_damping_profile(fields[0], nodes)
    vals = [float(f) for f in fields]
    if kind == "const":
        return vals[0] * np.ones(nodes.shape[0])
    a, b, height = vals
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValueError("bump ends a, b must be finite with a <= b")
    return np.where((nodes[:, 0] >= a) & (nodes[:, 0] <= b), height, 0.0)


@_spec_parser("psi")
def parse_psi_spec(spec):
    """Base weight, a weights.ScalarField: 'affine:c:slope', 'parabola:c'
    (c + x - x^2), or 'peak:x0:x1:center'."""
    from . import weights
    kind, fields = _split_spec(spec, {"affine": "c:slope", "parabola": "c",
                                      "peak": "x0:x1:center"})
    vals = [float(f) for f in fields]
    if kind == "affine":
        return weights.AffineField(vals[0], [vals[1]])
    if kind == "parabola":
        return weights.Polynomial1DField([vals[0], 1.0, -1.0])
    return weights.PeakField1D(*vals)


@_spec_parser("sigma-grid")
def parse_grid_spec(spec):
    """Grid 'lo:hi:step' of finite values, step > 0 and hi >= lo: the points
    lo + k step below hi + step / 2, as np.arange builds them.  A grid that
    np.arange cannot build is refused by the point that overflows, by its
    extent or by its point count."""
    _, fields = _split_spec(":" + spec, {"": "lo:hi:step"})
    lo, hi, step = (float(f) for f in fields)
    if not (all(map(math.isfinite, (lo, hi, step))) and step > 0 and hi >= lo):
        raise ValueError("need finite lo <= hi and finite step > 0")
    count = hi / step - lo / step + 0.5    # np.arange's point count, unrounded
    if math.isfinite(count) and math.isinf(hi + step / 2 - lo):
        k = math.ceil(count) - 1
        if math.isinf(step * (lo / step + k)):
            raise ValueError(f"grid point {k} = lo + {k} step overflows a float")
        raise ValueError("the grid's extent hi + step / 2 - lo overflows a float")
    try:
        return np.arange(lo, hi + step / 2, step)
    except (ValueError, MemoryError):
        raise ValueError(f"{count:.3g} grid points cannot be built") from None


def _bc_pair(cfg, path=None):
    """Name, operator pair and parameters of the family, or of file `path`,
    which declares the pair and its parameter symbol in place of bc and
    bc_param_a."""
    from . import lscheck
    if path is not None:
        for key in ("bc", "bc_param_a"):
            if cfg[key] is not None:
                raise ConfigError(f"--{key.replace('_', '-')} cannot be combined "
                                  f"with --bc-file, which declares the pair "
                                  f"and its aprime")
    elif not cfg["bc"]:
        raise ConfigError("missing 'bc'")
    name = cfg["bc"]
    params = {} if cfg["bc_param_a"] is None else {"a": cfg["bc_param_a"]}
    try:
        if path is not None:
            return os.path.basename(path), lscheck.load_bc_file(path), params
        return name, lscheck.catalog_bc(name, params or None), params
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc))
    except OSError as exc:      # only a --bc-file is opened here
        raise ConfigError(f"--bc-file: {exc}") from None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_catalog(cfg):
    from . import lscheck
    out = []
    for name in lscheck.catalog_names(include_fixtures=True):
        try:
            b1, b2 = lscheck.catalog_bc(name)
            rep = lscheck.ls_unconjugated(b1, b2, [0.0, 0.0], [1.0])
            out.append({"name": name, "orders": [b1.order, b2.order],
                        "det_at_unit": rep.determinant,
                        "ls_holds": rep.verdict})
        except (ValueError, KeyError) as exc:
            out.append({"name": name, "error": str(exc)})
    write_json(cfg["out"], _manifest(cfg, catalog=out, schema="catalog-v2"))
    return EXIT_OK


def cmd_roots(cfg):
    from .symbols import TangentialPoint, WeightJet, classify_roots
    tau, sigma, xi = cfg["tau"], cfg["sigma"], cfg["xi_prime"]
    dn, dt = cfg["dphi_normal"], cfg["dphi_tangential"]
    p = TangentialPoint([0.0, 0.0], [xi], tau, sigma)
    try:
        p.require_nondegenerate()
    except ValueError as exc:
        raise ConfigError(f"--xi-prime, --tau and --sigma: {exc}") from None
    w = WeightJet(1.0, [dt], dn)
    conf = classify_roots(p, w)
    write_json(cfg["out"], _manifest(
        cfg, case=conf.case.value, marginal=conf.marginal,
        factors=[{"j": rp.factor_index, "alpha": rp.alpha,
                  "pi_1": rp.pi_1, "pi_2": rp.pi_2} for rp in conf.pairs],
        quartic_roots=[z for rp in conf.pairs for z in (rp.pi_1, rp.pi_2)],
        schema="roots-v2"))
    return EXIT_OK


def cmd_ls_check(cfg):
    from . import lscheck
    name, (b1, b2), _ = _bc_pair(cfg, cfg["bc_file"])
    x0 = np.array([0.0, 0.0])

    unconjugated, failed = [], 0
    for radius in (0.5, 1.0, 2.0):
        for sgn in (1.0, -1.0):
            rep = lscheck.ls_unconjugated(b1, b2, x0, [sgn * radius])
            unconjugated.append({**dataclasses.asdict(rep),
                                 "omega_prime": sgn * radius})
            failed += not rep.verdict

    perturbation = []
    for sgn in (1.0, -1.0):
        radius = lscheck.perturbation_margin(b1, b2, x0, [sgn])
        perturbation.append({"omega_prime": sgn, "radius": radius,
                             "capped": radius == lscheck.PERTURBATION_CAP})

    conj = lscheck.sample_conjugated(b1, b2, cfg["samples"], cfg["seed"],
                                     cfg["kappa0"], cfg["mu0"], cfg["mu1"])
    failed += conj["counterexample"] is not None
    write_json(cfg["out"], _manifest(cfg, bc=name, unconjugated=unconjugated,
                                     perturbation_radius=perturbation,
                                     conjugated=conj, schema="ls-check-v4"))
    if failed:
        raise CheckFailure(f"{failed} check(s) failed")
    return EXIT_OK


def _region(cfg):
    """Base weight and region grid shared by subell and gamma-search."""
    if cfg["ratio_hi"] < cfg["tau0"]:
        raise ConfigError(f"need ratio_hi >= tau0, got ratio_hi = "
                          f"{cfg['ratio_hi']} and tau0 = {cfg['tau0']}")
    grid = [np.array([t]) for t in np.linspace(
        cfg["region_lo"], cfg["region_hi"], cfg["region_n"])]
    return parse_psi_spec(cfg["psi"]), grid


def cmd_subell(cfg):
    from . import weights
    psi, grid = _region(cfg)
    tau0, ratio_hi = cfg["tau0"], cfg["ratio_hi"]
    wf = weights.WeightField(psi, cfg["gamma"])
    out = {}
    ok = True
    for j in (1, 2):
        try:
            rep = weights.subellipticity_check(wf, j, grid, (tau0, ratio_hi), tau0=tau0)
        except ValueError as exc:   # dphi = 0 at a region point
            write_json(cfg["out"], _manifest(cfg, failure=str(exc),
                                             schema="subell-v2"))
            raise CheckFailure(str(exc))
        out[f"factor_{j}"] = {"margin": rep.margin, "vacuous": rep.vacuous,
                              "characteristic_samples": len(rep.samples),
                              "refinement_levels": rep.refinement_levels}
        ok = ok and rep.margin > 0
    write_json(cfg["out"], _manifest(cfg, **out, schema="subell-v2"))
    if not ok:
        raise CheckFailure("sub-ellipticity margin not positive")
    return EXIT_OK


def cmd_gamma_search(cfg):
    from . import weights
    psi, grid = _region(cfg)
    try:
        res = weights.gamma_search(psi, cfg["tau0"], grid,
                                   ratio_hi=cfg["ratio_hi"])
    except (ValueError, RuntimeError) as exc:
        write_json(cfg["out"], _manifest(cfg, failure=str(exc),
                                         schema="gamma-search-v2"))
        raise CheckFailure(str(exc))
    write_json(cfg["out"], _manifest(cfg, gamma0=res.gamma0,
                                     margins=res.margins,
                                     evaluations=len(res.history),
                                     schema="gamma-search-v2"))
    return EXIT_OK


def _operator(cfg):
    from . import plate
    n, length = cfg["n"], cfg["length"]
    name, params = cfg["bc"], {}
    if not name or cfg["bc_param_a"] is not None:   # each default a passes
        name, _, params = _bc_pair(cfg)
    try:
        if cfg["dim"] == 1:
            grid = plate.make_grid(n, length)
        else:
            grid = plate.make_grid((n, cfg["n_y"] or n),
                                   (length, cfg["length_y"] or length))
    except plate.GridScaleError as exc:
        key = "length_y" if exc.axis and cfg["length_y"] else "length"
        raise ConfigError(f"--{key.replace('_', '-')} {cfg[key]}: {exc}") \
            from None
    try:
        return plate.assemble(grid, name, params=params)
    except (KeyError, NotImplementedError) as exc:
        raise ConfigError(str(exc))


def _horizon(cfg):
    T, dt = cfg["T"], cfg["dt"]
    if not 0.5 < T / dt < math.inf:  # round(T / dt) steps, at least one
        raise ConfigError(f"need T > dt / 2, got T = {T} and dt = {dt}")
    return T, dt


def _count(cfg, op):
    count = cfg["count"]
    if not 0 <= count <= op.size:
        raise ConfigError(f"count must lie in [0, {op.size}] for the "
                          f"size-{op.size} operator, got {count}")
    return count


def cmd_assemble(cfg):
    from . import plate
    op = _operator(cfg)
    count = _count(cfg, op)
    plate.export_columnar(op, cfg["out"], eig_count=count)
    print(f"wrote nodes/matrix{'/eigenvalues' if count else ''} "
          f"under {cfg['out']}")
    return EXIT_OK


def cmd_spectrum(cfg):
    from . import plate
    op = _operator(cfg)
    count = _count(cfg, op)
    mu, _ = plate.spectrum(op, count, vectors=False)
    write_csv(cfg["out"], _manifest(cfg, op, schema="spectrum-v3"),
              {"k": np.arange(count), "mu": mu})
    return EXIT_OK


def _manifest(cfg, op=None, **results):
    """Artifact metadata, the one source of every CSV and JSON: each key of
    the command but out, with n_y and length_y resolved from the grid of a
    2-D operator (None marks a key left unset), then the run's results,
    which win on a clash."""
    meta = {key: val for key, val in cfg.items() if key != "out"}
    if op is not None and op.grid.dimension == 2:
        meta.update(n_y=op.grid.n[1], length_y=op.grid.lengths[1])
    return {**meta, **results}


def _damped(cfg):
    """Operator and generator with the configured damping."""
    from . import plate, semigroup
    op = _operator(cfg)
    alpha = parse_alpha_spec(cfg["alpha"], op.nodes)
    try:
        return op, semigroup.build_generator(op, alpha)
    except semigroup.DampingError as exc:
        raise ConfigError(f"--alpha {cfg['alpha']}: {exc}")
    except plate.IndefiniteError as exc:
        given = (f"--bc-param-a {cfg['bc_param_a']}" if cfg["bc_param_a"]
                 is not None else f"--bc {cfg['bc']} --n {cfg['n']}")
        raise ConfigError(f"{given}: {exc}")


def _simulate(Y0, gen, T, dt, log_every):
    """Energy log of the trajectory from Y0; a log whose energy goes
    negative or rises fails the check."""
    from . import semigroup
    log, _ = semigroup.simulate(Y0, gen, T, dt, log_every=log_every)
    try:
        log.validate()
    except AssertionError as exc:
        raise CheckFailure(f"energy log failed validation: {exc}")
    return log


def cmd_simulate(cfg):
    from . import plate, semigroup
    (T, dt), seed = _horizon(cfg), cfg["seed"]
    op, gen = _damped(cfg)
    rng = np.random.default_rng(seed)
    mu, V = plate.spectrum(op, min(6, op.size))
    nk = gen.kernel_dim
    mix = rng.normal(size=3)
    y0 = sum(float(mix[i]) * V[:, nk + i] for i in range(3))
    Y0 = semigroup.StateVector(y0, np.zeros(op.size))
    log = _simulate(Y0, gen, T, dt, cfg["log_every"])
    write_csv(cfg["out"], _manifest(cfg, op, scheme=log.scheme,
                                    schema="energylog-v3"),
              {"t": log.times, "energy": log.energies,
               "dissipation": log.dissipations})
    return EXIT_OK


def cmd_resolvent(cfg):
    from . import semigroup
    op, gen = _damped(cfg)
    try:
        sweep = semigroup.resolvent_sweep(gen,
                                          parse_grid_spec(cfg["sigma_grid"]))
    except OverflowError as exc:
        raise ConfigError(f"--sigma-grid {cfg['sigma_grid']}: {exc}") from None
    unconverged = int((~sweep.converged).sum())
    write_csv(cfg["out"], _manifest(cfg, op, C=sweep.C, vacuous=sweep.vacuous,
                                    skipped=len(sweep.skipped),
                                    unconverged=unconverged,
                                    max_iterations=int(sweep.iterations.max()),
                                    schema="resolvent-v4"),
              {"sigma": sweep.sigmas, "norm": sweep.norms,
               "slack": sweep.slack, "nearest_eig_dist": sweep.nearest_dist})
    if not np.all(np.isfinite(sweep.norms[~np.isnan(sweep.norms)])):
        raise CheckFailure("non-finite resolvent norm on the grid")
    if unconverged:
        raise CheckFailure(f"Lanczos or ARPACK did not converge at "
                           f"{unconverged} grid point(s): each norm there is "
                           f"only a lower bound, or each distance nan")
    return EXIT_OK


def cmd_decay_fit(cfg):
    from . import plate, semigroup
    (T, dt), npow = _horizon(cfg), cfg["n_power"]
    op, gen = _damped(cfg)
    mu, V = plate.spectrum(op, min(4, op.size))
    nk = gen.kernel_dim
    Y0 = semigroup.StateVector(V[:, nk] + 0.5 * V[:, nk + 1], np.zeros(op.size))
    Z = Y0
    for _ in range(npow):
        Z = gen.apply_A(Z)
    amp = semigroup.hdot_norm(gen, Z) ** 2
    log = _simulate(Y0, gen, T, dt, cfg["log_every"])
    try:
        C = semigroup.decay_fit(log, npow, amp)
    except ValueError as exc:
        raise CheckFailure(str(exc))
    if not (math.isfinite(amp) and math.isfinite(C)):
        raise ConfigError(f"--n-power {npow} on the {' x '.join(map(str, op.grid.n))}-"
                          f"cell grid: |A^n Y0|^2 = {amp:.6g} or C = {C:.6g} is not finite")
    write_json(cfg["out"], _manifest(cfg, op, C=C, amp=amp,
                                     final_energy=float(log.energies[-1]),
                                     schema="decay-fit-v2"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# keys: one parser per key, one {key: default} schema per command
# ---------------------------------------------------------------------------

def _checked(typ, ok, need):
    """Parser of a flag or config value: typ(text), which must satisfy ok."""
    def parse(text):
        val = typ(text)
        if not ok(val):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return val
    parse.__name__ = typ.__name__
    return parse


_SIZE = _checked(int, lambda v: v >= 8, ">= 8")
_REAL = _checked(float, math.isfinite, "finite")
_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "finite and > 0")
_NONNEGATIVE = _checked(float, lambda v: 0 <= v < math.inf, "finite and >= 0")
_NATURAL = _checked(int, lambda v: v >= 0, ">= 0")
_STEP = _checked(int, lambda v: v >= 1, ">= 1")

_KEYS = {
    "bc": str, "bc_param_a": _REAL, "bc_file": str, "n": _SIZE, "n_y": _SIZE,
    "dim": _checked(int, lambda v: v in (1, 2), "1 or 2"), "length": _POSITIVE,
    "length_y": _POSITIVE, "count": int, "alpha": str, "T": _POSITIVE,
    "dt": _POSITIVE, "log_every": _STEP, "sigma_grid": str, "seed": _NATURAL,
    "samples": _NATURAL, "tau": _NONNEGATIVE, "kappa0": _POSITIVE,
    "mu0": _NONNEGATIVE, "mu1": _NONNEGATIVE, "psi": str, "gamma": _POSITIVE,
    "tau0": _POSITIVE, "ratio_hi": _REAL, "region_lo": _REAL,
    "region_hi": _REAL, "region_n": _STEP, "n_power": _NATURAL,
    "xi_prime": _REAL, "sigma": _NONNEGATIVE, "dphi_normal": _POSITIVE,
    "dphi_tangential": _REAL, "out": str,
}

# A default of None leaves the key unset: n_y and length_y then follow n and
# length, and out = None writes to standard output.
_BC = {"bc": None, "bc_param_a": None}
_OPERATOR = {**_BC, "n": 200, "dim": 1, "length": 1.0, "n_y": None,
             "length_y": None}
_DAMPED = {**_OPERATOR, "alpha": "bump:0.3:0.5:1.0"}
_REGION = {"psi": "parabola:0.1", "tau0": 1.0, "ratio_hi": 64.0,
           "region_lo": 0.05, "region_hi": 0.4, "region_n": 9}

COMMANDS = {
    "catalog": (cmd_catalog, {"out": None}),
    "roots": (cmd_roots, {"tau": 1.0, "sigma": 0.0, "xi_prime": 1.0,
                          "dphi_normal": 1.0, "dphi_tangential": 0.0,
                          "out": None}),
    "ls-check": (cmd_ls_check, {**_BC, "bc_file": None, "seed": 0,
                                "samples": 200, "kappa0": 1.0,
                                "mu0": 0.25, "mu1": 0.25, "out": None}),
    "subell": (cmd_subell, {**_REGION, "gamma": 1.0, "out": None}),
    "gamma-search": (cmd_gamma_search, {**_REGION, "out": None}),
    "assemble": (cmd_assemble, {**_OPERATOR, "count": 0,
                                "out": "operator_export"}),
    "spectrum": (cmd_spectrum, {**_OPERATOR, "count": 5, "out": None}),
    "simulate": (cmd_simulate, {**_DAMPED, "T": 10.0, "dt": 0.01, "seed": 0,
                                "log_every": 1, "out": None}),
    "resolvent": (cmd_resolvent, {**_DAMPED, "sigma_grid": "0:50:1",
                                  "out": None}),
    "decay-fit": (cmd_decay_fit, {**_DAMPED, "T": 1e3, "dt": 0.5, "n_power": 1,
                                  "log_every": 10, "out": None}),
}


def build_parser(command=None):
    ap = argparse.ArgumentParser(prog="platelab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, defaults) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        if command in (None, name):     # the flags of one command, or of all
            p.add_argument("--config", help="key = value configuration file")
            for key in defaults:
                p.add_argument("--" + key.replace("_", "-"), dest=key,
                               type=_KEYS[key], default=None)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser(argv[0] if argv else None)
    # join '--key -1:1:1' to '--key=-1:1:1': argparse takes such a value for a flag
    for i in range(len(argv) - 1, 0, -1):
        if re.fullmatch(r"--[\w-]+", argv[i - 1]) and re.match(r"-[^-]", argv[i]):
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    command, defaults = COMMANDS[ns.command]
    cfg = dict(defaults)
    try:
        if ns.config:
            cfg.update(read_config(ns.config, defaults))
        cfg.update((key, val) for key, val in vars(ns).items()
                   if key in defaults and val is not None)
        return command(cfg)
    except (ConfigError, SizeLimitError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
