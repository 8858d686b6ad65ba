"""Command-line front end: reproducible experiments over the library.

Configuration is a flat key = value file overridden by flags; every run is
seeded.  Outputs are plain text: CSV tables with '#' metadata lines and
floats at 17 significant digits, or JSON records with sorted keys.  Exit
codes: 0 all checks pass, 1 a mathematical check failed, 2 configuration
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import SizeLimitError, lscheck, weights
from .symbols import TangentialPoint, WeightJet, quartic_roots, \
    classify_roots, factor_roots

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


class CheckFailure(Exception):
    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload or {}


def fmt(x) -> str:
    return f"{x:.17g}"


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_json(path, obj):
    text = json.dumps(obj, sort_keys=True, indent=2, default=_json_default)
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def write_csv(path, meta: dict, header, rows):
    lines = [f"# {k} = {v}" for k, v in sorted(meta.items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    text = "\n".join(lines) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def read_config(path) -> dict:
    cfg = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                                  f"got {raw.rstrip()!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            cfg[key] = _coerce(val.strip())
    return cfg


def _coerce(val: str):
    low = val.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(val)
    except ValueError:
        pass
    try:
        return float(val)
    except ValueError:
        pass
    return val


def parse_alpha_spec(spec, nodes: np.ndarray) -> np.ndarray:
    """Damping profile: 'bump:a:b:height', 'const:v', or 'file:path'."""
    if isinstance(spec, (int, float)):
        return float(spec) * np.ones(nodes.shape[0])
    parts = str(spec).split(":")
    kind = parts[0]
    if kind == "bump":
        a, b, height = (float(p) for p in parts[1:4])
        return np.where((nodes[:, 0] >= a) & (nodes[:, 0] <= b), height, 0.0)
    if kind == "const":
        return float(parts[1]) * np.ones(nodes.shape[0])
    if kind == "file":
        from . import plate
        return plate.load_damping_profile(parts[1], nodes)
    raise ConfigError(f"unknown damping spec {spec!r}")


def parse_psi_spec(spec) -> weights.ScalarField:
    """Base weight: 'affine:c:slope', 'parabola:c' (c + x - x^2), or
    'peak:x0:x1:center'."""
    parts = str(spec).split(":")
    kind = parts[0]
    if kind == "affine":
        return weights.AffineField(float(parts[1]), [float(parts[2])])
    if kind == "parabola":
        return weights.Polynomial1DField([float(parts[1]), 1.0, -1.0])
    if kind == "peak":
        return weights.PeakField1D(float(parts[1]), float(parts[2]), float(parts[3]))
    raise ConfigError(f"unknown weight spec {spec!r}")


def parse_grid_spec(spec):
    lo, hi, step = (float(p) for p in str(spec).split(":"))
    if step <= 0 or hi < lo:
        raise ConfigError(f"bad grid spec {spec!r}")
    return np.arange(lo, hi + step / 2, step)


def _bc_pair(cfg):
    name = cfg.get("bc")
    if not name:
        raise ConfigError("missing 'bc'")
    params = {}
    if "bc_param_a" in cfg:
        params["a"] = float(cfg["bc_param_a"])
    if "bc_file" in cfg:
        return load_pair_with_name(cfg["bc_file"])
    try:
        return name, lscheck.catalog_bc(name, params or None), params
    except KeyError as exc:
        raise ConfigError(str(exc))


def load_pair_with_name(path):
    b1, b2 = lscheck.load_bc_file(path)
    return os.path.basename(path), (b1, b2), {}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_catalog(cfg):
    out = []
    for name in lscheck.catalog_names(include_fixtures=True):
        try:
            b1, b2 = lscheck.catalog_bc(name)
            rep = lscheck.ls_unconjugated(b1, b2, [0.0, 0.0], [1.0])
            out.append({"name": name, "orders": [b1.order, b2.order],
                        "det_at_unit": {"re": rep.determinant.real,
                                        "im": rep.determinant.imag},
                        "ls_holds": rep.verdict})
        except (ValueError, KeyError) as exc:
            out.append({"name": name, "error": str(exc)})
    write_json(cfg.get("out"), {"catalog": out})
    return EXIT_OK


def cmd_roots(cfg):
    tau = float(cfg.get("tau", 1.0))
    sigma = float(cfg.get("sigma", 0.0))
    xi = float(cfg.get("xi_prime", 1.0))
    dn = float(cfg.get("dphi_normal", 1.0))
    dt = float(cfg.get("dphi_tangential", 0.0))
    p = TangentialPoint([0.0, 0.0], [xi], tau, sigma)
    w = WeightJet(1.0, [dt], dn)
    conf = classify_roots(p, w)
    pairs = [factor_roots(p, w, j) for j in (1, 2)]
    write_json(cfg.get("out"), {
        "point": {"xi_prime": xi, "tau": tau, "sigma": sigma,
                  "dphi": [dt, dn]},
        "case": conf.case.value,
        "marginal": conf.marginal,
        "factors": [{"j": rp.factor_index, "alpha": rp.alpha,
                     "pi_1": rp.pi_1, "pi_2": rp.pi_2} for rp in pairs],
        "quartic_roots": list(quartic_roots(p, w)),
    })
    return EXIT_OK


def cmd_ls_check(cfg):
    name, (b1, b2), params = _bc_pair(cfg)
    seed = int(cfg.get("seed", 0))
    kappa0 = float(cfg.get("kappa0", 1.0))
    mu0 = float(cfg.get("mu0", 0.25))
    mu1 = float(cfg.get("mu1", 0.25))
    nsamples = int(cfg.get("samples", 200))
    x0 = np.array([0.0, 0.0])

    report = {"bc": name, "seed": seed, "unconjugated": []}
    failures = []

    for radius in (0.5, 1.0, 2.0):
        for sgn in (1.0, -1.0):
            rep = lscheck.ls_unconjugated(b1, b2, x0, [sgn * radius])
            rec = rep.to_dict()
            rec["omega_prime"] = sgn * radius
            report["unconjugated"].append(rec)
            if not rep.verdict:
                failures.append(("unconjugated", rec))

    if float(cfg.get("tau", -1.0)) == 0.0:
        rep = lscheck.ls_unconjugated(b1, b2, x0, [1.0])
        print(f"unconjugated determinant at |omega'| = 1: "
              f"{fmt(rep.determinant.real)}{rep.determinant.imag:+.17g}j")

    conj = lscheck.sample_conjugated(b1, b2, nsamples, seed, kappa0, mu0, mu1)
    report["conjugated"] = conj
    if conj["counterexample"] is not None:
        failures.append(("conjugated", conj["counterexample"]))
    write_json(cfg.get("out"), report)
    if failures:
        raise CheckFailure(f"{len(failures)} check(s) failed", report)
    return EXIT_OK


def _region(cfg):
    """Inputs shared by subell and gamma-search; kappa0_prime is ratio_hi."""
    psi = parse_psi_spec(cfg.get("psi", "parabola:0.1"))
    try:
        tau0 = float(cfg.get("tau0", cfg.get("kappa0", 1.0)))
        lo = float(cfg.get("region_lo", 0.05))
        hi = float(cfg.get("region_hi", 0.4))
        m = int(cfg.get("region_n", 9))
        ratio_hi = float(cfg.get("kappa0_prime", cfg.get("ratio_hi", 64.0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad region setting: {exc}")
    grid = [np.array([t]) for t in np.linspace(lo, hi, m)]
    return psi, tau0, (lo, hi, m), grid, ratio_hi


def cmd_subell(cfg):
    psi, tau0, (lo, hi, m), grid, ratio_hi = _region(cfg)
    gamma = float(cfg.get("gamma", 1.0))
    wf = weights.WeightField(psi, gamma)
    out = {"grid": {"region": [lo, hi], "points": m,
                    "ratio_band": [tau0, ratio_hi]}}
    ok = True
    for j in (1, 2):
        rep = weights.subellipticity_check(wf, j, grid, (tau0, ratio_hi), tau0=tau0)
        out[f"factor_{j}"] = {"margin": rep.margin, "vacuous": rep.vacuous,
                              "characteristic_samples": len(rep.samples),
                              "refinement_levels": rep.refinement_levels}
        ok = ok and rep.margin > 0
    out["gamma"] = gamma
    write_json(cfg.get("out"), out)
    if not ok:
        raise CheckFailure("sub-ellipticity margin not positive", out)
    return EXIT_OK


def cmd_gamma_search(cfg):
    psi, tau0, _, grid, ratio_hi = _region(cfg)
    try:
        res = weights.gamma_search(psi, tau0, grid, ratio_hi=ratio_hi)
    except (ValueError, RuntimeError) as exc:
        raise CheckFailure(str(exc))
    write_json(cfg.get("out"), {"gamma0": res.gamma0, "margins": res.margins,
                                "evaluations": len(res.history)})
    return EXIT_OK


def _operator(cfg):
    from . import plate
    n = int(cfg.get("n", 200))
    dim = int(cfg.get("dim", 1))
    length = float(cfg.get("length", 1.0))
    name, _, params = _bc_pair(cfg)
    if dim == 1:
        grid = plate.make_grid(n, length)
    else:
        grid = plate.make_grid((n, int(cfg.get("n_y", n))),
                               (length, float(cfg.get("length_y", length))))
    try:
        return plate.assemble(grid, name, params=params)
    except (KeyError, NotImplementedError) as exc:
        raise ConfigError(str(exc))


def _count(cfg, op, default):
    count = int(cfg.get("count", default))
    if not 0 <= count <= op.size:
        raise ConfigError(f"count must lie in [0, {op.size}] for the "
                          f"size-{op.size} operator, got {count}")
    return count


def cmd_assemble(cfg):
    from . import plate
    op = _operator(cfg)
    count = _count(cfg, op, 0)
    outdir = cfg.get("out", "operator_export")
    plate.export_columnar(op, outdir, eig_count=count)
    print(f"wrote nodes/matrix{'/eigenvalues' if count else ''} "
          f"under {outdir}")
    return EXIT_OK


def cmd_spectrum(cfg):
    from . import plate
    op = _operator(cfg)
    count = _count(cfg, op, 5)
    mu, _ = plate.spectrum(op, count, vectors=False)
    rows = [(k, float(mu[k])) for k in range(count)]
    g = op.grid
    meta = {"bc": op.bc_name, "dim": g.dimension, "n": g.n[0], "count": count,
            "length": fmt(g.lengths[0]), "schema": "spectrum-v2"}
    if g.dimension == 2:
        meta.update(n_y=g.n[1], length_y=fmt(g.lengths[1]))
    write_csv(cfg.get("out"), meta, ["k", "mu"], rows)
    return EXIT_OK


def cmd_simulate(cfg):
    from . import plate, semigroup
    op = _operator(cfg)
    alpha = parse_alpha_spec(cfg.get("alpha", "bump:0.3:0.5:1.0"), op.nodes)
    gen = semigroup.build_generator(op, alpha)
    T = float(cfg.get("T", 10.0))
    dt = float(cfg.get("dt", 0.01))
    seed = int(cfg.get("seed", 0))
    rng = np.random.default_rng(seed)
    mu, V = plate.spectrum(op, min(6, op.size))
    nk = gen.kernel_dim
    mix = rng.normal(size=3)
    y0 = sum(float(mix[i]) * V[:, nk + i] for i in range(3))
    Y0 = semigroup.StateVector(y0, np.zeros(op.size))
    log, _ = semigroup.simulate(Y0, gen, T, dt,
                                log_every=int(cfg.get("log_every", 1)))
    try:
        log.validate()
    except AssertionError as exc:
        raise CheckFailure(f"energy log failed validation: {exc}")
    rows = list(zip(log.times.tolist(), log.energies.tolist(),
                    log.dissipations.tolist()))
    write_csv(cfg.get("out"), {"bc": op.bc_name, "n": op.grid.n[0],
                               "T": fmt(T), "dt": fmt(dt), "seed": seed,
                               "scheme": log.scheme, "schema": "energylog-v1"},
              ["t", "energy", "dissipation"], rows)
    return EXIT_OK


def cmd_resolvent(cfg):
    from . import semigroup
    op = _operator(cfg)
    alpha = parse_alpha_spec(cfg.get("alpha", "bump:0.3:0.5:1.0"), op.nodes)
    gen = semigroup.build_generator(op, alpha)
    sigmas = parse_grid_spec(cfg.get("sigma_grid", "0:50:1"))
    sweep = semigroup.resolvent_sweep(gen, sigmas)
    unconverged = int((~sweep.converged).sum())
    rows = [(float(s), float(nrm), float(sl), float(d))
            for s, nrm, sl, d in zip(sweep.sigmas, sweep.norms,
                                     sweep.slack, sweep.nearest_dist)]
    write_csv(cfg.get("out"), {"bc": op.bc_name, "n": op.grid.n[0],
                               "C": fmt(sweep.C),
                               "skipped": len(sweep.skipped),
                               "unconverged": unconverged,
                               "max_iterations": int(sweep.iterations.max()),
                               "schema": "resolvent-v2"},
              ["sigma", "norm", "slack", "nearest_eig_dist"], rows)
    if not np.all(np.isfinite(sweep.norms[~np.isnan(sweep.norms)])):
        raise CheckFailure("non-finite resolvent norm on the grid")
    if unconverged:
        raise CheckFailure(f"power iteration did not converge at {unconverged} "
                           f"grid point(s); their norms are lower bounds")
    return EXIT_OK


def cmd_decay_fit(cfg):
    from . import plate, semigroup
    op = _operator(cfg)
    alpha = parse_alpha_spec(cfg.get("alpha", "bump:0.3:0.5:1.0"), op.nodes)
    gen = semigroup.build_generator(op, alpha)
    T = float(cfg.get("T", 1e3))
    dt = float(cfg.get("dt", 0.5))
    npow = int(cfg.get("n_power", 1))
    mu, V = plate.spectrum(op, min(4, op.size))
    nk = gen.kernel_dim
    Y0 = semigroup.StateVector(V[:, nk] + 0.5 * V[:, nk + 1], np.zeros(op.size))
    Z = Y0
    for _ in range(npow):
        Z = gen.apply_A(Z)
    amp = semigroup.hdot_norm(gen, Z) ** 2
    log, _ = semigroup.simulate(Y0, gen, T, dt,
                                log_every=int(cfg.get("log_every", 10)))
    try:
        C = semigroup.decay_fit(log, npow, amp)
    except ValueError as exc:
        raise CheckFailure(str(exc))
    write_json(cfg.get("out"), {"C": C, "amp": amp, "T": T, "dt": dt,
                                "n_power": npow,
                                "final_energy": float(log.energies[-1])})
    return EXIT_OK


COMMANDS = {
    "catalog": cmd_catalog,
    "roots": cmd_roots,
    "ls-check": cmd_ls_check,
    "subell": cmd_subell,
    "gamma-search": cmd_gamma_search,
    "assemble": cmd_assemble,
    "spectrum": cmd_spectrum,
    "simulate": cmd_simulate,
    "resolvent": cmd_resolvent,
    "decay-fit": cmd_decay_fit,
}

_FLAGS = [
    ("--bc", "bc", str), ("--bc-param-a", "bc_param_a", float),
    ("--bc-file", "bc_file", str),
    ("--n", "n", int), ("--n-y", "n_y", int), ("--dim", "dim", int),
    ("--length", "length", float), ("--length-y", "length_y", float),
    ("--count", "count", int), ("--alpha", "alpha", str),
    ("--T", "T", float), ("--dt", "dt", float), ("--log-every", "log_every", int),
    ("--sigma-grid", "sigma_grid", str), ("--seed", "seed", int),
    ("--samples", "samples", int), ("--tau", "tau", float),
    ("--kappa0", "kappa0", float), ("--kappa0-prime", "kappa0_prime", float),
    ("--mu0", "mu0", float), ("--mu1", "mu1", float),
    ("--psi", "psi", str), ("--gamma", "gamma", float),
    ("--tau0", "tau0", float), ("--ratio-hi", "ratio_hi", float),
    ("--region-lo", "region_lo", float), ("--region-hi", "region_hi", float),
    ("--region-n", "region_n", int), ("--n-power", "n_power", int),
    ("--xi-prime", "xi_prime", float), ("--sigma", "sigma", float),
    ("--dphi-normal", "dphi_normal", float),
    ("--dphi-tangential", "dphi_tangential", float),
    ("--out", "out", str),
]
_KEYS = frozenset(dest for _, dest, _ in _FLAGS)


def build_parser():
    ap = argparse.ArgumentParser(prog="platelab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key = value configuration file")
        for flag, dest, typ in _FLAGS:
            p.add_argument(flag, dest=dest, type=typ, default=None)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    cfg = {}
    try:
        if ns.config:
            cfg.update(read_config(ns.config))
        for _, dest, _ in _FLAGS:
            val = getattr(ns, dest, None)
            if val is not None:
                cfg[dest] = val
        _validate(cfg)
        return COMMANDS[ns.command](cfg)
    except (ConfigError, SizeLimitError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        if exc.payload:
            write_json(None, exc.payload)
        return EXIT_CHECK_FAILED
    except (FileNotFoundError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _validate(cfg):
    k0 = cfg.get("kappa0")
    k0p = cfg.get("kappa0_prime")
    if k0 is not None and k0 <= 0:
        raise ConfigError("kappa0 must be positive")
    if k0 is not None and k0p is not None and not (k0p > k0 > 0):
        raise ConfigError("need kappa0_prime > kappa0 > 0")
    if "dt" in cfg and float(cfg["dt"]) <= 0:
        raise ConfigError("dt must be positive")
    if "n" in cfg and int(cfg["n"]) < 8:
        raise ConfigError("n must be at least 8")


if __name__ == "__main__":
    sys.exit(main())
