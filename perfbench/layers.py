"""Traced in-process pass over one workload: per-layer metrics.

Runs the workload's CLI commands through `platelab.cli.main` inside this
process, with the public functions of each layer wrapped from here (no
instrumentation lives in `src/`).  Every wrapped call records a span
(name, start, end, parent) in memory; the spans are written out when the
pass ends.  Replays alternate untraced and traced so the difference of the
two is the tracing overhead.

Every run reports every per-layer metric.  A metric whose functions the
workload's own commands never call (for instance the resolvent on `audit`)
is measured on the small-size commands of the workload where that layer is
at home, and the output lists which metrics came from such a probe.

Usage (started by run.py in a child process, so that the BLAS thread
setting of the child's environment applies; prints one JSON line):

    python3 perfbench/layers.py WORKLOAD SEED SECONDS default SPANS_FILE
    python3 perfbench/layers.py WORKLOAD SEED SECONDS blas1 SPANS_FILE SOURCES

SOURCES is the `source` map the default pass printed, so the BLAS1 pass
measures each metric on the same inputs.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import io
import json
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# (module[.class], attribute, span name, value taken from the result or
# None).  Public functions; one imported into several modules is wrapped
# under every name.  Some carry no metric of their own and are wrapped so
# that their time is not counted in cli.overhead_s.
WRAPPED = [
    ("symbols", "classify_roots", "symbols.classify_roots", None),
    ("lscheck", "catalog_bc", "lscheck.catalog_bc", None),
    ("lscheck", "ls_unconjugated", "lscheck.ls_unconjugated", None),
    ("lscheck", "ls_conjugated", "lscheck.ls_conjugated",
     lambda r: "marginal" if r.marginal else bool(r.verdict)),
    ("lscheck", "ls_rank_oracle", "lscheck.ls_rank_oracle", lambda r: r == 4),
    ("lscheck", "positivity_margin", "lscheck.positivity_margin",
     lambda r: r > 1e-16),
    ("weights", "gamma_search", "weights.gamma_search", lambda r: len(r.history)),
    ("weights", "subellipticity_check", "weights.subellipticity_check",
     lambda r: len(r.samples)),
    ("weights", "symbol_jets", "weights.symbol_jets", None),
    ("plate", "assemble", "plate.assemble", None),
    ("plate", "spectrum", "plate.spectrum", None),
    ("plate", "kernel", "plate.kernel", None),
    ("plate.DiscretePlateOperator", "dense", "plate.dense", lambda r: r.nbytes),
    ("semigroup", "build_generator", "semigroup.build_generator", None),
    ("semigroup", "reduced_generator", "semigroup.reduced_generator", None),
    ("semigroup", "resolvent_sweep", "semigroup.resolvent_sweep", None),
    ("semigroup", "resolvent_norm", "semigroup.resolvent_norm", None),
    ("semigroup.MidpointStepper", "__init__", "semigroup.MidpointStepper", None),
    ("semigroup.MidpointStepper", "advance", "semigroup.advance", None),
    ("semigroup", "simulate", "semigroup.simulate", None),
    ("semigroup", "decay_fit", "semigroup.decay_fit", None),
    ("cli", "write_csv", "cli.write_csv", None),
    ("cli", "write_json", "cli.write_json", None),
]
MODULES = ("symbols", "lscheck", "weights", "plate", "semigroup", "cli")


class Tracer:
    """Spans kept in parallel lists; `value` holds what the wrapper derived
    from the result (a count, a byte size or a verdict)."""

    def __init__(self):
        self.name, self.start, self.end, self.parent = [], [], [], []
        self.value, self.phase = [], []
        self.current = -1
        self.phase_label = ""
        self._saved = []

    def open(self, name):
        idx = len(self.name)
        self.name.append(name)
        self.start.append(time.perf_counter())
        self.end.append(math.nan)
        self.parent.append(self.current)
        self.value.append(None)
        self.phase.append(self.phase_label)
        self.current = idx
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self.current = self.parent[idx]

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def _traced(self, fn, name, value):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if value is not None:
                tracer.value[idx] = value(result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, modules):
        """Wrap the listed functions, under every name any platelab module
        binds them to, while the block runs."""
        for owner_name, attr, name, value in WRAPPED:
            modname, _, clsname = owner_name.partition(".")
            if clsname:
                owners = [getattr(modules[modname], clsname)]
            else:
                owners = [modules[m] for m in MODULES]
            fn = getattr(owners[0] if clsname else modules[modname], attr)
            traced = self._traced(fn, name, value)
            for obj in owners:
                for key, val in list(vars(obj).items()):
                    if val is fn:
                        self._saved.append((obj, key, fn))
                        setattr(obj, key, traced)
        try:
            yield
        finally:
            for obj, key, fn in reversed(self._saved):
                setattr(obj, key, fn)
            self._saved.clear()

    def dump(self, path, phases):
        """Write the spans of the given phases as gzipped JSON lines, one
        [id, name, start, end, parent, phase, value] row per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent",
                                 "phase", "value"]) + "\n")
            for i, ph in enumerate(self.phase):
                if ph in phases:
                    fh.write(json.dumps([i, self.name[i], self.start[i],
                                         self.end[i], self.parent[i], ph,
                                         self.value[i]]) + "\n")


def replay(ops, workdir, cli, tracer=None):
    """Run the ops in this process; returns (wall seconds, failures)."""
    failures = []
    t0 = time.perf_counter()
    for op in ops:
        out = Path(workdir) / op.out
        argv = op.args + ["--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span("cli." + op.args[0]):
                    code = cli.main(argv)
        problems, _ = workloads.check_op(op, code, out)
        if problems:
            failures.append("; ".join(problems))
    return time.perf_counter() - t0, failures


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------

def _indices(tr, name, phases):
    return [i for i, n in enumerate(tr.name) if n == name and tr.phase[i] in phases]


def _dur(tr, i):
    return tr.end[i] - tr.start[i]


def per_phase_sum(tr, name, phases, fn):
    """Median over phases of the per-phase total of fn(span)."""
    totals = [sum(fn(i) for i in _indices(tr, name, {p})) for p in phases]
    return statistics.median(totals)


def pooled(tr, name, phases, q=0.5):
    vals = sorted(_dur(tr, i) for i in _indices(tr, name, phases))
    return vals[min(len(vals) - 1, int(q * len(vals)))]


def ls_ratios(tr, phases):
    """(marginal over attempted, agreeing over non-marginal) LS samples.  A
    non-marginal ls_conjugated span is followed by its rank-oracle and
    positivity spans; a verdict agrees when both oracles give the same."""
    order = [i for i, n in enumerate(tr.name) if tr.phase[i] in phases and n in
             ("lscheck.ls_conjugated", "lscheck.ls_rank_oracle",
              "lscheck.positivity_margin")]
    attempted = marginal = judged = agreed = 0
    for k, i in enumerate(order):
        if tr.name[i] != "lscheck.ls_conjugated":
            continue
        attempted += 1
        if tr.value[i] == "marginal":
            marginal += 1
            continue
        follow = [tr.value[j] for j in order[k + 1:k + 3]
                  if tr.name[j] != "lscheck.ls_conjugated"]
        if len(follow) == 2:
            judged += 1
            agreed += tr.value[i] == follow[0] == follow[1]
    return marginal / max(attempted, 1), agreed / max(judged, 1)


def cli_self_time(tr, phases):
    """Per-phase time inside CLI command spans not spent in another layer."""
    children = {}
    for i, p in enumerate(tr.parent):
        if p >= 0 and tr.name[p].startswith("cli.") and not tr.name[i].startswith("cli."):
            children.setdefault(p, []).append(i)
    totals = []
    for ph in phases:
        tot = 0.0
        for i, n in enumerate(tr.name):
            if tr.phase[i] == ph and n.startswith("cli.") and tr.parent[i] < 0:
                tot += _dur(tr, i) - sum(_dur(tr, c) for c in children.get(i, []))
        totals.append(tot)
    return statistics.median(totals)


# metric -> (home workload, span, statistic, unit).  The home is where the
# layer does its real work; a workload whose own commands never call the
# span borrows the home's small-size probe.  Statistics: p50/p90 pool the
# span durations; sum/count/value are per-replay totals of duration, spans
# and the value taken from each result, as medians over replays.
METRICS = {
    "symbols.classify_roots.us_p50": ("audit", "symbols.classify_roots", "p50", "us"),
    "symbols.classify_roots.calls": ("audit", "symbols.classify_roots", "count", "count"),
    "lscheck.ls_conjugated.us_p50": ("audit", "lscheck.ls_conjugated", "p50", "us"),
    "lscheck.ls_rank_oracle.us_p50": ("audit", "lscheck.ls_rank_oracle", "p50", "us"),
    "lscheck.positivity_margin.us_p50": ("audit", "lscheck.positivity_margin", "p50", "us"),
    "lscheck.marginal_ratio": ("audit", "lscheck.ls_conjugated", "marginal", "ratio"),
    "lscheck.agree_ratio": ("audit", "lscheck.ls_conjugated", "agree", "ratio"),
    "weights.gamma_search.s": ("audit", "weights.gamma_search", "sum", "s"),
    "weights.gamma_search.evaluations": ("audit", "weights.gamma_search", "value", "count"),
    "weights.subellipticity_check.s": ("audit", "weights.subellipticity_check", "sum", "s"),
    "weights.characteristic_samples": ("audit", "weights.subellipticity_check", "value", "count"),
    "weights.symbol_jets.us_p50": ("audit", "weights.symbol_jets", "p50", "us"),
    "plate.assemble.s": ("plate", "plate.assemble", "sum", "s"),
    "plate.spectrum.s": ("plate", "plate.spectrum", "sum", "s"),
    "plate.kernel.s": ("sweep", "plate.kernel", "sum", "s"),
    "plate.dense_bytes": ("plate", "plate.dense", "value", "B"),
    "semigroup.build_generator.s": ("sweep", "semigroup.build_generator", "sum", "s"),
    "semigroup.reduced_generator.s": ("sweep", "semigroup.reduced_generator", "sum", "s"),
    "semigroup.resolvent_norm.ms_p50": ("sweep", "semigroup.resolvent_norm", "p50", "ms"),
    "semigroup.resolvent_norm.ms_p90": ("sweep", "semigroup.resolvent_norm", "p90", "ms"),
    "semigroup.resolvent_norm.s": ("sweep", "semigroup.resolvent_norm", "sum", "s"),
    "semigroup.resolvent_sweep.s": ("sweep", "semigroup.resolvent_sweep", "sum", "s"),
    "semigroup.MidpointStepper.init_ms": ("decay", "semigroup.MidpointStepper", "p50", "ms"),
    "semigroup.advance.us_p50": ("decay", "semigroup.advance", "p50", "us"),
    "semigroup.simulate.s": ("decay", "semigroup.simulate", "sum", "s"),
    "semigroup.decay_fit.ms": ("decay", "semigroup.decay_fit", "sum", "ms"),
    "cli.write_csv.s": ("decay", "cli.write_csv", "sum", "s"),
}
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
# measured in every run from the workload's own replays
UNITS = {**{m: row[3] for m, row in METRICS.items()},
         "cli.overhead_s": "s", "trace.overhead_s": "s"}


def compute(tr, metric, phases):
    """(value, sample count) of one metric over the given phases."""
    _, span, stat, unit = METRICS[metric]
    scale = SCALE.get(unit, 1.0)
    spans = _indices(tr, span, set(phases))
    if stat in ("p50", "p90"):
        return scale * pooled(tr, span, phases, 0.5 if stat == "p50" else 0.9), len(spans)
    if stat in ("marginal", "agree"):
        return ls_ratios(tr, set(phases))[stat == "agree"], len(spans)
    per_span = {"sum": lambda i: _dur(tr, i), "count": lambda i: 1,
                "value": lambda i: tr.value[i]}[stat]
    return scale * per_phase_sum(tr, span, phases, per_span), len(phases)


# measured again in a child with OPENBLAS_NUM_THREADS=1
BLAS1 = ("plate.spectrum.s", "semigroup.reduced_generator.s",
         "semigroup.resolvent_norm.ms_p50", "semigroup.advance.us_p50")


def points_pass(sem, pl, cli, grid_spec):
    """Public resolvent_norm at each sweep grid point on a fresh generator:
    the per-point cost, which the sweep itself does not expose."""
    grid = pl.make_grid(200)
    op = pl.assemble(grid, "clamped")
    gen = sem.build_generator(op, cli.parse_alpha_spec(workloads.SWEEP_ALPHA, op.nodes))
    sem.reduced_generator(gen)
    for sigma in cli.parse_grid_spec(grid_spec):
        sem.resolvent_norm(gen, 1j * sigma)


def run_pass(workload, seed, seconds, mode, spans_path, source=None):
    """mode "default": alternate untraced and traced replays of the
    workload's commands for `seconds`, then measure every metric.  mode
    "blas1": one traced replay, for the BLAS1 metrics, from the sources the
    default pass used."""
    import platelab.cli as cli
    from platelab import lscheck, plate, semigroup, symbols, weights
    mods = {"symbols": symbols, "lscheck": lscheck, "weights": weights,
            "plate": plate, "semigroup": semigroup, "cli": cli}
    tracer = Tracer()
    own_ops = workloads.WORKLOADS[workload].ops(seed, workloads.SIZES["full"])
    wanted = BLAS1 if mode == "blas1" else tuple(METRICS)
    failures, attempted, overheads, own_phases = [], 0, [], []

    def traced_replay(ops, tmp, label):
        nonlocal failures, attempted
        tracer.phase_label = label
        with tracer.installed(mods):
            wall, fails = replay(ops, tmp, cli, tracer)
        failures += fails
        attempted += len(ops)
        return wall

    with tempfile.TemporaryDirectory(dir=workloads.work_dir()) as tmp:
        if mode == "default":
            t_end = time.perf_counter() + seconds
            while True:
                # alternate which replay goes first, so warm-up costs do
                # not land on one side of the overhead
                label = f"own{len(own_phases)}"
                first_traced = len(own_phases) % 2 == 1
                if first_traced:
                    traced = traced_replay(own_ops, tmp, label)
                plain, fails = replay(own_ops, tmp, cli)
                failures += fails
                attempted += len(own_ops)
                if not first_traced:
                    traced = traced_replay(own_ops, tmp, label)
                own_phases.append(label)
                overheads.append(traced - plain)
                if time.perf_counter() + plain + traced > t_end:
                    break
            own_names = {n for n, ph in zip(tracer.name, tracer.phase)
                         if ph in own_phases}
            source = {m: "points" if span == "semigroup.resolvent_norm"
                      else "own" if span in own_names else "probe:" + home
                      for m, (home, span, _, _) in METRICS.items()}
        elif any(source[m] == "own" for m in wanted):
            own_phases.append("own0")
            traced_replay(own_ops, tmp, "own0")

        small = workloads.SIZES["small"]
        for probe in sorted({source[m] for m in wanted
                             if source[m].startswith("probe:")}):
            name = probe.split(":")[1]
            traced_replay(workloads.WORKLOADS[name].ops(seed, small), tmp, probe)
        if any(source[m] == "points" for m in wanted):
            grid = workloads.SIZES["full" if workload == "sweep" else "small"]
            tracer.phase_label = "points"
            with tracer.installed(mods):
                points_pass(semigroup, plate, cli, grid["sigma_grid"])

    metrics = {}
    for m in wanted:
        phases = own_phases if source[m] == "own" else [source[m]]
        metrics[m] = compute(tracer, m, phases)
    if mode == "default":
        metrics["cli.overhead_s"] = (cli_self_time(tracer, own_phases),
                                     len(own_phases))
        metrics["trace.overhead_s"] = (statistics.median(overheads),
                                       len(overheads))
    # the first traced replay stands for the others, which would multiply
    # the file size without adding structure
    tracer.dump(spans_path, set(tracer.phase) - set(own_phases[1:]))
    return {"metrics": metrics, "source": source, "failures": failures,
            "attempted": attempted, "replays": len(own_phases),
            "spans": len(tracer.name)}


if __name__ == "__main__":
    name, seed, seconds, mode, spans_path = sys.argv[1:6]
    source = json.loads(sys.argv[6]) if len(sys.argv) > 6 else None
    print(json.dumps(run_pass(name, int(seed), float(seconds), mode,
                              spans_path, source)))
