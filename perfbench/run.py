"""platelab benchmark: four workloads run through the platelab CLI.

    python3 perfbench/run.py --workload {sweep,decay,plate,audit} \\
        --seed N --seconds S --trace {0,1}

--trace 0 measures end to end, with tracing off.  It times `setup_s`
(interpreter start plus `import platelab.cli`, its own subprocess, median of
several launches), then runs the workload's commands as
`python -m platelab.cli` subprocesses with `src` on PYTHONPATH, one at a
time (a closed loop with one caller), and repeats the list until --seconds
have passed.  Each child is reaped with os.wait4, so its CPU time and peak
RSS are its own.  Metrics are medians over the repetitions.

--trace 1 reports the per-layer metrics: layers.py runs the same commands
in-process with each layer's public functions wrapped, once with default
BLAS threading and once with OPENBLAS_NUM_THREADS=1 for the `.blas1`
metrics.

Children see default BLAS threading and no PLATELAB_THREADS, as a user who
just installed the package would.  Every command's exit code and artifact
are checked (see workloads.py); a mismatch counts as a failed operation.
The last line of standard output is the JSON result.  A full result
record with the run manifest, and the spans of the latest traced run of
each workload, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS",
               "PLATELAB_THREADS")
SETUP_PER_REP = 1
MIN_REPS = 3
DEADLINE_S = 170.0     # every run ends well inside the 180 s allowed


class BenchError(Exception):
    """The benchmark cannot run here (for example, no platelab sources)."""


def child_env(blas1=False):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    if blas1:
        env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_child(argv, env, deadline, stdout=subprocess.DEVNULL):
    """Run one child to completion; (exit code, wall s, cpu s, peak RSS MB).
    A child still running at the deadline is killed and reaped."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=stdout,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.perf_counter() >= deadline:
        raise BenchError(f"{argv[2:5]} overran the {DEADLINE_S:.0f} s budget")
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def manifest(workload, seed, deadline):
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True).stdout.strip() or sha
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    probe = ("import json, numpy, scipy; "
             "blas = numpy.__config__.CONFIG['Build Dependencies']['blas']; "
             "print(json.dumps({'numpy': numpy.__version__, "
             "'scipy': scipy.__version__, "
             "'blas': blas['name'] + ' ' + str(blas['version'])}))")
    with tempfile.TemporaryFile(dir=workloads.work_dir()) as fh:
        run_child([sys.executable, "-c", probe], child_env(), deadline, fh)
        fh.seek(0)
        versions = json.loads(fh.read() or b"{}")
    return {"workload": workload, "seed": seed, "git_sha": sha,
            "src_lines": src_lines, "nproc": os.cpu_count(),
            "python": platform.python_version(), **versions,
            "env_seen": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "PLATELAB_THREADS")},
            "children_env": "default BLAS threads, PLATELAB_THREADS unset"}


def end_to_end(workload, seed, seconds, deadline):
    """Repetitions of the command list, each preceded by setup launches so
    that setup_s samples the same stretch of time as the jobs."""
    env = child_env()
    ops = workloads.WORKLOADS[workload].ops(seed, workloads.SIZES["full"])
    reps, failures, setup = [], [], []
    with tempfile.TemporaryDirectory(dir=workloads.work_dir()) as tmp:
        t0 = time.perf_counter()
        while len(reps) < MIN_REPS or (
                time.perf_counter() - t0
                + statistics.median(r["job_s"] for r in reps) <= seconds):
            for _ in range(SETUP_PER_REP):
                code, wall, _, _ = run_child(
                    [sys.executable, "-c", "import platelab.cli"], env, deadline)
                if code != 0:
                    raise BenchError("`import platelab.cli` failed")
                setup.append(wall)
            rep = {"job_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "work": 0}
            for op in ops:
                out = Path(tmp) / op.out
                code, wall, cpu, rss = run_child(
                    [sys.executable, "-m", "platelab.cli", *op.args,
                     "--out", str(out)], env, deadline)
                problems, work = workloads.check_op(op, code, out)
                if problems:
                    failures.append("; ".join(problems))
                rep["job_s"] += wall
                rep["cpu_s"] += cpu
                rep["peak_rss_mb"] = max(rep["peak_rss_mb"], rss)
                rep["work"] += work
            reps.append(rep)
    med = {k: statistics.median(r[k] for r in reps)
           for k in ("job_s", "cpu_s", "peak_rss_mb")}
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "job_s": (med["job_s"], "s", len(reps)),
        "cpu_s": (med["cpu_s"], "s", len(reps)),
        "peak_rss_mb": (med["peak_rss_mb"], "MB", len(reps)),
        "work_per_s": (statistics.median(r["work"] / r["job_s"] for r in reps),
                       "1/s", len(reps)),
    }
    detail = {"reps": reps, "setup_walls": setup,
              "work_unit": workloads.WORKLOADS[workload].work_unit}
    return metrics, len(ops) * len(reps), failures, detail


def per_layer(workload, seed, seconds, deadline):
    """The traced pass in a child with default threads, then the BLAS1
    repeat in a child with one BLAS thread."""
    OUT.mkdir(exist_ok=True)
    results = {}
    source = None
    for mode in ("default", "blas1"):
        spans = OUT / f"spans-{workload}-{mode}.jsonl.gz"
        argv = [sys.executable, str(HERE / "layers.py"), workload, str(seed),
                repr(seconds), mode, str(spans)]
        if source is not None:
            argv.append(json.dumps(source))
        with tempfile.TemporaryFile(dir=workloads.work_dir()) as fh:
            code, *_ = run_child(argv, child_env(blas1=mode == "blas1"),
                                 deadline, fh)
            fh.seek(0)
            text = fh.read().decode()
        if code != 0:
            raise BenchError(f"traced pass ({mode}) exited {code}")
        results[mode] = json.loads(text.strip().splitlines()[-1])
        source = source or results[mode]["source"]
    metrics = {}
    for mode, res in results.items():
        suffix = ".blas1" if mode == "blas1" else ""
        for name, (value, n) in res["metrics"].items():
            metrics[name + suffix] = (value, layers.UNITS[name], n)
    attempted = sum(r["attempted"] for r in results.values())
    failures = [f for r in results.values() for f in r["failures"]]
    return metrics, attempted, failures, {"source": source}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    try:
        if not (SRC / "platelab" / "cli.py").is_file():
            raise BenchError(f"no platelab sources under {SRC}")
        info = manifest(args.workload, args.seed, deadline)
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failures, detail = measure(
            args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(f"manifest: {json.dumps(info, sort_keys=True)}")
    # n: samples behind the value; source (per-layer): "own" replays of
    # this workload, the small probe of another workload, or the direct
    # resolvent_norm calls ("points")
    source = detail.get("source", {})
    print(f"{'metric':44s} {'value':>14s} {'unit':>6s} {'n':>6s}  source")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit:>6s} {n:6d}  "
              f"{source.get(name.removesuffix('.blas1'), '')}")
    print(f"{'fail_ratio':44s} {len(failures) / attempted:14.6g} {'ratio':>6s} "
          f"{attempted:6d}")
    for f in failures[:20]:
        print(f"FAILED {f}")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u, _) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"manifest": info, "result": result,
                                  "failures": failures, **detail},
                                 indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
