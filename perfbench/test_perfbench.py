"""Tests of the benchmark's own code: a small-size smoke run of every
workload, end to end and traced, and checks that corrupted artifacts are
caught and counted as failed operations.

    python3 -m pytest perfbench -q
"""

import contextlib
import gzip
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from platelab import cli, lscheck  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture
def small(monkeypatch):
    """Run the benchmark at the small size, once, with one setup launch."""
    monkeypatch.setitem(workloads.SIZES, "full", workloads.SIZES["small"])
    monkeypatch.setattr(run, "MIN_REPS", 1)
    monkeypatch.setattr(run, "SETUP_PER_REP", 1)


def deadline():
    return run.time.perf_counter() + 120.0


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_smoke(small, name):
    metrics, attempted, failures, detail = run.end_to_end(name, 3, 0.0, deadline())
    assert failures == []
    assert attempted == len(workloads.WORKLOADS[name].ops(3, workloads.SIZES["small"]))
    assert set(metrics) == {"setup_s", "job_s", "cpu_s", "peak_rss_mb", "work_per_s"}
    assert all(v > 0 for v, _, _ in metrics.values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_smoke(small, tmp_path, name):
    res = layers.run_pass(name, 3, 0.0, "default", tmp_path / "spans.jsonl.gz")
    assert res["failures"] == []
    assert set(res["metrics"]) == set(layers.UNITS)
    counts = ("symbols.classify_roots.calls", "weights.gamma_search.evaluations",
              "weights.characteristic_samples")
    assert all(res["metrics"][m][0] > 0 for m in counts)
    assert res["metrics"]["lscheck.agree_ratio"][0] == 1.0
    # the wrappers are gone once the pass ends
    assert not hasattr(cli.write_csv, "__wrapped__")
    assert not hasattr(lscheck.classify_roots, "__wrapped__")
    with gzip.open(tmp_path / "spans.jsonl.gz", "rt") as fh:
        rows = [json.loads(line) for line in fh]
    assert rows[0][:2] == ["id", "name"]
    assert {r[1] for r in rows[1:]} >= {"plate.assemble", "semigroup.resolvent_norm"}


def _halve_norm(path):
    lines = path.read_text().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln[:1].isdigit()) + 2
    cols = lines[k].split(",")
    cols[1] = repr(float(cols[1]) / 2)
    lines[k] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")


def _raise_energy(path):
    lines = path.read_text().splitlines()
    k = len(lines) // 2
    cols = lines[k].split(",")
    cols[1] = repr(float(cols[1]) * 1.01)
    lines[k] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")


def _shift_eigenvalue(path):
    lines = path.read_text().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("0,"))
    lines[k] = "0," + repr(float(lines[k].split(",")[1]) * 1.01)
    path.write_text("\n".join(lines) + "\n")


def _drop_ls_sample(path):
    rec = json.loads(path.read_text())
    rec["conjugated"]["passed"] -= 1
    path.write_text(json.dumps(rec))


CORRUPT = {"sweep": _halve_norm, "decay": _raise_energy,
           "plate": _shift_eigenvalue, "audit": _drop_ls_sample}


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_artifact_is_caught(tmp_path, name):
    op = workloads.WORKLOADS[name].ops(0, workloads.SIZES["small"])[0]
    out = tmp_path / op.out
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(op.args + ["--out", str(out)])
    text = out.read_text()
    assert workloads.check_op(op, code, out)[0] == []
    out.write_text(text)
    CORRUPT[name](out)
    problems, _ = workloads.check_op(op, code, out)
    assert problems
    assert not out.exists()


def test_corruption_counts_in_fail_ratio(small, monkeypatch):
    """One halved resolvent norm per repetition fails that operation."""
    wl = workloads.WORKLOADS["sweep"]
    real_ops = wl.ops

    def corrupted_ops(seed, size):
        ops = real_ops(seed, size)
        for op in ops:
            check = op.check
            op.check = lambda path, check=check: (_halve_norm(path), check(path))[1]
        return ops

    monkeypatch.setattr(wl, "ops", corrupted_ops)
    _, attempted, failures, _ = run.end_to_end("sweep", 0, 0.0, deadline())
    assert attempted == 1 and len(failures) == 1
    assert "norm * dist >= 1" in failures[0]


def test_no_sources_exits_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "audit", "--seed", "0", "--seconds", "1",
                     "--trace", "0"]) != 0
    assert '"correct"' not in capsys.readouterr().out
