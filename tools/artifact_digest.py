"""SHA-256 digests of the README commands, the benchmark's commands, every
family's matrix export, short runs on the families with stationary states
and LS checks of the parameter families.

Runs each `platelab` line of the README's CLI block, each full-size
command of the four perfbench workloads at seed 1, `assemble --count 5`
of every boundary family on a 16-cell interval and of the four rectangle
families on a 9 x 12 grid, short `simulate`, `decay-fit` and
`resolvent` runs on the three families with a stationary kernel at n = 40
and on neumann_pair at 9 x 12, and `ls-check --samples 300` of the three
parameter families at a non-default a.  Every run has a fresh temporary
directory and `src` on PYTHONPATH, and none of OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS: each run takes the CLI's own BLAS
thread count, whatever the calling shell sets.  The script prints one line
per run: the exit code and the SHA-256 of stdout, of stderr and of each
file the run wrote.  Two checkouts produce byte-identical artifacts
exactly when their outputs are equal, so the check is a diff:

    python3 tools/artifact_digest.py > new.txt   # in each checkout
    diff old.txt new.txt

The commands are read from README.md, perfbench/workloads.py and the
family catalog of platelab.plate; this script changes none of them.  It
takes no options.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
RECTANGLE_FAMILIES = ("hinged", "clamped", "ex4_id_dn2_A", "neumann_pair")
KERNEL_FAMILIES = ("neumann_pair", "ex2_dn2_dn3", "ex5_dn2A_dn3")
KERNEL_RUNS = (("simulate", "--T", "5", "--dt", "0.05"),
               ("decay-fit", "--T", "50", "--dt", "0.5"),
               ("resolvent", "--sigma-grid", "0:20:2"))
PARAMETER_RUNS = (("ex3_dn_dn3_A", "0.5"), ("ex4_id_dn2_A", "-1.3"),
                  ("ex5_dn2A_dn3", "2.2"))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def readme_commands():
    """Argument lists of the `platelab ...` lines in the README CLI block."""
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("```")[1]
    return [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
            if line.startswith("platelab ")]


def perfbench_ops():
    """(workload, argument list with its --out file) of every full-size op."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    return [(name, op.args + ["--out", op.out])
            for name, w in workloads.WORKLOADS.items()
            for op in w.ops(SEED, workloads.SIZES["full"])]


def assemble_commands():
    """Argument lists of `assemble --count 5` for each family in 1-D at
    n = 16 and each rectangle family in 2-D at 9 x 12."""
    sys.path.insert(0, str(ROOT / "src"))
    from platelab.plate import catalog_families
    one_d = [["--n", "16"], catalog_families()]
    two_d = [["--dim", "2", "--n", "9", "--n-y", "12"], RECTANGLE_FAMILIES]
    return [["assemble", "--bc", name, *grid, "--count", "5",
             "--out", f"assemble_{name}"]
            for grid, names in (one_d, two_d) for name in names]


def kernel_commands():
    """Argument lists of each KERNEL_RUNS command on each kernel family at
    n = 40 and on neumann_pair at 9 x 12: the stationary-space paths of the
    generator, the stepper and the resolvent."""
    grids = [(name, ["--n", "40"]) for name in KERNEL_FAMILIES]
    grids.append(("neumann_pair", ["--dim", "2", "--n", "9", "--n-y", "12"]))
    return [[cmd, "--bc", name, *grid, *args, "--out", f"{cmd}_{name}"]
            for name, grid in grids for cmd, *args in KERNEL_RUNS]


def ls_check_commands():
    """Argument lists of `ls-check --samples 300` of each PARAMETER_RUNS
    family at its --bc-param-a."""
    return [["ls-check", "--bc", name, "--bc-param-a", a, "--samples", "300",
             "--seed", str(SEED), "--out", f"ls_check_{name}.json"]
            for name, a in PARAMETER_RUNS]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(argv) -> str:
    """One line: exit code and digests of stdout, stderr and written files."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-m", "platelab.cli", *argv],
                              cwd=tmp, env=env, capture_output=True)
        files = sorted(p for p in Path(tmp).rglob("*") if p.is_file())
        parts = [f"exit={proc.returncode}", f"stdout={_sha(proc.stdout)}",
                 f"stderr={_sha(proc.stderr)}"]
        parts += [f"{p.relative_to(tmp)}={_sha(p.read_bytes())}" for p in files]
    return " ".join(parts)


def main():
    sys.dont_write_bytecode = True     # leave perfbench/ as it is
    runs = ([("README", argv) for argv in readme_commands()] + perfbench_ops()
            + [("assemble", argv) for argv in assemble_commands()]
            + [("kernel", argv) for argv in kernel_commands()]
            + [("ls-check", argv) for argv in ls_check_commands()])
    for label, argv in runs:
        print(f"{label}: {' '.join(argv)}: {digest(argv)}", flush=True)


if __name__ == "__main__":
    main()
