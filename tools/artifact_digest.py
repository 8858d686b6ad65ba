"""SHA-256 digests of the README commands and the benchmark's commands.

Runs each `platelab` line of the README's CLI block and each full-size
command of the four perfbench workloads at seed 1, every run in a fresh
temporary directory with `src` on PYTHONPATH, and prints one line per run:
the exit code and the SHA-256 of stdout, of stderr and of each file the run
wrote.  Two checkouts produce byte-identical artifacts exactly when their
outputs are equal, so the check is a diff:

    python3 tools/artifact_digest.py > new.txt   # in each checkout
    diff old.txt new.txt

The commands are read from README.md and perfbench/workloads.py; this
script changes neither.  It takes no options.
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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(argv) -> str:
    """One line: exit code and digests of stdout, stderr and written files."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
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
    runs = [("README", argv) for argv in readme_commands()] + perfbench_ops()
    for label, argv in runs:
        print(f"{label}: {' '.join(argv)}: {digest(argv)}", flush=True)


if __name__ == "__main__":
    main()
