"""tools/artifact_digest.py: it finds its commands (none is run here)."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_artifact_digest_finds_readme_lines_and_benchmark_ops():
    spec = importlib.util.spec_from_file_location(
        "artifact_digest", ROOT / "tools" / "artifact_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    readme = digest.readme_commands()
    assert len(readme) == 14
    assert all(argv and not argv[0].startswith("-") for argv in readme)
    ops = digest.perfbench_ops()
    assert len(ops) == 17
    assert {name for name, _ in ops} == {"sweep", "decay", "plate", "audit"}
    assert all(argv[-2] == "--out" for _, argv in ops)
    exports = digest.assemble_commands()
    assert len(exports) == 11
    assert all(argv[0] == "assemble" and argv[-2] == "--out" for argv in exports)
    assert len({argv[-1] for argv in exports if "--dim" not in argv}) == 7
    runs = digest.kernel_commands()
    assert len(runs) == 12
    assert {argv[0] for argv in runs} == {"simulate", "decay-fit", "resolvent"}
    checks = digest.ls_check_commands()
    assert len(checks) == 3
    assert all(argv[0] == "ls-check" and "--bc-param-a" in argv
               for argv in checks)
