"""Compare this tree's command outputs with those of another checkout, byte for byte.

    python tests/compare_outputs.py PARENT_DIR
    python tests/compare_outputs.py REVISION      # e.g. HEAD or HEAD~1

A REVISION that is not a directory is exported with ``git archive`` into a
temporary directory, which is removed afterwards.  Runs every pinned golden
command (test_golden.CASES) and every command of the benchmark workloads
(perfbench/workloads.py) at seeds 0 and 1, each as a fresh ``python -m
atomlaser`` process, once on PARENT_DIR/src and once on this tree's src.  Each command prints ``identical``, or its exit codes if they differ and
test_golden.describe_mismatch's first difference and worst move relative to
1 + |x|.  The exit code is 1 if any command differs.
"""

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
sys.path[:0] = [str(TESTS), str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from test_golden import CASES, describe_mismatch  # noqa: E402

SEEDS = (0, 1)


def pinned_commands():
    """(label, argv, suffix) of each golden case, then of each workload command."""
    for name, (argv, _) in sorted(CASES.items()):
        yield name, argv, Path(name).suffix
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for command in workloads.commands(workload, seed):
                label = f"{workload} seed {seed}: {' '.join(command.argv)}"
                yield label, command.argv, command.suffix


def run(src: Path, argv, out: Path):
    """Exit code and output bytes of ``atomlaser argv --out out`` on the package in src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "atomlaser", *argv, "--out", str(out)],
                          env=env, cwd=out.parent, capture_output=True)
    return done.returncode, out.read_bytes() if out.exists() else b""


def main(parent: Path) -> int:
    if not (parent / "src" / "atomlaser").is_dir():
        print(f"{parent} holds no src/atomlaser", file=sys.stderr)
        return 2
    differ = 0
    with tempfile.TemporaryDirectory() as scratch:
        for i, (label, argv, suffix) in enumerate(pinned_commands()):
            (old_code, old), (new_code, new) = (
                run(src, argv, Path(scratch) / f"{i}-{side}{suffix}")
                for side, src in (("parent", parent / "src"), ("change", ROOT / "src")))
            if (old_code, old) == (new_code, new):
                print(f"{label}: identical")
                continue
            differ += 1
            print(f"{label}: differs")
            if old_code != new_code:
                print(f"  exit code {old_code} -> {new_code}")
            if old != new:
                print(*describe_mismatch(label, old.decode(), new.decode()).splitlines()[1:],
                      sep="\n")
    print(f"{differ} of {i + 1} commands differ")
    return 1 if differ else 0


def export(revision: str, into: Path) -> Path:
    """Extract the tree of a git revision of this repository into a directory."""
    done = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", revision],
                          capture_output=True)
    if done.returncode:
        sys.exit(f"{revision} is neither a directory nor a git revision: "
                 f"{done.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as archive:
        archive.extractall(into, filter="data")
    return into


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    if Path(sys.argv[1]).is_dir():
        sys.exit(main(Path(sys.argv[1]).resolve()))
    with tempfile.TemporaryDirectory() as checkout:
        sys.exit(main(export(sys.argv[1], Path(checkout))))
