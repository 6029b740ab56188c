"""Compare this tree's command outputs with those of another checkout, byte for byte.

    python tests/compare_outputs.py PARENT_DIR
    python tests/compare_outputs.py REVISION      # e.g. HEAD or HEAD~1

A REVISION that is not a directory is exported with ``git archive`` into a
temporary directory, which is removed afterwards.  Runs every pinned golden
command (test_golden.CASES), every command of the benchmark workloads
(perfbench/workloads.py) at seeds 0 and 1 and the EDGE_CASES below, each as a
fresh ``python -m atomlaser`` process, once on PARENT_DIR/src and once on this
tree's src.  Each command prints ``identical``, or its exit codes and stderr if
they differ and test_golden.describe_mismatch's first difference and worst move
relative to 1 + |x|.  stdout names the output path, which differs by side, so it
is not compared.  The exit code is 1 if any command differs.
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

# Paths that neither the golden files nor the workloads reach, each of which a change to
# its code had to check by hand: converge's per-cutoff inputs at mixed statuses (cutoffs
# too small to report, truncation-insufficient and ok); the vacuum (r = 0) and inputs
# whose r^2 or m^2 underflows (1e-161), where the q forms leave their domain; verify's
# anchors at zero rotation, far off the grid and shifted by theta; an input whose
# sinh overflows, which exits 2 and writes no file; and verify's tolerances, each tight
# enough to leave verdicts unresolved (exit 4)
EDGE_CASES = (
    ("converge", "--values", "8,16,24,32,64"),
    ("converge", "--r", "1.5", "--values", "20,40,80,120,160"),
    ("converge", "--m-re", "3", "--values", "10,30,60,90"),
    ("converge", "--r", "0.5", "--m-re", "0.5", "--m-im", "0.3", "--phi", "0.4",
     "--values", "30,40,50", "--steps", "20"),
    ("converge", "--r", "0.5", "--values", "20,30,40,64,80"),
    ("converge", "--r", "3", "--values", "4,8"),
    ("sweep", "--axis", "r", "--values", "0,0.5,1"),
    ("simulate", "--r", "0"),
    ("verify", "--omega0", "0", "--omega-a", "0"),
    ("verify", "--omega-r", "3.7", "--t-max", "35"),
    ("verify", "--theta", "0.3", "--omega0", "7.3", "--omega-a", "7.3"),
    ("verify", "--r", "1e-161"),
    ("simulate", "--r", "0", "--m-re", "1e-161"),
    ("verify", "--r", "800", "--n-max", "64"),
    ("verify", "--tol-algebraic", "1e-17"),
    ("verify", "--m-re", "0.5", "--tol-oracle", "0"),
)


def pinned_commands():
    """(label, argv, suffix) of each golden case, each workload command and each edge case."""
    for name, (argv, _) in sorted(CASES.items()):
        yield name, argv, Path(name).suffix
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for command in workloads.commands(workload, seed):
                label = f"{workload} seed {seed}: {' '.join(command.argv)}"
                yield label, command.argv, command.suffix
    for argv in EDGE_CASES:
        yield " ".join(argv), argv, ".txt" if argv[0] == "verify" else ".csv"


def run(src: Path, argv, out: Path):
    """Exit code, stderr and output bytes of ``atomlaser argv --out out`` on the package
    in src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "atomlaser", *argv, "--out", str(out)],
                          env=env, cwd=out.parent, capture_output=True)
    return done.returncode, done.stderr, out.read_bytes() if out.exists() else b""


def main(parent: Path) -> int:
    if not (parent / "src" / "atomlaser").is_dir():
        print(f"{parent} holds no src/atomlaser", file=sys.stderr)
        return 2
    differ = 0
    with tempfile.TemporaryDirectory() as scratch:
        for i, (label, argv, suffix) in enumerate(pinned_commands()):
            (old_code, old_err, old), (new_code, new_err, new) = (
                run(src, argv, Path(scratch) / f"{i}-{side}{suffix}")
                for side, src in (("parent", parent / "src"), ("change", ROOT / "src")))
            if (old_code, old_err, old) == (new_code, new_err, new):
                print(f"{label}: identical")
                continue
            differ += 1
            print(f"{label}: differs")
            if old_code != new_code:
                print(f"  exit code {old_code} -> {new_code}")
            if old_err != new_err:
                print(f"  stderr {old_err.decode()!r} -> {new_err.decode()!r}")
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
