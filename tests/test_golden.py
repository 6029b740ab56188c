"""Golden outputs: each pinned command must reproduce its file in tests/golden byte for byte.

A mismatch names the file, the first differing row and column, and the worst
numeric difference relative to 1 + |x|, so a roundoff move (about 1e-15) reads
apart from a fault.  ``python tests/update_golden.py`` rewrites the files; a
change that moves them says which ones and why.
"""

import hashlib
import math
import re
from pathlib import Path

import pytest

from atomlaser import oracle
from atomlaser.cli import main

GOLDEN = Path(__file__).parent / "golden"
STEPS = ("--steps", "16")

# name -> (argv, expected exit code)
CASES = {
    "simulate-default.csv": (("simulate", *STEPS), 0),
    "simulate-omega0-5.csv": (("simulate", *STEPS, "--omega0", "5"), 0),
    "simulate-m-re-0.5-theta-0.7.csv": (
        ("simulate", *STEPS, "--m-re", "0.5", "--theta", "0.7"), 0,
    ),
    "simulate-closed-forms.csv": (
        ("simulate", *STEPS, "--sources", "literal-paper,moment-map"), 0,
    ),
    "verify-default.txt": (("verify", *STEPS), 0),
    "verify-m-re-0.5.txt": (("verify", *STEPS, "--m-re", "0.5"), 0),
    # off-grid anchors: the oracle runs on the union of grid and anchor times
    "verify-r-0.5-theta-0.3.txt": (("verify", *STEPS, "--r", "0.5", "--theta", "0.3"), 0),
    "sweep-deep-squeeze.csv": (
        ("sweep", "--axis", "r", "--values", "0.75,1.25", "--n-max", "160", *STEPS), 0,
    ),
    # values that differ only in theta share one oracle pass, each light with its own theta
    "sweep-theta-m-re-0.5.csv": (
        ("sweep", "--axis", "theta", "--values", "0,0.7", "--m-re", "0.5", *STEPS), 0,
    ),
    # one pass per omega0, the second off resonance
    "sweep-omega0-4-5.csv": (("sweep", "--axis", "omega0", "--values", "4,5", *STEPS), 0),
    # every block populated, off resonance, complex pair weights; 17 steps make the
    # coarse-by-fine phase span (20) wider than the time count
    "simulate-detuned-complex-m.csv": (
        ("simulate", "--steps", "17", "--omega0", "5", "--theta", "0.3", "--m-re", "0.4",
         "--m-im", "0.2", "--phi", "0.2"), 0,
    ),
    "converge-deep-squeeze.csv": (("converge", "--values", "96,128,160", *STEPS), 0),
    # 32 and 48 levels hold r = 1 only at the permissive deficit: mixed statuses, exit 2
    "converge-low-cutoffs.csv": (("converge", "--values", "32,48,64", "--r", "1", *STEPS), 2),
}


def regenerate(name: str, directory: Path) -> bytes:
    """Run the command pinned as ``name``, writing into ``directory``; check its exit
    code and return its bytes."""
    argv, code = CASES[name]
    out = directory / name
    assert main([*argv, "--out", str(out)]) == code
    return out.read_bytes()


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def describe_mismatch(name: str, expected: str, actual: str) -> str:
    """Where two outputs first differ, and their worst numeric difference."""
    split = re.compile(r"[,\s]+")
    old_lines, new_lines = expected.splitlines(), actual.splitlines()
    first, worst, at = None, 0.0, None
    for row, (old, new) in enumerate(zip(old_lines, new_lines), 1):
        if old == new:
            continue
        old_tokens, new_tokens = split.split(old.strip()), split.split(new.strip())
        if len(old_tokens) != len(new_tokens):
            first = first or (row, None)
            continue
        for col, (a, b) in enumerate(zip(old_tokens, new_tokens), 1):
            if a == b:
                continue
            first = first or (row, col)
            x, y = _number(a), _number(b)
            move = math.inf if x is None or y is None else abs(y - x) / (1.0 + abs(x))
            if not move <= worst:
                worst, at = move, (row, col, a, b)
    lines = [f"{name} differs from tests/golden/{name}"]
    if len(old_lines) != len(new_lines):
        lines.append(f"  {len(old_lines)} lines pinned, {len(new_lines)} written")
    if first is not None:
        row, col = first
        lines.append(f"  first difference: row {row}" + ("" if col is None else f", column {col}"))
    if at is not None:
        row, col, a, b = at
        lines.append(
            f"  worst difference relative to 1 + |x|: {worst:.3g} at row {row}, column {col} "
            f"({a} -> {b})"
        )
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_its_golden_file(tmp_path, name):
    expected = (GOLDEN / name).read_bytes()
    actual = regenerate(name, tmp_path)
    if actual != expected:
        pytest.fail(describe_mismatch(name, expected.decode(), actual.decode()), pytrace=False)


def test_mismatch_report_names_the_place_and_the_size():
    expected = "t,x\n0,1.0000000000000000\n1,2\n"
    actual = "t,x\n0,1.0000000000000002\n1,2\n"
    report = describe_mismatch("f.csv", expected, actual)
    assert "row 2, column 2" in report
    assert "relative to 1 + |x|: 1.11e-16" in report


# sha256 of simulate-default.csv with every resonant block solved whole by dstevd
DSTEVD_SIMULATE_DEFAULT = "dc17522ae2c5764390fae4a1326239006daf6765797b14ea10cd9aa76bb83454"


def test_without_numpy_dbdsdc_the_blocks_take_dstevd_and_its_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(oracle, "_numpy_dbdsdc", lambda: None)
    monkeypatch.setattr(oracle, "eigh_chiral", None)  # a call would raise
    data = regenerate("simulate-default.csv", tmp_path)
    assert hashlib.sha256(data).hexdigest() == DSTEVD_SIMULATE_DEFAULT
    # the complex path and the real one agree to roundoff
    pinned = (GOLDEN / "simulate-default.csv").read_text().splitlines()
    written = data.decode().splitlines()
    assert written[0] == pinned[0] and len(written) == len(pinned)
    moves = [abs(float(b) - float(a)) / (1.0 + abs(float(a)))
             for old, new in zip(pinned[1:], written[1:])
             for a, b in zip(old.split(","), new.split(",")) if a != b]
    assert max(moves, default=0.0) <= 1e-13
