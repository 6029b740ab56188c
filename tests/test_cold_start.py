"""scipy loads only when the oracle solves its first Fock block.

Each case runs in a fresh isolated interpreter, so no module this test
session already imported can hide an eager import.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_modules(tmp_path, code):
    """Run ``code`` after putting the checkout first on sys.path; return the
    names in sys.modules that start with 'scipy'."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        f"{code}\n"
        "print(' '.join(sorted(name for name in sys.modules if name.startswith('scipy'))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", script], capture_output=True, text=True,
        cwd=tmp_path, timeout=120, check=True,
    )
    return done.stdout.splitlines()[-1].split()


def after_main(argv):
    """Code that calls cli.main(argv) and keeps going when it exits through argparse."""
    return (
        "from atomlaser.cli import main\n"
        "try:\n"
        f"    main({argv!r})\n"
        "except SystemExit:\n"
        "    pass"
    )


@pytest.mark.parametrize(
    "code",
    [
        "import atomlaser.cli",
        after_main(["simulate", "--sources", "literal-paper,moment-map", "--steps", "8"]),
        after_main(["--help"]),
        after_main(["simulate", "--bogus"]),
    ],
    ids=["import", "closed-form-simulate", "help", "usage-error"],
)
def test_a_run_that_solves_no_block_never_loads_scipy(tmp_path, code):
    assert loaded_modules(tmp_path, code) == []


def test_a_run_with_the_oracle_loads_scipy_linalg(tmp_path):
    code = after_main(["simulate", "--steps", "8"])
    assert "scipy.linalg" in loaded_modules(tmp_path, code)
