"""scipy stays unloaded, and a run maps one OpenBLAS.

The oracle solves its blocks with the LAPACK dstevd and dbdsdc of the OpenBLAS
numpy already loaded, so no run loads scipy (and its second OpenBLAS).  Where
numpy exports none, numpy's eigh solves the blocks and writes the bytes of
numpy's dstevd.  Each case runs in a fresh isolated interpreter, so no module
this test session already imported can hide an import.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from atomlaser import oracle
from atomlaser.cli import main
from atomlaser.oracle import _numpy_dstevd

SRC = Path(__file__).resolve().parent.parent / "src"

needs_numpy_dstevd = pytest.mark.skipif(
    _numpy_dstevd() is None, reason="numpy's LAPACK exports no scipy_LAPACKE_dstevd64_"
)


def isolated_output(tmp_path, code):
    """Run ``code`` in ``python -I`` after putting the checkout first on sys.path;
    return its last line of stdout."""
    script = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
    done = subprocess.run(
        [sys.executable, "-I", "-c", script], capture_output=True, text=True,
        cwd=tmp_path, timeout=120, check=True,
    )
    return done.stdout.splitlines()[-1]


def loaded_modules(tmp_path, code):
    """The names in sys.modules that start with 'scipy' after ``code`` ran."""
    report = "print(' '.join(sorted(name for name in sys.modules if name.startswith('scipy'))))"
    return isolated_output(tmp_path, f"{code}\n{report}").split()


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


@needs_numpy_dstevd
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_an_oracle_run_loads_no_scipy(tmp_path, command):
    code = after_main([command, "--out", str(tmp_path / "out.txt")])
    assert loaded_modules(tmp_path, code) == []
    assert (tmp_path / "out.txt").stat().st_size > 0


def test_without_numpy_dstevd_numpy_eigh_solves_the_blocks_to_the_same_bytes(
    tmp_path, monkeypatch
):
    fast, fallback = tmp_path / "fast.csv", tmp_path / "fallback.csv"
    # without numpy's LAPACKE no half goes to dbdsdc either: the reference solves every
    # half with numpy's dstevd
    monkeypatch.setattr(oracle, "_numpy_dbdsdc", lambda: None)
    assert main(["simulate", "--steps", "8", "--out", str(fast)]) == 0
    # the lookup opens the linalg extension's file: point it at none
    code = (
        "import numpy.linalg._umath_linalg as extension\n"
        f"extension.__file__ = {str(tmp_path / 'missing.so')!r}\n"
        + after_main(["simulate", "--steps", "8", "--out", str(fallback)])
    )
    assert loaded_modules(tmp_path, code) == []
    assert fallback.read_bytes() == fast.read_bytes()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
@needs_numpy_dstevd
def test_an_oracle_run_maps_one_openblas(tmp_path):
    code = after_main(["simulate", "--out", str(tmp_path / "out.csv")]) + (
        "\nwith open('/proc/self/maps') as maps:\n"
        "    fields = [line.split(maxsplit=5) for line in maps]\n"
        "print('|'.join(sorted({f[5].strip() for f in fields if len(f) == 6})))"
    )
    names = isolated_output(tmp_path, code).split("|")
    openblas = [name for name in names if "openblas" in Path(name).name]
    assert len(openblas) == 1, openblas
