"""Rewrite the golden outputs in tests/golden from the current code.

    PYTHONPATH=src python tests/update_golden.py [NAME ...]

With no names every pinned command is rerun; each must exit with the code
its case in test_golden.CASES expects.  Say in CHANGES.md which files
moved and why.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_golden import CASES, GOLDEN, regenerate  # noqa: E402


def main(names) -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name in names or sorted(CASES):
            data = regenerate(name, Path(scratch))
            old = (GOLDEN / name).read_bytes() if (GOLDEN / name).exists() else None
            (GOLDEN / name).write_bytes(data)
            print(f"{name}: {'unchanged' if old == data else 'written'}")


if __name__ == "__main__":
    main(sys.argv[1:])
