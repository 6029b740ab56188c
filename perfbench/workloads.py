"""The benchmark workloads: fixed lists of atomlaser CLI commands.

Seed 0 gives the reference argv.  Any other seed redraws only parameters that
leave the work unchanged: the condensate phase theta, the squeeze angle phi
where no closed form depends on it, small squeeze offsets that keep the Fock
cutoff (auto or pinned) valid, and the coherent amplitude of the real-input
verify inside the band where the auto cutoff stays at 87.  Cutoffs, step
counts, sources and the command list never change with the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

ALL_SOURCES = ("literal-paper", "moment-map", "oracle")
CLOSED_FORM_SOURCES = ("literal-paper", "moment-map")
PHYSICS = (
    "na_mean", "na_var", "nb_mean", "nb_var", "q_a", "q_b",
    "s1a", "s2a", "s1b", "s2b", "ntotal",
)
SQUEEZE = frozenset(("s1a", "s2a", "s1b", "s2b"))

# Verdict tables of `atomlaser verify` at the commit that introduced this
# benchmark.  The vacuum and phase-shifted scenarios register all thirteen
# formulas; a real coherent amplitude registers four.
VACUUM_VERDICTS = (
    ("conversion-number-transfer", "CONFIRMED"),
    ("light-number-mean", "CONFIRMED"),
    ("atom-number-variance-at-conversion", "CONFIRMED"),
    ("q-pair-vacuum", "CONFIRMED"),
    ("atom-squeeze-pair", "CONFIRMED"),
    ("atom-squeeze-aligned-phase", "CONFIRMED"),
    ("atom-squeeze-crossed-phase", "CONFIRMED"),
    ("light-number-square-vacuum", "TYPO-SUSPECT"),
    ("light-number-variance-vacuum", "TYPO-SUSPECT"),
    ("atom-number-variance-vacuum", "TYPO-SUSPECT"),
    ("atom-number-mean-vacuum", "TYPO-SUSPECT"),
    ("atom-squared-amplitude-vacuum", "CONFIRMED"),
    ("q-pair-real-input", "TYPO-SUSPECT"),
)
REAL_INPUT_VERDICTS = (
    ("conversion-number-transfer", "CONFIRMED"),
    ("light-number-mean", "CONFIRMED"),
    ("atom-number-variance-at-conversion", "CONFIRMED"),
    ("q-pair-real-input", "TYPO-SUSPECT"),
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must look like.

    ``argv`` excludes ``--out``, which the runner appends.  ``rows`` counts
    CSV data rows, or verdict rows for ``verify``.  ``literal_na`` names the
    literal-paper columns that fall outside the closed forms' domain and are
    therefore written as NA.
    """

    argv: tuple[str, ...]
    rows: int
    sources: tuple[str, ...] = ALL_SOURCES
    literal_na: frozenset = frozenset()
    verdicts: tuple[tuple[str, str], ...] = ()

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def suffix(self) -> str:
        return ".txt" if self.kind == "verify" else ".csv"


# why each workload exists: see BENCHMARK.json and README.md
WORKLOADS = ("long-grid", "deep-squeeze", "closed-form-grid", "adjudicate")


class _Draw:
    """Seeded parameter draws; seed 0 draws nothing, so the argv stays reference."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed) if seed else None

    def flag(self, name: str, lo: float, hi: float) -> list[str]:
        if self._rng is None:
            return []
        return [name, f"{self._rng.uniform(lo, hi):.6f}"]

    def value(self, reference: float, lo: float, hi: float) -> str:
        if self._rng is None:
            return f"{reference:g}"
        return f"{self._rng.uniform(lo, hi):.6f}"


def commands(workload: str, seed: int) -> list[Command]:
    """The command list of ``workload`` with parameters drawn from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    draw = _Draw(seed)
    turn = 2.0 * math.pi
    # r <= 1 keeps the default input inside the auto cutoff of 64
    vacuum_r = ("--r", 0.9, 1.0)

    if workload == "long-grid":
        steps = ("--steps", "2000")
        return [
            Command(
                ("simulate", *steps, *draw.flag(*vacuum_r), *draw.flag("--theta", 0.0, turn)),
                rows=2000 * 3,
            ),
            Command(
                ("simulate", *steps, "--omega0", "5",
                 *draw.flag(*vacuum_r), *draw.flag("--theta", 0.0, turn)),
                rows=2000 * 3,
                literal_na=frozenset(PHYSICS),  # closed forms need resonance
            ),
        ]
    if workload == "deep-squeeze":
        values = ",".join((draw.value(0.75, 0.7, 0.8), draw.value(1.25, 1.2, 1.3)))
        return [
            Command(
                ("sweep", "--axis", "r", "--values", values, "--n-max", "160",
                 "--steps", "40", *draw.flag("--theta", 0.0, turn)),
                rows=2 * 40 * 3,
            ),
            Command(
                ("converge", "--values", "96,128,160", "--steps", "40",
                 *draw.flag(*vacuum_r), *draw.flag("--phi", 0.0, math.pi),
                 *draw.flag("--theta", 0.0, turn)),
                rows=3 * 40 + 2 + 1,  # per-cutoff rows, two deltas, the result
            ),
        ]
    if workload == "closed-form-grid":
        base = ("simulate", "--sources", ",".join(CLOSED_FORM_SOURCES), "--steps", "10000")
        return [
            Command(
                (*base, *draw.flag(*vacuum_r), *draw.flag("--theta", 0.0, turn)),
                rows=10000 * 2,
                sources=CLOSED_FORM_SOURCES,
            ),
            # r stays 1: with m != 0 the auto cutoff moves with r
            Command(
                (*base, "--m-re", "0.5", *draw.flag("--theta", 0.0, turn)),
                rows=10000 * 2,
                sources=CLOSED_FORM_SOURCES,
                literal_na=SQUEEZE,  # squeeze closed forms need m = 0
            ),
        ]
    # adjudicate: vacuum, real-input and phase-shifted verdict branches
    return [
        Command(("verify", *draw.flag(*vacuum_r)), rows=13, verdicts=VACUUM_VERDICTS),
        Command(
            ("verify", "--m-re", draw.value(0.5, 0.495, 0.505)),
            rows=4,
            verdicts=REAL_INPUT_VERDICTS,
        ),
        Command(
            ("verify", "--r", draw.value(0.5, 0.45, 0.55),
             "--theta", draw.value(0.3, 0.1, 1.5)),
            rows=13,
            verdicts=VACUUM_VERDICTS,
        ),
    ]
