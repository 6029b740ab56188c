"""Output checks for one CLI command of a workload.

Each check returns a list of failure messages; an empty list means the output
passed.  The expectations (headers, row counts, verdicts, tolerances) are
written out here rather than imported from atomlaser, so a change to the
program's output shows up as a failed check.
"""

from __future__ import annotations

import math
from collections import defaultdict

from workloads import PHYSICS, Command

SIMULATE_HEADER = "t,source," + ",".join(PHYSICS) + ",n_max,tail_mass"
SWEEP_HEADER = "axis,value," + SIMULATE_HEADER
CONVERGE_HEADER = "kind,n_max,status,t," + ",".join(PHYSICS) + ",max_delta"

# mean occupation at or below which the CLI writes Mandel Q as NA
Q_MEAN_FLOOR = 1e-12
# the CLI's default --tol-oracle; verify scales it by tail_mass * n_max**2
TOL_ORACLE = 1e-6
# relative drift of the total occupation n_a + n_b that counts as a violation
TOL_CONSERVATION = 1e-9


def check_command(cmd: Command, text: str) -> list[str]:
    """Every check that applies to ``cmd``'s output ``text``."""
    if cmd.kind == "verify":
        return check_verdicts(text, cmd.verdicts)
    if cmd.kind == "converge":
        failures, rows = parse_table(text, CONVERGE_HEADER, cmd.rows)
        if failures:
            return failures
        return check_converge(rows)
    header = SWEEP_HEADER if cmd.kind == "sweep" else SIMULATE_HEADER
    failures, rows = parse_table(text, header, cmd.rows)
    if failures:
        return failures
    # a sweep is one simulate table per axis value
    groups: dict[str, list[dict]] = defaultdict(list)
    for row in rows:
        groups[row.get("value", "")].append(row)
    for group in groups.values():
        failures += check_sources(group, cmd.sources)
        failures += check_finite(group, cmd.literal_na)
        failures += check_map_vs_oracle(group)
        failures += check_conservation(group)
    return failures


def parse_table(text: str, header: str, rows: int) -> tuple[list[str], list[dict]]:
    """Split CSV text into row dicts after checking its header and row count."""
    if not text.endswith("\n"):
        return ["output does not end with a newline"], []
    lines = text[:-1].split("\n")
    if lines[0] != header:
        return [f"unexpected header {lines[0][:80]!r}"], []
    if len(lines) - 1 != rows:
        return [f"{len(lines) - 1} data rows, expected {rows}"], []
    names = header.split(",")
    table = []
    for line_no, line in enumerate(lines[1:], 2):
        fields = line.split(",")
        if len(fields) != len(names):
            return [f"line {line_no}: {len(fields)} fields, expected {len(names)}"], []
        table.append(dict(zip(names, fields)))
    return [], table


def _value(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _na_allowed(row: dict, field: str, literal_na: frozenset) -> bool:
    if row.get("source") == "literal-paper":
        return field in literal_na
    # Mandel Q of a mode in vacuum is undefined
    if field == "q_a":
        return _value(row["na_mean"]) <= Q_MEAN_FLOOR
    if field == "q_b":
        return _value(row["nb_mean"]) <= Q_MEAN_FLOOR
    return False


def check_sources(rows: list[dict], sources: tuple[str, ...]) -> list[str]:
    """Rows cycle through the selected sources in canonical order at each time."""
    got = tuple(row["source"] for row in rows[: len(sources)])
    if got != sources or len(rows) % len(sources):
        return [f"source order {got}, expected {sources}"]
    for i, row in enumerate(rows):
        if row["source"] != sources[i % len(sources)]:
            return [f"row {i}: source {row['source']!r} out of order"]
    return []


def check_finite(rows: list[dict], literal_na: frozenset = frozenset()) -> list[str]:
    """Physics columns are finite numbers, or NA where the domain documents it."""
    failures = []
    for i, row in enumerate(rows):
        where = f"row {i} ({row.get('source', 'oracle')})"
        for field in PHYSICS:
            text = row[field]
            if text == "NA":
                if not _na_allowed(row, field, literal_na):
                    failures.append(f"{where}: {field} is NA")
            elif not math.isfinite(_value(text)):
                failures.append(f"{where}: {field} = {text!r}")
    return failures[:5]


def check_map_vs_oracle(rows: list[dict]) -> list[str]:
    """Moment map and oracle agree per field within the tail-scaled tolerance.

    The bound is verify's: tol_oracle + tail_mass * n_max**2, with the tail
    mass and cutoff read from the row itself.
    """
    by_time: dict[str, dict[str, dict]] = defaultdict(dict)
    for row in rows:
        by_time[row["t"]][row["source"]] = row
    failures = []
    for t, sources in by_time.items():
        mapped, oracle = sources.get("moment-map"), sources.get("oracle")
        if mapped is None or oracle is None:
            continue
        tol = TOL_ORACLE + _value(oracle["tail_mass"]) * _value(oracle["n_max"]) ** 2
        for field in PHYSICS:
            if mapped[field] == "NA" and oracle[field] == "NA":
                continue
            dev = abs(_value(mapped[field]) - _value(oracle[field]))
            if not dev <= tol:
                failures.append(f"t={t}: |map - oracle| {field} = {dev:.3e} > {tol:.3e}")
    return failures[:5]


def check_conservation(rows: list[dict]) -> list[str]:
    """Each source keeps n_a + n_b at its first-row value: H conserves it."""
    first: dict[str, float] = {}
    failures = []
    for row in rows:
        if row["ntotal"] == "NA":
            continue
        value = _value(row["ntotal"])
        start = first.setdefault(row["source"], value)
        if not abs(value - start) <= TOL_CONSERVATION * max(1.0, abs(start)):
            failures.append(
                f"t={row['t']} ({row['source']}): ntotal {value!r} drifted from {start!r}"
            )
    return failures[:5]


def check_converge(rows: list[dict]) -> list[str]:
    """Per-cutoff rows are finite and the closing row reports convergence."""
    values = [row for row in rows if row["kind"] == "value"]
    failures = [f"cutoff {row['n_max']} status {row['status']!r}"
                for row in values if row["status"] != "ok"][:5]
    failures += check_finite(values)
    last = rows[-1]
    if last["kind"] != "result" or last["status"] != "converged":
        failures.append(f"final row {last['kind']},{last['status']}: not converged")
    return failures


def verdict_rows(text: str) -> tuple[tuple[str, ...], ...] | None:
    """(formula, verdict) rows of a verify report; None when there is no table."""
    lines = text.split("\n")
    rules = [i for i, line in enumerate(lines) if line and set(line) == {"-"}]
    if len(rules) != 2 or rules[1] + 1 >= len(lines):
        return None
    return tuple(tuple(line.split()[:2]) for line in lines[rules[0] + 1 : rules[1]])


def count_rows(cmd: Command, text: str) -> int:
    """Data rows of a CSV output, or verdict rows of a verify report."""
    if cmd.kind == "verify":
        return len(verdict_rows(text) or ())
    return max(0, text.count("\n") - 1)


def check_verdicts(text: str, expected: tuple[tuple[str, str], ...]) -> list[str]:
    """The report's verdict column equals the recorded verdicts, in order."""
    got = verdict_rows(text)
    if got is None:
        return ["verdict table not found"]
    if got != tuple(expected):
        changed = [f"{g} != {e}" for g, e in zip(got, expected) if g != e]
        return [f"verdicts differ ({len(got)} rows, expected {len(expected)}): "
                + "; ".join(changed[:3])]
    if "\nunresolved: 0\n" not in text:
        return ["report does not state 'unresolved: 0'"]
    return []
