"""Command-line front end: simulate, verify, sweep, converge.

Exit codes: 0 success, 1 unusable configuration (or an array too large to
allocate), 2 truncation-insufficient (or a convergence run that did not
converge), 3 invariant violation during a run, 4 unresolved formula verdicts
from verify.

Each setting's type, default and help text are in ``_SETTINGS``.  A config
file may set any key for any command, but each command has flags only for the
keys it reads: the scenario keys, plus ``n_max`` and ``sources`` (simulate,
sweep) or ``n_max`` and the tolerances (verify); converge reads its cutoffs
from ``--values`` and always runs the oracle.

All numeric output is written with 17 significant digits, '.' decimal
separator and '\n' line endings, so identical configurations produce
byte-identical files.  Undefined values (vacuum Mandel Q, closed forms
outside their domain) are written as the token ``NA``; any other value that
is not finite is an invariant violation (exit 3).  Every table is computed
before the output file is opened, so a failed run leaves no file.

Each CSV field is exactly ``'%.17g' % x``, computed in numpy.  Where
``1e-4 <= |x| < 1e16`` (fixed notation) the digits are the exact product
``|x| * 10**(16 - e)``, a two-product, rounded half to even as dtoa rounds it, in
4-digit groups by floor division.  Zero, NaN (``NA``), the infinities and every other
``|x|`` are formatted by ``%`` itself, once per distinct value in a chunk of rows; a
column NaN in all the chunk is NA unformatted, and the grid time once per row.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .fock import (
    DEFAULT_DEFICIT_THRESHOLD,
    SqueezedInput,
    TruncationError,
    squeezed_amplitudes,
    squeezed_coherent_state,
    top_decile_mass,
    truncation_tails,
)
from .observables import (
    CSV_COLUMNS,
    PHYSICS_COLUMNS,
    SOURCE_LITERAL,
    SOURCE_MOMENT_MAP,
    SOURCE_ORACLE,
    SOURCES,
    InvariantViolationError,
    ScenarioConfig,
    UsageError,
    check_table,
    literal_gaps,
    literal_table,
    moment_map_table,
    physics_table,
)
from .oracle import evolve_checked
from .propagator import ModelParams
from .verify import TOL_ALGEBRAIC, TOL_ORACLE, discrepancy_report

# bounds of the auto cutoff; the ceiling also caps an explicit cutoff, and so
# bounds the oracle's eigensolve time, which grows as about n_max^2.6
DEFAULT_N_MAX_FLOOR = 64
DEFAULT_N_MAX_CEILING = 512

# converge reports a cutoff, flagged truncation-insufficient, up to this norm
# deficit, so the decay of the deltas stays visible; it has converged when its
# last cutoff passes the deficit check and its last two deltas (or its only
# one) are at most CONVERGED_DELTA
REPORTED_DEFICIT = 0.5
CONVERGED_DELTA = 1e-8

# CSV lines are formatted and written this many grid times at a time
_CHUNK_ROWS = 1000

# bytes of one field: '-0.000' and 17 digits, or '-1.2345678901234567e-308'
_FIELD = 24
# _POW10[k + 5] is 10**k: exact for k >= 0, and just above it for k = -4..-1,
# so that |x| >= _POW10[k + 5] holds exactly when |x| >= 10**k
_POW10 = np.array([float(f"1e{k}") for k in range(-5, 22)])  # float() rounds to nearest
_POW10_HI = 134217729.0 * _POW10 - (134217729.0 * _POW10 - _POW10)  # Veltkamp high halves

SWEEP_AXES = ("r", "phi", "m_re", "m_im", "theta", "omega0", "omega_a", "omega_r")

# key: (type, default, --help text)
_SETTINGS = {
    "r": (float, 1.0, "squeeze magnitude r >= 0"),
    "phi": (float, 0.0, "squeeze angle (rad)"),
    "m_re": (float, 0.0, "Re of coherent amplitude"),
    "m_im": (float, 0.0, "Im of coherent amplitude"),
    "theta": (float, 0.0, "condensate phase (rad)"),
    "omega0": (float, 4.0, "level splitting (rad/time)"),
    "omega_a": (float, 4.0, "optical frequency (rad/time)"),
    "omega_r": (float, 1.0, "collective coupling (rad/time)"),
    "t_max": (float, 2.0 * math.pi, "time grid upper edge (exclusive)"),
    "steps": (int, 200, "number of grid points (>= 2)"),
    "n_max": (
        int,
        None,  # auto: see auto_n_max
        f"Fock cutoff per mode, at most {DEFAULT_N_MAX_CEILING} (default: the smallest "
        f"n_max from {DEFAULT_N_MAX_FLOOR} that holds the input to a norm deficit of "
        f"{DEFAULT_DEFICIT_THRESHOLD:.0e})",
    ),
    "sources": (str, ",".join(SOURCES), "comma list from: " + ", ".join(SOURCES)),
    "out": (str, None, "output file path"),
    "tol_algebraic": (
        float, TOL_ALGEBRAIC, "largest |closed form - moment map| a CONFIRMED verdict allows"
    ),
    "tol_oracle": (float, TOL_ORACLE, "oracle slack beyond each form's truncation term"),
}
_DEFAULTS = {key: default for key, (_, default, _) in _SETTINGS.items()}

# the keys that set the scenario, its time grid and the output path
_SCENARIO_KEYS = (
    "r", "phi", "m_re", "m_im", "theta", "omega0", "omega_a", "omega_r", "t_max", "steps", "out"
)


@dataclass(frozen=True)
class RunConfig:
    """What ``build_run_config`` derives from the settings: the scenario, its time
    grid and the selected sources in canonical order."""

    scenario: ScenarioConfig
    grid: np.ndarray
    sources: tuple[str, ...]


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment; unknown keys are errors."""
    settings: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SETTINGS:
            raise UsageError(f"{path}:{line_no}: unknown key {key!r}")
        cast = _SETTINGS[key][0]
        try:
            settings[key] = cast(value)
        except ValueError as exc:
            kind = "integer" if cast is int else "float"
            raise UsageError(f"{path}:{line_no}: bad {kind} for {key}: {value!r}") from exc
    return settings


def _resolve_settings(args: argparse.Namespace) -> dict:
    settings = dict(_DEFAULTS)
    if getattr(args, "config", None):
        settings.update(parse_config_file(args.config))
    for key in _SETTINGS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def auto_n_max(inp: SqueezedInput) -> int:
    """Smallest cutoff >= DEFAULT_N_MAX_FLOOR whose exact tail passes the deficit
    check; it sums the same amplitudes the same way, so the check accepts it."""
    tails = truncation_tails(squeezed_amplitudes(inp, DEFAULT_N_MAX_CEILING))
    fits = np.flatnonzero(tails[DEFAULT_N_MAX_FLOOR:] <= DEFAULT_DEFICIT_THRESHOLD)
    if len(fits) == 0:
        raise TruncationError(
            f"the input needs more than {DEFAULT_N_MAX_CEILING} Fock levels for a "
            f"norm deficit <= {DEFAULT_DEFICIT_THRESHOLD:.0e}, and --n-max is capped "
            f"there too"
        )
    return DEFAULT_N_MAX_FLOOR + int(fits[0])


def build_run_config(settings: dict) -> RunConfig:
    """Check the settings and derive the run, its time grid built once here; the output
    path and the tolerances pass through unchanged, so each command reads its own."""
    for key, (cast, _, _) in _SETTINGS.items():
        if cast is float and not math.isfinite(settings[key]):
            raise UsageError(f"{key} must be finite, got {settings[key]}")
    for key in ("tol_algebraic", "tol_oracle"):
        if settings[key] < 0:
            raise UsageError(f"{key} must be >= 0, got {settings[key]}")
    try:
        inp = SqueezedInput(
            r=settings["r"],
            phi=settings["phi"],
            m=complex(settings["m_re"], settings["m_im"]),
        )
        params = ModelParams(
            omega0=settings["omega0"],
            omega_a=settings["omega_a"],
            omega_r=settings["omega_r"],
            theta=settings["theta"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    n_max = settings["n_max"]
    if n_max is None:
        n_max = auto_n_max(inp)
    elif n_max < 1:
        raise UsageError(f"n_max must be an integer >= 1, got {n_max!r}")
    elif n_max > DEFAULT_N_MAX_CEILING:
        raise UsageError(
            f"n_max must be at most {DEFAULT_N_MAX_CEILING}, the auto cutoff's ceiling; "
            f"got {n_max}"
        )
    steps, t_max = settings["steps"], settings["t_max"]
    if steps < 2:
        raise UsageError(f"steps must be >= 2, got {steps}")
    if steps > np.iinfo(np.intp).max:  # np.arange gives no grid or refuses the size
        raise UsageError(f"steps must be at most {np.iinfo(np.intp).max}, got {steps}")
    if t_max <= 0:
        raise UsageError(f"t_max must be > 0, got {t_max}")
    sources = tuple(s.strip() for s in settings["sources"].split(",") if s.strip())
    if not sources:
        raise UsageError("at least one source must be selected")
    for source in sources:
        if source not in SOURCES:
            raise UsageError(f"unknown source {source!r}; choose from {', '.join(SOURCES)}")
    # canonical source order regardless of how the list was written
    sources = tuple(s for s in SOURCES if s in sources)
    # steps points covering [0, t_max), t_i = i * t_max / steps: the left-closed grid
    # puts the default scenario's conversion times and aligned rotation phases
    # (multiples of pi/4) exactly on grid points; verify unions in any anchors that
    # fall between points
    grid = np.arange(steps) * (t_max / steps)
    return RunConfig(ScenarioConfig(params, inp, n_max), grid, sources)


def _fmt(value: float) -> str:
    """One float at 17 significant digits; -0.0 is written 0 and NaN NA."""
    return "NA" if math.isnan(value) else format(value + 0.0, ".17g")


def _times_pow10(a: np.ndarray, s: np.ndarray):
    """hi + lo == a * 10**s exactly: Dekker's two-product over Veltkamp's splits."""
    b, bh = _POW10[s + 5], _POW10_HI[s + 5]
    ah = a * 134217729.0  # 2**27 + 1
    ah -= ah - a
    al, bl, hi = a - ah, b - bh, a * b
    lo = ah * bh - hi
    lo += np.multiply(ah, bl, out=ah)
    lo += np.multiply(al, bh, out=bh)
    lo += np.multiply(al, bl, out=al)
    return hi, lo


@functools.cache
def _digit_tables():
    """Digits of 0000-9999 in ASCII, their trailing zeros, masks of n leading bytes."""
    v = np.arange(10000, dtype=np.uint16)
    digits = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], axis=1).astype(np.uint8)
    zeros = sum(v % 10**i == 0 for i in range(1, 5))
    keep = np.arange(_FIELD) < np.arange(_FIELD + 1)[:, None]
    return (digits + 48).view(np.uint32).ravel(), zeros, (keep * np.uint8(255)).view(np.uint64)


def _format_fields(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for each v of the flat array x, NaN as NA and -0.0 as 0,
    as rows of _FIELD bytes padded with zero bytes.  Fixed digits are split into
    groups of 4 by floor division, each written by one lookup in a digit table."""
    digits4, zeros4, keep = _digit_tables()  # built on the first write, not on import
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e16)
    ax = np.where(fast, ax, 1.0)
    # 10**e <= |x| < 10**(e+1), where log10 may be one off next to a power of ten
    e = np.floor(np.log10(ax)).astype(np.intp)
    e += (ax >= _POW10[e + 6]).astype(np.intp) - (ax < _POW10[e + 5])
    hi, lo = _times_pow10(ax, 16 - e)
    # hi is an even integer in [1e16, 1e17) (its ulp is at least 2): adding the
    # rounded lo rounds half to even; no double here rounds up to 10**17
    rest = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # where the digits go depends on e alone: lay them out by runs of equal e
    order = np.argsort(e.astype(np.int8), kind="stable")
    e, rest = e[order], rest[order]
    groups = np.empty((len(x), 5), np.int64)  # the leading digit, then 4 digits each
    for i in range(4, 0, -1):
        quotient = rest // 10**4
        groups[:, i], rest = rest - quotient * 10**4, quotient
    groups[:, 0] = rest
    digits = np.take(digits4, groups).view(np.uint8)[:, 3:]
    zeros = zeros4[groups[:, 4]]
    for i in (3, 2, 1):  # the groups after group i are all zeros
        more = np.flatnonzero(zeros == 16 - 4 * i)
        zeros[more] += zeros4[groups[more, i]]
    # byte 0 holds the sign, and the text ends after the last nonzero digit
    fields = np.zeros((len(x), _FIELD), np.uint8)
    bounds = [*np.flatnonzero(np.diff(e, prepend=e[:1] - 1)), len(x)]  # no runs for an empty x
    for a, b in zip(bounds, bounds[1:]):
        k, f, d = int(e[a]), fields[a:b], digits[a:b]
        if k < 0:  # 0.000ddd
            f[:, 1 : 2 - k] = np.frombuffer(b"0.000"[: 1 - k], np.uint8)
            f[:, 2 - k : 19 - k] = d
        else:  # ddd.ddd
            f[:, 1 : k + 2], f[:, k + 3 : 19] = d[:, : k + 1], d[:, k + 1 :]
            f[:, k + 2] = ord(".")
    # and no '.' without a digit after it
    length = np.where(e < 0, 19 - e - zeros, np.where(zeros < 16 - e, 19 - zeros, e + 2))
    fields.view(np.uint64)[...] &= np.take(keep, length, axis=0)
    rows = fields.view(f"V{_FIELD}")  # a field as one item: back to the order of x
    rows[order] = rows.copy()
    fields[:, 0] = (x < 0) * np.uint8(ord("-"))
    slow = np.flatnonzero(~fast)
    values, inverse = np.unique(x[slow], return_inverse=True)
    texts = np.array([_fmt(v).encode() for v in values.tolist()], f"S{_FIELD}")
    fields[slow] = texts.view(np.uint8).reshape(-1, _FIELD)[inverse]
    return fields


def _write_rows(handle, template: str, table: np.ndarray, columns) -> None:
    """Write ``template % row[columns]`` for each row of ``table``, NaN as NA, -0.0 as 0.

    Field j, the j-th ``%.17g``, shows column ``columns[j]``: each column is formatted
    once by ``_format_fields``, or is NA if it is NaN in all the chunk.  A chunk of rows
    is one byte matrix of the template's text and the zero-padded fields, written with
    the zero bytes dropped.
    """
    pieces = [np.frombuffer(p.encode(), np.uint8) for p in template.split("%.17g")]
    starts = np.cumsum([len(p) + _FIELD for p in pieces]) - _FIELD  # of each field
    lines = np.empty((min(_CHUNK_ROWS, len(table)), starts[-1]), np.uint8)
    for piece, start in zip(pieces, starts):
        lines[:, start - len(piece) : start] = piece
    na = np.frombuffer(b"NA".ljust(_FIELD, b"\0"), np.uint8)
    for first in range(0, len(table), _CHUNK_ROWS):
        chunk = table[first : first + _CHUNK_ROWS]
        shown = np.flatnonzero(~np.isnan(chunk).all(axis=0))
        fields = _format_fields(chunk[:, shown].ravel()).reshape(len(chunk), len(shown), _FIELD)
        slots = {column: fields[:, k] for k, column in enumerate(shown.tolist())}
        block = lines[: len(chunk)]
        for column, start in zip(columns, starts):
            block[:, start : start + _FIELD] = slots.get(column, na)
        handle.write(block.tobytes().translate(None, b"\0").decode("ascii"))


def _open_output(path: str):
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise UsageError(f"cannot write {path}: {getattr(exc, 'strerror', exc)}") from exc


def simulate_rows(run: RunConfig, light, oracle, prefix: str = ""):
    """One scenario's CSV rows as ``_write_rows`` takes them: a %-template, a float
    table and the table column of each template field.

    ``light`` is the scenario's truncated input amplitudes, whose top-decile mass
    is each row's tail_mass, and ``oracle`` its (light, atom) moments from
    ``evolve_checked`` (None without the oracle source).  Each
    selected source's (T, 11) physics table is computed over the time grid and
    checked.  Row i of the table is grid time i and every source's physics at it,
    one line per source, so the output is ordered by (time, source).
    """
    scenario, grid = run.scenario, run.grid
    tables: dict[str, np.ndarray] = {}
    if SOURCE_LITERAL in run.sources:
        tables[SOURCE_LITERAL] = literal_table(scenario, grid)
    if SOURCE_MOMENT_MAP in run.sources:
        tables[SOURCE_MOMENT_MAP] = moment_map_table(scenario, grid)
    if SOURCE_ORACLE in run.sources:
        tables[SOURCE_ORACLE] = physics_table(*oracle)
    for source, table in tables.items():
        gaps = literal_gaps(scenario) if source == SOURCE_LITERAL else ()
        check_table(table, grid, source, gaps)

    physics = ",%.17g" * len(PHYSICS_COLUMNS)
    n_max = scenario.n_max
    tail = _fmt(top_decile_mass(light))
    template = "".join(f"{prefix}%.17g,{source}{physics},{n_max},{tail}\n" for source in tables)
    own = np.arange(len(tables) * len(PHYSICS_COLUMNS)).reshape(len(tables), -1) + 1
    columns = np.insert(own, 0, 0, axis=1).ravel()  # each source's line starts with the grid
    return template, np.column_stack((grid, *tables.values())), columns


def _write_scenarios(runs: list[RunConfig], prefixes: list[str], header, out: str) -> None:
    """Write the rows of runs that share sources and time grid, each after its prefix,
    under one header; the file is opened once every input is built and checked."""
    if runs[0].sources == (SOURCE_LITERAL,) and all(
        len(literal_gaps(run.scenario)) == len(PHYSICS_COLUMNS) for run in runs
    ):
        raise UsageError("literal-paper fills no column here; select moment-map or oracle too")
    # the input also supplies the per-row tail diagnostic, which gates nothing
    lights = [squeezed_coherent_state(run.scenario.input, run.scenario.n_max) for run in runs]
    oracle = [None] * len(runs)
    if SOURCE_ORACLE in runs[0].sources:
        pairs = [(run.scenario.params, light) for run, light in zip(runs, lights)]
        oracle = [moments for moments, _ in evolve_checked(pairs, runs[0].grid)]
    blocks = [simulate_rows(*scenario) for scenario in zip(runs, lights, oracle, prefixes)]
    with _open_output(out) as handle:
        handle.write(",".join(header) + "\n")
        for block in blocks:
            _write_rows(handle, *block)
    total = sum(len(table) * len(run.sources) for (_, table, _), run in zip(blocks, runs))
    print(f"wrote {total} rows to {out}")


def cmd_simulate(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    run = build_run_config(settings)
    _write_scenarios([run], [""], CSV_COLUMNS, settings["out"] or "simulate.csv")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    run = build_run_config(settings)
    tol_algebraic, tol_oracle = settings["tol_algebraic"], settings["tol_oracle"]
    report = discrepancy_report(run.scenario, run.grid, tol_algebraic, tol_oracle)
    out = settings["out"] or "verify.txt"
    with _open_output(out) as handle:
        handle.write(report.render())
    print(f"wrote verdicts for {len(report.checks)} formulas to {out}")
    if report.unresolved:
        print(f"{report.unresolved} unresolved verdicts", file=sys.stderr)
        return 4
    return 0


def _parse_values(raw: str, cast) -> list:
    try:
        values = [cast(part.strip()) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad values list {raw!r}: {exc}") from exc
    if not values:
        raise UsageError("values list is empty")
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.axis not in SWEEP_AXES:
        raise UsageError(
            f"unknown sweep axis {args.axis!r}; choose from {', '.join(SWEEP_AXES)}"
        )
    if getattr(args, args.axis) is not None:
        raise UsageError(f"{args.axis} is the sweep axis: set its values in --values, not its flag")
    values = _parse_values(args.values, float)
    settings = _resolve_settings(args)
    out = settings["out"] or "sweep.csv"
    # every value is validated, and its input built, before any scenario runs
    runs = [build_run_config({**settings, args.axis: value}) for value in values]
    prefixes = [f"{args.axis},{_fmt(value)}," for value in values]
    _write_scenarios(runs, prefixes, ("axis", "value") + CSV_COLUMNS, out)
    return 0


def _max_delta(previous, current) -> float:
    """Largest entry difference of two physics tables; NaN on both sides is skipped.
    inf when either table is missing or one side alone is NaN."""
    if previous is None or current is None or np.any(np.isnan(previous) != np.isnan(current)):
        return math.inf
    return float(np.max(np.abs(previous - current), where=~np.isnan(previous), initial=0.0))


def cmd_converge(args: argparse.Namespace) -> int:
    n_max_list = _parse_values(args.values, int)
    # the verdict compares successive cutoffs, so one cutoff could only fail
    if len(n_max_list) < 2:
        raise UsageError("converge needs at least two n_max values to compare")
    if any(b <= a for a, b in zip(n_max_list, n_max_list[1:])):
        raise UsageError("n_max values must be strictly increasing")
    if n_max_list[0] < 1:
        raise UsageError(f"n_max values must be >= 1, got {n_max_list[0]}")
    settings = _resolve_settings(args)
    settings["n_max"] = n_max_list[-1]
    run = build_run_config(settings)
    params, grid = run.scenario.params, run.grid
    # a cutoff's light is the prefix renormalised by its exact deficit tails[n], the bits
    # squeezed_coherent_state builds where it passes; all cutoffs share one oracle pass
    amps = squeezed_amplitudes(run.scenario.input, n_max_list[-1])
    tails = truncation_tails(amps)
    lights = {n: amps[: n + 1] / math.sqrt(1.0 - tails[n])
              for n in n_max_list if tails[n] <= REPORTED_DEFICIT}
    checked = evolve_checked([(params, light) for light in lights.values()], grid)
    physics = {n_max: physics_table(*moments) for n_max, (moments, _) in zip(lights, checked)}
    for table in physics.values():
        check_table(table, grid, SOURCE_ORACLE)
    ok = {n for n in lights if tails[n] <= DEFAULT_DEFICIT_THRESHOLD}
    pairs = list(zip(n_max_list, n_max_list[1:]))
    deltas = [_max_delta(physics.get(prev), physics.get(curr)) for prev, curr in pairs]
    converged = n_max_list[-1] in ok and all(delta <= CONVERGED_DELTA for delta in deltas[-2:])
    out = settings["out"] or "converge.csv"

    no_physics = ["NA"] * len(PHYSICS_COLUMNS)

    def row(kind, n_max, status, t="NA", physics=no_physics, last="NA") -> str:
        return ",".join([kind, str(n_max), status, t, *physics, last]) + "\n"

    with _open_output(out) as handle:
        handle.write(row("kind", "n_max", "status", "t", PHYSICS_COLUMNS, "max_delta"))
        for n_max in n_max_list:
            flag = "ok" if n_max in ok else "truncation-insufficient"
            if n_max not in physics:
                handle.write(row("value", n_max, flag))
            else:
                template = row("value", n_max, flag, "%.17g", ["%.17g"] * len(PHYSICS_COLUMNS))
                table = np.column_stack((grid, physics[n_max]))
                _write_rows(handle, template, table, range(table.shape[1]))
        for (prev, curr), delta in zip(pairs, deltas):
            handle.write(row("delta", f"{prev}->{curr}", "", last=_fmt(delta)))
        result = "converged" if converged else "not-converged"
        handle.write(row("result", n_max_list[-1], result, last=_fmt(CONVERGED_DELTA)))
    print(f"wrote convergence table to {out}")
    return 0 if converged else 2


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes '-1e3' and '-0.5,0.5' for flags; no flag
        # here starts with '-' and a digit or '.', so such a token is a value
        self._negative_number_matcher = re.compile(r"-[\d.]")

    def error(self, message):  # exit 1 with one line; subparsers inherit this
        raise UsageError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="atomlaser",
        description="Squeezing transfer between an optical field and an "
        "outcoupled atom beam: time series, formula adjudication, sweeps, "
        "convergence studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each command's function, help and the keys it reads besides the scenario's
    commands = {
        "simulate": (cmd_simulate, "write the observable time series as CSV", ("n_max", "sources")),
        "verify": (
            cmd_verify,
            "adjudicate the closed forms against the oracle",
            ("n_max", "tol_algebraic", "tol_oracle"),
        ),
        "sweep": (cmd_sweep, "repeat simulate over one parameter axis", ("n_max", "sources")),
        "converge": (cmd_converge, "truncation convergence study", ()),
    }
    parsers = {}
    for name, (func, about, keys) in commands.items():
        parsers[name] = command = sub.add_parser(name, help=about)
        command.add_argument("--config", help="flat key = value config file; flags win")
        for key in (*_SCENARIO_KEYS, *keys):
            cast, default, text = _SETTINGS[key]
            if default is not None:
                text += f" (default: {default})"
            command.add_argument("--" + key.replace("_", "-"), type=cast, dest=key, help=text)
        command.set_defaults(func=func)
    parsers["sweep"].add_argument("--axis", required=True, help=f"one of: {', '.join(SWEEP_AXES)}")
    parsers["sweep"].add_argument("--values", required=True, help="comma list of axis values")
    parsers["converge"].add_argument(
        "--values", required=True, help="comma list of increasing n_max values"
    )
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # a value that is not finite is reported by the table checks, not as
        # a numpy warning
        with np.errstate(all="ignore"):
            return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an array too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except TruncationError as exc:
        print(f"truncation-insufficient: {exc}", file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())

