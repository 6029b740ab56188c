"""Command-line front end: simulate, verify, sweep, converge.

Exit codes: 0 success, 1 unusable configuration, 2 truncation-insufficient
(or a convergence run that did not converge), 3 invariant violation during a
run, 4 unresolved formula verdicts from verify.

All numeric output is written with 17 significant digits, '.' decimal
separator and '\n' line endings, so identical configurations produce
byte-identical files.  Undefined values (vacuum Mandel Q, closed forms
outside their domain) are written as the token ``NA``; any other value that
is not finite is an invariant violation (exit 3).  Every table is computed
before the output file is opened, so a failed run leaves no file.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .fock import (
    DEFAULT_DEFICIT_THRESHOLD,
    SqueezedInput,
    Truncation,
    TruncationError,
    squeezed_amplitudes,
    squeezed_coherent_state,
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
from .oracle import EvolutionResult, check_oracle, evolve, evolve_many
from .propagator import ModelParams, ResonanceError
from .verify import discrepancy_report

# bounds of the auto cutoff; the ceiling also caps an explicit cutoff, and so
# bounds the oracle's eigensolve time, which grows as about n_max^2.7
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

SWEEP_AXES = ("r", "phi", "m_re", "m_im", "theta", "omega0", "omega_a", "omega_r")

_DEFAULTS = {
    "r": 1.0,
    "phi": 0.0,
    "m_re": 0.0,
    "m_im": 0.0,
    "theta": 0.0,
    "omega0": 4.0,
    "omega_a": 4.0,
    "omega_r": 1.0,
    "t_max": 2.0 * math.pi,
    "steps": 200,
    "n_max": None,  # auto: see auto_n_max
    "sources": ",".join(SOURCES),
    "out": None,
    "tol_algebraic": 1e-8,
    "tol_oracle": 1e-6,
}

_FLOAT_KEYS = tuple(key for key, value in _DEFAULTS.items() if isinstance(value, float))
_INT_KEYS = ("steps", "n_max")
_STR_KEYS = ("sources", "out")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run: scenario, time grid, sources, output, tolerances."""

    scenario: ScenarioConfig
    t_max: float
    steps: int
    sources: tuple[str, ...]
    out: str | None
    tol_algebraic: float
    tol_oracle: float

    def time_grid(self) -> np.ndarray:
        """steps points covering [0, t_max): t_i = i * t_max / steps.

        The left-closed grid puts the default scenario's conversion times and
        aligned rotation phases (multiples of pi/4) exactly on grid points;
        verify unions in any anchors that fall between points.
        """
        return np.arange(self.steps) * (self.t_max / self.steps)


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment; unknown keys are errors."""
    settings: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _FLOAT_KEYS:
            try:
                settings[key] = float(value)
            except ValueError as exc:
                raise UsageError(f"{path}:{line_no}: bad float for {key}: {value!r}") from exc
        elif key in _INT_KEYS:
            try:
                settings[key] = int(value)
            except ValueError as exc:
                raise UsageError(f"{path}:{line_no}: bad integer for {key}: {value!r}") from exc
        elif key in _STR_KEYS:
            settings[key] = value
        else:
            raise UsageError(f"{path}:{line_no}: unknown key {key!r}")
    return settings


def _resolve_settings(args: argparse.Namespace) -> dict:
    settings = dict(_DEFAULTS)
    if getattr(args, "config", None):
        settings.update(parse_config_file(args.config))
    for key in (*_FLOAT_KEYS, *_INT_KEYS, *_STR_KEYS):
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def auto_n_max(inp: SqueezedInput) -> int:
    """Smallest cutoff >= DEFAULT_N_MAX_FLOOR whose exact tail passes the deficit
    check; it sums the same amplitudes the same way, so the check accepts it."""
    tails = truncation_tails(squeezed_amplitudes(inp, Truncation(DEFAULT_N_MAX_CEILING)))
    fits = np.flatnonzero(tails[DEFAULT_N_MAX_FLOOR:] <= DEFAULT_DEFICIT_THRESHOLD)
    if len(fits) == 0:
        raise TruncationError(
            f"the input needs more than {DEFAULT_N_MAX_CEILING} Fock levels for a "
            f"norm deficit <= {DEFAULT_DEFICIT_THRESHOLD:.0e}, and --n-max is capped "
            f"there too"
        )
    return DEFAULT_N_MAX_FLOOR + int(fits[0])


def build_run_config(settings: dict) -> RunConfig:
    for key in _FLOAT_KEYS:
        if not math.isfinite(settings[key]):
            raise UsageError(f"{key} must be finite, got {settings[key]}")
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
    elif n_max > DEFAULT_N_MAX_CEILING:
        raise UsageError(
            f"n_max must be at most {DEFAULT_N_MAX_CEILING}, the auto cutoff's ceiling; "
            f"got {n_max}"
        )
    try:
        truncation = Truncation(int(n_max))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    steps = int(settings["steps"])
    if steps < 2:
        raise UsageError(f"steps must be >= 2, got {steps}")
    t_max = float(settings["t_max"])
    if t_max <= 0:
        raise UsageError(f"t_max must be > 0, got {t_max}")
    sources = tuple(s.strip() for s in str(settings["sources"]).split(",") if s.strip())
    if not sources:
        raise UsageError("at least one source must be selected")
    for source in sources:
        if source not in SOURCES:
            raise UsageError(f"unknown source {source!r}; choose from {', '.join(SOURCES)}")
    # canonical source order regardless of how the list was written
    sources = tuple(s for s in SOURCES if s in sources)
    return RunConfig(
        scenario=ScenarioConfig(params, inp, truncation),
        t_max=t_max,
        steps=steps,
        sources=sources,
        out=settings["out"],
        tol_algebraic=float(settings["tol_algebraic"]),
        tol_oracle=float(settings["tol_oracle"]),
    )


def _fmt(value: float) -> str:
    """One float at 17 significant digits; -0.0 is written 0 and NaN NA."""
    return "NA" if math.isnan(value) else format(value + 0.0, ".17g")


def _write_rows(handle, template: str, table: np.ndarray) -> None:
    """Write ``template % row`` for each row of ``table``, NaN as NA.

    Adding 0.0 turns -0.0 into 0.  The fixed text in the templates (source
    names, axis names, cutoffs) never contains "nan", so the token swap only
    touches the formatted floats.
    """
    for start in range(0, len(table), _CHUNK_ROWS):
        rows = (table[start : start + _CHUNK_ROWS] + 0.0).tolist()
        handle.write("".join(template % tuple(row) for row in rows).replace("nan", "NA"))


def _open_output(path: str):
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def simulate_rows(run: RunConfig, light, result, prefix: str = "") -> tuple[str, np.ndarray]:
    """One scenario's CSV rows as a %-template and a float table.

    ``light`` is the scenario's truncated input and ``result`` its oracle
    evolution (None without the oracle source).  Each selected source's
    (T, 11) physics table is computed over the time grid and checked.  Row i
    of the returned table holds every source's line at grid time i, so the
    output is ordered by (time, source).
    """
    scenario = run.scenario
    grid = run.time_grid()
    tables: dict[str, np.ndarray] = {}
    if SOURCE_LITERAL in run.sources:
        tables[SOURCE_LITERAL] = literal_table(scenario, grid)
    if SOURCE_MOMENT_MAP in run.sources:
        tables[SOURCE_MOMENT_MAP] = moment_map_table(scenario, grid)
    if SOURCE_ORACLE in run.sources:
        check_oracle(scenario.params, light, result, grid)
        tables[SOURCE_ORACLE] = physics_table(*result.moments)
    for source, table in tables.items():
        gaps = literal_gaps(scenario) if source == SOURCE_LITERAL else ()
        check_table(table, grid, source, gaps)

    physics = ",%.17g" * len(PHYSICS_COLUMNS)
    n_max = scenario.truncation.n_max
    template = "".join(f"{prefix}%.17g,{source}{physics},{n_max},%.17g\n" for source in tables)
    tail = np.full(len(grid), light.tail_mass)
    return template, np.hstack([np.column_stack((grid, t, tail)) for t in tables.values()])


def cmd_simulate(args: argparse.Namespace) -> int:
    run = build_run_config(_resolve_settings(args))
    # the input also supplies the per-row tail diagnostic, which gates nothing
    light = squeezed_coherent_state(run.scenario.input, run.scenario.truncation)
    oracle = SOURCE_ORACLE in run.sources
    result = evolve(run.scenario.params, light, run.time_grid()) if oracle else None
    template, table = simulate_rows(run, light, result)
    out = run.out or "simulate.csv"
    with _open_output(out) as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        _write_rows(handle, template, table)
    print(f"wrote {len(table) * len(run.sources)} rows to {out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    run = build_run_config(_resolve_settings(args))
    if set(run.sources) != set(SOURCES):
        raise UsageError(
            "verify needs all three sources (literal-paper, moment-map, oracle)"
        )
    report = discrepancy_report(
        run.scenario,
        run.time_grid(),
        tol_algebraic=run.tol_algebraic,
        tol_oracle=run.tol_oracle,
    )
    out = run.out or "verify.txt"
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
    values = _parse_values(args.values, float)
    settings = _resolve_settings(args)
    out = settings["out"] or "sweep.csv"
    # every value is validated, and its input built, before any scenario runs
    runs = [build_run_config({**settings, args.axis: value}) for value in values]
    lights = [squeezed_coherent_state(run.scenario.input, run.scenario.truncation) for run in runs]
    # values that differ at most in theta share one oracle pass: no block reads it
    groups: dict[tuple, list[int]] = {}
    for i, run in enumerate(runs):
        if SOURCE_ORACLE in run.sources:
            key = (replace(run.scenario.params, theta=0.0), run.t_max, run.steps)
            groups.setdefault(key, []).append(i)
    results: dict[int, EvolutionResult] = {}
    for (params, *_), members in groups.items():
        thetas = [runs[i].scenario.params.theta for i in members]
        grid = runs[members[0]].time_grid()
        results.update(zip(members, evolve_many(params, [lights[i] for i in members], grid, thetas)))
    blocks = [
        simulate_rows(run, light, results.get(i), f"{args.axis},{_fmt(value)},")
        for i, (value, run, light) in enumerate(zip(values, runs, lights))
    ]
    with _open_output(out) as handle:
        handle.write(",".join(("axis", "value") + CSV_COLUMNS) + "\n")
        for template, table in blocks:
            _write_rows(handle, template, table)
    total = sum(len(table) * len(run.sources) for (_, table), run in zip(blocks, runs))
    print(f"wrote {total} rows to {out}")
    return 0


def _max_delta(previous, current) -> float:
    """Largest entry difference of two physics tables; NaN on both sides is skipped.
    inf when either table is missing or one side alone is NaN."""
    if previous is None or current is None or np.any(np.isnan(previous) != np.isnan(current)):
        return math.inf
    return float(np.max(np.abs(previous - current), where=~np.isnan(previous), initial=0.0))


def cmd_converge(args: argparse.Namespace) -> int:
    n_max_list = _parse_values(args.values, int)
    if any(b <= a for a, b in zip(n_max_list, n_max_list[1:])):
        raise UsageError("n_max values must be strictly increasing")
    if n_max_list[0] < 1:
        raise UsageError(f"n_max values must be >= 1, got {n_max_list[0]}")
    settings = _resolve_settings(args)
    settings["n_max"] = n_max_list[-1]
    run = build_run_config(settings)
    params, grid = run.scenario.params, run.time_grid()
    # the input is rebuilt at each cutoff, and all of them share one oracle pass
    lights = {}
    for n_max in n_max_list:
        with contextlib.suppress(TruncationError):
            lights[n_max] = squeezed_coherent_state(
                run.scenario.input, Truncation(n_max), deficit_threshold=REPORTED_DEFICIT
            )
    results = evolve_many(params, list(lights.values()), grid)
    physics = {}
    for (n_max, light), result in zip(lights.items(), results):
        check_oracle(params, light, result, grid)
        physics[n_max] = physics_table(*result.moments)
    ok = {n for n, light in lights.items() if light.norm_deficit <= DEFAULT_DEFICIT_THRESHOLD}
    pairs = list(zip(n_max_list, n_max_list[1:]))
    deltas = [_max_delta(physics.get(prev), physics.get(curr)) for prev, curr in pairs]
    converged = n_max_list[-1] in ok and bool(deltas)
    converged = converged and all(delta <= CONVERGED_DELTA for delta in deltas[-2:])
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
                _write_rows(handle, template, np.column_stack((grid, physics[n_max])))
        for (prev, curr), delta in zip(pairs, deltas):
            handle.write(row("delta", f"{prev}->{curr}", "", last=_fmt(delta)))
        result = "converged" if converged else "not-converged"
        handle.write(row("result", n_max_list[-1], result, last=_fmt(CONVERGED_DELTA)))
    print(f"wrote convergence table to {out}")
    return 0 if converged else 2


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file; flags win")
    parser.add_argument("--r", type=float, help="squeeze magnitude r >= 0")
    parser.add_argument("--phi", type=float, help="squeeze angle (rad)")
    parser.add_argument("--m-re", type=float, dest="m_re", help="Re of coherent amplitude")
    parser.add_argument("--m-im", type=float, dest="m_im", help="Im of coherent amplitude")
    parser.add_argument("--theta", type=float, help="condensate phase (rad)")
    parser.add_argument("--omega0", type=float, help="level splitting (rad/time)")
    parser.add_argument("--omega-a", type=float, dest="omega_a", help="optical frequency (rad/time)")
    parser.add_argument("--omega-r", type=float, dest="omega_r", help="collective coupling (rad/time)")
    parser.add_argument("--t-max", type=float, dest="t_max", help="time grid upper edge (exclusive)")
    parser.add_argument("--steps", type=int, help="number of grid points (>= 2)")
    parser.add_argument(
        "--n-max",
        type=int,
        dest="n_max",
        help=f"Fock cutoff per mode, at most {DEFAULT_N_MAX_CEILING} (default: the smallest "
        f"n_max from {DEFAULT_N_MAX_FLOOR} that holds the input to a norm deficit of "
        f"{DEFAULT_DEFICIT_THRESHOLD:.0e})",
    )
    parser.add_argument(
        "--sources",
        help="comma list from: literal-paper, moment-map, oracle (default all)",
    )
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--tol-algebraic", type=float, dest="tol_algebraic",
                        help="largest |closed form - moment map| a CONFIRMED verify "
                        "verdict allows (default 1e-8)")
    parser.add_argument("--tol-oracle", type=float, dest="tol_oracle",
                        help="oracle slack beyond each form's truncation term (default 1e-6)")


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 with one line; subparsers inherit this
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="atomlaser",
        description="Squeezing transfer between an optical field and an "
        "outcoupled atom beam: time series, formula adjudication, sweeps, "
        "convergence studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write the observable time series as CSV")
    _add_scenario_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="adjudicate the closed forms against the oracle")
    _add_scenario_flags(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_swp = sub.add_parser("sweep", help="repeat simulate over one parameter axis")
    _add_scenario_flags(p_swp)
    p_swp.add_argument("--axis", required=True, help=f"one of: {', '.join(SWEEP_AXES)}")
    p_swp.add_argument("--values", required=True, help="comma list of axis values")
    p_swp.set_defaults(func=cmd_sweep)

    p_cnv = sub.add_parser("converge", help="truncation convergence study")
    _add_scenario_flags(p_cnv)
    p_cnv.add_argument("--values", required=True, help="comma list of increasing n_max values")
    p_cnv.set_defaults(func=cmd_converge)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # a value that is not finite is reported by the table checks, not as
        # a numpy warning
        with np.errstate(all="ignore"):
            return args.func(args)
    except (UsageError, ResonanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TruncationError as exc:
        print(f"truncation-insufficient: {exc}", file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
