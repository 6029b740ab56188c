"""Benchmark of the atomlaser command line, one workload per run.

    python3 perfbench/run.py --workload long-grid --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  One run times ``--seconds`` of warm passes of the
workload's command list through ``atomlaser.cli.main`` in this process, after
one cold pass that sets the peak RSS and the reference outputs.  Every
command's output is checked (see checks.py) and every later pass must
reproduce the reference bytes.  The last line of standard output is one JSON
object: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  Outputs and spans go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# Single-threaded BLAS, set before numpy loads.  On a shared two-core machine,
# OpenBLAS's default thread pool made pass times jump three- to fourfold
# whenever another process kept a core busy; one thread does not.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
MIN_TIMED_PASSES = 2
# the run must end within 180 s; this leaves room to report the overrun
TIME_LIMIT_S = 170

FUNCTION_METRICS = (
    ("fock.squeezed_coherent_state", ("self_s", "calls")),
    ("fock.extract_moments", ("self_s", "calls")),
    ("observables.input_moments", ("self_s",)),
    ("observables.literal_record", ("self_s",)),
    ("observables.moment_map_record", ("self_s",)),
    ("propagator.propagator_at", ("calls",)),
    ("oracle.evolve", ("self_s", "calls")),
)


class Overtime(BaseException):
    """The run exceeded TIME_LIMIT_S; derived from BaseException so no command handler swallows it."""


def _overtime(signum, frame):
    raise Overtime(f"run exceeded {TIME_LIMIT_S} s")


def import_seconds(repeats: int) -> list[float]:
    """Seconds to import atomlaser.cli, each in a fresh interpreter.

    One untimed import first writes the bytecode cache, which a user's
    installation already has.
    """
    code = (
        "import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
        "import atomlaser.cli; print(repr(time.perf_counter() - t))" % str(SRC)
    )
    timings = []
    for i in range(repeats + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True,
            timeout=60, check=True, cwd=ROOT,
        )
        if i:
            timings.append(float(done.stdout.split()[-1]))
    return timings


def load_program():
    """Import atomlaser from the checkout; return (package, {layer: module})."""
    if not (SRC / "atomlaser" / "cli.py").is_file():
        raise FileNotFoundError(f"no atomlaser sources under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("atomlaser")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"atomlaser imported from {package.__file__}, not {SRC}")
    modules = {layer: importlib.import_module(f"atomlaser.{layer}") for layer in spans.LAYERS}
    return package, modules


class Workload:
    """Runs one workload's command list and checks what it writes."""

    def __init__(self, cli, commands: list, outdir: Path) -> None:
        self.cli = cli
        self.commands = commands
        outdir.mkdir(parents=True, exist_ok=True)
        self.paths = [outdir / f"cmd{i}{cmd.suffix}" for i, cmd in enumerate(commands)]
        for path in self.paths:
            path.unlink(missing_ok=True)  # an earlier run's output must not pass as this one's
        self.reference: list[str] | None = None  # sha256 per output of the first pass
        self.texts: list[str] = []  # outputs of the first pass
        self.rejected: dict[int, str] = {}  # commands whose first output failed a check
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None) -> float:
        """Run every command once; return the pass's wall seconds."""
        errors = []
        start = time.perf_counter()
        for i, (cmd, path) in enumerate(zip(self.commands, self.paths)):
            if tracer is not None:
                tracer.command_id += 1
            sink = io.StringIO()
            try:
                with redirect_stdout(sink), redirect_stderr(sink):
                    code = self.cli.main([*cmd.argv, "--out", str(path)])
            except (Exception, SystemExit) as exc:
                # the innermost frame and the exception, on one line
                frame = traceback.format_exception(exc, limit=-1, chain=False)[1:]
                code = " ".join("".join(frame).split())
            if code != 0:
                errors.append((i, f"exit {code}: {sink.getvalue().strip()[-200:]}"))
        seconds = time.perf_counter() - start
        # before the checks, which parse the outputs in this process
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self._judge(errors)
        return seconds

    def _judge(self, errors: list) -> None:
        """Count the pass's commands and record which failed, and why."""
        failed = dict(errors)
        texts = [p.read_text(encoding="utf-8") if p.is_file() else "" for p in self.paths]
        digests = [hashlib.sha256(t.encode()).hexdigest() for t in texts]
        if self.reference is None:
            self.reference = digests
            self.texts = texts
            for i, (cmd, text) in enumerate(zip(self.commands, texts)):
                problems = checks.check_command(cmd, text)
                if problems:
                    self.rejected[i] = "; ".join(problems)
        for i, digest in enumerate(digests):
            if i in failed:
                continue
            if digest != self.reference[i]:
                failed[i] = "output bytes differ from the first pass"
            elif i in self.rejected:
                failed[i] = self.rejected[i]
        self.attempted += len(self.commands)
        self.failures += [f"{' '.join(self.commands[i].argv)}: {why}" for i, why in sorted(failed.items())]

    def rows_written(self) -> int:
        """CSV data rows plus verdict rows in one pass's outputs."""
        return sum(checks.count_rows(cmd, text) for cmd, text in zip(self.commands, self.texts))


def _until(deadline: float, passes: list, minimum: int) -> bool:
    """Keep going while another pass of typical length still ends by the deadline."""
    if len(passes) < minimum:
        return True
    return time.perf_counter() + statistics.median(passes) <= deadline


def measure(work: Workload, seconds: float) -> dict:
    """End-to-end metrics: warm pass times, peak RSS of this process after the cold pass."""
    work.run_pass()
    rss_mb = work.rss_mb
    deadline = time.perf_counter() + seconds
    passes: list[float] = []
    while _until(deadline, passes, MIN_TIMED_PASSES):
        passes.append(work.run_pass())
    high = statistics.quantiles(passes, n=4, method="inclusive")[-1]
    return {
        "passes": passes,
        "metrics": {
            "wall_s": (statistics.median(passes), "s"),
            "wall_s_hi": (high, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        },
    }


def measure_layers(work: Workload, package, modules: dict, seconds: float, spans_path: Path) -> dict:
    """Per-layer metrics from traced passes, alternated with untraced ones."""
    probe = spans.PeakAlloc(modules["oracle"].evolve)
    with spans.Patch([package, *modules.values()], probe.wrappers):
        work.run_pass()
    tracer = spans.Tracer(package, modules)
    deadline = time.perf_counter() + seconds
    plain: list[float] = []
    traced: list[float] = []
    ranges = []
    while _until(deadline, [a + b for a, b in zip(plain, traced)], 1):
        plain.append(work.run_pass())
        lo = len(tracer)
        with tracer:
            traced.append(work.run_pass(tracer))
        ranges.append((lo, len(tracer)))

    recorded = tracer.save(spans_path)
    index = {name: i for i, name in enumerate(tracer.names)}
    per_pass = [spans.self_times(recorded, len(tracer.names), lo, hi) for lo, hi in ranges]

    def median_of(values):
        return float(statistics.median(values))

    metrics = {}
    for layer in spans.LAYERS:
        members = [i for name, i in index.items() if name.split(".", 1)[0] == layer]
        metrics[f"{layer}.self_s"] = (median_of(s[members].sum() for s, _ in per_pass), "s")
    for name, kinds in FUNCTION_METRICS:
        i = index.get(name)  # None once a later change renames the function
        if "self_s" in kinds:
            value = median_of(0.0 if i is None else s[i] for s, _ in per_pass)
            metrics[f"{name}.self_s"] = (value, "s")
        if "calls" in kinds:
            value = median_of(0 if i is None else int(c[i]) for _, c in per_pass)
            metrics[f"{name}.calls"] = (int(value), "count")
    metrics["oracle.evolve.peak_alloc_mb"] = (probe.peak / 2**20, "MB")
    metrics["cli.rows_written"] = (work.rows_written(), "count")
    metrics["trace_overhead_s"] = (median_of(traced) - median_of(plain), "s")
    return {"passes": traced, "plain": plain, "spans": len(recorded["name"]), "metrics": metrics}


def machine() -> dict:
    """Host facts that bear on the timings."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: v for k, v in sorted(os.environ.items())
                     if k.endswith("_NUM_THREADS") or k.startswith("OPENBLAS")},
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, _overtime)
    signal.alarm(TIME_LIMIT_S)
    try:
        commands = workloads.commands(args.workload, args.seed)
        package, modules = load_program()
        setup = None if args.trace else import_seconds(SETUP_REPEATS)
        work = Workload(modules["cli"], commands, OUT / args.workload)
        if args.trace:
            spans_path = OUT / f"{args.workload}.spans.npz"
            result = measure_layers(work, package, modules, args.seconds, spans_path)
        else:
            result = measure(work, args.seconds)
            result["metrics"]["setup_s"] = (statistics.median(setup), "s")
    except (OSError, ImportError, ValueError, subprocess.SubprocessError, Overtime) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)

    failed = len(work.failures)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(commands)} commands, {len(result['passes'])} measured passes")
    for cmd in commands:
        print("  atomlaser " + " ".join(cmd.argv))
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<40} {value:.6g} {unit}")
    if args.trace:
        print(f"  {len(result['plain'])} untraced + {len(result['passes'])} traced passes; "
              f"{result['spans']} spans in {spans_path.relative_to(ROOT)}")
    else:
        print(f"  wall_s is the median and wall_s_hi the p75 of {len(result['passes'])} "
              f"warm passes; setup_s the median of {len(setup)} fresh imports")
    print(f"  failed_frac {failed / work.attempted:.6g} ({failed}/{work.attempted} commands)")
    for failure in work.failures[:10]:
        print(f"  FAILED {failure}")
    print("  machine " + json.dumps(machine(), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": work.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
