"""Tests of the benchmark itself: workloads, output checks and tracing.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import hashlib
import json
import re

import numpy as np
import pytest

import checks
import run
import spans
import workloads
from workloads import CLOSED_FORM_SOURCES, VACUUM_VERDICTS, Command

SIMULATE = Command(("simulate", "--steps", "20"), rows=60)
CLOSED_FORM = Command(
    ("simulate", "--sources", "literal-paper,moment-map", "--steps", "20"),
    rows=40,
    sources=CLOSED_FORM_SOURCES,
)
SWEEP = Command(("sweep", "--axis", "r", "--values", "0.5,0.75", "--steps", "10"), rows=60)
CONVERGE = Command(("converge", "--values", "96,128", "--steps", "10"), rows=22)
VERIFY = Command(("verify",), rows=13, verdicts=VACUUM_VERDICTS)
SMALL = [SIMULATE, CLOSED_FORM, SWEEP, CONVERGE, VERIFY]


@pytest.fixture(scope="module")
def outputs(program, tmp_path_factory):
    """One checked pass of the small commands: {command: output text}."""
    work = run.Workload(program[1]["cli"], SMALL, tmp_path_factory.mktemp("out"))
    work.run_pass()
    assert work.failures == []
    return dict(zip(SMALL, work.texts))


def _set_field(text: str, row: int, field: str, value: str) -> str:
    lines = text.split("\n")
    names = lines[0].split(",")
    fields = lines[row + 1].split(",")
    fields[names.index(field)] = value
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


def _shift_field(text: str, row: int, field: str, delta: float) -> str:
    lines = text.split("\n")
    old = lines[row + 1].split(",")[lines[0].split(",").index(field)]
    return _set_field(text, row, field, repr(float(old) + delta))


# ---------------------------------------------------------------- workloads


def test_seed_zero_reproduces_the_reference_argv():
    argv = {w: [" ".join(c.argv) for c in workloads.commands(w, 0)] for w in workloads.WORKLOADS}
    assert argv == {
        "long-grid": ["simulate --steps 2000", "simulate --steps 2000 --omega0 5"],
        "deep-squeeze": [
            "sweep --axis r --values 0.75,1.25 --n-max 160 --steps 40",
            "converge --values 96,128,160 --steps 40",
        ],
        "closed-form-grid": [
            "simulate --sources literal-paper,moment-map --steps 10000",
            "simulate --sources literal-paper,moment-map --steps 10000 --m-re 0.5",
        ],
        "adjudicate": ["verify", "verify --m-re 0.5", "verify --r 0.5 --theta 0.3"],
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_redraw_parameters_but_keep_the_work(workload):
    reference = workloads.commands(workload, 0)
    drawn = workloads.commands(workload, 7)
    assert drawn == workloads.commands(workload, 7)
    assert drawn != reference
    fixed = ("--steps", "--n-max", "--sources", "--axis", "--omega0")
    for ref, new in zip(reference, drawn, strict=True):
        assert new.kind == ref.kind and new.rows == ref.rows and new.sources == ref.sources
        for flag in fixed:
            if flag in ref.argv:
                assert new.argv[new.argv.index(flag) + 1] == ref.argv[ref.argv.index(flag) + 1]
            else:
                assert flag not in new.argv


# ------------------------------------------------------------ output checks


def test_good_outputs_pass_every_check(outputs):
    for cmd, text in outputs.items():
        assert checks.check_command(cmd, text) == [], cmd.argv


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t: t.replace("t,source,", "time,source,", 1),
        lambda t: t[: t.rindex("\n", 0, -1) + 1],  # last row dropped
        lambda t: t[:-1],  # no final newline
        lambda t: _set_field(t, 3, "tail_mass", "0,0"),  # one field too many
        lambda t: _set_field(t, 2, "source", "moment-map"),  # source order
        lambda t: _set_field(t, 4, "na_var", "NA"),  # NA outside a domain gap
        lambda t: _set_field(t, 4, "s1a", "inf"),
        lambda t: _shift_field(t, 5, "na_var", 1e-3),  # oracle off the map
        lambda t: _shift_field(t, 4, "q_b", -1e-3),  # map off the oracle
    ],
    ids=["header", "row-count", "newline", "field-count", "source-order", "na", "inf",
         "oracle-value", "map-value"],
)
def test_simulate_checks_reject_corruption(outputs, corrupt):
    assert checks.check_command(SIMULATE, corrupt(outputs[SIMULATE]))


def test_conservation_check_rejects_a_perturbed_closed_form(outputs):
    text = _shift_field(outputs[CLOSED_FORM], 7, "ntotal", 1e-6)
    assert checks.check_conservation(checks.parse_table(text, checks.SIMULATE_HEADER, 40)[1])
    assert checks.check_command(CLOSED_FORM, text)


def test_sweep_checks_compare_within_each_axis_value(outputs):
    text = _shift_field(outputs[SWEEP], 35, "nb_mean", 1e-3)
    assert checks.check_command(SWEEP, text)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t: t.replace(",converged,", ",not-converged,"),
        lambda t: t.replace("value,128,ok,", "value,128,truncation-insufficient,", 1),
        lambda t: _set_field(t, 3, "nb_var", "nan"),
    ],
    ids=["result", "status", "nan"],
)
def test_converge_checks_reject_corruption(outputs, corrupt):
    assert checks.check_command(CONVERGE, corrupt(outputs[CONVERGE]))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t: re.sub(r"(?m)^(q-pair-vacuum +)CONFIRMED   ", r"\1TYPO-SUSPECT", t),
        lambda t: t.replace("unresolved: 0", "unresolved: 1"),
        lambda t: re.sub(r"(?m)^-+$", lambda rule: "=" * len(rule.group()), t),
    ],
    ids=["flipped-verdict", "unresolved", "no-table"],
)
def test_verify_checks_reject_corruption(outputs, corrupt):
    corrupted = corrupt(outputs[VERIFY])
    assert corrupted != outputs[VERIFY]
    assert checks.check_command(VERIFY, corrupted)


def test_failed_exit_and_changed_bytes_count_as_failures(program, tmp_path):
    bad = Command(("simulate", "--steps", "1"), rows=3)
    work = run.Workload(program[1]["cli"], [bad, SIMULATE], tmp_path)
    work.run_pass()
    assert work.attempted == 2 and len(work.failures) == 1 and "exit 1" in work.failures[0]
    work.reference[1] = hashlib.sha256(b"other bytes").hexdigest()
    work.run_pass()
    assert work.attempted == 4 and "differ" in work.failures[-1]


# ------------------------------------------------------------------ tracing


def test_self_time_is_duration_minus_child_coverage():
    recorded = {
        "name": np.array([0, 1, 1, 2]),
        "start": np.array([0.0, 1.0, 4.0, 5.0]),
        "end": np.array([10.0, 3.0, 8.0, 6.0]),
        "parent": np.array([-1, 0, 0, 2]),
        "command": np.zeros(4, dtype=np.int32),
    }
    seconds, calls = spans.self_times(recorded, 3)
    assert seconds.tolist() == [4.0, 5.0, 1.0]
    assert calls.tolist() == [1, 2, 1]


def test_tracer_wraps_every_binding_and_restores_it(program):
    package, modules = program
    build = modules["fock"].squeezed_coherent_state
    render = modules["verify"].DiscrepancyReport.render
    with spans.Tracer(package, modules):
        wrapped = modules["fock"].squeezed_coherent_state
        assert wrapped is not build
        for owner in (package, modules["oracle"], modules["verify"]):
            assert owner.squeezed_coherent_state is wrapped
        assert modules["verify"].DiscrepancyReport.render is not render
    for owner in (package, modules["fock"], modules["oracle"], modules["verify"]):
        assert owner.squeezed_coherent_state is build
    assert modules["verify"].DiscrepancyReport.render is render


def test_traced_pass_matches_untraced_bytes_and_wall_time(program, tmp_path):
    package, modules = program
    work = run.Workload(modules["cli"], SMALL, tmp_path)
    work.run_pass()
    untraced = list(work.texts)
    tracer = spans.Tracer(package, modules)
    with tracer:
        wall = work.run_pass(tracer)
    assert work.failures == []  # the judge compares every pass to the first by sha256
    assert [p.read_text() for p in work.paths] == untraced
    seconds, calls = spans.self_times(tracer.arrays(), len(tracer.names))
    layers = {name.split(".", 1)[0] for name, n in zip(tracer.names, calls) if n}
    assert layers == set(spans.LAYERS)
    assert 0.0 < seconds.sum() <= wall
    assert (seconds > -1e-9).all()


def test_metrics_match_benchmark_json(program, tmp_path):
    package, modules = program
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ends = run.measure(run.Workload(modules["cli"], [SIMULATE], tmp_path), 0.0)["metrics"]
    ends["setup_s"] = (min(run.import_seconds(1)), "s")
    layers = run.measure_layers(
        run.Workload(modules["cli"], [SIMULATE, VERIFY], tmp_path), package, modules, 0.0,
        tmp_path / "spans.npz",
    )["metrics"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for listed, measured in ((spec["end_to_end"], ends), (spec["per_layer"], layers)):
        assert {m["name"]: m["unit"] for m in listed} == {k: u for k, (_, u) in measured.items()}
    assert all(value > 0 for value, _ in ends.values())
    assert (tmp_path / "spans.npz").is_file()
