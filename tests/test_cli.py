"""CLI contract: commands, exit codes, CSV schema and determinism."""

import contextlib
import dataclasses
import io
import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomlaser import cli
from atomlaser import oracle as oracle_module
from atomlaser import verify as verify_module
from atomlaser.cli import DEFAULT_N_MAX_FLOOR, auto_n_max, main
from atomlaser.fock import SqueezedInput, Truncation, TruncationError, squeezed_coherent_state
from atomlaser.observables import CSV_COLUMNS
from atomlaser.oracle import evolve, evolve_many


def run(*argv):
    return main(list(argv))


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_simulate_default_row_count(tmp_path):
    out = tmp_path / "sim.csv"
    assert run("simulate", "--out", str(out)) == 0
    header, rows = read_rows(out)
    assert header == list(CSV_COLUMNS)
    assert len(rows) == 600  # 200 grid points x 3 sources


def test_simulate_oracle_only_two_rows(tmp_path):
    out = tmp_path / "two.csv"
    assert (
        run(
            "simulate", "--sources", "oracle", "--steps", "2", "--n-max", "32",
            "--r", "0.3", "--out", str(out),
        )
        == 0
    )
    _, rows = read_rows(out)
    assert len(rows) == 2
    assert all(row["source"] == "oracle" for row in rows)


def test_simulate_byte_identical_reruns(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--steps", "7", "--n-max", "48", "--r", "0.4", "--m-re", "0.2"]
    assert run(*args, "--out", str(out1)) == 0
    assert run(*args, "--out", str(out2)) == 0
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    assert b"\r" not in data


def test_simulate_vacuum_q_serialized_as_na(tmp_path):
    out = tmp_path / "na.csv"
    assert run("simulate", "--steps", "4", "--out", str(out)) == 0
    _, rows = read_rows(out)
    t0_oracle = [r for r in rows if r["source"] == "oracle"][0]
    assert t0_oracle["q_b"] == "NA"  # atom mode starts in vacuum
    assert t0_oracle["q_a"] != "NA"


def test_simulate_truncation_insufficient_exit_code(tmp_path):
    out = tmp_path / "x.csv"
    assert run("simulate", "--r", "3", "--n-max", "16", "--out", str(out)) == 2
    assert not out.exists()


def test_simulate_invalid_config_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense_key = 1\n")
    assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "y.csv")) == 1


def test_simulate_unknown_source_exit_code(tmp_path):
    assert run("simulate", "--sources", "tarot", "--out", str(tmp_path / "z.csv")) == 1


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# scenario\nr = 0.4\nsteps = 3\nn_max = 48\nsources = moment-map\n"
    )
    out = tmp_path / "cfg.csv"
    assert run("simulate", "--config", str(cfg), "--steps", "5", "--out", str(out)) == 0
    _, rows = read_rows(out)
    assert len(rows) == 5  # flag wins over config
    # the config's r = 0.4 is in effect: <Na>(0) = sinh^2(0.4)
    assert abs(float(rows[0]["na_mean"]) - math.sinh(0.4) ** 2) < 1e-9


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("# scenario\nr 0.4\n", 2, "expected 'key = value'"),
        ("r = 0.4\nphi = half\n", 2, "bad float for phi: 'half'"),
        ("steps = 3.5\n", 1, "bad integer for steps: '3.5'"),
        (None, None, "cannot read config"),
        ("r = 0.4\n\nvolume = 2  # no such key\n", 3, "unknown key 'volume'"),
    ],
    ids=["no-equals", "bad-float", "bad-integer", "missing-file", "unknown-key"],
)
def test_config_file_errors_name_the_file_and_line(tmp_path, capsys, text, line, message):
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "out.csv"
    assert run("simulate", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert message in err[0]
    assert (str(cfg) if line is None else f"{cfg}:{line}:") in err[0]
    assert not out.exists()


def test_verify_default_scenario(tmp_path):
    out = tmp_path / "verify.txt"
    assert run("verify", "--out", str(out)) == 0
    text = out.read_text()
    assert "unresolved: 0" in text
    assert "TYPO-SUSPECT" in text
    assert "CONFIRMED" in text


def test_verify_r_zero_skips_the_squeezed_vacuum_forms(tmp_path):
    # the vacuum-input forms divide by sinh^2 r, so r = 0 is a domain gap
    out = tmp_path / "verify.txt"
    assert run("verify", "--r", "0", "--out", str(out)) == 0
    text = out.read_text()
    assert "unresolved: 0" in text
    assert text.count("CONFIRMED") == 3
    assert "q-pair-vacuum" not in text


def test_simulate_r_zero_writes_no_literal_q_pair(tmp_path):
    # at r = 0 and m = 0 the light mode is the vacuum: every source writes NA
    # for its Mandel Q, and the literal squeezed-vacuum forms are out of domain
    out = tmp_path / "r0.csv"
    assert run("simulate", "--r", "0", "--steps", "4", "--out", str(out)) == 0
    _, rows = read_rows(out)
    assert all(row["q_a"] == "NA" and row["q_b"] == "NA" for row in rows)
    literal = [row for row in rows if row["source"] == "literal-paper"]
    assert len(literal) == 4
    assert all(row[name] == "NA" for row in literal for name in ("s1a", "s2a", "s1b", "s2b"))
    assert all(row["na_mean"] == "0" for row in literal)


@pytest.mark.parametrize(
    "argv",
    [
        ("--omega0", "1e308", "--omega-a", "1e308"),
        ("--r", "0", "--t-max", "1e300", "--steps", "2"),
    ],
    ids=["phase-anchors", "conversion-anchors"],
)
def test_verify_refuses_unbounded_anchor_sets(tmp_path, capsys, argv):
    out = tmp_path / "v.txt"
    start = time.perf_counter()
    assert run("verify", *argv, "--out", str(out)) == 1
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "anchor times" in err[0]
    assert not out.exists()


def test_verify_requires_all_sources(tmp_path):
    assert (
        run("verify", "--sources", "moment-map,oracle", "--out", str(tmp_path / "v.txt"))
        == 1
    )


def test_verify_detuned_scenario_is_config_error(tmp_path):
    assert run("verify", "--omega0", "5", "--out", str(tmp_path / "v.txt")) == 1


def test_negative_squeeze_magnitude_is_config_error(tmp_path):
    assert run("simulate", "--r", "-0.5", "--out", str(tmp_path / "n.csv")) == 1


def test_sweep_theta_leaves_number_moments_invariant(tmp_path):
    out = tmp_path / "sweep.csv"
    assert (
        run(
            "sweep", "--axis", "theta", "--values", "0,0.7853981633974483,1.5707963267948966",
            "--steps", "6", "--n-max", "48", "--r", "0.5", "--sources", "moment-map,oracle",
            "--out", str(out),
        )
        == 0
    )
    header, rows = read_rows(out)
    assert header[:2] == ["axis", "value"]
    by_value = {}
    for row in rows:
        key = (row["t"], row["source"])
        by_value.setdefault(key, []).append(row)
    for entries in by_value.values():
        assert len(entries) == 3
        for column in ("na_mean", "na_var", "nb_mean", "nb_var", "ntotal"):
            values = [float(e[column]) for e in entries]
            assert max(values) - min(values) < 1e-10


def test_sweep_detuned_value_routes_literal_to_na(tmp_path):
    out = tmp_path / "det.csv"
    assert (
        run(
            "sweep", "--axis", "omega0", "--values", "4,5",
            "--steps", "4", "--n-max", "48", "--r", "0.5",
            "--out", str(out),
        )
        == 0
    )
    _, rows = read_rows(out)
    detuned_literal = [
        r for r in rows if r["value"] == "5" and r["source"] == "literal-paper"
    ]
    assert detuned_literal
    assert all(r["na_mean"] == "NA" for r in detuned_literal)
    detuned_map = [
        r for r in rows if r["value"] == "5" and r["source"] == "moment-map"
    ]
    assert all(r["na_mean"] != "NA" for r in detuned_map)


@pytest.mark.parametrize("values", ["0.5,nan", "0.5,0.6,0.7,-1"])
def test_sweep_validates_every_value_before_running_any(tmp_path, capsys, monkeypatch, values):
    def must_not_run(*args):
        raise AssertionError("a scenario ran before every value was validated")

    monkeypatch.setattr(cli, "simulate_rows", must_not_run)
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--axis", "r", "--values", values, "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_sweep_unknown_axis_exit_code(tmp_path):
    assert (
        run("sweep", "--axis", "volume", "--values", "1,2", "--out", str(tmp_path / "s.csv"))
        == 1
    )


def test_converge_moderate_squeezing_converges(tmp_path):
    out = tmp_path / "conv.csv"
    assert (
        run(
            "converge", "--r", "0.3", "--steps", "4", "--values", "24,32,48",
            "--out", str(out),
        )
        == 0
    )
    lines = out.read_text().splitlines()
    assert lines[-1].startswith("result,48,converged")
    assert any(line.startswith("delta,24->32,") for line in lines)


def test_converge_insufficient_truncation(tmp_path):
    out = tmp_path / "conv2.csv"
    assert (
        run(
            "converge", "--r", "2", "--steps", "4", "--values", "16,24",
            "--out", str(out),
        )
        == 2
    )
    text = out.read_text()
    assert "truncation-insufficient" in text
    assert "not-converged" in text
    _, rows = read_rows(out)
    values = [row for row in rows if row["kind"] == "value"]
    assert values and all(row["status"] == "truncation-insufficient" for row in values)


@pytest.mark.parametrize(
    "argv, statuses, result, last_delta",
    [
        # the vacuum: every cutoff holds it exactly
        (("--r", "0", "--values", "8,16"), ["ok", "ok"], "converged", 1e-12),
        # Poisson tails are light: |m| = 1 is already converged at n_max = 16
        (("--r", "0", "--m-re", "1", "--values", "16,24"), ["ok", "ok"], "converged", 1e-8),
        # squeezed tails are geometric: each 8 more levels cut the delta, but not to 1e-8
        (("--r", "1", "--values", "40,48,56,64"), ["truncation-insufficient"] * 3 + ["ok"],
         "not-converged", 1e-4),
        # converged needs the last two deltas at most 1e-8, not just the last one
        (("--r", "0.3", "--values", "16,32,48"), ["ok"] * 3, "not-converged", 1e-8),
    ],
    ids=["vacuum", "coherent", "squeezed", "one-small-delta"],
)
def test_converge_deltas_follow_the_input_tails(tmp_path, argv, statuses, result, last_delta):
    out = tmp_path / "conv.csv"
    code = 0 if result == "converged" else 2
    assert run("converge", *argv, "--steps", "5", "--out", str(out)) == code
    _, rows = read_rows(out)
    # five rows, one per time, for each cutoff
    assert [row["status"] for row in rows if row["kind"] == "value"][::5] == statuses
    assert rows[-1]["kind"] == "result" and rows[-1]["status"] == result
    deltas = [float(row["max_delta"]) for row in rows if row["kind"] == "delta"]
    assert all(b < a for a, b in zip(deltas, deltas[1:]))
    assert deltas[-1] < last_delta


def test_converge_with_no_input_that_fits_writes_the_table_and_exits_2(tmp_path):
    # neither cutoff holds r = 3 even at the permissive deficit, so nothing evolves
    out = tmp_path / "conv.csv"
    assert run("converge", "--values", "1,2", "--r", "3", "--out", str(out)) == 2
    assert out.read_text() == (
        "kind,n_max,status,t,na_mean,na_var,nb_mean,nb_var,q_a,q_b,"
        "s1a,s2a,s1b,s2b,ntotal,max_delta\n"
        "value,1,truncation-insufficient,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA\n"
        "value,2,truncation-insufficient,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA\n"
        "delta,1->2,,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,inf\n"
        "result,2,not-converged,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,1e-08\n"
    )


def test_converge_rejects_non_increasing_values(tmp_path):
    assert (
        run("converge", "--values", "32,32", "--out", str(tmp_path / "c.csv")) == 1
    )


def test_float_formatting_is_17_significant_digits(tmp_path):
    out = tmp_path / "fmt.csv"
    assert run(
        "simulate", "--steps", "2", "--n-max", "48", "--r", "0.5",
        "--sources", "moment-map", "--out", str(out),
    ) == 0
    _, rows = read_rows(out)
    value = rows[0]["na_mean"]  # sinh^2(0.5) at full precision
    assert value == format(float(value), ".17g")
    assert abs(float(value) - math.sinh(0.5) ** 2) < 1e-12


@pytest.mark.parametrize(
    "r, m, expected",
    [(0.0, 0.0, 64), (1.0, 0.0, 64), (1.0, 0.5, 80), (1.25, 0.0, 100),
     (1.5, 0.0, 164), (2.0, 0.0, 448)],
)
def test_auto_n_max_is_the_smallest_cutoff_the_deficit_check_accepts(r, m, expected):
    inp = SqueezedInput(r, m=m)
    n_max = auto_n_max(inp)
    assert n_max == expected
    squeezed_coherent_state(inp, Truncation(n_max))
    if n_max > DEFAULT_N_MAX_FLOOR:
        with pytest.raises(TruncationError):
            squeezed_coherent_state(inp, Truncation(n_max - 1))


@pytest.mark.parametrize("r, n_max", [("1.25", "100"), ("1.5", "164")])
def test_simulate_deep_squeeze_runs_with_the_auto_cutoff(tmp_path, r, n_max):
    out = tmp_path / "deep.csv"
    assert run("simulate", "--r", r, "--steps", "8", "--out", str(out)) == 0
    _, rows = read_rows(out)
    assert {row["n_max"] for row in rows} == {n_max}


def test_auto_n_max_stops_at_the_ceiling(tmp_path, capsys):
    out = tmp_path / "r10.csv"
    start = time.perf_counter()
    assert run("simulate", "--r", "10", "--out", str(out)) == 2
    assert time.perf_counter() - start < 2.0
    assert "--n-max" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--r", "nan"),
        ("simulate", "--m-im=-inf"),
        ("simulate", "--omega0", "inf"),
        ("simulate", "--t-max", "nan"),
        ("simulate", "--theta", "nan"),
        ("simulate", "--tol-oracle", "nan"),
        ("verify", "--phi", "inf"),
        ("sweep", "--axis", "r", "--values", "0.5,nan"),
        ("converge", "--values", "16,24", "--omega-r", "nan"),
        # usage errors from argparse
        ("simulate", "--bogus"),
        ("simulate", "--m-re", "-1e-3"),  # argparse reads -1e-3 as a flag
        ("verify", "--steps", "many"),
        ("sweep", "--axis", "r"),
        ("transmogrify",),
        # a cutoff below 1 that is not the last of converge's list
        ("converge", "--values", "0,40"),
    ],
)
def test_non_finite_settings_are_config_errors(tmp_path, capsys, argv):
    out = tmp_path / "out.txt"
    assert run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run("simulate", "--help")
    assert exc.value.code == 0
    assert "--tol-oracle" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--out", "."),
        ("verify", "--out", "missing/verify.txt"),
    ],
    ids=["a-directory", "in-a-missing-directory"],
)
def test_an_output_that_cannot_be_written_is_a_config_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--steps", "3") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "missing").exists()


def test_simulate_huge_phi_is_its_remainder_mod_2_pi(tmp_path):
    huge, reduced = tmp_path / "huge.csv", tmp_path / "reduced.csv"
    assert run("simulate", "--phi", "1e308", "--steps", "5", "--out", str(huge)) == 0
    remainder = repr(math.fmod(1e308, 2 * math.pi))
    assert run("simulate", f"--phi={remainder}", "--steps", "5", "--out", str(reduced)) == 0
    assert huge.read_bytes() == reduced.read_bytes()


@pytest.mark.parametrize("theta", ["-1e25", "1e20"])
def test_verify_reduces_a_huge_theta(tmp_path, theta):
    default, huge = tmp_path / "default.txt", tmp_path / "huge.txt"
    assert run("verify", "--out", str(default)) == 0
    assert run("verify", f"--theta={theta}", "--out", str(huge)) == 0
    assert verdicts(huge) == verdicts(default)


def test_simulate_huge_theta_is_its_remainder_mod_2_pi(tmp_path):
    huge, reduced = tmp_path / "huge.csv", tmp_path / "reduced.csv"
    assert run("simulate", "--theta=-1e25", "--out", str(huge)) == 0
    remainder = repr(math.fmod(-1e25, 2 * math.pi))
    assert run("simulate", f"--theta={remainder}", "--out", str(reduced)) == 0
    assert huge.read_bytes() == reduced.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ("--omega0", "1e4"),
        ("--omega0", "1e6", "--omega-a=-1e6"),
        ("--omega-r", "1e-3", "--omega0", "1e4"),
    ],
)
def test_oracle_matches_the_moment_map_far_off_resonance(tmp_path, argv):
    # the detuned transfer matrix must keep up with the oracle's check
    assert run("simulate", *argv, "--steps", "20", "--out", str(tmp_path / "far.csv")) == 0


def rotated_b_squared(params, light, times):
    """evolve, with the atom-mode <b^2> turned by e^{0.1 i}: an oracle fault."""
    return turn_b_squared(evolve(params, light, times))


def turn_b_squared(result):
    light_t, atom_t = result.moments
    atom_t = dataclasses.replace(atom_t, sq_amp=atom_t.sq_amp * np.exp(0.1j))
    return dataclasses.replace(result, moments=(light_t, atom_t))


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_oracle_that_leaves_the_moment_map_is_an_invariant_violation(
    tmp_path, capsys, monkeypatch, command
):
    monkeypatch.setattr(cli, "evolve", rotated_b_squared)
    monkeypatch.setattr(verify_module, "evolve", rotated_b_squared)
    out = tmp_path / "out.txt"
    assert run(command, "--out", str(out)) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invariant violation:")
    assert "atom sq_amp" in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, where",
    [
        # the moment map's global phase overflows: every field is NaN
        (("--sources", "moment-map", "--omega0", "1e308", "--omega-a", "1e308"), "moment-map"),
        # the oracle's phases overflow: its norm drift is NaN
        (("--sources", "oracle", "--t-max", "1e300", "--omega0", "1e10", "--omega-a", "1e10"),
         "norm drift"),
        # the oracle's block diagonal overflows before any eigensolve
        (("--omega0", "1e308", "--omega-a", "1e308"), "not finite"),
    ],
    ids=["moment-map-phase", "oracle-phases", "oracle-block"],
)
def test_results_that_are_not_finite_are_invariant_violations(tmp_path, capsys, argv, where):
    out = tmp_path / "inf.csv"
    assert run("simulate", *argv, "--steps", "3", "--out", str(out)) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invariant violation:")
    assert where in err[0]
    assert not out.exists()


def test_failed_sweep_leaves_no_file(tmp_path, capsys):
    # r = 0.3 fits 40 levels; r = 3 does not, so the sweep exits 2 before any oracle runs
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--axis", "r", "--values", "0.3,3", "--n-max", "40", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("truncation-insufficient:")
    assert not out.exists()


def test_sweep_builds_every_input_before_any_oracle_runs(tmp_path, capsys, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("the oracle ran before every input was built")

    monkeypatch.setattr(cli, "evolve_many", must_not_run)
    out = tmp_path / "sweep.csv"
    argv = ("sweep", "--axis", "r", "--values", "0.5,3", "--n-max", "64", "--out", str(out))
    assert run(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("truncation-insufficient:")
    assert "r=3" in err[0] and "n_max=64" in err[0]
    assert not out.exists()


def test_converge_checks_every_cutoff_against_the_moment_map(tmp_path, capsys, monkeypatch):
    def rotated(params, lights, times):
        return [turn_b_squared(result) for result in evolve_many(params, lights, times)]

    monkeypatch.setattr(cli, "evolve_many", rotated)
    out = tmp_path / "conv.csv"
    assert run("converge", "--r", "0.3", "--steps", "4", "--values", "24,32", "--out", str(out)) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invariant violation:")
    assert "atom sq_amp" in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "commands, solves",
    [
        # the cutoffs share one pass over the 80 even blocks up to 160
        ([("converge", "--values", "96,128,160", "--steps", "40")], 80),
        # input axes share one pass
        ([("sweep", "--axis", "r", "--values", "0.75,1.25", "--n-max", "160", "--steps", "40")],
         80),
        # the blocks never read theta: both values share one pass over 32 even blocks
        ([("sweep", "--axis", "theta", "--values", "0,1", "--n-max", "64")], 32),
        # no eigensolve is kept from one command to the next
        ([("converge", "--values", "96,128,160", "--steps", "40")] * 2, 160),
    ],
    ids=["converge", "sweep-r", "sweep-theta", "converge-twice"],
)
def test_eigensolves_per_command(tmp_path, monkeypatch, commands, solves):
    calls = []
    solve = oracle_module.eigh_tridiagonal

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(oracle_module, "eigh_tridiagonal", counted)
    for argv in commands:
        assert run(*argv, "--out", str(tmp_path / "out.csv")) == 0
    assert len(calls) == solves


def verdicts(path):
    rows = path.read_text().split("\n\n")[1].splitlines()[2:-2]
    return [tuple(row.split()[:2]) for row in rows]


@pytest.mark.parametrize("extra", [(), ("--m-re", "0.5")])
def test_tol_algebraic_gates_confirmed_verdicts(tmp_path, extra):
    default, strict = tmp_path / "default.txt", tmp_path / "strict.txt"
    assert run("verify", *extra, "--out", str(default)) == 0
    # roundoff separates the closed forms from the moment map by about 1e-15
    assert run("verify", *extra, "--tol-algebraic", "1e-17", "--out", str(strict)) == 4
    before, after = verdicts(default), verdicts(strict)
    assert [name for name, _ in before] == [name for name, _ in after]
    for (name, was), (_, now) in zip(before, after):
        assert now == was or (was == "CONFIRMED" and now == "UNRESOLVED"), name
    assert ("conversion-number-transfer", "CONFIRMED") in after  # |lit-map| is 0 there


def drifting(name):
    """evolve, with its norm or occupation drift set to 1e-6: an oracle fault that
    leaves every moment in place."""
    return lambda *args: dataclasses.replace(evolve(*args), **{name: 1e-6})


@pytest.mark.parametrize("name, where", [("norm_drift", "norm"), ("ntotal_drift", "occupation")])
def test_verify_gates_the_oracle_drift(tmp_path, capsys, monkeypatch, name, where):
    monkeypatch.setattr(verify_module, "evolve", drifting(name))
    out = tmp_path / "verify.txt"
    assert run("verify", "--out", str(out)) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invariant violation:")
    assert f"{where} drift 1.000e-06" in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config",
    [
        (("simulate", "--n-max", "513"), None),
        (("simulate",), "n_max = 513\n"),
        (("converge", "--values", "64,513"), None),
        (("sweep", "--axis", "r", "--values", "0.5", "--n-max", "100000"), None),
    ],
    ids=["flag", "config", "converge", "sweep"],
)
def test_an_explicit_cutoff_above_the_ceiling_is_a_config_error(
    tmp_path, capsys, monkeypatch, argv, config
):
    def must_not_run(*args):
        raise AssertionError("the oracle ran past the cutoff ceiling")

    # sweep and converge call cli's own binding, simulate reaches the oracle's through evolve
    monkeypatch.setattr(oracle_module, "evolve_many", must_not_run)
    monkeypatch.setattr(cli, "evolve_many", must_not_run)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv += ("--config", str(tmp_path / "run.cfg"))
    out = tmp_path / "out.csv"
    assert run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "at most 512" in err[0]
    assert not out.exists()


def test_the_ceiling_itself_is_an_allowed_cutoff():
    run_config = cli.build_run_config({**cli._DEFAULTS, "n_max": cli.DEFAULT_N_MAX_CEILING})
    assert run_config.scenario.truncation.n_max == cli.DEFAULT_N_MAX_CEILING


# argv fragments for the fuzz test below.  Grids stay at most 64 steps and
# explicit cutoffs at most 40 levels, so no example needs much time or memory.
_BAD = ["nan", "inf", "-inf", "-1", "0", "1e308", "-1e308", "x", ""]


def _mostly(*valid):
    """A value from ``valid`` three times in four, else one from _BAD."""
    return st.one_of(*[st.sampled_from(valid)] * 3, st.sampled_from(_BAD))


def _value_list(*valid):
    return st.lists(_mostly(*valid), min_size=1, max_size=3).map(",".join)


_FUZZ_VALUES = {
    **{flag: _mostly("0.5", "1") for flag in ("--r", "--phi", "--m-re", "--m-im", "--theta")},
    **{flag: _mostly("0.5", "1", "4") for flag in ("--omega0", "--omega-a", "--omega-r")},
    "--t-max": _mostly("1", "6"),
    "--tol-algebraic": _mostly("1e-8", "1"),
    "--tol-oracle": _mostly("1e-6", "1"),
    "--steps": _mostly("2", "3", "17", "64"),
    "--n-max": _mostly(*map(str, range(24, 41)), "513"),
    "--sources": _mostly("oracle", "literal-paper,moment-map", "moment-map,x"),
    "--config": _mostly("run.cfg", "."),
    "--out": _mostly("out.csv", ".", "missing/out.csv"),
}
_REQUIRED = {
    "sweep": {"--axis": _mostly(*cli.SWEEP_AXES), "--values": _value_list("0.5", "1")},
    "converge": {"--values": _value_list(*map(str, range(24, 41, 8)), "513")},
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(["simulate", "verify", "sweep", "converge"] * 2 + ["x"]))
    argv = [command]
    for flag, values in _REQUIRED.get(command, {}).items():
        argv += [flag, draw(values)]
    for flag in draw(st.lists(st.sampled_from(sorted(_FUZZ_VALUES)), max_size=4)):
        argv += [flag, draw(_FUZZ_VALUES[flag])]
    return argv


@settings(derandomize=True, deadline=None, max_examples=150)
@given(argv=fuzz_argv())
def test_no_argv_raises(tmp_path_factory, argv):
    workdir = tmp_path_factory.getbasetemp() / "fuzz"
    workdir.mkdir(exist_ok=True)
    (workdir / "run.cfg").write_text("r = 0.3\nn_max = 32\nsteps = 4\n")
    home = os.getcwd()  # contextlib.chdir needs Python 3.11
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in {0, 1, 2, 3, 4}
    finally:
        os.chdir(home)
