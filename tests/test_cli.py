"""CLI contract: commands, exit codes, CSV schema and determinism."""

import argparse
import contextlib
import dataclasses
import io
import math
import os
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomlaser import cli
from atomlaser import oracle as oracle_module
from atomlaser.cli import DEFAULT_N_MAX_FLOOR, auto_n_max, main
from atomlaser.fock import SqueezedInput, TruncationError, squeezed_coherent_state
from atomlaser.observables import CSV_COLUMNS, PHYSICS_COLUMNS
from atomlaser.oracle import evolve_many


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
        ("n_max = 2.5\n", 1, "bad integer for n_max: '2.5'"),
        (None, None, "cannot read config"),
        ("r = 0.4\n\nvolume = 2  # no such key\n", 3, "unknown key 'volume'"),
        (b"\xff\xfer = 0.4\n", None, "cannot read config"),
    ],
    ids=[
        "no-equals", "bad-float", "bad-integer", "bad-cutoff", "missing-file", "unknown-key",
        "not-utf8",
    ],
)
def test_config_file_errors_name_the_file_and_line(tmp_path, capsys, text, line, message):
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
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


@pytest.mark.parametrize(
    "argv",
    [
        ("converge", "--values", "24,32", "--n-max", "40"),
        ("converge", "--values", "24,32", "--sources", "oracle"),
        ("verify", "--sources", "literal-paper,moment-map,oracle"),
        ("sweep", "--axis", "r", "--values", "0.5", "--r", "1"),
    ],
    ids=["converge-n-max", "converge-sources", "verify-sources", "sweep-own-axis"],
)
def test_each_command_takes_only_the_flags_it_reads(tmp_path, capsys, monkeypatch, argv):
    def must_not_run(settings):
        raise AssertionError("a run was configured despite a flag the command does not read")

    monkeypatch.setattr(cli, "build_run_config", must_not_run)
    out = tmp_path / "out.txt"
    assert run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_one_config_file_serves_every_command(tmp_path):
    # verify reads no sources and simulate no tolerances, yet each accepts both keys
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sources = oracle\ntol_oracle = 1e-6\nsteps = 8\n")
    assert run("verify", "--config", str(cfg), "--out", str(tmp_path / "v.txt")) == 0
    assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")) == 0
    _, rows = read_rows(tmp_path / "s.csv")
    assert {row["source"] for row in rows} == {"oracle"}


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


@pytest.mark.parametrize(
    "argv",
    [("simulate", "--omega0", "5"), ("sweep", "--axis", "omega0", "--values", "5,6")],
    ids=["simulate", "sweep"],
)
def test_a_table_of_only_na_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv):
    def must_not_run(*args, **kwargs):
        raise AssertionError("an input was built for a table that could hold only NA")

    # off resonance no literal-paper form is in its domain
    monkeypatch.setattr(cli, "squeezed_coherent_state", must_not_run)
    out = tmp_path / "na.csv"
    assert run(*argv, "--sources", "literal-paper", "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_a_literal_sweep_with_one_resonant_value_runs(tmp_path):
    out = tmp_path / "lit.csv"
    argv = ("sweep", "--axis", "omega0", "--values", "4,5", "--sources", "literal-paper")
    assert run(*argv, "--steps", "4", "--out", str(out)) == 0
    _, rows = read_rows(out)
    filled = {value: {k for r in rows if r["value"] == value for k in r if r[k] != "NA"}
              for value in ("4", "5")}
    assert filled["4"] >= set(PHYSICS_COLUMNS)
    assert not filled["5"] & set(PHYSICS_COLUMNS)


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


def test_converge_refuses_a_single_cutoff_before_any_work(tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("converge started work it could never use")

    monkeypatch.setattr(cli, "squeezed_coherent_state", must_not_run)
    monkeypatch.setattr(oracle_module, "evolve_many", must_not_run)
    out = tmp_path / "c.csv"
    assert run("converge", "--values", "64", "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


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
    squeezed_coherent_state(inp, n_max)
    if n_max > DEFAULT_N_MAX_FLOOR:
        with pytest.raises(TruncationError):
            squeezed_coherent_state(inp, n_max - 1)


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
        ("verify", "--tol-oracle", "nan"),
        ("verify", "--phi", "inf"),
        ("sweep", "--axis", "r", "--values", "0.5,nan"),
        ("converge", "--values", "16,24", "--omega-r", "nan"),
        # usage errors from argparse
        ("simulate", "--bogus"),
        ("simulate", "--bogus", "-1"),  # -1 is a value, but --bogus is no flag
        ("verify", "--steps", "many"),
        ("sweep", "--axis", "r"),
        ("transmogrify",),
        # only verify reads the tolerances, and none is negative
        ("simulate", "--tol-oracle", "1"),
        ("verify", "--tol-oracle", "-1"),
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


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--omega0", "-1e3", "--omega-a", "-1e3"),
        ("verify", "--theta", "-2e-1"),
        ("simulate", "--m-re", "-1e-3"),
        ("sweep", "--axis", "theta", "--values", "-0.5,0.5"),
    ],
    ids=["verify-omega0", "verify-theta", "simulate-m-re", "sweep-values"],
)
def test_a_negative_value_may_follow_its_flag(tmp_path, argv):
    # argparse alone reads a token such as -1e3 as an unknown flag
    spaced, joined = tmp_path / "spaced.txt", tmp_path / "joined.txt"
    assert run(*argv, "--out", str(spaced)) == 0
    equals = [f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])]
    assert run(argv[0], *equals, "--out", str(joined)) == 0
    assert spaced.read_bytes() == joined.read_bytes()


def test_help_still_exits_0(capsys):
    scenario = {
        "--help", "--config", "--r", "--phi", "--m-re", "--m-im", "--theta", "--omega0",
        "--omega-a", "--omega-r", "--t-max", "--steps", "--out",
    }
    own = {
        "simulate": {"--n-max", "--sources"},
        "verify": {"--n-max", "--tol-algebraic", "--tol-oracle"},
        "sweep": {"--n-max", "--sources", "--axis", "--values"},
        "converge": {"--values"},
    }
    for command, flags in own.items():
        with pytest.raises(SystemExit) as exc:
            run(command, "--help")
        assert exc.value.code == 0
        assert set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out)) == scenario | flags


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--out", "."),
        ("verify", "--out", "missing/verify.txt"),
        ("simulate", "--config", "nul.cfg"),
    ],
    ids=["a-directory", "in-a-missing-directory", "with-a-nul-byte"],
)
def test_an_output_that_cannot_be_written_is_a_config_error(tmp_path, capsys, monkeypatch, argv):
    # argv cannot carry a NUL byte, so that path comes from a config file
    (tmp_path / "nul.cfg").write_text("out = sim\0.csv\n")
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--steps", "3") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write")
    assert [path.name for path in tmp_path.iterdir()] == ["nul.cfg"]


def test_a_config_files_out_and_tolerances_reach_their_command(tmp_path):
    cfg, out = tmp_path / "run.cfg", tmp_path / "strict.txt"
    cfg.write_text(f"tol_algebraic = 1e-17\nout = {out}\n")
    # roundoff separates the closed forms from the moment map by about 1e-15
    assert run("verify", "--config", str(cfg)) == 4
    assert ("conversion-number-transfer", "CONFIRMED") in verdicts(out)
    assert "UNRESOLVED" in {verdict for _, verdict in verdicts(out)}
    cfg.write_text(f"out = {tmp_path / 'sim.csv'}\nsteps = 3\n")
    assert run("simulate", "--config", str(cfg)) == 0
    assert len(read_rows(tmp_path / "sim.csv")[1]) == 9  # 3 grid points x 3 sources


def test_without_out_each_command_writes_its_default_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--steps", "3") == 0
    assert run("verify", "--steps", "3") == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["simulate.csv", "verify.txt"]
    assert len(read_rows(tmp_path / "simulate.csv")[1]) == 9


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


@pytest.mark.parametrize("t_max, code", [("1e7", 0), ("1e8", 3)])
def test_the_oracle_refuses_times_past_its_precision_domain(tmp_path, capsys, t_max, code):
    # the default run's phase roundoff slack, eps t n_max (omega + omega_r), is
    # 4.7e-7 at t = 6.7e6 and 4.7e-6 at t = 6.7e7; above 1e-6 it would gate nothing
    out = tmp_path / "out.csv"
    assert run("simulate", "--t-max", t_max, "--steps", "3", "--out", str(out)) == code
    err = capsys.readouterr().err.splitlines()
    if code:
        assert len(err) == 1 and err[0].startswith("invariant violation:")
        assert "precision domain" in err[0] and "4.737e-06 exceeds 1e-6" in err[0]
    assert out.exists() == (code == 0)


@pytest.mark.parametrize(
    "argv, where",
    [
        # the moment map's global phase overflows: every field is NaN
        (("--sources", "moment-map", "--omega0", "1e308", "--omega-a", "1e308"), "moment-map"),
        # the oracle's phases overflow: the turn e^{-i omega_a t} of its ladder sums is NaN
        (("--sources", "oracle", "--t-max", "1e300", "--omega0", "1e10", "--omega-a", "1e10"),
         "ladder phases"),
        # off resonance the blocks' own phases e^{-iEt} overflow
        (("--sources", "oracle", "--t-max", "1e300", "--omega0", "1e10", "--omega-a", "1e9"),
         "block phases"),
        # the oracle's block diagonal overflows before any eigensolve
        (("--omega0", "1e308", "--omega-a", "1e308"), "not finite"),
    ],
    ids=["moment-map-phase", "oracle-phases", "oracle-block-phases", "oracle-block"],
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

    monkeypatch.setattr(oracle_module, "evolve_many", must_not_run)
    out = tmp_path / "sweep.csv"
    argv = ("sweep", "--axis", "r", "--values", "0.5,3", "--n-max", "64", "--out", str(out))
    assert run(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("truncation-insufficient:")
    assert "r=3" in err[0] and "n_max=64" in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "commands, solves",
    [
        # the cutoffs share one pass over the 81 even blocks up to 160: block 0 needs no
        # solve, and each other one is split into two half-size chiral solves
        ([("converge", "--values", "96,128,160", "--steps", "40")], 160),
        # input axes share one pass
        ([("sweep", "--axis", "r", "--values", "0.75,1.25", "--n-max", "160", "--steps", "40")],
         160),
        # the blocks never read theta: both values share one pass over 33 even blocks
        ([("sweep", "--axis", "theta", "--values", "0,1", "--n-max", "64")], 64),
        # detuned blocks are not split: two passes (one per omega_r) of 33 whole solves
        ([("sweep", "--axis", "omega_r", "--values", "1,2", "--omega0", "5", "--n-max", "64")],
         66),
        # no eigensolve is kept from one command to the next
        ([("converge", "--values", "96,128,160", "--steps", "40")] * 2, 320),
    ],
    ids=["converge", "sweep-r", "sweep-theta", "sweep-detuned", "converge-twice"],
)
def test_eigensolves_per_command(tmp_path, monkeypatch, commands, solves):
    calls = []
    for entry in ("eigh_tridiagonal", "eigh_chiral"):  # a block or half takes one of the two
        solve = getattr(oracle_module, entry)

        def counted(*args, solve=solve):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(oracle_module, entry, counted)
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


def turn_b_squared(result):
    """The atom-mode <b^2> turned by e^{0.1 i}: the oracle leaves the moment map."""
    light_t, atom_t = result.moments
    atom_t = dataclasses.replace(atom_t, sq_amp=atom_t.sq_amp * np.exp(0.1j))
    return dataclasses.replace(result, moments=(light_t, atom_t))


def nudge_a_number(result):
    """The light <a†a> moved by 1e-12 (1 + total occupation), the total being the
    input moment within the drift check; check_dynamics' 1e-13 floor catches it."""
    light_t, atom_t = result.moments
    total = light_t.number_mean + atom_t.number_mean
    light_t = dataclasses.replace(light_t, number_mean=light_t.number_mean + 1e-12 * (1.0 + total))
    return dataclasses.replace(result, moments=(light_t, atom_t))


# oracle faults, each with the words its one-line message must hold
ORACLE_FAULTS = {
    "a-number-nudged": (nudge_a_number, "light number_mean"),
    "b-squared-turned": (turn_b_squared, "atom sq_amp"),
    "norm-drift": (
        lambda result: dataclasses.replace(result, norm_drift=1e-6), "norm drift 1.000e-06"
    ),
    "ntotal-drift": (
        lambda result: dataclasses.replace(result, ntotal_drift=1e-6), "occupation drift 1.000e-06"
    ),
}


@pytest.mark.parametrize("fault", sorted(ORACLE_FAULTS))
@pytest.mark.parametrize(
    "argv",
    [
        ("simulate",),
        ("sweep", "--axis", "theta", "--values", "0,1"),
        ("converge", "--r", "0.3", "--values", "24,32"),
        ("verify",),
    ],
    ids=["simulate", "sweep", "converge", "verify"],
)
def test_every_command_checks_the_oracle_it_reaches(tmp_path, capsys, monkeypatch, argv, fault):
    # every command reaches the oracle through evolve_many, so one patch faults all four
    turn, where = ORACLE_FAULTS[fault]
    faulty = lambda *args: list(map(turn, evolve_many(*args)))  # noqa: E731
    monkeypatch.setattr(oracle_module, "evolve_many", faulty)
    out = tmp_path / "out.txt"
    assert run(*argv, "--steps", "4", "--out", str(out)) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invariant violation:")
    assert where in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, routine, fallback",
    [
        # detuned blocks are solved whole by dstevd, the odd ones too with a coherent part
        (("--omega-a", "3", "--m-re", "0.5"), "dstevd", False),
        (("--omega0", "5"), "dstevd", False),
        # every resonant block goes to dbdsdc
        ((), "dbdsdc", False),
        ((), "eigh", True),
    ],
    ids=["resonant", "detuned", "chiral", "fallback"],
)
def test_a_failed_block_solve_is_an_invariant_violation(
    tmp_path, capsys, monkeypatch, argv, routine, fallback
):
    if fallback:  # numpy exports no LAPACKE, so numpy's eigh solves every block
        detail = "Eigenvalues did not converge"

        def failing_eigh(block):
            raise np.linalg.LinAlgError(detail)

        monkeypatch.setattr(oracle_module, "_numpy_dstevd", lambda: None)
        monkeypatch.setattr(oracle_module, "_numpy_dbdsdc", lambda: None)
        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    else:  # the LAPACKE entry point in numpy's OpenBLAS returns info = 1
        detail = "info = 1"
        monkeypatch.setattr(oracle_module, f"_numpy_{routine}", lambda: lambda *args: 1)
    out = tmp_path / "out.csv"
    assert run("simulate", *argv, "--steps", "4", "--out", str(out)) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invariant violation:")
    assert routine in err[0] and detail in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate",),
        ("sweep", "--axis", "theta", "--values", "0,1"),
        ("converge", "--r", "0.3", "--values", "24,32"),
    ],
    ids=["simulate", "sweep", "converge"],
)
def test_every_oracle_table_is_checked(tmp_path, capsys, monkeypatch, argv):
    # a light <n^2> of <n>^2 - 1 passes the drift checks; with check_dynamics
    # out of the way, only the table check sees the negative variance
    def negative_variance(result):
        light_t, atom_t = result.moments
        light_t = dataclasses.replace(light_t, number_sq=light_t.number_mean**2 - 1.0)
        return dataclasses.replace(result, moments=(light_t, atom_t))

    faulty = lambda *args: list(map(negative_variance, evolve_many(*args)))  # noqa: E731
    monkeypatch.setattr(oracle_module, "evolve_many", faulty)
    monkeypatch.setattr(oracle_module, "check_dynamics", lambda *args: None)
    out = tmp_path / "out.txt"
    assert run(*argv, "--steps", "4", "--out", str(out)) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invariant violation:")
    assert "na_var = -1 < 0 at t = 0 (oracle)" in err[0]
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

    monkeypatch.setattr(oracle_module, "evolve_many", must_not_run)
    assert_cutoff_refused(tmp_path, capsys, argv, config, "at most 512")


@pytest.mark.parametrize(
    "argv, config",
    [(("simulate", "--n-max", "0"), None), (("simulate", "--n-max", "-3"), None),
     (("verify",), "n_max = 0\n")],
    ids=["flag-0", "flag--3", "config-0"],
)
def test_a_cutoff_below_one_is_a_config_error(tmp_path, capsys, argv, config):
    assert_cutoff_refused(tmp_path, capsys, argv, config, "n_max must be an integer >= 1")


def assert_cutoff_refused(tmp_path, capsys, argv, config, message):
    """argv, with ``config`` as its config file if given, exits 1 with one
    ``error:`` line holding ``message`` and writes no file."""
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv += ("--config", str(tmp_path / "run.cfg"))
    out = tmp_path / "out.csv"
    assert run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert message in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [("simulate", "--r", "1e-170"), ("simulate", "--r", "0", "--m-re", "1e-200"),
     ("verify", "--r", "1e-170")],
    ids=["simulate-r", "simulate-m", "verify-r"],
)
def test_an_input_whose_occupation_underflows_runs(tmp_path, capsys, argv):
    # sinh^2 r and m^2 underflow to 0 here, so the q ratio's occupation is 0
    # and the real-input q forms are out of domain
    out = tmp_path / "out.txt"
    assert run(*argv, "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    assert out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("verify",),
        ("simulate", "--sources", "literal-paper"),
        ("sweep", "--axis", "theta", "--values", "0,1", "--sources", "literal-paper"),
    ],
    ids=["verify", "simulate", "sweep"],
)
def test_an_input_whose_sinh_overflows_is_truncation_insufficient(tmp_path, capsys, argv):
    # sinh 800 overflows a float; the domain predicates must not evaluate it, and no
    # Terms, which computes sinh r when it is built, may be built before the deficit check
    out = tmp_path / "out.txt"
    assert run(*argv, "--r", "800", "--n-max", "64", "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("truncation-insufficient:")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [("simulate",), ("verify",), ("converge", "--values", "8,16")],
    ids=["simulate", "verify", "converge"],
)
def test_a_grid_too_large_to_allocate_is_a_config_error(tmp_path, capsys, argv):
    # 10**18 grid times need 8e18 bytes, more than any address space holds,
    # so the allocation fails at once under every overcommit policy
    out = tmp_path / "out.txt"
    assert run(*argv, "--steps", str(10**18), "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory:")
    assert not out.exists()


@pytest.mark.parametrize("steps", [str(2**63), str(10**20)], ids=["2**63", "10**20"])
@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--sources", "literal-paper,moment-map"),
        ("sweep", "--axis", "r", "--values", "0.5,1"),
        ("verify",),
        ("converge", "--values", "8,16"),
    ],
    ids=["simulate", "sweep", "verify", "converge"],
)
def test_steps_beyond_numpys_index_range_are_a_config_error(tmp_path, capsys, argv, steps):
    # at 2**63 np.arange gives an empty grid, and above it refuses the size
    out = tmp_path / "out.txt"
    assert run(*argv, "--steps", steps, "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: steps must be at most {2**63 - 1}, got {steps}"]
    assert not out.exists()


def test_the_ceiling_itself_is_an_allowed_cutoff():
    run_config = cli.build_run_config({**cli._DEFAULTS, "n_max": cli.DEFAULT_N_MAX_CEILING})
    assert run_config.scenario.n_max == cli.DEFAULT_N_MAX_CEILING


# argv fragments for the fuzz test below.  Grids stay at most 64 steps and
# explicit cutoffs at most 40 levels, so no example needs much time or memory.
# An argv takes at most one value from _BAD, so most argvs reach the run paths.
_BAD = ["nan", "inf", "-inf", "-1", "0", "1e308", "-1e308", "x", ""]


_FUZZ_VALUES = {
    **{flag: st.sampled_from(["0.5", "1"])
       for flag in ("--r", "--phi", "--m-re", "--m-im", "--theta")},
    **{flag: st.sampled_from(["0.5", "1", "4"]) for flag in ("--omega0", "--omega-a", "--omega-r")},
    "--t-max": st.sampled_from(["1", "6"]),
    "--tol-algebraic": st.sampled_from(["1e-8", "1"]),
    "--tol-oracle": st.sampled_from(["1e-6", "1"]),
    "--steps": st.sampled_from(["2", "3", "17", "64"]),
    "--n-max": st.sampled_from([*map(str, range(24, 41)), "513"]),
    "--sources": st.sampled_from(["oracle", "literal-paper,moment-map", "moment-map,x"]),
    "--config": st.sampled_from(["run.cfg", "."]),
    "--out": st.sampled_from(["out.csv", ".", "missing/out.csv"]),
}
_CUTOFFS = st.lists(st.sampled_from([24, 32, 40, 513]), min_size=2, max_size=3, unique=True)
_REQUIRED = {
    "sweep": {
        "--axis": st.sampled_from(cli.SWEEP_AXES),
        "--values": st.lists(st.sampled_from(["0.5", "1"]), min_size=1, max_size=3).map(",".join),
    },
    # strictly increasing, at least two cutoffs: the lists converge accepts
    "converge": {"--values": _CUTOFFS.map(lambda cutoffs: ",".join(map(str, sorted(cutoffs))))},
}


def _own_flags():
    """Each command's optional flags, read from its parser; "x" is no command and
    draws from every flag."""
    parser = cli._build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {"x": sorted(_FUZZ_VALUES)}
    for name, command in commands.choices.items():
        own = {flag for action in command._actions for flag in action.option_strings}
        flags[name] = sorted(own - {"-h", "--help", *_REQUIRED.get(name, ())})
        assert set(flags[name]) <= set(_FUZZ_VALUES), f"{name} has a flag with no fuzz values"
    return flags


_OWN_FLAGS = _own_flags()


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(["simulate", "verify", "sweep", "converge"] * 2 + ["x"]))
    values = {**_FUZZ_VALUES, **_REQUIRED.get(command, {})}
    flags = [*_REQUIRED.get(command, ()),
             *draw(st.lists(st.sampled_from(_OWN_FLAGS[command]), max_size=4))]
    bad = draw(st.sampled_from(range(len(flags)))) if flags and draw(st.booleans()) else None
    argv = [command]
    for i, flag in enumerate(flags):
        argv += [flag, draw(st.sampled_from(_BAD) if i == bad else values[flag])]
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


def test_commands_share_one_parser_and_each_gets_its_own_func(tmp_path, monkeypatch):
    parser, parsed = cli._build_parser(), []
    parse = parser.parse_args

    def spy(argv):
        args = parse(argv)
        parsed.append(args)
        return args

    monkeypatch.setattr(parser, "parse_args", spy)
    small = ["--r", "0.3", "--n-max", "32", "--steps", "8"]
    assert main(["simulate", *small, "--out", str(tmp_path / "s.csv")]) == 0
    assert main(["verify", *small, "--out", str(tmp_path / "v.txt")]) == 0
    assert cli._build_parser() is parser
    assert [args.func for args in parsed] == [cli.cmd_simulate, cli.cmd_verify]
    assert [args.command for args in parsed] == ["simulate", "verify"]
    assert not hasattr(parsed[0], "tol_oracle") and parsed[1].tol_oracle is None
