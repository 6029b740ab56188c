"""The CSV writer: every field is exactly ``'%.17g' % x``, NaN as NA and -0.0 as 0.

``cli._write_rows`` formats the fields in numpy.  It is checked against the
%-template writer it replaced, kept here as the reference, on the table with
each template field's column laid out in place: on drawn doubles, on targeted
sets (exact ties, powers of ten and their neighbours, the edges of the
exact-digit range, values that round up a decade), on columns that are NaN in
all or part of a chunk, on each caller's template, and on the full-size tables
of the benchmark's simulate commands.
"""

import io
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from atomlaser import cli


def reference_write_rows(handle, template, table):
    """The %-template writer that cli._write_rows replaced."""
    for start in range(0, len(table), 1000):
        rows = (table[start : start + 1000] + 0.0).tolist()
        handle.write("".join(template % tuple(row) for row in rows).replace("nan", "NA"))


def written(writer, template, table) -> str:
    handle = io.StringIO()
    writer(handle, template, table)
    return handle.getvalue()


def assert_written_alike(template, table, columns=None):
    """cli._write_rows of (table, columns) writes what the reference writes of the table
    with column columns[j] at field j; columns defaults to the identity map."""
    columns = range(table.shape[1]) if columns is None else columns
    got = io.StringIO()
    cli._write_rows(got, template, table, columns)
    # lists of lines, so that a failure names the first line that differs
    want = written(reference_write_rows, template, table[:, list(columns)])
    assert got.getvalue().splitlines(keepends=True) == want.splitlines(keepends=True)


def assert_fields_exact(values):
    values = np.asarray(values, dtype=float)
    assert_written_alike("%.17g\n", np.concatenate([values, -values]).reshape(-1, 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.floats(1e-5, 1e17)), min_size=1, max_size=64))
def test_drawn_doubles_are_written_as_percent_17g(values):
    # floats() draws from the whole range: subnormals, +-0, NaN and +-inf
    assert_fields_exact(values)


def test_ties_round_half_to_even():
    # x = k / 2**j, k odd, in [10**p, 10**(p+1)) with j = 17 - p: x * 10**(17 - p)
    # is k * 5**j, an odd multiple of 5, so x has 18 significant digits and its
    # last is a 5, a tie at 17 digits
    rng = np.random.default_rng(0)
    ties = []
    for p in range(-4, 15):
        j = 17 - p
        low = math.ceil(Fraction(10) ** p * 2**j)
        high = math.floor(Fraction(10) ** (p + 1) * 2**j)
        k = rng.integers(low, high, 200) | 1
        ties.append(k / 2.0**j)
        assert all(Fraction(x) * 10 ** (17 - p) % 10 == 5 for x in ties[-1].tolist())
    assert_fields_exact(np.concatenate(ties))


def test_powers_of_ten_their_neighbours_and_the_range_edges():
    # the writer's powers of ten are the nearest doubles: exact from 10**0, and
    # above 10**k for k = -4..-1, so that comparing with them is exact
    powers = [Fraction(10) ** k for k in range(-5, 22)]
    assert cli._POW10.tolist() == [float(p) for p in powers]
    assert all(Fraction(float(p)) == p for p in powers[5:])
    assert all(Fraction(float(p)) > p for p in powers[1:5])
    # k = -4 and 16 are the edges of the exact-digit range [1e-4, 1e16)
    powers = np.array([float(Fraction(10) ** k) for k in range(-5, 18)])
    assert_fields_exact(
        np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    )


def _largest_double_below(power: Fraction) -> float:
    x = float(power)
    return math.nextafter(x, 0) if Fraction(x) >= power else x


def test_values_that_round_up_a_decade():
    # %.17g writes some doubles just below a power of ten as that power; none is
    # in [1e-4, 1e16): there, each decade's largest double keeps its mantissa
    # x * 10**(16 - e) below 10**17 - 1/2, so the exact digits never carry
    for e in range(-4, 16):
        x = _largest_double_below(Fraction(10) ** (e + 1))
        assert Fraction(x) * Fraction(10) ** (16 - e) < 10**17 - Fraction(1, 2)
    carries = []
    for k in range(-322, 309):
        x = _largest_double_below(Fraction(10) ** k)
        if Fraction("%.17g" % x) == Fraction(10) ** k:
            carries.append(x)
    assert len(carries) > 5
    assert_fields_exact(carries)


def test_columns_nan_in_all_or_part_of_a_chunk():
    # chunks of 1000 rows: column 1 is NaN in all of the first and none of the
    # second, column 2 in all of the second, column 3 in every other row, and
    # column 4 everywhere; fields 0 and 5 both show column 0
    rng = np.random.default_rng(2)
    table = rng.standard_normal((2500, 5)) * 10.0 ** rng.integers(-6, 18, (2500, 5))
    table[:1000, 1] = table[1000:2000, 2] = table[::2, 3] = table[:, 4] = np.nan
    template = "%.17g,x,%.17g,%.17g,%.17g,%.17g,%.17g\n"
    assert_written_alike(template, table, [0, 1, 2, 3, 4, 0])
    assert_written_alike(template, table[:, [0, 1, 2, 3, 4, 0]])


def test_a_detuned_simulate_formats_the_grid_once_and_no_na_column(monkeypatch, tmp_path):
    # the literal-paper source has no closed form off resonance: its 11 columns are
    # NaN throughout; the grid starts all three sources' lines
    counts = []
    format_fields = cli._format_fields

    def spy(x):
        counts.append(len(x))
        return format_fields(x)

    monkeypatch.setattr(cli, "_format_fields", spy)
    argv = ["simulate", "--steps", "16", "--omega0", "5", "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 0
    assert counts == [16 * (1 + 2 * 11)]


def _captured_tables(monkeypatch, tmp_path, commands):
    """(template, table, columns) of every _write_rows call the commands make."""
    calls = []
    write = cli._write_rows

    def capture(handle, template, table, columns):
        calls.append((template, table, columns))
        write(handle, template, table, columns)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_write_rows", capture)
        for argv in commands:
            assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) in (0, 2)
    return calls


def test_each_callers_template_with_hard_values(monkeypatch, tmp_path):
    steps = ("--steps", "16")
    calls = _captured_tables(monkeypatch, tmp_path, [
        ("simulate", *steps),
        ("sweep", "--axis", "r", "--values", "0.5,1e-07", *steps),
        ("converge", "--values", "32,48,64", "--r", "1", *steps),
    ])
    prefixes = {template.split(",", 2)[0] for template, _, _ in calls}
    assert {"%.17g", "r", "value"} <= prefixes  # simulate, sweep and converge lines
    rng = np.random.default_rng(1)
    for template, table, columns in calls:
        hard = rng.standard_normal(table.shape) * 10.0 ** rng.integers(-6, 18, table.shape)
        hard[rng.random(table.shape) < 0.1] = np.nan
        hard[rng.random(table.shape) < 0.05] = -0.0
        assert_written_alike(template, table, columns)
        assert_written_alike(template, hard, columns)


def test_full_size_tables_match_the_reference(monkeypatch, tmp_path):
    # the simulate commands of the closed-form-grid and long-grid benchmark workloads
    closed_forms = ("simulate", "--sources", "literal-paper,moment-map", "--steps", "10000")
    calls = _captured_tables(monkeypatch, tmp_path, [
        closed_forms,
        (*closed_forms, "--m-re", "0.5"),
        ("simulate", "--steps", "2000"),
        ("simulate", "--steps", "2000", "--omega0", "5"),
    ])
    assert [len(table) for _, table, _ in calls] == [10000, 10000, 2000, 2000]
    for template, table, columns in calls:
        assert_written_alike(template, table, columns)
