"""Golden datasets: the figure commands must keep reproducing their recorded rows.

The last column of every dataset is the computed value and is compared at
rtol 1e-12, atol 1e-15; every other cell (labels and grid points) must match
exactly.
"""

import csv
import json
import os

import pytest

from pspsim import cli

TESTS = os.path.dirname(os.path.abspath(__file__))
L_MAX = 10.0


def golden_path(name):
    """A golden dataset: the benchmark's reference copy, or for fig5.csv, which the
    benchmark does not check, the test tree's own."""
    if name == "fig5.csv":
        return os.path.join(TESTS, "data", name)
    return os.path.join(TESTS, os.pardir, "perfbench", "reference", name)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def assert_matches_golden(got, expect):
    assert got[0] == expect[0]
    assert len(got) == len(expect)
    for new, old in zip(got[1:], expect[1:]):
        # in fig5 --optimize-mu, mu is an argmax over a grid: a flipped
        # tie-break shows up here
        assert new[:-1] == old[:-1], (old, new)
        value, ref = float(new[-1]), float(old[-1])
        assert abs(value - ref) <= 1e-15 + 1e-12 * abs(ref), (old, new)


def test_fig5_optimize_matches_golden(tmp_path, capsys):
    out = tmp_path / "fig5.csv"
    assert cli.main(["fig5", "--optimize-mu", "--l-max", "%g" % L_MAX, "--out", str(out)]) == 0
    golden = read_rows(golden_path("fig5_optimize.csv"))
    distance = golden[0].index("distance_km")
    expect = golden[:1] + [row for row in golden[1:] if float(row[distance]) <= L_MAX]
    assert len(expect) == 1 + 7 * 11
    assert_matches_golden(read_rows(out), expect)


@pytest.mark.parametrize("argv, golden, n_rows", [
    (["fig4"], "fig4.csv", 800),
    (["fig1"], "fig1.csv", 2400),
    (["fig5"], "fig5.csv", 707),
])
def test_dataset_matches_golden(tmp_path, capsys, argv, golden, n_rows):
    out = tmp_path / golden
    assert cli.main(argv + ["--out", str(out)]) == 0
    expect = read_rows(golden_path(golden))
    assert len(expect) == 1 + n_rows
    assert_matches_golden(read_rows(out), expect)


@pytest.mark.parametrize("argv", [
    ["fig1", "--mu-points", "3", "--d-list", "4"],
    ["fig4", "--mu-points", "3", "--d-list", "4", "--j-list", "1"],
    ["fig5", "--l-max", "10", "--l-step", "10"],
])
def test_json_holds_the_csv_cells(tmp_path, capsys, argv):
    csv_path, json_path = tmp_path / "data.csv", tmp_path / "data.json"
    assert cli.main(argv + ["--out", str(csv_path)]) == 0
    assert cli.main(argv + ["--format", "json", "--out", str(json_path)]) == 0
    header, *rows = read_rows(csv_path)
    # keep every number as its serialized text and every object as ordered pairs
    entries = json.loads(json_path.read_text(), object_pairs_hook=list,
                         parse_float=str, parse_int=str)
    assert [[key for key, _ in entry] for entry in entries] == [header] * len(rows)
    assert [[value for _, value in entry] for entry in entries] == rows
