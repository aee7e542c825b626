"""Command-line layer: exit codes, file formats, config layering, determinism."""

import argparse
import ast
import csv
import json
import os
import re

import numpy as np
import pytest

from pspsim import (ChannelParams, NumericalDiagnosticError, basis_fidelity_bound,
                    g2_zero_closed, residue_masses)
from pspsim import cli, generation, metrics, pns, qkd, states


def run(argv):
    return cli.main(argv)


def test_compute_g2_coherent(capsys):
    assert run(["compute", "g2", "--mu", "0.5", "--d", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "1"
    payload = json.loads(lines[1])
    assert payload["value"] == 1.0


@pytest.mark.parametrize("mu", [0.01, 0.7, 5.0])
def test_compute_hom_quantities_of_coherent_inputs(capsys, mu):
    # at d = 1 the one-photon state is the coherent state (j = 1 % d = 0):
    # it never gives a coincidence, and its F2002 is mu^2 e^(-2 mu)
    assert run(["compute", "p11", "--d", "1", "--mu", str(mu)]) == 0
    assert 0.0 <= json.loads(capsys.readouterr().out.splitlines()[1])["value"] <= 1e-15
    assert run(["compute", "f2002", "--d", "1", "--mu", str(mu)]) == 0
    value = json.loads(capsys.readouterr().out.splitlines()[1])["value"]
    assert value == pytest.approx(mu**2 * np.exp(-2 * mu), rel=1e-14, abs=0)


def test_fig1_of_coherent_states(tmp_path, capsys):
    # d = 1: g2 = 1 and p11 = 0 at every mu, and the fidelity column is the
    # one-photon probability mu e^(-mu), as for every other d; the one residue
    # mass M_0 is exactly 1 (its Poisson sum read 1 + 4.2e-15 at mu = 20), so
    # g2 is exactly 1 and p11 misses 0 by the rounding of 1 - va - vb + vab
    out = tmp_path / "f1.csv"
    assert run(["fig1", "--d-list", "1", "--mu-points", "7", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 7
    for row in rows:
        mu, value = float(row["mu"]), float(row["value"])
        expect = {"fidelity": mu * np.exp(-mu), "g2": 1.0, "p11": 0.0,
                  "f2002": mu**2 * np.exp(-2 * mu)}[row["quantity"]]
        assert abs(value - expect) <= 1e-14 * (expect or 1.0)


def test_compute_fidelity_value(capsys):
    assert run(["compute", "fidelity", "--mu", "0.1", "--d", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "0.99833527572961089"


def test_compute_encoding_error_phase_sets(capsys):
    assert run(["compute", "encoding-error", "--mu", "0.3", "--d", "8"]) == 0
    standard = json.loads(capsys.readouterr().out.strip().splitlines()[1])["value"]
    assert standard < 1e-12

    assert run(["compute", "encoding-error", "--mu", "0.3", "--d", "8",
                "--phase-set", "paper-literal"]) == 0
    literal = json.loads(capsys.readouterr().out.strip().splitlines()[1])["value"]
    # the fourth signal state is not the conjugate partner of the second,
    # so its matched-basis readout lands mostly in the wrong port
    assert literal > 0.5

    # the literal set is only defined when d is divisible by 8
    assert run(["compute", "encoding-error", "--mu", "0.3", "--d", "4",
                "--phase-set", "paper-literal"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-parameter"


@pytest.mark.parametrize("argv", [["--mu", "0.001", "--d", "4", "--j", "2"],
                                  ["--mu", "0.5", "--d", "16", "--j", "15"]])
def test_compute_encoding_error_where_the_gram_route_refused(capsys, argv):
    # exit 4 on p_click_port0 = 1 + 1e-12, and on an imaginary residue of 3.8e-7
    assert run(["compute", "encoding-error"] + argv) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[1])["value"] == 0.0


@pytest.mark.parametrize("argv, flag", [
    (["compute", "g2", "--d", "8", "--mu", "0.3", "--j", "3"], "--j"),
    (["compute", "p11", "--d", "8", "--j", "2"], "--j"),
    (["compute", "f2002", "--d", "8", "--j", "2"], "--j"),
    (["compute", "fidelity", "--d", "8", "--nu", "5"], "--nu"),
    (["compute", "g2", "--d", "8", "--trigger-convention", "paper"], "--trigger-convention"),
    (["compute", "trigger", "--d", "8", "--j", "0", "--mu", "0.3"], "--mu"),
    (["compute", "herald", "--d", "8", "--eta-det", "0.5"], "--eta-det"),
    (["compute", "basis-fidelity", "--d", "8", "--phase-set", "standard"], "--phase-set"),
    (["keyrate", "--protocol", "wcs-decoy", "--mu", "0.5", "--d", "8"], "--d"),
    (["keyrate", "--protocol", "wcs-nondecoy", "--mu", "0.01", "--d", "8"], "--d"),
    (["keyrate", "--protocol", "psp-passive", "--d", "8", "--mu", "0.45", "--nu", "256"], "--nu"),
    (["keyrate", "--protocol", "psp-nondecoy", "--d", "8", "--mu", "0.03", "--yield-model",
      "exact"], "--yield-model"),
    (["keyrate", "--protocol", "wcs-decoy", "--optimize-mu", "--mu", "0.5"], "--mu"),
    (["keyrate", "--protocol", "wcs-decoy", "--mu", "0.5", "--mu-grid-max", "1"], "--mu-grid-max"),
    (["compute", "f2002", "--d", "8", "--mu", "0.3", "--delta", "0.3", "--delta2", "0.7"],
     "--delta"),
    (["compute", "f2002", "--d", "8", "--mu", "0.3", "--delta2", "0.7"], "--delta2"),
])
def test_flags_that_change_nothing_are_refused(capsys, argv, flag):
    # compute g2 --j 3 printed the j = 1 value with exit 0, keyrate --protocol
    # wcs-decoy --d 8 echoed "d": 8 that no estimator read, and compute f2002
    # --delta 0.3 printed the value without it, since F2002 = P1(1) P2(1)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "invalid-parameter"
    assert err["message"].startswith(flag + " does not apply to ")


def test_flags_that_are_read_are_taken(capsys):
    # trigger reads --eta-det, which it does not echo; herald echoes --nu, which it does not read
    assert run(["compute", "trigger", "--d", "8", "--j", "1", "--nu", "100", "--eta-det", "0.5",
                "--trigger-convention", "recomputed"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[1])["params"] == {
        "convention": "recomputed", "d": 8, "j": 1, "nu": 100.0}
    assert run(["compute", "herald", "--d", "8", "--nu", "400"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[1])["params"] == {
        "d": 8, "j": 1, "mu": 0.1, "nu": 400.0}
    assert run(["keyrate", "--protocol", "psp-triggered", "--d", "8", "--mu", "0.45", "--nu",
                "256", "--eta-trigger-det", "0.2", "--basis-mu", "full"]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == 8
    # f2002 echoes the deltas' defaults, which it does not read
    assert run(["compute", "f2002", "--d", "8", "--mu", "0.3"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[1])["params"] == {
        "d": 8, "d2": 8, "delta": 0.0, "delta2": 0.0, "mu": 0.3, "mu2": 0.3}


def _refuse(*args, **kwargs):
    raise AssertionError("this quantity must not take that path")


@pytest.mark.parametrize("argv, refused, expect", [
    # F2002 is P1(1) P2(1): no coherent expansion, no Gram matrix (was the d^4 Gram at d = 40)
    (["f2002", "--d", "40", "--mu", "8"],
     [(states, "_pair_exponents"), (metrics, "_equal_input_projections"),
      (metrics, "_hom_projections"), (metrics, "_hom_outputs")], 0.99999999999986944),
    # p11 needs no one-photon probability
    (["p11", "--d", "8", "--mu2", "1", "--mu", "0.3"],
     [(metrics, "photon_number_probability")], 2.7012069332398684e-06),
], ids=["f2002", "p11"])
def test_compute_hom_quantities_take_only_their_own_path(monkeypatch, capsys, argv, refused,
                                                         expect):
    for module, name in refused:
        monkeypatch.setattr(module, name, _refuse)
    assert run(["compute"] + argv) == 0
    value = json.loads(capsys.readouterr().out.strip().splitlines()[1])["value"]
    assert abs(value - expect) <= 1e-12 * expect  # the benchmark's query references


@pytest.mark.parametrize("mu, d", [("1e-300", "3"), ("5e-324", "8")])
def test_p11_overflow_prints_only_its_error_line(isolated, mu, d):
    # the Gram contraction overflows at these residue masses; it used to print
    # "overflow encountered in matmul" to stderr before the exit-4 error line
    code, out = isolated(
        "import sys\n"
        "import pspsim.cli\n"
        "sys.stderr = sys.stdout\n"
        "print(pspsim.cli.main(['compute', 'p11', '--mu', %r, '--d', %r]))\n" % (mu, d))
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "4" and len(lines) == 2
    assert json.loads(lines[0]) == {"error": "numerical-diagnostic",
                                    "message": "p11 = nan falls outside [0, 1]"}


def test_compute_invalid_parameter(capsys):
    assert run(["compute", "g2", "--mu", "0.5", "--d", "0"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-parameter"


def test_missing_config_is_io_failure(capsys):
    assert run(["fig1", "--config", "/does/not/exist.ini"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "io-failure"


def test_numerical_diagnostic_exit_code(monkeypatch, capsys):
    def boom(mu, d):
        raise NumericalDiagnosticError("residue blew up")

    monkeypatch.setattr(cli, "g2_zero_closed", boom)
    assert run(["compute", "g2", "--mu", "0.5", "--d", "4"]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical-diagnostic"


def test_bad_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["fig1", "--no-such-flag"])
    assert exc.value.code == 2


def test_fig1_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "f1.csv"
    assert run(["fig1", "--mu-points", "6", "--d-list", "4",
                "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["quantity", "d", "mu", "value"]
    assert len(rows) == 1 + 6 * 4
    # spot-check one value against the library
    q, d, mu, value = rows[2]
    assert q == "g2"
    assert abs(float(value) - g2_zero_closed(float(mu), int(d))) < 1e-15
    manifest = json.loads((tmp_path / "f1.csv.manifest.json").read_text())
    assert manifest["command"] == "fig1"
    assert manifest["resolved_config"]["mu_points"] == 6
    assert manifest["diagnostics"]["points"] == 24


def test_fig1_deterministic_across_runs(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["fig1", "--mu-points", "10", "--out", str(a)]) == 0
    assert run(["fig1", "--mu-points", "10", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_workers_flag_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["fig1", "--workers", "2"])
    assert exc.value.code == 2
    out = tmp_path / "f4.csv"
    assert run(["fig4", "--mu-points", "3", "--d-list", "4", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "f4.csv.manifest.json").read_text())
    assert "workers" not in manifest["resolved_config"]


@pytest.mark.parametrize("optimize", [[], ["--optimize-mu"]])
def test_fig5_residue_passes_do_not_grow_with_distances(tmp_path, monkeypatch, capsys, optimize):
    # the series at each source mu, its fidelity bound and the trigger vector
    # are computed once per curve, and the whole mu grid is one surface: only
    # the length of the (mu, distance) table grows
    calls = []
    original = pns.residue_masses

    def counted(mu, d, residues=None):
        calls.append(np.size(mu))
        return original(mu, d, residues)

    for module in (pns, qkd, generation):
        monkeypatch.setattr(module, "residue_masses", counted)
    counts = []
    for l_max in ("2", "10"):
        calls.clear()
        assert run(["fig5", "--l-max", l_max, "--out", str(tmp_path / "f5.csv")] + optimize) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    assert max(calls) == 11 * (40 if optimize else 1)  # one table row per (mu, distance)


@pytest.mark.parametrize("argv, passes", [
    (["fig1", "--mu-points", "4", "--d-list", "4", "8"], 2 * 4),
    (["fig4", "--mu-points", "4", "--d-list", "4", "8", "--j-list", "0", "1"], 4),
])
def test_figure_residue_passes(tmp_path, monkeypatch, capsys, argv, passes):
    # fig1: per d, one table for each of its four public calls (the one-photon
    # probability, g2, p11 and f2002); fig4: one bound table per (d, j)
    calls = []
    original = pns._residue_rows

    def counted(*args):
        calls.append(len(args[0]))
        return original(*args)

    monkeypatch.setattr(pns, "_residue_rows", counted)
    assert run(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == passes
    assert max(calls) == 4  # a table holds a whole mu grid


@pytest.mark.parametrize("argv, passes", [
    (["fidelity", "--d", "8"], 1),
    (["p11", "--d", "8"], 1),
    (["p11", "--d", "8", "--mu2", "1"], 2),
    (["f2002", "--d", "40", "--mu", "8"], 1),
])
def test_query_residue_passes(monkeypatch, capsys, argv, passes):
    # a single-point query reads each distinct input's M_j once, in one pass
    calls = []
    original = pns._residue_rows

    def counted(*args):
        calls.append(len(args[0]))
        return original(*args)

    monkeypatch.setattr(pns, "_residue_rows", counted)
    assert run(["compute"] + argv) == 0
    assert calls == [1] * passes


def test_gram_beyond_its_limit_exits_4(monkeypatch, capsys):
    # d = 4: both p11 paths need 256 Gram entries, refused before allocation
    monkeypatch.setattr(states, "GRAM_MAX_ENTRIES", 255)
    for extra in ([], ["--mu2", "1"]):
        assert run(["compute", "p11", "--d", "4"] + extra) == 4
        assert "GRAM_MAX_ENTRIES" in capsys.readouterr().err


def test_fig5_optimizer_evaluates_each_source_once(tmp_path, monkeypatch, capsys):
    # the 40-point mu grid is one (mu, distance) surface per source curve: 7
    # estimator evaluations for the 7 curves, where a per-mu search makes 280
    calls = []

    def counted(name, estimator):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return estimator(*args, **kwargs)
        return wrapper

    for name in ("_nondecoy_curve", "_wcs_decoy_curve", "_psp_passive_curve",
                 "_psp_triggered_curve"):
        monkeypatch.setattr(qkd, name, counted(name, getattr(qkd, name)))
    assert run(["fig5", "--optimize-mu", "--l-max", "2", "--out", str(tmp_path / "f5.csv")]) == 0
    assert sorted(calls) == ["_psp_passive_curve"] * 3 + ["_psp_triggered_curve"] * 3 + [
        "_wcs_decoy_curve"]


def test_fig1_json_format(tmp_path, capsys):
    out = tmp_path / "f1.json"
    assert run(["fig1", "--mu-points", "5", "--d-list", "8",
                "--format", "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data) == 20
    assert set(data[0]) == {"quantity", "d", "mu", "value"}


def test_fig4_values(tmp_path, capsys):
    out = tmp_path / "f4.csv"
    assert run(["fig4", "--mu-points", "4", "--d-list", "4", "--j-list", "1",
                "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))[1:]
    assert len(rows) == 4
    for _, d, j, mu, value in rows:
        expect = basis_fidelity_bound(float(mu), int(d), int(j))
        assert abs(float(value) - expect) < 1e-15


def test_fig4_curve_shape(tmp_path, capsys):
    out = tmp_path / "f4.csv"
    assert run(["fig4", "--mu-points", "30", "--out", str(out)]) == 0
    curves = {}
    for _, d, j, mu, value in list(csv.reader(out.open()))[1:]:
        curves.setdefault((int(d), int(j)), []).append((float(mu), float(value)))
    assert set(curves) == {(4, 0), (4, 1), (8, 0), (8, 1)}
    # every curve approaches 1 at the small-mu end of the default grid
    for pts in curves.values():
        assert min(pts)[1] > 0.999999
    # larger d is closer to indistinguishable at every mu, for both j
    for j in (0, 1):
        for (_, v4), (_, v8) in zip(curves[(4, j)], curves[(8, j)]):
            assert v8 >= v4 - 1e-15


def test_fig5_rows_and_rates(tmp_path, capsys):
    out = tmp_path / "f5.csv"
    assert run(["fig5", "--l-min", "0", "--l-max", "40", "--l-step", "20",
                "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))[1:]
    protocols = {r[0] for r in rows}
    assert protocols == {"wcs-decoy", "psp-passive", "psp-triggered"}
    assert len(rows) == 7 * 3
    by_key = {(r[0], r[1], r[4]): float(r[5]) for r in rows}
    expect = qkd.keyrate_curve(qkd.PSP_PASSIVE_DECOY, ChannelParams(), 0.45, [40.0],
                               d=8).result(0).rate
    assert abs(by_key[("psp-passive", "8", "40")] - expect) < 1e-15


def test_manifest_diagnostics_summarize_last_column(tmp_path, capsys):
    for argv, name in ((["fig4", "--mu-points", "3", "--d-list", "4"], "f4.csv"),
                       (["fig5", "--l-max", "60", "--l-step", "30"], "f5.csv")):
        out = tmp_path / name
        assert run(argv + ["--out", str(out)]) == 0
        values = [float(row[-1]) for row in list(csv.reader(out.open()))[1:]]
        manifest = json.loads((tmp_path / (name + ".manifest.json")).read_text())
        assert manifest["diagnostics"] == {
            "points": len(values),
            "value_min": min(values),
            "value_max": max(values),
            "positive_values": sum(1 for v in values if v > 0),
        }


@pytest.mark.parametrize("fmt, text, n_rows", [
    ("csv", "a,c\n1,2\n", 1),           # wrong header
    ("csv", "a,b\n1,2,3\n", 1),         # ragged row
    ("csv", "a,b\n1,2\n", 2),           # missing row
    ("csv", "", 0),                     # empty file
    ("json", '[{"a": 1}]', 1),          # missing key
    ("json", '[{"a": 1, "b": 2}]', 2),  # missing entry
])
def test_self_validation_rejects_malformed_files(tmp_path, fmt, text, n_rows):
    path = tmp_path / ("data." + fmt)
    path.write_text(text)
    with pytest.raises(OSError, match="self-validation failed"):
        cli._self_validate(str(path), fmt, ("a", "b"), n_rows)


def test_keyrate_report(tmp_path, capsys):
    out = tmp_path / "kr.json"
    code = run(["keyrate", "--protocol", "psp-passive", "--d", "8",
                "--mu", "0.45", "--L", "40", "--out", str(out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["rate"] - 1.0170216805863246e-03) < 1e-14
    assert json.loads(out.read_text()) == report


def test_keyrate_rejects_non_finite_distance(capsys):
    assert run(["keyrate", "--protocol", "wcs-decoy", "--mu", "0.5", "--L", "nan"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-parameter"
    assert "distances" in err["message"]


@pytest.mark.parametrize("step", ["0", "-0.05", "nan"])
def test_keyrate_refuses_a_mu_grid_step_that_is_not_positive(capsys, step):
    # a zero step was a ZeroDivisionError traceback from np.arange (exit 1)
    assert run(["keyrate", "--protocol", "wcs-decoy", "--optimize-mu",
                "--mu-grid-step", step]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-parameter"
    assert "mu-grid-step > 0" in err["message"]


@pytest.mark.parametrize("argv, flag, cause", [
    (["--optimize-mu", "--mu", "0.5"], "--mu",
     "--optimize-mu, which searches the --mu-grid-* grid"),
    (["--mu", "0.5", "--mu-grid-step", "0.1"], "--mu-grid-step",
     "a single-mu run; give --optimize-mu to search a mu grid"),
], ids=["with-optimize-mu", "without-optimize-mu"])
def test_keyrate_mu_flag_refusals_name_the_optimizer(capsys, argv, flag, cause):
    # both read "... does not apply to protocol wcs-decoy", which reads every mu flag
    assert run(["keyrate", "--protocol", "wcs-decoy"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "invalid-parameter",
                                        "message": "%s does not apply to %s" % (flag, cause)}


def _no_allocation(*args, **kwargs):
    raise AssertionError("a grid was allocated")


@pytest.mark.parametrize("argv", [
    ["fig1", "--mu-points", "1000000000000"],
    ["fig4", "--mu-points", "1000000000000"],
    ["fig5", "--l-step", "1e-12"],
    ["keyrate", "--protocol", "wcs-decoy", "--optimize-mu", "--mu-grid-step", "1e-12"],
])
def test_oversized_grids_are_refused_before_allocation(tmp_path, monkeypatch, capsys, argv):
    # each was a traceback (exit 1): numpy failed to allocate terabytes
    monkeypatch.setattr(np, "arange", _no_allocation)
    monkeypatch.setattr(np, "logspace", _no_allocation)
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "invalid-parameter"
    assert "GRID_MAX_POINTS = %d" % cli.GRID_MAX_POINTS in err["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, points", [
    (["keyrate", "--protocol", "wcs-decoy", "--optimize-mu"], 40),
    (["fig5", "--l-max", "100"], 101),
    (["fig1", "--mu-points", "7", "--d-list", "4"], 7),
])
def test_grid_limit_counts_the_points_it_builds(tmp_path, monkeypatch, capsys, argv, points):
    out = ["--out", str(tmp_path / "out")]
    monkeypatch.setattr(cli, "GRID_MAX_POINTS", points)
    assert run(argv + out) == 0
    monkeypatch.setattr(cli, "GRID_MAX_POINTS", points - 1)
    assert run(argv + out) == 2
    assert "GRID_MAX_POINTS = %d" % (points - 1) in capsys.readouterr().err


def test_keyrate_requires_mu_without_optimizer(capsys):
    assert run(["keyrate", "--protocol", "wcs-decoy"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-parameter"


@pytest.mark.parametrize("argv", [
    # the meter default nu = 4 d^2 used to be evaluated on d = None (TypeError)
    ["--protocol", "psp-triggered", "--mu", "0.1"],
    ["--protocol", "psp-triggered", "--optimize-mu"],
    # without d the non-decoy estimator used to fall back to the WCS source
    ["--protocol", "psp-nondecoy", "--mu", "0.03", "--L", "2"],
    ["--protocol", "psp-passive", "--mu", "0.45"],
])
def test_keyrate_psp_protocols_require_d(capsys, argv):
    assert run(["keyrate"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "invalid-parameter"
    assert "d must be" in err["message"]


@pytest.mark.parametrize("j", ["4", "10", "-1"])
def test_compute_herald_rejects_residue_out_of_range(capsys, j):
    # --j 10 used to raise an uncaught IndexError, --j -1 printed residue 3
    assert run(["compute", "herald", "--d", "4", "--j", j]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "invalid-parameter"


def test_cli_imports_only_public_names():
    # the front end reaches the library through its public API alone, and the private
    # grid helpers it once called are gone from the package
    with open(cli.__file__) as f:
        tree = ast.parse(f.read())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module for alias in node.names]
    assert "PSPParams" in imported
    assert [name for name in imported if name.startswith("_")] == []
    for name in ("_equal_input_p11", "_noon_overlap", "_support_probability"):
        assert not any(hasattr(module, name) for module in (pns, metrics, states)), name


def test_compute_herald_value(capsys):
    assert run(["compute", "herald", "--mu", "0.3", "--d", "4", "--j", "1"]) == 0
    assert float(capsys.readouterr().out.splitlines()[0]) == \
        residue_masses(0.3, 4)[1]


def test_config_format_is_checked(tmp_path, capsys):
    # an unchecked INI format used to write a JSON array into fig4.xml
    ini = tmp_path / "bad.ini"
    ini.write_text("[fig4]\nformat = xml\n")
    out = tmp_path / "fig4.xml"
    assert run(["fig4", "--config", str(ini), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-parameter"
    assert "format" in err["message"]
    assert not out.exists()


def test_config_file_layering(tmp_path, capsys):
    ini = tmp_path / "sweep.ini"
    ini.write_text("[common]\nworkers = 2\n\n[fig1]\nmu-points = 5\nd-list = 8\n")
    out = tmp_path / "c.csv"
    assert run(["fig1", "--config", str(ini), "--out", str(out)]) == 0
    assert len(list(csv.reader(out.open()))) == 1 + 5 * 4
    # a CLI flag overrides the file
    out2 = tmp_path / "c2.csv"
    assert run(["fig1", "--config", str(ini), "--mu-points", "3",
                "--out", str(out2)]) == 0
    assert len(list(csv.reader(out2.open()))) == 1 + 3 * 4


@pytest.mark.parametrize("section, line, message", [
    # "maybe" was read as false, and the typo of mu-points wrote the default 200 points
    ("fig5", "optimize-mu = maybe",
     "optimize-mu must be one of 1/yes/true/on/0/no/false/off, not 'maybe'"),
    ("fig4", "mu-point = 5", "unknown key 'mu-point' in [fig4] of "),
    # a value of the wrong type was refused with int()'s or float()'s message alone,
    # which named neither the key nor what it must be; the last is read from [common]
    ("fig4", "mu-points = 2.5", "mu-points must be an integer, not '2.5'"),
    ("fig4", "d-list = 4, x", "d-list must be integers, not '4, x'"),
    ("fig1", "[common]\nmu-min = abc", "mu-min must be a number, not 'abc'"),
], ids=["boolean-word", "unknown-key", "int", "int-list", "float"])
def test_config_refuses_what_it_would_drop(tmp_path, capsys, section, line, message):
    ini = tmp_path / "run.ini"
    ini.write_text("[%s]\n%s\n" % (section, line))
    out = tmp_path / "out.csv"
    assert run([section, "--config", str(ini), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (err_line,) = captured.err.splitlines()
    err = json.loads(err_line)
    assert err["error"] == "invalid-parameter"
    assert err["message"].startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("word, optimize", [("1", True), ("Yes", True), ("on", True),
                                            ("false", False), ("OFF", False), ("0", False)])
def test_config_booleans_take_configparsers_words(tmp_path, capsys, word, optimize):
    ini = tmp_path / "run.ini"
    ini.write_text("[common]\nmu-points = 5\n\n[fig5]\noptimize-mu = %s\nl-max = 1\n" % word)
    out = tmp_path / "f5.csv"
    assert run(["fig5", "--config", str(ini), "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "f5.csv.manifest.json").read_text())
    assert manifest["resolved_config"]["optimize_mu"] is optimize


@pytest.mark.parametrize("section, key", [("fig4", "d-list"), ("fig4", "j-list"),
                                          ("fig1", "d-list")])
def test_config_refuses_an_empty_list(tmp_path, capsys, section, key):
    # [fig4] d-list = (empty) wrote a header-only fig4.csv, then exited 2 with
    # "min() arg is an empty sequence" and left the file on disk
    ini = tmp_path / "run.ini"
    ini.write_text("[%s]\n%s =\n" % (section, key))
    out = tmp_path / "out.csv"
    assert run([section, "--config", str(ini), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line) == {"error": "invalid-parameter",
                                "message": "%s needs at least one value" % key}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


def test_config_choice_is_refused_before_any_compute(tmp_path, monkeypatch, capsys):
    # the WCS and passive curves were computed first, then trigger_probability
    # refused "convention must be 'paper' or 'recomputed'" without naming the key
    monkeypatch.setattr(cli, "keyrate_curve", _refuse)
    ini = tmp_path / "run.ini"
    ini.write_text("[fig5]\ntrigger-convention = bogus\n")
    assert run(["fig5", "--config", str(ini), "--out", str(tmp_path / "f5.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "invalid-parameter",
        "message": "trigger-convention must be one of paper|recomputed, not 'bogus'"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


# Each optional flag of a figure with a value unlike its default (None: a path
# in the test's directory), written as INI text; a list value is split into
# flag words at commas and spaces, and a bool flag takes no word.
INI_PARITY = [
    ("fig1", "mu-min", "0.5"), ("fig1", "mu-max", "3"), ("fig1", "mu-points", "4"),
    ("fig1", "d-list", "2, 3"), ("fig1", "format", "json"), ("fig1", "out", None),
    ("fig4", "mu-min", "0.01"), ("fig4", "mu-max", "0.5"), ("fig4", "mu-points", "4"),
    ("fig4", "d-list", "4 12"), ("fig4", "j-list", "2,3"), ("fig4", "format", "json"),
    ("fig4", "out", None),
    ("fig5", "l-min", "1"), ("fig5", "l-max", "3"), ("fig5", "l-step", "0.5"),
    ("fig5", "optimize-mu", "yes"), ("fig5", "trigger-convention", "recomputed"),
    ("fig5", "eta-trigger-det", "0.3"), ("fig5", "format", "json"), ("fig5", "out", None),
]
# Flags that keep each run small, left out of the run whose own flag they are.
SMALL_RUN = {"fig1": {"mu-points": "3", "d-list": "4"}, "fig4": {"mu-points": "3"},
             "fig5": {"l-max": "2"}}


def test_ini_parity_covers_every_figure_flag():
    parser = cli.build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {(name, flag[2:]) for name in ("fig1", "fig4", "fig5")
             for action in subs.choices[name]._actions for flag in action.option_strings
             if flag not in ("-h", "--help", "--config")}
    assert {(name, key) for name, key, _ in INI_PARITY} == flags


@pytest.mark.parametrize("command, key, value", INI_PARITY,
                         ids=["%s-%s" % case[:2] for case in INI_PARITY])
def test_an_ini_key_writes_what_its_flag_writes(tmp_path, capsys, command, key, value):
    small = [w for k, v in SMALL_RUN[command].items() if k != key for w in ("--" + k, v)]
    ini = tmp_path / "run.ini"
    paths = {side: tmp_path / ("%s.data" % side) for side in ("flag", "ini", "default")}
    if key == "out":
        value = str(paths["ini"])
    ini.write_text("[%s]\n%s = %s\n" % (command, key, value))
    words = {"optimize-mu": [], "out": [str(paths["flag"])]}.get(
        key, value.replace(",", " ").split())
    for side, extra in (("flag", ["--" + key] + words), ("ini", ["--config", str(ini)]),
                        ("default", [])):
        out = ["--out", str(paths[side])] if key != "out" or side == "default" else []
        assert run([command] + small + extra + out) == 0
    data = {side: path.read_bytes() for side, path in paths.items()}
    assert data["ini"] == data["flag"]
    if key != "out":
        assert data["flag"] != data["default"]  # the value is read
    flag, from_ini = (dict(json.loads((tmp_path / ("%s.data.manifest.json" % side)).read_text())
                           ["resolved_config"], out=None) for side in ("flag", "ini"))
    assert from_ini == flag


def test_readme_documents_every_flag():
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    parser = cli.build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {(name, flag) for name, sub in subs.choices.items() for action in sub._actions
             for flag in action.option_strings if flag.startswith("--") and flag != "--help"}
    missing = sorted((name, flag) for name, flag in flags
                     if not re.search(re.escape(flag) + r"(?![\w-])", section))
    assert not missing


def test_output_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    assert run(["fig4", "--mu-points", "3", "--d-list", "4", "--j-list", "0",
                "--out", "envtest.csv"]) == 0
    assert (tmp_path / "envtest.csv").exists()


def test_invalid_grid_rejected(capsys):
    assert run(["fig1", "--mu-min", "2.0", "--mu-max", "1.0"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-parameter"
