"""Command-line layer: exit codes, file formats, config layering, determinism."""

import csv
import json

import numpy as np
import pytest

from pspsim import (ChannelParams, NumericalDiagnosticError, basis_fidelity_bound,
                    g2_zero_closed, modular_poisson_mass)
from pspsim import cli, generation, pns, qkd
from pspsim.qkd import keyrate_psp_passive


def run(argv):
    return cli.main(argv)


def test_compute_g2_coherent(capsys):
    assert run(["compute", "g2", "--mu", "0.5", "--d", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "1"
    payload = json.loads(lines[1])
    assert payload["value"] == 1.0


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


def test_fig1_deterministic_across_workers(tmp_path, capsys):
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
    # are computed once per curve: only the length of the distance table grows
    calls = []
    original = pns.residue_masses

    def counted(mu, d):
        calls.append(np.size(mu))
        return original(mu, d)

    for module in (pns, qkd, generation):
        monkeypatch.setattr(module, "residue_masses", counted)
    counts = []
    for l_max in ("2", "10"):
        calls.clear()
        assert run(["fig5", "--l-max", l_max, "--out", str(tmp_path / "f5.csv")] + optimize) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    assert max(calls) == 11  # one table row per distance


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
    expect = keyrate_psp_passive(ChannelParams(distance_km=40.0), 0.45, 8).rate
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
    assert "distance_km" in err["message"]


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


def test_compute_herald_value(capsys):
    assert run(["compute", "herald", "--mu", "0.3", "--d", "4", "--j", "1"]) == 0
    assert float(capsys.readouterr().out.splitlines()[0]) == \
        modular_poisson_mass(0.3, 4, 1)


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


def test_output_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    assert run(["fig4", "--mu-points", "3", "--d-list", "4", "--j-list", "0",
                "--out", "envtest.csv"]) == 0
    assert (tmp_path / "envtest.csv").exists()


def test_invalid_grid_rejected(capsys):
    assert run(["fig1", "--mu-min", "2.0", "--mu-max", "1.0"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-parameter"
