"""Fresh pspsim values against the mpmath referee at rtol 1e-13, with no atol.

Covered: residue masses and normalization for every residue, the fidelity,
the one-photon probability and f2002, on fig1's default mu grid, fig4's
2 mu grid (its bound reads N_{2mu,j}) and fig5's mu grid, for each d below;
the loss channel's weights for every j on fig5's grid and the corners
of LOSS_MUS; the number-basis oracle's g2 for every j on G2_MUS; and the
four BB84 readout probabilities over referee.BB84_GRID, at rtol 1e-13
(2.5e-13 at d = 40), where a zero referee probability must read exactly 0;
and the basis-fidelity bound on every cell of the default fig4 sweep and at
the three `compute basis-fidelity --d 8` queries.
"""

import io
import math
import os

import numpy as np
import pytest

import oracle
import pspsim
import referee
from pspsim import (PSPParams, cli, f2002, fidelity_to_number_state, loss_channel,
                    normalization, photon_number_probability, residue_masses)

GRIDS = {
    "fig1": np.logspace(math.log10(0.01), math.log10(20.0), 200),
    "fig4-2mu": 2.0 * np.logspace(math.log10(0.001), math.log10(1.0), 200),
    "fig5": np.arange(0.05, 2.0001, 0.05),
}
DS = [1, 2, 4, 8, 12, 36, 40]
LOSS_MUS = GRIDS["fig5"].tolist() + [1e-6, 1e-3, 5.0, 20.0]
G2_MUS = [1e-6, 1e-3, 0.05, 0.3, 1.0, 5.0]
FIG1_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench",
                           "reference", "fig1.csv")


def _assert_close(values, refs, what):
    errors = [referee.relative_error(v, r) for v, r in zip(values, refs)]
    assert len(errors) == len(refs)
    k = int(np.argmax(errors))
    assert errors[k] <= referee.RTOL, "%s: cell %d is %r, referee %s, relative error %.3e" % (
        what, k, values[k], refs[k], errors[k])


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("grid", GRIDS)
def test_residue_masses_and_normalization(grid, d):
    mus = GRIDS[grid]
    refs = [referee.residue_masses(mu, d) for mu in mus.tolist()]
    _assert_close(residue_masses(mus, d).ravel().tolist(), [m for row in refs for m in row],
                  "residue_masses")
    for j in range(d):
        _assert_close(normalization(mus, d, j).tolist(),
                      [referee.normalization(mu, d, j) for mu in mus.tolist()],
                      "normalization j=%d" % j)


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("grid", GRIDS)
def test_one_photon_state_fidelity_and_f2002(grid, d):
    # the j = 1 % d state of fig1; unequal f2002 inputs pair each point with
    # the next point at the next d
    j = 1 % d
    mus = GRIDS[grid].tolist()
    params = [PSPParams(mu=mu, d=d, j=j) for mu in mus]
    _assert_close([fidelity_to_number_state(p) for p in params],
                  [referee.fidelity(mu, d, j) for mu in mus], "fidelity")
    _assert_close([photon_number_probability(p, 1) for p in params],
                  [referee.photon_probability(mu, d, j, 1) for mu in mus], "P(1)")
    _assert_close([f2002(p, p) for p in params],
                  [referee.f2002(mu, d, j, mu, d, j) for mu in mus], "f2002")
    d2 = DS[(DS.index(d) + 1) % len(DS)]
    others = [PSPParams(mu=mu, d=d2, j=1 % d2) for mu in mus[1:]]
    _assert_close([f2002(p, q) for p, q in zip(params, others)],
                  [referee.f2002(p.mu, d, j, q.mu, d2, q.j) for p, q in zip(params, others)],
                  "f2002 unequal")


@pytest.mark.parametrize("d", DS)
def test_fidelity_of_every_j_on_the_fig5_grid(d):
    mus = GRIDS["fig5"].tolist()
    _assert_close([fidelity_to_number_state(PSPParams(mu=mu, d=d, j=j))
                   for j in range(d) for mu in mus],
                  [referee.fidelity(mu, d, j) for j in range(d) for mu in mus], "fidelity")


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 12])
def test_loss_weights_of_every_j(d):
    # a zero referee weight (every k != j at eta = 1) must read exactly 0
    cells = [(mu, j, eta) for mu in LOSS_MUS for j in range(d) for eta in (0.1, 0.5, 0.9, 1.0)]
    _assert_close([w for mu, j, eta in cells
                   for w in loss_channel(PSPParams(mu=mu, d=d, j=j), eta).tolist()],
                  [w for mu, j, eta in cells for w in referee.loss_weights(mu, d, j, eta)],
                  "loss weights")


@pytest.mark.parametrize("d", [2, 4, 8, 12])
def test_g2_of_the_number_basis_builder(d):
    # the oracle that production g2 is checked against, itself checked; from
    # 1.7e-25 at (1e-6, 4, 1) to 4.4e80 at (1e-6, 12, 0); worst measured 8.7e-16
    cells = [(mu, j) for mu in G2_MUS for j in range(d)]
    _assert_close([oracle.g2_zero_oracle(oracle.psp_fock(PSPParams(mu=mu, d=d, j=j)))
                   for mu, j in cells],
                  [referee.g2_zero(mu, d, j) for mu, j in cells], "builder g2")


def test_script_finds_no_miss_in_the_fig1_golden():
    out = io.StringIO()
    assert referee.check_fig1(FIG1_GOLDEN, out) == 0
    assert out.getvalue() == "0 of 1200 covered cells miss rtol 1e-13\n"


def test_script_prints_a_missed_cell(tmp_path):
    path = tmp_path / "fig1.csv"
    path.write_text("quantity,d,mu,value\nfidelity,4,0.5,0.25\ng2,4,0.5,0.25\n")
    out = io.StringIO()
    assert referee.check_fig1(str(path), out) == 1
    first, last = out.getvalue().splitlines()
    assert first.startswith("fidelity d=4 mu=0.5, 0.25, 0.9")
    assert last == "1 of 1 covered cells miss rtol 1e-13"


def test_script_finds_no_miss_in_a_fresh_default_fig4(tmp_path):
    path = tmp_path / "fig4.csv"
    assert cli.main(["fig4", "--out", str(path)]) == 0
    out = io.StringIO()
    assert referee.check_fig4(str(path), out) == 0
    assert out.getvalue() == "0 of 800 covered cells miss rtol 1e-13\n"


def test_fig4_script_prints_a_missed_cell(tmp_path):
    path = tmp_path / "fig4.csv"
    path.write_text("quantity,d,j,mu,value\nbasis_fidelity,8,1,0.3,0.5\n")
    out = io.StringIO()
    assert referee.check_fig4(str(path), out) == 1
    first, last = out.getvalue().splitlines()
    assert first.startswith("basis_fidelity d=8 j=1 mu=0.3, 0.5, 0.9")
    assert last == "1 of 1 covered cells miss rtol 1e-13"


@pytest.mark.parametrize("mu", ["0.1", "0.3", "0.6"])
def test_basis_fidelity_query(mu, capsys):
    assert cli.main(["compute", "basis-fidelity", "--d", "8", "--mu", mu]) == 0
    value = float(capsys.readouterr().out.splitlines()[0])
    _assert_close([value], [referee.basis_fidelity(float(mu), 8, 1)], "basis-fidelity")


@pytest.mark.parametrize("d", referee.BB84_GRID["d"])
def test_bb84_readout_of_every_case(d):
    # every j, the k of both phase sets and both bases, against the two-port sum
    out = io.StringIO()
    assert referee.check_bb84([case for case in referee.bb84_cases() if case[1] == d], out) == 0, (
        out.getvalue())


def test_bb84_script_prints_a_missed_case(monkeypatch):
    # a conjugate-basis click probability moved by 1e-12, relative, misses; an exact zero read as
    # the smallest subnormal misses too
    measure = pspsim.measure_bb84
    moved = {(0.45, 8, 1, 2, "X"): lambda p: (p[0] * (1 + 1e-12),) + p[1:],
             (0.45, 8, 1, 0, "X"): lambda p: p[:3] + (5e-324,)}
    monkeypatch.setattr(pspsim, "measure_bb84",
                        lambda *case: moved.get(case, lambda p: p)(measure(*case)))
    out = io.StringIO()
    assert referee.check_bb84([(0.45, 8, 1, k, b) for k in (0, 2) for b in "XY"], out) == 2
    first, second, last = out.getvalue().splitlines()
    assert first.startswith("p_none mu=0.45 d=8 j=1 k=0 basis=X, 5e-324, 0.0, inf")
    assert second.startswith("p_click_port0 mu=0.45 d=8 j=1 k=2 basis=X, ")
    assert last == "2 of 4 BB84 cases miss their tolerance"
