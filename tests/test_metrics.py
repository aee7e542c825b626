"""g2(0) and Hong-Ou-Mandel numbers: closed forms against the Fock oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pspsim import (
    NumericalDiagnosticError,
    PSPParams,
    auto_cutoff,
    f2002,
    fock_beam_splitter,
    g2_zero_closed,
    g2_zero_oracle,
    hom,
    hom_fock_oracle,
    pseudo_number_state,
    tensor,
    to_fock,
)
from pspsim import metrics, pns
from pspsim.metrics import _clamp_unit


def test_g2_equals_one_for_plain_coherent():
    for mu in (0.01, 0.5, 3.0, 50.0):
        assert abs(g2_zero_closed(mu, 1) - 1.0) < 1e-12


def test_g2_closed_vs_fock_oracle():
    for d in (2, 4, 8, 12):
        for mu in (0.1, 1.0, 5.0):
            closed = g2_zero_closed(mu, d)
            fv = to_fock(pseudo_number_state(PSPParams(mu=mu, d=d, j=1)))
            oracle = g2_zero_oracle(fv)
            assert abs(closed - oracle) < 1e-10 * max(1.0, abs(oracle))


def test_g2_frozen_point():
    assert abs(g2_zero_closed(0.01, 4) - 1.6666666651920272e-09) < 1e-17


def test_g2_small_mu_power_law():
    # leading order d mu^d / d!
    for d in (2, 3, 4):
        mu = 0.01
        expect = d * mu**d / math.factorial(d)
        assert abs(g2_zero_closed(mu, d) / expect - 1.0) < 0.02


def test_g2_rejects_bad_parameters():
    with pytest.raises(ValueError):
        g2_zero_closed(-1.0, 4)
    with pytest.raises(ValueError):
        g2_zero_closed(0.5, 0)


@pytest.mark.parametrize("mu", [math.inf, math.nan])
def test_g2_rejects_non_finite_mu_without_warning(mu):
    # the phase sum used to run first and print a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="mu must be finite"):
            g2_zero_closed(mu, 8)


def test_g2_oracle_rejects_two_mode_states():
    fv = to_fock(tensor(*(pseudo_number_state(PSPParams(mu=0.2, d=2, j=1)),) * 2))
    with pytest.raises(ValueError):
        g2_zero_oracle(fv)


def test_clamp_guard():
    assert _clamp_unit(1.0 + 1e-14, "x") == 1.0
    assert _clamp_unit(-1e-14, "x") == 0.0
    with pytest.raises(NumericalDiagnosticError):
        _clamp_unit(1.01, "x")


def test_hom_identical_frozen_points():
    r = hom(PSPParams(mu=0.4, d=4, j=1), PSPParams(mu=0.4, d=4, j=1))
    assert abs(r.p11 - 2.6657594135306805e-04) < 1e-15
    assert abs(r.f2002 - 0.999573466218153) < 1e-12
    r8 = hom(PSPParams(mu=0.1, d=8, j=1), PSPParams(mu=0.1, d=8, j=1))
    assert r8.p11 < 1e-13
    assert r8.f2002 > 1.0 - 1e-9


def test_hom_matches_fock_oracle():
    rng = np.random.default_rng(42)
    for _ in range(6):
        mu = float(rng.uniform(0.05, 1.5))
        d = int(rng.choice([2, 4, 8]))
        delta = float(rng.uniform(0.0, 1.0))
        p1 = PSPParams(mu=mu, d=d, j=1)
        p2 = PSPParams(mu=mu, d=d, j=1, delta=delta)
        r = hom(p1, p2)
        out = fock_beam_splitter(
            to_fock(tensor(pseudo_number_state(p1), pseudo_number_state(p2))),
            variant="X",
        )
        p11_o, f2002_o = hom_fock_oracle(out)
        assert abs(r.p11 - p11_o) < 1e-10
        assert abs(r.f2002 - f2002_o) < 1e-10


def test_hom_coherent_inputs():
    # d = 1 inputs never produce coincidences on the balanced splitter and
    # the NOON weight is mu^2 e^(-2 mu)
    for mu in (0.1, 0.6):
        p = PSPParams(mu=mu, d=1, j=0)
        r = hom(p, p)
        assert r.p11 < 1e-12
        assert abs(r.f2002 - mu**2 * math.exp(-2 * mu)) < 1e-10


def test_f2002_does_not_depend_on_source_offset():
    vals = []
    for delta in np.linspace(0.0, 0.5, 9):
        r = hom(PSPParams(mu=0.4, d=4, j=1),
                PSPParams(mu=0.4, d=4, j=1, delta=float(delta)))
        vals.append(r.f2002)
    assert max(vals) - min(vals) < 1e-12


def test_g2_tail_oscillation_band_counts():
    # the tail of g2(mu) oscillates around 1; on the standard sweep grid the
    # number of banded crossings and the upward first crossing are stable
    grid = np.logspace(np.log10(0.01), np.log10(20.0), 200)
    eps = 1e-6
    expect = {4: (4, 1.946), 8: (4, 3.078), 12: (3, 4.509)}
    for d, (count, first_mu) in expect.items():
        states = []
        crossing = None
        for mu in grid:
            g = g2_zero_closed(float(mu), d)
            s = 1 if g > 1 + eps else (-1 if g < 1 - eps else 0)
            if s != 0 and (not states or states[-1] != s):
                if states and crossing is None:
                    crossing = float(mu)
                states.append(s)
        assert len(states) - 1 == count
        assert states[0] == -1 and states[1] == 1
        assert abs(crossing - first_mu) < 0.01


def test_p11_dip_at_zero_offset():
    deltas = np.linspace(0.0, 0.5, 9)
    vals = []
    for delta in deltas:
        r = hom(PSPParams(mu=0.4, d=4, j=1),
                PSPParams(mu=0.4, d=4, j=1, delta=float(delta)))
        vals.append(r.p11)
    assert int(np.argmin(vals)) == 0
    assert int(np.argmax(vals)) == len(deltas) - 1
    assert abs(vals[-1] - 4.2651480440757295e-04) < 1e-12


@st.composite
def psp_params(draw):
    d = draw(st.integers(1, 6))
    return PSPParams(mu=draw(st.floats(0.05, 1.2)), d=d, j=draw(st.integers(0, d - 1)),
                     delta=draw(st.floats(0.0, 1.0)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(p1=psp_params(), p2=psp_params())
@example(p1=PSPParams(mu=0.3, d=1, j=0), p2=PSPParams(mu=0.9, d=1, j=0, delta=0.4))
def test_f2002_closed_form_matches_fock_oracle(p1, p2):
    # P1(1) P2(1) against the NOON amplitude of the number-basis output
    cutoff = auto_cutoff(p1.mu + p2.mu)  # covers the total photon number
    out = fock_beam_splitter(
        to_fock(tensor(pseudo_number_state(p1), pseudo_number_state(p2)), cutoff=cutoff),
        variant="X",
    )
    assert abs(f2002(p1, p2) - hom_fock_oracle(out)[1]) <= 1e-12


def test_hom_builds_equal_inputs_once(monkeypatch):
    # one state and one residue pass for p11, one residue pass for f2002
    calls = {"states": 0, "residues": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(metrics, "pseudo_number_state",
                        counted("states", metrics.pseudo_number_state))
    monkeypatch.setattr(pns, "residue_masses", counted("residues", pns.residue_masses))
    p = PSPParams(mu=0.4, d=4, j=1)
    hom(p, p)
    assert calls == {"states": 1, "residues": 2}
    hom(p, PSPParams(mu=0.4, d=4, j=1, delta=0.25))
    assert calls == {"states": 3, "residues": 6}
