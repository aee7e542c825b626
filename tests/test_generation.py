"""Cross-phase generation: output state, herald weights, trigger selectivity."""

import numpy as np
import pytest

from pspsim import (
    CONVENTION_PAPER,
    CONVENTION_RECOMPUTED,
    GenerationParams,
    herald_probabilities,
    residue_masses,
    trigger_probability,
)

from oracle import coherent_norm2, cpm_output, kerr_output_fock, to_fock


def make(mu=0.3, nu=100.0, d=4, eta_det=0.12):
    return GenerationParams(mu=mu, nu=nu, d=d, eta_det=eta_det)


def test_cpm_output_is_normalized():
    assert abs(coherent_norm2(*cpm_output(make())) - 1.0) < 1e-12


def test_cpm_output_matches_kerr_unitary():
    # coherent-label construction against the number-basis unitary at d=4, nu=9
    with pytest.warns(UserWarning):
        g = GenerationParams(mu=0.3, nu=9.0, d=4, eta_det=0.12)
    cutoff = 40
    lhs = to_fock(*cpm_output(g), cutoff=cutoff)
    rhs = kerr_output_fock(g, cutoff=cutoff)
    ov = np.vdot(lhs, rhs)
    assert abs(abs(ov) - 1.0) < 1e-8


def test_herald_probabilities_sum_and_match_masses():
    g = make()
    probs = herald_probabilities(g)
    total = sum(probs[j] for j in range(g.d))
    assert total == pytest.approx(1.0, abs=1e-12)
    for j in range(g.d):
        assert abs(probs[j] - residue_masses(g.mu, g.d)[j]) < 1e-14


def test_trigger_is_one_at_the_target_residue():
    g = make(nu=64.0)
    assert trigger_probability(g, 1, convention=CONVENTION_PAPER) == 1.0
    assert trigger_probability(g, 1, convention=CONVENTION_RECOMPUTED) == 1.0


def test_trigger_frozen_rows():
    with pytest.warns(UserWarning):
        g = GenerationParams(mu=0.3, nu=9.0, d=4, eta_det=0.12)
    paper = [trigger_probability(g, j, convention=CONVENTION_PAPER) for j in range(4)]
    recomputed = [trigger_probability(g, j, convention=CONVENTION_RECOMPUTED)
                  for j in range(4)]
    assert np.allclose(paper, [0.582748, 1.0, 0.582748, 0.339596], atol=1e-6)
    assert np.allclose(recomputed, [0.339596, 1.0, 0.339596, 0.115325], atol=1e-6)
    g64 = make(nu=64.0)
    paper64 = [trigger_probability(g64, j, convention=CONVENTION_PAPER) for j in range(4)]
    assert np.allclose(paper64, [0.0214936, 1.0, 0.0214936, 0.000461975], atol=1e-7)


def test_trigger_selectivity_grows_with_nu():
    # off-target no-click probabilities fall as the meter brightens
    for convention in (CONVENTION_PAPER, CONVENTION_RECOMPUTED):
        prev = None
        for nu in (25.0, 100.0, 400.0):
            g = make(nu=nu)
            worst = max(trigger_probability(g, j, convention=convention)
                        for j in range(4) if j != 1)
            if prev is not None:
                assert worst < prev
            prev = worst


def test_trigger_probability_takes_residue_arrays():
    for d, nu in ((4, 100.0), (8, 256.0), (36, 5184.0)):
        g = make(nu=nu, d=d)
        for convention in (CONVENTION_PAPER, CONVENTION_RECOMPUTED):
            row = trigger_probability(g, np.arange(d), convention=convention)
            assert row.tolist() == [trigger_probability(g, j, convention=convention)
                                    for j in range(d)]


def test_trigger_validation():
    g = make()
    with pytest.raises(ValueError):
        trigger_probability(g, 4)
    with pytest.raises(ValueError):
        trigger_probability(g, 1, convention="other")
    # one bad entry rejects the whole array
    for bad in ([0, 1, 4], [-1, 0], [0.0, 1.0]):
        with pytest.raises(ValueError):
            trigger_probability(g, np.array(bad))


def test_meter_resolution_warning():
    with pytest.warns(UserWarning) as record:
        GenerationParams(mu=0.3, nu=9.0, d=4, eta_det=0.12)
    # the warning names the line that built the parameters, not the dataclass's __init__
    assert record[0].filename == __file__


def test_no_warning_when_resolved():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        GenerationParams(mu=0.3, nu=100.0, d=4, eta_det=0.12)


def test_params_validation():
    with pytest.raises(ValueError):
        GenerationParams(mu=-0.1, nu=100.0, d=4)
    with pytest.raises(ValueError):
        GenerationParams(mu=0.1, nu=0.0, d=4)
    with pytest.raises(ValueError):
        GenerationParams(mu=0.1, nu=100.0, d=0)
    with pytest.raises(ValueError):
        GenerationParams(mu=0.1, nu=100.0, d=4, eta_det=1.5)
