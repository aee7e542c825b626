"""Cross-phase generation: output state, herald weights, trigger selectivity."""

import numpy as np
import pytest

from pspsim import (
    CONVENTION_PAPER,
    CONVENTION_RECOMPUTED,
    PSP_TRIGGERED,
    ChannelParams,
    GenerationParams,
    keyrate_curve,
    residue_masses,
    trigger_probability,
)

from oracle import coherent_norm2, cpm_output, kerr_output_fock, to_fock

ETA_DET = 0.12  # the trigger detector's efficiency


def make(mu=0.3, nu=100.0, d=4):
    return GenerationParams(mu=mu, nu=nu, d=d)


def test_cpm_output_is_normalized():
    assert abs(coherent_norm2(*cpm_output(make())) - 1.0) < 1e-12


def test_cpm_output_matches_kerr_unitary():
    # coherent-label construction against the number-basis unitary at d=4, nu=9
    with pytest.warns(UserWarning):
        g = GenerationParams(mu=0.3, nu=9.0, d=4)
    cutoff = 40
    lhs = to_fock(*cpm_output(g), cutoff=cutoff)
    rhs = kerr_output_fock(g, cutoff=cutoff)
    ov = np.vdot(lhs, rhs)
    assert abs(abs(ov) - 1.0) < 1e-8


def test_herald_weights_are_the_residue_masses():
    # the signal branch that the meter phase w^j heralds in the interaction's output
    # carries the residue mass M_j, whatever the meter's nu
    for mu, d in ((0.3, 4), (1.5, 8)):
        masses = residue_masses(mu, d)
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)
        for nu in (100.0, 400.0):
            coeffs, labels = cpm_output(make(mu=mu, nu=nu, d=d))
            for j in range(d):
                branch = to_fock(coeffs[j * d:(j + 1) * d], labels[j * d:(j + 1) * d, 0])
                assert abs(np.vdot(branch, branch).real - masses[j]) < 1e-12


def test_trigger_is_one_at_the_target_residue():
    assert trigger_probability(64.0, 4, 1, ETA_DET, CONVENTION_PAPER) == 1.0
    assert trigger_probability(64.0, 4, 1, ETA_DET, CONVENTION_RECOMPUTED) == 1.0


def test_trigger_frozen_rows():
    with pytest.warns(UserWarning):
        paper = trigger_probability(9.0, 4, np.arange(4), ETA_DET, CONVENTION_PAPER)
    with pytest.warns(UserWarning):
        recomputed = trigger_probability(9.0, 4, np.arange(4), ETA_DET, CONVENTION_RECOMPUTED)
    assert np.allclose(paper, [0.582748, 1.0, 0.582748, 0.339596], atol=1e-6)
    assert np.allclose(recomputed, [0.339596, 1.0, 0.339596, 0.115325], atol=1e-6)
    paper64 = [trigger_probability(64.0, 4, j, ETA_DET, CONVENTION_PAPER) for j in range(4)]
    assert np.allclose(paper64, [0.0214936, 1.0, 0.0214936, 0.000461975], atol=1e-7)


def test_trigger_selectivity_grows_with_nu():
    # off-target no-click probabilities fall as the meter brightens
    for convention in (CONVENTION_PAPER, CONVENTION_RECOMPUTED):
        prev = None
        for nu in (25.0, 100.0, 400.0):
            worst = max(trigger_probability(nu, 4, j, ETA_DET, convention)
                        for j in range(4) if j != 1)
            if prev is not None:
                assert worst < prev
            prev = worst


def test_trigger_probability_takes_residue_arrays():
    for d, nu in ((4, 100.0), (8, 256.0), (36, 5184.0)):
        for convention in (CONVENTION_PAPER, CONVENTION_RECOMPUTED):
            row = trigger_probability(nu, d, np.arange(d), ETA_DET, convention)
            assert row.tolist() == [trigger_probability(nu, d, j, ETA_DET, convention)
                                    for j in range(d)]


def test_trigger_validation():
    with pytest.raises(ValueError):
        trigger_probability(100.0, 4, 4)
    with pytest.raises(ValueError):
        trigger_probability(100.0, 4, 1, convention="other")
    # one bad entry rejects the whole array
    for bad in ([0, 1, 4], [-1, 0], [0.0, 1.0]):
        with pytest.raises(ValueError):
            trigger_probability(100.0, 4, np.array(bad))
    for nu, d, eta_det, message in ((0.0, 4, ETA_DET, "nu must be a number > 0"),
                                    ([100.0], 4, ETA_DET, "nu must be a number > 0"),
                                    (100.0, 0, ETA_DET, "d must be an integer"),
                                    (100.0, 4, 0.0, r"eta_det must lie in \(0, 1\]"),
                                    (100.0, 4, 1.5, r"eta_det must lie in \(0, 1\]")):
        with pytest.raises(ValueError, match=message):
            trigger_probability(nu, d, 1, eta_det)


def test_meter_resolution_warning():
    # each warns once, at the line that passed the meter's nu and d, not inside the
    # dataclass's __init__ or the key-rate estimator (which warned at qkd.py)
    for call in (lambda: GenerationParams(mu=0.3, nu=9.0, d=4),
                 lambda: GenerationParams(0.3, 1.0, 8),
                 lambda: trigger_probability(1.0, 8, 1),
                 lambda: keyrate_curve(PSP_TRIGGERED, ChannelParams(), 0.3, [10.0], 8, nu=1.0,
                                       eta_trigger_det=0.12)):
        with pytest.warns(UserWarning) as record:
            call()
        assert [w.filename for w in record] == [__file__]


def test_no_warning_when_resolved():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        GenerationParams(mu=0.3, nu=100.0, d=4)
        trigger_probability(100.0, 4, np.arange(4), ETA_DET)


def test_params_validation():
    with pytest.raises(ValueError):
        GenerationParams(mu=-0.1, nu=100.0, d=4)
    with pytest.raises(ValueError):
        GenerationParams(mu=0.1, nu=0.0, d=4)
    with pytest.raises(ValueError):
        GenerationParams(mu=0.1, nu=100.0, d=0)
    with pytest.raises(TypeError):  # the detector is trigger_probability's
        GenerationParams(mu=0.1, nu=100.0, d=4, eta_det=0.12)
