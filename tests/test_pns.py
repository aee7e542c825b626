"""Pseudo-number states: normalization, support, generation weight, loss."""

import math

import numpy as np
import pytest

from pspsim import (
    PSPParams,
    auto_cutoff,
    fidelity_to_number_state,
    loss_channel,
    modular_poisson_mass,
    norm,
    normalization,
    normalization_overlap_sum,
    pseudo_number_state,
    residue_masses,
    to_fock,
    uhlmann_fidelity,
)
from pspsim import cli


def mass_direct(mu, d, j, terms=400):
    total = 0.0
    for n in range(j % d, terms, d):
        total += math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))
    return total


def test_modular_poisson_mass_direct_and_complete():
    for mu in (1e-3, 0.05, 0.5, 2.0, 10.0, 30.0):
        for d in (1, 2, 3, 4, 8, 36, 100):
            masses = residue_masses(mu, d)
            assert masses.shape == (d,)
            for j in range(d):
                assert abs(masses[j] - mass_direct(mu, d, j)) < 1e-14
                assert modular_poisson_mass(mu, d, j) == masses[j]
            assert abs(masses.sum() - 1.0) < 1e-12


def test_residue_masses_edge_cases():
    assert residue_masses(0.0, 4).tolist() == [1.0, 0.0, 0.0, 0.0]
    assert residue_masses(0.0, 1).tolist() == [1.0]
    for mu in (1e-3, 0.7, 25.0):
        assert abs(residue_masses(mu, 1)[0] - 1.0) < 1e-14
    for d in (5000, 70000):  # blocks shorter than 64 rows
        masses = residue_masses(0.5, d)
        assert abs(masses.sum() - 1.0) < 1e-15
        for j in range(4):
            assert abs(masses[j] - mass_direct(0.5, d, j)) < 1e-16
    for bad_d in (0, -1, 2.0, None):
        with pytest.raises(ValueError):
            residue_masses(0.5, bad_d)
    with pytest.raises(ValueError):
        residue_masses(-0.1, 4)


@pytest.mark.parametrize("d", [1, 4, 8, 36, 1100])
def test_residue_masses_table_equals_scalar_calls(d):
    # rows stop at different blocks (mu = 30 at d = 1 needs several), and at
    # mu = 1e-300 every residue above 1 underflows to zero
    mus = np.concatenate([[0.0, 1e-300, 1e-3], np.arange(0.05, 2.0001, 0.05), [30.0]])
    table = residue_masses(mus, d)
    assert table.shape == (mus.size, d)
    stacked = np.array([residue_masses(float(mu), d) for mu in mus])
    assert np.array_equal(table, stacked)  # bit for bit
    if d > 2:
        assert table[1, 2] == 0.0
    assert residue_masses(np.array([]), d).shape == (0, d)


def test_residue_masses_table_validation():
    for bad in ([[0.1]], [0.1, math.nan], [0.1, math.inf], [0.1, -0.2]):
        with pytest.raises(ValueError):
            residue_masses(np.array(bad), 4)


# The cases below test that the series terminates, so they run in a fresh
# interpreter that the fixture kills on a hang instead of stalling the suite.


@pytest.mark.parametrize("call, expect", [
    # the residue's running sum is so small that SERIES_RTOL times it underflows
    ("modular_poisson_mass(1e-300, 4, 1)", 1e-300),
    ("normalization(1e-100, 4, 3)", 16.0 * 1e-300 / 6.0),
])
def test_series_terminates_at_tiny_mu(isolated, call, expect):
    code, out = isolated("from pspsim import *; print(repr(%s))" % call)
    assert code == 0
    assert abs(float(out) - expect) < 1e-12 * expect


def raised(call):
    """Source that prints the name of the exception call raises."""
    return ("from pspsim import *\ntry:\n    %s\nexcept Exception as exc:\n"
            "    print(type(exc).__name__)" % call)


@pytest.mark.parametrize("mu", ["float('nan')", "float('inf')"])
def test_series_rejects_non_finite_mu(isolated, mu):
    assert isolated(raised("modular_poisson_mass(%s, 4, 1)" % mu)) == (0, "ValueError")


def test_underflowing_residue_is_degenerate(isolated):
    # M_3 at mu = 1e-200 is mu^3/6 ~ 1e-600, which underflows to zero
    assert isolated(raised("normalization(1e-200, 4, 3)")) == (0, "DegenerateStateError")


def test_series_beyond_term_cap_is_a_truncation_error(isolated):
    # the mode of Poisson(1e300) lies beyond any photon number the series may reach
    assert isolated(raised("residue_masses(1e300, 4)")) == (0, "TruncationError")
    assert isolated(raised("residue_masses([0.5, 1e300], 4)")) == (0, "TruncationError")
    code, _ = isolated(
        "import sys; from pspsim import cli; "
        "sys.exit(cli.main(['compute', 'normalization', '--mu', '1e300', '--d', '4']))")
    assert code == cli.EXIT_NUMERICAL


def test_normalization_series_vs_overlap_sum():
    for mu in (0.1, 0.5, 2.0, 8.0):
        for d in (2, 4, 8, 12):
            for j in (0, 1):
                a = normalization(mu, d, j)
                b = normalization_overlap_sum(mu, d, j)
                assert abs(a - b) < 1e-10 * abs(a)


def test_pseudo_number_state_is_normalized():
    for mu in (0.05, 0.8, 3.0):
        for d in (2, 4, 8):
            s = pseudo_number_state(PSPParams(mu=mu, d=d, j=1))
            assert abs(norm(s) - 1.0) < 1e-12


def test_fock_support_is_residue_class():
    # number support sits on n = j (mod d) only
    for d, j in ((2, 1), (4, 1), (4, 3), (8, 0)):
        p = PSPParams(mu=0.7, d=d, j=j)
        amps = to_fock(pseudo_number_state(p)).amplitudes
        for n, a in enumerate(amps):
            if n % d != j % d:
                assert abs(a) < 1e-13


def test_fidelity_closed_value_odd_cat():
    got = fidelity_to_number_state(PSPParams(mu=0.1, d=2, j=1))
    assert abs(got - 0.1 / math.sinh(0.1)) < 1e-12


def test_fidelity_matches_fock_projection():
    for mu, d in ((0.3, 4), (0.8, 8), (1.5, 2)):
        p = PSPParams(mu=mu, d=d, j=1)
        amps = to_fock(pseudo_number_state(p)).amplitudes
        assert abs(fidelity_to_number_state(p) - abs(amps[1]) ** 2) < 1e-11


def test_fidelity_infinite_d_branch():
    assert fidelity_to_number_state(PSPParams(mu=0.4, d=math.inf, j=1)) == 1.0


def test_generation_probability_distribution():
    mu, d = 0.3, 4
    probs = [modular_poisson_mass(mu, d, j) for j in range(d)]
    assert abs(sum(probs) - 1.0) < 1e-12
    assert abs(probs[1] - 0.22226046781366693) < 1e-12
    for j in range(d):
        assert abs(probs[j] - mass_direct(mu, d, j)) < 1e-12


def test_param_validation():
    with pytest.raises(ValueError):
        PSPParams(mu=-0.1, d=4, j=1)
    with pytest.raises(ValueError):
        PSPParams(mu=0.1, d=0, j=0)
    with pytest.raises(ValueError):
        PSPParams(mu=0.1, d=4, j=4)


def test_loss_exact_operator_trace_and_hermiticity():
    for mu, d, eta in ((0.2, 4, 0.9), (0.5, 8, 0.5), (1.0, 2, 0.7)):
        res = loss_channel(PSPParams(mu=mu, d=d, j=1), eta)
        assert abs(res.exact.trace() - 1.0) < 1e-10
        m = res.exact.to_fock_matrix(auto_cutoff(mu) + 4)
        assert np.max(np.abs(m - m.conj().T)) < 1e-12


def test_loss_matches_photon_loss_expansion():
    # independent oracle: sum over the number of lost photons m, each term
    # a pseudo-number state at mu*eta in residue class (j - m) mod d
    mu, d, j, eta = 0.4, 4, 1, 0.8
    x = mu * (1.0 - eta)
    cutoff = auto_cutoff(mu) + 6
    rho = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    n_in = normalization(mu, d, j)
    for m in range(40):
        w = math.exp(-x + m * math.log(x) - math.lgamma(m + 1)) if x > 0 else (m == 0)
        w *= normalization(mu * eta, d, (j - m) % d) / n_in
        vec = to_fock(pseudo_number_state(PSPParams(mu=mu * eta, d=d, j=(j - m) % d)),
                      cutoff=cutoff).amplitudes
        rho += w * np.outer(vec, np.conj(vec))
    lib = loss_channel(PSPParams(mu=mu, d=d, j=j), eta).exact.to_fock_matrix(cutoff)
    assert np.max(np.abs(rho - lib)) < 1e-12


def test_loss_expansion_weights_sum_to_one():
    mu, d, j, eta = 0.6, 8, 1, 0.75
    x = mu * (1.0 - eta)
    n_in = normalization(mu, d, j)
    total = sum(
        math.exp(-x + m * math.log(x) - math.lgamma(m + 1))
        * normalization(mu * eta, d, (j - m) % d) / n_in
        for m in range(60)
    )
    assert abs(total - 1.0) < 1e-12


def test_loss_two_term_weights_present_only_for_j1():
    res = loss_channel(PSPParams(mu=0.2, d=4, j=1), 0.9)
    assert res.approx_weights is not None
    w1, w0 = res.approx_weights
    assert abs(w1 - 0.8999958792513797) < 1e-15 and abs(w0 - 0.10000304076148993) < 1e-15
    assert loss_channel(PSPParams(mu=0.2, d=4, j=0), 0.9).approx_weights is None
    # oracle: the weights are the Fock-basis projections <v_j|rho_exact|v_j>
    # onto the attenuated j=1 and j=0 states
    for mu, eta in ((0.2, 0.9), (1e-3, 0.5)):
        res = loss_channel(PSPParams(mu=mu, d=4, j=1), eta)
        cutoff = auto_cutoff(mu) + 4
        rho = res.exact.to_fock_matrix(cutoff)
        for weight, j in zip(res.approx_weights, (1, 0)):
            vec = to_fock(pseudo_number_state(PSPParams(mu=mu * eta, d=4, j=j)),
                          cutoff=cutoff).amplitudes
            assert abs(weight - np.vdot(vec, rho @ vec).real) < 1e-12
    # a single photon survives with probability eta, even as mu -> 0
    w1, w0 = loss_channel(PSPParams(mu=1e-3, d=4, j=1), 0.5).approx_weights
    assert abs(w1 - 0.5) < 1e-12 and abs(w0 - 0.5) < 1e-12


def density_from_params(p, cutoff):
    vec = to_fock(pseudo_number_state(p), cutoff=cutoff).amplitudes
    return np.outer(vec, np.conj(vec))


def test_loss_two_term_fidelity_frozen_values():
    # fidelity of the exact lossy output to the two-term mixture at
    # mu = 0.2, eta = 0.9: 1 minus the mass of the dropped branches (two or
    # more photons lost mod d), which is zero at d = 2
    expect = {2: 1.0, 4: 0.99999893, 8: 1.0}
    mu, eta = 0.2, 0.9
    for d, val in expect.items():
        p = PSPParams(mu=mu, d=d, j=1)
        res = loss_channel(p, eta)
        cutoff = auto_cutoff(mu) + 4
        rho = res.exact.to_fock_matrix(cutoff)
        w1, w0 = res.approx_weights
        sigma = w1 * density_from_params(PSPParams(mu=mu * eta, d=d, j=1), cutoff)
        sigma += w0 * density_from_params(PSPParams(mu=mu * eta, d=d, j=0), cutoff)
        # the matrix square roots are rank deficient; ~1e-8 is the honest
        # reproducibility of these numbers
        assert abs(uhlmann_fidelity(rho, sigma) - val) < 5e-8


def test_loss_infidelity_linear_in_lost_intensity():
    # the two-term error is quadratic in the lost intensity x = mu(1-eta):
    # halving x should divide 1 - F by 4 to within ~10 percent (at d = 2 the
    # shortcut is exact, so the first d with dropped branches is used)
    d = 3
    p = PSPParams(mu=0.2, d=d, j=1)
    cutoff = auto_cutoff(0.2) + 4
    infid = []
    for eta in (0.98, 0.96):
        res = loss_channel(p, eta)
        rho = res.exact.to_fock_matrix(cutoff)
        w1, w0 = res.approx_weights
        sigma = w1 * density_from_params(PSPParams(mu=0.2 * eta, d=d, j=1), cutoff)
        sigma += w0 * density_from_params(PSPParams(mu=0.2 * eta, d=d, j=0), cutoff)
        infid.append(1.0 - uhlmann_fidelity(rho, sigma))
    ratio = infid[1] / infid[0]
    assert abs(ratio - 4.0) < 0.4


def test_loss_fidelity_independent_of_delta():
    base = None
    for delta in (0.0, 0.3):
        p = PSPParams(mu=0.3, d=4, j=1, delta=delta)
        res = loss_channel(p, 0.85)
        cutoff = auto_cutoff(0.3) + 4
        rho = res.exact.to_fock_matrix(cutoff)
        sigma = density_from_params(PSPParams(mu=0.3 * 0.85, d=4, j=1, delta=delta), cutoff)
        f = uhlmann_fidelity(rho, sigma)
        if base is None:
            base = f
        else:
            assert abs(f - base) < 1e-8
