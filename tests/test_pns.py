"""Pseudo-number states: normalization, support, generation weight, loss."""

import math

import numpy as np
import pytest

from pspsim import (
    PSP_NONDECOY,
    PSP_PASSIVE_DECOY,
    WCS_DECOY,
    ChannelParams,
    GenerationParams,
    PSPParams,
    basis_fidelity_bound,
    binary_entropy,
    fidelity_to_number_state,
    g2_zero_closed,
    herald_probabilities,
    keyrate_curve,
    loss_channel,
    measure_bb84,
    normalization,
    phase_error_upper,
    photon_number_probability,
    pseudo_state_yield,
    residue_masses,
    transmission,
)
from pspsim import TruncationError, cli, pns

import oracle
from oracle import coherent_norm2, psp_fock, to_fock
from test_properties import full_block_table
from test_states import circle_expansion


def mass_direct(mu, d, j, terms=400):
    total = 0.0
    for n in range(j % d, terms, d):
        total += math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))
    return total


def test_residue_masses_direct_and_complete():
    for mu in (1e-3, 0.05, 0.5, 2.0, 10.0, 30.0):
        for d in (1, 2, 3, 4, 8, 36, 100):
            masses = residue_masses(mu, d)
            assert masses.shape == (d,)
            for j in range(d):
                assert abs(masses[j] - mass_direct(mu, d, j)) < 1e-14
                assert residue_masses(mu, d, [j])[0] == masses[j]
            assert abs(masses.sum() - 1.0) < 1e-12


def test_residue_masses_edge_cases():
    assert residue_masses(0.0, 4).tolist() == [1.0, 0.0, 0.0, 0.0]
    assert residue_masses(0.0, 1).tolist() == [1.0]
    for mu in (1e-3, 0.7, 25.0):
        assert abs(residue_masses(mu, 1)[0] - 1.0) < 1e-14
    # d = 1 is the whole distribution, exactly 1; the Poisson sum missed it by more
    # than 1e-15 at mu = 1e5.  The input checks still come first.
    for mu in (0.0, 1e-300, 0.5, 20.0, 1e5):
        assert residue_masses(mu, 1).tolist() == [1.0]
        assert residue_masses([mu, mu], 1, [0]).tolist() == [[1.0], [1.0]]
    for bad in (-0.1, math.nan, math.inf, True):
        with pytest.raises(ValueError, match="mu"):
            residue_masses(bad, 1)
    with pytest.raises(ValueError, match="residues"):
        residue_masses(0.5, 1, [1])
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
    # mu = 1e-300 every residue above 1 underflows to zero; a number mu is
    # row 0 of a one-row table, and both are the full-block arithmetic
    mus = np.concatenate([[0.0, 1e-300, 1e-3], np.arange(0.05, 2.0001, 0.05), [30.0]])
    table = residue_masses(mus, d)
    assert table.shape == (mus.size, d)
    assert np.array_equal(table, full_block_table(mus, d))  # bit for bit
    stacked = np.array([residue_masses(float(mu), d) for mu in mus])
    assert np.array_equal(stacked, full_block_table(mus, d))
    if d > 2:
        assert table[1, 2] == 0.0
    assert residue_masses(np.array([]), d).shape == (0, d)


def test_block_heads_end_where_no_term_can_change_a_bit():
    # mu = 2, every residue: at d = 36 a block's second column is below 2^-56
    # of its first, and at d = 4 and 8 its ninth below 2^-56 of its first, so
    # the heads are 1, 8 and 8 columns; a head padded to every column that
    # holds a nonzero term would be 8, 56 and 32
    assert [pns._head_width(0, 64, d, 2.0) for d in (36, 4, 8)] == [1, 8, 8]


def test_residue_masses_table_validation():
    for bad in ([[0.1]], [0.1, math.nan], [0.1, math.inf], [0.1, -0.2]):
        with pytest.raises(ValueError):
            residue_masses(np.array(bad), 4)
    for residues in ([4], [-1], [[1]], [1.0], [True]):
        with pytest.raises(ValueError, match="residues"):
            residue_masses(np.array([0.5]), 4, residues)


def test_residue_subset_of_one_mu_and_of_an_empty_table():
    assert residue_masses(0.5, 8, [3, 1]).tolist() == residue_masses(0.5, 8)[[3, 1]].tolist()
    assert residue_masses(0.0, 4, [1, 0]).tolist() == [0.0, 1.0]
    assert residue_masses(np.array([]), 4, [1]).shape == (0, 1)


# The cases below test that the series terminates, so they run in a fresh
# interpreter that the fixture kills on a hang instead of stalling the suite.


@pytest.mark.parametrize("call, expect", [
    # the residue's running sum is so small that SERIES_RTOL times it underflows
    ("float(residue_masses(1e-300, 4)[1])", 1e-300),
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
    assert isolated(raised("residue_masses(%s, 4, [1])" % mu)) == (0, "ValueError")


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


def _never_summed(*args):
    raise AssertionError("a series was summed")


def test_a_mu_past_the_series_limit_is_refused_before_any_block(monkeypatch):
    # residue_masses(1e300, 2) summed blocks up to SERIES_MAX_N (about 0.6 s) before
    # it raised; the message names the first mu of the table past the limit
    monkeypatch.setattr(pns, "_residue_rows", _never_summed)
    for call, named, d in ((lambda: residue_masses(1e300, 2), "1e+300", 2),
                           (lambda: residue_masses([0.5, 2.0**21, 1e300], 2), "2.09715e+06", 2),
                           # the BB84 readout's series, over the total photon number at 2 mu
                           (lambda: measure_bb84(1e6, 8, 1, 2, "X"), "2e+06", 8)):
        message = "modular Poisson series at mu=%s, d=%d needs photon numbers above %d" % (
            named, d, pns.SERIES_MAX_N)
        with pytest.raises(TruncationError) as exc:
            call()
        assert str(exc.value) == message
    assert residue_masses(1e300, 1)[0] == 1.0  # d = 1 sums no series
    assert residue_masses([1e300, 0.5], 1).tolist() == [[1.0], [1.0]]


def test_normalization_series_vs_direct_sum():
    import mpmath  # the test extra's referee; imported here so that only this test needs it

    # d^2 e^{-mu} sum_{n = j mod d} mu^n / n! summed term by term to 60 digits
    with mpmath.workdps(60):
        for mu in (0.1, 0.5, 2.0, 8.0):
            m = mpmath.mpf(mu)
            for d in (2, 4, 8, 12):
                for j in (0, 1):
                    exact = d * d * mpmath.fsum(mpmath.exp(-m) * m**n / mpmath.factorial(n)
                                                for n in range(j, 200, d))
                    assert abs(normalization(mu, d, j) - exact) < 1e-13 * exact


def test_circle_expansion_is_normalized():
    for mu in (0.05, 0.8, 3.0):
        for d in (2, 4, 8):
            s = circle_expansion(PSPParams(mu=mu, d=d, j=1))
            assert abs(math.sqrt(coherent_norm2(*s)) - 1.0) < 1e-12


def test_fock_support_is_residue_class():
    # number support sits on n = j (mod d) only
    for d, j in ((2, 1), (4, 1), (4, 3), (8, 0)):
        p = PSPParams(mu=0.7, d=d, j=j)
        amps = to_fock(*circle_expansion(p))
        for n, a in enumerate(amps):
            if n % d != j % d:
                assert abs(a) < 1e-13


def test_fidelity_closed_value_odd_cat():
    got = fidelity_to_number_state(PSPParams(mu=0.1, d=2, j=1))
    assert abs(got - 0.1 / math.sinh(0.1)) < 1e-12


def test_fidelity_matches_fock_projection():
    for mu, d in ((0.3, 4), (0.8, 8), (1.5, 2)):
        p = PSPParams(mu=mu, d=d, j=1)
        amps = to_fock(*circle_expansion(p))
        assert abs(fidelity_to_number_state(p) - abs(amps[1]) ** 2) < 1e-11


def test_photon_number_probability_matches_fock_projection():
    for mu, d, j, delta in ((0.3, 4, 1, 0.0), (0.8, 3, 0, 0.3), (1.5, 2, 1, 0.7), (0.6, 1, 0, 0.0)):
        p = PSPParams(mu=mu, d=d, j=j, delta=delta)
        probs = np.abs(to_fock(*circle_expansion(p))) ** 2
        for n, expect in enumerate(probs):
            got = photon_number_probability(p, n)
            assert abs(got - expect) < 1e-11
            if n % d != j:
                assert got == 0.0
    assert photon_number_probability(PSPParams(mu=0.0, d=3, j=0), 0) == 1.0
    assert photon_number_probability(PSPParams(mu=0.0, d=3, j=0), 3) == 0.0
    assert photon_number_probability(PSPParams(mu=0.4, d=math.inf, j=2), 2) == 1.0
    assert photon_number_probability(PSPParams(mu=0.4, d=math.inf, j=2), 3) == 0.0
    for n in (True, -1, 1.0):
        with pytest.raises(ValueError, match="photon number"):
            photon_number_probability(PSPParams(mu=0.4, d=4, j=1), n)


def test_fidelity_matches_scipy_special_formula():
    # the closed form once read xlogy and gammaln from scipy.special
    from scipy.special import gammaln, xlogy

    for mu in (1e-6, 0.01, 0.3, 1.0, 7.5, 60.0):
        for d in (1, 2, 5, 12, 40):
            for j in sorted({0, 1 % d, d // 2, d - 1}):
                log_pmf = (float(xlogy(j, mu)), -mu, -float(gammaln(j + 1.0)))
                expect = math.exp(sum(log_pmf)) / residue_masses(mu, d)[j]
                got = fidelity_to_number_state(PSPParams(mu=mu, d=d, j=j))
                # exp turns a difference of an ulp or two in its argument
                # (math.lgamma against gammaln) into that many ulps of |argument|
                scale = sum(abs(t) for t in log_pmf)
                assert abs(got - expect) <= (1e-14 + 2 * np.finfo(float).eps * scale) * expect


def test_fidelity_infinite_d_branch():
    assert fidelity_to_number_state(PSPParams(mu=0.4, d=math.inf, j=1)) == 1.0


@pytest.mark.parametrize("mu, d, j", [(2.0625, 24, 0), (0.01, 8, 1)])
def test_fidelity_never_exceeds_one(mu, d, j):
    # the support term holds nearly all of M_j, and Pois(mu; j) / M_j used to read
    # 1.0000000000000002 (fig1's fidelity column, the same quotient, did at 13 cells)
    p = PSPParams(mu=mu, d=d, j=j)
    assert fidelity_to_number_state(p) <= 1.0
    assert photon_number_probability(p, j) <= 1.0


def test_generation_probability_distribution():
    mu, d = 0.3, 4
    probs = residue_masses(mu, d).tolist()
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
    # a mu grid is 1-D, nonempty and nonnegative
    with pytest.raises(ValueError, match="mu must be a number or a 1-D array"):
        PSPParams(mu=[[0.1, 0.2]], d=4, j=1)
    with pytest.raises(ValueError, match="mu grid must hold at least one value"):
        PSPParams(mu=[], d=4, j=1)
    with pytest.raises(ValueError, match="mu must be >= 0"):
        PSPParams(mu=[0.1, -0.2], d=4, j=1)


def test_a_mu_grid_state_compares_by_value_and_reads_as_arrays():
    grid = np.array([0.1, 0.5, 2.0])
    p = PSPParams(mu=grid, d=4, j=1)
    same = PSPParams(mu=grid.tolist(), d=4, j=1)
    assert p == same and hash(p) == hash(same)
    # a 0-d array mu is its number: it used to be kept as an array, which does not hash
    one, number = PSPParams(mu=np.array(0.1), d=4, j=1), PSPParams(mu=0.1, d=4, j=1)
    assert one == number and hash(one) == hash(number) and p != number
    with pytest.raises(pns.DegenerateStateError, match="j=1 requires mu > 0"):
        PSPParams(mu=[0.1, 0.0], d=4, j=1)
    with pytest.raises(ValueError, match="loss channel takes a state of one mu"):
        loss_channel(p, 0.5)
    ideal = PSPParams(mu=grid, d=math.inf, j=1)
    assert fidelity_to_number_state(ideal).tolist() == [1.0] * 3
    assert photon_number_probability(ideal, 2).tolist() == [0.0] * 3
    assert fidelity_to_number_state(PSPParams(mu=0.1, d=math.inf, j=1)) == 1.0


@pytest.mark.parametrize("call", [
    lambda: normalization(0.5, True, 0),
    lambda: normalization(0.5, 4, True),
    lambda: g2_zero_closed(0.5, True),
    lambda: herald_probabilities(GenerationParams(0.5, 100.0, True)),
    lambda: keyrate_curve(PSP_NONDECOY, ChannelParams(), 0.1, [0.0], d=True),
    lambda: PSPParams(mu=0.5, d=True, j=0),
    lambda: PSPParams(mu=0.5, d=4, j=True),
    lambda: PSPParams(mu=0.5, d=math.inf, j=True),
], ids=["normalization", "normalization-j", "g2_zero_closed", "GenerationParams",
        "keyrate_for_protocol", "PSPParams-d", "PSPParams-j", "PSPParams-inf-j"])
def test_bool_is_no_integer_d_or_j(call):
    # these raised an untyped TypeError from np.zeros(True), or read True as 1
    with pytest.raises(ValueError, match="must be .*integer"):
        call()


@pytest.mark.parametrize("d", [np.array([4, 8]), np.array([math.inf, 4.0]), [4, 8]],
                         ids=["int-array", "inf-array", "list"])
def test_psp_params_rejects_a_sequence_of_d(d):
    # an array d failed on numpy's "truth value of an array is ambiguous"
    with pytest.raises(ValueError, match="d must be an integer >= 1"):
        PSPParams(mu=0.5, d=d, j=1)


@pytest.mark.parametrize("call, arrays", [
    (lambda mu: residue_masses(mu, 4), True),
    (lambda mu: normalization(mu, 4, 1), True),
    (lambda mu: g2_zero_closed(mu, 4), True),
    (lambda mu: basis_fidelity_bound(mu, 8, 1), True),
    (lambda mu: keyrate_curve(WCS_DECOY, ChannelParams(), mu, [0.0]), True),  # a mu grid
    (lambda mu: PSPParams(mu=mu, d=8, j=1), False),
    (lambda mu: keyrate_curve(PSP_PASSIVE_DECOY, ChannelParams(), mu, [0.0], d=8), False),
    (lambda mu: pseudo_state_yield(ChannelParams(), mu, [0.0], 4, 1, "dominant"), False),
    (lambda mu: GenerationParams(mu=mu, nu=100.0, d=4), False),
], ids=["residue_masses", "normalization", "g2_zero_closed", "basis_fidelity_bound",
        "optimize_mu", "PSPParams", "keyrate_for_protocol", "pseudo_state_yield",
        "GenerationParams"])
def test_bool_is_no_mu(call, arrays):
    # each read True as mu = 1 and returned a value for it
    for mu in [True, np.True_] + ([np.array([True, False]), [0.5, True]] if arrays else []):
        with pytest.raises(ValueError, match="mu must be a number, not a bool"):
            call(mu)


@pytest.mark.parametrize("name, call", [
    ("nu", lambda v: GenerationParams(mu=0.1, nu=v, d=1)),
    ("eta_det", lambda v: GenerationParams(mu=0.1, nu=100.0, d=4, eta_det=v)),
    ("eta_bob", lambda v: ChannelParams(eta_bob=v)),
    ("delta", lambda v: PSPParams(mu=0.1, d=8, delta=v)),
    ("eta", lambda v: loss_channel(PSPParams(mu=0.1, d=4), v)),
    ("distances", lambda v: transmission(ChannelParams(), [v])),
    ("distances", lambda v: keyrate_curve(WCS_DECOY, ChannelParams(), 0.5, [v])),
    ("e_bit", lambda v: phase_error_upper(v, 0.1)),
    ("p", lambda v: binary_entropy(v)),
], ids=["GenerationParams-nu", "GenerationParams-eta_det", "ChannelParams-eta_bob",
        "PSPParams-delta", "loss_channel", "transmission", "keyrate_curve", "phase_error_upper",
        "binary_entropy"])
def test_bool_is_no_real_parameter(name, call):
    # each read True as 1: the trigger fired with probability 1 at nu = 1,
    # loss_channel gave weights (1.0, 0.0), distances read 1 km, and
    # phase_error_upper(True, 0.1) gave 0.64
    for value in (True, np.True_):
        with pytest.raises(ValueError, match=name + " must be a number, not a bool"):
            call(value)


def test_loss_weights_are_a_distribution_matching_binomial_thinning():
    # the output mixture the weights describe is the number-basis binomial
    # thinning of the input state
    for mu, d, eta in ((0.2, 4, 0.9), (0.5, 8, 0.5), (1.0, 2, 0.7)):
        p = PSPParams(mu=mu, d=d, j=1)
        w = loss_channel(p, eta)
        assert w.shape == (d,) and ((0.0 <= w) & (w <= 1.0)).all()
        assert abs(w.sum() - 1.0) < 1e-13
        cutoff = oracle.loss_cutoff(p, eta)
        rho = oracle.thinned_density(oracle.density(p, cutoff), eta)
        assert np.max(np.abs(rho - oracle.mixture_density(p, eta, w, cutoff))) < 1e-12


@pytest.mark.parametrize("mu, j", [(1e-3, 7), (1e-3, 5), (0.05, 7), (0.2, 7)])
def test_loss_weights_stay_a_distribution_at_small_mu(mu, j):
    # the phase sums of a d^2-term coherent-dyad output gave trace 3.53e8,
    # -30.5, 1.00053 and 1 + 5.4e-8 here
    w = loss_channel(PSPParams(mu=mu, d=8, j=j), 0.5)
    assert ((0.0 <= w) & (w <= 1.0)).all()
    assert abs(w.sum() - 1.0) <= 1e-13


def test_loss_matches_photon_loss_expansion():
    # independent oracle: sum over the number of lost photons m, each term
    # a pseudo-number state at mu*eta in residue class (j - m) mod d
    mu, d, j, eta = 0.4, 4, 1, 0.8
    x = mu * (1.0 - eta)
    p = PSPParams(mu=mu, d=d, j=j)
    cutoff = oracle.loss_cutoff(p, eta)
    rho = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    grouped = np.zeros(d)
    n_in = normalization(mu, d, j)
    for m in range(40):
        w = math.exp(-x + m * math.log(x) - math.lgamma(m + 1)) if x > 0 else (m == 0)
        w *= normalization(mu * eta, d, (j - m) % d) / n_in
        grouped[(j - m) % d] += w
        vec = to_fock(*circle_expansion(PSPParams(mu=mu * eta, d=d, j=(j - m) % d)),
                      cutoff=cutoff)
        rho += w * np.outer(vec, np.conj(vec))
    weights = loss_channel(p, eta)
    assert np.max(np.abs(weights - grouped)) < 1e-15
    assert np.max(np.abs(rho - oracle.mixture_density(p, eta, weights, cutoff))) < 1e-12
    assert np.max(np.abs(rho - oracle.thinned_density(oracle.density(p, cutoff), eta))) < 1e-12


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
    assert abs(loss_channel(PSPParams(mu=mu, d=d, j=j), eta).sum() - 1.0) < 1e-13


def test_loss_weights_frozen_values_and_projections():
    w = loss_channel(PSPParams(mu=0.2, d=4, j=1), 0.9)
    assert abs(w[1] - 0.8999958792513797) < 1e-15 and abs(w[0] - 0.10000304076148993) < 1e-15
    # oracle: every j has weights, and each is the Fock-basis projection
    # <v_k|rho|v_k> of the thinned input onto the attenuated state |k_d>
    for mu, eta in ((0.2, 0.9), (1e-3, 0.5)):
        for j in (0, 1):
            p = PSPParams(mu=mu, d=4, j=j)
            cutoff = oracle.loss_cutoff(p, eta)
            rho = oracle.thinned_density(oracle.density(p, cutoff), eta)
            for k, weight in enumerate(loss_channel(p, eta)):
                vec = psp_fock(PSPParams(mu=mu * eta, d=4, j=k), cutoff)
                assert abs(weight - np.vdot(vec, rho @ vec).real) < 1e-12
    # a single photon survives with probability eta, even as mu -> 0
    w = loss_channel(PSPParams(mu=1e-3, d=4, j=1), 0.5)
    assert abs(w[1] - 0.5) < 1e-12 and abs(w[0] - 0.5) < 1e-12


def test_loss_two_term_fidelity_frozen_values():
    # fidelity of the exact lossy output to the two-term mixture at
    # mu = 0.2, eta = 0.9: 1 minus the mass of the dropped branches (two or
    # more photons lost mod d), which is zero at d = 2
    expect = {2: 1.0, 4: 0.99999893, 8: 1.0}
    mu, eta = 0.2, 0.9
    for d, val in expect.items():
        p = PSPParams(mu=mu, d=d, j=1)
        w = loss_channel(p, eta)
        closed = w[1] + w[0]
        assert abs(closed - val) < 5e-8
        # oracle: the matrix square roots of the thinned input against the
        # shortcut, which are rank deficient; ~1e-8 is the honest
        # reproducibility of these numbers
        cutoff = oracle.loss_cutoff(p, eta)
        rho = oracle.thinned_density(oracle.density(p, cutoff), eta)
        shortcut = np.where(np.arange(d) < 2, w, 0.0)  # keeps w[0] and w[1]
        sigma = oracle.mixture_density(p, eta, shortcut, cutoff)
        assert abs(oracle.uhlmann_fidelity(rho, sigma) - closed) < 5e-8


def test_loss_infidelity_linear_in_lost_intensity():
    # the two-term error is quadratic in the lost intensity x = mu(1-eta):
    # halving x should divide 1 - F by 4 to within ~10 percent (at d = 2 the
    # shortcut is exact, so the first d with dropped branches is used)
    p = PSPParams(mu=0.2, d=3, j=1)
    infid = []
    for eta in (0.98, 0.96):
        w = loss_channel(p, eta)
        infid.append(1.0 - (w[1] + w[0]))
    ratio = infid[1] / infid[0]
    assert abs(ratio - 4.0) < 0.4


def test_loss_fidelity_independent_of_delta():
    # the weights do not read delta; the number-basis route, which rotates
    # every state by it, gives the closed form sqrt(w[1]) at each delta
    w = loss_channel(PSPParams(mu=0.3, d=4, j=1), 0.85)
    assert np.array_equal(loss_channel(PSPParams(mu=0.3, d=4, j=1, delta=0.3), 0.85), w)
    for delta in (0.0, 0.3):
        p = PSPParams(mu=0.3, d=4, j=1, delta=delta)
        cutoff = oracle.loss_cutoff(p, 0.85)
        rho = oracle.thinned_density(oracle.density(p, cutoff), 0.85)
        sigma = oracle.density(PSPParams(mu=0.3 * 0.85, d=4, j=1, delta=delta), cutoff)
        assert abs(oracle.uhlmann_fidelity(rho, sigma) - math.sqrt(w[1])) < 5e-8
