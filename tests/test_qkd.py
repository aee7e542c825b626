"""Channel model, encoding and measurement, and the five key-rate estimators."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from oracle import encoded_fock, fock_beam_splitter, threshold_readout
import pspsim
from pspsim import qkd
from pspsim import (
    ChannelParams,
    DegenerateStateError,
    KeyRateCurve,
    NumericalDiagnosticError,
    TruncationError,
    PARAMETERS,
    PROTOCOLS,
    PSP_NONDECOY,
    PSP_PASSIVE_DECOY,
    PSP_TRIGGERED,
    WCS_DECOY,
    WCS_NONDECOY,
    basis_fidelity_bound,
    binary_entropy,
    channel_stats,
    keyrate_curve,
    measure_bb84,
    phase_error_upper,
    phase_set,
    pseudo_state_yield,
    residue_masses,
    transmission,
    trigger_probability,
)

GRID = np.arange(0.05, 2.0001, 0.05)
SMALL_GRID = np.arange(0.002, 0.06, 0.002)
# The triggered source's meter intensity and trigger-detector efficiency at d = 8.
TRIGGER = {"nu": 256.0, "eta_trigger_det": 0.12}


def test_transmission():
    eta = transmission(ChannelParams(), [0.0, 20.0])
    assert abs(eta[0] - 0.045) < 1e-15
    assert abs(eta[1] - 0.045 * 10 ** (-0.42)) < 1e-15


def n_photon_yield(c, L, n):
    """Y_n = 1 - (1 - Y0)(1 - eta)^n, the detection probability of n photons at L km."""
    return 1.0 - (1.0 - c.y0) * (1.0 - float(transmission(c, [L])[0])) ** n


def test_yield_n_closed_form():
    # the dominant model collapses |j_d> to j photons, whatever mu and d are
    c = ChannelParams()
    eta = 0.045 * 10 ** (-0.84)
    for n in range(5):
        expect = 1.0 - (1.0 - 1.7e-6) * (1.0 - eta) ** n
        for mu, d in ((0.45, 8), (2.0, 5)):
            assert abs(pseudo_state_yield(c, mu, [40.0], d, n, "dominant")[0] - expect) < 1e-16


def test_channel_stats_short_and_long_distance():
    st = channel_stats(ChannelParams(), 0.1, [0.0, 1000.0])
    assert abs(st.q_mu[0] - 4.491590170429549e-03) < 1e-15
    assert abs(st.e_mu[0] - 3.317675254639731e-02) < 1e-15
    assert st.q_mu[1] < 3e-6
    assert abs(st.e_mu[1] - 0.5) < 1e-3


def test_channel_functions_return_arrays_over_their_distances():
    # each used to return a number, or a ChannelStats of numbers, when given no distances
    c, distances = ChannelParams(), [0.0, 40.0, 80.0]
    assert transmission(c, distances).shape == (3,)
    st = channel_stats(c, 0.1, distances)
    assert st.eta.shape == st.q_mu.shape == st.e_mu.shape == (3,)
    assert keyrate_curve(WCS_DECOY, c, 0.5, distances).rate.shape == (3,)
    for model in ("exact", "dominant"):
        yields = pseudo_state_yield(c, 0.45, distances, 8, 1, model)
        assert yields.shape == (3,)
        for i, L in enumerate(distances):  # an entry does not depend on the other distances
            assert yields[i] == pseudo_state_yield(c, 0.45, [L], 8, 1, model)[0]


def test_the_distances_are_an_argument_not_a_channel_parameter():
    # keyrate_curve("wcs-decoy", ChannelParams(distance_km=50), 0.5, [0, 10]) returned
    # the rates at 0 and 10 km without a word, and a call without distances read 50
    with pytest.raises(TypeError):
        ChannelParams(distance_km=50.0)
    c = ChannelParams()
    for call in (lambda: transmission(c), lambda: channel_stats(c, 0.1),
                 lambda: pseudo_state_yield(c, 0.45, d=8, j=1),
                 lambda: keyrate_curve(WCS_DECOY, c, 0.5)):
        with pytest.raises(TypeError):
            call()


def test_channel_stats_rejects_bool_mu():
    # True used to give the gain and QBER at mu = 1, as a number and as a column
    c = ChannelParams()
    for mu in (True, np.True_, np.array([[True]]), np.array([True, False]), [[0.5], [True]]):
        with pytest.raises(ValueError, match="bool"):
            channel_stats(c, mu, [0.0])
    grid = channel_stats(c, np.array([0.5, 1.0]), np.array([0.0, 50.0]))
    assert grid.q_mu.shape == (2, 2)
    assert grid.q_mu[1, 0] == channel_stats(c, 1.0, [0.0]).q_mu[0]


def test_a_mu_grid_gives_a_table_of_the_one_point_calls():
    # channel_stats zipped the grid with the distances: [Q(0.1, 0 km), Q(0.2, 10 km)];
    # pseudo_state_yield's dominant model dropped the grid, and the exact one failed with
    # numpy's broadcast message
    c, grid, distances = ChannelParams(), [0.1, 0.2], [0.0, 10.0]
    assert channel_stats(c, grid, distances).eta.tobytes() == transmission(c, distances).tobytes()
    calls = {"q_mu": lambda mu: channel_stats(c, mu, distances).q_mu,
             "e_mu": lambda mu: channel_stats(c, mu, distances).e_mu,
             "exact": lambda mu: pseudo_state_yield(c, mu, distances, 4, 1, "exact"),
             "dominant": lambda mu: pseudo_state_yield(c, mu, distances, 4, 1, "dominant")}
    for name, call in calls.items():
        table = call(grid)
        assert table.shape == (2, 2), name
        for i, mu in enumerate(grid):
            assert table[i].tobytes() == call(mu).tobytes(), (name, mu)


@pytest.mark.parametrize("mu, message", [
    ([[0.1], [0.2]], "mu must be a number or a 1-D array"),
    (np.ones((2, 2, 1)), "mu must be a number or a 1-D array"),
    ([], "mu must be a number or a nonempty 1-D grid"),
], ids=["column", "3-d", "empty"])
def test_channel_functions_refuse_a_mu_that_is_no_number_or_grid(mu, message):
    # channel_stats gave a table for a column and a 3-D one for a 3-D mu; an empty grid
    # gave empty arrays, as it still did for basis_fidelity_bound
    c = ChannelParams()
    for call in (lambda: channel_stats(c, mu, [0.0, 10.0]),
                 lambda: pseudo_state_yield(c, mu, [0.0, 10.0], 4, 1, "exact"),
                 lambda: pseudo_state_yield(c, mu, [0.0, 10.0], 4, 1, "dominant"),
                 lambda: basis_fidelity_bound(mu, 8, 1)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_estimators_reject_non_finite_mu():
    c = ChannelParams()
    for mu in (math.nan, math.inf):
        with pytest.raises(ValueError):
            channel_stats(c, mu, [20.0])
        with pytest.raises(ValueError):
            keyrate_curve(WCS_DECOY, c, mu, [20.0])
        with pytest.raises(ValueError):
            keyrate_curve(PSP_TRIGGERED, c, mu, [20.0], d=8, **TRIGGER)


def test_pseudo_state_yield_matches_series_oracle():
    # average Y_n over p(n | residue class j) term by term
    for (L, mu, d, j) in ((40.0, 0.45, 8, 1), (20.0, 0.08, 4, 1),
                          (60.0, 1.0, 36, 1), (40.0, 0.45, 8, 0)):
        c = ChannelParams()
        mass = residue_masses(mu, d)[j]
        total = 0.0
        for n in range(j, 400, d):
            p = math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))
            total += p * n_photon_yield(c, L, n)
        oracle = total / mass
        lib = pseudo_state_yield(c, mu, [L], d, j)[0]
        assert abs(lib - oracle) < 1e-14


def test_pseudo_state_yield_frozen_point_and_dominant_model():
    c = ChannelParams()
    assert abs(pseudo_state_yield(c, 0.45, [40.0], 8, 1)[0] - 6.506168144914004e-03) < 1e-15
    assert pseudo_state_yield(c, 0.45, [40.0], 8, 1, model="dominant")[0] == n_photon_yield(
        c, 40.0, 1)
    with pytest.raises(ValueError):
        pseudo_state_yield(c, 0.45, [40.0], 8, 1, model="other")


@pytest.mark.parametrize("model", ["exact", "dominant"])
@pytest.mark.parametrize("d, j", [(8, -1), (8, 12), (8, 8), (8, 2.5), (8, True), (0, 0),
                                  (8.0, 1)])
def test_pseudo_state_yield_rejects_bad_d_and_j(model, d, j):
    # the dominant model used to ignore d and j: -0.00654 at j = -1, 0.0753 at j = 12
    with pytest.raises(ValueError, match="must be an integer"):
        pseudo_state_yield(ChannelParams(), 0.45, [40.0], d, j, model)


@pytest.mark.parametrize("mu, message", [(-1.0, "nonnegative"), (math.nan, "finite"),
                                         (math.inf, "finite")])
@pytest.mark.parametrize("model", ["exact", "dominant"])
def test_pseudo_state_yield_rejects_bad_mu(model, mu, message):
    # the dominant model used to ignore mu and return 0.0065062 for each
    with pytest.raises(ValueError, match="mu must be " + message):
        pseudo_state_yield(ChannelParams(), mu, [40.0], 8, 1, model)


def test_binary_entropy():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.25) - 0.8112781244591328) < 1e-14
    assert abs(binary_entropy(0.1) - binary_entropy(0.9)) < 1e-15


def test_entropy_and_phase_error_reject_nan():
    # both used to return nan
    with pytest.raises(ValueError):
        binary_entropy(math.nan)
    with pytest.raises(ValueError):
        phase_error_upper(0.1, math.nan)
    with pytest.raises(ValueError):
        phase_error_upper(math.nan, 0.1)
    # an e_bit that is no probability used to give NaN (+-inf) or a number (2.0 -> 0.92)
    for e_bit in (math.inf, -math.inf, 2.0, -0.1, 1.0 + 1e-12, np.array([0.1, 1.5])):
        with pytest.raises(ValueError, match="e_bit"):
            phase_error_upper(e_bit, 0.1)
    assert phase_error_upper(np.array([0.0, 1.0]), 0.1).tolist() == [
        phase_error_upper(0.0, 0.1), phase_error_upper(1.0, 0.1)]
    with pytest.raises(ValueError):
        binary_entropy(np.array([0.1, math.nan]))


def test_entropy_and_phase_error_are_elementwise():
    p = np.array([-0.5, 0.0, 1e-300, 0.11, 0.5, 0.9, 1.0, 2.0])
    assert binary_entropy(p).tolist() == [binary_entropy(float(v)) for v in p]
    assert type(binary_entropy(0.11)) is float
    e_bit = np.array([0.0, 0.04, 0.04, 0.2, 0.6])
    delta = np.array([0.3, -0.1, 1e-3, 0.7, 0.2])
    assert phase_error_upper(e_bit, delta).tolist() == [
        phase_error_upper(float(e), float(dl)) for e, dl in zip(e_bit, delta)]
    assert type(phase_error_upper(0.04, 1e-3)) is float


def test_phase_error_upper():
    assert phase_error_upper(0.04, 0.0) == 0.04
    vals = [phase_error_upper(0.04, dlt) for dlt in (0.0, 1e-4, 1e-3, 1e-2)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_phase_set_values_and_validation():
    assert phase_set(8) == [0, 2, 4, 6]
    assert phase_set(8, "paper-literal") == [0, 2, 4, 3]
    with pytest.raises(ValueError):
        phase_set(6)
    with pytest.raises(ValueError):
        phase_set(4, "paper-literal")
    with pytest.raises(ValueError):
        phase_set(8, "other")


ENCODINGS = {
    "phase_set": phase_set,
    # the two-pulse encoded state, given by (mu, d, j, k) and read by measure_bb84
    "encoded_state": lambda d: measure_bb84(0.45, d, 1, 0, "X"),
    "basis_fidelity_bound": lambda d: basis_fidelity_bound(0.3, d, 1),
}


@pytest.mark.parametrize("d, message", [(0, "integer >= 1"), (-8, "integer >= 1"),
                                        (8.0, "integer >= 1"), (True, "integer >= 1"),
                                        (6, "divisible by 4")])
@pytest.mark.parametrize("name", sorted(ENCODINGS))
def test_encodings_need_a_positive_integer_d_divisible_by_4(name, d, message):
    # phase_set(0) returned [0, 0, 0, 0], phase_set(-8) [0, -2, -4, -6] and
    # phase_set(8.0) float indices; True was read as 1
    with pytest.raises(ValueError, match=message):
        ENCODINGS[name](d)


def test_encoded_fock_norm_and_readout_sum():
    # the encoded state, written in the number basis, has norm 1, and its readout's four
    # exclusive events, each in [0, 1], sum to 1
    for k in range(8):
        amps = encoded_fock(0.45, 8, 1, k)
        assert abs(np.vdot(amps, amps).real - 1.0) < 1e-12
        for basis in "XY":
            probs = measure_bb84(0.45, 8, 1, k, basis)
            assert all(0.0 <= p <= 1.0 for p in probs)
            assert abs(sum(probs) - 1.0) <= 1e-15


def test_measure_bb84_rejects_bool_mu():
    # True used to build the 8-term state at mu = 1: 2.0 * True is a float
    for mu in (True, np.True_):
        with pytest.raises(ValueError, match="bool"):
            measure_bb84(mu, 8, 1, 0, "X")
    assert measure_bb84(1.0, 8, 1, 0, "X")[1:] == (0.0, 0.0, 0.0)


def test_measure_bb84_rejects_bool_phase_index():
    # True used to build the k = 1 state; k is an index in [0, d), as j is
    for k in (True, np.True_, 1.5, 2.0, -1, 8, [1, 2]):
        with pytest.raises(ValueError, match="phase index"):
            measure_bb84(0.45, 8, 1, k, "X")
    assert measure_bb84(0.45, 8, 1, np.int64(2), "Y") == measure_bb84(0.45, 8, 1, 2, "Y")


def test_measure_bb84_deterministic_ports():
    mu, d = 0.45, 8
    k0, ky0, k1, ky1 = phase_set(d)
    # matched basis: one port stays exactly dark, no double clicks
    for k, basis, dark in ((k0, "X", 1), (k1, "X", 0), (ky0, "Y", 0), (ky1, "Y", 1)):
        p0, p1, p_double, p_none = measure_bb84(mu, d, 1, k, basis)
        assert abs(p0 + p1 + p_double + p_none - 1.0) < 1e-12
        assert (p1 if dark == 1 else p0) < 1e-12
        assert p_double < 1e-12
    # conjugate basis: both ports equally likely
    p0, p1, _, _ = measure_bb84(mu, d, 1, k0, "Y")
    assert abs(p0 - p1) < 1e-12


@pytest.mark.parametrize("mu, d, j, k, basis", [
    (0.001, 4, 2, 0, "X"), (0.001, 4, 2, 1, "Y"), (0.5, 16, 15, 8, "X"), (0.5, 16, 15, 12, "Y")])
def test_measure_bb84_dark_ports_read_exactly_zero(mu, d, j, k, basis):
    # the Gram route raised on these: p_click_port0 = 1 + 1e-12 at (0.001, 4, 2), an
    # imaginary residue of 3.8e-7 at (0.5, 16, 15)
    p0, p1, p_double, p_none = measure_bb84(mu, d, j, k, basis)
    assert (p0 == 0.0) != (p1 == 0.0)
    assert p_double == p_none == 0.0
    assert p0 + p1 == 1.0


def test_measure_bb84_small_click_probability():
    # the Gram route returned 8.8263e-14, off by 1.5e-3 from the 50-digit value
    assert measure_bb84(0.3, 8, 0, 1, "Y")[0] == pytest.approx(8.8130019871458623e-14, rel=1e-13)


def test_measure_bb84_at_mu_zero_and_beyond_the_series():
    assert measure_bb84(0.0, 8, 0, 2, "Y") == (0.0, 0.0, 0.0, 1.0)
    with pytest.raises(DegenerateStateError, match="j=1"):
        measure_bb84(0.0, 8, 1, 2, "Y")
    with pytest.raises(TruncationError):
        measure_bb84(1e300, 8, 1, 2, "Y")
    for basis in ("Z", "x"):
        with pytest.raises(ValueError, match="basis"):
            measure_bb84(0.45, 8, 1, 0, basis)


def test_basis_fidelity_bound_rejects_excess_beyond_rounding(monkeypatch):
    # a raw bound in (1 + 1e-12, 1 + 1e-9] used to read 1.0
    assert basis_fidelity_bound(0.01, 8, 0) == 1.0
    normalization = qkd.normalization
    monkeypatch.setattr(qkd, "normalization",
                        lambda mu, d, j: (1.0 - 1e-10) * normalization(mu, d, j))
    with pytest.raises(NumericalDiagnosticError, match="fidelity bound"):
        basis_fidelity_bound(0.01, 8, 0)


def test_basis_fidelity_bound_frozen_values():
    expect = {
        (0.1, 0): 0.9999166722, (0.1, 1): 0.9999833335,
        (0.3, 0): 0.9932858686, (0.3, 1): 0.9986514131,
        (0.6, 0): 0.9005068262, (0.6, 1): 0.9787562340,
    }
    for (mu, j), val in expect.items():
        assert abs(basis_fidelity_bound(mu, 4, j) - val) < 1e-9


def test_basis_fidelity_bound_limits():
    # approaches 1 with vanishing intensity and improves with d
    for j in (0, 1):
        assert basis_fidelity_bound(1e-4, 8, j) > 0.999
        assert basis_fidelity_bound(0.3, 8, j) >= basis_fidelity_bound(0.3, 4, j)
    with pytest.raises(ValueError):
        basis_fidelity_bound(0.3, 6, 1)
    with pytest.raises(ValueError):
        basis_fidelity_bound(-0.1, 4, 1)


@pytest.mark.parametrize("mu", [math.inf, math.nan])
def test_basis_fidelity_bound_rejects_non_finite_mu_without_warning(mu):
    # the phase sum used to run first and print up to four RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="mu must be finite"):
            basis_fidelity_bound(mu, 8, 1)


@pytest.mark.parametrize("mu, first", [(800.0, "800"), (np.array([0.3, 800.0]), "800"),
                                       (np.array([0.3, 900.0, 800.0]), "900")],
                         ids=["800.0", "mu1", "mu2"])  # the ids the one-argument form had
def test_basis_fidelity_bound_overflow_is_a_numerical_failure_without_warning(mu, first):
    # past mu ~ 710 the phase sum overflows; it used to warn twice and then
    # fail on "fidelity bound = nan".  A grid names its first overflowing mu.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalDiagnosticError, match="overflows at mu=%s$" % first):
            basis_fidelity_bound(mu, 8, 1)


def test_nondecoy_optimized_frozen_point_and_cutoff():
    c = ChannelParams()
    res = keyrate_curve(WCS_NONDECOY, c, SMALL_GRID, [20.0]).result(0)
    assert abs(res.mu - 0.01) < 1e-12
    assert abs(res.rate - 4.008867022051779e-05) < 1e-12
    dead = keyrate_curve(WCS_NONDECOY, c, SMALL_GRID, [42.0]).result(0)
    assert dead.rate == 0.0


def test_wcs_decoy_frozen_point():
    res = keyrate_curve(WCS_DECOY, ChannelParams(), 0.5, [20.0]).result(0)
    assert abs(res.rate - 2.0299986611564962e-03) < 1e-14
    assert res.gain > 0 and 0 < res.qber < 0.5


def test_psp_passive_frozen_points():
    expect = (
        (40.0, 0.45, 8, 1.0170216805863246e-03),
        (20.0, 0.08, 4, 6.7628804134122172e-04),
        (40.0, 1.0, 36, 1.3087567975131505e-03),
    )
    for L, mu, d, rate in expect:
        res = keyrate_curve(PSP_PASSIVE_DECOY, ChannelParams(), mu, [L], d=d).result(0)
        assert abs(res.rate - rate) < 1e-14


def test_psp_passive_basis_mu_options_agree_at_large_d():
    c = ChannelParams()
    half = keyrate_curve(PSP_PASSIVE_DECOY, c, 1.0, [40.0], d=36, basis_mu="half").result(0)
    full = keyrate_curve(PSP_PASSIVE_DECOY, c, 1.0, [40.0], d=36, basis_mu="full").result(0)
    assert abs(half.rate - full.rate) < 1e-9 * half.rate


def test_psp_triggered_frozen_point_and_upper_bound():
    c = ChannelParams()
    trig = keyrate_curve(PSP_TRIGGERED, c, 0.45, [40.0], d=8, **TRIGGER).result(0)
    assert abs(trig.rate - 1.0108523319818162e-03) < 1e-14
    for L in (0.0, 20.0, 40.0, 60.0):
        passive = keyrate_curve(PSP_PASSIVE_DECOY, c, 0.45, [L], d=8).result(0)
        for convention in ("paper", "recomputed"):
            t = keyrate_curve(PSP_TRIGGERED, c, 0.45, [L], d=8, **TRIGGER,
                              convention=convention).result(0)
            assert t.rate <= passive.rate + 1e-15


def triggered_by_loop(c, L, mu, d, nu, eta_det, convention, yield_model):
    """(q_t_mu, q_nt_mu, rate) of the triggered estimator at L km, one residue at a time."""
    probs = residue_masses(mu, d).tolist()
    yields = [float(pseudo_state_yield(c, mu, [L], d, j, yield_model)[0]) for j in range(d)]
    eta_t = [trigger_probability(nu, d, j, eta_det, convention) for j in range(d)]
    q_t = [p * t * y for p, t, y in zip(probs, eta_t, yields)]
    q_nt = [p * (1.0 - t) * y for p, t, y in zip(probs, eta_t, yields)]
    q_t_mu, q_nt_mu = float(np.sum(q_t)), float(np.sum(q_nt))
    errors = [(c.e0 - c.e_det) * (c.y0 / y) + c.e_det for y in yields]
    e_t_mu = float(np.sum(np.multiply(q_t, errors)) / q_t_mu)
    r = q_t_mu / q_nt_mu
    bound = (r - eta_t[0] / (1.0 - eta_t[0])) * q_nt_mu
    if bound <= 0.0 or r * e_t_mu * q_nt_mu / bound >= 0.5:
        return q_t_mu, q_nt_mu, 0.0
    delta1 = (1.0 - basis_fidelity_bound(mu / 2.0, d, 1)) / (2.0 * yields[1])
    if delta1 > 0.5:
        return q_t_mu, q_nt_mu, 0.0
    e_p1_max = phase_error_upper(r * e_t_mu * q_nt_mu / bound, delta1)
    if e_p1_max >= 0.5:
        return q_t_mu, q_nt_mu, 0.0
    rate = max(0.0, -c.f * q_t_mu * binary_entropy(e_t_mu)
               + bound * (1.0 - binary_entropy(e_p1_max)))
    return q_t_mu, q_nt_mu, rate


def test_psp_triggered_vectorized_matches_per_residue_loop():
    positive = 0
    for yield_model, convention, L, mu, d in itertools.product(
            ("exact", "dominant"), ("paper", "recomputed"), (0.0, 40.0, 100.0),
            (0.05, 0.45, 2.0), (4, 8, 36)):
        c = ChannelParams()
        res = keyrate_curve(PSP_TRIGGERED, c, mu, [L], d=d, nu=4.0 * d * d, eta_trigger_det=0.12,
                            convention=convention, yield_model=yield_model).result(0)
        q_t, q_nt, rate = triggered_by_loop(c, L, mu, d, 4.0 * d * d, 0.12, convention,
                                            yield_model)
        assert abs(res.diagnostics["q_t_mu"] - q_t) <= 1e-15 * q_t
        assert abs(res.diagnostics["q_nt_mu"] - q_nt) <= 1e-15 * q_nt
        assert abs(res.rate - rate) <= 1e-15 * rate
        positive += rate > 0.0
    assert positive > 20


CURVE_CASES = [
    (WCS_NONDECOY, 0.01, None, {}),
    (WCS_DECOY, 0.5, None, {}),
    (PSP_NONDECOY, 0.03, 8, {}),
] + [
    (PSP_PASSIVE_DECOY, mu, d, {"yield_model": model})
    for mu, d in ((0.08, 4), (0.45, 8), (1.0, 36)) for model in ("exact", "dominant")
] + [
    (PSP_TRIGGERED, mu, d, {"nu": 4.0 * d * d, "eta_trigger_det": 0.12,
                            "convention": convention, "yield_model": model})
    for mu, d in ((0.08, 4), (0.45, 8), (1.0, 36))
    for convention in ("paper", "recomputed") for model in ("exact", "dominant")
] + [
    # strong basis dependence: the fidelity-bound branch ends these curves
    (PSP_PASSIVE_DECOY, 2.0, 4, {}),
    (PSP_TRIGGERED, 2.0, 4, {"nu": 64.0, "eta_trigger_det": 0.12}),
]


@pytest.mark.parametrize("protocol, mu, d, kwargs", CURVE_CASES)
def test_curve_matches_per_distance_calls(protocol, mu, d, kwargs):
    # 0 to 600 km runs from positive rates into the vacuous bounds
    distances = np.arange(0.0, 601.0, 12.0)
    curve = keyrate_curve(protocol, ChannelParams(), mu, distances, d, **kwargs)
    assert isinstance(curve, KeyRateCurve)
    assert curve.rate.shape == distances.shape
    for i, L in enumerate(distances):
        expect = keyrate_curve(protocol, ChannelParams(), mu, [L], d=d, **kwargs).result(0)
        got = curve.result(i)
        assert got.mu == expect.mu == mu
        for name in ("gain", "qber", "rate"):
            assert abs(getattr(got, name) - getattr(expect, name)) \
                <= 1e-15 * abs(getattr(expect, name)), (L, name)
        assert got.diagnostics.keys() == expect.diagnostics.keys(), L
        for name, value in expect.diagnostics.items():
            if isinstance(value, str):
                assert got.diagnostics[name] == value
            else:
                assert abs(got.diagnostics[name] - value) <= 1e-15 * abs(value), (L, name)
    assert (curve.rate == 0).any()


def passive_by_parts(c, L, mu, d):
    """(y1, rate) of the passive-decoy estimator at L km from the per-state public functions."""
    y1 = float(pseudo_state_yield(c, mu, [L], d, 1)[0])
    e_b1 = (c.e0 - c.e_det) * (c.y0 / y1) + c.e_det
    delta1 = (1.0 - basis_fidelity_bound(mu / 2.0, d, 1)) / (2.0 * y1)
    e_p1 = phase_error_upper(e_b1, delta1)
    rate = residue_masses(mu, d)[1] * y1 * (
        1.0 - c.f * binary_entropy(e_b1) - binary_entropy(e_p1))
    return y1, rate


def test_scalar_estimators_are_the_curve_at_their_distance():
    # a one-distance curve is the row of a longer curve at that distance: a curve
    # row does not depend on the other distances of the curve
    c = ChannelParams()
    curve = keyrate_curve(PSP_PASSIVE_DECOY, c, 0.45, [0.0, 40.0, 80.0], 8)
    trig = keyrate_curve(PSP_TRIGGERED, c, 0.45, [0.0, 40.0, 80.0], 8, **TRIGGER)
    for i, L in enumerate((0.0, 40.0, 80.0)):
        y1, rate = passive_by_parts(c, L, 0.45, 8)
        res = keyrate_curve(PSP_PASSIVE_DECOY, c, 0.45, [L], d=8).result(0)
        assert res == curve.result(i)
        assert abs(res.diagnostics["y1"] - y1) <= 1e-15 * y1
        assert abs(res.rate - rate) <= 1e-15 * rate
        _, _, rate = triggered_by_loop(c, L, 0.45, 8, 256.0, 0.12, "paper", "exact")
        res = keyrate_curve(PSP_TRIGGERED, c, 0.45, [L], d=8, **TRIGGER).result(0)
        assert res == trig.result(i)
        assert abs(res.rate - rate) <= 1e-15 * rate


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_estimators_without_dark_counts_at_extreme_distance():
    # with y0 = 0 the gain and the yields underflow to 0 far out; the scalar
    # estimators used to raise ZeroDivisionError there
    dark = ChannelParams(y0=0.0)
    assert keyrate_curve(WCS_NONDECOY, dark, 0.03, [1000.0]).result(0).rate == 0.0
    assert keyrate_curve(WCS_DECOY, dark, 0.5, [20000.0]).result(0).rate == 0.0
    assert keyrate_curve(PSP_PASSIVE_DECOY, dark, 0.45, [20000.0], d=8).result(0).rate == 0.0
    assert keyrate_curve(PSP_TRIGGERED, dark, 0.45, [20000.0], d=8,
                         **TRIGGER).result(0).rate == 0.0
    curve = keyrate_curve(PSP_TRIGGERED, dark, 0.45, [0.0, 20000.0], 8, **TRIGGER)
    assert curve.rate[0] > 0.0 == curve.rate[1]


def test_keyrate_curve_rejects_bad_distances():
    c = ChannelParams()
    for distances in ([-1.0, 2.0], [0.0, math.nan], [math.inf], [0.0, -math.inf], [[1.0]]):
        with pytest.raises(ValueError, match="distances"):
            keyrate_curve(WCS_DECOY, c, 0.5, distances)
    # an empty grid: the triggered source divided by zero, the passive one
    # failed a reshape, and the others returned empty curves
    for protocol in (WCS_NONDECOY, WCS_DECOY, PSP_NONDECOY, PSP_PASSIVE_DECOY, PSP_TRIGGERED):
        kwargs = TRIGGER if protocol == PSP_TRIGGERED else {}
        with pytest.raises(ValueError, match="distances"):
            keyrate_curve(protocol, c, 0.45, np.array([]), 8, **kwargs)
        with pytest.raises(ValueError, match="distances"):
            keyrate_curve(protocol, c, GRID, np.array([]), 8, **kwargs)


def test_degenerate_residues_raise_only_for_the_exact_yield_model(isolated):
    c = ChannelParams()
    with pytest.raises(DegenerateStateError):
        pseudo_state_yield(c, 0.0, [40.0], 4, 1)
    # At mu = 1e-200 every residue above j = 1 underflows to zero mass; the
    # fresh interpreter turns a series that fails to terminate into a failure.
    code, out = isolated(
        "from pspsim import *\n"
        "c = ChannelParams()\n"
        "for model in ('exact', 'dominant'):\n"
        "    for call in (lambda: float(pseudo_state_yield(c, 1e-200, [40.0], 4, 2, model)[0]),\n"
        "                 lambda: keyrate_curve(PSP_TRIGGERED, c, 1e-200, [40.0], d=4, nu=64.0,\n"
        "                                       eta_trigger_det=0.12,\n"
        "                                       yield_model=model).result(0).rate):\n"
        "        try:\n"
        "            print(repr(call()))\n"
        "        except DegenerateStateError:\n"
        "            print('DegenerateStateError')\n"
        "print(repr(1.0 - (1.0 - c.y0) * (1.0 - float(transmission(c, [40.0])[0])) ** 2))\n")
    lines = out.splitlines()
    assert code == 0
    assert lines[:2] == ["DegenerateStateError"] * 2
    assert lines[2] == lines[4]  # the dominant model is the lowest-photon yield
    assert lines[3] == "0.0"


def test_psp_triggered_gain_bound_consistency():
    res = keyrate_curve(PSP_TRIGGERED, ChannelParams(), 0.45, [40.0], d=8, **TRIGGER).result(0)
    diag = res.diagnostics
    assert diag["q_t_j1_bound"] <= diag["q_t_j1_exact"] + 1e-18


def test_keyrate_curve_mu_search_behavior():
    c = ChannelParams()
    res = keyrate_curve(WCS_DECOY, c, GRID, [20.0]).result(0)
    assert abs(res.mu - 0.5) < 1e-12
    assert res.rate == keyrate_curve(WCS_DECOY, c, 0.5, [20.0]).result(0).rate
    best = keyrate_curve(PSP_PASSIVE_DECOY, c, [0.8, 0.9, 1.0, 1.1], [40.0], d=36)
    assert best.mu.tolist() == [1.0]
    with pytest.raises(ValueError):
        keyrate_curve("unknown", c, GRID, [20.0])
    with pytest.raises(ValueError):
        keyrate_curve(WCS_DECOY, c, [], [20.0])


@pytest.mark.parametrize("mu, message", [
    ([], "nonempty"), (np.array([]), "nonempty"), ([[0.5]], "1-D"), (np.ones((2, 2)), "1-D"),
    (0.0, "positive"), (-0.5, "positive"), ([0.5, 0.0], "positive"), ([-1.0, 2.0], "positive"),
], ids=["empty-list", "empty-array", "2-d-list", "2-d-array", "zero", "negative",
        "zero-in-grid", "negative-in-grid"])
def test_keyrate_curve_refuses_a_mu_that_is_no_positive_number_or_grid(mu, message):
    for protocol, d in ((WCS_DECOY, None), (PSP_PASSIVE_DECOY, 8)):
        with pytest.raises(ValueError, match=message):
            keyrate_curve(protocol, ChannelParams(), mu, [0.0], d=d)


@pytest.mark.parametrize("protocol, mu, d, kwargs", CURVE_CASES)
def test_keyrate_curve_of_a_number_is_that_of_its_one_point_grid(protocol, mu, d, kwargs):
    distances = np.arange(0.0, 601.0, 60.0)
    for one, grid in ((mu, [mu]), (mu, np.array([mu])), (np.float64(mu), (mu,))):
        a = keyrate_curve(protocol, ChannelParams(), one, distances, d, **kwargs)
        b = keyrate_curve(protocol, ChannelParams(), grid, distances, d, **kwargs)
        for name in ("distance_km", "mu", "gain", "qber", "rate"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert a.diagnostics.keys() == b.diagnostics.keys()
        for name, values in a.diagnostics.items():
            if values.dtype == object:  # the vacuous reasons and the factorization note
                assert values.tolist() == b.diagnostics[name].tolist(), name
            else:  # the same NaN pattern and the same bits elsewhere
                assert values.tobytes() == b.diagnostics[name].tobytes(), name
        assert a.result(0) == b.result(0)


def test_keyrate_curve_is_the_one_key_rate_entry_point():
    for module in (pspsim, qkd):
        for name in ("optimize_mu", "keyrate_for_protocol", "_rate_surface"):
            assert not hasattr(module, name), (module.__name__, name)
    assert pspsim.keyrate_curve is qkd.keyrate_curve


@pytest.mark.parametrize("call, name, protocol", [
    (lambda c: keyrate_curve(WCS_DECOY, c, 0.5, [0.0], d=8), "d", WCS_DECOY),
    (lambda c: keyrate_curve(WCS_DECOY, c, 0.5, [0.0], nu=3.0, bogus=1), "nu", WCS_DECOY),
    (lambda c: keyrate_curve(PSP_NONDECOY, c, 0.03, [0.0], d=8, yield_model="dominant"),
     "yield_model", PSP_NONDECOY),
    (lambda c: keyrate_curve(PSP_PASSIVE_DECOY, c, 0.45, [0.0], d=8, bogus=1), "bogus",
     PSP_PASSIVE_DECOY),
], ids=["wcs-decoy-d", "wcs-decoy-nu", "psp-nondecoy-yield-model", "psp-passive-bogus"])
def test_keyrate_curve_refuses_what_its_protocol_does_not_read(call, name, protocol):
    # the first three returned the plain rate, and the last raised a TypeError
    with pytest.raises(ValueError, match="^%s does not apply to protocol %s$" % (name, protocol)):
        call(ChannelParams())


# One value for each name that some protocol reads besides c, distances and mu.
PARAMETER_VALUES = {"d": 8, "basis_mu": "full", "yield_model": "dominant", "nu": 256.0,
                    "eta_trigger_det": 0.12, "convention": "recomputed"}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_keyrate_curve_takes_exactly_its_protocols_parameters(protocol):
    assert PROTOCOLS == tuple(PARAMETERS)
    assert set(PARAMETER_VALUES) == set().union(*PARAMETERS.values())
    own = {name: PARAMETER_VALUES[name] for name in PARAMETERS[protocol]}
    mu = 0.02 if protocol in (WCS_NONDECOY, PSP_NONDECOY) else 0.45
    assert keyrate_curve(protocol, ChannelParams(), mu, [0.0], **own).rate[0] > 0.0
    others = [name for name in PARAMETER_VALUES if name not in own]
    assert others or protocol == PSP_TRIGGERED  # the triggered source reads every name
    for name in others:
        with pytest.raises(ValueError, match="^%s does not apply to protocol %s$"
                           % (name, protocol)):
            keyrate_curve(protocol, ChannelParams(), mu, [0.0], **dict(own, **{name: 1}))


@pytest.mark.parametrize("given, missing", [({}, "eta_trigger_det and nu"),
                                            ({"nu": 256.0}, "eta_trigger_det"),
                                            ({"eta_trigger_det": 0.12}, "nu")])
def test_triggered_curve_without_its_trigger_is_a_value_error(given, missing):
    # each raised an untyped TypeError from the estimator's signature
    with pytest.raises(ValueError, match="^protocol psp-triggered needs %s$" % missing):
        keyrate_curve(PSP_TRIGGERED, ChannelParams(), 0.45, [0.0], d=8, **given)


def test_keyrate_curve_mu_search_over_distances_matches_per_distance_search():
    distances = np.arange(0.0, 301.0, 20.0)
    kwargs = {"nu": 256.0, "eta_trigger_det": 0.12}
    curve = keyrate_curve(PSP_TRIGGERED, ChannelParams(), GRID, distances, 8, **kwargs)
    for i, L in enumerate(distances):
        res = keyrate_curve(PSP_TRIGGERED, ChannelParams(), GRID, [L], d=8, **kwargs).result(0)
        assert res.mu == curve.mu[i]
        assert abs(res.rate - curve.rate[i]) <= 1e-15 * res.rate
        assert res.diagnostics.keys() == curve.result(i).diagnostics.keys()
    # beyond the last positive rate every mu ties at zero: the smallest wins
    assert curve.rate[-1] == 0.0 and curve.mu[-1] == GRID[0]


def test_keyrate_curve_mu_search_first_index_tie_break(monkeypatch):
    # rates rise with mu up to 0.3 and are flat beyond it, so 0.3, 0.4 and the
    # repeated 0.5 tie; the first (smallest) of them must win at each distance,
    # and a later mu only on a strictly larger rate
    def fake_surface(c, distances, mus):
        mu = np.broadcast_to(mus, (len(mus), distances.size))
        rate = np.minimum(mu, 0.3)
        rate[:, 0] = mu[:, 0]  # at the first distance the rate keeps rising
        return KeyRateCurve(distances, mu, rate, rate, rate,
                            {"vacuous": np.full(mu.shape, None, dtype=object)})

    monkeypatch.setattr(qkd, "_wcs_decoy_curve", fake_surface)
    grid = [0.5, 0.1, 0.4, 0.3, 0.5, 0.2]
    curve = keyrate_curve(WCS_DECOY, ChannelParams(), grid, [0.0, 10.0, 20.0])
    assert curve.mu.tolist() == [0.5, 0.3, 0.3]
    assert curve.rate.tolist() == [0.5, 0.3, 0.3]
    res = keyrate_curve(WCS_DECOY, ChannelParams(), grid, [10.0]).result(0)
    assert (res.mu, res.rate) == (0.5, 0.5)  # a search at one distance sees that distance first


def folded_optimum(protocol, c, d, grid, distances, **kwargs):
    """The mu search as a fold of one single-mu keyrate_curve per grid point, sorted by mu.

    At each distance a later mu replaces the best so far only on a strictly
    larger rate, so the first maximum wins; a diagnostic that one curve's
    branches never reached reads NaN.
    """
    best = None
    for mu in sorted(float(m) for m in grid):
        curve = keyrate_curve(protocol, c, mu, distances, d, **kwargs)
        if best is None:
            best = curve
            continue
        larger = curve.rate > best.rate
        unreached = np.full(larger.size, np.nan)
        names = dict.fromkeys([*best.diagnostics, *curve.diagnostics])
        best = KeyRateCurve(
            best.distance_km, *(np.where(larger, getattr(curve, f), getattr(best, f))
                                for f in ("mu", "gain", "qber", "rate")),
            {name: np.where(larger, curve.diagnostics.get(name, unreached),
                            best.diagnostics.get(name, unreached)) for name in names})
    return best


TWO_PATH_CASES = [
    (WCS_NONDECOY, None, {}),
    (WCS_DECOY, None, {}),
] + [(PSP_NONDECOY, d, {}) for d in (4, 8, 36)] + [
    (PSP_PASSIVE_DECOY, d, {"basis_mu": basis_mu, "yield_model": model})
    for d in (4, 8, 36) for basis_mu, model in (("half", "exact"), ("full", "dominant"))
] + [
    (PSP_TRIGGERED, d, {"nu": 4.0 * d * d, "eta_trigger_det": 0.12, "convention": convention,
                        "basis_mu": basis_mu, "yield_model": model})
    for d in (4, 8, 36) for convention, basis_mu, model in (
        ("paper", "half", "exact"), ("recomputed", "full", "dominant"))
]
# one distance, a curve from positive rates into the vacuous bounds, distances
# where the triggered bounds end some mu before the fidelity bound, and ones
# where every mu of the grid has rate 0, so the smallest must win
TWO_PATH_DISTANCES = ([0.0], np.arange(0.0, 101.0), [260.0, 280.0], [400.0, 500.0, 1000.0])


@pytest.mark.parametrize("protocol, d, kwargs", TWO_PATH_CASES)
def test_keyrate_curve_surface_equals_the_per_mu_fold(protocol, d, kwargs, monkeypatch):
    grid = SMALL_GRID if protocol in (WCS_NONDECOY, PSP_NONDECOY) else GRID
    bounds = []  # the mu of every fidelity-bound evaluation

    def recorded(mu, d, j):
        bounds.extend(np.ravel(mu).tolist())  # a curve asks for a whole mu column at once
        return basis_fidelity_bound(mu, d, j)

    monkeypatch.setattr(qkd, "basis_fidelity_bound", recorded)
    positive = 0
    for distances in TWO_PATH_DISTANCES:
        got = keyrate_curve(protocol, ChannelParams(), grid, distances, d, **kwargs)
        surface_bounds = sorted(bounds)
        bounds.clear()
        expect = folded_optimum(protocol, ChannelParams(), d, grid, distances, **kwargs)
        assert surface_bounds == sorted(bounds)  # evaluated at the same mu, so failing there too
        bounds.clear()
        for name in ("mu", "gain", "qber", "rate"):  # bit for bit
            assert getattr(got, name).tobytes() == getattr(expect, name).tobytes(), name
        assert got.diagnostics.keys() == expect.diagnostics.keys()
        for name, values in expect.diagnostics.items():
            if values.dtype == object:  # the vacuous reasons and the factorization note
                assert got.diagnostics[name].tolist() == values.tolist(), name
            else:  # the same NaN pattern and the same bits elsewhere
                assert got.diagnostics[name].tobytes() == values.tobytes(), name
        positive += int((got.rate > 0).sum())
    assert positive > 0
    assert (got.rate == 0).all() and (got.mu == min(grid)).all()  # the far distances


@pytest.mark.parametrize("distances, reached", [([400.0, 1000.0], False), ([0.0, 400.0], True),
                                                (np.arange(0.0, 101.0), True)])
def test_keyrate_curve_asks_for_the_fidelity_bound_where_the_fold_does(distances, reached):
    # the bound needs d divisible by 4; the triggered estimator asks for it
    # only at the mu that some distance reaches it at
    kwargs = {"nu": 144.0, "eta_trigger_det": 0.12}
    for search in (lambda: keyrate_curve(PSP_TRIGGERED, ChannelParams(), GRID, distances, 6,
                                         **kwargs),
                   lambda: folded_optimum(PSP_TRIGGERED, ChannelParams(), 6, GRID, distances,
                                          **kwargs)):
        if reached:
            with pytest.raises(ValueError, match="divisible by 4"):
                search()
        else:
            curve = search()
            assert (curve.rate == 0).all() and "f1" not in curve.diagnostics



def test_a_bad_basis_mu_is_refused_on_every_path():
    # at 400 and 1000 km no triggered branch reaches the fidelity bound, and
    # the triggered estimator returned rate 0 for basis_mu="bogus"
    for distances in ([0.0], [400.0, 1000.0]):
        for protocol, kwargs in ((PSP_PASSIVE_DECOY, {}),
                                 (PSP_TRIGGERED, {"nu": 256.0, "eta_trigger_det": 0.12})):
            with pytest.raises(ValueError, match="^basis_mu must be 'half' or 'full'$"):
                keyrate_curve(protocol, ChannelParams(), 0.45, distances, 8, basis_mu="bogus",
                              **kwargs)


# Each pseudo-number estimator's diagnostics in the order its branch keeps them,
# each group followed by the vacuity test that may end the branch there.
BRANCH_STAGES = {
    PSP_PASSIVE_DECOY: [
        ("p1 y1 e_b1 f1 delta1", "basis dependence too strong for the fidelity bound"),
        ("e_p1", "phase-error bound >= 1/2")],
    PSP_TRIGGERED: [
        ("q_t_mu q_nt_mu e_t_mu q_t_j1_exact factorization",
         "triggered or non-triggered gain vanished"),
        ("r r0 q_t_j1_bound", "trigger contrast below the j=0 background"),
        ("e_b1_max", "bit-error bound >= 1/2"),
        ("f1 delta1", "basis dependence too strong for the fidelity bound"),
        ("e_p1_max", "phase-error bound >= 1/2")],
}


def test_a_diagnostic_is_listed_only_where_its_branch_reached_it():
    # the passive estimator listed e_p1 = 1 at 100 to 300 km, where the
    # basis-dependence test had ended the point before any phase error
    distances = np.arange(0.0, 301.0, 25.0)
    for protocol, kwargs in ((PSP_PASSIVE_DECOY, {}),
                             (PSP_TRIGGERED, {"nu": 64.0, "eta_trigger_det": 0.12})):
        curve = keyrate_curve(protocol, ChannelParams(), 0.5, distances, 4, **kwargs)
        reasons = set()
        for i, L in enumerate(distances):
            diagnostics = curve.result(i).diagnostics
            reason = diagnostics.pop("vacuous", None)
            reached = []
            for names, ends in BRANCH_STAGES[protocol]:
                reached += names.split()
                if ends == reason:
                    break
            assert sorted(diagnostics) == sorted(reached), (protocol, L, reason)
            reasons.add(reason)
        # live points, and points ended by each test of the phase-error stage
        assert {None, "basis dependence too strong for the fidelity bound",
                "phase-error bound >= 1/2"} <= reasons, protocol

def gllp_by_hand(c, L, mu, p_multi):
    """The GLLP non-decoy rate at L km from the channel's gain and QBER."""
    st = channel_stats(c, mu, [L])
    q_mu, e_mu = float(st.q_mu[0]), float(st.e_mu[0])
    omega = (q_mu - p_multi) / q_mu
    return max(0.0, -c.f * q_mu * binary_entropy(e_mu)
               + q_mu * omega * (1.0 - binary_entropy(e_mu / omega)))


def test_keyrate_curve_protocol_dispatch():
    c = ChannelParams()
    wcs_multi = 1.0 - np.exp(-0.01) * (1.0 + 0.01)
    rate = keyrate_curve(WCS_NONDECOY, c, 0.01, [10.0]).result(0).rate
    assert rate > 0.0
    assert rate == gllp_by_hand(c, 10.0, 0.01, wcs_multi)
    psp_multi = sum(residue_masses(0.03, 8)[2:].tolist())
    rate = keyrate_curve(PSP_NONDECOY, c, 0.03, [10.0], d=8).result(0).rate
    assert rate > 0.0
    assert abs(rate - gllp_by_hand(c, 10.0, 0.03, psp_multi)) <= 1e-15 * rate
    with pytest.raises(ValueError):
        keyrate_curve("unknown", c, 0.1, [10.0])


@pytest.mark.parametrize("protocol", [PSP_NONDECOY, PSP_PASSIVE_DECOY, PSP_TRIGGERED])
@pytest.mark.parametrize("d", [None, 0, 2.0])
def test_psp_protocols_require_integer_d(protocol, d):
    # psp-nondecoy with d=None used to return the WCS non-decoy rate
    kwargs = {"nu": 256.0, "eta_trigger_det": 0.12} if protocol == PSP_TRIGGERED else {}
    with pytest.raises(ValueError, match="d must be"):
        keyrate_curve(protocol, ChannelParams(), 0.03, [2.0], d=d, **kwargs)


def test_rates_are_nonnegative():
    c = ChannelParams()
    for L in (0.0, 50.0, 120.0):
        assert keyrate_curve(WCS_NONDECOY, c, 0.1, [L]).result(0).rate >= 0.0
        assert keyrate_curve(WCS_DECOY, c, 0.5, [L]).result(0).rate >= 0.0
        assert keyrate_curve(PSP_PASSIVE_DECOY, c, 0.45, [L], d=8).result(0).rate >= 0.0
        assert keyrate_curve(PSP_TRIGGERED, c, 0.45, [L], d=8, **TRIGGER).result(0).rate >= 0.0


@pytest.mark.parametrize("field", ["f", "eta_bob", "y0", "e0", "e_det", "alpha_db_per_km"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_channel_params_reject_non_finite(field, value):
    # a NaN passes every range check, and would come out as rate 0.0
    with pytest.raises(ValueError, match=field):
        ChannelParams(**{field: value})


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(eta_bob=0.0)
    with pytest.raises(ValueError):
        ChannelParams(y0=-1e-6)
    with pytest.raises(ValueError):
        ChannelParams(f=0.9)
    with pytest.raises(ValueError):
        ChannelParams(e_det=0.6)


@pytest.mark.parametrize("d", [4, 8])
def test_measure_bb84_matches_the_fock_oracle(d):
    # the encoded amplitudes written from their definition, split in the number basis
    # and read by threshold projections, share no formula with the one Poisson series
    ks = sorted(set(phase_set(d)) | ({3 * d // 8} if d % 8 == 0 else set()))
    for mu in (0.05, 0.45, 2.0):
        for j in range(d):
            for k in ks:
                for basis in "XY":
                    fock = threshold_readout(fock_beam_splitter(encoded_fock(mu, d, j, k), basis))
                    assert measure_bb84(mu, d, j, k, basis) == pytest.approx(fock, rel=0, abs=1e-12)
