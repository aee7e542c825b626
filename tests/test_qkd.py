"""Channel model, encoding and measurement, and the five key-rate estimators."""

import itertools
import math
import warnings

import numpy as np
import pytest

from pspsim import qkd
from pspsim import (
    ChannelParams,
    DegenerateStateError,
    GenerationParams,
    KeyRateCurve,
    PSP_NONDECOY,
    PSP_PASSIVE_DECOY,
    PSP_TRIGGERED,
    WCS_DECOY,
    WCS_NONDECOY,
    basis_fidelity_bound,
    binary_entropy,
    channel_stats,
    encoded_state,
    keyrate_curve,
    keyrate_for_protocol,
    measure_bb84,
    modular_poisson_mass,
    norm,
    optimize_mu,
    phase_error_upper,
    phase_set,
    pseudo_state_yield,
    transmission,
    trigger_probability,
)

GRID = np.arange(0.05, 2.0001, 0.05)
SMALL_GRID = np.arange(0.002, 0.06, 0.002)
# The triggered source's meter intensity and trigger-detector efficiency at d = 8.
TRIGGER = {"nu": 256.0, "eta_trigger_det": 0.12}


def test_transmission():
    assert abs(transmission(ChannelParams(distance_km=0.0)) - 0.045) < 1e-15
    c = ChannelParams(distance_km=20.0)
    assert abs(transmission(c) - 0.045 * 10 ** (-0.42)) < 1e-15


def n_photon_yield(c, n):
    """Y_n = 1 - (1 - Y0)(1 - eta)^n, the detection probability of n photons."""
    return 1.0 - (1.0 - c.y0) * (1.0 - transmission(c)) ** n


def test_yield_n_closed_form():
    # the dominant model collapses |j_d> to j photons, whatever mu and d are
    c = ChannelParams(distance_km=40.0)
    eta = 0.045 * 10 ** (-0.84)
    for n in range(5):
        expect = 1.0 - (1.0 - 1.7e-6) * (1.0 - eta) ** n
        for mu, d in ((0.45, 8), (2.0, 5)):
            assert abs(pseudo_state_yield(c, mu, d, n, "dominant") - expect) < 1e-16


def test_channel_stats_short_and_long_distance():
    st = channel_stats(ChannelParams(distance_km=0.0), 0.1)
    assert abs(st.q_mu - 4.491590170429549e-03) < 1e-15
    assert abs(st.e_mu - 3.317675254639731e-02) < 1e-15
    far = channel_stats(ChannelParams(distance_km=1000.0), 0.1)
    assert far.q_mu < 3e-6
    assert abs(far.e_mu - 0.5) < 1e-3


def test_estimators_reject_non_finite_mu():
    c = ChannelParams(distance_km=20.0)
    for mu in (math.nan, math.inf):
        with pytest.raises(ValueError):
            channel_stats(c, mu)
        with pytest.raises(ValueError):
            keyrate_for_protocol(WCS_DECOY, c, mu)
        with pytest.raises(ValueError):
            keyrate_for_protocol(PSP_TRIGGERED, c, mu, 8, **TRIGGER)


def test_pseudo_state_yield_matches_series_oracle():
    # average Y_n over p(n | residue class j) term by term
    for (L, mu, d, j) in ((40.0, 0.45, 8, 1), (20.0, 0.08, 4, 1),
                          (60.0, 1.0, 36, 1), (40.0, 0.45, 8, 0)):
        c = ChannelParams(distance_km=L)
        mass = modular_poisson_mass(mu, d, j)
        total = 0.0
        for n in range(j, 400, d):
            p = math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))
            total += p * n_photon_yield(c, n)
        oracle = total / mass
        lib = pseudo_state_yield(c, mu, d, j)
        assert abs(lib - oracle) < 1e-14


def test_pseudo_state_yield_frozen_point_and_dominant_model():
    c = ChannelParams(distance_km=40.0)
    assert abs(pseudo_state_yield(c, 0.45, 8, 1) - 6.506168144914004e-03) < 1e-15
    assert pseudo_state_yield(c, 0.45, 8, 1, model="dominant") == n_photon_yield(c, 1)
    with pytest.raises(ValueError):
        pseudo_state_yield(c, 0.45, 8, 1, model="other")


@pytest.mark.parametrize("model", ["exact", "dominant"])
@pytest.mark.parametrize("d, j", [(8, -1), (8, 12), (8, 8), (8, 2.5), (8, True), (0, 0),
                                  (8.0, 1)])
def test_pseudo_state_yield_rejects_bad_d_and_j(model, d, j):
    # the dominant model used to ignore d and j: -0.00654 at j = -1, 0.0753 at j = 12
    with pytest.raises(ValueError, match="must be an integer"):
        pseudo_state_yield(ChannelParams(distance_km=40.0), 0.45, d, j, model)


@pytest.mark.parametrize("mu, message", [(-1.0, "nonnegative"), (math.nan, "finite"),
                                         (math.inf, "finite")])
@pytest.mark.parametrize("model", ["exact", "dominant"])
def test_pseudo_state_yield_rejects_bad_mu(model, mu, message):
    # the dominant model used to ignore mu and return 0.0065062 for each
    with pytest.raises(ValueError, match="mu must be " + message):
        pseudo_state_yield(ChannelParams(distance_km=40.0), mu, 8, 1, model)


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


def test_encoded_state_norm():
    for k in (0, 2, 4, 6):
        s = encoded_state(0.45, 8, 1, k)
        assert abs(norm(s) - 1.0) < 1e-12


def test_encoded_state_rejects_bool_phase_index():
    # True used to build the k = 1 state
    for k in (True, np.True_, 1.5):
        with pytest.raises(ValueError, match="phase index"):
            encoded_state(0.45, 8, 1, k)
    integral = encoded_state(0.45, 8, 1, 2.0)
    two = encoded_state(0.45, 8, 1, 2)
    assert np.array_equal(integral.coeffs, two.coeffs)
    assert np.array_equal(integral.labels, two.labels)


def test_measure_bb84_deterministic_ports():
    mu, d = 0.45, 8
    k0, ky0, k1, ky1 = phase_set(d)
    # matched basis: one port stays exactly dark, no double clicks
    for k, basis, dark in ((k0, "X", 1), (k1, "X", 0), (ky0, "Y", 0), (ky1, "Y", 1)):
        p0, p1, p_double, p_none = measure_bb84(encoded_state(mu, d, 1, k), basis)
        assert abs(p0 + p1 + p_double + p_none - 1.0) < 1e-12
        assert (p1 if dark == 1 else p0) < 1e-12
        assert p_double < 1e-12
    # conjugate basis: both ports equally likely
    p0, p1, _, _ = measure_bb84(encoded_state(mu, d, 1, k0), "Y")
    assert abs(p0 - p1) < 1e-12


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


def test_nondecoy_optimized_frozen_point_and_cutoff():
    c = ChannelParams(distance_km=20.0)
    mu_star, res = optimize_mu(c, None, WCS_NONDECOY, SMALL_GRID)
    assert abs(mu_star - 0.01) < 1e-12
    assert abs(res.rate - 4.008867022051779e-05) < 1e-12
    far = ChannelParams(distance_km=42.0)
    _, dead = optimize_mu(far, None, WCS_NONDECOY, SMALL_GRID)
    assert dead.rate == 0.0


def test_wcs_decoy_frozen_point():
    res = keyrate_for_protocol(WCS_DECOY, ChannelParams(distance_km=20.0), 0.5)
    assert abs(res.rate - 2.0299986611564962e-03) < 1e-14
    assert res.gain > 0 and 0 < res.qber < 0.5


def test_psp_passive_frozen_points():
    expect = (
        (40.0, 0.45, 8, 1.0170216805863246e-03),
        (20.0, 0.08, 4, 6.7628804134122172e-04),
        (40.0, 1.0, 36, 1.3087567975131505e-03),
    )
    for L, mu, d, rate in expect:
        res = keyrate_for_protocol(PSP_PASSIVE_DECOY, ChannelParams(distance_km=L), mu, d)
        assert abs(res.rate - rate) < 1e-14


def test_psp_passive_basis_mu_options_agree_at_large_d():
    c = ChannelParams(distance_km=40.0)
    half = keyrate_for_protocol(PSP_PASSIVE_DECOY, c, 1.0, 36, basis_mu="half")
    full = keyrate_for_protocol(PSP_PASSIVE_DECOY, c, 1.0, 36, basis_mu="full")
    assert abs(half.rate - full.rate) < 1e-9 * half.rate


def test_psp_triggered_frozen_point_and_upper_bound():
    c = ChannelParams(distance_km=40.0)
    trig = keyrate_for_protocol(PSP_TRIGGERED, c, 0.45, 8, **TRIGGER)
    assert abs(trig.rate - 1.0108523319818162e-03) < 1e-14
    for L in (0.0, 20.0, 40.0, 60.0):
        ch = ChannelParams(distance_km=L)
        passive = keyrate_for_protocol(PSP_PASSIVE_DECOY, ch, 0.45, 8)
        for convention in ("paper", "recomputed"):
            t = keyrate_for_protocol(PSP_TRIGGERED, ch, 0.45, 8, **TRIGGER,
                                     convention=convention)
            assert t.rate <= passive.rate + 1e-15


def triggered_by_loop(c, mu, d, nu, eta_det, convention, yield_model):
    """(q_t_mu, q_nt_mu, rate) of the triggered estimator, one residue at a time."""
    g = GenerationParams(mu=mu, nu=nu, d=d, eta_det=eta_det)
    probs = [modular_poisson_mass(mu, d, j) for j in range(d)]
    yields = [pseudo_state_yield(c, mu, d, j, yield_model) for j in range(d)]
    eta_t = [trigger_probability(g, j, convention) for j in range(d)]
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
        c = ChannelParams(distance_km=L)
        res = keyrate_for_protocol(PSP_TRIGGERED, c, mu, d, nu=4.0 * d * d, eta_trigger_det=0.12,
                                   convention=convention, yield_model=yield_model)
        q_t, q_nt, rate = triggered_by_loop(c, mu, d, 4.0 * d * d, 0.12, convention,
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
        expect = keyrate_for_protocol(protocol, ChannelParams(distance_km=L), mu, d, **kwargs)
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


def passive_by_parts(c, mu, d):
    """(y1, rate) of the passive-decoy estimator from the per-state public functions."""
    y1 = pseudo_state_yield(c, mu, d, 1)
    e_b1 = (c.e0 - c.e_det) * (c.y0 / y1) + c.e_det
    delta1 = (1.0 - basis_fidelity_bound(mu / 2.0, d, 1)) / (2.0 * y1)
    e_p1 = phase_error_upper(e_b1, delta1)
    rate = modular_poisson_mass(mu, d, 1) * y1 * (
        1.0 - c.f * binary_entropy(e_b1) - binary_entropy(e_p1))
    return y1, rate


def test_scalar_estimators_are_the_curve_at_their_distance():
    # keyrate_for_protocol reads c.distance_km, and a curve row does not depend
    # on the other distances of the curve
    curve = keyrate_curve(PSP_PASSIVE_DECOY, ChannelParams(), 0.45, [0.0, 40.0, 80.0], 8)
    trig = keyrate_curve(PSP_TRIGGERED, ChannelParams(), 0.45, [0.0, 40.0, 80.0], 8, **TRIGGER)
    for i, L in enumerate((0.0, 40.0, 80.0)):
        c = ChannelParams(distance_km=L)
        y1, rate = passive_by_parts(c, 0.45, 8)
        res = keyrate_for_protocol(PSP_PASSIVE_DECOY, c, 0.45, 8)
        assert res == curve.result(i)
        assert abs(res.diagnostics["y1"] - y1) <= 1e-15 * y1
        assert abs(res.rate - rate) <= 1e-15 * rate
        _, _, rate = triggered_by_loop(c, 0.45, 8, 256.0, 0.12, "paper", "exact")
        res = keyrate_for_protocol(PSP_TRIGGERED, c, 0.45, 8, **TRIGGER)
        assert res == trig.result(i)
        assert abs(res.rate - rate) <= 1e-15 * rate


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_estimators_without_dark_counts_at_extreme_distance():
    # with y0 = 0 the gain and the yields underflow to 0 far out; the scalar
    # estimators used to raise ZeroDivisionError there
    far = ChannelParams(y0=0.0, distance_km=20000.0)
    assert keyrate_for_protocol(
        WCS_NONDECOY, ChannelParams(y0=0.0, distance_km=1000.0), 0.03).rate == 0.0
    assert keyrate_for_protocol(WCS_DECOY, far, 0.5).rate == 0.0
    assert keyrate_for_protocol(PSP_PASSIVE_DECOY, far, 0.45, 8).rate == 0.0
    assert keyrate_for_protocol(PSP_TRIGGERED, far, 0.45, 8, **TRIGGER).rate == 0.0
    curve = keyrate_curve(PSP_TRIGGERED, far, 0.45, [0.0, 20000.0], 8, **TRIGGER)
    assert curve.rate[0] > 0.0 == curve.rate[1]


def test_keyrate_curve_rejects_bad_distances():
    c = ChannelParams()
    for distances in ([-1.0, 2.0], [0.0, math.nan], [[1.0]]):
        with pytest.raises(ValueError, match="distances"):
            keyrate_curve(WCS_DECOY, c, 0.5, distances)


def test_degenerate_residues_raise_only_for_the_exact_yield_model(isolated):
    c = ChannelParams(distance_km=40.0)
    with pytest.raises(DegenerateStateError):
        pseudo_state_yield(c, 0.0, 4, 1)
    # At mu = 1e-200 every residue above j = 1 underflows to zero mass; the
    # fresh interpreter turns a series that fails to terminate into a failure.
    code, out = isolated(
        "from pspsim import *\n"
        "c = ChannelParams(distance_km=40.0)\n"
        "for model in ('exact', 'dominant'):\n"
        "    for call in (lambda: pseudo_state_yield(c, 1e-200, 4, 2, model),\n"
        "                 lambda: keyrate_for_protocol(PSP_TRIGGERED, c, 1e-200, 4, nu=64.0,\n"
        "                                              eta_trigger_det=0.12,\n"
        "                                              yield_model=model).rate):\n"
        "        try:\n"
        "            print(repr(call()))\n"
        "        except DegenerateStateError:\n"
        "            print('DegenerateStateError')\n"
        "print(repr(1.0 - (1.0 - c.y0) * (1.0 - transmission(c)) ** 2))\n")
    lines = out.splitlines()
    assert code == 0
    assert lines[:2] == ["DegenerateStateError"] * 2
    assert lines[2] == lines[4]  # the dominant model is the lowest-photon yield
    assert lines[3] == "0.0"


def test_psp_triggered_gain_bound_consistency():
    c = ChannelParams(distance_km=40.0)
    res = keyrate_for_protocol(PSP_TRIGGERED, c, 0.45, 8, **TRIGGER)
    diag = res.diagnostics
    assert diag["q_t_j1_bound"] <= diag["q_t_j1_exact"] + 1e-18


def test_optimize_mu_behavior():
    c = ChannelParams(distance_km=20.0)
    mu_star, res = optimize_mu(c, None, WCS_DECOY, GRID)
    assert abs(mu_star - 0.5) < 1e-12
    assert res.rate == keyrate_for_protocol(WCS_DECOY, c, 0.5).rate
    mu36, _ = optimize_mu(ChannelParams(distance_km=40.0), 36, PSP_PASSIVE_DECOY,
                          [0.8, 0.9, 1.0, 1.1])
    assert mu36 == 1.0
    with pytest.raises(ValueError):
        optimize_mu(c, None, "unknown", GRID)
    with pytest.raises(ValueError):
        optimize_mu(c, None, WCS_DECOY, [])


def test_optimize_mu_over_distances_matches_per_distance_search():
    distances = np.arange(0.0, 301.0, 20.0)
    kwargs = {"nu": 256.0, "eta_trigger_det": 0.12}
    mu_star, curve = optimize_mu(ChannelParams(), 8, PSP_TRIGGERED, GRID, distances, **kwargs)
    assert mu_star.tolist() == curve.mu.tolist()
    for i, L in enumerate(distances):
        m, res = optimize_mu(ChannelParams(distance_km=L), 8, PSP_TRIGGERED, GRID, **kwargs)
        assert m == mu_star[i]
        assert abs(res.rate - curve.rate[i]) <= 1e-15 * res.rate
        assert res.diagnostics.keys() == curve.result(i).diagnostics.keys()
    # beyond the last positive rate every mu ties at zero: the smallest wins
    assert curve.rate[-1] == 0.0 and mu_star[-1] == GRID[0]


def test_optimize_mu_first_index_tie_break(monkeypatch):
    # rates rise with mu up to 0.3 and are flat beyond it, so 0.3, 0.4 and the
    # repeated 0.5 tie; the first (smallest) of them must win at each distance,
    # and a later mu only on a strictly larger rate
    def fake_curve(protocol, c, mu, distances, d=None, **kwargs):
        distances = np.asarray(distances, dtype=float)
        rate = np.full(distances.size, min(mu, 0.3))
        rate[0] = mu  # at the first distance the rate keeps rising
        return KeyRateCurve(distances, np.full(distances.size, mu), rate, rate, rate,
                            {"vacuous": np.full(distances.size, None, dtype=object)})

    monkeypatch.setattr(qkd, "keyrate_curve", fake_curve)
    grid = [0.5, 0.1, 0.4, 0.3, 0.5, 0.2]
    mu_star, curve = optimize_mu(ChannelParams(), None, WCS_DECOY, grid, [0.0, 10.0, 20.0])
    assert mu_star.tolist() == [0.5, 0.3, 0.3]
    assert curve.rate.tolist() == [0.5, 0.3, 0.3]
    m, res = optimize_mu(ChannelParams(distance_km=10.0), None, WCS_DECOY, grid)
    assert (m, res.rate) == (0.5, 0.5)  # the scalar search sees its one distance first


def gllp_by_hand(c, mu, p_multi):
    """The GLLP non-decoy rate from the channel's gain and QBER."""
    st = channel_stats(c, mu)
    omega = (st.q_mu - p_multi) / st.q_mu
    return max(0.0, -c.f * st.q_mu * binary_entropy(st.e_mu)
               + st.q_mu * omega * (1.0 - binary_entropy(st.e_mu / omega)))


def test_keyrate_for_protocol_dispatch():
    c = ChannelParams(distance_km=10.0)
    wcs_multi = 1.0 - math.exp(-0.01) * (1.0 + 0.01)
    rate = keyrate_for_protocol(WCS_NONDECOY, c, 0.01).rate
    assert rate > 0.0
    assert rate == gllp_by_hand(c, 0.01, wcs_multi)
    psp_multi = sum(modular_poisson_mass(0.03, 8, j) for j in range(2, 8))
    rate = keyrate_for_protocol(PSP_NONDECOY, c, 0.03, 8).rate
    assert rate > 0.0
    assert abs(rate - gllp_by_hand(c, 0.03, psp_multi)) <= 1e-15 * rate
    with pytest.raises(ValueError):
        keyrate_for_protocol("unknown", c, 0.1)


@pytest.mark.parametrize("protocol", [PSP_NONDECOY, PSP_PASSIVE_DECOY, PSP_TRIGGERED])
@pytest.mark.parametrize("d", [None, 0, 2.0])
def test_psp_protocols_require_integer_d(protocol, d):
    # psp-nondecoy with d=None used to return the WCS non-decoy rate
    kwargs = {"nu": 256.0, "eta_trigger_det": 0.12} if protocol == PSP_TRIGGERED else {}
    with pytest.raises(ValueError, match="d must be"):
        keyrate_for_protocol(protocol, ChannelParams(distance_km=2.0), 0.03, d, **kwargs)


def test_rates_are_nonnegative():
    for L in (0.0, 50.0, 120.0):
        c = ChannelParams(distance_km=L)
        assert keyrate_for_protocol(WCS_NONDECOY, c, 0.1).rate >= 0.0
        assert keyrate_for_protocol(WCS_DECOY, c, 0.5).rate >= 0.0
        assert keyrate_for_protocol(PSP_PASSIVE_DECOY, c, 0.45, 8).rate >= 0.0
        assert keyrate_for_protocol(PSP_TRIGGERED, c, 0.45, 8, **TRIGGER).rate >= 0.0


@pytest.mark.parametrize("field", ["f", "eta_bob", "y0", "e0", "e_det", "alpha_db_per_km",
                                   "distance_km"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_channel_params_reject_non_finite(field, value):
    # a NaN distance used to pass every range check and come out as rate 0.0
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
