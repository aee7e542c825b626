"""Channel model, encoding and measurement, and the five key-rate estimators."""

import itertools
import math

import numpy as np
import pytest

from pspsim import (
    ChannelParams,
    DegenerateStateError,
    GenerationParams,
    PSP_NONDECOY,
    PSP_PASSIVE_DECOY,
    PSP_TRIGGERED,
    WCS_DECOY,
    WCS_NONDECOY,
    basis_fidelity_bound,
    binary_entropy,
    channel_stats,
    encoded_state,
    keyrate_for_protocol,
    keyrate_nondecoy,
    keyrate_psp_passive,
    keyrate_psp_triggered,
    keyrate_wcs_decoy,
    measure_bb84,
    modular_poisson_mass,
    norm,
    optimize_mu,
    phase_error_upper,
    phase_set,
    pseudo_state_yield,
    transmission,
    trigger_probability,
    yield_n,
)

GRID = np.arange(0.05, 2.0001, 0.05)
SMALL_GRID = np.arange(0.002, 0.06, 0.002)


def test_transmission():
    assert abs(transmission(ChannelParams(distance_km=0.0)) - 0.045) < 1e-15
    c = ChannelParams(distance_km=20.0)
    assert abs(transmission(c) - 0.045 * 10 ** (-0.42)) < 1e-15


def test_yield_n_closed_form():
    c = ChannelParams(distance_km=40.0)
    eta = transmission(c)
    for n in range(5):
        expect = 1.0 - (1.0 - c.y0) * (1.0 - eta) ** n
        assert abs(yield_n(c, n) - expect) < 1e-16


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
            keyrate_wcs_decoy(c, mu)
        with pytest.raises(ValueError):
            keyrate_psp_triggered(c, mu, 8, 256.0, 0.12)


def test_channel_stats_source_equivalence():
    c = ChannelParams(distance_km=30.0)
    a = channel_stats(c, 0.4, source="wcs")
    b = channel_stats(c, 0.4, source="psp")
    assert a.q_mu == b.q_mu and a.e_mu == b.e_mu
    with pytest.raises(ValueError):
        channel_stats(c, 0.4, source="thermal")


def test_pseudo_state_yield_matches_series_oracle():
    # average Y_n over p(n | residue class j) term by term
    for (L, mu, d, j) in ((40.0, 0.45, 8, 1), (20.0, 0.08, 4, 1),
                          (60.0, 1.0, 36, 1), (40.0, 0.45, 8, 0)):
        c = ChannelParams(distance_km=L)
        mass = modular_poisson_mass(mu, d, j)
        total = 0.0
        for n in range(j, 400, d):
            p = math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))
            total += p * yield_n(c, n)
        oracle = total / mass
        lib = pseudo_state_yield(c, mu, d, j)
        assert abs(lib - oracle) < 1e-14


def test_pseudo_state_yield_frozen_point_and_dominant_model():
    c = ChannelParams(distance_km=40.0)
    assert abs(pseudo_state_yield(c, 0.45, 8, 1) - 6.506168144914004e-03) < 1e-15
    assert pseudo_state_yield(c, 0.45, 8, 1, model="dominant") == yield_n(c, 1)
    with pytest.raises(ValueError):
        pseudo_state_yield(c, 0.45, 8, 1, model="other")


def test_binary_entropy():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.25) - 0.8112781244591328) < 1e-14
    assert abs(binary_entropy(0.1) - binary_entropy(0.9)) < 1e-15


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


def test_nondecoy_optimized_frozen_point_and_cutoff():
    c = ChannelParams(distance_km=20.0)
    mu_star, res = optimize_mu(c, None, WCS_NONDECOY, SMALL_GRID)
    assert abs(mu_star - 0.01) < 1e-12
    assert abs(res.rate - 4.008867022051779e-05) < 1e-12
    far = ChannelParams(distance_km=42.0)
    _, dead = optimize_mu(far, None, WCS_NONDECOY, SMALL_GRID)
    assert dead.rate == 0.0


def test_wcs_decoy_frozen_point():
    res = keyrate_wcs_decoy(ChannelParams(distance_km=20.0), 0.5)
    assert abs(res.rate - 2.0299986611564962e-03) < 1e-14
    assert res.gain > 0 and 0 < res.qber < 0.5


def test_psp_passive_frozen_points():
    expect = (
        (40.0, 0.45, 8, 1.0170216805863246e-03),
        (20.0, 0.08, 4, 6.7628804134122172e-04),
        (40.0, 1.0, 36, 1.3087567975131505e-03),
    )
    for L, mu, d, rate in expect:
        res = keyrate_psp_passive(ChannelParams(distance_km=L), mu, d)
        assert abs(res.rate - rate) < 1e-14


def test_psp_passive_basis_mu_options_agree_at_large_d():
    c = ChannelParams(distance_km=40.0)
    half = keyrate_psp_passive(c, 1.0, 36, basis_mu="half")
    full = keyrate_psp_passive(c, 1.0, 36, basis_mu="full")
    assert abs(half.rate - full.rate) < 1e-9 * half.rate


def test_psp_triggered_frozen_point_and_upper_bound():
    c = ChannelParams(distance_km=40.0)
    trig = keyrate_psp_triggered(c, 0.45, 8, 256.0, 0.12)
    assert abs(trig.rate - 1.0108523319818162e-03) < 1e-14
    for L in (0.0, 20.0, 40.0, 60.0):
        ch = ChannelParams(distance_km=L)
        passive = keyrate_psp_passive(ch, 0.45, 8)
        for convention in ("paper", "recomputed"):
            t = keyrate_psp_triggered(ch, 0.45, 8, 256.0, 0.12,
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
        res = keyrate_psp_triggered(c, mu, d, 4.0 * d * d, 0.12, convention,
                                    yield_model=yield_model)
        q_t, q_nt, rate = triggered_by_loop(c, mu, d, 4.0 * d * d, 0.12, convention,
                                            yield_model)
        assert abs(res.diagnostics["q_t_mu"] - q_t) <= 1e-15 * q_t
        assert abs(res.diagnostics["q_nt_mu"] - q_nt) <= 1e-15 * q_nt
        assert abs(res.rate - rate) <= 1e-15 * rate
        positive += rate > 0.0
    assert positive > 20


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
        "                 lambda: keyrate_psp_triggered(c, 1e-200, 4, 64.0, 0.12,\n"
        "                                               yield_model=model).rate):\n"
        "        try:\n"
        "            print(repr(call()))\n"
        "        except DegenerateStateError:\n"
        "            print('DegenerateStateError')\n"
        "print(repr(yield_n(c, 2)))\n")
    lines = out.splitlines()
    assert code == 0
    assert lines[:2] == ["DegenerateStateError"] * 2
    assert lines[2] == lines[4]  # the dominant model is the lowest-photon yield
    assert lines[3] == "0.0"


def test_psp_triggered_gain_bound_consistency():
    c = ChannelParams(distance_km=40.0)
    res = keyrate_psp_triggered(c, 0.45, 8, 256.0, 0.12)
    diag = res.diagnostics
    assert diag["q_t_j1_bound"] <= diag["q_t_j1_exact"] + 1e-18


def test_optimize_mu_behavior():
    c = ChannelParams(distance_km=20.0)
    mu_star, res = optimize_mu(c, None, WCS_DECOY, GRID)
    assert abs(mu_star - 0.5) < 1e-12
    assert res.rate == keyrate_wcs_decoy(c, 0.5).rate
    mu36, _ = optimize_mu(ChannelParams(distance_km=40.0), 36, PSP_PASSIVE_DECOY,
                          [0.8, 0.9, 1.0, 1.1])
    assert mu36 == 1.0
    with pytest.raises(ValueError):
        optimize_mu(c, None, "unknown", GRID)
    with pytest.raises(ValueError):
        optimize_mu(c, None, WCS_DECOY, [])


def test_keyrate_for_protocol_dispatch():
    c = ChannelParams(distance_km=10.0)
    assert keyrate_for_protocol(WCS_NONDECOY, c, 0.01).rate == \
        keyrate_nondecoy(c, 0.01).rate
    assert keyrate_for_protocol(PSP_NONDECOY, c, 0.1, 8).rate == \
        keyrate_nondecoy(c, 0.1, d=8).rate
    with pytest.raises(ValueError):
        keyrate_for_protocol("unknown", c, 0.1)


def test_rates_are_nonnegative():
    for L in (0.0, 50.0, 120.0):
        c = ChannelParams(distance_km=L)
        assert keyrate_nondecoy(c, 0.1).rate >= 0.0
        assert keyrate_wcs_decoy(c, 0.5).rate >= 0.0
        assert keyrate_psp_passive(c, 0.45, 8).rate >= 0.0
        assert keyrate_psp_triggered(c, 0.45, 8, 256.0, 0.12).rate >= 0.0


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(eta_bob=0.0)
    with pytest.raises(ValueError):
        ChannelParams(y0=-1e-6)
    with pytest.raises(ValueError):
        ChannelParams(f=0.9)
    with pytest.raises(ValueError):
        ChannelParams(e_det=0.6)
