"""Physical invariants as property tests over the production paths."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pspsim import (
    PROTOCOLS,
    PSP_TRIGGERED,
    ChannelParams,
    keyrate_curve,
    pseudo_state_yield,
    residue_masses,
    transmission,
)

# Derandomized and with no example database, so every run draws the same
# examples and a failure reproduces as it was seen.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
DISTANCES = np.linspace(0.0, 400.0, 81)


@PROPERTY
@given(mu=st.floats(0.0, 300.0), d=st.integers(1, 64))
def test_residue_masses_sum_to_one(mu, d):
    assert abs(residue_masses(mu, d).sum() - 1.0) <= 1e-12


@PROPERTY
@given(mu=st.floats(1e-3, 300.0), d=st.integers(1, 64), data=st.data(),
       distance=st.floats(0.0, 400.0), model=st.sampled_from(["exact", "dominant"]))
def test_pseudo_state_yield_is_a_probability(mu, d, data, distance, model):
    j = data.draw(st.integers(0, d - 1), label="j")
    y = pseudo_state_yield(ChannelParams(distance_km=distance), mu, d, j, model)
    assert 0.0 <= y <= 1.0


@PROPERTY
@given(protocol=st.sampled_from(PROTOCOLS), mu=st.floats(1e-3, 2.0),
       d=st.sampled_from([4, 8, 12, 36]))
def test_keyrate_never_rises_with_distance_and_stays_below_plob(protocol, mu, d):
    kwargs = {"nu": 4.0 * d * d, "eta_trigger_det": 0.12} if protocol == PSP_TRIGGERED else {}
    c = ChannelParams()
    rate = keyrate_curve(protocol, c, mu, DISTANCES, d, **kwargs).rate  # the WCS ones ignore d
    assert (np.diff(rate) <= 0.0).all()
    # the repeaterless (PLOB) bound on the secret-key rate per channel use
    assert (rate <= -np.log2(1.0 - transmission(c, DISTANCES))).all()
