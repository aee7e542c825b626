"""Physical invariants as property tests over the production paths."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pspsim import (
    PROTOCOLS,
    PSP_TRIGGERED,
    ChannelParams,
    keyrate_curve,
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
@given(protocol=st.sampled_from(PROTOCOLS), mu=st.floats(1e-3, 2.0),
       d=st.sampled_from([4, 8, 12, 36]))
def test_keyrate_never_rises_with_distance_and_stays_below_plob(protocol, mu, d):
    kwargs = {"nu": 4.0 * d * d, "eta_trigger_det": 0.12} if protocol == PSP_TRIGGERED else {}
    c = ChannelParams()
    rate = keyrate_curve(protocol, c, mu, DISTANCES, d, **kwargs).rate  # the WCS ones ignore d
    assert (np.diff(rate) <= 0.0).all()
    # the repeaterless (PLOB) bound on the secret-key rate per channel use
    assert (rate <= -np.log2(1.0 - transmission(c, DISTANCES))).all()
