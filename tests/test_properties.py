"""Physical invariants as property tests over the production paths."""

import math

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
from pspsim.states import log_factorial

# Derandomized and with no example database, so every run draws the same
# examples and a failure reproduces as it was seen.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
DISTANCES = np.linspace(0.0, 400.0, 81)


@PROPERTY
@given(mu=st.floats(0.0, 300.0), d=st.integers(1, 64))
def test_residue_masses_sum_to_one(mu, d):
    assert abs(residue_masses(mu, d).sum() - 1.0) <= 1e-12


def full_block_table(mus, d):
    """residue_masses(mus, d) for a 1-D mus, evaluating every term of every block.

    Blocks of 64 d photon numbers (fewer at d > 1024), residue-major, summed
    a group of at most 2**14 // (64 d) rows at a time, with no column skipped.
    """
    rows = min(64, max(1, 2**16 // d))
    group = max(1, 2**14 // (rows * d))
    return np.concatenate([full_block_rows(mus[i:i + group], d, rows)
                           for i in range(0, len(mus), group)])


def full_block_rows(values, d, rows):
    totals = np.zeros((len(values), d))
    totals[values == 0, 0] = 1.0
    live = np.flatnonzero(values > 0)
    live_mu = values[live]
    log_mu = np.array([math.log(m) for m in live_mu.tolist()])
    sums = np.zeros((live.size, d))
    n0 = 0
    while live.size:
        ns = np.arange(n0, n0 + rows * d)
        log_factorials = log_factorial(ns).reshape(rows, d).T.copy()
        terms = np.multiply.outer(log_mu, ns.reshape(rows, d).T.copy())
        terms -= live_mu[:, None, None]
        terms -= log_factorials
        np.exp(terms, out=terms)
        sums += terms.sum(axis=2)
        n0 += rows * d
        done = (live_mu < n0 - d) & (terms[:, :, -1] <= 1e-30 * sums).all(axis=1)
        totals[live[done]] = sums[done]
        live, live_mu, log_mu, sums = live[~done], live_mu[~done], log_mu[~done], sums[~done]
    return totals


@PROPERTY
@given(extra=st.lists(st.floats(1e-3, 300.0), max_size=10),
       d=st.one_of(st.integers(1, 64), st.just(1100)), data=st.data())
def test_residue_mass_table_is_the_full_block_arithmetic(extra, d, data):
    # a group's largest mu sets how many columns of a block are evaluated for
    # all of its rows; mu = 30 at d = 1 needs several blocks, and at d = 1100 a
    # block has 59 rows of photon numbers, not 64
    mus = np.array(data.draw(st.permutations(extra + [0.0, 1e-300, 30.0]), label="mus"))
    assert np.array_equal(residue_masses(mus, d), full_block_table(mus, d))  # bit for bit


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
