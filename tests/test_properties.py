"""Physical invariants as property tests over the production paths."""

import math
import os
import time
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pspsim import (
    PROTOCOLS,
    PSP_TRIGGERED,
    ChannelParams,
    DegenerateStateError,
    NumericalDiagnosticError,
    PSPParams,
    TruncationError,
    basis_fidelity_bound,
    channel_stats,
    g2_zero_closed,
    keyrate_curve,
    loss_channel,
    measure_bb84,
    normalization,
    photon_number_probability,
    pseudo_state_yield,
    residue_masses,
    transmission,
)
from pspsim.pns import log_factorial

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
    At d = 1 the one residue holds the whole distribution, whose mass is
    exactly 1, and no series is summed.
    """
    if d == 1:
        return np.ones((len(mus), 1))
    rows = min(64, max(1, 2**16 // d))
    group = max(1, 2**14 // (rows * d))
    return np.concatenate([full_block_rows(mus[i:i + group], d, rows)
                           for i in range(0, len(mus), group)])


def full_block_rows(values, d, rows):
    totals = np.zeros((len(values), d))
    totals[values == 0, 0] = 1.0
    live = np.flatnonzero(values > 0)
    live_mu = values[live]
    log_mu = np.log(live_mu)
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


def table_mus(d):
    """Lists of mu for a residue table at d: spread over (0, 300], in the regime
    where a block's head is one column wide at d >= 16 (mu <= 2), and near the
    end of the first block, so that a row runs on into the next one."""
    block = min(64, 2**16 // d) * d  # photon numbers per block
    return st.lists(st.one_of(st.floats(1e-3, 300.0), st.floats(1e-3, 2.0),
                              st.floats(0.9 * block, 1.1 * block)), max_size=10)


@PROPERTY
@given(d=st.one_of(st.integers(1, 64), st.just(1100)), data=st.data())
def test_residue_mass_table_is_the_full_block_arithmetic(d, data):
    # a group's largest mu sets how many columns of a block are evaluated for
    # all of its rows; mu = 30 at d = 1 needs several blocks, and at d = 1100 a
    # block has 59 rows of photon numbers, not 64
    extra = data.draw(table_mus(d), label="extra")
    mus = np.array(data.draw(st.permutations(extra + [0.0, 1e-300, 30.0]), label="mus"))
    assert np.array_equal(residue_masses(mus, d), full_block_table(mus, d))  # bit for bit


@PROPERTY
@given(d=st.integers(1, 64), data=st.data())
def test_residue_subset_is_the_full_table_columns(d, data):
    # a subset tests only its own residues for the end of the series; past the
    # mode the later terms of a residue it ends early cannot move a bit of it.
    # mu = 100 d spans several blocks of 64 d photon numbers.  A subset's
    # smallest residue sets the photon numbers its block heads are cut at.
    extra = data.draw(table_mus(d), label="extra")
    mus = np.array(data.draw(st.permutations(extra + [0.0, 1e-300, 100.0 * d]), label="mus"))
    lowest = data.draw(st.integers(0, d - 1), label="lowest")
    js = data.draw(st.lists(st.integers(lowest, d - 1), max_size=d), label="js")
    assert np.array_equal(residue_masses(mus, d, js), residue_masses(mus, d)[:, js])
    assert np.array_equal(residue_masses(mus, d, js), full_block_table(mus, d)[:, js])


@PROPERTY
@given(mu=st.floats(1e-3, 300.0), d=st.integers(1, 64), data=st.data(),
       distance=st.floats(0.0, 400.0), model=st.sampled_from(["exact", "dominant"]))
def test_pseudo_state_yield_is_a_probability(mu, d, data, distance, model):
    j = data.draw(st.integers(0, d - 1), label="j")
    y = pseudo_state_yield(ChannelParams(), mu, [distance], d, j, model)[0]
    assert 0.0 <= y <= 1.0


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(mus=st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=8),
       distances=st.lists(st.floats(0.0, 600.0), min_size=1, max_size=6),
       d=st.sampled_from([4, 8, 36]), data=st.data())
def test_each_grid_row_is_the_one_point_call(mus, distances, d, data):
    # a (len(mu), len(distances)) table, whose row i has the bits of the call at mu[i];
    # a grid that is refused holds a point whose own call is refused the same way
    j = data.draw(st.integers(0, d - 1), label="j")
    c = ChannelParams()
    calls = {"eta": lambda mu: channel_stats(c, mu, distances).eta,
             "q_mu": lambda mu: channel_stats(c, mu, distances).q_mu,
             "e_mu": lambda mu: channel_stats(c, mu, distances).e_mu,
             "exact": lambda mu: pseudo_state_yield(c, mu, distances, d, j, "exact"),
             "dominant": lambda mu: pseudo_state_yield(c, mu, distances, d, j, "dominant"),
             "basis_fidelity_bound": lambda mu: basis_fidelity_bound(mu, d, j)}
    for name, call in calls.items():
        try:
            table = call(np.array(mus))
        except TYPED_ERRORS as exc:
            refused = []
            for mu in mus:
                try:
                    call(mu)
                except type(exc):
                    refused.append(mu)
            assert refused, (name, exc)
            continue
        if name == "eta":  # one row over distances, whatever mu is
            assert table.tobytes() == call(mus[0]).tobytes()
            continue
        assert table.shape == (len(mus),) + (len(distances),) * (name != "basis_fidelity_bound")
        for i, mu in enumerate(mus):
            assert table[i].tobytes() == np.asarray(call(mu)).tobytes(), (name, mu)


@PROPERTY
@given(protocol=st.sampled_from(PROTOCOLS), mu=st.floats(1e-3, 2.0),
       d=st.sampled_from([4, 8, 12, 36]))
def test_keyrate_never_rises_with_distance_and_stays_below_plob(protocol, mu, d):
    kwargs = {"nu": 4.0 * d * d, "eta_trigger_det": 0.12} if protocol == PSP_TRIGGERED else {}
    c = ChannelParams()
    source = d if protocol.startswith("psp-") else None  # the WCS protocols refuse a d
    rate = keyrate_curve(protocol, c, mu, DISTANCES, source, **kwargs).rate
    assert (np.diff(rate) <= 0.0).all()
    # the repeaterless (PLOB) bound on the secret-key rate per channel use
    assert (rate <= -np.log2(1.0 - transmission(c, DISTANCES))).all()


@PROPERTY
@given(d=st.integers(1, 16), mu=st.floats(1e-6, 20.0),
       eta=st.floats(0.0, 1.0, exclude_min=True))
def test_loss_weights_are_a_distribution(d, mu, eta):
    # the floor of the sum is the masses' own last-bit error; eta = 1 loses nothing
    for j in range(d):
        p = PSPParams(mu=mu, d=d, j=j)
        w = loss_channel(p, eta)
        assert ((0.0 <= w) & (w <= 1.0)).all()
        assert abs(w.sum() - 1.0) <= 1e-13
        assert np.array_equal(loss_channel(p, 1.0), np.eye(d)[j])


@PROPERTY
@given(mu=st.floats(1e-6, 20.0), d=st.sampled_from(range(4, 41, 4)), data=st.data())
def test_bb84_readout_is_a_distribution(mu, d, data):
    j, k = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    probs = measure_bb84(mu, d, j, k, data.draw(st.sampled_from("XY")))
    assert all(0.0 <= p <= 1.0 for p in probs)
    assert abs(sum(probs) - 1.0) <= 1e-15


# mu as the contract draws it: NaN, +-inf, zeros, subnormals, 1e+-300, a physical
# range, and any float at all
EDGE_MUS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                                      1e-310, 1e-300, 1e300, -1e300]),
                     st.floats(0.0, 50.0), st.floats())
TYPED_ERRORS = (ValueError, DegenerateStateError, TruncationError, NumericalDiagnosticError)
CONTRACT = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def contract(call, high=1.0):
    """call()'s values as a float array, each finite and in [0, high], or None when it
    raised one of the package's typed errors; a RuntimeWarning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            values = np.asarray(call(), dtype=float)
        except TYPED_ERRORS:
            return None
    assert np.isfinite(values).all() and ((0.0 <= values) & (values <= high)).all(), values
    return values


@CONTRACT
@given(n=st.one_of(st.integers(0, 2**20), st.integers(4000, 4200),
                   st.sampled_from([2**63, 2**64 - 1, 2**70])),
       ns=st.lists(st.integers(3900, 4300), max_size=8))
def log_factorial_contract(n, ns):
    # the bits of math.lgamma(n + 1) from the table, past it (past a C long too), and for
    # an array across its end
    assert log_factorial(n) == math.lgamma(n + 1.0)
    straddle = np.array(ns + [4095, 4096])
    assert log_factorial(straddle).tobytes() == np.array(
        [math.lgamma(k + 1.0) for k in straddle.tolist()]).tobytes()


@CONTRACT
@given(mu=st.one_of(EDGE_MUS, st.lists(EDGE_MUS, max_size=3)), d=st.integers(1, 64),
       data=st.data())
def state_contract(mu, d, data):
    # every mass table sums to 1, N lies in (0, d^2], g2 is finite and >= 0, and the
    # one-mu quantities are probabilities, the four BB84 ones summing to 1
    j = data.draw(st.integers(0, d - 1), label="j")
    masses = contract(lambda: residue_masses(mu, d))
    if masses is not None:
        assert (abs(masses.sum(axis=-1) - 1.0) <= 1e-12).all()
    contract(lambda: normalization(mu, d, j), high=d * d)
    contract(lambda: g2_zero_closed(mu, d), high=math.inf)
    if np.ndim(mu):
        return
    # n on the support (up to the largest uint64) or, at d > 1, next to it
    m = data.draw(st.one_of(st.integers(0, 5000), st.sampled_from([2**63 // d, 2**64 // d - 1])),
                  label="m")
    n = j + d * m + data.draw(st.integers(0, 1), label="off")
    contract(lambda: photon_number_probability(PSPParams(mu=mu, d=d, j=j), n))
    k, basis = data.draw(st.integers(0, d - 1), label="k"), data.draw(st.sampled_from("XY"))
    probs = contract(lambda: measure_bb84(mu, d, j, k, basis))
    if probs is not None:
        assert abs(probs.sum() - 1.0) <= 1e-12


def test_touched_functions_return_in_range_or_raise_typed_errors(isolated):
    # in a fresh interpreter, so a call that never returns fails at the timeout
    start = time.perf_counter()
    code, out = isolated(
        "import sys, traceback; sys.path.insert(0, %r); import test_properties as t\n"
        "try:\n    t.log_factorial_contract(); t.state_contract(); print('ok')\n"
        "except BaseException:\n    traceback.print_exc(file=sys.stdout)"
        % os.path.dirname(os.path.abspath(__file__)))
    assert (code, out) == (0, "ok")
    assert time.perf_counter() - start < 30.0
