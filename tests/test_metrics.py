"""g2(0) and Hong-Ou-Mandel numbers: closed forms against the number-basis oracle."""

import argparse
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import (fock_beam_splitter, g2_zero_oracle, hom_fock_oracle, psp_fock, psp_pair,
                    to_fock)
from pspsim import (
    NumericalDiagnosticError,
    PSPParams,
    TruncationError,
    basis_fidelity_bound,
    f2002,
    fidelity_to_number_state,
    g2_zero_closed,
    p11,
    photon_number_probability,
)
from pspsim import cli, metrics, pns, states
from pspsim.errors import _clamp_unit
from test_states import circle_expansion


def test_g2_equals_one_for_plain_coherent():
    for mu in (0.01, 0.5, 3.0, 50.0):
        assert abs(g2_zero_closed(mu, 1) - 1.0) < 1e-12


def test_g2_closed_vs_fock_oracle():
    for d in (2, 4, 8, 12):
        for mu in (0.1, 1.0, 5.0):
            closed = g2_zero_closed(mu, d)
            oracle = g2_zero_oracle(psp_fock(PSPParams(mu=mu, d=d, j=1)))
            assert abs(closed - oracle) < 1e-10 * max(1.0, abs(oracle))


def test_g2_frozen_point():
    assert abs(g2_zero_closed(0.01, 4) - 1.6666666651920272e-09) < 1e-17


def test_g2_small_mu_power_law():
    # leading order d mu^d / d!
    for d in (2, 3, 4):
        mu = 0.01
        expect = d * mu**d / math.factorial(d)
        assert abs(g2_zero_closed(mu, d) / expect - 1.0) < 0.02


def residue_series_g2(mu, d):
    """g2 of |1_d> as M_{d-1} M_1 / M_0^2 from 50-digit residue sums of Poisson(mu).

    <n(n-1)> = mu^2 M_{d-1} / M_1 and <n> = mu M_0 / M_1 on the support
    n = 1 (mod d): a sum of positive terms, with nothing to cancel.
    """
    import mpmath  # the test extra's referee; imported here so that only these tests need it

    with mpmath.workdps(50):
        m = mpmath.mpf(mu)
        masses = [mpmath.fsum(mpmath.exp(-m) * m**n / mpmath.factorial(n)
                              for n in range(r, 400, d)) for r in range(d)]
        return float(masses[d - 1] * masses[1] / masses[0] ** 2)


@pytest.mark.parametrize("d", [8, 12])
def test_g2_cancellation_noise_reads_zero_not_negative(d):
    # the phase sums cancel to noise: -6.7e-19 at d = 8, -1.3e-18 at d = 12,
    # where the true values are 2.0e-20 and 2.5e-32
    exact = residue_series_g2(0.01, d)
    value = g2_zero_closed(0.01, d)
    assert value >= 0.0
    assert abs(value - exact) < 1e-16
    # the referee agrees with the phase sums where they do not cancel
    assert abs(residue_series_g2(0.01, 4) - g2_zero_closed(0.01, 4)) < 1e-17


def test_g2_far_below_zero_is_a_numerical_failure(monkeypatch):
    # scaling the normalization by 1e8 lifts the d = 8 noise of -6.7e-19 past the tolerance
    monkeypatch.setattr(metrics, "normalization",
                        lambda mu, d, j: 1e8 * pns.normalization(mu, d, j))
    with pytest.raises(NumericalDiagnosticError, match="negative"):
        g2_zero_closed(0.01, 8)


def test_g2_rejects_bad_parameters():
    with pytest.raises(ValueError):
        g2_zero_closed(-1.0, 4)
    with pytest.raises(ValueError):
        g2_zero_closed(0.5, 0)


@pytest.mark.parametrize("mu", [math.inf, math.nan])
def test_g2_rejects_non_finite_mu_without_warning(mu):
    # the phase sum used to run first and print a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="mu must be finite"):
            g2_zero_closed(mu, 8)


# fig1's and fig4's default mu grids, and fig5's per-pulse mu/2 grid
ARRAY_GRIDS = [np.logspace(math.log10(0.01), math.log10(20.0), 200),
               np.logspace(math.log10(0.001), math.log10(1.0), 200),
               np.arange(0.05, 2.0001, 0.05) / 2.0]


@pytest.mark.parametrize("grid", ARRAY_GRIDS, ids=["fig1", "fig4", "fig5-half"])
@pytest.mark.parametrize("d", [4, 8, 12, 36])
@pytest.mark.parametrize("metric", [
    lambda mu, d: g2_zero_closed(mu, d),
    lambda mu, d: basis_fidelity_bound(mu, d, 0),
    lambda mu, d: basis_fidelity_bound(mu, d, 1),
], ids=["g2", "basis-fidelity-j0", "basis-fidelity-j1"])
def test_array_mu_equals_the_scalar_calls(metric, d, grid):
    # one residue table and one (len(mu), d) phase-sum array per call; every
    # entry keeps the scalar call's bits, and the first scalar failure (g2 at
    # d = 36 on the fig1 grid) is the array's
    values, first_error = [], None
    for mu in grid.tolist():
        try:
            values.append(metric(mu, d))
        except NumericalDiagnosticError as exc:
            first_error = first_error or str(exc)
            values.append(None)
    if first_error is None:
        assert metric(grid, d).tobytes() == np.array(values).tobytes()
    else:
        with pytest.raises(NumericalDiagnosticError) as raised:
            metric(grid, d)
        assert str(raised.value) == first_error
    ok = [v is not None for v in values]
    assert metric(grid[ok], d).tobytes() == np.array([v for v in values if v is not None]).tobytes()


def _g2_per_mu(mu, d):
    # the one-mu phase sums that the (len(mu), d) array replaced, kept as its bit reference
    ph = np.exp(2j * np.pi * np.arange(d) / d)
    ex = np.exp(mu * (ph - 1.0))
    a, b = d * np.sum(ph * ex), d * np.sum(ex)
    return max(float((pns.normalization(mu, d, 1 % d) * a / (b * b)).real), 0.0)


def _bound_per_mu(mu, d, j):
    q = np.arange(d)
    winv = np.exp(-2j * np.pi * q / d)
    terms = (np.exp(2j * np.pi * j * q / d) * np.exp(-2.0 * mu + mu * winv)
             * (np.exp(1j * mu * winv) + 1j * np.exp(-1j * mu * winv)))
    n = pns.normalization(2.0 * mu, d, j)
    return _clamp_unit(d * abs(np.sum(terms)) / (math.sqrt(2.0) * n), "bound")


@pytest.mark.parametrize("grid", ARRAY_GRIDS, ids=["fig1", "fig4", "fig5-half"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 12, 16, 36, 40, 64])
def test_array_phase_sums_keep_the_per_mu_bits(d, grid):
    # d >= 16 pins the bound only (fig5 reads it at d = 36): g2_zero_closed
    # refuses d = 36 on the fig1 grid
    mus = grid.tolist()
    if d <= 12:
        expect = np.array([_g2_per_mu(mu, d) for mu in mus])
        assert g2_zero_closed(grid, d).tobytes() == expect.tobytes()
    if d % 4 == 0:
        for j in range(4):
            assert (basis_fidelity_bound(grid, d, j).tobytes()
                    == np.array([_bound_per_mu(mu, d, j) for mu in mus]).tobytes())


def test_g2_oracle_rejects_two_mode_states():
    one = to_fock(*circle_expansion(PSPParams(mu=0.2, d=2, j=1)))
    fv = np.multiply.outer(one, one)
    with pytest.raises(ValueError):
        g2_zero_oracle(fv)


def test_clamp_guard():
    assert _clamp_unit(1.0 + 1e-14, "x") == 1.0
    assert _clamp_unit(-1e-14, "x") == 0.0
    assert type(_clamp_unit(0.5, "x")) is float
    with pytest.raises(NumericalDiagnosticError):
        _clamp_unit(1.01, "x")
    with pytest.raises(NumericalDiagnosticError):
        _clamp_unit(math.nan, "x")
    # an array is clamped entry by entry, and a refusal names its first failing entry
    clamped = _clamp_unit(np.array([0.25, 1.0 + 1e-14, -1e-14, 1.0]), "x")
    assert clamped.tolist() == [0.25, 1.0, 0.0, 1.0]
    assert _clamp_unit(np.array([[1.0 + 1e-14], [0.5]]), "x").tolist() == [[1.0], [0.5]]
    for bad, named in (([0.5, 1.01, -1e-14], r"1\.010000e\+00"), ([0.5, -1e-14, math.nan], "nan"),
                       ([math.nan, 1.01], "nan")):
        with pytest.raises(NumericalDiagnosticError, match=r"^x = %s falls" % named):
            _clamp_unit(np.array(bad), "x")


def test_hom_identical_frozen_points():
    p = PSPParams(mu=0.4, d=4, j=1)
    assert abs(p11(p, p) - 2.6657594135306805e-04) < 1e-15
    assert abs(f2002(p, p) - 0.999573466218153) < 1e-12
    p8 = PSPParams(mu=0.1, d=8, j=1)
    assert p11(p8, p8) < 1e-13
    assert f2002(p8, p8) > 1.0 - 1e-9


def test_hom_matches_fock_oracle():
    rng = np.random.default_rng(42)
    for _ in range(6):
        mu = float(rng.uniform(0.05, 1.5))
        d = int(rng.choice([2, 4, 8]))
        delta = float(rng.uniform(0.0, 1.0))
        p1 = PSPParams(mu=mu, d=d, j=1)
        p2 = PSPParams(mu=mu, d=d, j=1, delta=delta)
        p11_o, f2002_o = hom_fock_oracle(fock_beam_splitter(psp_pair(p1, p2), variant="X"))
        assert abs(p11(p1, p2) - p11_o) < 1e-10
        assert abs(f2002(p1, p2) - f2002_o) < 1e-10


def test_hom_coherent_inputs():
    # d = 1 inputs never produce coincidences on the balanced splitter and
    # the NOON weight is mu^2 e^(-2 mu)
    for mu in (0.1, 0.6):
        p = PSPParams(mu=mu, d=1, j=0)
        assert p11(p, p) < 1e-12
        assert abs(f2002(p, p) - mu**2 * math.exp(-2 * mu)) < 1e-10


def test_f2002_does_not_depend_on_source_offset():
    vals = []
    for delta in np.linspace(0.0, 0.5, 9):
        vals.append(f2002(PSPParams(mu=0.4, d=4, j=1),
                          PSPParams(mu=0.4, d=4, j=1, delta=float(delta))))
    assert max(vals) - min(vals) < 1e-12


def test_g2_tail_oscillation_band_counts():
    # the tail of g2(mu) oscillates around 1; on the standard sweep grid the
    # number of banded crossings and the upward first crossing are stable
    grid = np.logspace(np.log10(0.01), np.log10(20.0), 200)
    eps = 1e-6
    expect = {4: (4, 1.946), 8: (4, 3.078), 12: (3, 4.509)}
    for d, (count, first_mu) in expect.items():
        states = []
        crossing = None
        for mu in grid:
            g = g2_zero_closed(float(mu), d)
            s = 1 if g > 1 + eps else (-1 if g < 1 - eps else 0)
            if s != 0 and (not states or states[-1] != s):
                if states and crossing is None:
                    crossing = float(mu)
                states.append(s)
        assert len(states) - 1 == count
        assert states[0] == -1 and states[1] == 1
        assert abs(crossing - first_mu) < 0.01


def test_p11_dip_at_zero_offset():
    deltas = np.linspace(0.0, 0.5, 9)
    vals = []
    for delta in deltas:
        vals.append(p11(PSPParams(mu=0.4, d=4, j=1),
                        PSPParams(mu=0.4, d=4, j=1, delta=float(delta))))
    assert int(np.argmin(vals)) == 0
    assert int(np.argmax(vals)) == len(deltas) - 1
    assert abs(vals[-1] - 4.2651480440757295e-04) < 1e-12


@st.composite
def psp_params(draw):
    d = draw(st.integers(1, 6))
    return PSPParams(mu=draw(st.floats(0.05, 1.2)), d=d, j=draw(st.integers(0, d - 1)),
                     delta=draw(st.floats(0.0, 1.0)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(p1=psp_params(), p2=psp_params())
@example(p1=PSPParams(mu=0.3, d=1, j=0), p2=PSPParams(mu=0.9, d=1, j=0, delta=0.4))
def test_f2002_closed_form_matches_fock_oracle(p1, p2):
    # P1(1) P2(1) against the NOON amplitude of the number-basis output
    out = fock_beam_splitter(psp_pair(p1, p2), variant="X")
    assert abs(f2002(p1, p2) - hom_fock_oracle(out)[1]) <= 1e-12


def test_hom_builds_equal_inputs_once(monkeypatch):
    # equal inputs: one pass over one-point arrays and one residue pass each
    # for p11 and f2002; unequal inputs read each input's one-point arrays
    calls = {"circles": 0, "residues": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(metrics, "_circles", counted("circles", metrics._circles))
    monkeypatch.setattr(pns, "residue_masses", counted("residues", pns.residue_masses))
    p = PSPParams(mu=0.4, d=4, j=1)
    p11(p, p)
    f2002(p, p)
    assert calls == {"circles": 1, "residues": 2}
    q = PSPParams(mu=0.4, d=4, j=1, delta=0.25)
    p11(p, q)
    f2002(p, q)
    assert calls == {"circles": 3, "residues": 6}


def test_p11_gram_beyond_its_limit_is_refused(monkeypatch):
    # d = 4: equal inputs need a d^4 = 256-entry Gram matrix, unequal ones
    # (d d')^2 = 256 entries; a limit of 255 refuses both before allocating
    p, q = PSPParams(mu=0.4, d=4, j=1), PSPParams(mu=0.5, d=4, j=1)
    expect = p11(p, p), p11(p, q)
    monkeypatch.setattr(states, "GRAM_MAX_ENTRIES", 255)
    for pair in ((p, p), (p, q)):
        with pytest.raises(TruncationError, match="GRAM_MAX_ENTRIES"):
            p11(*pair)
    monkeypatch.setattr(states, "GRAM_MAX_ENTRIES", 256)
    assert (p11(p, p), p11(p, q)) == expect


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _circle_grid(mus, d, delta):
    # _circles on a mu grid, its masses read from one table as fig1 reads them
    return states._circles(mus, pns._nonzero_mass(mus, d, 1 % d), d, 1 % d, delta)


def _generic_projections(p1, p2):
    # the generic route of p11: one splitter-output build and three Gram projections
    (c1, l1), (c2, l2) = circle_expansion(p1), circle_expansion(p2)
    kets, labels = states._hom_outputs(c1[None], l1[None], c2[None], l2[None])
    return tuple(states._hom_projections(kets[0], labels[0]))


def _assert_equal_input_bits(mus, d, delta=0.0):
    # the one-pass evaluator against the generic route, point by point and bit for bit
    got = list(states._equal_input_projections(*_circle_grid(mus, d, delta)))
    assert len(got) == len(mus)
    for mu, values in zip(mus.tolist(), got):
        p = PSPParams(mu=mu, d=d, j=1 % d, delta=delta)
        assert values == _generic_projections(p, p)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8, 12])
def test_exchange_symmetric_projections_equal_full_gram(d):
    # only the Gram entries the input exchange does not repeat are
    # exponentiated, the rest are copies, so every projection keeps the bits
    # of the full Gram matrix
    for delta in (0.0, 0.37):
        _assert_equal_input_bits(np.logspace(-3, math.log10(20.0), 15), d, delta)


@pytest.mark.parametrize("d", [4, 8, 12])
def test_equal_input_projections_on_the_fig1_grid(d):
    _assert_equal_input_bits(ARRAY_GRIDS[0], d)


def test_fig1_p11_column_is_the_one_point_calls():
    # two grid states built apart compare equal, so they take the equal-input route
    mus = ARRAY_GRIDS[0][::20]
    for delta in (0.0, 0.37):
        grid = PSPParams(mu=mus, d=8, j=1, delta=delta)
        got = p11(grid, PSPParams(mu=mus, d=8, j=1, delta=delta)).tolist()
        params = [PSPParams(mu=mu, d=8, j=1, delta=delta) for mu in mus.tolist()]
        assert got == [p11(p, p) for p in params]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 12])
def test_every_fig1_column_is_the_one_point_calls(monkeypatch, d):
    # fig1's rows on a 10-point slice of its default grid against the public
    # one-point calls, bit for bit; its "fidelity" column is the one-photon
    # probability, the fidelity itself at d >= 2 (at d = 1, j = 0 holds n = 0)
    mus = ARRAY_GRIDS[0][::20]
    monkeypatch.setattr(cli, "_mu_grid", lambda args: mus)
    _, rows = cli._fig1_rows(argparse.Namespace(d_list=[d]))
    expect = []
    for mu in mus.tolist():
        p = PSPParams(mu=mu, d=d, j=1 % d)
        one = photon_number_probability(p, 1)
        if d > 1:
            assert one == fidelity_to_number_state(p)
        expect += [("fidelity", d, mu, one), ("g2", d, mu, g2_zero_closed(mu, d)),
                   ("p11", d, mu, p11(p, p)), ("f2002", d, mu, f2002(p, p))]
    assert _bits(np.array([r[2:] for r in rows])) == _bits(np.array([r[2:] for r in expect]))
    assert [r[:2] for r in rows] == [r[:2] for r in expect]


def _assert_pointwise(got, mus, one_point):
    # a grid call's array against the one-point calls at each mu, bit for bit
    assert _bits(got) == _bits(np.array([one_point(mu) for mu in mus.tolist()]))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 12])
def test_grid_states_give_the_one_point_calls(d):
    mus, j = ARRAY_GRIDS[0][::20], 1 % d
    with_zeros = np.concatenate([[0.0], mus[:4], [0.0]])  # j = 0 allows mu = 0, the vacuum
    for n in range(2 * d + 2):  # on and off the support
        _assert_pointwise(photon_number_probability(PSPParams(mus, d, j), n), mus,
                          lambda mu: photon_number_probability(PSPParams(mu, d, j), n))
        _assert_pointwise(photon_number_probability(PSPParams(with_zeros, d, 0), n), with_zeros,
                          lambda mu: photon_number_probability(PSPParams(mu, d, 0), n))
    _assert_pointwise(fidelity_to_number_state(PSPParams(mus, d, j)), mus,
                      lambda mu: fidelity_to_number_state(PSPParams(mu, d, j)))
    other = PSPParams(mu=0.7, d=3, j=1, delta=0.2)
    for delta in (0.0, 0.37):
        p = PSPParams(mus, d, j, delta)
        for got, one_point in [(p11(p, p), lambda q: p11(q, q)),
                               (f2002(p, p), lambda q: f2002(q, q)),
                               # unequal inputs: a grid against a number, both ways
                               (p11(p, other), lambda q: p11(q, other)),
                               (p11(other, p), lambda q: p11(other, q)),
                               (f2002(p, other), lambda q: f2002(q, other))]:
            _assert_pointwise(got, mus, lambda mu: one_point(PSPParams(mu, d, j, delta)))
        # two grids of one length: entry k pairs their k-th states
        shifted = PSPParams(mus[::-1], d, j, 0.1)
        expect = [p11(PSPParams(a, d, j, delta), PSPParams(b, d, j, 0.1))
                  for a, b in zip(mus.tolist(), mus[::-1].tolist())]
        assert _bits(p11(p, shifted)) == _bits(np.array(expect))


def test_grid_states_of_two_lengths_are_refused():
    p, q = PSPParams(mu=[0.1, 0.2], d=4, j=1), PSPParams(mu=[0.1, 0.2, 0.3], d=4, j=1)
    for metric in (p11, f2002):
        with pytest.raises(ValueError):
            metric(p, q)


def test_infinite_d_is_refused_before_its_mass_is_read():
    p = PSPParams(mu=0.4, d=math.inf, j=1)
    for call in (lambda: circle_expansion(p), lambda: p11(p, p),
                 lambda: p11(PSPParams(mu=0.4, d=4, j=1), p)):
        with pytest.raises(ValueError, match="d -> infinity limit has no finite coherent"):
            call()


def test_only_equal_hom_inputs_take_the_exchange_path(monkeypatch):
    seen = []

    def recorded(name, func):
        def wrapper(*args):
            seen.append(name)
            return func(*args)
        return wrapper

    monkeypatch.setattr(metrics, "_equal_input_projections",
                        recorded("equal", states._equal_input_projections))
    monkeypatch.setattr(metrics, "_hom_projections", recorded("full", states._hom_projections))
    p = PSPParams(mu=0.4, d=4, j=1)
    p11(p, p)
    assert seen == ["equal"]
    p11(p, PSPParams(mu=0.4, d=4, j=1, delta=0.25))
    p11(p, PSPParams(mu=0.5, d=4, j=1))
    p11(p, PSPParams(mu=0.4, d=8, j=1))
    assert seen == ["equal", "full", "full", "full"]


def test_hom_fock_oracle_sums_coincidences():
    # the oracle's p11 is the nonnegative sum over n_a, n_b >= 1; on the
    # output of identical coherent inputs it is 0 up to the number-basis
    # splitter's rounding (about 6e-34 here)
    one = to_fock(np.ones(1), np.array([0.6]))
    out = fock_beam_splitter(np.multiply.outer(one, one), "X")
    p11_o, _ = hom_fock_oracle(out)
    p = np.abs(out) ** 2
    assert 0.0 <= p11_o < 1e-12
    assert abs(p11_o - (1.0 - p[0, :].sum() - p[:, 0].sum() + p[0, 0])) < 1e-12


# p11 of unequal inputs as the CLI builds them (j = 1 % d), pinned bit for bit: the
# three benchmark queries (--d 8 --mu2 1), one --delta, one --delta2 and one --d2 case
UNEQUAL_P11 = [
    ((0.3, 8, 0.0), (1.0, 8, 0.0), 2.7012069332398684e-06),
    ((0.6, 8, 0.0), (1.0, 8, 0.0), 2.7333322609185965e-06),
    ((2.0, 8, 0.0), (1.0, 8, 0.0), 0.0006921794687317348),
    ((1.0, 8, 0.37), (1.0, 8, 0.0), 5.47748126861164e-06),
    ((1.0, 8, 0.0), (1.3, 8, 0.2), 2.4646621870293793e-05),
    ((1.0, 8, 0.0), (0.7, 3, 0.0), 0.00971110854553037),
]


@pytest.mark.parametrize("first, second, expect", UNEQUAL_P11)
def test_unequal_p11_keeps_its_bits(first, second, expect):
    p1, p2 = (PSPParams(mu=mu, d=d, j=1 % d, delta=delta) for mu, d, delta in (first, second))
    assert p11(p1, p2) == expect


@pytest.mark.parametrize("first, second", [
    ((5e-324, 8), (5e-324, 8)), ((1e-300, 3), (1e-300, 3)), ((5e-324, 8), (1e-300, 8))])
def test_p11_at_tiny_mu_is_a_typed_error_without_warning(first, second):
    # the contraction overflows: it used to raise a RuntimeWarning (an error in this suite)
    # before the NaN reached the clamp, and the mixed pair a ValueError on a non-finite label
    p1, p2 = (PSPParams(mu=mu, d=d, j=1) for mu, d in (first, second))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalDiagnosticError, match="p11 = nan"):
            p11(p1, p2)


def test_coherent_states_read_exact_g2_and_p11_on_the_fig1_grid():
    # at d = 1 the residue mass is exactly 1, so g2 is exactly 1 and p11 is 0 up to
    # the rounding of 1 - va - vb + vab; the summed mass used to read 1 + 4.2e-15
    grid = ARRAY_GRIDS[0]
    assert (g2_zero_closed(grid, 1) == 1.0).all()
    assert all(g2_zero_closed(mu, 1) == 1.0 for mu in grid[::20].tolist())
    values = p11(PSPParams(mu=grid, d=1, j=0), PSPParams(mu=grid, d=1, j=0))
    assert max(values) <= 2**-52
    assert all(p11(p, p) <= 2**-52 for p in (PSPParams(mu=mu, d=1, j=0) for mu in grid[::20].tolist()))


def test_both_p11_routes_build_the_output_with_hom_outputs(monkeypatch):
    # one splitter-output builder: the exchange evaluator passes the same arrays twice,
    # unequal inputs their two one-point rows
    seen = []

    def recorded(c1, l1, c2, l2):
        seen.append(c1 is c2 and l1 is l2)
        return hom_outputs(c1, l1, c2, l2)

    hom_outputs = states._hom_outputs
    monkeypatch.setattr(states, "_hom_outputs", recorded)
    monkeypatch.setattr(metrics, "_hom_outputs", recorded)
    p = PSPParams(mu=0.4, d=4, j=1)
    p11(p, p)
    p11(p, PSPParams(mu=0.5, d=4, j=1))
    assert seen == [True, False]
