"""Coherent-superposition machinery against closed forms and the Fock path."""

import itertools
import math
import warnings

import numpy as np
import pytest

from pspsim import (
    CoherentSuperposition,
    NumericalDiagnosticError,
    PSPParams,
    TruncationError,
    auto_cutoff,
    beam_splitter,
    coherent_overlap,
    coherent_state,
    fock_amplitude,
    fock_beam_splitter,
    fock_inner,
    inner_product,
    norm,
    pseudo_number_state,
    tensor,
    to_fock,
    vacuum_probabilities,
)
from pspsim import states
from pspsim.states import _LOG_FACTORIALS, log_factorial

from oracle import density, thinned_density, uhlmann_fidelity


def test_coherent_overlap_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        expect = np.exp(-0.5 * (abs(a) ** 2 + abs(b) ** 2) + np.conj(a) * b)
        assert abs(coherent_overlap(a, b) - expect) < 1e-14


def test_fock_amplitude_matches_poisson():
    alpha = 0.7 + 0.2j
    mu = abs(alpha) ** 2
    for n in range(8):
        expect = np.exp(-mu / 2) * alpha**n / math.sqrt(math.factorial(n))
        assert abs(fock_amplitude(alpha, n) - expect) < 1e-14


def test_fock_amplitude_broadcasts_over_alpha():
    alphas = np.array([0.0, 0.7 + 0.2j, -1.3j, 1e-3, 4.0 - 2.5j])
    ns = np.arange(12)
    table = fock_amplitude(alphas[:, None], ns)
    assert table.shape == (alphas.size, ns.size)
    for i, a in enumerate(alphas):
        for n in ns:
            scalar = fock_amplitude(a, n)
            assert abs(table[i, n] - scalar) <= 1e-15 * abs(scalar)
    # the vacuum has amplitude exactly 1 at n = 0 and exactly 0 elsewhere
    assert table[0, 0] == 1.0
    assert not table[0, 1:].any()
    assert fock_amplitude(0.0, 0) == 1.0 and fock_amplitude(0.0, 3) == 0.0


@pytest.mark.parametrize("n", [2.5, 2.0, True, np.array([1.0, 2.0]), np.array([True, False])])
def test_fock_amplitude_rejects_non_integer_n(n):
    # 2.5 used to give an amplitude for a photon number that does not exist,
    # and True was read as n = 1
    with pytest.raises(ValueError, match="integer"):
        fock_amplitude(0.5, n)


def test_log_factorial_table_matches_gammaln():
    from scipy.special import gammaln

    ns = np.arange(4096)
    expect = gammaln(ns + 1.0)
    assert _LOG_FACTORIALS.shape == ns.shape
    np.testing.assert_allclose(_LOG_FACTORIALS, expect, rtol=1e-15, atol=0)
    np.testing.assert_array_equal(log_factorial(ns), _LOG_FACTORIALS)
    # past the table, and an array that straddles its end
    np.testing.assert_array_equal(log_factorial(70000), gammaln(70001.0))
    np.testing.assert_array_equal(log_factorial(np.array([3, 4095, 4096, 70000])),
                                  gammaln(np.array([4.0, 4096.0, 4097.0, 70001.0])))


def _fock_amplitude_xlogy(alpha, n):
    """<n|alpha> by the scipy.special xlogy / gammaln formula, and its tolerance.

    The tolerance is 1e-14 relative plus what the table's own difference
    from gammaln moves the amplitude by: exp turns the one-ulp difference in
    log(4095!) ~ 3e4 into 1.8e-12 relative.
    """
    from scipy.special import gammaln, xlogy

    n = np.asarray(n)
    r = np.abs(alpha)
    log_fact = gammaln(n + 1.0)
    amp = np.exp(-0.5 * r**2 + xlogy(n, r) - 0.5 * log_fact) * np.exp(1j * np.angle(alpha) * n)
    in_table = np.where(n < 4096, _LOG_FACTORIALS[np.minimum(n, 4095)], log_fact)
    return amp, (1e-14 + 0.5 * np.abs(in_table - log_fact)) * np.abs(amp)


@pytest.mark.parametrize("n", [0, 1, 7, 4095, 4096, 70000])
def test_fock_amplitude_matches_xlogy_gammaln_formula(n):
    # alpha near sqrt(n) keeps the amplitude far from underflow
    for alpha in (math.sqrt(n) * np.exp(0.3j), 0.8 * math.sqrt(n) + 0.1, 0.7 - 0.2j):
        expect, tol = _fock_amplitude_xlogy(alpha, n)
        assert abs(fock_amplitude(alpha, n) - expect) <= tol
    ns = np.array([0, 3, 4095, 4096, 70000])
    alphas = np.array([0.5, 60.0 - 20.0j, 64.0, 64.0j, 264.0])
    expect, tol = _fock_amplitude_xlogy(alphas, ns)
    assert (np.abs(fock_amplitude(alphas, ns) - expect) <= tol).all()


def test_fock_amplitude_is_exact_at_zero_alpha():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fock_amplitude(0.0, 0) == 1.0
        assert not fock_amplitude(0.0, np.arange(1, 5000)).any()
        table = fock_amplitude(np.array([0.0, 0.0j, 0.3])[:, None], np.array([0, 1, 4096]))
    assert table[0, 0] == table[1, 0] == 1.0
    assert not table[:2, 1:].any()
    assert abs(table[2, 0] - math.exp(-0.045)) < 1e-15


def test_norm_and_inner_product():
    s = coherent_state(0.3 + 0.1j)
    assert abs(norm(s) - 1.0) < 1e-14
    t = coherent_state(-0.2)
    assert abs(inner_product(s, t) - coherent_overlap(0.3 + 0.1j, -0.2)) < 1e-14


def test_superposition_norm():
    # odd cat: |a> - |-a>, normalized by hand
    a = 0.6
    n2 = 2.0 - 2.0 * coherent_overlap(a, -a).real
    s = CoherentSuperposition(np.array([1.0, -1.0]) / math.sqrt(n2),
                              np.array([[a], [-a]]))
    assert abs(norm(s) - 1.0) < 1e-14


def test_tensor_mode_count_and_overlap_factorizes():
    s = tensor(coherent_state(0.5), coherent_state(0.2j))
    t = tensor(coherent_state(0.1), coherent_state(0.3))
    assert s.mode_count == 2
    expect = coherent_overlap(0.5, 0.1) * coherent_overlap(0.2j, 0.3)
    assert abs(inner_product(s, t) - expect) < 1e-14


@pytest.mark.parametrize("variant", ["X", "Y"])
def test_beam_splitter_preserves_norm(variant):
    rng = np.random.default_rng(11)
    for _ in range(5):
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        labels = rng.normal(size=(3, 2)) * 0.5
        s = CoherentSuperposition(c / math.sqrt(np.sum(np.abs(c) ** 2) * 3), labels)
        out = beam_splitter(s, variant)
        assert abs(norm(out) - norm(s)) < 1e-12
    with pytest.raises(ValueError, match="two modes"):
        beam_splitter(coherent_state(0.5), variant)


def test_x_beam_splitter_merges_identical_coherent_inputs():
    # |a>|a> -> all light in one port, the other exactly dark
    a = 0.4
    out = beam_splitter(tensor(coherent_state(a), coherent_state(a)), "X")
    empty0, empty1 = vacuum_probabilities(out, [(0,), (1,)])
    lo, hi = sorted([empty0, empty1])
    assert abs(hi - 1.0) < 1e-12
    assert abs(lo - np.exp(-2 * a * a)) < 1e-12


def test_vacuum_probability_coherent():
    a = 0.9
    s = coherent_state(a)
    assert abs(vacuum_probabilities(s, [(0,)])[0] - np.exp(-a * a)) < 1e-13


def _old_vacuum_probability(state, modes):
    """The projection as one exponent matrix, zeros plus kept-mode cross terms plus norms."""
    labels = state.labels
    ex = -0.5 * np.sum(np.abs(labels) ** 2, axis=1)
    cross = np.zeros((state.term_count, state.term_count), dtype=complex)
    for m in range(state.mode_count):
        if m not in modes:
            cross += np.conj(labels[:, m])[:, None] * labels[None, :, m]
    gram = np.exp(ex[:, None] + ex[None, :] + cross)
    return float(complex(np.conj(state.coeffs) @ gram @ state.coeffs).real)


@pytest.mark.parametrize("modes", [2, 3])
def test_vacuum_probabilities_equal_single_projections_exactly(modes):
    rng = np.random.default_rng(5 + modes)
    mode_sets = [m for k in range(modes + 1) for m in itertools.combinations(range(modes), k)]
    for terms in (1, 4, 9):
        c = rng.normal(size=terms) + 1j * rng.normal(size=terms)
        labels = (rng.normal(size=(terms, modes)) + 1j * rng.normal(size=(terms, modes))) * 0.6
        labels[0, 0] = 0.0  # a vacuum label: norm and cross terms of exactly zero
        s = CoherentSuperposition(c, labels)
        together = vacuum_probabilities(s, mode_sets)
        for k, m in enumerate(mode_sets):
            alone = vacuum_probabilities(s, [m])[0]
            assert alone == together[k] == _old_vacuum_probability(s, m)
    # the package's index policy: a bool, a float and a mode past the last
    # are refused, where True and 1.0 read as mode 1 and 1.5 as no mode at all
    for bad in ((modes,), (True,), (1.0,), (1.5,)):
        with pytest.raises(ValueError, match="mode indices"):
            vacuum_probabilities(s, [(0,), bad])


def _old_pair_exponents(x_labels, y_labels):
    """The overlap exponents as one expression, norms plus cross terms summed from zeros."""
    ex = -0.5 * np.sum(np.abs(x_labels) ** 2, axis=1)
    ey = -0.5 * np.sum(np.abs(y_labels) ** 2, axis=1)
    cross = np.zeros((x_labels.shape[0], y_labels.shape[0]), dtype=complex)
    for mode in range(x_labels.shape[1]):
        cross += np.conj(x_labels[:, mode])[:, None] * y_labels[None, :, mode]
    return ex[:, None] + ey[None, :] + cross


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_inner_product_keeps_the_one_expression_bits(modes):
    # the kernel adds the norms to the summed cross terms in place: a + b == b + a
    rng = np.random.default_rng(11 + modes)
    for terms in ((1, 3), (4, 4), (7, 2)):
        x, y = [CoherentSuperposition(
            rng.normal(size=t) + 1j * rng.normal(size=t),
            (rng.normal(size=(t, modes)) + 1j * rng.normal(size=(t, modes))) * 0.7)
            for t in terms]
        labels = np.array(x.labels)
        labels[0, 0] = 0.0  # a vacuum label: norm and cross terms of exactly zero
        x = CoherentSuperposition(x.coeffs, labels)
        gram = np.exp(_old_pair_exponents(x.labels, y.labels))
        assert inner_product(x, y) == complex(np.conj(x.coeffs) @ gram @ y.coeffs)


def test_gram_beyond_its_limit_is_refused_before_allocation(monkeypatch):
    # 9 terms make an 81-entry Gram matrix; 64 entries are allowed
    monkeypatch.setattr(states, "GRAM_MAX_ENTRIES", 64)
    s = CoherentSuperposition(np.ones(9), np.linspace(0.1, 0.9, 9))
    with pytest.raises(TruncationError, match="GRAM_MAX_ENTRIES"):
        vacuum_probabilities(s, [(0,)])
    with pytest.raises(TruncationError, match="GRAM_MAX_ENTRIES"):
        inner_product(s, s)
    assert vacuum_probabilities(CoherentSuperposition(np.ones(8), np.ones(8)), [()])[0] == 64.0


def test_to_fock_reproduces_inner_products():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, b = rng.normal(size=2) * 0.8
        s, t = coherent_state(a), coherent_state(b)
        cutoff = auto_cutoff(max(abs(a), abs(b)) ** 2)
        lhs = fock_inner(to_fock(s, cutoff=cutoff), to_fock(t, cutoff=cutoff))
        assert abs(lhs - inner_product(s, t)) < 1e-12


def test_auto_cutoff_covers_poisson_tail():
    for lam in (0.1, 1.0, 5.0, 20.0):
        c = auto_cutoff(lam)
        from scipy.stats import poisson

        assert poisson.sf(c - 2, lam) < 1e-12


def reference_cutoff(lam, tail_tol=1e-14, guard=2):
    """The cutoff rule evaluated with scipy.stats.poisson."""
    from scipy.stats import poisson

    n = int(poisson.isf(tail_tol, lam))
    while poisson.sf(n, lam) >= tail_tol:
        n += 1
    while n > 0 and poisson.sf(n - 1, lam) < tail_tol:
        n -= 1
    return n + guard


def test_auto_cutoff_matches_scipy_stats_reference():
    for lam in np.logspace(-4, 3, 120):
        assert auto_cutoff(lam) == reference_cutoff(lam)


def test_import_skips_scipy_stats_and_linalg(isolated):
    # both are slow to import, and only the oracles in states need scipy.linalg
    assert isolated("import sys, pspsim; print(sorted(m for m in ('scipy.stats', "
                    "'scipy.linalg') if m in sys.modules))") == (0, "[]")


def test_production_paths_never_import_scipy(isolated):
    # scipy.special alone was most of a cold start; only the oracles need scipy
    code, out = isolated(
        "import os, sys, tempfile\n"
        "import pspsim, pspsim.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "print(loaded())\n"
        "pspsim.cli.main(['compute', 'g2', '--d', '8', '--mu', '0.05'])\n"
        "print(loaded())\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    pspsim.cli.main(['fig4', '--mu-points', '3', '--d-list', '4', '8',\n"
        "                     '--out', os.path.join(tmp, 'fig4.csv')])\n"
        "    print(loaded())\n"
        "    pspsim.cli.main(['fig5', '--optimize-mu', '--l-max', '40', '--l-step', '20',\n"
        "                     '--out', os.path.join(tmp, 'fig5.csv')])\n"
        "    print(loaded())\n"
        "    pspsim.cli.main(['fig1', '--mu-points', '2', '--out', os.path.join(tmp, 'fig1.csv')])\n"
        "    print(loaded())\n"
        "pspsim.cli.main(['compute', 'f2002', '--d', '40'])\n"
        "print(loaded())\n"
        "pspsim.cli.main(['compute', 'p11', '--d', '8', '--mu2', '1'])\n"
        "print(loaded())\n")
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("[")] == ["[]"] * 7


@pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(0.5, math.inf)])
def test_fock_amplitude_rejects_non_finite_alpha(alpha):
    # used to return nan+nanj
    with pytest.raises(ValueError, match="finite"):
        fock_amplitude(alpha, 2)
    with pytest.raises(ValueError, match="finite"):
        fock_amplitude(np.array([0.5, alpha]), 2)


@pytest.mark.parametrize("a, b", [(math.inf, 0.0), (math.nan, 0.0), (0.5, complex(0.0, math.inf)),
                                  (np.array([0.5, math.nan]), 0.5)])
def test_coherent_overlap_rejects_non_finite_amplitudes(a, b):
    # inf warned "invalid value", and nan returned nan+nanj
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            coherent_overlap(a, b)


def test_fock_amplitude_at_huge_alpha_is_zero_without_warning():
    # |alpha|**2 overflows to inf, which used to warn on the way to the amplitude 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fock_amplitude(1e200, 3) == 0.0
        assert fock_amplitude(1e200j, 0) == 0.0
        assert (fock_amplitude(np.array([1e200, 0.5]), 2) == [0.0, fock_amplitude(0.5, 2)]).all()


def test_fock_size_guards(isolated):
    # auto_cutoff(1e17) never returned (n += 1 cannot move float(n) past 2**53),
    # auto_cutoff(inf) raised OverflowError, and a two-mode state at intensity
    # 1e6 asked for about 1e12 amplitudes; each must now fail at once
    code, out = isolated(
        "import math\n"
        "from pspsim import *\n"
        "from pspsim.states import FOCK_MAX_DIM\n"
        "calls = [lambda: auto_cutoff(1e17), lambda: auto_cutoff(math.inf),\n"
        "         lambda: auto_cutoff(math.nan), lambda: to_fock(coherent_state(1e3, 1e3)),\n"
        "         lambda: to_fock(coherent_state(0.1, 0.1), cutoff=FOCK_MAX_DIM)]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__)\n")
    assert code == 0
    assert out.split() == ["TruncationError", "ValueError", "ValueError", "TruncationError",
                           "TruncationError"]


def test_to_fock_truncation_guard():
    s = coherent_state(3.0)
    with pytest.raises(TruncationError):
        to_fock(s, cutoff=2)
    # a many-term superposition, whose largest |label|^2 sets the tail
    with pytest.raises(TruncationError, match="Poisson tail"):
        to_fock(pseudo_number_state(PSPParams(mu=9.0, d=4, j=1)), cutoff=2)


def test_fock_beam_splitter_matches_coherent_path():
    rng = np.random.default_rng(19)
    for _ in range(4):
        a, b = rng.normal(size=2) * 0.6 + 1j * rng.normal(size=2) * 0.3
        s = tensor(coherent_state(a), coherent_state(b))
        cutoff = auto_cutoff(2.0 * max(abs(a), abs(b)) ** 2)
        out_c = to_fock(beam_splitter(s, "X"), cutoff=cutoff)
        out_f = fock_beam_splitter(to_fock(s, cutoff=cutoff), variant="X")
        ov = fock_inner(out_c, out_f)
        assert abs(abs(ov) - 1.0) < 1e-9


def test_uhlmann_fidelity_pure_states():
    # root convention: Tr sqrt(sqrt(rho) sigma sqrt(rho))
    v = np.zeros(6)
    v[1] = 1.0
    w = np.zeros(6)
    w[2] = 1.0
    rho = np.outer(v, v)
    sigma = np.outer(w, w)
    assert abs(uhlmann_fidelity(rho, rho) - 1.0) < 1e-12
    assert uhlmann_fidelity(rho, sigma) < 1e-12
    mix = 0.5 * rho + 0.5 * sigma
    assert abs(uhlmann_fidelity(rho, mix) - math.sqrt(0.5)) < 1e-12


def test_uhlmann_fidelity_stays_in_unit_interval():
    # the lossy output of |1_8> at mu=0.2, eta=0.9 is rank deficient; its
    # eigenvalue square roots used to sum to 1.0000000046 against itself
    rho = thinned_density(density(PSPParams(mu=0.2, d=8, j=1), auto_cutoff(0.2) + 4), 0.9)
    f = uhlmann_fidelity(rho, rho)
    assert 1.0 - 1e-7 < f <= 1.0
    # an excursion far beyond rounding is reported, not clamped away
    with pytest.raises(NumericalDiagnosticError):
        uhlmann_fidelity(rho, 2.0 * rho)


def test_uhlmann_fidelity_pure_overlap():
    # for pure states the root convention returns |<v|w>|
    rng = np.random.default_rng(23)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    w = rng.normal(size=5) + 1j * rng.normal(size=5)
    v /= np.linalg.norm(v)
    w /= np.linalg.norm(w)
    rho = np.outer(v, np.conj(v))
    sigma = np.outer(w, np.conj(w))
    expect = abs(np.vdot(v, w))
    # rank-deficient matrix square roots limit accuracy here
    assert abs(uhlmann_fidelity(rho, sigma) - expect) < 1e-7
