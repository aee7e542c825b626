"""Coherent-superposition machinery against closed forms and the number-basis oracle."""

import ast
import glob
import inspect
import itertools
import math
import os
import re
import warnings

import numpy as np
import pytest

import pspsim
import referee
from oracle import (TAIL_TOL, auto_cutoff, density, fock_amplitude, fock_beam_splitter,
                    psp_cutoff, psp_fock, thinned_density, to_fock, uhlmann_fidelity)
from pspsim import (
    CoherentSuperposition,
    NumericalDiagnosticError,
    PSPParams,
    TruncationError,
    beam_splitter,
    coherent_state,
    inner_product,
    norm,
    pseudo_number_state,
    tensor,
    vacuum_probabilities,
)
from pspsim import states
from pspsim.states import _LOG_FACTORIALS, log_factorial

TESTS = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(TESTS, os.pardir, "src", "pspsim")


def overlap(a, b):
    """<a|b> of two one-mode coherent states, the closed form of the conventions."""
    return np.exp(-0.5 * (abs(a) ** 2 + abs(b) ** 2) + np.conj(a) * b)


def test_coherent_overlap_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert abs(inner_product(coherent_state(a), coherent_state(b)) - overlap(a, b)) < 1e-14


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
    # log_factorial is math.lgamma(n + 1) bit for bit, from the table or past
    # it, and within 3 ulp of scipy's gammaln everywhere
    from scipy.special import gammaln

    ns = np.arange(4096)
    assert _LOG_FACTORIALS.shape == ns.shape
    np.testing.assert_array_equal(log_factorial(ns), [math.lgamma(n + 1.0) for n in range(4096)])
    # past the table, and an array that straddles its end
    past = np.array([3, 4095, 4096, 70000, 2**20])
    assert log_factorial(70000) == math.lgamma(70001.0)
    np.testing.assert_array_equal(log_factorial(past),
                                  [math.lgamma(n + 1.0) for n in past.tolist()])
    for n in (ns, past):
        np.testing.assert_array_max_ulp(log_factorial(n), gammaln(n + 1.0), maxulp=3)


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
    assert abs(inner_product(s, t) - overlap(0.3 + 0.1j, -0.2)) < 1e-14


def test_superposition_norm():
    # odd cat: |a> - |-a>, normalized by hand
    a = 0.6
    n2 = 2.0 - 2.0 * overlap(a, -a).real
    s = CoherentSuperposition(np.array([1.0, -1.0]) / math.sqrt(n2),
                              np.array([[a], [-a]]))
    assert abs(norm(s) - 1.0) < 1e-14


def test_tensor_mode_count_and_overlap_factorizes():
    s = tensor(coherent_state(0.5), coherent_state(0.2j))
    t = tensor(coherent_state(0.1), coherent_state(0.3))
    assert s.mode_count == 2
    expect = overlap(0.5, 0.1) * overlap(0.2j, 0.3)
    assert abs(inner_product(s, t) - expect) < 1e-14


def test_beam_splitter_preserves_norm():
    rng = np.random.default_rng(11)
    for _ in range(5):
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        labels = rng.normal(size=(3, 2)) * 0.5
        s = CoherentSuperposition(c / math.sqrt(np.sum(np.abs(c) ** 2) * 3), labels)
        out = beam_splitter(s)
        assert abs(norm(out) - norm(s)) < 1e-12
    with pytest.raises(ValueError, match="two modes"):
        beam_splitter(coherent_state(0.5))


def test_x_beam_splitter_merges_identical_coherent_inputs():
    # |a>|a> -> all light in one port, the other exactly dark
    a = 0.4
    out = beam_splitter(tensor(coherent_state(a), coherent_state(a)))
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
        lhs = np.vdot(to_fock(s, cutoff=cutoff), to_fock(t, cutoff=cutoff))
        assert abs(lhs - inner_product(s, t)) < 1e-12


def test_auto_cutoff_covers_poisson_tail():
    for lam in (0.1, 1.0, 5.0, 20.0):
        c = auto_cutoff(lam)
        from scipy.stats import poisson

        assert poisson.sf(c - 2, lam) < 1e-12


@pytest.mark.parametrize("mu, d, j", [(1e-3, 8, 7), (0.05, 12, 11)])
def test_psp_fock_is_normalized_where_the_coherent_sum_is_not(mu, d, j):
    # to_fock of the d-term coherent sum had squared norm 1 + 1.1e-6 at
    # (1e-3, 8, 7), cutoff 30, and picked cutoff 9 < j at (0.05, 12, 11),
    # returning squared norm 3.3e-8 without an error
    amps = psp_fock(PSPParams(mu=mu, d=d, j=j))
    assert amps.size - 1 >= j
    assert abs(np.vdot(amps, amps).real - 1.0) <= 1e-15
    assert not amps[np.arange(amps.size) % d != j].any()


@pytest.mark.parametrize("mu, d, j, cutoff, found", [(1e-3, 8, 7, 30, "1.0000011"),
                                                     (0.05, 12, 11, None, "3.34")])
def test_to_fock_refuses_an_expansion_that_misses_the_norm(mu, d, j, cutoff, found):
    # the coherent sum cancels to squared norm 1 + 1.1e-6 at (1e-3, 8, 7), and auto_cutoff
    # picks 9 < j at (0.05, 12, 11), keeping squared norm 3.3e-8; both used to be returned.
    # The Gram-matrix norm cancels there too (1.05e8 and 0), so neither can pass for it
    with pytest.raises(TruncationError, match="squared norm %s" % found):
        to_fock(pseudo_number_state(PSPParams(mu=mu, d=d, j=j)), cutoff)


def test_psp_fock_keeps_the_support_tail_below_tail_tol():
    # auto_cutoff(2) = 22 leaves a relative support tail of 6.3e-12 at (2, 12, 11)
    mu, d, j = 2.0, 12, 11
    cutoff = psp_cutoff(PSPParams(mu=mu, d=d, j=j))
    assert cutoff % d == j
    tail = sum(referee.poisson(mu, n) for n in range(cutoff + d, cutoff + 20 * d, d))
    assert tail < TAIL_TOL * referee.residue_masses(mu, d)[j]


def test_psp_fock_matches_to_fock_where_the_coherent_sum_is_stable():
    for d in (1, 2, 3, 4, 8, 12):
        for j in sorted({0, 1 % d}):
            for mu in (0.05, 0.2, 0.7, 1.5, 3.0, 5.0):
                for delta in (0.0, 0.37):
                    p = PSPParams(mu=mu, d=d, j=j, delta=delta)
                    cutoff = max(psp_cutoff(p), auto_cutoff(mu))
                    expand = to_fock(pseudo_number_state(p), cutoff)
                    assert np.max(np.abs(psp_fock(p, cutoff) - expand)) < 1e-14


def test_psp_fock_refuses_a_cutoff_below_its_rule():
    p = PSPParams(mu=0.2, d=8, j=1)
    assert psp_fock(p, psp_cutoff(p) + 3).size == psp_cutoff(p) + 4
    with pytest.raises(TruncationError, match="below"):
        psp_fock(p, psp_cutoff(p) - 1)


def test_package_depends_on_numpy_alone():
    # no module under src/pspsim imports scipy or defines an oracle name, and
    # pyproject's dependencies list numpy alone; scipy serves the test tree
    oracle_names = {"to_fock", "auto_cutoff", "fock_amplitude", "fock_beam_splitter",
                    "g2_zero_oracle", "hom_fock_oracle", "kerr_output_fock", "FockVector",
                    "fock_inner", "coherent_overlap"}
    modules = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert len(modules) >= 9
    for path in modules:
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""] if node.level == 0 else []
            else:
                imported = []
            assert not [m for m in imported if m.split(".")[0] == "scipy"], path
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in oracle_names, path
    assert not oracle_names & set(dir(pspsim))
    with open(os.path.join(PACKAGE, os.pardir, os.pardir, "pyproject.toml")) as f:
        deps = re.search(r"^dependencies = \[(.*?)\]", f.read(), re.M | re.S).group(1)
    assert re.findall(r'"([A-Za-z0-9_.-]+?)[<>=!~;" ]', deps) == ["numpy"]


def test_bb84_readout_reads_no_coherent_state():
    # the phase-encoded readout is one Poisson series: qkd imports nothing from states, and
    # the encoded state, its state-form readout and the "Y" splitter are gone
    with open(os.path.join(PACKAGE, "qkd.py")) as f:
        tree = ast.parse(f.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "states" and "states" not in [a.name for a in node.names]
    assert not hasattr(pspsim, "encoded_state")
    assert list(inspect.signature(beam_splitter).parameters) == ["state"]
    assert list(inspect.signature(pspsim.measure_bb84).parameters) == ["mu", "d", "j", "k",
                                                                       "basis"]


def test_import_skips_scipy_stats_and_linalg(isolated):
    # both are slow to import, and only the oracles in the test tree use scipy
    assert isolated("import sys, pspsim; print(sorted(m for m in ('scipy.stats', "
                    "'scipy.linalg') if m in sys.modules))") == (0, "[]")


def test_production_paths_never_import_scipy(isolated):
    # scipy.special alone was most of a cold start; only the test tree's oracles use scipy
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
    # a two-mode state with labels (a, b), refused before any overlap is formed
    labels = np.column_stack(np.broadcast_arrays(a, b))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            CoherentSuperposition(np.ones(labels.shape[0]), labels)


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
        "import math, sys\n"
        "sys.path.insert(0, %r)\n"
        "from pspsim import coherent_state\n"
        "from oracle import FOCK_MAX_DIM, auto_cutoff, to_fock\n" % TESTS +
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
        out_c = to_fock(beam_splitter(s), cutoff=cutoff)
        out_f = fock_beam_splitter(to_fock(s, cutoff=cutoff), variant="X")
        assert abs(abs(np.vdot(out_c, out_f)) - 1.0) < 1e-9


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
    rho = thinned_density(density(PSPParams(mu=0.2, d=8, j=1)), 0.9)
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
