"""The coherent expansion's Gram kernel and the number-basis oracle, against closed forms."""

import ast
import glob
import inspect
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
from pspsim import NumericalDiagnosticError, PSPParams, TruncationError
from pspsim import states
from pspsim.pns import _LOG_FACTORIALS, log_factorial

TESTS = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(TESTS, os.pardir, "src", "pspsim")


def overlap(a, b):
    """<a|b> of two one-mode coherent states, the closed form of the conventions."""
    return np.exp(-0.5 * (abs(a) ** 2 + abs(b) ** 2) + np.conj(a) * b)


def circle_expansion(p):
    """The coherent expansion (coeffs, labels) of p that p11 reads: row 0 of the
    production states._circles, two (d,) arrays."""
    coeffs, labels = states._circles(*states._circle_inputs(p))
    return coeffs[0], labels[0]


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


def test_x_beam_splitter_merges_identical_coherent_inputs():
    # |a>|a> -> all light in one port, the other exactly dark
    a = 0.4
    kets, labels = states._hom_outputs(*(np.ones((1, 1)), np.full((1, 1), a, dtype=complex)) * 2)
    empty0, empty1, _ = states._hom_projections(kets[0], labels[0])
    lo, hi = sorted([empty0, empty1])
    assert abs(hi - 1.0) < 1e-12
    assert abs(lo - np.exp(-2 * a * a)) < 1e-12


def _vacuum(coeffs, labels, keep):
    """<psi| P |psi> of the expansion (coeffs, labels (terms, modes)), P projecting every
    mode not in keep onto vacuum: the Gram kernel's contraction."""
    gram = states._pair_exponents(labels, keep)
    return states._projection(np.conj(coeffs), np.exp(gram), coeffs)


def test_gram_vacuum_projection_of_a_coherent_state():
    a = 0.9
    assert abs(_vacuum(np.ones(1), np.array([[a]], dtype=complex), ()) - np.exp(-a * a)) < 1e-13


def test_gram_beyond_its_limit_is_refused_before_allocation(monkeypatch):
    # 9 terms make an 81-entry Gram matrix; 64 entries are allowed
    monkeypatch.setattr(states, "GRAM_MAX_ENTRIES", 64)
    labels = np.linspace(0.1, 0.9, 9, dtype=complex)[:, None]
    with pytest.raises(TruncationError, match="GRAM_MAX_ENTRIES"):
        _vacuum(np.ones(9), labels, ())
    with pytest.raises(TruncationError, match="GRAM_MAX_ENTRIES"):
        _vacuum(np.ones(9), labels, (0,))
    assert _vacuum(np.ones(8), np.ones((8, 1), dtype=complex), (0,)) == 64.0


def test_to_fock_reproduces_inner_products():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, b = rng.normal(size=2) * 0.8
        cutoff = auto_cutoff(max(abs(a), abs(b)) ** 2)
        lhs = np.vdot(to_fock(np.ones(1), np.array([a]), cutoff=cutoff),
                      to_fock(np.ones(1), np.array([b]), cutoff=cutoff))
        assert abs(lhs - overlap(a, b)) < 1e-12


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
        to_fock(*circle_expansion(PSPParams(mu=mu, d=d, j=j)), cutoff)


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
                    expand = to_fock(*circle_expansion(p), cutoff)
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


def test_the_coherent_state_object_layer_is_gone():
    # the coherent expansion travels as (coeffs, labels) arrays: no module defines or
    # exports the object algebra, the equal-input output builder is folded into the one
    # splitter-output builder, and p11 builds no state object.  The public expansions
    # are gone too (the cross-phase output is an oracle builder in the test tree), and
    # the one expansion p11 reads is built in states, beside its Gram kernel
    deleted = {"CoherentSuperposition", "coherent_state", "inner_product", "norm", "tensor",
               "beam_splitter", "vacuum_probabilities", "_equal_input_outputs",
               "pseudo_number_state", "cpm_output"}
    circle_owners = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in deleted, path
                if node.name in ("_circles", "_circle_inputs"):
                    circle_owners.append((os.path.basename(path), node.name))
            elif isinstance(node, ast.alias):
                assert node.name not in deleted, path
            elif isinstance(node, ast.Name):
                assert node.id not in deleted, path
    assert not deleted & set(dir(pspsim))
    assert sorted(circle_owners) == [("states.py", "_circle_inputs"), ("states.py", "_circles")]
    with open(os.path.join(PACKAGE, "metrics.py")) as f:
        p11 = next(node for node in ast.walk(ast.parse(f.read()))
                   if isinstance(node, ast.FunctionDef) and node.name == "p11")
    called = {node.func.id for node in ast.walk(p11)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "_hom_outputs" in called and "pseudo_number_state" not in called


def test_bb84_readout_reads_no_coherent_state():
    # the phase-encoded readout is one Poisson series: only metrics imports states, whose
    # one job is the Gram kernel of p11; log(n!) has one owner, pns, and no other module
    # defines or calls lgamma.  The encoded state, its state-form readout and the "Y"
    # splitter are gone: the one splitter left takes two inputs' arrays and no variant
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path) as f:
            source = f.read()
        if module != "pns":
            for name in ("lgamma", "_LOG_FACTORIALS", "def log_factorial"):
                assert name not in source, (path, name)
        for node in ast.walk(ast.parse(source, path)):
            if module != "metrics" and isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name.split(".")[-1] for a in node.names]
                module_name = getattr(node, "module", None) or ""
                assert "states" not in names + [module_name.split(".")[-1]], path
    assert not hasattr(pspsim, "encoded_state")
    assert list(inspect.signature(states._hom_outputs).parameters) == ["c1", "l1", "c2", "l2"]
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
        "import numpy as np\n"
        "from oracle import FOCK_MAX_DIM, auto_cutoff, to_fock\n" % TESTS +
        "one = np.ones(1)\n"
        "calls = [lambda: auto_cutoff(1e17), lambda: auto_cutoff(math.inf),\n"
        "         lambda: auto_cutoff(math.nan), lambda: to_fock(one, np.array([[1e3, 1e3]])),\n"
        "         lambda: to_fock(one, np.array([[0.1, 0.1]]), cutoff=FOCK_MAX_DIM)]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__)\n")
    assert code == 0
    assert out.split() == ["TruncationError", "ValueError", "ValueError", "TruncationError",
                           "TruncationError"]


def test_to_fock_truncation_guard():
    with pytest.raises(TruncationError):
        to_fock(np.ones(1), np.array([3.0]), cutoff=2)
    # a many-term superposition, whose largest |label|^2 sets the tail
    with pytest.raises(TruncationError, match="Poisson tail"):
        to_fock(*circle_expansion(PSPParams(mu=9.0, d=4, j=1)), cutoff=2)


def _one_point(c, labels):
    """A one-mode expansion as the one-point (1, terms) rows that _hom_outputs takes."""
    return np.asarray(c, dtype=complex)[None], np.asarray(labels, dtype=complex)[None]


def test_hom_outputs_match_fock_beam_splitter():
    # the one splitter-output builder, expanded by the oracle, against the number-basis
    # splitter on the expanded inputs: random coherent pairs, and pseudo-number pairs of
    # unequal mu, delta and d
    rng = np.random.default_rng(19)
    pairs = [((np.ones(1), [a]), (np.ones(1), [b]))
             for a, b in rng.normal(size=(4, 2)) * 0.6 + 1j * rng.normal(size=(4, 2)) * 0.3]
    pairs += [(circle_expansion(p1), circle_expansion(p2)) for p1, p2 in (
        (PSPParams(mu=0.3, d=8, j=1), PSPParams(mu=1.0, d=8, j=1)),
        (PSPParams(mu=1.0, d=8, j=1, delta=0.37), PSPParams(mu=0.7, d=3, j=1)),
        (PSPParams(mu=0.6, d=4, j=1), PSPParams(mu=0.6, d=4, j=1)))]
    for (c1, l1), (c2, l2) in pairs:
        cutoff = auto_cutoff(2.0 * np.max(np.abs(np.concatenate([l1, l2]))) ** 2)
        kets, labels = states._hom_outputs(*_one_point(c1, l1), *_one_point(c2, l2))
        assert kets.shape == (1, len(c1) * len(c2)) and labels.shape == kets.shape + (2,)
        out_c = to_fock(kets[0], labels[0], cutoff=cutoff)
        out_f = fock_beam_splitter(np.multiply.outer(to_fock(c1, l1, cutoff=cutoff),
                                                     to_fock(c2, l2, cutoff=cutoff)), variant="X")
        # the number-basis splitter holds every total photon number up to the cutoff
        ns = np.arange(cutoff + 1)
        kept = np.add.outer(ns, ns) <= cutoff
        assert np.max(np.abs(out_c - out_f)[kept]) < 1e-12
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
