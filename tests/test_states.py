"""Coherent-superposition machinery against closed forms and the Fock path."""

import math

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
    loss_channel,
    norm,
    project_mode,
    tensor,
    to_fock,
    uhlmann_fidelity,
    vacuum_probability,
)


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
        out = beam_splitter(s, 0, 1, variant)
        assert abs(norm(out) - norm(s)) < 1e-12


def test_x_beam_splitter_merges_identical_coherent_inputs():
    # |a>|a> -> all light in one port, the other exactly dark
    a = 0.4
    out = beam_splitter(tensor(coherent_state(a), coherent_state(a)), 0, 1, "X")
    empty0 = vacuum_probability(out, (0,))
    empty1 = vacuum_probability(out, (1,))
    lo, hi = sorted([empty0, empty1])
    assert abs(hi - 1.0) < 1e-12
    assert abs(lo - np.exp(-2 * a * a)) < 1e-12


def test_vacuum_probability_coherent():
    a = 0.9
    s = coherent_state(a)
    assert abs(vacuum_probability(s, (0,)) - np.exp(-a * a)) < 1e-13


def test_project_mode_reduces_modes():
    s = tensor(coherent_state(0.5), coherent_state(0.0))
    r = project_mode(s, 1, coherent_state(0.0))
    assert r.mode_count == 1
    assert abs(norm(r) - 1.0) < 1e-13


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
    for lam in (0.3, 7.0):
        assert auto_cutoff(lam, 1e-6) == reference_cutoff(lam, 1e-6)


def test_import_skips_scipy_stats_and_linalg(isolated):
    # both are slow to import, and only the oracles in states need scipy.linalg
    assert isolated("import sys, pspsim; print(sorted(m for m in ('scipy.stats', "
                    "'scipy.linalg') if m in sys.modules))") == (0, "[]")


@pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(0.5, math.inf)])
def test_fock_amplitude_rejects_non_finite_alpha(alpha):
    # used to return nan+nanj
    with pytest.raises(ValueError, match="finite"):
        fock_amplitude(alpha, 2)
    with pytest.raises(ValueError, match="finite"):
        fock_amplitude(np.array([0.5, alpha]), 2)


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


def test_fock_beam_splitter_matches_coherent_path():
    rng = np.random.default_rng(19)
    for _ in range(4):
        a, b = rng.normal(size=2) * 0.6 + 1j * rng.normal(size=2) * 0.3
        s = tensor(coherent_state(a), coherent_state(b))
        cutoff = auto_cutoff(2.0 * max(abs(a), abs(b)) ** 2)
        out_c = to_fock(beam_splitter(s, 0, 1, "X"), cutoff=cutoff)
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
    rho = loss_channel(PSPParams(mu=0.2, d=8, j=1), 0.9).exact.to_fock_matrix(auto_cutoff(0.2) + 4)
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
