"""Acceptance gate: eleven end-to-end checks, one test and one PASS/FAIL line each.

Criterion 8 asserts a bound that the implemented physics does not meet
(the non-decoy rate with dark counts falls much faster than quadratically in
the transmittance).  That test prints FAIL with the measured numbers and is
an expected failure of the stated bound, not a regression; the README
records the analysis.
"""

import csv
import math
import time

import numpy as np

from pspsim import (
    CONVENTION_PAPER,
    CONVENTION_RECOMPUTED,
    ChannelParams,
    GenerationParams,
    PSPParams,
    PSP_PASSIVE_DECOY,
    WCS_DECOY,
    WCS_NONDECOY,
    basis_fidelity_bound,
    f2002,
    fidelity_to_number_state,
    g2_zero_closed,
    keyrate_curve,
    loss_channel,
    normalization,
    p11,
    phase_set,
    residue_masses,
    trigger_probability,
)
from pspsim import cli

from oracle import (coherent_norm2, cpm_output, encoded_fock, fock_beam_splitter,
                    g2_zero_oracle, hom_fock_oracle, kerr_output_fock, to_fock, uhlmann_fidelity)
from test_states import circle_expansion


def report(number, ok, detail):
    print("[%2d] %s  %s" % (number, "PASS" if ok else "FAIL", detail))
    return ok


def test_01_dual_representation_equivalence():
    rng = np.random.default_rng(2026)
    start = time.monotonic()
    worst = 0.0
    for _ in range(50):
        mu = float(rng.uniform(0.01, 2.0))
        d = int(rng.choice([2, 4, 8, 12]))
        p = PSPParams(mu=mu, d=d, j=1)
        s = circle_expansion(p)
        fv = to_fock(*s)
        worst = max(worst, abs(math.sqrt(coherent_norm2(*s))
                               - math.sqrt(float(np.sum(np.abs(fv) ** 2)))))
        worst = max(worst, abs(g2_zero_closed(mu, d) - g2_zero_oracle(fv)))
        out = fock_beam_splitter(np.multiply.outer(fv, fv), variant="X")
        p11_o, f2002_o = hom_fock_oracle(out)
        worst = max(worst, abs(p11(p, p) - p11_o), abs(f2002(p, p) - f2002_o))
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 10.0
    detail = "closed vs Fock paths, 50 draws: worst |diff| = %.3e, %.2f s" % (worst, elapsed)
    assert report(1, ok, detail), detail


def test_02_fidelity_endpoints():
    anchor = fidelity_to_number_state(PSPParams(mu=0.1, d=2, j=1))
    ok = abs(anchor - 0.1 / math.sinh(0.1)) < 1e-12
    monotone = True
    for d in (2, 4, 8, 12):
        mus = np.logspace(math.log10(2.0), -4, 60)
        vals = [fidelity_to_number_state(PSPParams(mu=float(m), d=d, j=1)) for m in mus]
        monotone &= all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        monotone &= vals[-1] > 1.0 - 1e-6
    infinite = fidelity_to_number_state(PSPParams(mu=0.7, d=math.inf, j=1)) == 1.0
    ok = ok and monotone and infinite
    detail = ("odd-cat anchor err %.1e, monotone rise to 1: %s, infinite-d: %s"
              % (abs(anchor - 0.1 / math.sinh(0.1)), monotone, infinite))
    assert report(2, ok, detail), detail


def test_03_antibunching_structure():
    coherent_ok = all(abs(g2_zero_closed(mu, 1) - 1.0) < 1e-12
                      for mu in (0.01, 0.1, 1.0, 5.0, 20.0, 50.0))
    grid = np.logspace(math.log10(0.01), math.log10(20.0), 300)
    details = []
    ok = coherent_ok
    for d in (4, 8, 12):
        small = g2_zero_closed(0.01, d)
        peak = max(g2_zero_closed(float(m), d) for m in grid)
        asym = g2_zero_closed(50.0, d)
        good = small < 0.01 and peak > 1.0 and abs(asym - 1.0) <= 0.05
        ok = ok and good
        details.append("d=%d: g2(.01)=%.1e peak=%.3f g2(50)=%.6f" % (d, small, peak, asym))
    detail = "coherent flat: %s; " % coherent_ok + "; ".join(details)
    assert report(3, ok, detail), detail


def test_04_hom_interference():
    coherent_ok = True
    for mu in (0.1, 0.5, 1.0):
        p = PSPParams(mu=mu, d=1, j=0)
        coherent_ok &= p11(p, p) < 1e-12
        coherent_ok &= abs(f2002(p, p) - mu**2 * math.exp(-2 * mu)) < 1e-10
    floor = min(f2002(PSPParams(mu=float(m), d=8, j=1), PSPParams(mu=float(m), d=8, j=1))
                for m in np.linspace(0.02, 1.0, 30))
    ok = coherent_ok and floor >= 0.95
    detail = "coherent inputs: p11=0 and f2002=mu^2 e^-2mu: %s; d=8 f2002 floor %.4f over mu<=1" % (
        coherent_ok, floor)
    assert report(4, ok, detail), detail


def test_05_loss_two_term_approximation():
    total_ok = True
    worst_gap = -math.inf
    worst_at = None
    for d in (2, 4, 8):
        for mu in (0.1, 0.2, 0.3, 0.4, 0.5):
            for eta in (0.5, 0.7, 0.9):
                w = loss_channel(PSPParams(mu=mu, d=d, j=1), eta)
                total_ok &= abs(w.sum() - 1.0) < 1e-10
                # the output's |k_d> at mu eta are orthogonal and the shortcut
                # keeps k = 1 and 0 with their exact weights, so F = w[1] + w[0]
                f = w[1] + w[0]
                x = mu * (1.0 - eta)
                gap = (1.0 - 2.0 * x * x) - f
                if gap > worst_gap:
                    worst_gap = gap
                    worst_at = (mu, eta, d, f)
    ok = total_ok and worst_gap <= 0.0
    detail = ("total weight 1: %s; largest (1-2x^2) - F = %.3e (F >= 1-2x^2 needs <= 0) at "
              "(mu=%.1f, eta=%.1f, d=%d): F=%.6f"
              % (total_ok, worst_gap, *worst_at[:3], worst_at[3]))
    assert report(5, ok, detail), detail


def test_06_generation():
    probs = residue_masses(0.3, 4)  # the herald weights
    herald_ok = abs(sum(probs[j] for j in range(4)) - 1.0) < 1e-12
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g9 = GenerationParams(mu=0.3, nu=9.0, d=4)
        trig_ok = all(trigger_probability(9.0, 4, 1, 0.12, convention) == 1.0
                      for convention in (CONVENTION_PAPER, CONVENTION_RECOMPUTED))
    ov = np.vdot(to_fock(*cpm_output(g9), cutoff=40), kerr_output_fock(g9, cutoff=40))
    unitary_ok = abs(abs(ov) - 1.0) < 1e-8
    ok = herald_ok and unitary_ok and trig_ok
    detail = ("herald sum ok: %s; |<kerr|coherent>| - 1 = %.2e; trigger(j=1) = 1 both "
              "conventions: %s" % (herald_ok, abs(ov) - 1.0, trig_ok))
    assert report(6, ok, detail), detail


def basis_mix_fidelity(mu, d, j):
    ks = phase_set(d)
    # every k shares the cutoff and the support n + m = j (mod d), off which both mixtures vanish
    support = np.flatnonzero(encoded_fock(mu, d, j, 0))

    def mix(kpair):
        vs = [encoded_fock(mu, d, j, k).ravel()[support] for k in kpair]
        return sum(0.5 * np.outer(v, np.conj(v)) for v in vs)

    return uhlmann_fidelity(mix((ks[0], ks[2])), mix((ks[1], ks[3])))


def test_07_basis_indistinguishability():
    worst = -1.0
    ok = True
    for mu in (0.1, 0.3, 0.6):
        for j in (0, 1):
            bound = basis_fidelity_bound(mu, 4, j)
            oracle = basis_mix_fidelity(mu, 4, j)
            worst = max(worst, bound - oracle)
            ok &= bound <= oracle + 1e-8
    tiny_ok = all(basis_fidelity_bound(1e-4, 8, j) >= 0.999 for j in (0, 1))
    ok = ok and tiny_ok
    detail = ("bound - mixture fidelity <= %.2e on d=4 grid; bounds at mu=1e-4, d=8 "
              ">= 0.999: %s" % (worst, tiny_ok))
    assert report(7, ok, detail), detail


def fitted_slope(protocol, grid):
    etas, rates = [], []
    for L in range(20, 81, 5):
        res = keyrate_curve(protocol, ChannelParams(), grid, [float(L)]).result(0)
        if res.rate > 0:
            etas.append(10 ** (-0.21 * L / 10.0) * 0.045)
            rates.append(res.rate)
    slope = float(np.polyfit(np.log(etas), np.log(rates), 1)[0])
    return slope, len(rates)


def test_08_keyrate_scaling():
    start = time.monotonic()
    nd_slope, nd_pts = fitted_slope(WCS_NONDECOY, np.arange(0.002, 0.06, 0.002))
    dc_slope, dc_pts = fitted_slope(WCS_DECOY, np.arange(0.05, 2.0001, 0.05))
    elapsed = time.monotonic() - start
    nd_ok = abs(nd_slope - 2.0) <= 0.2
    dc_ok = abs(dc_slope - 1.0) <= 0.2
    ok = nd_ok and dc_ok and elapsed < 60.0
    detail = ("non-decoy slope %.3f over %d positive points (target 2 +- 0.2: %s; dark "
              "counts kill the rate by 42 km, steepening the tail), decoy slope %.3f "
              "(target 1 +- 0.2: %s), %.1f s"
              % (nd_slope, nd_pts, nd_ok, dc_slope, dc_ok, elapsed))
    assert report(8, ok, detail), detail


def test_09_distance_sweep_dataset(tmp_path):
    out = tmp_path / "fig5.csv"
    start = time.monotonic()
    assert cli.main(["fig5", "--out", str(out)]) == 0
    elapsed = time.monotonic() - start
    rows = list(csv.reader(out.open()))[1:]
    series = {}
    for protocol, d, _, _, L, rate in rows:
        series.setdefault((protocol, int(d)), []).append((float(L), float(rate)))
    nonincreasing = all(
        all(b[1] <= a[1] + 1e-15 for a, b in zip(vals, vals[1:]))
        for vals in series.values()
    )
    trig_below = all(
        t[1] <= p[1] + 1e-15
        for d in (4, 8, 36)
        for p, t in zip(series[("psp-passive", d)], series[("psp-triggered", d)])
    )
    # distances where the optimized non-decoy weak-coherent rate is zero
    grid = np.arange(0.002, 0.06, 0.002)
    dead = [L for L in range(42, 101, 10)
            if keyrate_curve(WCS_NONDECOY, ChannelParams(), grid,
                             [float(L)]).result(0).rate == 0.0]
    psp_alive = all(
        rate > 0
        for d in (8, 36)
        for (L, rate) in series[("psp-passive", d)]
        if L in dead
    )
    ok = nonincreasing and trig_below and psp_alive and len(dead) > 0 and elapsed < 300.0
    detail = ("curves nonincreasing: %s; triggered <= passive pointwise: %s; passive "
              "d=8,36 positive at %d distances with zero non-decoy rate: %s; %.1f s"
              % (nonincreasing, trig_below, len(dead), psp_alive, elapsed))
    assert report(9, ok, detail), detail


def test_10_determinism(tmp_path):
    outs = []
    for name in ("r1.csv", "r2.csv", "r3.csv"):
        path = tmp_path / name
        assert cli.main(["fig1", "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    detail = "three runs: byte-identical = %s, %d bytes" % (ok, len(outs[0]))
    assert report(10, ok, detail), detail


def test_11_headline_comparison(tmp_path):
    # the paper's closing claim: the superposed state beats phase-randomized weak
    # coherent states with decoys, here for d >= 8, over fig5's 101 distances;
    # at d = 4 the basis-dependence penalty keeps it well below them
    out = tmp_path / "fig5.csv"
    assert cli.main(["fig5", "--out", str(out)]) == 0
    series = {}
    with out.open() as fh:
        for row in csv.DictReader(fh):
            series.setdefault((row["protocol"], int(row["d"])), []).append(float(row["rate"]))
    wcs = np.array(series.pop(("wcs-decoy", 0)))
    ok = len(wcs) == 101 and (wcs > 0).all()
    details = ["wcs-decoy all positive: %s" % ok]
    for (protocol, d), rates in sorted(series.items()):
        rates = np.array(rates)
        positive = len(rates) == 101 and (rates > 0).all()
        ratio = rates / np.where(wcs > 0, wcs, np.nan)  # a zero baseline fails, unwarned
        ordered = ratio.max() <= 0.5 if d == 4 else ratio.min() >= 1.2
        ok = ok and positive and ordered
        details.append("%s d=%d: %.3f-%.3f%s" % (protocol, d, ratio.min(), ratio.max(),
                                                   "" if positive else " (not all positive)"))
    detail = ("rate / wcs-decoy over 0-100 km (d=4 <= 0.5, d=8,36 >= 1.2, all positive): "
              + "; ".join(details))
    assert report(11, ok, detail), detail
