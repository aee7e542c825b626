# Heralded generation through a cross-phase meter, then photon loss.
#
# Part 1 runs the signal+meter interaction and asks how often each residue
# class j is heralded and how selective the no-click trigger is.
# Part 2 sends the j=1 state through a lossy line and compares the exact
# output against the two-term (lose 0 or 1 photon, mod d) picture.

import numpy as np

from pspsim import (
    CONVENTION_PAPER,
    CONVENTION_RECOMPUTED,
    GenerationParams,
    PSPParams,
    auto_cutoff,
    herald_probabilities,
    loss_channel,
    pseudo_number_state,
    to_fock,
    trigger_probability,
    uhlmann_fidelity,
)

mu, d = 0.3, 4
print("herald probabilities for mu=%.1f, d=%d (sum must be 1)" % (mu, d))
for nu in (25.0, 100.0, 400.0):
    g = GenerationParams(mu=mu, nu=nu, d=d, eta_det=0.12)
    probs = herald_probabilities(g)
    row = "  ".join("P(%d)=%.6f" % (j, probs[j]) for j in range(d))
    drift = sum(probs[j] for j in range(d)) - 1.0
    print("  nu=%6.0f  %s   sum-1 = %.1e" % (nu, row, drift))

print()
print("no-click trigger probability per residue (wants to be 1 at j=1, 0 elsewhere)")
g = GenerationParams(mu=mu, nu=4.0 * d * d, d=d, eta_det=0.12)
for convention in (CONVENTION_PAPER, CONVENTION_RECOMPUTED):
    row = [trigger_probability(g, j, convention=convention) for j in range(d)]
    print("  %-10s " % convention + "  ".join("%.6f" % v for v in row))


def density_matrix(p, cutoff):
    vec = to_fock(pseudo_number_state(p), cutoff=cutoff).amplitudes
    return np.outer(vec, np.conj(vec))


def two_term_matrix(p, eta, weights, cutoff):
    # mixture of the attenuated j=1 and j=0 states with the given weights
    w1, w0 = weights
    rho = w1 * density_matrix(PSPParams(mu=p.mu * eta, d=p.d, j=1), cutoff)
    rho += w0 * density_matrix(PSPParams(mu=p.mu * eta, d=p.d, j=0 % p.d), cutoff)
    return rho


# Fidelities from the matrix square roots are good to about 1e-8 and are
# clamped to [0, 1], so entries of exactly 1 mean "within rounding"; at d = 2
# and 8 the dropped branches carry (almost) no mass.
print()
print("loss at eta=0.9 on the j=1 state: exact output vs two-term mixture")
print("   mu   d    F(exact, two-term)   (1-F)/x^2")
eta = 0.9
for d in (2, 4, 8):
    for mu in (0.1, 0.2, 0.5):
        p = PSPParams(mu=mu, d=d, j=1)
        res = loss_channel(p, eta)
        cutoff = auto_cutoff(mu) + 4
        rho = res.exact.to_fock_matrix(cutoff)
        sigma = two_term_matrix(p, eta, res.approx_weights, cutoff)
        f = uhlmann_fidelity(rho, sigma)
        x = mu * (1 - eta)
        print("%6.2f %3d     %.10f       %.5f" % (mu, d, f, (1 - f) / x**2))

# The two-term picture drops only the branches that lose two or more photons
# (mod d), so its mismatch is quadratic in the lost intensity x = mu(1-eta):
# halving the loss divides 1-F by about 4.  At d = 2 there is no dropped
# branch and the mixture is exact, so the scaling is shown at d = 3.
print()
d = 3
mu = 0.2
p = PSPParams(mu=mu, d=d, j=1)
print("scaling check at mu=%.1f d=%d:" % (mu, d))
for eta in (0.98, 0.96, 0.92, 0.84):
    res = loss_channel(p, eta)
    cutoff = auto_cutoff(mu) + 4
    rho = res.exact.to_fock_matrix(cutoff)
    sigma = two_term_matrix(p, eta, res.approx_weights, cutoff)
    f = uhlmann_fidelity(rho, sigma)
    x = mu * (1 - eta)
    print("  eta=%.2f  x=%.4f  1-F=%.6e  (1-F)/x^2=%.5f" % (eta, x, 1 - f, (1 - f) / x**2))
