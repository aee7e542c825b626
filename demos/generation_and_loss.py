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
    PSPParams,
    loss_channel,
    residue_masses,
    trigger_probability,
)

# j is heralded with the residue mass M_j of the signal, whatever the meter's nu
mu, d = 0.3, 4
probs = residue_masses(mu, d)
print("herald probabilities for mu=%.1f, d=%d (sum must be 1)" % (mu, d))
for nu in (25.0, 100.0, 400.0):
    row = "  ".join("P(%d)=%.6f" % (j, probs[j]) for j in range(d))
    drift = sum(probs[j] for j in range(d)) - 1.0
    print("  nu=%6.0f  %s   sum-1 = %.1e" % (nu, row, drift))

print()
print("no-click trigger probability per residue (wants to be 1 at j=1, 0 elsewhere)")
for convention in (CONVENTION_PAPER, CONVENTION_RECOMPUTED):
    row = trigger_probability(4.0 * d * d, d, np.arange(d), 0.12, convention)
    print("  %-10s " % convention + "  ".join("%.6f" % v for v in row))


def two_term_fidelity(p, eta):
    # The exact lossy output is a mixture of the attenuated |k_d> at mu*eta
    # with the weights w[k] that loss_channel returns.  Those states are
    # orthogonal, and the two-term picture keeps k = 1 and 0 with their exact
    # weights, so its fidelity to the exact output is F = w[1] + w[0],
    # clamped at 1 (at d = 2 the sum can round one ulp above it).
    w = loss_channel(p, eta)
    return min(w[1] + w[0], 1.0)


# At d = 2 no branch is dropped; at d = 8 the dropped ones carry almost no mass.
print()
print("loss at eta=0.9 on the j=1 state: exact output vs two-term mixture")
print("   mu   d    F(exact, two-term)   (1-F)/x^2")
eta = 0.9
for d in (2, 4, 8):
    for mu in (0.1, 0.2, 0.5):
        f = two_term_fidelity(PSPParams(mu=mu, d=d, j=1), eta)
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
    f = two_term_fidelity(p, eta)
    x = mu * (1 - eta)
    print("  eta=%.2f  x=%.4f  1-F=%.6e  (1-F)/x^2=%.5f" % (eta, x, 1 - f, (1 - f) / x**2))
