"""How close is a phase-cycled superposition of weak coherent states to |1>?

Sweeps the mean parameter mu for a few superposition sizes d and prints the
three standard single-photon diagnostics: fidelity to the number state,
g2(0), and the Hong-Ou-Mandel pair (coincidence rate, NOON fidelity).
"""

import numpy as np

from pspsim import (
    PSPParams,
    f2002,
    fidelity_to_number_state,
    g2_zero_closed,
    p11,
    photon_number_probability,
)

mus = [0.05, 0.2, 0.8, 2.0, 5.0]
ds = [2, 4, 8, 12]

print("fidelity to |1>  (rows mu, columns d)")
print("   mu  " + "".join("   d=%-10d" % d for d in ds))
for mu in mus:
    cells = [fidelity_to_number_state(PSPParams(mu=mu, d=d, j=1)) for d in ds]
    print("%6.2f " % mu + "".join(" %13.10f" % c for c in cells))

print()
print("g2(0), closed form; larger d keeps the state antibunched out to larger mu")
print("   mu  " + "".join("   d=%-10d" % d for d in ds))
for mu in mus:
    cells = [g2_zero_closed(mu, d) for d in ds]
    print("%6.2f " % mu + "".join(" %13.4e" % c for c in cells))

# The closed form should agree with sum n(n-1) P(n) / (sum n P(n))^2 over the
# photon-number distribution; n < 60 holds all of it at this mu.
mu, d = 0.8, 8
probs = [photon_number_probability(PSPParams(mu=mu, d=d, j=1), n) for n in range(60)]
moment = sum(n * pn for n, pn in enumerate(probs))
pairs = sum(n * (n - 1) * pn for n, pn in enumerate(probs))
print()
print("cross-check at mu=%.1f d=%d: closed %.12e vs photon numbers %.12e"
      % (mu, d, g2_zero_closed(mu, d), pairs / moment**2))

# Hong-Ou-Mandel with two identical sources.  p11 is the coincidence rate
# after the 50:50 mixer, f2002 the overlap with the two-photon NOON state.
print()
print("HOM with identical sources (j=1)")
print("   mu   d    p11            f2002")
for d in (4, 8):
    p = PSPParams(mu=[0.1, 0.4, 1.0], d=d, j=1)  # one state per mu: each call is one array
    for mu, pair, noon in zip(p.mu, p11(p, p), f2002(p, p)):
        print("%6.2f %3d   %12.6e   %.10f" % (mu, d, pair, noon))

# Offsetting one source around the circle leaves f2002 untouched but
# modulates the coincidence rate; the dip sits at zero offset.
d, mu = 4, 0.4
print()
print("source offset scan at mu=%.1f d=%d (delta in circle steps)" % (mu, d))
print(" delta    p11            f2002")
for delta in np.linspace(0.0, 0.5, 6):
    p, shifted = PSPParams(mu=mu, d=d, j=1), PSPParams(mu=mu, d=d, j=1, delta=delta)
    print("%6.2f   %12.6e   %.12f" % (delta, p11(p, shifted), f2002(p, shifted)))
