"""BB84 key rates: phase-cycled sources against weak-coherent baselines.

Prints the secure-rate table over distance for five protocol variants and
shows where each source family stops producing key.  Channel numbers follow
the standard GYS fiber experiment defaults baked into ChannelParams.
"""

import numpy as np

from pspsim import (
    ChannelParams,
    PSP_PASSIVE_DECOY,
    PSP_TRIGGERED,
    WCS_DECOY,
    WCS_NONDECOY,
    basis_fidelity_bound,
    channel_stats,
    keyrate_curve,
)

grid = np.arange(0.05, 2.0001, 0.05)
small_grid = np.arange(0.002, 0.06, 0.002)

# Channel sanity at two distances: gain and error rate of a plain weak
# coherent source, which everything downstream builds on.
st = channel_stats(ChannelParams(), 0.1, [0.0, 20.0])
for L, eta, q_mu, e_mu in zip((0.0, 20.0), st.eta, st.q_mu, st.e_mu):
    print("L=%5.1f km  eta=%.5f  Q=%.4e  E=%.4f" % (L, eta, q_mu, e_mu))

print()
print("key rate vs distance (mu fixed at sensible values, decoy baseline optimized)")
print("  L/km   wcs-nondecoy   wcs-decoy      psp-passive d=8   psp-triggered d=8")
# One keyrate_curve per source covers every distance: a mu grid is searched at
# each distance, a single mu is evaluated as given.
distances = np.array([0.0, 10.0, 20.0, 30.0, 40.0, 60.0, 80.0, 100.0])
c = ChannelParams()
curves = (keyrate_curve(WCS_NONDECOY, c, small_grid, distances),
          keyrate_curve(WCS_DECOY, c, grid, distances),
          keyrate_curve(PSP_PASSIVE_DECOY, c, 0.45, distances, d=8),
          keyrate_curve(PSP_TRIGGERED, c, 0.45, distances, d=8, nu=256.0, eta_trigger_det=0.12))
for i, L in enumerate(distances):
    print("%6.0f   %.4e     %.4e     %.4e        %.4e" % ((L,) + tuple(k.rate[i] for k in curves)))

print()
print("the non-decoy weak-coherent link dies quickly; find the cutoff")
nd = keyrate_curve(WCS_NONDECOY, c, small_grid, np.arange(38.0, 46.0))
for L, rate in zip(nd.distance_km, nd.rate):
    tag = "dead" if rate == 0 else "%.3e" % rate
    print("  L=%3d km  rate=%s" % (L, tag))

# Phase-cycled states make the two encoding bases nearly indistinguishable
# to an eavesdropper; the bound climbs toward 1 as mu shrinks or d grows.
print()
print("basis indistinguishability lower bound")
print("   mu    d=4 j=0     d=4 j=1     d=8 j=0     d=8 j=1")
for mu in (0.1, 0.3, 0.6):
    cells = [basis_fidelity_bound(mu, d, j) for d in (4, 8) for j in (0, 1)]
    print("%6.2f  " % mu + "  ".join("%.8f" % c for c in cells))

print()
print("optimized source intensity at L=40 km")
for protocol, d in ((WCS_NONDECOY, None), (WCS_DECOY, None), (PSP_PASSIVE_DECOY, 36)):
    g = small_grid if protocol == WCS_NONDECOY else grid
    res = keyrate_curve(protocol, c, g, [40.0], d=d).result(0)
    print("  %-13s d=%-4s mu*=%.3f  rate=%.4e" % (protocol, d, res.mu, res.rate))
