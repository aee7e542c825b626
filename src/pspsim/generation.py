"""Heralded generation through a cross-Kerr interaction.

A signal |sqrt(mu)> and meter |sqrt(nu)> coupled by exp(i 2 pi n1 n2 / d)
entangle the signal's photon-number residue mod d with the meter's phase:

    sum_j sqrt(N_{mu,j})/d |j_d>_1 |sqrt(nu) w^j>_2.

Reading out the meter phase heralds |j_d>; a single 50:50 interference of
the meter against |sqrt(nu) w> plus an on-off detector gives the cheap
"did we get j = 1" trigger used by the triggered QKD protocol.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import _index, _real
from .pns import _validate_dj, residue_masses

# Exponent conventions for the no-click trigger probability: the reference
# closed form divides |w^j - w|^2 by 4; recomputing the projected amplitude
# |<0|sqrt(eta nu)(w^j - w)/sqrt(2)>|^2 gives 2.  Both stay available and
# nothing in the package resolves the discrepancy silently.
CONVENTION_PAPER = "paper"
CONVENTION_RECOMPUTED = "recomputed"
_DIVISORS = {CONVENTION_PAPER: 4.0, CONVENTION_RECOMPUTED: 2.0}


@dataclass(frozen=True)
class GenerationParams:
    """Cross-Kerr generation setup: signal mu, meter nu, d phases, detector eta."""

    mu: float
    nu: float
    d: int
    eta_det: float = 1.0

    def __post_init__(self):
        if _real(self.mu, "mu").ndim or self.mu < 0:
            raise ValueError("mu must be a number >= 0")
        if _real(self.nu, "nu").ndim or self.nu <= 0:
            raise ValueError("nu must be a number > 0")
        _validate_dj(self.d)
        if _real(self.eta_det, "eta_det").ndim or not 0 < self.eta_det <= 1:
            raise ValueError("eta_det must lie in (0, 1]")
        if not self.phase_resolved:
            warnings.warn(
                "sqrt(nu) = %.3g <= d = %d: meter phases closer than the "
                "heterodyne resolution, discrimination unreliable" % (np.sqrt(self.nu), self.d),
                stacklevel=3,
            )

    @property
    def phase_resolved(self):
        return np.sqrt(self.nu) > self.d


def herald_probabilities(g):
    """Probability N_{mu,j}/d^2 of heralding each j in 0..d-1; sums to 1."""
    return residue_masses(g.mu, g.d)


def trigger_probability(g, j, convention=CONVENTION_PAPER):
    """No-click probability at the meter's difference port for residue j.

    The meter |sqrt(nu) w^j> interferes with a reference |sqrt(nu) w|;
    the dark output carries |w^j - w|^2, which vanishes only at j = 1, so
    the trigger fires (no click) with probability 1 exactly there in either
    exponent convention.  j may be an integer array, every entry in [0, d).
    """
    if convention not in _DIVISORS:
        raise ValueError("convention must be 'paper' or 'recomputed'")
    j = _index(j, g.d, "j")
    gap = 2.0 - 2.0 * np.cos(2 * np.pi * (j - 1) / g.d)
    return np.exp(-g.eta_det * g.nu * gap / _DIVISORS[convention])[()]
