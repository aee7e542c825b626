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

from .pns import residue_masses
from .states import CoherentSuperposition, FockVector, coherent_state, tensor, to_fock

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
        if not (np.isfinite(self.mu) and self.mu >= 0):
            raise ValueError("mu must be finite and >= 0")
        if not (np.isfinite(self.nu) and self.nu > 0):
            raise ValueError("nu must be finite and > 0")
        if not (isinstance(self.d, (int, np.integer)) and self.d >= 1):
            raise ValueError("d must be an integer >= 1")
        if not 0 < self.eta_det <= 1:
            raise ValueError("eta_det must lie in (0, 1]")
        if not self.phase_resolved:
            warnings.warn(
                "sqrt(nu) = %.3g <= d = %d: meter phases closer than the "
                "heterodyne resolution, discrimination unreliable" % (np.sqrt(self.nu), self.d),
                stacklevel=2,
            )

    @property
    def phase_resolved(self):
        return np.sqrt(self.nu) > self.d


def cpm_output(g):
    """Two-mode output of the cross-phase interaction on |sqrt(mu), sqrt(nu)>.

    Returned as the d^2-term coherent expansion with coefficients
    w^{-jq}/d and labels (sqrt(mu) w^q, sqrt(nu) w^j); normalized.
    """
    d = g.d
    jj, qq = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    coeffs = np.exp(-2j * np.pi * jj * qq / d) / d
    lab1 = np.sqrt(g.mu) * np.exp(2j * np.pi * qq.ravel() / d)
    lab2 = np.sqrt(g.nu) * np.exp(2j * np.pi * jj.ravel() / d)
    return CoherentSuperposition(coeffs.ravel(), np.column_stack([lab1, lab2]))


def kerr_output_fock(g, cutoff=None):
    """Number-basis oracle: apply exp(i 2 pi n1 n2 / d) amplitude by amplitude."""
    base = to_fock(tensor(coherent_state(np.sqrt(g.mu)), coherent_state(np.sqrt(g.nu))), cutoff)
    ns = np.arange(base.cutoff + 1)
    phase = np.exp(2j * np.pi * np.outer(ns, ns) / g.d)
    return FockVector(base.amplitudes * phase)


def herald_probabilities(g):
    """Probability N_{mu,j}/d^2 of heralding each j in 0..d-1; sums to 1."""
    return residue_masses(g.mu, g.d)


def trigger_probability(g, j, convention=CONVENTION_PAPER):
    """No-click probability at the meter's difference port for residue j.

    The meter |sqrt(nu) w^j> interferes with a reference |sqrt(nu) w|;
    the dark output carries |w^j - w|^2, which vanishes only at j = 1, so
    the trigger fires (no click) with probability 1 exactly there in either
    exponent convention.
    """
    if convention not in _DIVISORS:
        raise ValueError("convention must be 'paper' or 'recomputed'")
    if not (isinstance(j, (int, np.integer)) and 0 <= j < g.d):
        raise ValueError("j must be an integer in [0, d)")
    gap = 2.0 - 2.0 * np.cos(2 * np.pi * (j - 1) / g.d)
    return float(np.exp(-g.eta_det * g.nu * gap / _DIVISORS[convention]))
