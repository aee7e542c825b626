"""Heralded generation through a cross-Kerr interaction.

A signal |sqrt(mu)> and meter |sqrt(nu)> coupled by exp(i 2 pi n1 n2 / d)
entangle the signal's photon-number residue mod d with the meter's phase:

    sum_j sqrt(N_{mu,j})/d |j_d>_1 |sqrt(nu) w^j>_2.

Reading out the meter phase heralds |j_d> with probability residue_masses(mu, d)[j];
a single 50:50 interference of the meter against |sqrt(nu) w> plus an on-off
detector gives the cheap "did we get j = 1" trigger used by the triggered QKD protocol.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import _index, _real
from .pns import _validate_dj

# Exponent conventions for the no-click trigger probability: the reference
# closed form divides |w^j - w|^2 by 4; recomputing the projected amplitude
# |<0|sqrt(eta nu)(w^j - w)/sqrt(2)>|^2 gives 2.  Both stay available and
# nothing in the package resolves the discrepancy silently.
CONVENTION_PAPER = "paper"
CONVENTION_RECOMPUTED = "recomputed"
_DIVISORS = {CONVENTION_PAPER: 4.0, CONVENTION_RECOMPUTED: 2.0}


@dataclass(frozen=True)
class GenerationParams:
    """Cross-Kerr generation setup: signal mu, meter nu and d phases."""

    mu: float
    nu: float
    d: int

    def __post_init__(self):
        if _real(self.mu, "mu").ndim or self.mu < 0:
            raise ValueError("mu must be a number >= 0")
        _check_meter(self.nu, self.d, stacklevel=4)  # past __post_init__ and __init__


def _check_meter(nu, d, eta_det=1.0, stacklevel=3):
    """ValueError unless nu is a number > 0, d an integer >= 1 and eta_det in (0, 1]; a
    UserWarning when sqrt(nu) <= d, at warnings.warn's stacklevel (3: the caller's caller)."""
    if _real(nu, "nu").ndim or nu <= 0:
        raise ValueError("nu must be a number > 0")
    _validate_dj(d)
    if _real(eta_det, "eta_det").ndim or not 0 < eta_det <= 1:
        raise ValueError("eta_det must lie in (0, 1]")
    if not np.sqrt(nu) > d:
        warnings.warn(
            "sqrt(nu) = %.3g <= d = %d: meter phases closer than the "
            "heterodyne resolution, discrimination unreliable" % (np.sqrt(nu), d),
            stacklevel=stacklevel,
        )


def trigger_probability(nu, d, j, eta_det=1.0, convention=CONVENTION_PAPER):
    """No-click probability at the meter's difference port for residue j.

    The meter |sqrt(nu) w^j> interferes with a reference |sqrt(nu) w>; a detector of
    efficiency eta_det watches the dark output, which carries |w^j - w|^2.  That vanishes
    only at j = 1, so the trigger fires (no click) with probability 1 exactly there in
    either exponent convention.  j may be an integer array, every entry in [0, d).
    """
    _check_meter(nu, d, eta_det)
    return _trigger(nu, d, _index(j, d, "j"), eta_det, convention)


def _trigger(nu, d, j, eta_det, convention):
    """trigger_probability of the checked nu, d, j and eta_det."""
    if convention not in _DIVISORS:
        raise ValueError("convention must be 'paper' or 'recomputed'")
    gap = 2.0 - 2.0 * np.cos(2 * np.pi * (j - 1) / d)
    return np.exp(-eta_det * nu * gap / _DIVISORS[convention])[()]
