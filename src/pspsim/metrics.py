"""Single-photon quality metrics: g2(0) and two-photon interference.

Each metric exists twice: a production closed form and an independent
number-basis evaluation used as an oracle in the tests.  g2 is a phase
double sum, p11 a set of Gram-matrix vacuum projections on the coherent
expansion, and f2002 the product of the inputs' one-photon probabilities.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalDiagnosticError
from .pns import _validate_d, normalization, photon_number_probability, pseudo_number_state
from .states import beam_splitter, tensor, vacuum_probabilities

# Residue tolerances: values that must be real / probabilities that must
# land in [0, 1] may miss by this much before it is an error.
REAL_RESIDUE_TOL = 1e-10
UNIT_RESIDUE_TOL = 1e-12


def _clamp_unit(x, name):
    if x < -UNIT_RESIDUE_TOL or x > 1.0 + UNIT_RESIDUE_TOL:
        raise NumericalDiagnosticError("%s = %.6e falls outside [0, 1]" % (name, x))
    return min(max(x, 0.0), 1.0)


def g2_zero_closed(mu, d):
    """Zero-delay second-order correlation of |1_d> with mean parameter mu.

    g2(0) = N_{mu,1} * A / B^2 with A, B the phase double sums
    A = sum_{q,q'} w^{q-q'} exp((w^{q-q'}-1) mu), B the same without the
    w^{q-q'} factor.  The quadrature moment <a'|a^+a^+aa|a> contributes
    w^{2(q-q')}, which combines with the coefficient phase w^{q'-q} to the
    net factor w^{q-q'}; pairing the opposite sign instead fails the Fock
    cross-check for every d >= 3.  d = 1 is the coherent state, returns 1.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if not math.isfinite(mu):  # before the phase sum, which would warn on it
        raise ValueError("mu must be finite")
    _validate_d(d)
    s = np.arange(d)
    ph = np.exp(2j * np.pi * s / d)
    ex = np.exp(mu * (ph - 1.0))
    a = d * np.sum(ph * ex)
    b = d * np.sum(ex)
    n = normalization(mu, d, 1 % d)
    val = n * a / (b * b)
    if abs(val.imag) > REAL_RESIDUE_TOL * max(1.0, abs(val.real)):
        raise NumericalDiagnosticError(
            "g2 numerator residue %.3e exceeds tolerance" % val.imag
        )
    return float(val.real)


def g2_zero_oracle(fv):
    """<n(n-1)> / <n>^2 evaluated directly on single-mode Fock amplitudes."""
    if fv.mode_count != 1:
        raise ValueError("g2 oracle expects a single-mode state")
    p = np.abs(fv.amplitudes) ** 2
    ns = np.arange(p.shape[0])
    mean = float(np.sum(ns * p))
    if mean <= 0:
        raise ValueError("state carries no photons; g2 undefined")
    pairs = float(np.sum(ns * (ns - 1) * p))
    return pairs / mean**2


@dataclass(frozen=True)
class HomResult:
    """Hong-Ou-Mandel output: coincidence rate and NOON fidelity."""

    p11: float
    f2002: float


def p11(p1, p2):
    """Coincidence probability of two pseudo-number states on an X beam splitter.

    1 - P(vac a) - P(vac b) + P(vac ab), from the vacuum projections of the
    output's coherent expansion.  Identical inputs bunch (p11 -> 0), and
    d = d' = 1 gives p11 = 0.  Equal inputs are built once.
    """
    s1 = pseudo_number_state(p1)
    s2 = s1 if p2 == p1 else pseudo_number_state(p2)
    out = beam_splitter(tensor(s1, s2), 0, 1, "X")
    va, vb, vab = vacuum_probabilities(out, ((0,), (1,), (0, 1)))
    return _clamp_unit(1.0 - va - vb + vab, "p11")


def f2002(p1, p2):
    """Overlap squared of the X beam-splitter output with (|2,0> - |0,2>)/sqrt(2).

    The splitter sends |1,1> wholly onto that NOON state, and |2,0>, |0,2>
    onto states orthogonal to it, so F2002 = P1(1) P2(1), the product of
    the inputs' one-photon probabilities.  Coherent inputs (d = d' = 1) at
    equal mu give mu^2 exp(-2 mu).
    """
    one = photon_number_probability(p1, 1)
    other = one if p2 == p1 else photon_number_probability(p2, 1)
    return _clamp_unit(one * other, "f2002")


def hom(p1, p2):
    """Interfere two pseudo-number states on an X beam splitter: p11 and f2002."""
    return HomResult(p11=p11(p1, p2), f2002=f2002(p1, p2))


def hom_fock_oracle(fv):
    """(p11, f2002) read off a two-mode number-basis output state."""
    if fv.mode_count != 2:
        raise ValueError("expected a two-mode state")
    p = np.abs(fv.amplitudes) ** 2
    va = float(np.sum(p[0, :]))
    vb = float(np.sum(p[:, 0]))
    vab = float(p[0, 0])
    p11 = 1.0 - va - vb + vab
    amp = (fv.amplitudes[2, 0] - fv.amplitudes[0, 2]) / np.sqrt(2.0)
    return p11, float(abs(amp) ** 2)
