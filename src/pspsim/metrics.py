"""Single-photon quality metrics: g2(0) and two-photon interference.

g2 is a phase double sum, p11 a set of Gram-matrix vacuum projections on
the coherent expansion (for equal inputs, one pass that exponentiates only
the Gram entries the input exchange does not repeat), and f2002 the product
of the inputs' one-photon probabilities.  Each takes a mu grid as well as a
number (g2 as its mu, p11 and f2002 as an input's PSPParams mu) and then
returns an array, each entry with the bits of the one-point call.
Their number-basis oracles, g2 as <n(n-1)>/<n>^2 and the HOM pair read off
a two-mode output, live in the test tree (tests/oracle.py).
"""

import numpy as np

from .errors import REAL_RESIDUE_TOL, UNIT_RESIDUE_TOL, NumericalDiagnosticError, _clamp_unit
from .pns import _mu, _validate_dj, normalization, photon_number_probability
from .states import (_circle_inputs, _circles, _equal_input_projections, _hom_outputs,
                     _hom_projections)


def g2_zero_closed(mu, d):
    """Zero-delay second-order correlation of |1_d> with mean parameter mu.

    g2(0) = N_{mu,1} * A / B^2 with A, B the phase double sums
    A = sum_{q,q'} w^{q-q'} exp((w^{q-q'}-1) mu), B the same without the
    w^{q-q'} factor.  The quadrature moment <a'|a^+a^+aa|a> contributes
    w^{2(q-q')}, which combines with the coefficient phase w^{q'-q} to the
    net factor w^{q-q'}; pairing the opposite sign instead fails the Fock
    cross-check for every d >= 3.  d = 1 is the coherent state: its residue
    mass is exactly 1 and both phase sums are 1, so g2 is exactly 1.
    At small mu the sums cancel to noise around a tiny true value: a result
    down to -UNIT_RESIDUE_TOL reads 0, one below it is a numerical failure.
    mu may be a 1-D array (refused at its first failing mu): one residue table serves
    the normalizations, one (len(mu), d) array the phase sums, each with the scalar call's bits.
    """
    mus = _mu(mu)  # finite before the phase sums, which would warn on it
    if (mus <= 0).any():
        raise ValueError("mu must be positive")
    _validate_dj(d)
    ph = np.exp(2j * np.pi * np.arange(d) / d)
    norms = normalization(mus.ravel(), d, 1 % d)
    ex = np.exp(np.multiply.outer(mus.ravel(), ph - 1.0))
    b = d * np.sum(ex, axis=1)
    val = norms * (d * np.sum(ph * ex, axis=1)) / (b * b)
    residue = np.abs(val.imag) > REAL_RESIDUE_TOL * np.fmax(1.0, np.abs(val.real))
    failed = residue | (val.real < -UNIT_RESIDUE_TOL)
    if failed.any():
        first = int(np.argmax(failed))
        raise NumericalDiagnosticError(
            "g2 numerator residue %.3e exceeds tolerance" % val.imag[first] if residue[first]
            else "g2 = %.6e is negative" % val.real[first])
    g2 = np.where(val.real < 0.0, 0.0, val.real)
    return g2 if mus.ndim else float(g2[0])


def p11(p1, p2):
    """Coincidence probability of two pseudo-number states on an X beam splitter.

    1 - P(vac a) - P(vac b) + P(vac ab), from the vacuum projections of the
    output's coherent expansion (_hom_outputs of the inputs' _circles rows).
    Identical inputs bunch (p11 -> 0), and d = d' = 1 gives p11 = 0.  Equal
    inputs take _equal_input_projections: the output is symmetric under the
    input exchange, so only the Gram entries that exchange does not repeat
    are exponentiated, and every value keeps the bits of the full Gram
    matrices.  Over a mu grid (of either input, or of both at one length)
    the result is an array, each entry with the bits of the one-point call.
    A contraction that overflows is NaN, refused without a warning.
    """
    shape = np.broadcast_shapes(np.shape(p1.mu), np.shape(p2.mu))  # two grid lengths: ValueError
    with np.errstate(over="ignore", invalid="ignore"):
        if p2 == p1:
            projections = _equal_input_projections(*_circles(*_circle_inputs(p1)))
        else:
            rows = [np.broadcast_to(a, (max(shape, default=1), a.shape[1]))
                    for a in _circles(*_circle_inputs(p1)) + _circles(*_circle_inputs(p2))]
            projections = []
            for k in range(rows[0].shape[0]):  # one point's output at a time, as a grid's is large
                kets, labels = _hom_outputs(*(a[k:k + 1] for a in rows))
                projections.append(_hom_projections(kets[0], labels[0]))
        values = [1.0 - va - vb + vab for va, vb, vab in projections]
    return _clamp_unit(np.reshape(values, shape), "p11")


def f2002(p1, p2):
    """Overlap squared of the X beam-splitter output with (|2,0> - |0,2>)/sqrt(2).

    The splitter sends |1,1> wholly onto that NOON state, and |2,0>, |0,2>
    onto states orthogonal to it, so F2002 = P1(1) P2(1), the product of
    the inputs' one-photon probabilities, clamped to [0, 1].  Coherent
    inputs (d = d' = 1) at equal mu give mu^2 exp(-2 mu).  An array over a
    mu grid, as for p11.
    """
    one = photon_number_probability(p1, 1)
    return _clamp_unit(one * (one if p2 == p1 else photon_number_probability(p2, 1)), "f2002")
