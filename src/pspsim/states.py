"""Exact algebra over finite superpositions of multimode coherent states.

A state is stored as a list of weighted coherent terms
c_1 |a_11, a_12, ...> + c_2 |a_21, a_22, ...> + ...; overlaps, 50:50 beam
splitters and vacuum projections all have closed forms in the labels, so
nothing here is truncated.  The number-basis expansion that checks these
closed forms lives in the test tree (tests/oracle.py), not in the package.

Conventions:
    <a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a)*b)
    beam splitter: (a, b) -> ((a+b)/sqrt(2), (a-b)/sqrt(2))
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import REAL_RESIDUE_TOL, NumericalDiagnosticError, TruncationError, _index

# Most entries a Gram matrix of coherent terms may hold: d <= 64 for the d^4
# entries of equal-input p11.  A larger matrix is a TruncationError before it
# is allocated, not a MemoryError or an exhausted host.
GRAM_MAX_ENTRIES = 2**24
# Most output terms (points times d^2) whose coefficients and labels
# _equal_input_projections builds at once: a point's Gram work dwarfs its
# share of the build from a few points on, and larger blocks only raise the
# peak memory.
_PAIR_BLOCK = 2**8

_SQRT2 = np.sqrt(2.0)
# log(n!) for n < 4096, the photon numbers of a first residue-mass block with
# d <= 64.
_LOG_FACTORIALS = np.array([math.lgamma(n + 1.0) for n in range(4096)])


def log_factorial(n):
    """log(n!) = math.lgamma(n + 1) for a nonnegative integer n or integer array n.

    Read from a table when every n is below 4096, and from math.lgamma one n
    at a time otherwise, so each value has the same bits either way.
    """
    try:
        return _LOG_FACTORIALS[n]
    except IndexError:
        values = [math.lgamma(k + 1.0) for k in np.ravel(n).tolist()]
        return np.array(values).reshape(np.shape(n))[()]


@dataclass(frozen=True)
class CoherentSuperposition:
    """Weighted sum of multimode coherent states.

    coeffs: complex array of shape (terms,)
    labels: complex array of shape (terms, modes); labels[t, m] is the
        coherent amplitude of term t in mode m.
    Terms are never merged, even when labels coincide.
    """

    coeffs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        labels = np.asarray(self.labels, dtype=complex)
        if labels.ndim == 1:
            labels = labels[:, None]
        if coeffs.ndim != 1 or labels.ndim != 2:
            raise ValueError("coeffs must be 1-d and labels 2-d")
        if coeffs.shape[0] != labels.shape[0]:
            raise ValueError("coeffs and labels disagree on the number of terms")
        if coeffs.shape[0] < 1 or labels.shape[1] < 1:
            raise ValueError("need at least one term and one mode")
        if not (np.all(np.isfinite(coeffs)) and np.all(np.isfinite(labels))):
            raise ValueError("coefficients and labels must be finite")
        coeffs.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "labels", labels)

    @property
    def term_count(self):
        return self.coeffs.shape[0]

    @property
    def mode_count(self):
        return self.labels.shape[1]


def coherent_state(*alphas):
    """Single-term coherent state |alpha_1, alpha_2, ...>."""
    return CoherentSuperposition(np.ones(1, dtype=complex), np.array([alphas], dtype=complex))


def _pair_exponents(x_labels, y_labels, modes=None):
    """Matrix of overlap exponents E[i, j] = log <x_i|y_j>, with cross terms
    conj(x_im) y_jm of the listed modes only (all by default).

    The norm exponents -|x_i|^2/2 - |y_j|^2/2 span every mode, so leaving a
    mode out projects it onto vacuum.  Per-mode exponents are summed before
    exponentiation, so products over modes never underflow pairwise.  A
    matrix of more than GRAM_MAX_ENTRIES entries is a TruncationError,
    raised before it is allocated.
    """
    _check_gram(x_labels.shape[0] * y_labels.shape[0])
    ex = -0.5 * np.sum(np.abs(x_labels) ** 2, axis=1)
    ey = -0.5 * np.sum(np.abs(y_labels) ** 2, axis=1)
    cross = np.zeros((x_labels.shape[0], y_labels.shape[0]), dtype=complex)
    for mode in range(x_labels.shape[1]) if modes is None else modes:
        cross += np.conj(x_labels[:, mode])[:, None] * y_labels[None, :, mode]
    cross += ex[:, None] + ey[None, :]
    return cross


def _check_gram(entries):
    """TruncationError if a Gram matrix of this many entries exceeds GRAM_MAX_ENTRIES."""
    if entries > GRAM_MAX_ENTRIES:
        raise TruncationError("a Gram matrix of %d entries exceeds GRAM_MAX_ENTRIES = %d"
                              % (entries, GRAM_MAX_ENTRIES))


def inner_product(x, y):
    """Exact inner product <x|y> of two superpositions on equal mode counts."""
    if x.mode_count != y.mode_count:
        raise ValueError("mode-count mismatch: %d vs %d" % (x.mode_count, y.mode_count))
    gram = _pair_exponents(x.labels, y.labels)
    return complex(np.conj(x.coeffs) @ np.exp(gram, out=gram) @ y.coeffs)


def norm(x):
    """State norm sqrt(<x|x>)."""
    val = inner_product(x, x).real
    return float(np.sqrt(max(val, 0.0)))


def tensor(x, y):
    """Tensor product; term count multiplies, labels concatenate."""
    coeffs = np.outer(x.coeffs, y.coeffs).ravel()
    lx = np.repeat(x.labels, y.term_count, axis=0)
    ly = np.tile(y.labels, (x.term_count, 1))
    return CoherentSuperposition(coeffs, np.hstack([lx, ly]))


def beam_splitter(state):
    """50:50 beam splitter (a, b) -> ((a+b)/sqrt(2), (a-b)/sqrt(2)) on modes 0 and 1, a pure
    relabeling of terms; further modes pass through, and a one-mode state is a ValueError."""
    if state.mode_count < 2:
        raise ValueError("beam splitter needs at least two modes")
    labels = np.array(state.labels)
    labels[:, 0], labels[:, 1] = _split(state.labels[:, 0], state.labels[:, 1])
    return CoherentSuperposition(state.coeffs, labels)


def _split(a, b):
    """The splitter's output labels (a + b)/sqrt(2) and (a - b)/sqrt(2), elementwise."""
    return (a + b) / _SQRT2, (a - b) / _SQRT2


def vacuum_probabilities(state, mode_sets):
    """<psi| P_m |psi> for each tuple of modes m in mode_sets, as a list of floats.

    P_m projects the modes of m onto vacuum.  Closed form: the Gram matrix
    with the cross terms of the projected modes removed (_pair_exponents
    over the kept modes).  The state need not be normalized; for a
    normalized state each result is a probability.  A mode outside
    [0, mode_count), or one that is not an integer, is a ValueError; an
    imaginary part above REAL_RESIDUE_TOL is a NumericalDiagnosticError.
    """
    projected = [_index(tuple(modes), state.mode_count, "mode indices").tolist()
                 for modes in mode_sets]
    bra = np.conj(state.coeffs)
    values = []
    for modes in projected:
        keep = [m for m in range(state.mode_count) if m not in modes]
        gram = _pair_exponents(state.labels, state.labels, keep)
        values.append(_projection(bra, np.exp(gram, out=gram), state.coeffs))
    return values


def _projection(bra, gram, ket):
    """The real number bra @ gram @ ket; an imaginary part above REAL_RESIDUE_TOL is a
    NumericalDiagnosticError."""
    val = complex(bra @ gram @ ket)
    if abs(val.imag) > REAL_RESIDUE_TOL:
        raise NumericalDiagnosticError("vacuum projection has imaginary residue %.3e" % val.imag)
    return float(val.real)


def _exchange_layout(d):
    """Index maps of the input exchange on d^2 terms i = q1 d + q2.

    Returns the rows with q1 <= q2 in increasing order, which hold each
    exchange orbit once; the permutation i -> q2 d + q1; and the orbit of
    each term, its position among those rows.
    """
    q1, q2 = np.triu_indices(d)
    orbit = np.empty((d, d), dtype=np.intp)
    orbit[q1, q2] = orbit[q2, q1] = np.arange(q1.size)
    swap = np.arange(d * d).reshape(d, d).T.ravel()
    return q1 * d + q2, swap, orbit.ravel()


def _unfold_exchange(packed, gram, d, swap, orbit):
    """Fill a Gram matrix from its rows q1 <= q2, which packed holds in increasing order.

    Row (q1, q2 >= q1) is copied from packed; row (q1, q2 < q1) is then row
    (q2, q1) with its columns exchanged.  swap and orbit are _exchange_layout(d)'s.
    """
    packed.take(orbit, axis=0, out=gram, mode="clip")
    for q1 in range(1, d):
        # rows (0..q1-1, q1) lie above rows (q1, 0..q1-1): the views never overlap
        gram[q1:q1 * d:d].take(swap, axis=1, out=gram[q1 * d:q1 * d + q1], mode="clip")


def _equal_input_outputs(coeffs, labels):
    """Coefficients (points, d^2) and labels (points, d^2, 2) of
    beam_splitter(tensor(s, s)) for the one-mode state s of each row of
    coeffs and labels, (points, d) arrays, by the elementwise arithmetic of
    tensor and beam_splitter."""
    points, d = coeffs.shape
    kets = (coeffs[:, :, None] * coeffs[:, None, :]).reshape(points, d * d)  # np.outer
    out = np.empty((points, d, d, 2), dtype=complex)
    out[..., 0], out[..., 1] = _split(labels[:, :, None], labels[:, None, :])
    return kets, out.reshape(points, d * d, 2)


def _equal_input_projections(coeffs, labels):
    """vacuum_probabilities(beam_splitter(tensor(s, s)), ((0,), (1,), (0, 1)))
    for the one-mode state s of each row of coeffs and labels, (points, d) arrays.

    Yields one (va, vb, vab) per row, in order, each value with the bits of
    that call.  The outputs' coefficients and labels come a block of rows at
    a time from _equal_input_outputs.  The input exchange maps an output
    term i = q1 d + q2 to q2 d + q1; it keeps every mode-0 label
    (x + y == y + x) and every norm exponent bit for bit, and negates every
    mode-1 label exactly.  So the Gram matrix of (0,), which keeps mode 1,
    repeats row (q1, q2) as row (q2, q1) with its columns exchanged: only
    its d (d + 1) / 2 rows q1 <= q2 are exponentiated, into one packed
    buffer, and _unfold_exchange spreads them over the one Gram buffer.
    Those of (1,) and (0, 1) depend on the exchange orbits of row and column
    alone: each is one orbit-by-orbit block, exponentiated once and gathered
    along columns into the packed buffer, then along rows into the Gram
    buffer.  Each row keeps its own contraction and its residue check.  A d^4
    above GRAM_MAX_ENTRIES is a TruncationError, raised before any buffer is
    allocated.
    """
    points, d = coeffs.shape
    n = d * d
    _check_gram(n * n)
    rows, swap, orbit = _exchange_layout(d)
    m = rows.size
    gram = np.empty((n, n), dtype=complex)
    packed = np.empty((m, n), dtype=complex)
    # the norm exponents, then the orbit block, lie in the Gram buffer; each
    # is used up before the Gram matrix is written over it
    norm_exponents = gram.reshape(-1).view(float)[:m * n].reshape(m, n)
    block = gram.reshape(-1)[:m * m].reshape(m, m)
    step = max(1, _PAIR_BLOCK // n)

    def spread(bra, ket):  # the projection of the exponents in the orbit block
        np.exp(block, out=block)
        block.take(orbit, axis=1, out=packed, mode="clip")
        packed.take(orbit, axis=0, out=gram, mode="clip")
        return _projection(bra, gram, ket)

    for start in range(0, points, step):
        kets, out = _equal_input_outputs(coeffs[start:start + step], labels[start:start + step])
        ex = -0.5 * np.sum(np.abs(out) ** 2, axis=2)
        for ket, bra, lab, e in zip(kets, np.conj(kets), out, ex):
            reps = lab[rows]  # one term of each orbit
            conj_reps = np.conj(reps)
            np.add(e[rows, None], e[None, :], out=norm_exponents)
            orbit_exponents = norm_exponents[:, rows]
            np.multiply(conj_reps[:, 1, None], lab[None, :, 1], out=packed)
            packed += norm_exponents
            np.exp(packed, out=packed)
            _unfold_exchange(packed, gram, d, swap, orbit)
            va = _projection(bra, gram, ket)
            np.multiply(conj_reps[:, 0, None], reps[None, :, 0], out=block)
            block += orbit_exponents
            vb = spread(bra, ket)
            block[...] = orbit_exponents
            yield va, vb, spread(bra, ket)
