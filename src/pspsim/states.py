"""p11's coherent route: the inputs' coherent expansions and the Gram kernel on them.

A superposition c_1 |a_1> + c_2 |a_2> + ... of (multimode) coherent states
is two arrays: coefficients c of shape (terms,) and labels a of shape
(terms,) for one mode or (terms, modes).  _circles writes |j_d> as its d
terms, one row per mu of a PSPParams grid (one row for a number mu): the one
coherent expansion the package builds.  The 50:50 beam splitter relabels
terms and vacuum projections are Gram contractions, both closed forms in the
labels, so nothing here is truncated.  The number-basis expansion that
checks them lives in the test tree (tests/oracle.py).

Conventions:
    <a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a)*b)
    beam splitter: (a, b) -> ((a+b)/sqrt(2), (a-b)/sqrt(2))
"""

import math

import numpy as np

from .errors import REAL_RESIDUE_TOL, NumericalDiagnosticError, TruncationError
from .pns import _nonzero_mass

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


def _circle_inputs(p):
    """_circles' arguments for p, one row per mu; d -> infinity is refused before M_j is read."""
    if p.d == math.inf:
        raise ValueError("the d -> infinity limit has no finite coherent expansion")
    mus = np.array(p.mu, dtype=float, ndmin=1)
    return mus, _nonzero_mass(mus, p.d, p.j), p.d, p.j, p.delta


def _circles(mus, masses, d, j, delta):
    """The normalized d-term coherent expansion of |j_d> = PSPParams(mu, d, j, delta)
    for each mu of a 1-D grid, whose M_j are masses (_nonzero_mass), as two
    (len(mus), d) arrays: term q has coefficient w^{-jq} / sqrt(N) and label
    sqrt(mu) w^{q + delta}; row k goes through the one-point arithmetic elementwise."""
    q = np.arange(d)
    coeffs = np.exp(-2j * np.pi * j * q / d) / np.sqrt(d * d * masses)[:, None]
    labels = np.sqrt(mus)[:, None] * np.exp(2j * np.pi * (q + delta) / d)
    return coeffs, labels


def _pair_exponents(labels, modes):
    """Matrix of overlap exponents E[i, k] = log <x_i|x_k> of a state's terms with
    themselves, with cross terms conj(x_im) x_km of the listed modes only.

    The norm exponents -|x_i|^2/2 - |x_k|^2/2 span every mode, so leaving a
    mode out projects it onto vacuum.  Per-mode exponents are summed before
    exponentiation, so products over modes never underflow pairwise.  A
    matrix of more than GRAM_MAX_ENTRIES entries is a TruncationError,
    raised before it is allocated.
    """
    _check_gram(labels.shape[0] ** 2)
    ex = -0.5 * np.sum(np.abs(labels) ** 2, axis=1)
    cross = np.zeros((labels.shape[0], labels.shape[0]), dtype=complex)
    for mode in modes:
        cross += np.conj(labels[:, mode])[:, None] * labels[None, :, mode]
    cross += ex[:, None] + ex[None, :]
    return cross


def _check_gram(entries):
    """TruncationError if a Gram matrix of this many entries exceeds GRAM_MAX_ENTRIES."""
    if entries > GRAM_MAX_ENTRIES:
        raise TruncationError("a Gram matrix of %d entries exceeds GRAM_MAX_ENTRIES = %d"
                              % (entries, GRAM_MAX_ENTRIES))


def _projection(bra, gram, ket):
    """The real number bra @ gram @ ket; an imaginary part above REAL_RESIDUE_TOL is a
    NumericalDiagnosticError."""
    val = complex(bra @ gram @ ket)
    if abs(val.imag) > REAL_RESIDUE_TOL:
        raise NumericalDiagnosticError("vacuum projection has imaginary residue %.3e" % val.imag)
    return float(val.real)


def _hom_outputs(c1, l1, c2, l2):
    """Coefficients (points, d1 d2) and labels (points, d1 d2, 2) of the splitter's output
    for the one-mode inputs of each row of c1, l1, (points, d1), and c2, l2, (points, d2).

    Output term q1 d2 + q2 has coefficient c1[q1] c2[q2] and the labels
    ((a + b)/sqrt(2), (a - b)/sqrt(2)) of a = l1[q1], b = l2[q2].
    """
    (points, d1), d2 = c1.shape, c2.shape[1]
    kets = (c1[:, :, None] * c2[:, None, :]).reshape(points, d1 * d2)
    a, b = l1[:, :, None], l2[:, None, :]
    out = np.empty((points, d1, d2, 2), dtype=complex)
    out[..., 0], out[..., 1] = (a + b) / _SQRT2, (a - b) / _SQRT2
    return kets, out.reshape(points, d1 * d2, 2)


def _hom_projections(ket, labels):
    """(va, vb, vab): the probabilities that output mode 0, mode 1 and both hold
    vacuum, for the output term coefficients ket and labels, one row of _hom_outputs.

    Each is the Gram matrix over the kept mode's cross terms alone (mode 1,
    mode 0, none), exponentiated and contracted with the coefficients.
    """
    bra = np.conj(ket)
    values = []
    for keep in ((1,), (0,), ()):
        gram = _pair_exponents(labels, keep)
        values.append(_projection(bra, np.exp(gram, out=gram), ket))
    return values


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


def _equal_input_projections(coeffs, labels):
    """_hom_projections(*_hom_outputs(c, l, c, l)) for the one-mode inputs c, l of
    each row of coeffs and labels, (points, d) arrays.

    Yields one (va, vb, vab) per row, in order, each value with the bits of
    that call.  The outputs' coefficients and labels come a block of rows at
    a time from _hom_outputs.  The input exchange maps an output
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
        kets, out = _hom_outputs(*(coeffs[start:start + step], labels[start:start + step]) * 2)
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
