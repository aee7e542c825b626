"""Exact algebra over finite superpositions of multimode coherent states.

A state is stored as a list of weighted coherent terms
c_1 |a_11, a_12, ...> + c_2 |a_21, a_22, ...> + ...; overlaps, 50:50 beam
splitters, vacuum projections and single-mode bra contractions all have
closed forms in the labels, so nothing here is truncated.  A photon-number
(Fock) representation with an explicit cutoff is provided alongside as an
independent oracle: the two paths share no formulas beyond <n|alpha>.

Conventions:
    <a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a)*b)
    X beam splitter: (a, b) -> ((a+b)/sqrt(2), (a-b)/sqrt(2))
    Y beam splitter: (a, b) -> ((a+i*b)/sqrt(2), (a-i*b)/sqrt(2))
"""

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from scipy.special import gammaln, pdtrc

from .errors import TruncationError

# Poisson tail kept below this when choosing cutoffs automatically.
TAIL_TOL = 1e-14
GUARD_LEVELS = 2

_SQRT2 = np.sqrt(2.0)


def coherent_overlap(a, b):
    """Overlap <a|b> of two single-mode coherent states (elementwise on arrays)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.exp(-0.5 * (np.abs(a) ** 2 + np.abs(b) ** 2) + np.conj(a) * b)
    return out[()]


def fock_amplitude(alpha, n):
    """Amplitude <n|alpha> = e^{-|alpha|^2/2} alpha^n / sqrt(n!).

    Evaluated in log space so large n and large |alpha| do not overflow.
    n may be an integer array.
    """
    alpha = complex(alpha)
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("photon number must be nonnegative")
    if alpha == 0:
        return np.where(n == 0, 1.0, 0.0) + 0j
    log_mag = -0.5 * abs(alpha) ** 2 + n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1)
    return (np.exp(log_mag) * np.exp(1j * np.angle(alpha) * n))[()]


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


def _pair_exponents(x_labels, y_labels, cross_modes=None):
    """Matrix of overlap exponents E[i, j] = log <x_i|y_j> over selected modes.

    Per-mode exponents are summed before exponentiation, so products over
    modes never underflow pairwise.  cross_modes selects which modes keep the
    conj(x)*y cross term; the Gaussian norm factors are always included, which
    turns the dropped modes into vacuum projections.
    """
    m = x_labels.shape[1]
    if cross_modes is None:
        cross_modes = range(m)
    ex = -0.5 * np.sum(np.abs(x_labels) ** 2, axis=1)
    ey = -0.5 * np.sum(np.abs(y_labels) ** 2, axis=1)
    cross = np.zeros((x_labels.shape[0], y_labels.shape[0]), dtype=complex)
    for mode in cross_modes:
        cross += np.conj(x_labels[:, mode])[:, None] * y_labels[None, :, mode]
    return ex[:, None] + ey[None, :] + cross


def inner_product(x, y):
    """Exact inner product <x|y> of two superpositions on equal mode counts."""
    if x.mode_count != y.mode_count:
        raise ValueError("mode-count mismatch: %d vs %d" % (x.mode_count, y.mode_count))
    gram = np.exp(_pair_exponents(x.labels, y.labels))
    return complex(np.conj(x.coeffs) @ gram @ y.coeffs)


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


def beam_splitter(state, mode_a=0, mode_b=1, variant="X"):
    """50:50 beam splitter between two modes; a pure relabeling of terms.

    variant "X": (a, b) -> ((a+b)/sqrt(2), (a-b)/sqrt(2))
    variant "Y": (a, b) -> ((a+i*b)/sqrt(2), (a-i*b)/sqrt(2))
    """
    if variant not in ("X", "Y"):
        raise ValueError("variant must be 'X' or 'Y'")
    if mode_a == mode_b:
        raise ValueError("beam splitter needs two distinct modes")
    for m in (mode_a, mode_b):
        if not 0 <= m < state.mode_count:
            raise ValueError("mode index %d out of range" % m)
    s = 1j if variant == "Y" else 1.0
    labels = np.array(state.labels)
    a = labels[:, mode_a].copy()
    b = labels[:, mode_b].copy()
    labels[:, mode_a] = (a + s * b) / _SQRT2
    labels[:, mode_b] = (a - s * b) / _SQRT2
    return CoherentSuperposition(state.coeffs, labels)


def vacuum_probability(state, modes):
    """<psi| P |psi> with P projecting the listed modes onto vacuum.

    Closed form: the Gram matrix with the cross terms of the projected modes
    removed.  The state need not be normalized; for a normalized state the
    result is a probability.
    """
    modes = tuple(modes)
    for m in modes:
        if not 0 <= m < state.mode_count:
            raise ValueError("mode index %d out of range" % m)
    keep = [m for m in range(state.mode_count) if m not in modes]
    gram = np.exp(_pair_exponents(state.labels, state.labels, cross_modes=keep))
    val = complex(np.conj(state.coeffs) @ gram @ state.coeffs)
    if abs(val.imag) > 1e-10:
        from .errors import NumericalDiagnosticError

        raise NumericalDiagnosticError(
            "vacuum projection has imaginary residue %.3e" % val.imag
        )
    return float(val.real)


def project_mode(state, mode, bra):
    """Contract one mode with a single-mode bra superposition.

    Returns the unnormalized superposition <bra|_mode |state> on the
    remaining modes; its norm squared is the probability weight of the
    projection when state and bra are normalized.
    """
    if bra.mode_count != 1:
        raise ValueError("bra must be a single-mode state")
    if state.mode_count < 2:
        raise ValueError("cannot project out the only mode")
    if not 0 <= mode < state.mode_count:
        raise ValueError("mode index %d out of range" % mode)
    ov = np.exp(_pair_exponents(bra.labels, state.labels[:, [mode]]))
    factors = np.conj(bra.coeffs) @ ov
    labels = np.delete(state.labels, mode, axis=1)
    return CoherentSuperposition(state.coeffs * factors, labels)


# ---------------------------------------------------------------------------
# Truncated photon-number representation (the independent oracle path)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FockVector:
    """Dense photon-number amplitudes, shape (cutoff+1,) * mode_count."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim < 1:
            raise ValueError("amplitudes must have at least one axis")
        dims = set(amps.shape)
        if len(dims) != 1:
            raise ValueError("all modes must share one cutoff")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def cutoff(self):
        return self.amplitudes.shape[0] - 1

    @property
    def mode_count(self):
        return self.amplitudes.ndim

    def norm_squared(self):
        return float(np.sum(np.abs(self.amplitudes) ** 2))


def auto_cutoff(lam, tail_tol=TAIL_TOL):
    """Smallest N with Poisson(lam) mass above N below tail_tol, plus guard levels."""
    if lam <= 0:
        return GUARD_LEVELS
    # pdtrc(n, lam) is the Poisson tail P(X > n); the two loops move any
    # starting guess to the smallest n whose tail is below tail_tol.
    n = int(lam)
    while pdtrc(n, lam) >= tail_tol:
        n += 1
    while n > 0 and pdtrc(n - 1, lam) < tail_tol:
        n -= 1
    return n + GUARD_LEVELS


def to_fock(state, cutoff=None, tail_tol=TAIL_TOL):
    """Expand a coherent superposition in the photon-number basis.

    cutoff=None picks the automatic rule from the largest per-mode |label|^2;
    an explicit cutoff raises TruncationError if the Poisson tail beyond it
    is not below tail_tol.
    """
    lam = float(np.max(np.abs(state.labels) ** 2))
    if cutoff is None:
        cutoff = auto_cutoff(lam, tail_tol)
    elif lam > 0 and pdtrc(cutoff, lam) >= tail_tol:
        raise TruncationError(
            "cutoff %d keeps Poisson tail %.3e above %.3e at intensity %.6g"
            % (cutoff, pdtrc(cutoff, lam), tail_tol, lam)
        )
    ns = np.arange(cutoff + 1)
    shape = (cutoff + 1,) * state.mode_count
    amps = np.zeros(shape, dtype=complex)
    for c, labels in zip(state.coeffs, state.labels):
        cols = [fock_amplitude(a, ns) for a in labels]
        amps += c * reduce(np.multiply.outer, cols)
    return FockVector(amps)


def fock_inner(x, y):
    """Inner product in the number basis (conjugates the first argument)."""
    if x.amplitudes.shape != y.amplitudes.shape:
        raise ValueError("shape mismatch between Fock vectors")
    return complex(np.vdot(x.amplitudes, y.amplitudes))


@lru_cache(maxsize=32)
def _bs_unitary(cutoff, variant):
    """Number-basis 50:50 beam splitter on two modes with a shared cutoff.

    Built as expm(sum_jk L_jk adag_j a_k) with L = logm(S) for the 2x2 label
    map S, which sends |a, b> to |S(a, b)> exactly; photon number is
    conserved, so the truncated generator stays anti-Hermitian and the result
    is unitary on the truncated space.
    """
    from scipy.linalg import expm, logm  # oracle-only; kept out of the import path

    s = 1j if variant == "Y" else 1.0
    S = np.array([[1.0, s], [1.0, -s]], dtype=complex) / _SQRT2
    L = logm(S)
    dim = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    eye = np.eye(dim)
    ops = [np.kron(a, eye), np.kron(eye, a)]
    gen = np.zeros((dim * dim, dim * dim), dtype=complex)
    for jj in range(2):
        for kk in range(2):
            gen += L[jj, kk] * (ops[jj].conj().T @ ops[kk])
    return expm(gen)


def fock_beam_splitter(fv, mode_a=0, mode_b=1, variant="X", leak_tol=1e-8):
    """50:50 beam splitter in the number basis (two-mode states only).

    Flags truncation overflow when the input mass on total photon numbers
    above the cutoff boundary exceeds leak_tol; those components would be
    distorted by the truncated unitary.
    """
    if fv.mode_count != 2:
        raise ValueError("number-basis beam splitter supports exactly two modes")
    if variant not in ("X", "Y"):
        raise ValueError("variant must be 'X' or 'Y'")
    if {mode_a, mode_b} != {0, 1}:
        raise ValueError("mode indices must be 0 and 1")
    amps = fv.amplitudes
    if mode_a == 1:
        amps = amps.T
    c = fv.cutoff
    n1, n2 = np.meshgrid(np.arange(c + 1), np.arange(c + 1), indexing="ij")
    leak = float(np.sum(np.abs(amps[n1 + n2 > c]) ** 2))
    if leak > leak_tol:
        raise TruncationError(
            "mass %.3e beyond the conserved-number boundary exceeds %.3e" % (leak, leak_tol)
        )
    out = (_bs_unitary(c, variant) @ amps.reshape(-1)).reshape(c + 1, c + 1)
    if mode_a == 1:
        out = out.T
    return FockVector(out)


# ---------------------------------------------------------------------------
# Mixed states as coherent dyads, with a number-basis bridge for fidelities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoherentDyadOperator:
    """Operator sum_k c_k |ket_k><bra_k| with multimode coherent labels."""

    coeffs: np.ndarray
    ket_labels: np.ndarray
    bra_labels: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        kets = np.asarray(self.ket_labels, dtype=complex)
        bras = np.asarray(self.bra_labels, dtype=complex)
        if kets.ndim == 1:
            kets = kets[:, None]
        if bras.ndim == 1:
            bras = bras[:, None]
        if not (coeffs.shape[0] == kets.shape[0] == bras.shape[0]):
            raise ValueError("dyad arrays disagree on the number of terms")
        if kets.shape[1] != bras.shape[1]:
            raise ValueError("ket and bra mode counts differ")
        if not all(np.all(np.isfinite(arr)) for arr in (coeffs, kets, bras)):
            raise ValueError("dyad data must be finite")
        for arr in (coeffs, kets, bras):
            arr.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "ket_labels", kets)
        object.__setattr__(self, "bra_labels", bras)

    @property
    def mode_count(self):
        return self.ket_labels.shape[1]

    def trace(self):
        """Closed-form trace sum_k c_k <bra_k|ket_k>."""
        expo = (
            -0.5 * np.sum(np.abs(self.ket_labels) ** 2, axis=1)
            - 0.5 * np.sum(np.abs(self.bra_labels) ** 2, axis=1)
            + np.sum(np.conj(self.bra_labels) * self.ket_labels, axis=1)
        )
        return complex(np.sum(self.coeffs * np.exp(expo)))

    def to_fock_matrix(self, cutoff=None, tail_tol=TAIL_TOL):
        """Dense density-matrix representation in the number basis."""
        lam = float(
            max(np.max(np.abs(self.ket_labels) ** 2), np.max(np.abs(self.bra_labels) ** 2))
        )
        if cutoff is None:
            cutoff = auto_cutoff(lam, tail_tol)
        elif lam > 0 and pdtrc(cutoff, lam) >= tail_tol:
            raise TruncationError("cutoff %d too small for intensity %.6g" % (cutoff, lam))
        ns = np.arange(cutoff + 1)
        dim = (cutoff + 1) ** self.mode_count
        rho = np.zeros((dim, dim), dtype=complex)
        for c, ket, bra in zip(self.coeffs, self.ket_labels, self.bra_labels):
            kvec = reduce(np.multiply.outer, [fock_amplitude(a, ns) for a in ket]).reshape(-1)
            bvec = reduce(np.multiply.outer, [fock_amplitude(a, ns) for a in bra]).reshape(-1)
            rho += c * np.outer(kvec, np.conj(bvec))
        return rho


def uhlmann_fidelity(rho, sigma):
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)).

    Square-root convention: 1 for identical states, |<a|b>| for pure states.
    Negative eigenvalues from rounding are clipped at zero.
    """
    from scipy.linalg import eigh  # oracle-only; kept out of the import path

    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    w, v = eigh(rho)
    w = np.clip(w, 0.0, None)
    sq = (v * np.sqrt(w)) @ v.conj().T
    ev = np.linalg.eigvalsh(sq @ sigma @ sq)
    return float(np.sum(np.sqrt(np.clip(ev, 0.0, None))))
