"""Number-basis oracles: states as truncated photon-number arrays, built from
their definitions and checked against pspsim's closed forms by the tests.

An m-mode state is a complex array of shape (cutoff + 1,) * m holding
<n_1, ..., n_m|psi>: its ndim is its mode count, np.vdot its inner product.
to_fock expands a coherent expansion, plain (coeffs, labels) arrays as p11's
kernel (pspsim.states) reads them and as cpm_output builds the cross-phase
output, through <n|alpha>, a sum that cancels at small mu as the production
phase sums do, and refuses a result whose norm misses coherent_norm2;
psp_fock writes the pseudo-number state from its definition, with nothing
to cancel, and the g2, HOM and loss oracles read it, as the BB84 readout
reads encoded_fock, its two-pulse phase encoding.
Pure loss is binomial thinning of a density matrix, which never forms a
loss weight; mixture_density only lays pns.loss_channel's weights out as a
matrix, to be compared with it.
"""

import math
from fractions import Fraction
from functools import reduce

import numpy as np
from scipy.linalg import eigh
from scipy.special import gammaln, pdtrc, xlogy

from pspsim import NumericalDiagnosticError, PSPParams, TruncationError

# Poisson tail every photon-number cutoff must keep below this.
TAIL_TOL = 1e-14
# Most input mass the beam splitter may find on total photon numbers above
# its cutoff, which the output array cannot hold and which it drops; and the
# most relative error to_fock may leave in a state's squared norm.
LEAK_TOL = 1e-8
# Photon numbers (support terms, for psp_fock) kept past the tail test.
GUARD_LEVELS = 2
# Most entries an array may hold: (cutoff + 1) per mode, multiplied over the
# modes.  It turns an intensity no dense expansion can hold into a
# TruncationError instead of an endless cutoff search or an exhausted host.
FOCK_MAX_DIM = 2**20


def fock_amplitude(alpha, n):
    """<n|alpha> = e^{-|alpha|^2/2} alpha^n / sqrt(n!) in log space, broadcast over
    alpha and the integer n; a non-finite alpha or an n that is not a nonnegative
    integer (a bool included) is a ValueError.  The vacuum's is exactly 1 at n = 0
    and exactly 0 above it."""
    alpha = np.asarray(alpha, dtype=complex)
    if not np.isfinite(alpha).all():
        raise ValueError("alpha must be finite")
    n = np.asarray(n)
    if n.dtype.kind not in "iu" or (n < 0).any():  # a bool is kind "b"
        raise ValueError("photon number must be a nonnegative integer")
    r = np.abs(alpha)
    with np.errstate(over="ignore"):  # r**2 is inf above |alpha| ~ 1e154, where it is 0
        log_mag = xlogy(n, r) - 0.5 * r**2 - 0.5 * gammaln(n + 1.0)
    return (np.exp(log_mag) * np.exp(1j * np.angle(alpha) * n))[()]


def auto_cutoff(lam):
    """Smallest N with Poisson(lam) mass above N below TAIL_TOL, plus GUARD_LEVELS, for a
    finite lam; one of FOCK_MAX_DIM or more is a TruncationError, raised before any search."""
    if not math.isfinite(lam):
        raise ValueError("intensity must be finite")
    if lam <= 0:
        return GUARD_LEVELS
    # pdtrc(n, lam) is the Poisson tail P(X > n)
    if pdtrc(FOCK_MAX_DIM - 1 - GUARD_LEVELS, lam) >= TAIL_TOL:
        raise TruncationError(
            "intensity %.6g needs a cutoff above %d photons" % (lam, FOCK_MAX_DIM - 1))
    n = int(lam)  # P(X > int(lam)) is near 1/2 for lam >= 1, and n = 0 below
    while pdtrc(n, lam) >= TAIL_TOL:
        n += 1
    return n + GUARD_LEVELS


def _check_size(cutoff, modes):
    """TruncationError if a (cutoff + 1,) * modes array exceeds FOCK_MAX_DIM entries."""
    if (cutoff + 1) ** modes > FOCK_MAX_DIM:
        raise TruncationError("cutoff %d on %d modes needs more than FOCK_MAX_DIM = %d entries"
                              % (cutoff, modes, FOCK_MAX_DIM))


def _mode_columns(labels):
    """Labels of shape (terms,) or (terms, modes) as a (terms, modes) complex array."""
    labels = np.asarray(labels, dtype=complex)
    return labels[:, None] if labels.ndim == 1 else labels


def coherent_norm2(coeffs, labels):
    """<psi|psi> = conj(c) @ exp(G) @ c of the coherent expansion (coeffs, labels), with
    G[i, k] = log <a_i|a_k> summed over the modes: the closed form that to_fock's
    squared norm must meet.  It cancels at small mu, as the expansion does."""
    labels = _mode_columns(labels)
    ex = -0.5 * np.sum(np.abs(labels) ** 2, axis=1)
    gram = np.conj(labels) @ labels.T + ex[:, None] + ex[None, :]
    return float((np.conj(coeffs) @ np.exp(gram) @ coeffs).real)


def to_fock(coeffs, labels, cutoff=None):
    """The coherent expansion sum_t coeffs[t] |labels[t]> as a (cutoff + 1,) * modes
    array, labels of shape (terms,) for one mode or (terms, modes); cutoff=None picks
    auto_cutoff at the largest per-mode |label|^2.  An explicit cutoff that leaves a
    Poisson tail of TAIL_TOL or more there is a TruncationError.  So is an array whose
    squared norm misses coherent_norm2 by more than LEAK_TOL of it: a cutoff below
    the state's support, or a coherent sum that cancels to noise."""
    labels = _mode_columns(labels)
    lam = float(np.max(np.abs(labels) ** 2))
    if cutoff is None:
        cutoff = auto_cutoff(lam)
    elif lam > 0 and pdtrc(cutoff, lam) >= TAIL_TOL:
        raise TruncationError("cutoff %d keeps Poisson tail %.3e above %.3e at intensity %.6g"
                              % (cutoff, pdtrc(cutoff, lam), TAIL_TOL, lam))
    _check_size(cutoff, labels.shape[1])
    ns = np.arange(cutoff + 1)
    amps = np.zeros((cutoff + 1,) * labels.shape[1], dtype=complex)
    for c, term in zip(coeffs, labels):
        amps += c * reduce(np.multiply.outer, [fock_amplitude(a, ns) for a in term])
    exact = coherent_norm2(coeffs, labels)
    if not abs(np.vdot(amps, amps).real - exact) <= LEAK_TOL * exact:
        raise TruncationError("the expansion's squared norm %.10g misses the state's %.10g"
                              % (np.vdot(amps, amps).real, exact))
    return amps


def _poisson_ratio(p, n):
    """Pois(mu; n) / Pois(mu; m), m the support term of p nearest mu, as the
    correctly rounded double of the exact rational mu^(n - m) m! / n!."""
    m = p.j + p.d * max(0, round((p.mu - p.j) / p.d))
    return float(Fraction(p.mu) ** (n - m) * Fraction(math.factorial(m), math.factorial(n)))


def psp_cutoff(p):
    """The last photon number psp_fock keeps for PSPParams p (finite d).

    Over the support n = j, j + d, ..., the rule keeps every term with
    n < 2, the first with n >= 2 (which <n(n-1)> needs), and every term with
    n <= mu.  Past those it stops before the first Poisson term at or below
    TAIL_TOL of the kept n >= 2 sum, a relative test because M_j can be
    1e-25, and then keeps GUARD_LEVELS more support terms for the
    n(n-1)-weighted tail.
    """
    if p.mu >= FOCK_MAX_DIM:
        raise TruncationError("mu %.6g needs a cutoff above %d photons" % (p.mu, FOCK_MAX_DIM - 1))
    n, pairs = p.j, None  # pairs: the kept n >= 2 sum, once a term with n >= 2 is kept
    while True:
        term = _poisson_ratio(p, n)
        if pairs is not None and n > p.mu and term <= TAIL_TOL * pairs:
            return n + (GUARD_LEVELS - 1) * p.d
        if n >= 2:
            pairs = term + (pairs or 0.0)
        n += p.d


def psp_fock(p, cutoff=None):
    """<n|j_d> of PSPParams p as a (cutoff + 1,) array, written from the definition:

        <n|j_d> = e^{2 pi i delta n / d} sqrt(Pois(mu; n) / S)  on n = j (mod d),

    and 0 off that support, with S the sum of the kept support terms, so the
    array has norm 1 and shares no formula with pns.residue_masses.
    cutoff=None is psp_cutoff(p); an explicit cutoff below it is a
    TruncationError.
    """
    rule = psp_cutoff(p)
    if cutoff is None:
        cutoff = rule
    elif cutoff < rule:
        raise TruncationError("cutoff %d is below the %d that psp_cutoff keeps for %r"
                              % (cutoff, rule, p))
    _check_size(cutoff, 1)
    ns = np.arange(p.j, cutoff + 1, p.d)
    terms = [_poisson_ratio(p, n) for n in ns.tolist()]
    amps = np.zeros(cutoff + 1, dtype=complex)
    phases = np.exp(2j * np.pi * p.delta * ns / p.d)
    amps[ns] = np.sqrt(np.array(terms) / math.fsum(terms)) * phases
    return amps


def psp_pair(p1, p2):
    """|j_d>|j'_d'> of two PSPParams as a square array, at the larger of their cutoffs."""
    cutoff = max(psp_cutoff(p1), psp_cutoff(p2))
    return np.multiply.outer(psp_fock(p1, cutoff), psp_fock(p2, cutoff))


def encoded_fock(mu, d, j, k, cutoff=None):
    """The two-pulse encoding of |j_d>, pulses of mu each and relative phase 2 pi k / d,
    as a (cutoff + 1)-square array written from its definition:

        <n, m| = e^{2 pi i k m / d} sqrt(Pois(2mu; N) C(N, n) 2^-N / S)  on N = n + m = j (mod d),

    and 0 elsewhere, the total-number amplitudes sqrt(Pois(2mu; N) / S) those of
    psp_fock(PSPParams(2 mu, d, j)) at the same cutoff (psp_cutoff's by default).
    Each binomial share is the correctly rounded double of an exact rational.
    """
    totals = psp_fock(PSPParams(mu=2.0 * mu, d=d, j=j), cutoff)
    amps = np.zeros((totals.size,) * 2, dtype=complex)
    for total in range(j, totals.size, d):
        m = np.arange(total + 1)
        shares = [float(Fraction(math.comb(total, i), 2**total)) for i in m.tolist()]
        amps[total - m, m] = totals[total] * np.sqrt(shares) * np.exp(2j * np.pi * k * m / d)
    return amps


def threshold_readout(amps):
    """(p_click_port0, p_click_port1, p_double, p_none) of a two-mode array: the
    squared amplitudes summed over each pattern of threshold-detector clicks."""
    p = np.abs(amps) ** 2
    return (float(p[1:, 0].sum()), float(p[0, 1:].sum()), float(p[1:, 1:].sum()),
            float(p[0, 0]))


def fock_beam_splitter(amps, variant="X"):
    """The 50:50 beam splitter on a two-mode (cutoff + 1)-square array.

    |a, b> -> |(a + s b)/sqrt(2), (a - s b)/sqrt(2)>, s = 1 for "X" and i for
    "Y", sends the input creation operators to (x + y)/sqrt(2) and
    s (x - y)/sqrt(2), so that each total N is one block with integer
    polynomial coefficients:

        |k, N - k> -> 2^{-N/2} s^{N-k} (x + y)^k (x - y)^{N-k} |0> / sqrt(k! (N - k)!).

    Input mass on N > cutoff, which the output cannot hold, is dropped; more
    than LEAK_TOL of it is a TruncationError.
    """
    if amps.ndim != 2:
        raise ValueError("number-basis beam splitter supports exactly two modes")
    if variant not in ("X", "Y"):
        raise ValueError("variant must be 'X' or 'Y'")
    c = amps.shape[0] - 1
    n1, n2 = np.indices(amps.shape)
    leak = float(np.sum(np.abs(amps[n1 + n2 > c]) ** 2))
    if leak > LEAK_TOL:
        raise TruncationError(
            "mass %.3e beyond the conserved-number boundary exceeds %.3e" % (leak, LEAK_TOL))
    s = 1j if variant == "Y" else 1.0
    out = np.zeros_like(amps)
    for total in range(c + 1):
        ks = np.arange(total + 1)
        block = np.empty((total + 1, total + 1), dtype=complex)  # [m, k]: <m, N-m| out |k, N-k>
        for k in range(total + 1):
            rest = total - k
            plus = [math.comb(k, i) for i in range(k + 1)]
            minus = [math.comb(rest, i) * (-1) ** (rest - i) for i in range(rest + 1)]
            block[:, k] = np.convolve(plus, minus) * s**rest
        log_fact = gammaln(ks + 1.0) + gammaln(total - ks + 1.0)
        block *= np.exp(0.5 * (log_fact[:, None] - log_fact[None, :])) / 2.0 ** (total / 2)
        out[ks, total - ks] = block @ amps[ks, total - ks]
    return out


def cpm_output(g):
    """The cross-phase interaction exp(i 2 pi n1 n2 / d) of GenerationParams g on
    |sqrt(mu), sqrt(nu)>, as a d^2-term coherent expansion (coeffs, labels): a (d^2,)
    and a (d^2, 2) array, normalized.

    The meter's phase turns by w^n1, so it holds |sqrt(nu) w^j> on the signal's
    residue n1 = j (mod d), whose projector takes |a> to (1/d) sum_q w^{-jq} |a w^q>:
    term j d + q has coefficient w^{-jq} / d and labels (sqrt(mu) w^q, sqrt(nu) w^j).
    kerr_output_fock applies the same interaction amplitude by amplitude.
    """
    w = np.exp(2j * np.pi / g.d)
    terms = [(w ** (-j * q) / g.d, (math.sqrt(g.mu) * w ** q, math.sqrt(g.nu) * w ** j))
             for j in range(g.d) for q in range(g.d)]
    coeffs, labels = zip(*terms)
    return np.array(coeffs), np.array(labels)


def kerr_output_fock(g, cutoff=None):
    """The cross-phase interaction exp(i 2 pi n1 n2 / d) of GenerationParams g,
    applied amplitude by amplitude to |sqrt(mu), sqrt(nu)>."""
    if cutoff is None:
        cutoff = auto_cutoff(max(g.mu, g.nu))
    amps = np.multiply.outer(*(to_fock(np.ones(1), np.array([np.sqrt(x)]), cutoff)
                               for x in (g.mu, g.nu)))
    ns = np.arange(amps.shape[0])
    return amps * np.exp(2j * np.pi * np.outer(ns, ns) / g.d)


def g2_zero_oracle(amps):
    """<n(n-1)> / <n>^2 of a one-mode array."""
    if amps.ndim != 1:
        raise ValueError("g2 oracle expects a single-mode state")
    p = np.abs(amps) ** 2
    ns = np.arange(p.size)
    mean = float(np.sum(ns * p))
    if mean <= 0:
        raise ValueError("state carries no photons; g2 undefined")
    return float(np.sum(ns * (ns - 1) * p)) / mean**2


def hom_fock_oracle(amps):
    """(p11, f2002) of a two-mode output array: the nonnegative coincidence sum over
    n_a, n_b >= 1, which shares no vacuum projection with pspsim's p11, and the
    weight of (|2,0> - |0,2>)/sqrt(2)."""
    if amps.ndim != 2:
        raise ValueError("expected a two-mode state")
    amp = (amps[2, 0] - amps[0, 2]) / np.sqrt(2.0)
    return float(np.sum(np.abs(amps[1:, 1:]) ** 2)), float(abs(amp) ** 2)


def density(p, cutoff=None):
    """|j_d><j_d| of PSPParams p as a (cutoff + 1)-square matrix, from psp_fock."""
    vec = psp_fock(p, cutoff)
    return np.outer(vec, np.conj(vec))


def loss_cutoff(p, eta):
    """A cutoff psp_fock accepts for p and for each |k_d> at mu eta (p's d and delta)."""
    return max(psp_cutoff(q) for q in [p] + [PSPParams(mu=p.mu * eta, d=p.d, j=k, delta=p.delta)
                                             for k in range(p.d)])


def mixture_density(p, eta, weights, cutoff):
    """sum_k weights[k] |k_d><k_d| at mu eta (p's d and delta), the output state
    that loss_channel(p, eta)'s weights describe; a zero weight adds nothing."""
    return sum(w * density(PSPParams(mu=p.mu * eta, d=p.d, j=k, delta=p.delta), cutoff)
               for k, w in enumerate(weights.tolist()) if w)


def thinned_density(rho, eta):
    """Transmission-eta pure loss of a one-mode density matrix in the number basis:

        out[n, n'] = sum_k sqrt(C(n+k, k) C(n'+k, k)) eta^((n+n')/2) (1-eta)^k rho[n+k, n'+k],

    k photons lost, over the k that stay inside the matrix.
    """
    dim = rho.shape[0]
    out = np.zeros_like(rho)
    for k in range(dim):
        keep = dim - k
        amp = np.array([math.sqrt(math.comb(n + k, k) * eta**n) for n in range(keep)])
        out[:keep, :keep] += (1.0 - eta) ** k * np.outer(amp, amp) * rho[k:, k:]
    return out


def uhlmann_fidelity(rho, sigma):
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)): 1 for identical states,
    |<a|b>| for pure ones.  Negative eigenvalues from rounding are clipped at zero.
    The eigenvalue square roots of rank-deficient inputs carry ~1e-8 of rounding,
    so the result is clamped to [0, 1]; above 1 + 1e-6 is a numerical failure
    (or unnormalized inputs).
    """
    w, v = eigh(rho)
    w = np.clip(w, 0.0, None)
    sq = (v * np.sqrt(w)) @ v.conj().T
    ev = np.linalg.eigvalsh(sq @ sigma @ sq)
    val = float(np.sum(np.sqrt(np.clip(ev, 0.0, None))))
    if val > 1.0 + 1e-6:
        raise NumericalDiagnosticError("Uhlmann fidelity %.12f exceeds 1" % val)
    return min(val, 1.0)
