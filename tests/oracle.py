"""Number-basis oracles for the lossy pseudo-number state: the density matrices
from to_fock, pure loss by binomial thinning, and the Uhlmann fidelity.

The thinning acts on matrix entries and never forms a loss weight;
mixture_density only lays pns.loss_channel's weights out as a matrix, to be
compared with it.
"""

import math

import numpy as np

from pspsim import NumericalDiagnosticError, PSPParams, pseudo_number_state, to_fock


def density(p, cutoff):
    """|j_d><j_d| of PSPParams p as a (cutoff + 1)-square matrix, from to_fock."""
    vec = to_fock(pseudo_number_state(p), cutoff=cutoff).amplitudes
    return np.outer(vec, np.conj(vec))


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
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)).

    Square-root convention: 1 for identical states, |<a|b>| for pure states.
    Negative eigenvalues from rounding are clipped at zero.  The eigenvalue
    square roots of rank-deficient inputs carry ~1e-8 of rounding, so the
    result is clamped to [0, 1]; values above 1 + 1e-6 are a numerical failure
    (or unnormalized inputs).
    """
    from scipy.linalg import eigh

    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    w, v = eigh(rho)
    w = np.clip(w, 0.0, None)
    sq = (v * np.sqrt(w)) @ v.conj().T
    ev = np.linalg.eigvalsh(sq @ sigma @ sq)
    val = float(np.sum(np.sqrt(np.clip(ev, 0.0, None))))
    if val > 1.0 + 1e-6:
        raise NumericalDiagnosticError("Uhlmann fidelity %.12f exceeds 1" % val)
    return min(val, 1.0)
