"""Pseudo-number states: coherent states superposed on a circle in phase space.

The state with d phases, index j and mean-photon-number parameter mu is

    |j_d> = N^{-1/2} sum_{q=0}^{d-1} w^{-j q} |sqrt(mu) w^{q+delta}>,
    w = exp(2 pi i / d),

whose photon-number support is n = j (mod d).  Everything physical reduces
to modular sums of Poisson masses, which is how the normalization is
computed; the equivalent phase double sum survives only as a cross-check
because it cancels catastrophically at small mu.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import DegenerateStateError, TruncationError
from .states import CoherentDyadOperator, CoherentSuperposition

# Relative size at which the modular Poisson series stops adding terms.
SERIES_RTOL = 1e-30
# Largest photon number the series may reach; far above the mu of any
# physical source, it turns a series that cannot converge (mu beyond it)
# into a TruncationError instead of an endless loop.
SERIES_MAX_N = 2**20
# Photon numbers per residue in one block, and the most photon numbers one
# block may hold, which bounds memory at very large d (blocks keep _CHUNK
# rows up to d = 1024).
_CHUNK = 64
_MAX_BLOCK = 2**16
# log(n!) for the photon numbers of a first block with d <= 64; looking them
# up gives the same values as gammaln(n + 1) at a fraction of the cost.
_LOG_FACTORIALS = gammaln(np.arange(_CHUNK * 64) + 1.0)


def _validate_d(d):
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ValueError("d must be an integer >= 1")


def _validate_dj(d, j):
    _validate_d(d)
    if not (isinstance(j, (int, np.integer)) and 0 <= j < d):
        raise ValueError("j must be an integer in [0, d)")


def residue_masses(mu, d):
    """Poisson(mu) masses M_r summed over photon numbers n = r (mod d), r = 0..d-1.

    One log-space pass over blocks of 64 d consecutive photon numbers (fewer
    at d > 1024), each reshaped to (rows, d) so that column r holds the
    block's n = r (mod d).
    The pass stops once past the distribution mode with every residue's last
    term at or below SERIES_RTOL of its running sum (so residues that
    underflow to zero terminate), and raises TruncationError rather than
    reach photon numbers above SERIES_MAX_N.
    """
    _validate_d(d)
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    totals = np.zeros(d)
    if mu == 0:
        totals[0] = 1.0
        return totals
    log_mu = math.log(mu)
    rows = min(_CHUNK, max(1, _MAX_BLOCK // d))
    n0 = 0
    while n0 <= SERIES_MAX_N:
        ns = np.arange(n0, n0 + rows * d)
        if ns[-1] < _LOG_FACTORIALS.size:
            log_factorials = _LOG_FACTORIALS[n0:n0 + rows * d]
        else:
            log_factorials = gammaln(ns + 1.0)
        # The transposed copy keeps each residue's terms contiguous, so their
        # sum is taken in the same (pairwise) order as a one-residue series.
        terms = np.exp(ns * log_mu - mu - log_factorials).reshape(rows, d).T.copy()
        totals += terms.sum(axis=1)
        # ns[-d] is residue 0's last photon number, the smallest of the d.
        if ns[-d] > mu and (terms[:, -1] <= SERIES_RTOL * totals).all():
            return totals
        n0 += rows * d
    raise TruncationError(
        "modular Poisson series at mu=%.6g, d=%d needs photon numbers above %d"
        % (mu, d, SERIES_MAX_N)
    )


def modular_poisson_mass(mu, d, j):
    """Sum of Poisson(mu) masses over photon numbers n = j (mod d)."""
    _validate_dj(d, j)
    return float(residue_masses(mu, d)[j])


def _nonzero_mass(mu, d, j):
    mass = modular_poisson_mass(mu, d, j)
    if mass == 0.0:
        raise DegenerateStateError("state with j=%d is degenerate at mu=%.6g" % (j, mu))
    return mass


def normalization(mu, d, j):
    """Normalization N = d^2 e^{-mu} sum_{n = j mod d} mu^n / n!.

    Raises DegenerateStateError when the state has zero norm (j != 0 at
    mu = 0, or a residue mass that underflows to zero).
    """
    return d * d * _nonzero_mass(mu, d, j)


def normalization_overlap_sum(mu, d, j):
    """The same normalization from the phase double sum over coherent overlaps.

    sum_{q,q'} w^{j(q'-q)} exp(mu (w^{q-q'} - 1)); numerically unstable for
    mu well below 0.1 (cancellation), retained as a cross-check only.
    """
    _validate_dj(d, j)
    s = np.arange(d)
    ph = np.exp(2j * np.pi * s / d)
    val = d * np.sum(np.exp(-2j * np.pi * j * s / d) * np.exp(mu * (ph - 1.0)))
    return float(val.real)


@dataclass(frozen=True)
class PSPParams:
    """Parameters of one pseudo-number state.

    delta is the circle's reference phase in units of 2 pi / d.  d may be
    math.inf for the ideal limit, which only the fidelity supports; all
    constructive operations need finite d.
    """

    mu: float
    d: int
    j: int = 1
    delta: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu >= 0):
            raise ValueError("mu must be finite and >= 0")
        if self.d == math.inf:
            if not (isinstance(self.j, (int, np.integer)) and self.j >= 0):
                raise ValueError("j must be a nonnegative integer")
        else:
            _validate_dj(self.d, self.j)
        if not np.isfinite(self.delta):
            raise ValueError("delta must be finite")
        if self.j != 0 and self.mu == 0:
            raise DegenerateStateError("j=%d requires mu > 0" % self.j)


def pseudo_number_state(p):
    """Construct |j_d> as a d-term coherent superposition (normalized)."""
    if p.d == math.inf:
        raise ValueError("the d -> infinity limit has no finite coherent expansion")
    n = normalization(p.mu, p.d, p.j)
    q = np.arange(p.d)
    coeffs = np.exp(-2j * np.pi * p.j * q / p.d) / np.sqrt(n)
    labels = np.sqrt(p.mu) * np.exp(2j * np.pi * (q + p.delta) / p.d)
    return CoherentSuperposition(coeffs, labels[:, None])


def fidelity_to_number_state(p):
    """|<j|j_d>|^2, the overlap with the ideal photon-number state.

    Closed form: Poisson(mu) mass at n = j divided by the modular mass on
    the support n = j (mod d).  The d -> infinity branch returns exactly 1.
    """
    if p.d == math.inf:
        return 1.0
    mass = _nonzero_mass(p.mu, p.d, p.j)
    if p.mu == 0:
        return 1.0  # j = 0 at mu = 0 is the vacuum itself
    pmf = math.exp(float(xlogy(p.j, p.mu)) - p.mu - float(gammaln(p.j + 1.0)))
    return pmf / mass


def generation_probability(mu, d, j):
    """Weight N/d^2 of |j_d> inside |sqrt(mu)>; sums to 1 over j."""
    return modular_poisson_mass(mu, d, j)


def coherent_from_pseudo(mu, d, q):
    """Resolve |sqrt(mu) w^q> over the pseudo-number basis, term by term.

    Returns sum_j w^{qj} sqrt(N_j/d) |j_d> / sqrt(d) expanded into its d^2
    coherent terms (coefficients w^{j(q-q')}/d); the expansion collapses to
    the single coherent state, which tests confirm through overlaps.
    """
    _validate_dj(d, q)
    if mu <= 0:
        raise ValueError("mu must be positive")
    jj, qq = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    coeffs = np.exp(2j * np.pi * jj * (q - qq) / d) / d
    labels = np.sqrt(mu) * np.exp(2j * np.pi * qq / d)
    return CoherentSuperposition(coeffs.ravel(), labels.reshape(-1, 1))


@dataclass(frozen=True)
class LossResult:
    """Output of the pure-loss channel applied to a pseudo-number state.

    exact holds the full coherent-dyad operator; approx_weights is the
    two-term mixture weight pair (1 - mu(1-eta), mu(1-eta)) over the j=1 and
    j=0 pseudo-number states at the attenuated mu' = mu*eta, populated only
    for j = 1 inputs.
    """

    eta: float
    exact: CoherentDyadOperator
    approx_weights: tuple


def loss_channel(p, eta):
    """Transmission-eta pure loss applied to |j_d><j_d|.

    The output stays a d^2-term dyad sum over attenuated labels, with the
    lost intensity mu(1-eta) appearing as an overlap decay between branches.
    """
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    if p.d == math.inf:
        raise ValueError("loss channel needs a finite coherent expansion")
    n = normalization(p.mu, p.d, p.j)
    d = p.d
    qq, qp = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    decay = np.exp((np.exp(2j * np.pi * (qq - qp) / d) - 1.0) * p.mu * (1.0 - eta))
    coeffs = np.exp(2j * np.pi * p.j * (qp - qq) / d) * decay / n
    amp = np.sqrt(p.mu * eta)
    kets = amp * np.exp(2j * np.pi * (qq.ravel() + p.delta) / d)
    bras = amp * np.exp(2j * np.pi * (qp.ravel() + p.delta) / d)
    op = CoherentDyadOperator(coeffs.ravel(), kets[:, None], bras[:, None])
    weights = None
    if p.j == 1:
        lost = p.mu * (1.0 - eta)
        weights = (1.0 - lost, lost)
    return LossResult(eta=eta, exact=op, approx_weights=weights)
