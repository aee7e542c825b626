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
# Most terms a block of a multi-row table holds across its rows; a long table
# (one row per distance of a key-rate curve) is summed a group of rows at a
# time, which keeps its temporaries, and so peak memory, small.
_TABLE_BLOCK = 2**14
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

    mu may be a 1-D array; the result is then a (len(mu), d) table whose row
    i equals residue_masses(mu[i], d) bit for bit (long tables are summed a
    group of rows at a time, see _TABLE_BLOCK).
    One log-space pass over blocks of 64 d consecutive photon numbers (fewer
    at d > 1024), each laid out residue-major so that row r of the block
    holds its n = r (mod d).
    A row's pass stops once past the distribution mode with every residue's
    last term at or below SERIES_RTOL of its running sum (so residues that
    underflow to zero terminate), and raises TruncationError rather than
    reach photon numbers above SERIES_MAX_N.
    """
    _validate_d(d)
    mus = np.asarray(mu, dtype=float)
    if mus.ndim > 1:
        raise ValueError("mu must be a number or a 1-D array")
    values = mus.ravel().tolist()
    if not all(math.isfinite(m) for m in values):
        raise ValueError("mu must be finite")
    if any(m < 0 for m in values):
        raise ValueError("mu must be nonnegative")
    rows = min(_CHUNK, max(1, _MAX_BLOCK // d))
    if mus.ndim == 0:  # without a table's row bookkeeping, which fig1's many calls would pay
        return _residue_row(values[0], d, rows)
    group = max(1, _TABLE_BLOCK // (rows * d))
    groups = [_residue_rows(values[i:i + group], d, rows) for i in range(0, len(values), group)]
    return np.concatenate(groups) if groups else np.zeros((0, d))


def _block(n0, rows, d):
    """Photon numbers n0 .. n0 + rows d - 1 and their log(n!), residue-major.

    Row r of each (d, rows) array holds the block's n = r (mod d) in
    increasing order, contiguously, so a sum along it is taken in the same
    (pairwise) order for a single series and for every row of a table.
    """
    ns = np.arange(n0, n0 + rows * d)
    if ns[-1] < _LOG_FACTORIALS.size:
        log_factorials = _LOG_FACTORIALS[n0:n0 + rows * d]
    else:
        log_factorials = gammaln(ns + 1.0)
    return ns.reshape(rows, d).T.copy(), log_factorials.reshape(rows, d).T.copy()


def _truncated(mu, d):
    return TruncationError("modular Poisson series at mu=%.6g, d=%d needs photon numbers above %d"
                           % (mu, d, SERIES_MAX_N))


def _residue_row(mu, d, rows):
    """residue_masses at one valid mu."""
    totals = np.zeros(d)
    if mu == 0:
        totals[0] = 1.0
        return totals
    # math.log, not np.log: the two differ in the last digit on some CPUs,
    # and a table's rows must equal this series
    log_mu = math.log(mu)
    n0 = 0
    while n0 <= SERIES_MAX_N:
        ns, log_factorials = _block(n0, rows, d)
        terms = np.exp(ns * log_mu - mu - log_factorials)
        totals += terms.sum(axis=1)
        n0 += rows * d
        # n0 - d is residue 0's last photon number, the smallest of the d.
        if n0 - d > mu and (terms[:, -1] <= SERIES_RTOL * totals).all():
            return totals
    raise _truncated(mu, d)


def _residue_rows(values, d, rows):
    """residue_masses table for a list of valid mu values: _residue_row for each, in one pass."""
    totals = np.zeros((len(values), d))
    totals[[i for i, m in enumerate(values) if m == 0], 0] = 1.0
    # Rows still summing: their indices, mu, log(mu) and running sums.
    live = np.array([i for i, m in enumerate(values) if m > 0], dtype=int)
    live_mu = np.array([values[i] for i in live])
    log_mu = np.array([math.log(m) for m in live_mu.tolist()])  # math.log, as _residue_row
    sums = np.zeros((live.size, d))
    n0 = 0
    while live.size:
        if n0 > SERIES_MAX_N:
            raise _truncated(live_mu[0], d)
        ns, log_factorials = _block(n0, rows, d)
        # in place: the (live rows, d, rows) block is the one array of its size
        terms = np.multiply.outer(log_mu, ns)
        terms -= live_mu[:, None, None]
        terms -= log_factorials
        np.exp(terms, out=terms)
        sums += terms.sum(axis=2)
        n0 += rows * d
        done = (live_mu < n0 - d) & (terms[:, :, -1] <= SERIES_RTOL * sums).all(axis=1)
        totals[live[done]] = sums[done]
        keep = ~done
        live, live_mu, log_mu, sums = live[keep], live_mu[keep], log_mu[keep], sums[keep]
    return totals


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


@dataclass(frozen=True)
class LossResult:
    """Output of the pure-loss channel applied to a pseudo-number state.

    exact holds the full coherent-dyad operator.  It is the mixture
    sum_r p_r |((1-r) mod d)_d><.| of pseudo-number states at the attenuated
    mu' = mu*eta, where r is the number of lost photons mod d and
    p_r = M_r(mu(1-eta)) M_{(1-r) mod d}(mu') / M_1(mu) with M the residue
    masses.  approx_weights is the two-term pair (p_0, p_1), the exact weights
    of the j=1 and j=0 states at mu'; it is populated only for j = 1 inputs
    and drops the mass 1 - p_0 - p_1 of the other branches (zero at d = 2).
    """

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
    d = p.d
    mass = _nonzero_mass(p.mu, d, p.j)
    n = d * d * mass
    qq, qp = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    decay = np.exp((np.exp(2j * np.pi * (qq - qp) / d) - 1.0) * p.mu * (1.0 - eta))
    coeffs = np.exp(2j * np.pi * p.j * (qp - qq) / d) * decay / n
    amp = np.sqrt(p.mu * eta)
    kets = amp * np.exp(2j * np.pi * (qq.ravel() + p.delta) / d)
    bras = amp * np.exp(2j * np.pi * (qp.ravel() + p.delta) / d)
    op = CoherentDyadOperator(coeffs.ravel(), kets[:, None], bras[:, None])
    weights = None
    if p.j == 1:
        lost = residue_masses(p.mu * (1.0 - eta), d)
        kept = residue_masses(p.mu * eta, d)
        weights = (float(lost[0] * kept[1] / mass), float(lost[1] * kept[0] / mass))
    return LossResult(exact=op, approx_weights=weights)
