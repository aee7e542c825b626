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

from .errors import DegenerateStateError, TruncationError
from .states import CoherentDyadOperator, CoherentSuperposition, log_factorial

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
# A term whose log lies below this is exactly 0.0 (exp underflows to zero
# below about -745.13); the gap leaves ample room for rounding.
_LOG_ZERO = -800.0


def _is_integer(x):
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _validate_d(d):
    if not (_is_integer(d) and d >= 1):
        raise ValueError("d must be an integer >= 1")


def _validate_dj(d, j):
    _validate_d(d)
    if not (_is_integer(j) and 0 <= j < d):
        raise ValueError("j must be an integer in [0, d)")


def residue_masses(mu, d):
    """Poisson(mu) masses M_r summed over photon numbers n = r (mod d), r = 0..d-1.

    mu may be a 1-D array; the result is then a (len(mu), d) table whose row
    i equals residue_masses(mu[i], d) bit for bit.
    One log-space pass over blocks of 64 d consecutive photon numbers (fewer
    at d > 1024), each laid out residue-major so that row r of the block
    holds its n = r (mod d).
    A table evaluates only a block's leading columns that can hold a nonzero
    term at its largest live mu (_head_width); every term past them is
    exactly 0.0, so the sums are those of the whole block.  It is summed a
    group of rows at a time, sized so that a group's (rows, d, head width)
    temporary holds at most _TABLE_BLOCK terms at the table's largest mu.
    A row's pass stops once past the distribution mode with every residue's
    last term at or below SERIES_RTOL of its running sum (so residues that
    underflow to zero terminate), and raises TruncationError rather than
    reach photon numbers above SERIES_MAX_N.
    """
    _validate_d(d)
    values = _validate_mu(mu)
    rows = min(_CHUNK, max(1, _MAX_BLOCK // d))
    if np.ndim(mu) == 0:  # without a table's row bookkeeping, which fig1's many calls would pay
        return _residue_row(values[0], d, rows)
    top = max(values, default=0.0)
    width = _head_width(0, rows, d, top) if top > 0 else rows
    group = max(1, _TABLE_BLOCK // (width * d))
    groups = [_residue_rows(values[i:i + group], d, rows) for i in range(0, len(values), group)]
    return np.concatenate(groups) if groups else np.zeros((0, d))


def _validate_mu(mu):
    """mu, a number or a 1-D array, as a list of floats, each checked finite and >= 0."""
    mus = np.asarray(mu, dtype=float)
    if mus.ndim > 1:
        raise ValueError("mu must be a number or a 1-D array")
    values = mus.ravel().tolist()
    if not all(math.isfinite(m) for m in values):
        raise ValueError("mu must be finite")
    if any(m < 0 for m in values):
        raise ValueError("mu must be nonnegative")
    return values


def _block(n0, rows, d):
    """Photon numbers n0 .. n0 + rows d - 1 and their log(n!), residue-major.

    Row r of each (d, rows) array holds the block's n = r (mod d) in
    increasing order, contiguously, so a sum along it is taken in the same
    (pairwise) order for a single series and for every row of a table.
    """
    ns = np.arange(n0, n0 + rows * d)
    log_factorials = log_factorial(ns)
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
        width = _head_width(n0, rows, d, live_mu.max())
        # in place: the (live rows, d, width) head is the one array of its size
        terms = np.multiply.outer(log_mu, ns[:, :width])
        terms -= live_mu[:, None, None]
        terms -= log_factorials[:, :width]
        np.exp(terms, out=terms)
        sums += terms.sum(axis=2)
        n0 += rows * d
        done = live_mu < n0 - d
        if width == rows:  # else the block's last column is all zeros, which passes
            done &= (terms[:, :, -1] <= SERIES_RTOL * sums).all(axis=1)
        totals[live[done]] = sums[done]
        keep = ~done
        live, live_mu, log_mu, sums = live[keep], live_mu[keep], log_mu[keep], sums[keep]
    return totals


def _head_width(n0, rows, d, mu):
    """Leading columns of the block at n0 that can hold a nonzero term at any mu' <= mu.

    Column c holds photon numbers n0 + c d .. n0 + c d + d - 1.  Past the
    mode the log-term n log mu - mu - log(n!) falls as n grows and rises as
    mu grows, so from the first column whose smallest n has it below
    _LOG_ZERO at mu on, every term is exactly 0.0.  The width is rounded up
    to a multiple of 8: numpy's pairwise sum keeps 8 accumulators for rows
    of 8 to 128 terms, so the head sums in the same order as the whole row.
    """
    firsts = np.arange(n0, n0 + rows * d, d)
    zero = (firsts > mu) & (firsts * math.log(mu) - mu - log_factorial(firsts) < _LOG_ZERO)
    cut = int(np.argmax(zero)) if zero.any() else rows
    return min(rows, -(-max(cut, 1) // 8) * 8)


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
            if not (_is_integer(self.j) and self.j >= 0):
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


def photon_number_probability(p, n):
    """|<n|j_d>|^2, the probability that the pseudo-number state holds n photons.

    Closed form: the Poisson(mu) mass at n divided by the modular mass on
    the support n = j (mod d), and 0 off the support.  The d -> infinity
    branch is the number state |j> itself.
    """
    if not (_is_integer(n) and n >= 0):
        raise ValueError("photon number must be a nonnegative integer")
    if p.d == math.inf:
        return 1.0 if n == p.j else 0.0
    mass = _nonzero_mass(p.mu, p.d, p.j)
    if n % p.d != p.j:
        return 0.0
    if p.mu == 0:
        return 1.0 if n == 0 else 0.0  # j = 0 at mu = 0 is the vacuum itself
    pmf = math.exp(n * math.log(p.mu) - p.mu - math.lgamma(n + 1.0))
    return pmf / mass


def fidelity_to_number_state(p):
    """|<j|j_d>|^2, the overlap with the ideal photon-number state.

    The n = j case of photon_number_probability; the d -> infinity branch
    returns exactly 1.
    """
    return photon_number_probability(p, p.j)


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
