"""Pseudo-number states: coherent states superposed on a circle in phase space.

The state with d phases, index j and mean-photon-number parameter mu is

    |j_d> = N^{-1/2} sum_{q=0}^{d-1} w^{-j q} |sqrt(mu) w^{q+delta}>,
    w = exp(2 pi i / d),

whose photon-number support is n = j (mod d).  Everything physical reduces
to modular sums of Poisson masses, which is how the normalization is
computed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, TruncationError, _clamp_unit, _index, _real

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
# log(2^-56): a positive term at most 2^-56 times the double it is added to
# lies below an eighth of an ulp of it (or underflows to 0.0), so the sum keeps
# every bit; the factor 4 to half an ulp covers the log-space rounding.
_LOG_NEGLIGIBLE = -56.0 * math.log(2.0)
# log(n!) for n < 4096, the photon numbers of a first residue-mass block with
# d <= 64.
_LOG_FACTORIALS = np.array([math.lgamma(n + 1.0) for n in range(4096)])


def log_factorial(n):
    """log(n!) = math.lgamma(n + 1) for a nonnegative integer n or integer array n.

    Read from a table when every n is below 4096, and from math.lgamma one n
    at a time otherwise (past a C long too), so each value has the same bits either way.
    """
    try:
        return _LOG_FACTORIALS[n]
    except (IndexError, OverflowError):
        values = [math.lgamma(k + 1.0) for k in np.ravel(n).tolist()]
        return np.array(values).reshape(np.shape(n))[()]


def _log_poisson(log_mu, mu, ns):
    """n log(mu) - mu - log(n!), in place in that order, at each mu (log_mu: its log, as
    the caller takes it) and each n of ns, as a mu.shape + ns.shape array."""
    terms = np.multiply.outer(log_mu, ns)
    terms -= np.reshape(mu, np.shape(mu) + (1,) * np.ndim(ns))
    terms -= log_factorial(ns)
    return terms


def _validate_dj(d, j=0):
    """ValueError unless d is an integer >= 1 and j one integer in [0, d); a bool is
    neither.  j = 0 lies in [0, d) for every such d, so _validate_dj(d) checks d alone."""
    if isinstance(d, bool) or not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ValueError("d must be an integer >= 1")
    if _index(j, d, "j").ndim:
        raise ValueError("j must be one integer")


def _mu(mu):
    """mu, a number or a 1-D array, as a float array (errors._real)."""
    mus = _real(mu, "mu")
    if mus.ndim > 1:
        raise ValueError("mu must be a number or a 1-D array")
    return mus


def _mu_grid(mu):
    """mu, a number or a nonempty 1-D grid of nonnegative values, as a float array."""
    mus = _mu(mu)
    if not mus.size:
        raise ValueError("mu must be a number or a nonempty 1-D grid")
    if (mus < 0).any():
        raise ValueError("mu must be nonnegative")
    return mus


def residue_masses(mu, d, residues=None):
    """Poisson(mu) masses M_r summed over photon numbers n = r (mod d), r = 0..d-1.

    mu may be a 1-D array; the result is then a (len(mu), d) table, and a
    number mu is row 0 of a one-row table.  residues (a list of r in [0, d))
    keeps only those columns, in that order; only they are computed, and
    each equals the full table's column bit for bit.  At d = 1 every mass is
    exactly 1, with no series summed.
    One log-space pass over blocks of 64 d consecutive photon numbers (fewer
    at d > 1024), each laid out residue-major so that row r of the block
    holds its n = r (mod d).
    A table evaluates only a block's leading columns whose terms can change a
    bit of a sum at its largest live mu (_head_width): past them every term
    is below half an ulp of a term that numpy's pairwise row sum has already
    added to the same accumulator, so the sums are those of the whole block.
    It is summed a group of rows at a time, sized so that a group's (rows,
    residues, head width) temporary holds at most _TABLE_BLOCK terms at the
    table's largest mu.
    A row's pass stops once past the distribution mode with every residue's
    last term at or below SERIES_RTOL of its running sum (so residues that
    underflow to zero terminate), and raises TruncationError rather than
    reach photon numbers above SERIES_MAX_N; a mu above SERIES_MAX_N, whose
    pass could only stop past it, is refused before the first block.
    """
    _validate_dj(d)
    values = _mu(mu).ravel()
    if (values < 0).any():
        raise ValueError("mu must be nonnegative")
    rows = min(_CHUNK, max(1, _MAX_BLOCK // d))
    js = np.arange(d) if residues is None else _index(residues, d, "residues")
    if js.ndim != 1:
        raise ValueError("residues must be a list of integers in [0, d)")
    if d == 1:  # the one residue holds the whole distribution: its mass is 1 exactly
        table = np.ones((values.size, js.size))
        return table if np.ndim(mu) else table[0]
    top = values.max(initial=0.0)
    if top > SERIES_MAX_N:  # no pass could end: refused before the first block
        raise _too_long(values[values > SERIES_MAX_N][0], d)
    width = _head_width(min(js.tolist(), default=0), rows, d, top) if top > 0 else rows
    group = max(1, _TABLE_BLOCK // (width * max(js.size, 1)))
    groups = [_residue_rows(values[i:i + group], d, rows, js)
              for i in range(0, values.size, group)]
    table = np.concatenate(groups) if groups else np.zeros((0, js.size))
    return table if np.ndim(mu) else table[0]


def _residue_rows(values, d, rows, js):
    """residue_masses table for a 1-D array of valid mu values, in one pass.

    Only the residues js are summed.  Each residue's terms are summed on their
    own; and once past the mode, a residue whose last term passes the
    termination test adds nothing an ulp can see in a later block (its terms
    fall with n), so testing js alone ends each column on the full table's bits.
    """
    totals = np.zeros((values.size, js.size))
    totals[np.ix_(np.flatnonzero(values == 0), js == 0)] = 1.0
    # Rows still summing: their indices, mu, log(mu) and running sums.
    live = np.flatnonzero(values > 0)
    live_mu = values[live]
    log_mu = np.log(live_mu)
    sums = np.zeros((live.size, js.size))
    first = min(js.tolist(), default=0)  # the block's smallest residue summed
    n0 = 0
    while live.size:
        if n0 > SERIES_MAX_N:
            raise _too_long(live_mu[0], d)
        # the block residue-major, as (d, rows), rows js of it: row r holds its n = r (mod d)
        ns = np.arange(n0, n0 + rows * d).reshape(rows, d).T[js]
        width = _head_width(n0 + first, rows, d, float(live_mu.max()))
        # in place: the (live rows, residues, width) head is the one array of its size
        terms = _log_poisson(log_mu, live_mu, ns[:, :width])
        np.exp(terms, out=terms)
        sums += terms.sum(axis=2)
        n0 += rows * d
        done = live_mu < n0 - d
        # a cut head leaves out only terms, here and in later blocks, that change
        # no bit of a sum, so only a full-width block has its last column tested
        if width == rows:
            done &= (terms[:, :, -1] <= SERIES_RTOL * sums).all(axis=1)
        totals[live[done]] = sums[done]
        keep = ~done
        live, live_mu, log_mu, sums = live[keep], live_mu[keep], log_mu[keep], sums[keep]
    return totals


def _too_long(mu, d):
    """The TruncationError of a modular Poisson series at mu that passes SERIES_MAX_N."""
    return TruncationError("modular Poisson series at mu=%.6g, d=%d needs photon numbers above %d"
                           % (mu, d, SERIES_MAX_N))


def _head_width(first, rows, d, mu):
    """Leading columns of a block whose terms can change a bit of a row sum at any mu' <= mu.

    Column c holds the photon numbers first + c d, first + c d + 1, ..., of
    the residues summed, first being the smallest of them.  The term ratio
    t(n + k) / t(n) = mu^k n! / (n + k)! falls as n grows and rises with mu,
    so a test at mu on a column's smallest n bounds every later column, every
    residue and every row mu' <= mu.  The width is the first of:

    - 1, if t(first + d) <= 2^-56 t(first): all later columns together are
      then below half an ulp of column 0, whichever order numpy adds them in;
    - the first multiple w >= 8 of 8 with t(m + 8 d) <= 2^-56 t(m) at
      m = first + (w - 8) d: numpy's pairwise sum keeps 8 accumulators for rows
      of 8 to 128 terms, and each dropped term of column c then goes into the
      accumulator that already holds column c - 8, at least 2^56 times larger,
      so it moves no bit of it;
    - rows, the whole block, when neither holds.

    Only a ratio to a term the sum keeps is bit-exact: a term that is small
    but not zero can still move the last bit of a small mass.
    """
    firsts = np.arange(first, first + rows * d, d)
    logs = _log_poisson(math.log(mu), mu, firsts)
    if rows > 1 and logs[1] - logs[0] <= _LOG_NEGLIGIBLE:
        return 1
    falls = logs[8::8] - logs[:-8:8] <= _LOG_NEGLIGIBLE  # at w = 8, 16, ... below rows
    return 8 * (int(np.argmax(falls)) + 1) if falls.any() else rows


def _support_terms(mu, d, j):
    """The photon numbers n = j, j + d, ... below 2 mu + 2 d + 105, and Pois(mu; n) at each: the
    terms of M_j(mu) for a valid mu, d and j.  Past 2 mu each term is below half the one before,
    so those left out sum to below 2^-104 of a kept one.  Only n = 0 holds mass at mu = 0."""
    if mu > SERIES_MAX_N:
        raise _too_long(mu, d)
    if mu == 0:
        return np.zeros(int(j == 0), dtype=int), np.ones(int(j == 0))
    ns = np.arange(j, int(2.0 * mu) + 2 * d + 105, d)
    return ns, np.exp(_log_poisson(math.log(mu), mu, ns))


def _nonzero_mass(mu, d, j):
    """M_j at mu, a number or a 1-D array; a zero mass is a DegenerateStateError."""
    _validate_dj(d, j)
    mass = residue_masses(mu, d, [j])[..., 0]
    if not mass.all():
        raise DegenerateStateError("state with j=%d is degenerate at mu=%.6g"
                                   % (j, np.ravel(mu)[np.argmin(mass)]))
    return mass if mass.ndim else float(mass)


def normalization(mu, d, j):
    """Normalization N = d^2 e^{-mu} sum_{n = j mod d} mu^n / n!; an array for a 1-D mu.

    Raises DegenerateStateError when the state has zero norm (j != 0 at
    mu = 0, or a residue mass that underflows to zero).
    """
    return d * d * _nonzero_mass(mu, d, j)


@dataclass(frozen=True)
class PSPParams:
    """Parameters of one pseudo-number state, or of one state per mu of a grid.

    mu may be a number or a nonempty 1-D grid, kept as a float or a tuple of
    floats, so that states compare and hash by value; each quantity of a grid
    state is an array whose entries have the bits of the one-point calls.
    delta is the circle's reference phase in units of 2 pi / d.  d may be
    math.inf for the ideal limit, which only the fidelity supports; all
    constructive operations need finite d.
    """

    mu: float
    d: int
    j: int = 1
    delta: float = 0.0

    def __post_init__(self):
        mus = _mu_grid(self.mu)
        object.__setattr__(self, "mu", tuple(mus.tolist()) if mus.ndim else float(mus))
        if np.ndim(self.d) or self.d != math.inf:  # an array d is no integer either
            _validate_dj(self.d, self.j)
        elif _index(self.j, self.d, "j").ndim:
            raise ValueError("j must be one integer")
        if _real(self.delta, "delta").ndim:
            raise ValueError("delta must be a number")
        if self.j != 0 and not mus.all():
            raise DegenerateStateError("j=%d requires mu > 0" % self.j)


def photon_number_probability(p, n):
    """|<n|j_d>|^2, the probability that the pseudo-number state holds n photons.

    Closed form: the Poisson(mu) mass at n divided by the modular mass on
    the support n = j (mod d), and 0 off the support, under
    errors._clamp_unit: where term n holds nearly all of the mass, the
    quotient can land an ulp above 1.  The d -> infinity branch is the
    number state |j> itself.  An array over a mu grid.
    """
    if _index(n, math.inf, "photon number").ndim:
        raise ValueError("photon number must be one integer")
    mus = np.asarray(p.mu, dtype=float)
    if p.d == math.inf:
        return _clamp_unit(np.full(mus.shape, float(n == p.j)), "photon-number probability")
    mass = np.asarray(_nonzero_mass(mus, p.d, p.j))
    probs = np.where(mus == 0, float(n == 0), 0.0)  # at mu = 0, j = 0: the vacuum itself
    live = (mus > 0) & (n % p.d == p.j)
    probs[live] = np.exp(_log_poisson(np.log(mus[live]), mus[live], n)) / mass[live]
    return _clamp_unit(probs, "photon-number probability")


def fidelity_to_number_state(p):
    """|<j|j_d>|^2, the overlap with the ideal photon-number state.

    The n = j case of photon_number_probability; the d -> infinity branch
    returns exactly 1.
    """
    return photon_number_probability(p, p.j)


def loss_channel(p, eta):
    """Weights of the output of transmission-eta pure loss applied to |j_d><j_d|.

    Loss thins the photon number, and the residue r (mod d) of the lost
    photons labels orthogonal environment states, so the output is the
    mixture sum_k w[k] |k_d><k_d| of pseudo-number states at mu' = mu eta
    (same d and delta), with

        w[k] = M_{(j-k) mod d}(mu (1 - eta)) M_k(mu eta) / M_j(mu)

    from the residue masses M.  Returns w, a (d,) float array indexed by the
    output residue k; it sums to 1 because sum_r M_r(a) M_{j-r}(b) = M_j(a + b).
    Each weight is a probability under errors._clamp_unit: the masses' rounding
    can put one an ulp above 1 (at d = 1 the one weight is exactly 1).
    The two-term small-loss shortcut keeps w[j] (no photon lost) and
    w[(j - 1) mod d] (one lost); as the |k_d> at one mu' are orthogonal, its
    Uhlmann fidelity to the output is their sum.
    """
    if _real(eta, "eta").ndim or not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    if np.ndim(p.mu):
        raise ValueError("loss channel takes a state of one mu, not a mu grid")
    if p.d == math.inf:
        raise ValueError("loss channel needs a finite coherent expansion")
    mass = _nonzero_mass(p.mu, p.d, p.j)
    lost, kept = residue_masses([p.mu * (1.0 - eta), p.mu * eta], p.d)
    return _clamp_unit(lost[(p.j - np.arange(p.d)) % p.d] * kept / mass, "loss weight")
