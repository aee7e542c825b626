"""BB84 key rates for pseudo-number-state sources against weak-coherent baselines.

Channel model (fiber + threshold detectors, dark counts folded in):

    eta   = 10^(-alpha L / 10) * eta_bob
    Y_n   = 1 - (1 - Y0)(1 - eta)^n
    Q_mu  = Y0 + 1 - exp(-eta mu)
    E_mu  = [e0 Y0 + e_det (1 - exp(-eta mu))] / Q_mu

Estimators (all lower bounds, floored at zero):
  - non-decoy GLLP for a WCS or pseudo-number source (multiphoton tagging),
  - WCS with infinite decoy states,
  - pseudo-number source with passive decoy (full residue discrimination),
  - pseudo-number source with the cheap interferometric trigger.
Each one evaluates a source over a (mu, distance) surface at once, and
keyrate_curve, the one entry point, takes the best mu of it at each distance.

Phase-encoded states split |j_d> across a reference and a signal pulse; the
basis-dependence of the source enters through a closed-form lower bound on
the fidelity between the two basis mixtures, converted to a phase-error
penalty the standard way (Delta = (1 - F)/(2 Y)).
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DegenerateStateError, NumericalDiagnosticError, _clamp_unit, _index, _real
from .generation import CONVENTION_PAPER, GenerationParams, trigger_probability
from .pns import (_TABLE_BLOCK, _mu, _support_terms, _validate_dj, normalization,
                  residue_masses)

WCS_NONDECOY = "wcs-nondecoy"
WCS_DECOY = "wcs-decoy"
PSP_NONDECOY = "psp-nondecoy"
PSP_PASSIVE_DECOY = "psp-passive"
PSP_TRIGGERED = "psp-triggered"
# The names each protocol reads besides c, distances and mu: d, and its estimator's
# keyword arguments.  keyrate_curve refuses any other d or keyword.
PARAMETERS = {WCS_NONDECOY: (), WCS_DECOY: (), PSP_NONDECOY: ("d",),
              PSP_PASSIVE_DECOY: ("d", "basis_mu", "yield_model"),
              PSP_TRIGGERED: ("d", "basis_mu", "yield_model", "nu", "eta_trigger_det",
                              "convention")}
PROTOCOLS = tuple(PARAMETERS)

PHASE_SET_STANDARD = "standard"
PHASE_SET_PAPER_LITERAL = "paper-literal"


@dataclass(frozen=True)
class ChannelParams:
    """Fiber-channel and receiver parameters (defaults: the GYS experiment).

    eta_bob includes Bob's detector efficiency.  e0 is the error rate of dark
    counts (1/2 for a random click).  Every field must be a finite number.
    """

    f: float = 1.16
    eta_bob: float = 0.045
    y0: float = 1.7e-6
    e0: float = 0.5
    e_det: float = 0.033
    alpha_db_per_km: float = 0.21

    def __post_init__(self):
        # NaN fails no range test below, and max(0, nan) would read as a zero rate
        for spec in fields(self):
            if _real(getattr(self, spec.name), spec.name).ndim:
                raise ValueError("%s must be a number" % spec.name)
        if not 0 < self.eta_bob <= 1:
            raise ValueError("eta_bob must lie in (0, 1]")
        if not 0 <= self.y0 < 1:
            raise ValueError("y0 must lie in [0, 1)")
        if not (0 <= self.e_det < 0.5 and 0 <= self.e0 <= 0.5):
            raise ValueError("error rates must lie in [0, 1/2]")
        if self.f < 1:
            raise ValueError("error-correction inefficiency f must be >= 1")
        if self.alpha_db_per_km < 0:
            raise ValueError("loss coefficient must be nonnegative")


@dataclass(frozen=True)
class ChannelStats:
    eta: np.ndarray
    q_mu: np.ndarray
    e_mu: np.ndarray


@dataclass(frozen=True)
class KeyRateResult:
    mu: float
    gain: float
    qber: float
    rate: float
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class KeyRateCurve:
    """Key-rate results of one source protocol at each of an array of distances.

    Every field but diagnostics is an array over distance_km.  diagnostics
    maps each name to an array that holds NaN (None for text) at the
    distances whose branch never reached it; result(i) is the KeyRateResult
    at distance_km[i], with only the names its branch reached.
    """

    distance_km: np.ndarray
    mu: np.ndarray
    gain: np.ndarray
    qber: np.ndarray
    rate: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def result(self, i):
        """The KeyRateResult at distance_km[i]."""
        diag = {}
        for name, values in self.diagnostics.items():
            value = values[i]
            if isinstance(value, str):
                diag[name] = value
            elif value is not None and not math.isnan(value):
                diag[name] = float(value)
        return KeyRateResult(float(self.mu[i]), float(self.gain[i]), float(self.qber[i]),
                             float(self.rate[i]), diag)


def binary_entropy(p):
    """H(p) in bits; 0 outside the open interval (0, 1).

    p may be an array (the result is then elementwise); a bool or a
    non-finite p is a ValueError.
    """
    p = _real(p, "p")
    inside = (p > 0.0) & (p < 1.0)
    q = np.where(inside, p, 0.5)
    h = np.where(inside, -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q), 0.0)
    return h if h.ndim else float(h)


def transmission(c, distances):
    """Overall transmittance eta from fiber loss and Bob's efficiency: an array, one eta per
    entry of distances (km, 1-D)."""
    # np.float_power is the C library's pow at each entry, so a one-distance call keeps the
    # bits of its column in a sweep; numpy's ** may round an entry by its place in the array
    return np.float_power(10.0, -c.alpha_db_per_km * _distances(distances) / 10.0) * c.eta_bob


def _distances(distances):
    """distances as a checked 1-D float array."""
    at = _real(distances, "distances")
    if at.ndim != 1 or not at.size or (at < 0).any():
        raise ValueError("distances must be a nonempty 1-D array of nonnegative values")
    return at


def channel_stats(c, mu, distances):
    """Transmittance, gain Q_mu and QBER E_mu at mean photon number mu, over distances.

    A pseudo-number source partitions the same Poisson photon statistics by
    residue, so Q_mu and E_mu hold for it and for a weak coherent source alike.
    A number mu gives arrays over distances (km, 1-D), and a column mu, shape
    (m, 1), (m, len(distances)) tables.
    """
    mus = _real(mu, "mu")  # a number, a 1-D array or a column
    if (mus < 0).any():
        raise ValueError("mu must be nonnegative")
    eta = transmission(c, distances)
    survival = np.exp(-eta * mus)
    q = c.y0 + 1.0 - survival
    e = np.where(q > 0, _ratio(c.e0 * c.y0 + c.e_det * (1.0 - survival), q), c.e0)
    return ChannelStats(eta=eta, q_mu=q, e_mu=e)


def _ratio(num, den):
    """num / den elementwise where den > 0, else 0, with no division warning."""
    num, den = np.broadcast_arrays(np.asarray(num, dtype=float), np.asarray(den, dtype=float))
    return np.divide(num, den, out=np.zeros(den.shape), where=den > 0)


def pseudo_state_yield(c, mu, distances, d, j, model="exact"):
    """Detection probability of |j_d> at each of distances (km, 1-D): its photon-number
    mixture of yields, an array over distances.

    model="exact" averages Y_n over the conditional distribution
    p(n | j) = d^2 e^{-mu} mu^n / (n! N_{mu,j}); model="dominant" collapses
    the state to its lowest photon number j (a sensitivity check), with the
    n-photon yield Y_n = 1 - (1 - Y0)(1 - eta)^n.
    """
    _validate_dj(d, j)
    if (_mu(mu) < 0).any():  # the dominant model reads no residue mass, whose series checks it
        raise ValueError("mu must be nonnegative")
    masses = residue_masses(mu, d)[None] if model == "exact" else None
    eta = transmission(c, distances)
    return np.array(_state_yields(c, np.array([[mu]]), d, [j], masses, eta, model)[0, :, 0])


def _state_yields(c, mus, d, js, masses, eta, model):
    """pseudo_state_yield of each residue in js at each intensity in mus and transmittance in eta.

    An (m, len(eta), len(js)) table for the column mus, shape (m, 1); masses =
    residue_masses(mus[:, 0], d).  Only the exact model reads d and masses.
    """
    js = np.atleast_1d(js).tolist()
    if model == "dominant":  # float_power as in transmission: a residue's bits whatever js holds
        table = 1.0 - (1.0 - c.y0) * np.float_power.outer(1.0 - eta, js)
        return np.broadcast_to(table, (len(mus),) + table.shape)
    if model != "exact":
        raise ValueError("model must be 'exact' or 'dominant'")
    mass = masses[:, js]
    if not np.all(mass):
        mu = mus[np.argmin(mass.all(axis=1)), 0]
        raise DegenerateStateError("state with j=%s is degenerate at mu=%.6g" % (js, mu))
    lost = residue_masses((mus * (1.0 - eta)).ravel(), d, js).reshape(len(mus), eta.size, -1)
    survival = np.exp(-mus * eta)[:, :, None] * lost / mass[:, None, :]
    return 1.0 - (1.0 - c.y0) * survival


def _bit_error(c, y):
    """Conditional QBER of a state with yield y: dark counts plus misalignment."""
    return (c.e0 - c.e_det) * _ratio(c.y0, y) + c.e_det


def phase_error_upper(e_bit, delta):
    """Basis-dependence penalty on the phase error rate, elementwise.

    Standard inflation of a bit-error bound by the balance parameter
    Delta = (1 - F)/(2 Y); Delta is clamped to [0, 1/2] and delta = 0
    returns e_bit unchanged.  A bool or non-finite input, or an e_bit
    outside [0, 1], is a ValueError.
    """
    e_bit = _real(e_bit, "e_bit")
    delta = _real(delta, "delta")
    if not ((e_bit >= 0.0) & (e_bit <= 1.0)).all():
        raise ValueError("e_bit must lie in [0, 1]")
    delta = np.minimum(np.maximum(delta, 0.0), 0.5)
    root = np.sqrt(np.maximum(delta * (1.0 - delta) * e_bit * (1.0 - e_bit), 0.0))
    e_phase = (e_bit + 4.0 * delta * (1.0 - delta) * (1.0 - 2.0 * e_bit)
               + 4.0 * (1.0 - 2.0 * delta) * root)
    return e_phase if e_phase.ndim else float(e_phase)


# ---------------------------------------------------------------------------
# Phase encoding across a reference and a signal pulse
# ---------------------------------------------------------------------------


def _validate_encoding_d(d, j=0):
    """ValueError unless d is an integer >= 1 divisible by 4, as BB84 needs, and j in [0, d)."""
    _validate_dj(d, j)
    if d % 4:
        raise ValueError("d must be divisible by 4")


def phase_set(d, which=PHASE_SET_STANDARD):
    """BB84 phase indices k (phi = 2 pi k / d) for the four signal states.

    standard: {0, d/4, d/2, 3d/4}, two conjugate bases.
    paper-literal: {0, d/4, d/2, 3d/8}, which needs d divisible by 8; the
    fourth state is then not the conjugate-basis partner of the second.
    d must be an integer >= 1 divisible by 4.
    """
    _validate_encoding_d(d)
    if which == PHASE_SET_STANDARD:
        return [0, d // 4, d // 2, 3 * d // 4]
    if which == PHASE_SET_PAPER_LITERAL:
        if d % 8:
            raise ValueError("the paper-literal phase set needs d divisible by 8")
        return [0, d // 4, d // 2, 3 * d // 8]
    raise ValueError("unknown phase set %r" % (which,))


def measure_bb84(mu, d, j, k, basis):
    """(p_click_port0, p_click_port1, p_double, p_none) of |j_d> on two pulses of mu each,
    relative phase 2 pi k / d, on a 50:50 splitter ("Y": after a quarter-wave on the signal
    arm) with threshold detectors.  Given the total N = j (mod d), Pois(2mu; N) / M_j(2mu),
    port 0 holds every photon with probability a^N, a = |1 + phi w^k|^2 / 4 (phi = 1 for X,
    i for Y), port 1 with b^N, b = 1 - a, and both ports some with 1 - a^N - b^N (N >= 2);
    so p_click_port0 = e^{-2mu b} M*_j(2mu a) / M_j(2mu), M*_j without n = 0.  1 - a^N is
    -expm1(N log1p(-b)) on the smaller share and quarter turns are exact, so every term is
    >= 0 and a dark port reads 0; the four are divided by their sum, M_j(2mu) term by term.
    d is an integer >= 1 divisible by 4, k one integer in [0, d); a zero-norm state is a
    DegenerateStateError.
    """
    _validate_encoding_d(d, j)
    if _real(mu, "mu").ndim or mu < 0:
        raise ValueError("mu must be a number >= 0")
    if _index(k, d, "phase index k").ndim:
        raise ValueError("phase index k must be one integer")
    if basis not in ("X", "Y"):
        raise ValueError("basis must be 'X' or 'Y'")
    turn = 4 * k + (d if basis == "Y" else 0)  # phi w^k = exp(2 pi i turn / 4d)
    c = math.cos(math.pi * turn / (2 * d)) if turn % d else (1.0, 0.0, -1.0, 0.0)[turn // d % 4]
    # the port shares, and the smaller one, 0 when a port is dark and no pair splits
    a, b, s = (1.0 + c) / 2.0, (1.0 - c) / 2.0, (1.0 - abs(c)) / 2.0
    ns, pois = _support_terms(2.0 * mu, d, j)
    one, two = ns > 0, ns > 1
    double = (pois[two] * (-np.expm1(ns[two] * math.log1p(-s)) - s ** ns[two])).sum() if s else 0.0
    parts = [(pois[one] * a ** ns[one]).sum(), (pois[one] * b ** ns[one]).sum(), double,
             pois[0] if j == 0 else 0.0]
    total = sum(parts)
    if not total > 0:
        raise DegenerateStateError("state with j=%d is degenerate at mu=%.6g" % (j, mu))
    return tuple(float(p / total) for p in parts)


def basis_fidelity_bound(mu, d, j):
    """Closed-form lower bound on the fidelity between the X and Y basis mixtures.

    F >= d |sum_q w^{jq} e^{-2mu + mu w^{-q}} (e^{i mu w^{-q}} + i e^{-i mu w^{-q}})|
         / (sqrt(2) N_{2mu,j})

    mu is the per-pulse mean photon number (the encoded state carries 2 mu),
    and d an integer >= 1 divisible by 4.  The result is clamped to [0, 1];
    one that misses it by more than UNIT_RESIDUE_TOL, or a phase sum that
    overflows (mu above about 700), is a NumericalDiagnosticError.  mu may be
    a 1-D array: one residue table serves the normalizations, one (len(mu), d)
    array the phase sums, and each entry equals the scalar call's bits, since
    every step is elementwise and the modulus is libm hypot for every shape.
    """
    _validate_encoding_d(d)
    mus = _mu(mu)  # finite before the phase sums, which would warn on it
    if (mus < 0).any():
        raise ValueError("mu must be nonnegative")
    q = np.arange(d)
    winv = np.exp(-2j * np.pi * q / d)
    norms = normalization(2.0 * mus, d, j)
    m = mus.reshape(-1, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum raises below
        sums = np.sum(np.exp(2j * np.pi * j * q / d) * np.exp(-2.0 * m + m * winv)
                      * (np.exp(1j * m * winv) + 1j * np.exp(-1j * m * winv)), axis=1)
        # libm hypot, as in the scalar abs(complex): each entry keeps that modulus' bits
        s = (d * np.hypot(sums.real, sums.imag)).reshape(mus.shape)
    if not np.isfinite(s).all():
        raise NumericalDiagnosticError("fidelity bound phase sum overflows at mu=%.6g"
                                       % mus[~np.isfinite(s)][0])
    return _clamp_unit(s / (math.sqrt(2.0) * norms), "fidelity bound")


# ---------------------------------------------------------------------------
# Key-rate estimators
# ---------------------------------------------------------------------------


class _Branches:
    """Which (mu, distance) points of one surface the vacuity tests have ended so far, and why.

    Each estimator maps a column mus, shape (m, 1), to a KeyRateCurve of
    (m, len(distances)) tables.  keep() records diagnostics, NaN at the points
    already ended, so each point's result lists only the names its branch
    reached; end() ends the live points where a test failed.
    """

    def __init__(self, shape):
        self.live = np.ones(shape, dtype=bool)
        self.reason = np.full(shape, None, dtype=object)
        self.diagnostics = {}

    def keep(self, **values):
        for name, value in values.items():
            self.diagnostics[name] = np.where(self.live, value, np.nan)

    def end(self, failed, reason):
        failed = failed & self.live
        self.reason[failed] = reason
        self.live &= ~failed

    def live_or_zero(self, x):
        """x at the live points, 0 at the ended ones: a safe entropy or penalty input."""
        return np.where(self.live, x, 0.0)

    def surface(self, distances, mus, gain, qber, rate):
        """The (mu, distance) KeyRateCurve; an ended point, or a negative rate, reads rate 0."""
        rate = np.where(self.live & (rate > 0.0), rate, 0.0)
        return KeyRateCurve(distances, np.broadcast_to(mus, rate.shape), gain, qber, rate,
                            dict(self.diagnostics, vacuous=self.reason))


def _phase_error(branches, mus, d, basis_mu, y1, e_b1, name):
    """The j = 1 phase error, inflated by the basis dependence Delta1 = (1 - F1)/(2 Y1).

    F1 = basis_fidelity_bound(mu', d, 1) is asked for only at the mu rows that some
    distance still reaches: "half" treats mu as the total of the prepared state,
    so each pulse carries mu' = mu/2 (the bound's N_{2 mu'} matches N_mu); "full"
    takes mu' = mu.  f1, delta1 and the phase error (as name) are kept; Delta1 >
    1/2 or a phase error >= 1/2 ends a point, where the result reads 0.
    """
    if basis_mu not in ("half", "full"):
        raise ValueError("basis_mu must be 'half' or 'full'")
    # like a single point, a surface asks for the bound (and its d divisible by 4)
    # only at the mu that some distance reaches it at
    reached = branches.live.any(axis=1)
    if not reached.any():
        return np.zeros(branches.live.shape)
    per_pulse = mus[reached, 0] / 2.0 if basis_mu == "half" else mus[reached, 0]
    f1 = np.full(mus.shape, np.nan)
    f1[reached, 0] = basis_fidelity_bound(per_pulse, d, 1)
    delta1 = _ratio(1.0 - f1, 2.0 * y1)
    branches.keep(f1=f1, delta1=delta1)
    branches.end(delta1 > 0.5, "basis dependence too strong for the fidelity bound")
    e_p1 = phase_error_upper(branches.live_or_zero(e_b1), branches.live_or_zero(delta1))
    branches.keep(**{name: e_p1})
    branches.end(e_p1 >= 0.5, "phase-error bound >= 1/2")
    return branches.live_or_zero(e_p1)


def _nondecoy_curve(c, distances, mus, d=None):
    """GLLP non-decoy rate; d=None for a WCS source, else a pseudo-number source.

    R = max(0, -f Q H(E) + Q Omega [1 - H(E/Omega)]),
    Omega = (Q - P_multi)/Q, with P_multi the source's multi-state weight:
    1 - e^{-mu}(1 + mu) for WCS, the total j >= 2 residue weight otherwise.
    """
    st = channel_stats(c, mus, distances)
    if d is None:
        p_multi = 1.0 - np.exp(-mus) * (1.0 + mus)
    else:
        p_multi = residue_masses(mus[:, 0], d, range(2, d)).sum(axis=1, keepdims=True)
    branches = _Branches(st.q_mu.shape)
    omega = _ratio(st.q_mu - p_multi, st.q_mu)
    branches.keep(p_multi=p_multi, omega=omega)
    e_over_omega = _ratio(st.e_mu, omega)
    branches.end((omega <= 0.0) | (e_over_omega >= 0.5), "multiphoton fraction overwhelms the gain")
    rate = (-c.f * st.q_mu * binary_entropy(st.e_mu)
            + st.q_mu * omega * (1.0 - binary_entropy(branches.live_or_zero(e_over_omega))))
    return branches.surface(distances, mus, st.q_mu, st.e_mu, rate)


def _wcs_decoy_curve(c, distances, mus):
    """WCS rate with infinite decoy states: exact single-photon statistics.

    R = max(0, -f Q H(E) + Q1 [1 - H(e1)]), Q1 = Y1 mu e^{-mu},
    e1 = (e0 - e_det) Y0/Y1 + e_det.
    """
    st = channel_stats(c, mus, distances)
    y1 = _state_yields(c, mus, None, [1], None, st.eta, "dominant")[:, :, 0]
    q1 = y1 * mus * np.exp(-mus)
    e1 = _bit_error(c, y1)
    branches = _Branches(st.q_mu.shape)
    branches.keep(y1=y1, q1=q1, e1=e1)
    priv = np.where(e1 < 0.5, 1.0 - binary_entropy(e1), 0.0)
    rate = -c.f * st.q_mu * binary_entropy(st.e_mu) + q1 * priv
    return branches.surface(distances, mus, st.q_mu, st.e_mu, rate)


def _psp_passive_curve(c, distances, mus, d, basis_mu="half", yield_model="exact"):
    """Passive-decoy rate with full residue discrimination at the source.

    R = max(0, P1 Y1 [1 - f H(e_b1) - H(e_p1)]) with P1 the j=1 herald
    weight, Y1 the state's yield, e_b1 its bit error and e_p1 its phase
    error (_phase_error); a vacuous bound zeroes the rate with a diagnostic.
    """
    st = channel_stats(c, mus, distances)
    _validate_dj(d, 1)
    masses = residue_masses(mus[:, 0], d)
    p1 = masses[:, 1:2]
    y1 = _state_yields(c, mus, d, [1], masses, st.eta, yield_model)[:, :, 0]
    e_b1 = _bit_error(c, y1)
    branches = _Branches(y1.shape)
    branches.keep(p1=p1, y1=y1, e_b1=e_b1)
    e_p1 = _phase_error(branches, mus, d, basis_mu, y1, e_b1, "e_p1")
    rate = p1 * y1 * (1.0 - c.f * binary_entropy(e_b1) - binary_entropy(e_p1))
    return branches.surface(distances, mus, st.q_mu, st.e_mu, rate)


def _psp_triggered_curve(c, distances, mus, d, nu, eta_trigger_det, convention=CONVENTION_PAPER,
                         basis_mu="half", yield_model="exact"):
    """Rate with only the interferometric trigger distinguishing residues.

    Triggered gains factorize as Q_t(j) = P_j * eta_t(nu, j) * Y(j_d)
    (source, trigger and channel act independently; recorded as an
    assumption in the diagnostics).  The j=1 triggered gain is bounded from
    the trigger contrast, r = Q_t/Q_nt against r0 = eta_t(0)/eta_nt(0):

        Q_t(1) >= (r - r0) Q_nt,   e_b1 <= r E_t Q_nt / Q_t(1)_bound,

    and the phase error inherits the basis-dependence penalty.  Either bound
    going vacuous zeroes the rate with a diagnostic.
    """
    # the trigger vector depends on nu, d and the detector, not on mu
    g = GenerationParams(mu=float(mus[0, 0]), nu=nu, d=d, eta_det=eta_trigger_det)
    probs = residue_masses(mus[:, 0], d)  # checks every mu
    eta_t = trigger_probability(g, np.arange(d), convention)
    eta = transmission(c, distances)
    # (mu, distance, residue) tables of at most _TABLE_BLOCK entries, in C order, where
    # numpy sums each row in the (pairwise) order of a single residue vector
    block = max(1, _TABLE_BLOCK // (eta.size * d))
    parts = []
    for i in range(0, len(mus), block):
        p = probs[i:i + block, None, :]
        yields = np.ascontiguousarray(_state_yields(c, mus[i:i + block], d, range(d), p[:, 0],
                                                    eta, yield_model))
        q_t, q_nt = p * eta_t * yields, p * (1.0 - eta_t) * yields
        parts.append((q_t.sum(axis=2), q_nt.sum(axis=2), (q_t * _bit_error(c, yields)).sum(axis=2),
                      q_t[:, :, 1:2].sum(axis=2), yields[:, :, 1:2].sum(axis=2)))  # 0 at d = 1
    q_t_mu, q_nt_mu, error_sum, q_t_j1, y_j1 = map(np.concatenate, zip(*parts))
    del parts, yields, q_t, q_nt  # the blocks, before the (mu, distance) stage
    e_t_mu = np.where(q_t_mu > 0, _ratio(error_sum, q_t_mu), c.e0)
    branches = _Branches(q_t_mu.shape)
    branches.keep(q_t_mu=q_t_mu, q_nt_mu=q_nt_mu, e_t_mu=e_t_mu, q_t_j1_exact=q_t_j1)
    factorization = branches.diagnostics["factorization"] = np.empty(q_t_mu.shape, dtype=object)
    factorization.fill("gain = herald weight * trigger * state yield")  # one str for every entry
    branches.end((q_t_mu <= 0.0) | (q_nt_mu <= 0.0), "triggered or non-triggered gain vanished")
    r = _ratio(q_t_mu, q_nt_mu)
    r0 = _ratio(eta_t[0], 1.0 - eta_t[0])
    bound = (r - r0) * q_nt_mu
    branches.keep(r=r, r0=r0, q_t_j1_bound=bound)
    branches.end(bound <= 0.0, "trigger contrast below the j=0 background")
    e_b1_max = _ratio(r * e_t_mu * q_nt_mu, bound)
    branches.keep(e_b1_max=e_b1_max)
    branches.end(e_b1_max >= 0.5, "bit-error bound >= 1/2")
    e_p1_max = _phase_error(branches, mus, d, basis_mu, y_j1, e_b1_max, "e_p1_max")
    rate = -c.f * q_t_mu * binary_entropy(e_t_mu) + bound * (1.0 - binary_entropy(e_p1_max))
    return branches.surface(distances, mus, q_t_mu, e_t_mu, rate)


def keyrate_curve(protocol, c, mu, distances, d=None, **kwargs):
    """Key rate of one source at every distance (km, 1-D array): a KeyRateCurve.

    mu is one positive number or a nonempty 1-D grid of them.  The protocol
    is evaluated once, over the whole (sorted grid, distance) surface; each
    distance then takes the first maximum of its rate along the grid, so a
    larger mu wins only on a strictly larger rate.  c supplies every channel
    parameter but the distances.  What depends only on the source
    (its residue masses, fidelity bound and trigger vector) is computed once
    for all distances.  The pseudo-number protocols need an integer d >= 1, and
    keyword arguments go to the protocol's estimator; a d or keyword that is not
    in the protocol's PARAMETERS entry is a ValueError, and so is a triggered
    source without nu or eta_trigger_det.
    """
    grid = _mu(mu)
    if not grid.size:
        raise ValueError("mu must be a number or a nonempty 1-D grid")
    # sorted(), not np.sort, whose first call maps SIMD kernels: 0.4 MB of peak RSS
    mus = np.array(sorted(grid.ravel().tolist()))[:, None]
    if mus[0, 0] <= 0:
        raise ValueError("mu must be positive")
    at = _distances(distances)
    if protocol not in PARAMETERS:
        raise ValueError("unknown protocol %r" % (protocol,))
    for name in ([] if d is None else ["d"]) + list(kwargs):
        if name not in PARAMETERS[protocol]:
            raise ValueError("%s does not apply to protocol %s" % (name, protocol))
    if "d" in PARAMETERS[protocol]:
        _validate_dj(d)  # the non-decoy estimator reads d=None as a WCS source
    missing = {"nu", "eta_trigger_det"} - set(kwargs) if protocol == PSP_TRIGGERED else ()
    if missing:
        raise ValueError("protocol %s needs %s" % (protocol, " and ".join(sorted(missing))))
    # the estimators are looked up at call time, so a patched module attribute is what runs
    if protocol in (WCS_NONDECOY, PSP_NONDECOY):
        surface = _nondecoy_curve(c, at, mus, d)
    elif protocol == WCS_DECOY:
        surface = _wcs_decoy_curve(c, at, mus)
    else:
        estimator = _psp_passive_curve if protocol == PSP_PASSIVE_DECOY else _psp_triggered_curve
        surface = estimator(c, at, mus, d, **kwargs)
    best = np.argmax(surface.rate, axis=0)[None, :]
    pick = lambda table: np.take_along_axis(table, best, axis=0)[0]  # noqa: E731
    return KeyRateCurve(surface.distance_km, pick(surface.mu), pick(surface.gain),
                        pick(surface.qber), pick(surface.rate),
                        {name: pick(values) for name, values in surface.diagnostics.items()})
