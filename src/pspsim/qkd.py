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
Each one evaluates a source curve over an array of distances (keyrate_curve);
keyrate_for_protocol is that curve at c.distance_km.

Phase-encoded states split |j_d> across a reference and a signal pulse; the
basis-dependence of the source enters through a closed-form lower bound on
the fidelity between the two basis mixtures, converted to a phase-error
penalty the standard way (Delta = (1 - F)/(2 Y)).
"""

import math
from dataclasses import dataclass, field, fields
from functools import reduce

import numpy as np

from .errors import DegenerateStateError, NumericalDiagnosticError
from .generation import CONVENTION_PAPER, GenerationParams, trigger_probability
from .pns import _validate_d, _validate_dj, _validate_mu, normalization, residue_masses
from .states import CoherentSuperposition, beam_splitter, vacuum_probabilities

WCS_NONDECOY = "wcs-nondecoy"
WCS_DECOY = "wcs-decoy"
PSP_NONDECOY = "psp-nondecoy"
PSP_PASSIVE_DECOY = "psp-passive"
PSP_TRIGGERED = "psp-triggered"
PROTOCOLS = (WCS_NONDECOY, WCS_DECOY, PSP_NONDECOY, PSP_PASSIVE_DECOY, PSP_TRIGGERED)

PHASE_SET_STANDARD = "standard"
PHASE_SET_PAPER_LITERAL = "paper-literal"


@dataclass(frozen=True)
class ChannelParams:
    """Fiber-channel and receiver parameters (defaults: the GYS experiment).

    eta_bob includes Bob's detector efficiency.  e0 is the error rate of dark
    counts (1/2 for a random click).  Every field must be finite.
    """

    f: float = 1.16
    eta_bob: float = 0.045
    y0: float = 1.7e-6
    e0: float = 0.5
    e_det: float = 0.033
    alpha_db_per_km: float = 0.21
    distance_km: float = 0.0

    def __post_init__(self):
        # NaN fails no range test below, and max(0, nan) would read as a zero rate
        for spec in fields(self):
            if not math.isfinite(getattr(self, spec.name)):
                raise ValueError("%s must be finite" % spec.name)
        if not 0 < self.eta_bob <= 1:
            raise ValueError("eta_bob must lie in (0, 1]")
        if not 0 <= self.y0 < 1:
            raise ValueError("y0 must lie in [0, 1)")
        if not (0 <= self.e_det < 0.5 and 0 <= self.e0 <= 0.5):
            raise ValueError("error rates must lie in [0, 1/2]")
        if self.f < 1:
            raise ValueError("error-correction inefficiency f must be >= 1")
        if self.alpha_db_per_km < 0 or self.distance_km < 0:
            raise ValueError("loss coefficient and distance must be nonnegative")


@dataclass(frozen=True)
class ChannelStats:
    eta: float
    q_mu: float
    e_mu: float


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


def _reject_nan(*arrays):
    if any(np.isnan(a).any() for a in arrays):
        raise ValueError("input must not be NaN")


def binary_entropy(p):
    """H(p) in bits; 0 outside the open interval (0, 1).

    p may be an array (the result is then elementwise); NaN is a ValueError.
    """
    p = np.asarray(p, dtype=float)
    _reject_nan(p)
    inside = (p > 0.0) & (p < 1.0)
    q = np.where(inside, p, 0.5)
    h = np.where(inside, -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q), 0.0)
    return h if h.ndim else float(h)


def transmission(c, distances=None):
    """Overall transmittance eta from fiber loss and Bob's efficiency.

    distances (km, 1-D) gives an array, one eta per entry, in place of the
    eta at c.distance_km.
    """
    at = _distances(c, distances)
    # Python's power, one distance at a time: numpy's array power differs
    # from it in the last digit on some CPUs
    eta = np.array([10.0 ** (-c.alpha_db_per_km * L / 10.0) for L in at.tolist()]) * c.eta_bob
    return float(eta[0]) if distances is None else eta


def _distances(c, distances):
    """distances as a checked 1-D float array; None means (c.distance_km,)."""
    if distances is None:
        return np.array([c.distance_km])
    at = np.asarray(distances, dtype=float)
    if at.ndim != 1 or not (np.isfinite(at).all() and (at >= 0).all()):
        raise ValueError("distances must be a 1-D array of finite nonnegative values")
    return at


def _exp(x):
    """math.exp at each entry of the array x (numpy's exp differs from it in the last digit)."""
    return np.array([math.exp(v) for v in x.tolist()])


def channel_stats(c, mu, distances=None):
    """Transmittance, gain Q_mu and QBER E_mu at mean photon number mu.

    A pseudo-number source partitions the same Poisson photon statistics by
    residue, so Q_mu and E_mu hold for it and for a weak coherent source alike.
    distances (km, 1-D) makes every field an array over them, in place of
    the values at c.distance_km.
    """
    if not (math.isfinite(mu) and mu >= 0):
        raise ValueError("mu must be finite and nonnegative")
    eta = transmission(c, _distances(c, distances))  # an array, even for c.distance_km alone
    survival = _exp(-eta * mu)
    q = c.y0 + 1.0 - survival
    e = np.where(q > 0, _ratio(c.e0 * c.y0 + c.e_det * (1.0 - survival), q), c.e0)
    if distances is None:
        return ChannelStats(eta=float(eta[0]), q_mu=float(q[0]), e_mu=float(e[0]))
    return ChannelStats(eta=eta, q_mu=q, e_mu=e)


def _ratio(num, den):
    """num / den elementwise where den > 0, else 0, with no division warning."""
    num, den = np.broadcast_arrays(np.asarray(num, dtype=float), np.asarray(den, dtype=float))
    return np.divide(num, den, out=np.zeros(den.shape), where=den > 0)


def pseudo_state_yield(c, mu, d, j, model="exact"):
    """Detection probability of |j_d>: its photon-number mixture of yields.

    model="exact" averages Y_n over the conditional distribution
    p(n | j) = d^2 e^{-mu} mu^n / (n! N_{mu,j}); model="dominant" collapses
    the state to its lowest photon number j (a sensitivity check), with the
    n-photon yield Y_n = 1 - (1 - Y0)(1 - eta)^n.
    """
    _validate_dj(d, j)
    _validate_mu(mu)  # the dominant model reads no residue mass, whose series checks it
    masses = residue_masses(mu, d) if model == "exact" else None
    eta = transmission(c, _distances(c, None))
    return float(_state_yields(c, mu, d, [j], masses, eta, model)[0, 0])


def _state_yields(c, mu, d, js, masses, eta, model):
    """pseudo_state_yield of each residue in js at each transmittance in eta.

    Returns a (len(eta), len(js)) table; masses = residue_masses(mu, d),
    which only the exact model reads.
    """
    js = np.atleast_1d(js).tolist()  # Python ints
    if model == "dominant":
        # Python's power per entry: numpy's array power differs from it in the last digit
        return np.array([[1.0 - (1.0 - c.y0) * (1.0 - e) ** n for n in js] for e in eta.tolist()])
    if model != "exact":
        raise ValueError("model must be 'exact' or 'dominant'")
    mass = masses[js]
    if not np.all(mass):
        raise DegenerateStateError("state with j=%s is degenerate at mu=%.6g" % (js, mu))
    survival = _exp(-mu * eta)[:, None] * residue_masses(mu * (1.0 - eta), d)[:, js] / mass
    return 1.0 - (1.0 - c.y0) * survival


def _bit_error(c, y):
    """Conditional QBER of a state with yield y: dark counts plus misalignment."""
    return (c.e0 - c.e_det) * _ratio(c.y0, y) + c.e_det


def phase_error_upper(e_bit, delta):
    """Basis-dependence penalty on the phase error rate, elementwise.

    Standard inflation of a bit-error bound by the balance parameter
    Delta = (1 - F)/(2 Y); Delta is clamped to [0, 1/2] and delta = 0
    returns e_bit unchanged.  An e_bit outside [0, 1] (NaN and +-inf
    included), or a NaN delta, is a ValueError.
    """
    e_bit = np.asarray(e_bit, dtype=float)
    delta = np.asarray(delta, dtype=float)
    _reject_nan(delta)
    if not ((e_bit >= 0.0) & (e_bit <= 1.0)).all():  # NaN fails both tests
        raise ValueError("e_bit must lie in [0, 1]")
    delta = np.minimum(np.maximum(delta, 0.0), 0.5)
    root = np.sqrt(np.maximum(delta * (1.0 - delta) * e_bit * (1.0 - e_bit), 0.0))
    e_phase = (e_bit + 4.0 * delta * (1.0 - delta) * (1.0 - 2.0 * e_bit)
               + 4.0 * (1.0 - 2.0 * delta) * root)
    return e_phase if e_phase.ndim else float(e_phase)


# ---------------------------------------------------------------------------
# Phase encoding across a reference and a signal pulse
# ---------------------------------------------------------------------------


def phase_set(d, which=PHASE_SET_STANDARD):
    """BB84 phase indices k (phi = 2 pi k / d) for the four signal states.

    standard: {0, d/4, d/2, 3d/4}, two conjugate bases.
    paper-literal: {0, d/4, d/2, 3d/8}, which needs d divisible by 8; the
    fourth state is then not the conjugate-basis partner of the second.
    """
    if d % 4:
        raise ValueError("d must be divisible by 4")
    if which == PHASE_SET_STANDARD:
        return [0, d // 4, d // 2, 3 * d // 4]
    if which == PHASE_SET_PAPER_LITERAL:
        if d % 8:
            raise ValueError("the paper-literal phase set needs d divisible by 8")
        return [0, d // 4, d // 2, 3 * d // 8]
    raise ValueError("unknown phase set %r" % (which,))


def encoded_state(mu, d, j, k):
    """Two-pulse encoding of |j_d> with relative phase 2 pi k / d.

    N^{-1/2}_{2mu,j} sum_q w^{-jq} |sqrt(mu) w^q>_r |sqrt(mu) w^{q+k}>_s;
    each pulse carries mu, the underlying state carries 2 mu.
    """
    if d % 4:
        raise ValueError("d must be divisible by 4")
    if isinstance(k, (bool, np.bool_)) or not (
            isinstance(k, (int, np.integer)) or float(k).is_integer()):
        raise ValueError("phase index k must be an integer")
    k = int(k)
    n = normalization(2.0 * mu, d, j)
    q = np.arange(d)
    coeffs = np.exp(-2j * np.pi * j * q / d) / np.sqrt(n)
    ref = np.sqrt(mu) * np.exp(2j * np.pi * q / d)
    sig = np.sqrt(mu) * np.exp(2j * np.pi * (q + k) / d)
    return CoherentSuperposition(coeffs, np.column_stack([ref, sig]))


def measure_bb84(state, basis):
    """Interfere the two pulses and read threshold detectors at both ports.

    Returns (p_click_port0, p_click_port1, p_double, p_none), exclusive
    events that sum to one.  basis "X" uses the plain 50:50 splitter,
    "Y" the one with a quarter-wave phase on the signal arm.
    """
    if state.mode_count != 2:
        raise ValueError("expected a two-pulse state")
    out = beam_splitter(state, 0, 1, basis)
    v0, v1, v01 = vacuum_probabilities(out, ((0,), (1,), (0, 1)))
    p0 = max(v1 - v01, 0.0)
    p1 = max(v0 - v01, 0.0)
    p_double = max(1.0 - v0 - v1 + v01, 0.0)
    return p0, p1, p_double, v01


def basis_fidelity_bound(mu, d, j):
    """Closed-form lower bound on the fidelity between the X and Y basis mixtures.

    F >= d |sum_q w^{jq} e^{-2mu + mu w^{-q}} (e^{i mu w^{-q}} + i e^{-i mu w^{-q}})|
         / (sqrt(2) N_{2mu,j})

    mu is the per-pulse mean photon number (the encoded state carries 2 mu).
    Values above 1 + 1e-9 are a numerical failure; the result is clamped
    to [0, 1].
    """
    if d % 4:
        raise ValueError("d must be divisible by 4")
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if not math.isfinite(mu):  # before the phase sum, which would warn on it
        raise ValueError("mu must be finite")
    q = np.arange(d)
    winv = np.exp(-2j * np.pi * q / d)
    terms = (
        np.exp(2j * np.pi * j * q / d)
        * np.exp(-2.0 * mu + mu * winv)
        * (np.exp(1j * mu * winv) + 1j * np.exp(-1j * mu * winv))
    )
    val = d * abs(np.sum(terms)) / (math.sqrt(2.0) * normalization(2.0 * mu, d, j))
    if val > 1.0 + 1e-9:
        raise NumericalDiagnosticError("fidelity bound %.12f exceeds 1" % val)
    return min(max(val, 0.0), 1.0)


def _basis_pulse_mu(mu, basis_mu):
    """Per-pulse mean photon number at which the fidelity bound is evaluated.

    "half" treats mu as the total of the prepared state (pulses carry mu/2
    each, so the bound's N_{2 mu'} matches N_mu); "full" evaluates at mu.
    """
    if basis_mu == "half":
        return mu / 2.0
    if basis_mu == "full":
        return mu
    raise ValueError("basis_mu must be 'half' or 'full'")


# ---------------------------------------------------------------------------
# Key-rate estimators
# ---------------------------------------------------------------------------


class _Branches:
    """Which distances of one curve the vacuity tests have ended so far, and why.

    keep() records diagnostics, NaN at the distances already ended, so each
    distance's result lists only the names its branch reached; end() ends
    the live distances where a test failed.
    """

    def __init__(self, n):
        self.live = np.ones(n, dtype=bool)
        self.reason = np.full(n, None, dtype=object)
        self.diagnostics = {}

    def keep(self, **values):
        for name, value in values.items():
            self.diagnostics[name] = np.where(self.live, value, np.nan)

    def end(self, failed, reason):
        failed = failed & self.live
        self.reason[failed] = reason
        self.live &= ~failed

    def live_or_zero(self, x):
        """x at the live distances, 0 at the ended ones: a safe entropy or penalty input."""
        return np.where(self.live, x, 0.0)

    def curve(self, distances, mu, gain, qber, rate):
        """The KeyRateCurve; an ended distance, or a negative rate, reads rate 0."""
        rate = np.where(self.live & (rate > 0.0), rate, 0.0)
        return KeyRateCurve(distances, np.full(distances.size, float(mu)), gain, qber, rate,
                            dict(self.diagnostics, vacuous=self.reason))


def _nondecoy_curve(c, distances, mu, d=None):
    """GLLP non-decoy rate; d=None for a WCS source, else a pseudo-number source.

    R = max(0, -f Q H(E) + Q Omega [1 - H(E/Omega)]),
    Omega = (Q - P_multi)/Q, with P_multi the source's multi-state weight:
    1 - e^{-mu}(1 + mu) for WCS, the total j >= 2 residue weight otherwise.
    """
    st = channel_stats(c, mu, distances)
    if d is None:
        p_multi = 1.0 - math.exp(-mu) * (1.0 + mu)
    else:
        p_multi = float(residue_masses(mu, d)[2:].sum())
    branches = _Branches(st.q_mu.size)
    omega = _ratio(st.q_mu - p_multi, st.q_mu)
    branches.keep(p_multi=p_multi, omega=omega)
    e_over_omega = _ratio(st.e_mu, omega)
    branches.end((omega <= 0.0) | (e_over_omega >= 0.5), "multiphoton fraction overwhelms the gain")
    rate = (-c.f * st.q_mu * binary_entropy(st.e_mu)
            + st.q_mu * omega * (1.0 - binary_entropy(branches.live_or_zero(e_over_omega))))
    return branches.curve(distances, mu, st.q_mu, st.e_mu, rate)


def _wcs_decoy_curve(c, distances, mu):
    """WCS rate with infinite decoy states: exact single-photon statistics.

    R = max(0, -f Q H(E) + Q1 [1 - H(e1)]), Q1 = Y1 mu e^{-mu},
    e1 = (e0 - e_det) Y0/Y1 + e_det.
    """
    st = channel_stats(c, mu, distances)
    y1 = 1.0 - (1.0 - c.y0) * (1.0 - st.eta)  # Y_n at n = 1, as in _state_yields' dominant model
    q1 = y1 * mu * math.exp(-mu)
    e1 = _bit_error(c, y1)
    branches = _Branches(y1.size)
    branches.keep(y1=y1, q1=q1, e1=e1)
    priv = np.where(e1 < 0.5, 1.0 - binary_entropy(e1), 0.0)
    rate = -c.f * st.q_mu * binary_entropy(st.e_mu) + q1 * priv
    return branches.curve(distances, mu, st.q_mu, st.e_mu, rate)


def _psp_passive_curve(c, distances, mu, d, basis_mu="half", yield_model="exact"):
    """Passive-decoy rate with full residue discrimination at the source.

    R = max(0, P1 Y1 [1 - f H(e_b1) - H(e_p1)]) with P1 the j=1 herald
    weight, Y1 the state's yield, e_b1 its bit error and e_p1 the
    basis-dependence-inflated phase error via Delta1 = (1 - F1)/(2 Y1).
    Delta1 > 1/2 or a phase-error bound >= 1/2 makes the bound vacuous and
    zeroes the rate (recorded in diagnostics).
    """
    st = channel_stats(c, mu, distances)
    _validate_dj(d, 1)
    masses = residue_masses(mu, d)
    p1 = float(masses[1])
    y1 = _state_yields(c, mu, d, [1], masses, st.eta, yield_model)[:, 0]
    e_b1 = _bit_error(c, y1)
    f1 = basis_fidelity_bound(_basis_pulse_mu(mu, basis_mu), d, 1)
    delta1 = _ratio(1.0 - f1, 2.0 * y1)
    branches = _Branches(y1.size)
    branches.keep(p1=p1, y1=y1, e_b1=e_b1, f1=f1, delta1=delta1)
    branches.end(delta1 > 0.5, "basis dependence too strong for the fidelity bound")
    e_p1 = phase_error_upper(branches.live_or_zero(e_b1), branches.live_or_zero(delta1))
    e_p1 = np.where(branches.live, e_p1, 1.0)  # 1 where the basis-dependence test ended the bound
    branches.diagnostics["e_p1"] = e_p1
    branches.end(e_p1 >= 0.5, "phase-error bound >= 1/2")
    rate = p1 * y1 * (1.0 - c.f * binary_entropy(e_b1) - binary_entropy(e_p1))
    return branches.curve(distances, mu, st.q_mu, st.e_mu, rate)


def _psp_triggered_curve(c, distances, mu, d, nu, eta_trigger_det, convention=CONVENTION_PAPER,
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
    g = GenerationParams(mu=mu, nu=nu, d=d, eta_det=eta_trigger_det)
    st = channel_stats(c, mu, distances)
    probs = residue_masses(mu, d)
    residues = np.arange(d)
    # (distance, residue) tables in C order, where numpy sums each row in the
    # same (pairwise) order as a single residue vector
    yields = np.ascontiguousarray(_state_yields(c, mu, d, residues, probs, st.eta, yield_model))
    errors = _bit_error(c, yields)
    eta_t = trigger_probability(g, residues, convention)
    q_t = probs * eta_t * yields
    q_nt = probs * (1.0 - eta_t) * yields
    q_t_mu = q_t.sum(axis=1)
    q_nt_mu = q_nt.sum(axis=1)
    e_t_mu = np.where(q_t_mu > 0, _ratio((q_t * errors).sum(axis=1), q_t_mu), c.e0)
    branches = _Branches(q_t_mu.size)
    branches.keep(q_t_mu=q_t_mu, q_nt_mu=q_nt_mu, e_t_mu=e_t_mu,
                  q_t_j1_exact=q_t[:, 1] if d > 1 else 0.0)
    branches.diagnostics["factorization"] = np.full(
        q_t_mu.size, "gain = herald weight * trigger * state yield", dtype=object)
    result = lambda rate: branches.curve(distances, mu, q_t_mu, e_t_mu, rate)  # noqa: E731
    branches.end((q_t_mu <= 0.0) | (q_nt_mu <= 0.0), "triggered or non-triggered gain vanished")
    r = _ratio(q_t_mu, q_nt_mu)
    r0 = _ratio(eta_t[0], 1.0 - eta_t[0])
    bound = (r - r0) * q_nt_mu
    branches.keep(r=r, r0=r0, q_t_j1_bound=bound)
    branches.end(bound <= 0.0, "trigger contrast below the j=0 background")
    e_b1_max = _ratio(r * e_t_mu * q_nt_mu, bound)
    branches.keep(e_b1_max=e_b1_max)
    branches.end(e_b1_max >= 0.5, "bit-error bound >= 1/2")
    if not branches.live.any():
        # like a single distance, a curve asks for the fidelity bound (and its
        # d divisible by 4) only if some distance reaches it
        return result(0.0)
    f1 = basis_fidelity_bound(_basis_pulse_mu(mu, basis_mu), d, 1)
    delta1 = _ratio(1.0 - f1, 2.0 * yields[:, 1])
    branches.keep(f1=f1, delta1=delta1)
    branches.end(delta1 > 0.5, "basis dependence too strong for the fidelity bound")
    e_p1_max = phase_error_upper(branches.live_or_zero(e_b1_max), branches.live_or_zero(delta1))
    branches.keep(e_p1_max=e_p1_max)
    branches.end(e_p1_max >= 0.5, "phase-error bound >= 1/2")
    return result(-c.f * q_t_mu * binary_entropy(e_t_mu)
                  + bound * (1.0 - binary_entropy(branches.live_or_zero(e_p1_max))))


def keyrate_curve(protocol, c, mu, distances, d=None, **kwargs):
    """Key rate of one source at every distance (km, 1-D array): a KeyRateCurve.

    c supplies every channel parameter but the distance.  What depends only
    on the source (its residue masses, fidelity bound and trigger vector)
    is computed once for the whole curve.  Extra keyword arguments go to the
    matching estimator (nu, eta_trigger_det, convention, basis_mu,
    yield_model as applicable).  mu must be positive, and the
    pseudo-number protocols need an integer d >= 1.
    """
    distances = _distances(c, distances)
    if protocol not in PROTOCOLS:
        raise ValueError("unknown protocol %r" % (protocol,))
    if protocol in (PSP_NONDECOY, PSP_PASSIVE_DECOY, PSP_TRIGGERED):
        _validate_d(d)  # the non-decoy estimator reads d=None as a WCS source
    if mu <= 0:
        raise ValueError("mu must be positive")
    if protocol == WCS_NONDECOY:
        return _nondecoy_curve(c, distances, mu)
    if protocol == WCS_DECOY:
        return _wcs_decoy_curve(c, distances, mu)
    if protocol == PSP_NONDECOY:
        return _nondecoy_curve(c, distances, mu, d)
    if protocol == PSP_PASSIVE_DECOY:
        return _psp_passive_curve(c, distances, mu, d, **kwargs)
    return _psp_triggered_curve(c, distances, mu, d, **kwargs)


def keyrate_for_protocol(protocol, c, mu, d=None, **kwargs):
    """Key rate of one protocol at c.distance_km: row 0 of its keyrate_curve.

    Extra keyword arguments go to the matching estimator (nu,
    eta_trigger_det, convention, basis_mu, yield_model as applicable).
    The pseudo-number protocols need an integer d >= 1.
    """
    return keyrate_curve(protocol, c, mu, _distances(c, None), d, **kwargs).result(0)


def optimize_mu(c, d, protocol, mu_grid, distances=None, **kwargs):
    """Grid-search the source intensity; deterministic, ties go to smaller mu.

    Extra keyword arguments are forwarded to the estimator (nu,
    eta_trigger_det, convention, basis_mu, yield_model as applicable).
    Returns (mu_star, KeyRateResult at mu_star).  With distances (km, 1-D)
    the search runs at each of them and returns (mu_star array,
    KeyRateCurve); each grid point is one curve evaluation.
    """
    grid = sorted(float(m) for m in mu_grid)
    if not grid:
        raise ValueError("mu_grid must be nonempty")
    at = _distances(c, distances)
    curves = (keyrate_curve(protocol, c, m, at, d, **kwargs) for m in grid)
    curve = reduce(_better_where_larger, curves)
    if distances is None:
        res = curve.result(0)
        return res.mu, res
    return curve.mu, curve


def _better_where_larger(best, curve):
    """Per distance, curve where its rate is strictly larger than best's, else best.

    Folded over a grid sorted by mu, this keeps the first maximum: a larger
    mu wins only on a strictly larger rate.
    """
    larger = curve.rate > best.rate

    def pick(new, old):
        return np.where(larger, new, old)

    unreached = np.full(larger.size, np.nan)  # a name one curve's branches never reached
    names = dict.fromkeys([*best.diagnostics, *curve.diagnostics])
    return KeyRateCurve(best.distance_km, pick(curve.mu, best.mu), pick(curve.gain, best.gain),
                        pick(curve.qber, best.qber), pick(curve.rate, best.rate),
                        {name: pick(curve.diagnostics.get(name, unreached),
                                    best.diagnostics.get(name, unreached)) for name in names})
