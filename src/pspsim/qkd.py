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

Phase-encoded states split |j_d> across a reference and a signal pulse; the
basis-dependence of the source enters through a closed-form lower bound on
the fidelity between the two basis mixtures, converted to a phase-error
penalty the standard way (Delta = (1 - F)/(2 Y)).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateStateError
from .generation import CONVENTION_PAPER, GenerationParams, trigger_probability
from .pns import _validate_dj, modular_poisson_mass, normalization, residue_masses
from .states import CoherentSuperposition, beam_splitter, vacuum_probability

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

    eta_det is Bob's detector efficiency and is already folded into eta_bob;
    it is carried for bookkeeping only and never enters a formula on its own.
    e0 is the error rate of dark counts (1/2 for a random click).
    """

    f: float = 1.16
    eta_det: float = 0.12
    eta_bob: float = 0.045
    y0: float = 1.7e-6
    e0: float = 0.5
    e_det: float = 0.033
    alpha_db_per_km: float = 0.21
    distance_km: float = 0.0

    def __post_init__(self):
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
    protocol: str
    mu: float
    d: object
    nu: object
    gain: float
    qber: float
    rate: float
    diagnostics: dict = field(default_factory=dict)


def binary_entropy(p):
    """H(p) in bits; 0 outside the open interval (0, 1)."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def transmission(c):
    """Overall transmittance eta from fiber loss and Bob's efficiency."""
    return 10.0 ** (-c.alpha_db_per_km * c.distance_km / 10.0) * c.eta_bob


def yield_n(c, n):
    """Detection probability for an n-photon input."""
    eta = transmission(c)
    return 1.0 - (1.0 - c.y0) * (1.0 - eta) ** n


def channel_stats(c, mu, source="wcs"):
    """Transmittance, gain Q_mu and QBER E_mu at mean photon number mu.

    A pseudo-number source partitions the same Poisson photon statistics by
    residue, so Q_mu and E_mu are identical for source="wcs" and "psp".
    """
    if source not in ("wcs", "psp"):
        raise ValueError("source must be 'wcs' or 'psp'")
    if not (math.isfinite(mu) and mu >= 0):
        raise ValueError("mu must be finite and nonnegative")
    eta = transmission(c)
    q = c.y0 + 1.0 - math.exp(-eta * mu)
    if q > 0:
        e = (c.e0 * c.y0 + c.e_det * (1.0 - math.exp(-eta * mu))) / q
    else:
        e = c.e0
    return ChannelStats(eta=eta, q_mu=q, e_mu=e)


def pseudo_state_yield(c, mu, d, j, model="exact"):
    """Detection probability of |j_d>: its photon-number mixture of yields.

    model="exact" averages Y_n over the conditional distribution
    p(n | j) = d^2 e^{-mu} mu^n / (n! N_{mu,j}); model="dominant" collapses
    the state to its lowest photon number j (a sensitivity check).
    """
    if model == "dominant":
        return yield_n(c, j)
    if model != "exact":
        raise ValueError("model must be 'exact' or 'dominant'")
    _validate_dj(d, j)
    eta = transmission(c)
    mass = residue_masses(mu, d)[j]
    if mass == 0.0:
        raise DegenerateStateError("state with j=%d is degenerate at mu=%.6g" % (j, mu))
    survival = math.exp(-mu * eta) * residue_masses(mu * (1.0 - eta), d)[j] / mass
    return float(1.0 - (1.0 - c.y0) * survival)


def _bit_error(c, y):
    """Conditional QBER of a state with yield y: dark counts plus misalignment."""
    return (c.e0 - c.e_det) * (c.y0 / y) + c.e_det


def phase_error_upper(e_bit, delta):
    """Basis-dependence penalty on the phase error rate.

    Standard inflation of a bit-error bound by the balance parameter
    Delta = (1 - F)/(2 Y); Delta is clamped to [0, 1/2] and delta = 0
    returns e_bit unchanged.
    """
    delta = min(max(delta, 0.0), 0.5)
    root = math.sqrt(max(delta * (1.0 - delta) * e_bit * (1.0 - e_bit), 0.0))
    return e_bit + 4.0 * delta * (1.0 - delta) * (1.0 - 2.0 * e_bit) + 4.0 * (1.0 - 2.0 * delta) * root


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
    if not (isinstance(k, (int, np.integer)) or float(k).is_integer()):
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
    v0 = vacuum_probability(out, (0,))
    v1 = vacuum_probability(out, (1,))
    v01 = vacuum_probability(out, (0, 1))
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
    q = np.arange(d)
    winv = np.exp(-2j * np.pi * q / d)
    terms = (
        np.exp(2j * np.pi * j * q / d)
        * np.exp(-2.0 * mu + mu * winv)
        * (np.exp(1j * mu * winv) + 1j * np.exp(-1j * mu * winv))
    )
    val = d * abs(np.sum(terms)) / (math.sqrt(2.0) * normalization(2.0 * mu, d, j))
    if val > 1.0 + 1e-9:
        from .errors import NumericalDiagnosticError

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


def keyrate_nondecoy(c, mu, d=None):
    """GLLP non-decoy rate; d=None for a WCS source, else a pseudo-number source.

    R = max(0, -f Q H(E) + Q Omega [1 - H(E/Omega)]),
    Omega = (Q - P_multi)/Q, with P_multi the source's multi-state weight:
    1 - e^{-mu}(1 + mu) for WCS, the total j >= 2 residue weight otherwise.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    st = channel_stats(c, mu)
    if d is None:
        protocol = WCS_NONDECOY
        p_multi = 1.0 - math.exp(-mu) * (1.0 + mu)
    else:
        protocol = PSP_NONDECOY
        p_multi = float(residue_masses(mu, d)[2:].sum())
    omega = (st.q_mu - p_multi) / st.q_mu
    diag = {"p_multi": p_multi, "omega": omega}
    if omega <= 0.0 or st.e_mu / omega >= 0.5:
        diag["vacuous"] = "multiphoton fraction overwhelms the gain"
        rate = 0.0
    else:
        rate = max(
            0.0,
            -c.f * st.q_mu * binary_entropy(st.e_mu)
            + st.q_mu * omega * (1.0 - binary_entropy(st.e_mu / omega)),
        )
    return KeyRateResult(protocol, mu, d, None, st.q_mu, st.e_mu, rate, diag)


def keyrate_wcs_decoy(c, mu):
    """WCS rate with infinite decoy states: exact single-photon statistics.

    R = max(0, -f Q H(E) + Q1 [1 - H(e1)]), Q1 = Y1 mu e^{-mu},
    e1 = (e0 - e_det) Y0/Y1 + e_det.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    st = channel_stats(c, mu)
    y1 = yield_n(c, 1)
    q1 = y1 * mu * math.exp(-mu)
    e1 = _bit_error(c, y1)
    diag = {"y1": y1, "q1": q1, "e1": e1}
    priv = 1.0 - binary_entropy(e1) if e1 < 0.5 else 0.0
    rate = max(0.0, -c.f * st.q_mu * binary_entropy(st.e_mu) + q1 * priv)
    return KeyRateResult(WCS_DECOY, mu, None, None, st.q_mu, st.e_mu, rate, diag)


def keyrate_psp_passive(c, mu, d, basis_mu="half", yield_model="exact"):
    """Passive-decoy rate with full residue discrimination at the source.

    R = max(0, P1 Y1 [1 - f H(e_b1) - H(e_p1)]) with P1 the j=1 herald
    weight, Y1 the state's yield, e_b1 its bit error and e_p1 the
    basis-dependence-inflated phase error via Delta1 = (1 - F1)/(2 Y1).
    Delta1 > 1/2 or a phase-error bound >= 1/2 makes the bound vacuous and
    zeroes the rate (recorded in diagnostics).
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    st = channel_stats(c, mu)
    p1 = modular_poisson_mass(mu, d, 1)
    y1 = pseudo_state_yield(c, mu, d, 1, yield_model)
    e_b1 = _bit_error(c, y1)
    f1 = basis_fidelity_bound(_basis_pulse_mu(mu, basis_mu), d, 1)
    delta1 = (1.0 - f1) / (2.0 * y1)
    diag = {"p1": p1, "y1": y1, "e_b1": e_b1, "f1": f1, "delta1": delta1}
    if delta1 > 0.5:
        diag["vacuous"] = "basis dependence too strong for the fidelity bound"
        rate = 0.0
        e_p1 = 1.0
    else:
        e_p1 = phase_error_upper(e_b1, delta1)
        if e_p1 >= 0.5:
            diag["vacuous"] = "phase-error bound >= 1/2"
            rate = 0.0
        else:
            rate = max(
                0.0,
                p1 * y1 * (1.0 - c.f * binary_entropy(e_b1) - binary_entropy(e_p1)),
            )
    diag["e_p1"] = e_p1
    return KeyRateResult(PSP_PASSIVE_DECOY, mu, d, None, st.q_mu, st.e_mu, rate, diag)


def keyrate_psp_triggered(
    c,
    mu,
    d,
    nu,
    eta_trigger_det,
    convention=CONVENTION_PAPER,
    basis_mu="half",
    yield_model="exact",
):
    """Rate with only the interferometric trigger distinguishing residues.

    Triggered gains factorize as Q_t(j) = P_j * eta_t(nu, j) * Y(j_d)
    (source, trigger and channel act independently; recorded as an
    assumption in the diagnostics).  The j=1 triggered gain is bounded from
    the trigger contrast, r = Q_t/Q_nt against r0 = eta_t(0)/eta_nt(0):

        Q_t(1) >= (r - r0) Q_nt,   e_b1 <= r E_t Q_nt / Q_t(1)_bound,

    and the phase error inherits the basis-dependence penalty.  Either bound
    going vacuous zeroes the rate with a diagnostic.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    g = GenerationParams(mu=mu, nu=nu, d=d, eta_det=eta_trigger_det)
    st = channel_stats(c, mu)
    probs = residue_masses(mu, d)
    if yield_model == "exact":  # pseudo_state_yield for every residue at once
        if not probs.all():
            raise DegenerateStateError("a residue of d=%d is degenerate at mu=%.6g" % (d, mu))
        surv = residue_masses(mu * (1.0 - st.eta), d)
        yields = 1.0 - (1.0 - c.y0) * (math.exp(-mu * st.eta) * surv / probs)
    else:
        yields = np.array([pseudo_state_yield(c, mu, d, j, yield_model) for j in range(d)])
    errors = _bit_error(c, yields)
    eta_t = np.array([trigger_probability(g, j, convention) for j in range(d)])
    q_t = probs * eta_t * yields
    q_nt = probs * (1.0 - eta_t) * yields
    q_t_mu = float(q_t.sum())
    q_nt_mu = float(q_nt.sum())
    e_t_mu = float((q_t * errors).sum() / q_t_mu) if q_t_mu > 0 else c.e0
    diag = {
        "q_t_mu": q_t_mu,
        "q_nt_mu": q_nt_mu,
        "e_t_mu": e_t_mu,
        "q_t_j1_exact": float(q_t[1]) if d > 1 else 0.0,
        "factorization": "gain = herald weight * trigger * state yield",
    }
    result = lambda rate: KeyRateResult(  # noqa: E731
        PSP_TRIGGERED, mu, d, nu, q_t_mu, e_t_mu, rate, diag
    )
    if q_t_mu <= 0.0 or q_nt_mu <= 0.0:
        diag["vacuous"] = "triggered or non-triggered gain vanished"
        return result(0.0)
    r = q_t_mu / q_nt_mu
    r0 = eta_t[0] / (1.0 - eta_t[0])
    bound = (r - r0) * q_nt_mu
    diag["r"] = r
    diag["r0"] = r0
    diag["q_t_j1_bound"] = bound
    if bound <= 0.0:
        diag["vacuous"] = "trigger contrast below the j=0 background"
        return result(0.0)
    e_b1_max = r * e_t_mu * q_nt_mu / bound
    diag["e_b1_max"] = e_b1_max
    if e_b1_max >= 0.5:
        diag["vacuous"] = "bit-error bound >= 1/2"
        return result(0.0)
    f1 = basis_fidelity_bound(_basis_pulse_mu(mu, basis_mu), d, 1)
    delta1 = (1.0 - f1) / (2.0 * yields[1])
    diag["f1"] = f1
    diag["delta1"] = delta1
    if delta1 > 0.5:
        diag["vacuous"] = "basis dependence too strong for the fidelity bound"
        return result(0.0)
    e_p1_max = phase_error_upper(e_b1_max, delta1)
    diag["e_p1_max"] = e_p1_max
    if e_p1_max >= 0.5:
        diag["vacuous"] = "phase-error bound >= 1/2"
        return result(0.0)
    rate = max(
        0.0,
        -c.f * q_t_mu * binary_entropy(e_t_mu) + bound * (1.0 - binary_entropy(e_p1_max)),
    )
    return result(rate)


def keyrate_for_protocol(protocol, c, mu, d=None, **kwargs):
    """Dispatch one key-rate evaluation by protocol name.

    Extra keyword arguments go to the matching estimator (nu,
    eta_trigger_det, convention, basis_mu, yield_model as applicable).
    """
    if protocol == WCS_NONDECOY:
        return keyrate_nondecoy(c, mu, d=None)
    if protocol == WCS_DECOY:
        return keyrate_wcs_decoy(c, mu)
    if protocol == PSP_NONDECOY:
        return keyrate_nondecoy(c, mu, d=d)
    if protocol == PSP_PASSIVE_DECOY:
        return keyrate_psp_passive(c, mu, d, **kwargs)
    if protocol == PSP_TRIGGERED:
        return keyrate_psp_triggered(c, mu, d, **kwargs)
    raise ValueError("unknown protocol %r" % (protocol,))


def optimize_mu(c, d, protocol, mu_grid, **kwargs):
    """Grid-search the source intensity; deterministic, ties go to smaller mu.

    Extra keyword arguments are forwarded to the estimator (nu,
    eta_trigger_det, convention, basis_mu, yield_model as applicable).
    Returns (mu_star, KeyRateResult at mu_star).
    """
    grid = sorted(float(m) for m in mu_grid)
    if not grid:
        raise ValueError("mu_grid must be nonempty")
    best = None
    for m in grid:
        res = keyrate_for_protocol(protocol, c, m, d, **kwargs)
        if best is None or res.rate > best.rate:
            best = res
    return best.mu, best
