"""Numerical laboratory for pseudo-single-photon states built from weak coherent light."""

from .errors import DegenerateStateError, NumericalDiagnosticError, TruncationError
from .generation import (
    CONVENTION_PAPER,
    CONVENTION_RECOMPUTED,
    GenerationParams,
    trigger_probability,
)
from .metrics import (
    f2002,
    g2_zero_closed,
    p11,
)
from .pns import (
    PSPParams,
    fidelity_to_number_state,
    loss_channel,
    normalization,
    photon_number_probability,
    residue_masses,
)
from .qkd import (
    PHASE_SET_PAPER_LITERAL,
    PHASE_SET_STANDARD,
    PARAMETERS,
    PROTOCOLS,
    PSP_NONDECOY,
    PSP_PASSIVE_DECOY,
    PSP_TRIGGERED,
    WCS_DECOY,
    WCS_NONDECOY,
    ChannelParams,
    ChannelStats,
    KeyRateCurve,
    KeyRateResult,
    basis_fidelity_bound,
    binary_entropy,
    channel_stats,
    keyrate_curve,
    measure_bb84,
    phase_error_upper,
    phase_set,
    pseudo_state_yield,
    transmission,
)

__version__ = "0.1.0"
