"""Exception types shared across the package, and the residue tolerances behind them."""

# Residue tolerances: values that must be real / probabilities that must
# land in [0, 1] may miss by this much before it is an error.
REAL_RESIDUE_TOL = 1e-10
UNIT_RESIDUE_TOL = 1e-12


class DegenerateStateError(ValueError):
    """Requested state has zero norm (e.g. a nonzero phase index at mu = 0)."""


class TruncationError(RuntimeError):
    """A photon-number cutoff is too small for the requested tolerance."""


class NumericalDiagnosticError(RuntimeError):
    """A quantity that should be real/bounded exceeded its residue tolerance."""


def _clamp_unit(x, name):
    """x clamped to [0, 1]; a miss by more than UNIT_RESIDUE_TOL, or NaN, is a
    NumericalDiagnosticError."""
    if not -UNIT_RESIDUE_TOL <= x <= 1.0 + UNIT_RESIDUE_TOL:  # NaN fails both tests
        raise NumericalDiagnosticError("%s = %.6e falls outside [0, 1]" % (name, x))
    return min(max(x, 0.0), 1.0)
