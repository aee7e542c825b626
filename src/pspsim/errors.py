"""Exception types shared across the package, the residue tolerances behind them, and
the one input policy: what a real number and a residue index must be."""

import numpy as np

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
    """x, a number or an array, clamped to [0, 1]: a float for a number.  An entry that
    misses by more than UNIT_RESIDUE_TOL, or NaN, is a NumericalDiagnosticError naming
    the first such entry."""
    values = np.asarray(x, dtype=float)
    failed = ~((values >= -UNIT_RESIDUE_TOL) & (values <= 1.0 + UNIT_RESIDUE_TOL))  # NaN fails
    if failed.any():
        raise NumericalDiagnosticError("%s = %.6e falls outside [0, 1]"
                                       % (name, values[failed][0]))
    clamped = np.minimum(np.maximum(values, 0.0), 1.0)
    return clamped if clamped.ndim else float(clamped)


def _real(x, name):
    """x, a number or an array of any shape, as a float array.  A bool in it is a
    ValueError (numpy would read True as 1.0), and so is a non-finite entry."""
    raw = x if isinstance(x, np.ndarray) else np.asarray(x, dtype=object)
    if raw.dtype.kind == "b" or raw.dtype.kind == "O" and any(
            isinstance(v, (bool, np.bool_)) for v in raw.ravel().tolist()):
        raise ValueError("%s must be a number, not a bool" % name)
    values = np.asarray(x, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("%s must be finite" % name)
    return values


def _index(j, d, name):
    """j, one integer or an integer array, as an int array with every entry in [0, d);
    anything else, a bool or a float included, is a ValueError.  An empty list
    (a float array to numpy) holds no entry, and reads as an empty int array."""
    js = np.asarray(j)
    integers = js.dtype.kind in "iu" or js.size == 0
    if not (integers and all(0 <= v < d for v in js.ravel().tolist())):
        raise ValueError("%s must be %s in [0, %s)"
                         % (name, "integers" if js.ndim else "an integer", d))
    return js.astype(int)
