"""Exception types shared across the package.

Plain ``ValueError`` is used for bad arguments (wrong shapes, out-of-range
parameters).  The classes here mark *numerical* failures: a computation that
was set up correctly but whose preconditions on the data do not hold.
"""


class NumericalError(Exception):
    """Base class for numerical precondition / consistency failures."""


class CapacityError(NumericalError):
    """A configured cap (Fock cutoff, grid memory) would be exceeded."""


class CutoffError(NumericalError):
    """Fock truncation too small: leakage or norm loss above tolerance."""


class TruncationRiskError(NumericalError):
    """Field does not decay at the grid boundary; result would be aliased."""

    def __init__(self, message, magnitude=None):
        super().__init__(message)
        self.magnitude = magnitude


class NormalizationError(NumericalError):
    """Trace or phase-space mass deviates beyond tolerance."""


class ConsistencyError(NumericalError):
    """Two routes that must agree disagree (imaginary residue, engines)."""
