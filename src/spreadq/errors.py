"""Exception types shared across the package.

Two broad families matter to callers (and to the command line interface,
which maps them to exit codes): configuration/domain problems with the
*inputs* (``DomainError`` and subclasses), and numerical failures that occur
while *computing* (``NumericalError`` and subclasses).
"""


class DomainError(ValueError):
    """An input violates a documented precondition."""


class FloatRangeError(DomainError):
    """Inputs put a result outside the range of normal floats."""


class NumericalError(RuntimeError):
    """A computation failed for numerical rather than configuration reasons."""


class PositivityError(NumericalError):
    """A Hankel positivity violation: some b_n^2 came out negative.

    ``depth`` records the level n at which the violation occurred.
    """

    def __init__(self, message: str, depth: int):
        super().__init__(message)
        self.depth = depth


class PrecisionError(NumericalError):
    """Working precision could not be escalated far enough to converge."""


class LapackError(NumericalError):
    """A LAPACK routine reported failure (nonzero ``info``)."""


class AssemblyError(NumericalError):
    """Building a Hamiltonian or a state broke an internal invariant."""


class FitError(NumericalError):
    """A fit could not be performed on the supplied data."""


class WindowError(FitError):
    """A fit or detection window is empty, too short, or out of range."""


class NotPowerLawError(FitError):
    """The curvature test rejected a power-law hypothesis."""


class EnsembleMemberError(NumericalError):
    """One member of an ensemble failed; ``stream`` identifies it."""

    def __init__(self, message: str, stream: int):
        super().__init__(message)
        self.stream = stream
