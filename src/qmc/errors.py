"""Exception types shared across the package."""


class QmcError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(QmcError):
    pass


class InvalidDensityMatrix(QmcError):
    pass


class IndexCollision(QmcError):
    pass


class RankLimitExceeded(QmcError):
    pass


class MalformedNetwork(QmcError):
    pass


class UnknownGate(QmcError):
    pass


class BadParameter(QmcError):
    pass


class MalformedCircuit(QmcError):
    pass


class RepeatedQubit(MalformedCircuit):
    pass


class TargetOutOfRange(MalformedCircuit):
    pass


class UnknownLocation(QmcError):
    pass


class UnboundAtom(QmcError):
    pass


class NoTraceAvailable(QmcError):
    pass


class ParseError(QmcError):
    """Syntax or semantic error in a model/assertion file, with position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class NormalisationViolation(DimensionMismatch):
    """A Kraus set, or a location's outgoing operators, do not sum to a
    trace-preserving map (or, for a trace-reducing set, exceed it).

    Carries the defect norm ``max |sum E'E - I|``, plus the offending
    location and the source position when those are known.
    """

    def __init__(self, message: str, location=None, defect=None,
                 line=None, column=None):
        pos = f"{line}:{column}: " if line is not None else ""
        super().__init__(f"{pos}{message}")
        self.location = location
        self.defect = defect
        self.line = line
        self.column = column
