"""Exception types shared across the package."""


class AvecError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(AvecError, ValueError):
    """An argument is malformed or out of its documented domain."""


class InvalidVertex(InvalidArgument):
    """A vertex index is outside 0..n-1."""


class InvalidEdge(InvalidArgument):
    """An edge is degenerate or not present in the graph."""


class NotAscii(InvalidArgument):
    """A graph file contains a byte outside 7-bit ASCII."""


class DisconnectedGraph(AvecError, ValueError):
    """The operation needs a connected graph."""


class InvalidWeights(InvalidArgument):
    """A weight vector is negative, non-rational, or sums to zero."""


class NotPrimePower(AvecError, ValueError):
    """The requested field order is not a prime power."""


class InvalidChainSpec(InvalidArgument):
    """A chain description violates its validity rules."""


class OutOfRange(InvalidArgument):
    """A numeric parameter violates a hypothesis (e.g. delta < 3)."""


class MissingParameter(InvalidArgument):
    """A required parameter was not supplied."""


class NotApplicable(AvecError, ValueError):
    """The graph satisfies none of the hypotheses the operation needs."""


class NotGirthSix(AvecError, ValueError):
    """The graph contains a cycle of length 3, 4, or 5."""


class ConstructionInvariantViolated(AvecError, RuntimeError):
    """A replayed construction failed one of its own invariants.

    Carries a diagnostic message naming the object and the vertices
    or edges involved; raised instead of silently producing a bad
    certificate.
    """


class LemmaBoundViolated(AvecError, RuntimeError):
    """A weight fell below the closed-form lower bound it must satisfy."""
