"""Exception types shared across the package."""


class SpecPolyError(Exception):
    """Base class for every error raised by specpoly."""


# --- polynomial construction / root finding ---

class EmptyTuple(SpecPolyError):
    pass


class NonFinite(SpecPolyError):
    pass


class DegreeZero(SpecPolyError):
    pass


class DegreeTooSmall(SpecPolyError):
    pass


class NonPositiveEps(SpecPolyError):
    pass


class NotRealRooted(SpecPolyError):
    """A bracket failed to contain a sign change beyond roundoff tolerance.

    Raised when the caller fed a polynomial that is (numerically) not
    real-rooted; never a statement about the theory.
    """


# --- majorization / witnesses ---

class LengthMismatch(SpecPolyError):
    pass


class ModeMismatch(SpecPolyError):
    pass


class NotMajorized(SpecPolyError):
    pass


class FloatModeUnsupported(SpecPolyError):
    pass


class DomainViolation(SpecPolyError):
    pass


# --- contractions ---

class InvalidIndices(SpecPolyError):
    pass


class EqualRoots(SpecPolyError):
    pass


class CoefficientTooLarge(SpecPolyError):
    pass


class DegreeMismatch(SpecPolyError):
    pass


class PreconditionViolated(SpecPolyError):
    pass


class SigmaTooLarge(SpecPolyError):
    pass


class NotStrict(SpecPolyError):
    pass


class NotDistinct(SpecPolyError):
    pass


class ChainTooLong(SpecPolyError):
    pass


# --- operators ---

class ZeroTopTerm(SpecPolyError):
    pass


# --- harness / CLI ---

class UnknownSuite(SpecPolyError):
    pass


class InfeasibleGap(SpecPolyError):
    pass


class ConfigError(SpecPolyError):
    pass
