"""Exception taxonomy shared across the package; each error names its exit code."""


class StarprodError(Exception):
    """Base class for engine errors."""


class CutoffExceededError(StarprodError):
    """A bracket or basis request left the algebra's degree window."""

    exit_code = 4


class SingularCharacterError(StarprodError):
    """The character pairing (or a Shapovalov matrix) is degenerate."""

    exit_code = 3


class SpecError(StarprodError):
    """An algebra spec or CLI request could not be interpreted."""

    exit_code = 5


class PoleAtInfinityError(StarprodError):
    """A rational function expected to be regular at infinity has a pole there."""

    exit_code = 4


class CertificateError(StarprodError, ArithmeticError):
    """An exact certificate of a computed result failed: the result is wrong."""

    exit_code = 2
