"""Exception taxonomy shared across the package."""


class StarprodError(Exception):
    """Base class for engine errors."""


class CutoffExceededError(StarprodError):
    """A bracket or basis request left the algebra's degree window."""


class SingularCharacterError(StarprodError):
    """The character pairing (or a Shapovalov matrix) is degenerate."""


class SpecError(StarprodError):
    """An algebra spec or CLI request could not be interpreted."""


class PoleAtInfinityError(StarprodError):
    """A rational function expected to be regular at infinity has a pole there."""


class CertificateError(StarprodError, ArithmeticError):
    """An exact certificate of a computed result failed: the result is wrong."""
