"""Exception types shared across the package."""


class HeckeError(Exception):
    """Base class for all package-specific errors."""


class BackendMismatchError(HeckeError):
    """Raised when elements of different groups are combined: two element
    classes, two matrix sizes, or two semidirect actions or ranks."""


class BudgetExceededError(HeckeError):
    """An enumeration (orbit closure, word ball) exceeded its node budget.

    `partial_size` records how many nodes were found before giving up, so a
    caller can distinguish "barely over" from "clearly divergent".
    """

    def __init__(self, message, partial_size=None):
        super().__init__(message)
        self.partial_size = partial_size


class UnsupportedLengthError(HeckeError):
    """The requested operation needs a (locally finite) length this pair lacks."""


class ModeMismatchError(HeckeError):
    """Exact and float coefficient modes were mixed in one operation."""


class ConvolutionAuditError(HeckeError):
    """Exact convolution produced a value that is not constant on a double coset.

    This can only happen through a canonicalizer or decomposition bug, so it is
    a hard error rather than a warning.
    """


class PairSanityError(HeckeError):
    """A pair's canonicalizers failed their build-time sanity sample."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InfiniteSubgroupError(HeckeError):
    """An operation that requires finite H was called on a pair with infinite H."""


class ConfigError(HeckeError):
    """Invalid CLI configuration; maps to exit code 2."""
