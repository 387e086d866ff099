"""Exception types shared across the package."""


class HomSuperError(Exception):
    """Base class for all library errors."""


class FormatError(HomSuperError):
    """Malformed input file, scalar string, or serialized object."""


class PreconditionError(HomSuperError):
    """An operation was called on inputs violating its contract."""


class SearchInconclusive(HomSuperError):
    """Isomorphism search ended without a definitive answer.

    Raised when the candidate budget ran out, or when the search space
    over the rationals was exhausted without covering all linear maps.
    Distinct from a definitive "no isomorphism exists" result.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason
