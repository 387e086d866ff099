"""Exception types shared across the package."""


class HomSuperError(Exception):
    """Base class for all library errors."""


class FormatError(HomSuperError):
    """Malformed input file, scalar string, or serialized object."""


class PreconditionError(HomSuperError):
    """An operation was called on inputs violating its contract."""


class SearchInconclusive(HomSuperError):
    """Isomorphism search ended without a definitive answer.

    Raised when the search budget ran out, or when the search space over
    the rationals was exhausted without covering all linear maps.
    Distinct from a definitive "no isomorphism exists" result.  `reason`
    is a fixed tag ("budget", "restricted-search-exhausted"); the message
    may add details, such as the limit that was hit.
    """

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
