"""Exception types shared across the package."""

__all__ = [
    "ProcfairError",
    "PopulationParseError",
    "UnknownIdError",
    "MissingCriterionError",
    "AmbiguousRateError",
    "MissingRateError",
    "SizeLimitError",
    "ProcedureSpecError",
]


class ProcfairError(Exception):
    """Base class for every error raised by this package."""


class PopulationParseError(ProcfairError):
    """Malformed population CSV input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnknownIdError(ProcfairError):
    """A group spec references an id absent from the population."""


class MissingCriterionError(ProcfairError):
    """A deterministic operation met an individual without a criterion label."""


class AmbiguousRateError(ProcfairError):
    """A group spans rate groups configured with different rate pairs."""


class MissingRateError(ProcfairError):
    """No configured rate applies to an individual."""


class SizeLimitError(ProcfairError):
    """Population too large for exhaustive bipartition enumeration."""


class ProcedureSpecError(ProcfairError):
    """Malformed procedure description file."""
