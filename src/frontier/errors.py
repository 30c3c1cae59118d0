"""Exception types shared across the package.

The CLI maps these onto exit codes: input/configuration problems
(:class:`GraphFormatError`, :class:`ConfigError`, :class:`BudgetError`)
exit 2, domain errors on valid inputs (:class:`UndefinedEstimateError`,
:class:`StationarityError`) exit 3.
"""

from __future__ import annotations

__all__ = [
    "GraphFormatError",
    "ConfigError",
    "BudgetError",
    "UndefinedEstimateError",
    "StationarityError",
]

# the most characters of a refused value's repr that a message quotes: any trace
# record the package writes (six fields of at most 24 characters) fits whole
_QUOTE_CHARS = 160


def _quoted(value) -> str:
    """``repr(value)``, cut after ``_QUOTE_CHARS`` characters with its whole length
    noted, so that a message quoting refused input stays one short line."""
    text = repr(value)
    if len(text) <= _QUOTE_CHARS:
        return text
    return f"{text[:_QUOTE_CHARS]}... ({len(text)} characters)"


class GraphFormatError(ValueError):
    """Malformed edge-list / label input; carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


class ConfigError(ValueError):
    """Invalid experiment or CLI configuration."""


class BudgetError(ValueError):
    """Sampling budget too small for the requested method."""


class UndefinedEstimateError(ValueError):
    """A characteristic is undefined on this input (for example zero variance).

    Carries a short machine-readable ``code``.
    """

    def __init__(self, message: str, code: str = "undefined_estimate"):
        super().__init__(message)
        self.code = code


class StationarityError(ValueError):
    """Stationary quantities requested on a disconnected or bipartite graph."""
