"""Exception types shared across the package."""

from __future__ import annotations


class StructuralInputError(ValueError):
    """An argument violates a structural precondition (bad vertex id,
    odd point count, and so on)."""


class NoJoinError(ValueError):
    """The terminal set has odd size in some component, so no join exists."""


class NotMinimumJoinError(ValueError):
    """An edge set claimed to be a minimum join is not one."""


class OracleScaleError(ValueError):
    """An exhaustive oracle was asked to run beyond its size guard."""


class TheoremViolationError(RuntimeError):
    """An internal structural guarantee failed; indicates a bug upstream
    (for example a non-minimum join fed into the decomposition)."""


class InternalError(RuntimeError):
    """A pipeline self-check failed (for example a broken head set)."""


class ParseError(ValueError):
    """A graft file is malformed.  Carries the offending line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
