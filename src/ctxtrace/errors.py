"""Exception hierarchy and the CLI exit-code mapping.

Exit codes: 0 success, 1 usage error, 2 backend failure, 3 validation
failure.  Every toolkit exception carries the exit code its command
should return.
"""
from __future__ import annotations

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BACKEND = 2
EXIT_VALIDATION = 3


class CtxTraceError(Exception):
    """Base class for all toolkit errors."""

    exit_code = EXIT_VALIDATION


class BackendError(CtxTraceError):
    """A reader, generator, or retriever backend failed."""

    exit_code = EXIT_BACKEND


class BackendUnavailableError(BackendError):
    """Transport kept failing after every allowed attempt."""


class BackendRejectedError(BackendError):
    """The backend answered with a non-retryable error."""


class EmptyResponseError(BackendError):
    """The backend produced an empty completion."""


class ScriptMissError(BackendError):
    """No script entry matches the requested call; the fixture has a gap."""


class NoHitError(BackendError):
    """The retriever produced no passage for a question."""


class ValidationError(CtxTraceError):
    """An input file or derived value violates a documented contract."""


class SchemaError(ValidationError):
    """A file does not parse against its documented schema."""

    def __init__(self, path: object, line_no: int, message: str) -> None:
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no
        self.message = message


class UndefinedMetricError(ValidationError):
    """A metric denominator is zero or a record set is empty."""


class MissingScoreError(ValidationError):
    """A required external similarity score was never ingested."""
