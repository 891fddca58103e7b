"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: config errors exit 2, data errors
exit 3, backend errors exit 4.
"""


class RagplanError(Exception):
    """Base class for all package errors."""


class ConfigError(RagplanError):
    """Invalid configuration: bad dimensions, unknown template, bad flags."""


class DataError(RagplanError):
    """Invalid or inconsistent input data."""


class NotFoundError(DataError):
    """A required item is absent (empty graph, empty candidate list)."""


class MalformedFileError(DataError):
    """A persisted artifact could not be parsed."""


class VersionMismatchError(DataError):
    """A persisted artifact carries an unsupported format version."""


class SpecError(DataError):
    """A synthetic world spec is infeasible."""


class BackendError(RagplanError):
    """Planner backend failure."""


class AuthError(BackendError):
    """Missing or rejected credentials."""


class BackendTimeoutError(BackendError):
    """The backend did not answer within the configured budget."""


class MalformedResponseError(BackendError):
    """The backend answered with an unparseable payload."""
