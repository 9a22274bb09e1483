"""Shared exception types, and the process exit codes that key off them."""

EXIT_OK = 0
EXIT_USAGE = 1    # ConfigError: bad flag, config value or usage
EXIT_DATA = 2     # DataFormatError: input that cannot be read or parsed
EXIT_RUNTIME = 3  # ProtocolError, lost connections and other runtime failures


class DeskbenchError(Exception):
    """Base class for all errors raised by this package."""


class DataFormatError(DeskbenchError):
    """Malformed input data: bad lines, missing columns, wrong label alphabet."""


class ConfigError(DeskbenchError):
    """Invalid configuration or usage of an operation."""


class ProtocolError(DeskbenchError):
    """Wire-protocol violation: bad frame, oversize payload, unknown type."""
