"""Exception hierarchy shared by the whole package.

Each concrete class carries, as ``exit_code``, the process exit code that
the CLI returns for it: FormatError 2, ValidationError 3, NumericError 4.
"""


class EndogeoError(Exception):
    """Base class for all package errors."""


class FormatError(EndogeoError):
    """Malformed input data (trajectory text, raster headers, JSON schema).

    Carries the offending location when known so messages can point at the
    exact line of a text file.
    """
    exit_code = 2

    def __init__(self, message: str, *, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix += str(path)
        if line is not None:
            prefix += f":{line}"
        if prefix:
            message = f"{prefix}: {message}"
        super().__init__(message)


class ValidationError(EndogeoError):
    """Inputs are well-formed but violate a precondition or invariant."""
    exit_code = 3


class NumericError(EndogeoError):
    """A computation produced numerically unacceptable results."""
    exit_code = 4
