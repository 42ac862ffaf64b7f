"""Exception hierarchy shared by the whole package, and its one number and overflow rules.

Each concrete class carries, as ``exit_code``, the process exit code that
the CLI returns for it: FormatError 2, ValidationError 3, NumericError 4.

Every scalar the Python API takes passes :func:`integer` (an integral number)
or :func:`real` (a finite real number), numpy ones included but no bool or
string, or :func:`boolean` (a bool, numpy's included), and the caller keeps
the int, float or bool returned. Every entry of a float array it takes passes
:func:`number` (a real number, NaN and ±inf included) through
``geometry.floats``, and every frame index, alone or in a sequence,
:func:`integer` through ``trajectory._frame``. Finite input whose arithmetic
overflows raises :class:`ValidationError` through :func:`finite_result`.
"""

import functools
import math
import numbers

import numpy as np


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


def integer(value, what: str, low=None) -> int:
    """``value`` as an int, if it is an integral number, no bool, and at least
    ``low``; else :class:`ValidationError`, whose message names it ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or (low is not None and value < low):
        raise ValidationError(f"{what} must be an integer{'' if low is None else f' >= {low}'}, got {value!r}")
    return int(value)


def number(value, what: str) -> float:
    """``value`` as a float, if it is a real number and no bool (NaN and ±inf
    included); else :class:`ValidationError`, whose message names it ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int or a fraction beyond the float range
        return math.inf if value > 0 else -math.inf


def real(value, what: str, above=None) -> float:
    """:func:`number` of ``value``, if it is finite and above ``above``; else
    :class:`ValidationError`, whose message names it ``what``."""
    x = number(value, what)
    if not (math.isfinite(x) and (above is None or x > above)):
        raise ValidationError(f"{what} must be a finite number{'' if above is None else f' > {above}'}, got {value!r}")
    return x


def boolean(value, what: str) -> bool:
    """``value`` as a bool, if it is a bool or a numpy bool; else
    :class:`ValidationError`, whose message names it ``what``."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{what} must be a boolean, got {value!r}")
    return bool(value)


def finite_result(what: str):
    """Decorator: run quiet under numpy's overflow and invalid warnings; a returned
    ndarray holding NaN or ±inf raises ValidationError naming it ``what``."""
    def wrap(fn):
        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            with np.errstate(over="ignore", invalid="ignore"):
                result = fn(*args, **kwargs)
            if isinstance(result, np.ndarray) and not np.isfinite(result).all():
                raise ValidationError(f"{what}: the arithmetic overflows the float range")
            return result
        return guarded
    return wrap
