"""Exception types shared across the package, and the integer check that
raises one."""

from numbers import Integral


class MaccLabError(Exception):
    """Base class for all package errors."""


class ParameterError(MaccLabError, ValueError):
    """A parameter is outside its documented domain."""


class VerificationError(MaccLabError, RuntimeError):
    """A constructed scheme failed its decodability check."""


class SizeCapError(MaccLabError, RuntimeError):
    """An exact-search oracle was asked to exceed its size cap, or a plan's
    exact verification would exceed its work budget."""


def as_int(value, what: str) -> int:
    """``value`` as a Python int if it is an integer, numpy ones included and
    ``bool`` not; :class:`ParameterError` naming ``what`` otherwise."""
    if type(value) is int:  # the common case, ahead of the slower ABC check
        return value
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    raise ParameterError(f"{what} must be an integer, got {value!r}")
