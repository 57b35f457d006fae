"""Exception types shared across the package."""


class MaccLabError(Exception):
    """Base class for all package errors."""


class ParameterError(MaccLabError, ValueError):
    """A parameter is outside its documented domain."""


class VerificationError(MaccLabError, RuntimeError):
    """A constructed scheme failed its decodability check."""


class SizeCapError(MaccLabError, RuntimeError):
    """An exact-search oracle was asked to exceed its size cap, or a plan's
    exact verification would exceed its work budget."""
