"""Key and type checks for the JSON loaders.

:func:`fields` reads the keys a loader needs from a parsed JSON object, or
raises :class:`ParameterError` naming the one that is missing or of the wrong
type.
"""

from __future__ import annotations

from .errors import ParameterError

_KINDS = {dict: "a JSON object", list: "a list", int: "an integer"}


def fields(data, what: str, **kinds: type) -> list:
    """``data[key]`` for each ``key=kind``, in order; :class:`ParameterError`
    if ``data``, which ``what`` names, is not a JSON object, lacks one of the
    keys, or holds a value not of its kind: ``dict``, ``list`` or ``int``
    (``bool`` is not an ``int`` here)."""
    if not isinstance(data, dict):
        raise ParameterError(f"{what} must be a JSON object, got {type(data).__name__}")
    for key, kind in kinds.items():
        if key not in data:
            raise ParameterError(f"{what} has no {key!r} key")
        if not isinstance(data[key], kind) or isinstance(data[key], bool):
            raise ParameterError(f"{what}'s {key!r} must be {_KINDS[kind]}, got {data[key]!r}")
    return [data[key] for key in kinds]
