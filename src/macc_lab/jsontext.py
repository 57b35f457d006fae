"""JSON text pieces for the writers, and key and type checks for the loaders.

:func:`json_list` writes a list as ``json.dumps(indent=2)`` does at depth 1.
:func:`fields` reads the keys a loader needs from a parsed JSON object, or
raises :class:`ParameterError` naming the one that is missing or of the wrong
type.
"""

from __future__ import annotations

from .errors import ParameterError


def json_list(items) -> str:
    """A list of JSON texts as ``json.dumps(indent=2)`` writes it at depth 1."""
    text = ",\n    ".join(items)
    return f"[\n    {text}\n  ]" if text else "[]"


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
