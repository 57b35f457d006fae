"""The text of ``json.dumps(value, indent=2)``, built without its slow path.

With ``indent`` set, :func:`json.dumps` always takes the json module's
pure-Python encoder. :func:`dumps` writes the same text: lists, tuples and
dicts with string keys by ``join``, strings through the C string encoder,
ints by ``int.__repr__``, ``true``, ``false`` and ``null`` as literals, and
any other value, subclasses of those types included, by :func:`json.dumps`
itself, indented to its depth. :func:`fields` reads the keys a loader needs
from a parsed JSON object, or raises :class:`ParameterError` naming the one
that is missing or of the wrong type.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .errors import ParameterError

# the scalars written without json.dumps, by their exact type
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def dumps(value, sort_keys: bool = False) -> str:
    """``json.dumps(value, indent=2, sort_keys=sort_keys)``."""
    return _text(value, "\n", sort_keys)


def _text(value, newline: str, sort_keys: bool) -> str:
    """``value`` as it reads at the depth whose lines start ``newline``."""
    kind = type(value)
    if kind in _SCALARS:
        return _SCALARS[kind](value)
    inner = newline + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        # a list of one scalar type, such as hex rows or colors, in one map
        if len(kinds) == 1 and kinds <= _SCALARS.keys():
            parts = map(_SCALARS[kinds.pop()], value)
        else:
            parts = (_text(v, inner, sort_keys) for v in value)
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    if kind is dict and set(map(type, value)) <= {str}:
        if not value:
            return "{}"
        items = sorted(value.items()) if sort_keys else value.items()
        body = ("," + inner).join(
            encode_basestring_ascii(k) + ": " + _text(v, inner, sort_keys) for k, v in items
        )
        return "{" + inner + body + newline + "}"
    # a nested value is the top-level text with every line moved in to its depth
    return json.dumps(value, indent=2, sort_keys=sort_keys).replace("\n", newline)


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
