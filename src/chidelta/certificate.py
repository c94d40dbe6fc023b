"""The three certificate types and their one format: kind, JSON and text.

Each type writes one integer array under one field name; `_FORMATS` is the
only place that pairs a type with its kind and field, and every writer reads
it through `_format`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class CliqueWitness:
    """A clique whose size equals the maximum degree of the host graph."""

    vertices: frozenset[int]


@dataclass(frozen=True)
class HighOddHoleWitness:
    """A chordless odd cycle (length >= 5) whose vertices all have degree >= max degree - 1."""

    cycle: tuple[int, ...]


@dataclass(frozen=True)
class ExceptionalC7Complement:
    """Identification of the complement of the 7-cycle.

    positions[v] is the place of vertex v along the complement-defining
    7-cycle; adjacency in the host graph holds iff the cyclic position
    distance is 2 or 3.
    """

    positions: tuple[int, ...]


Certificate = Union[CliqueWitness, HighOddHoleWitness, ExceptionalC7Complement]


class SerializationError(ValueError):
    """Malformed certificate text, or an object that is not a certificate."""


# certificate type -> (kind, field); a clique's vertex set is written sorted
_FORMATS: dict[type, tuple[str, str]] = {
    CliqueWitness: ("clique", "vertices"),
    HighOddHoleWitness: ("high_odd_hole", "cycle"),
    ExceptionalC7Complement: ("c7_complement", "positions"),
}


def _format(cert: Certificate) -> tuple[str, str, list[int]]:
    if type(cert) not in _FORMATS:
        raise SerializationError(f"unknown certificate type {type(cert).__name__}")
    kind, key = _FORMATS[type(cert)]
    value = getattr(cert, key)
    return kind, key, sorted(value) if isinstance(value, frozenset) else list(value)


def certificate_kind(cert: Certificate) -> str:
    return _format(cert)[0]


def serialize_certificate(cert: Certificate) -> str:
    kind, key, items = _format(cert)
    return json.dumps({"kind": kind, key: items})


def certificate_text(cert: Certificate) -> str:
    kind, key, items = _format(cert)
    text = f"kind: {kind}\n{key}: " + " ".join(map(str, items))
    if kind == "c7_complement":
        text += "\nnote: unique exceptional graph (complement of the 7-cycle)"
    return text


def deserialize_certificate(text: str) -> Certificate:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SerializationError("certificate must be a JSON object")
    kind = obj.get("kind")
    for cls, (name, key) in _FORMATS.items():
        if kind == name:
            values = obj.get(key)
            if not isinstance(values, list) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in values
            ):
                raise SerializationError(f"field {key!r} must be an array of integers")
            return cls(frozenset(values) if cls is CliqueWitness else tuple(values))
    raise SerializationError(f"unknown certificate kind {kind!r}")
