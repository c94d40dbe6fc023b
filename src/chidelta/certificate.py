"""The three certificate types, their one format and their validity.

Each type writes one integer array under one field name and is checked from
first principles by one function; `_FORMATS` is the only place that pairs a
type with its kind, field and check.  Every writer reads it through
`_format`, and `verify_certificate` dispatches through it.
`verify_certificate` is the ground truth both routes are judged by:
`find_witness` calls it once on its own result, and the sweep and the CLI
call it on every oracle certificate.
"""

from __future__ import annotations

import json
from collections.abc import Callable

from .graph import Graph, max_degree


class _Value:
    """An immutable value: its fields are its `__slots__`, set once by `__init__`.

    Two values are equal exactly when they have one type and equal fields;
    the hash, the repr, copies and pickles follow the fields.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class CliqueWitness(_Value):
    """A clique whose size equals the maximum degree of the host graph."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: frozenset[int]):
        object.__setattr__(self, "vertices", vertices)


class HighOddHoleWitness(_Value):
    """A chordless odd cycle (length >= 5) whose vertices all have degree >= max degree - 1."""

    __slots__ = ("cycle",)

    def __init__(self, cycle: tuple[int, ...]):
        object.__setattr__(self, "cycle", cycle)


class ExceptionalC7Complement(_Value):
    """Identification of the complement of the 7-cycle.

    positions[v] is the place of vertex v along the complement-defining
    7-cycle; adjacency in the host graph holds iff the cyclic position
    distance is 2 or 3.
    """

    __slots__ = ("positions",)

    def __init__(self, positions: tuple[int, ...]):
        object.__setattr__(self, "positions", positions)


Certificate = CliqueWitness | HighOddHoleWitness | ExceptionalC7Complement


class SerializationError(ValueError):
    """Malformed certificate text, or an object that is not a certificate."""


class Verdict(_Value):
    """Accept, or reject with the first violated condition; true when it accepts."""

    __slots__ = ("ok", "reason")

    def __init__(self, ok: bool, reason: str | None = None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "reason", reason)

    def __bool__(self) -> bool:
        return self.ok


_ACCEPT = Verdict(True)


def _verify_clique(g: Graph, cert: CliqueWitness) -> Verdict:
    verts = sorted(cert.vertices)
    if any(not 0 <= v < g.n for v in verts):
        return Verdict(False, "vertex out of range")
    if g.n == 0:
        return Verdict(False, "empty graph has no maximum degree")
    want = max_degree(g)
    if len(verts) != want:
        return Verdict(False, f"clique size {len(verts)} != max degree {want}")
    for i, u in enumerate(verts):
        for w in verts[i + 1:]:
            if not g.has_edge(u, w):
                return Verdict(False, f"adjacency violated: {u} !~ {w}")
    return _ACCEPT


def _verify_hole(g: Graph, cert: HighOddHoleWitness) -> Verdict:
    cycle = cert.cycle
    if any(not 0 <= v < g.n for v in cycle):
        return Verdict(False, "vertex out of range")
    if len(cycle) < 5:
        return Verdict(False, f"cycle length {len(cycle)} below 5")
    if len(set(cycle)) != len(cycle):
        return Verdict(False, "repeated vertex in cycle")
    k = len(cycle)
    for i in range(k):
        u, w = cycle[i], cycle[(i + 1) % k]
        if not g.has_edge(u, w):
            return Verdict(False, f"adjacency violated: {u} !~ {w}")
    for i in range(k):
        for j in range(i + 2, k):
            if i == 0 and j == k - 1:
                continue
            if g.has_edge(cycle[i], cycle[j]):
                return Verdict(False, f"chord present: {cycle[i]} ~ {cycle[j]}")
    if k % 2 == 0:
        return Verdict(False, "cycle length is even")
    floor = max_degree(g) - 1
    for v in cycle:
        if g.degree(v) < floor:
            return Verdict(False, f"degree below floor at {v}")
    return _ACCEPT


def _verify_c7(g: Graph, cert: ExceptionalC7Complement) -> Verdict:
    positions = cert.positions
    if g.n != 7:
        return Verdict(False, f"graph order {g.n} is not 7")
    if len(positions) != 7 or sorted(positions) != list(range(7)):
        return Verdict(False, "position map is not a bijection onto 0..6")
    for u in range(7):
        for w in range(u + 1, 7):
            d = abs(positions[u] - positions[w])
            d = min(d, 7 - d)
            if d in (2, 3):
                if not g.has_edge(u, w):
                    return Verdict(False, f"adjacency violated: {u} !~ {w}")
            elif g.has_edge(u, w):
                return Verdict(False, f"chord present: {u} ~ {w}")
    return _ACCEPT


# certificate type -> (kind, field, check); a clique's vertex set is written sorted
_FORMATS: dict[type, tuple[str, str, Callable[[Graph, Certificate], Verdict]]] = {
    CliqueWitness: ("clique", "vertices", _verify_clique),
    HighOddHoleWitness: ("high_odd_hole", "cycle", _verify_hole),
    ExceptionalC7Complement: ("c7_complement", "positions", _verify_c7),
}


def verify_certificate(g: Graph, cert: Certificate) -> Verdict:
    """Accept iff the certificate's defining conditions hold in g.

    Rejection reports the first violated condition, checked in the order:
    size, adjacency, chord, parity, degree floor.
    """
    if type(cert) not in _FORMATS:
        return Verdict(False, f"unknown certificate type {type(cert).__name__}")
    return _FORMATS[type(cert)][2](g, cert)


def _format(cert: Certificate) -> tuple[str, str, list[int]]:
    if type(cert) not in _FORMATS:
        raise SerializationError(f"unknown certificate type {type(cert).__name__}")
    kind, key, _ = _FORMATS[type(cert)]
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
    for cls, (name, key, _) in _FORMATS.items():
        if kind == name:
            values = obj.get(key)
            if not isinstance(values, list) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in values
            ):
                raise SerializationError(f"field {key!r} must be an array of integers")
            if cls is not CliqueWitness:
                return cls(tuple(values))
            if len(set(values)) != len(values):
                raise SerializationError(f"field {key!r} repeats a vertex")
            return cls(frozenset(values))
    raise SerializationError(f"unknown certificate kind {kind!r}")
