"""Value semantics of the certificate types and of `Verdict`.

They are immutable values: equal exactly when of one type with equal fields,
hashable, with a constructor-style repr, and they survive pickling and
deep copies.
"""

import copy
import pickle

import pytest

from chidelta.certificate import (
    CliqueWitness,
    ExceptionalC7Complement,
    HighOddHoleWitness,
    Verdict,
)

# (value, a field of it, its exact repr)
VALUES = [
    (CliqueWitness(frozenset({0, 1, 2})), "vertices", "CliqueWitness(vertices=frozenset({0, 1, 2}))"),
    (HighOddHoleWitness((0, 1, 2, 3, 4)), "cycle", "HighOddHoleWitness(cycle=(0, 1, 2, 3, 4))"),
    (
        ExceptionalC7Complement((0, 2, 4, 6, 1, 3, 5)),
        "positions",
        "ExceptionalC7Complement(positions=(0, 2, 4, 6, 1, 3, 5))",
    ),
    (Verdict(False, "x"), "reason", "Verdict(ok=False, reason='x')"),
    (Verdict(True), "ok", "Verdict(ok=True, reason=None)"),
]
IDS = [text for _, _, text in VALUES]


def test_equal_values_are_equal_and_hash_equal():
    pairs = [
        (CliqueWitness(frozenset({2, 0, 1})), CliqueWitness(vertices=frozenset({0, 1, 2}))),
        (HighOddHoleWitness((0, 1, 2, 3, 4)), HighOddHoleWitness(cycle=(0, 1, 2, 3, 4))),
        (ExceptionalC7Complement(tuple(range(7))), ExceptionalC7Complement(positions=tuple(range(7)))),
        (Verdict(False, "x"), Verdict(ok=False, reason="x")),
        (Verdict(True), Verdict(True, None)),
    ]
    for a, b in pairs:
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert len({a for a, _ in pairs} | {b for _, b in pairs}) == len(pairs)


def test_different_fields_or_types_are_unequal():
    cycle = (0, 1, 2, 3, 4, 5, 6)
    assert HighOddHoleWitness(cycle) != HighOddHoleWitness(cycle[:5])
    # a certificate of another type is unequal, even with the same field value
    assert HighOddHoleWitness(cycle) != ExceptionalC7Complement(cycle)
    assert ExceptionalC7Complement(cycle) != HighOddHoleWitness(cycle)
    assert CliqueWitness(frozenset({0, 1})) != frozenset({0, 1})
    assert HighOddHoleWitness(cycle) != cycle
    assert Verdict(False, "x") != Verdict(False, "y")
    assert Verdict(True) != Verdict(False)
    assert Verdict(True) != (True, None)


@pytest.mark.parametrize("value, field, text", VALUES, ids=IDS)
def test_repr_is_exact(value, field, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, field, text", VALUES, ids=IDS)
def test_fields_cannot_be_assigned(value, field, text):
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == text


@pytest.mark.parametrize("value, field, text", VALUES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(value, field, text):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert back == value and type(back) is type(value)
    back = copy.deepcopy(value)
    assert back == value and type(back) is type(value)
    assert copy.copy(value) == value
    assert repr(back) == text


def test_verdict_truth_is_its_ok():
    assert Verdict(True)
    assert not Verdict(False, "x")
    assert Verdict(False, "x").reason == "x"
    assert Verdict(True).reason is None
