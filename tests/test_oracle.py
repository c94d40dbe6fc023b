import ast
import inspect
import itertools
import random
import sys
from pathlib import Path

import networkx as nx
import pytest

from chidelta.certificate import (
    CliqueWitness,
    ExceptionalC7Complement,
    HighOddHoleWitness,
    Verdict,
    verify_certificate,
)
from chidelta.coloring import find_k_coloring
from chidelta.graph import complement, cycle_power, graph_from_edges, max_degree
from chidelta.oracle import (
    find_clique,
    find_high_odd_hole,
    is_c7_complement,
    odd_holes,
    oracle_witness,
)

from conftest import c7_complement, is_proper, k_n, petersen, random_graph, to_nx


def brute_find_clique(g, k):
    for combo in itertools.combinations(range(g.n), k):
        if all(g.has_edge(u, w) for u, w in itertools.combinations(combo, 2)):
            return frozenset(combo)
    return None


def has_high_odd_hole_nx(g):
    floor = max_degree(g) - 1
    for cycle in nx.chordless_cycles(to_nx(g)):
        if len(cycle) >= 5 and len(cycle) % 2 == 1:
            if all(g.degree(v) >= floor for v in cycle):
                return True
    return False


# --- find_clique ----------------------------------------------------------------


def test_find_clique_examples():
    assert find_clique(k_n(4), 4) == {0, 1, 2, 3}
    assert find_clique(c7_complement(), 4) is None
    g10 = cycle_power(10, 2)
    assert find_clique(g10, 4) is None
    assert find_clique(g10, 3) == {0, 1, 2}


def test_find_clique_is_lexicographically_least():
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 9), 0.6)
        for k in (2, 3, 4):
            assert find_clique(g, k) == brute_find_clique(g, k)


def test_find_clique_rejects_bad_k():
    with pytest.raises(ValueError):
        find_clique(k_n(3), 0)


def test_searches_do_not_recurse():
    # each search goes deeper than the 30 spare frames allowed here: a
    # recursive search raises RecursionError, an iterative one finishes
    squared = cycle_power(61, 2)
    k40 = k_n(40)
    c61 = cycle_power(61, 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        coloring = find_k_coloring(squared, 4)
        clique = find_clique(k40, 40)
        holes = list(odd_holes(c61))
    finally:
        sys.setrecursionlimit(limit)
    assert coloring is not None and is_proper(squared, coloring)
    assert clique == set(range(40))
    assert holes == [tuple(range(61))]


# --- find_high_odd_hole -----------------------------------------------------------


def test_high_odd_hole_examples():
    c5 = cycle_power(5, 1)
    assert find_high_odd_hole(c5) == (0, 1, 2, 3, 4)
    assert find_high_odd_hole(c7_complement()) is None
    hole = find_high_odd_hole(cycle_power(10, 2))
    assert hole is not None and len(hole) == 5
    assert verify_certificate(cycle_power(10, 2), HighOddHoleWitness(hole)).ok


def test_even_positions_form_hole_in_squared_ten_cycle():
    g = cycle_power(10, 2)
    cert = HighOddHoleWitness((0, 2, 4, 6, 8))
    assert verify_certificate(g, cert).ok


def test_high_odd_hole_existence_matches_networkx():
    rng = random.Random(41)
    for _ in range(40):
        g = random_graph(rng, rng.randint(5, 9), rng.choice([0.3, 0.5]))
        ours = find_high_odd_hole(g)
        assert (ours is not None) == has_high_odd_hole_nx(g)
        if ours is not None:
            assert verify_certificate(g, HighOddHoleWitness(ours)).ok


def test_odd_holes_are_distinct_and_verified():
    g = cycle_power(11, 2)
    seen = set()
    for cycle in odd_holes(g, max_degree(g) - 1):
        assert verify_certificate(g, HighOddHoleWitness(cycle)).ok
        key = frozenset(cycle)
        assert (key, cycle) not in seen
        seen.add((key, cycle))


# --- is_c7_complement --------------------------------------------------------------


def test_c7_complement_recognition():
    pm = is_c7_complement(c7_complement())
    assert pm is not None
    assert verify_certificate(c7_complement(), ExceptionalC7Complement(pm)).ok
    assert is_c7_complement(k_n(7)) is None
    pm2 = is_c7_complement(cycle_power(7, 2))
    assert pm2 is not None
    assert verify_certificate(cycle_power(7, 2), ExceptionalC7Complement(pm2)).ok


def test_c7_complement_rejects_other_four_regular():
    # 4-regular on 8 vertices: wrong order
    assert is_c7_complement(cycle_power(8, 2)) is None
    # 7 vertices but not 4-regular
    assert is_c7_complement(cycle_power(7, 1)) is None
    # 4-regular on 7 vertices, but its complement is C3 plus C4, so the
    # walk around the complement returns to vertex 0 after three steps
    c3_c4 = graph_from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
    assert is_c7_complement(complement(c3_c4)) is None


# --- verify_certificate ---------------------------------------------------------------


def test_verify_clique_accepts_and_rejects():
    # the witness size must equal the maximum degree: for K4 that is 3,
    # for K5 it is 4 (any 4 of the 5 vertices)
    g = k_n(4)
    assert verify_certificate(g, CliqueWitness(frozenset({0, 1, 2}))).ok
    assert verify_certificate(k_n(5), CliqueWitness(frozenset({0, 1, 2, 3}))).ok
    v = verify_certificate(g, CliqueWitness(frozenset({0, 1, 2, 3})))
    assert not v.ok and "size" in v.reason
    v = verify_certificate(g, CliqueWitness(frozenset({0, 1, 9})))
    assert not v.ok and "range" in v.reason
    g2 = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])
    v = verify_certificate(g2, CliqueWitness(frozenset({0, 1, 2, 4})))
    assert not v.ok and "adjacency violated" in v.reason


def test_verify_hole_accepts_c5():
    c5 = cycle_power(5, 1)
    assert verify_certificate(c5, HighOddHoleWitness((0, 1, 2, 3, 4))).ok


def test_verify_hole_rejects_in_order():
    c5 = cycle_power(5, 1)
    v = verify_certificate(c5, HighOddHoleWitness((0, 1, 2, 3, 9)))
    assert not v.ok and v.reason == "vertex out of range"
    v = verify_certificate(c5, HighOddHoleWitness((0, 1, 2)))
    assert not v.ok and "below 5" in v.reason
    v = verify_certificate(c5, HighOddHoleWitness((0, 1, 2, 4, 3)))
    assert not v.ok and "adjacency violated" in v.reason
    g7 = cycle_power(7, 1)
    v = verify_certificate(g7, HighOddHoleWitness((0, 1, 2, 3, 4, 5, 6, 0, 1)))
    assert not v.ok and "repeated" in v.reason
    # a 6-cycle with a chord gets flagged for the chord before parity
    g = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
    v = verify_certificate(g, HighOddHoleWitness((0, 1, 2, 3, 4, 5)))
    assert not v.ok and "chord present" in v.reason
    g6 = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    v = verify_certificate(g6, HighOddHoleWitness((0, 1, 2, 3, 4, 5)))
    assert not v.ok and "even" in v.reason
    # degree floor: a pendant edge raises the maximum degree over the hole
    g = graph_from_edges(
        7, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5), (5, 6), (0, 6)]
    )
    v = verify_certificate(g, HighOddHoleWitness((1, 2, 3, 4, 0)))
    assert not v.ok and "degree below floor" in v.reason


def test_verify_c7_certificate():
    g = c7_complement()
    good = ExceptionalC7Complement((0, 1, 2, 3, 4, 5, 6))
    assert verify_certificate(g, good).ok
    v = verify_certificate(g, ExceptionalC7Complement((0, 1, 2, 3, 4, 5, 5)))
    assert not v.ok and "bijection" in v.reason
    v = verify_certificate(g, ExceptionalC7Complement((0, 2, 1, 3, 4, 5, 6)))
    assert not v.ok
    v = verify_certificate(k_n(4), good)
    assert not v.ok and "order" in v.reason
    # one extra edge between cyclic positions 0 and 1
    chorded = graph_from_edges(7, list(g.edges()) + [(0, 1)])
    v = verify_certificate(chorded, good)
    assert not v.ok and v.reason == "chord present: 0 ~ 1"


def test_verify_rejects_every_certificate_on_the_empty_graph():
    # the empty graph has no maximum degree: a verdict, not an exception
    empty = graph_from_edges(0, [])
    v = verify_certificate(empty, CliqueWitness(frozenset()))
    assert v == Verdict(False, "empty graph has no maximum degree")
    for cert in (HighOddHoleWitness(()), ExceptionalC7Complement(())):
        assert not verify_certificate(empty, cert).ok


def test_verify_rejects_unknown_certificate_type():
    assert verify_certificate(k_n(4), object()) == Verdict(False, "unknown certificate type object")


# --- oracle_witness -----------------------------------------------------------------


def test_oracle_witness_examples():
    assert isinstance(oracle_witness(c7_complement()), ExceptionalC7Complement)
    w = oracle_witness(petersen())
    assert isinstance(w, HighOddHoleWitness) and len(w.cycle) == 5
    w5 = oracle_witness(k_n(5))
    assert isinstance(w5, CliqueWitness) and len(w5.vertices) == 4
    assert verify_certificate(k_n(5), w5).ok


def test_oracle_witness_soundness_random():
    rng = random.Random(1234)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), 0.5)
        w = oracle_witness(g)
        if w is not None:
            assert verify_certificate(g, w).ok


# --- route independence ---------------------------------------------------------------

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chidelta"


def _package_imports(source):
    # the chidelta modules that `source` imports, by any import form
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("chidelta.")
            )
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif (node.module or "").startswith("chidelta."):
                module = node.module.split(".", 1)[1]
            elif node.module == "chidelta":
                module = None
            else:
                continue
            if module:
                names.add(module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def test_package_imports_reads_every_import_form():
    source = (
        "import os\nimport chidelta.sweep\nfrom chidelta.witness import x\n"
        "from chidelta import coloring\nfrom . import generate\nfrom .cli import main\n"
        "from networkx import Graph\n"
    )
    assert _package_imports(source) == {"sweep", "witness", "coloring", "generate", "cli"}


def test_certificate_and_oracle_stay_off_the_proof_route():
    # the checker and the brute-force route share no code with the proof
    # route they check: certificate reads only graph, oracle only
    # certificate and graph, and the proof route's colouring only graph
    def imports(module):
        return _package_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))

    assert imports("certificate") == {"graph"}
    assert imports("oracle") == {"certificate", "graph"}
    assert imports("coloring") == {"graph"}
