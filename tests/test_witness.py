import importlib.util
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

import chidelta.witness as witness_mod
from chidelta.certificate import (
    CliqueWitness,
    ExceptionalC7Complement,
    HighOddHoleWitness,
    verify_certificate,
)
import chidelta.coloring as coloring_mod
from chidelta.coloring import (
    chromatic_number,
    extract_vertex_critical,
    find_k_coloring,
    is_k_colorable,
)
from chidelta.graph import (
    cycle_power,
    decode_graph6,
    graph_from_edges,
    induced_subgraph,
    max_degree,
    min_degree,
)
from chidelta.oracle import oracle_witness
from chidelta.witness import (
    ContractError,
    degree_deficient_probe,
    find_witness,
    kempe_adjacency_probe,
    neighborhood_split,
    path_quad,
    split_attachment_check,
    squared_cycle_hole,
    trace_squared_cycle,
)

from conftest import (
    c7_complement,
    chain_split_reference,
    forced_coloring_conflict,
    is_proper,
    k_n,
    path_n,
    petersen,
    sequence_three_coloring,
)

# Every connected, vertex-critical circulant on 7..18 vertices with
# chi = delta >= 5 and no K_delta (two isomorphism classes).
HIGH_DEGREE_CIRCULANTS = [
    (11, (1, 2, 3)),
    (11, (1, 3, 4)),
    (11, (1, 4, 5)),
    (11, (2, 3, 5)),
    (11, (2, 4, 5)),
    (15, (1, 4, 5, 6)),
    (15, (2, 3, 5, 7)),
]


def _relabelled_circulant(n, jumps, copy):
    perm = list(range(n))
    random.Random(f"circulant:{n}:{jumps}:{copy}").shuffle(perm)
    return graph_from_edges(n, [(perm[i], perm[(i + s) % n]) for i in range(n) for s in jumps])


def _scan(g):
    # the critical scan's colorings of g - v, keyed by v, as find_witness
    # hands them on; the claimed chromatic number is the maximum degree.
    # The scan refuses a g that has a (Delta - 1)-coloring; then each g - v
    # gets the coloring its trial would search, so that the split's and
    # the trace's own checks still meet the colorings of such a g
    delta = max_degree(g)
    scan = extract_vertex_critical(g, delta)
    if scan is not None:
        return scan[1]
    assert is_k_colorable(g, delta - 1)
    return {v: find_k_coloring(g, delta - 1, set(range(g.n)) - {v}) for v in range(g.n)}


def _split(g, v):
    return neighborhood_split(g, v, _scan(g)[v])


def _trace(g):
    return trace_squared_cycle(g, _scan(g))


# --- adjacency probe -------------------------------------------------------------


def test_probe_adjacent_in_k4():
    g = k_n(4)
    phi = (1, 2, 3, 0)
    assert kempe_adjacency_probe(g, 3, 0, 1, phi) is None


def test_probe_closes_hole_on_c5():
    c5 = cycle_power(5, 1)
    phi = (0, 1, 2, 1, 2)
    out = kempe_adjacency_probe(c5, 0, 1, 4, phi)
    assert out == HighOddHoleWitness((1, 2, 3, 4, 0))
    assert verify_certificate(c5, out).ok


def test_probe_flags_extendable_coloring():
    c5 = cycle_power(5, 1)
    phi = (0, 1, 2, 1, 3)
    with pytest.raises(ContractError, match=r"swap on the \(1,3\)-component of 1 would extend the coloring to 0"):
        kempe_adjacency_probe(c5, 0, 1, 4, phi)


def test_probe_rejects_a_short_coloring():
    with pytest.raises(ContractError, match="coloring has 4 entries, graph has 5 vertices"):
        kempe_adjacency_probe(cycle_power(5, 1), 0, 1, 4, (0, 1, 2, 1))


def test_probe_rejects_a_long_coloring():
    with pytest.raises(ContractError, match="coloring has 6 entries, graph has 5 vertices"):
        kempe_adjacency_probe(cycle_power(5, 1), 0, 1, 4, (0, 1, 2, 1, 2, 1))


def test_probe_contract_errors():
    c5 = cycle_power(5, 1)
    with pytest.raises(ContractError):  # two uncoloured vertices
        kempe_adjacency_probe(c5, 0, 1, 4, (0, 1, 2, 0, 2))
    with pytest.raises(ContractError):  # probed pair shares a colour
        kempe_adjacency_probe(c5, 0, 1, 4, (0, 1, 2, 1, 1))
    g = k_n(4)
    with pytest.raises(ContractError):  # colour reappears on another neighbour
        kempe_adjacency_probe(g, 3, 0, 1, (1, 2, 1, 0))
    # 5 is at cyclic distance 5 from 0 in C_10^2, so not a neighbour of 0
    g = cycle_power(10, 2)
    with pytest.raises(ContractError, match="^1 and 5 must both be neighbours of 0$"):
        kempe_adjacency_probe(g, 0, 1, 5, find_k_coloring(g, 3, range(1, 10)))


# --- degree-deficient probe --------------------------------------------------------


def test_deficient_probe_finds_hole_in_clipped_squared_cycle():
    h, _ = induced_subgraph(cycle_power(8, 2), range(1, 8))
    assert chromatic_number(h) == 4 and max_degree(h) == 4 and h.degree(0) == 3
    cert = degree_deficient_probe(h, 0)
    assert isinstance(cert, HighOddHoleWitness) and len(cert.cycle) == 5
    assert verify_certificate(h, cert).ok


def test_deficient_probe_returns_clique_when_neighbourhood_complete():
    # K4 with a pendant at vertex 0: vertices 1..3 have degree 3 = delta - 1
    g = graph_from_edges(5, [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(0, 4)])
    cert = degree_deficient_probe(g, 1)
    assert cert == CliqueWitness(frozenset({0, 1, 2, 3}))
    assert verify_certificate(g, cert).ok


def test_deficient_probe_rejects_wrong_degree():
    with pytest.raises(ContractError):
        degree_deficient_probe(c7_complement(), 0)  # 4-regular: no deficient vertex


def test_deficient_probe_rejects_an_input_that_is_not_critical():
    # K4 plus vertex 4 joined to 0, 1 and 2: without 4, the K4 needs 4 colours
    g = graph_from_edges(5, list(itertools.combinations(range(4), 2)) + [(4, 0), (4, 1), (4, 2)])
    with pytest.raises(
        ContractError, match=r"^graph minus 4 admits no \(3\)-coloring; input is not critical$"
    ):
        degree_deficient_probe(g, 4)


def test_deficient_probe_rejects_a_coloring_that_extends():
    # the star 0-{1, 2, 3, 4} plus vertex 5 joined to 1, 2 and 3: the star's
    # leaves share a colour, so two colours are free at 5
    g = graph_from_edges(6, [(0, u) for u in range(1, 5)] + [(5, 1), (5, 2), (5, 3)])
    with pytest.raises(ContractError, match="^coloring extends to 5;"):
        degree_deficient_probe(g, 5)


# --- neighbourhood split ------------------------------------------------------------


def exhaustive_splits(g, v):
    """All partitions of N(v) into an independent pair and an attached clique."""
    nbrs = g.neighbors(v)
    found = []
    for a1, a2 in itertools.combinations(nbrs, 2):
        if g.has_edge(a1, a2):
            continue
        b = [u for u in nbrs if u not in (a1, a2)]
        if not all(g.has_edge(x, y) for x, y in itertools.combinations(b, 2)):
            continue
        if all(g.has_edge(u, a1) or g.has_edge(u, a2) for u in b):
            found.append(((a1, a2), frozenset(b)))
    return found


@pytest.mark.parametrize(
    "n,v,want_a,want_b",
    [(10, 0, (2, 8), {1, 9}), (7, 0, (2, 5), {1, 6}), (16, 0, (2, 14), {1, 15})],
)
def test_neighborhood_split_on_squared_cycles(n, v, want_a, want_b):
    g = cycle_power(n, 2)
    out = _split(g, v)
    assert out == (want_a, frozenset(want_b))
    # the expected split is the unique structurally valid one
    assert exhaustive_splits(g, v) == [(want_a, frozenset(want_b))]


def test_neighborhood_split_rejects_a_maximum_degree_below_four():
    with pytest.raises(ContractError, match="^maximum degree 3 below 4$"):
        neighborhood_split(k_n(4), 0, (0, 1, 2, 3))


def test_neighborhood_split_invariants():
    g = c7_complement()
    out = _split(g, 0)
    assert not isinstance(out, HighOddHoleWitness)
    (a1, a2), b = out
    assert a1 < a2 and not g.has_edge(a1, a2)
    assert isinstance(b, frozenset)
    assert all(g.has_edge(x, y) for x, y in itertools.combinations(sorted(b), 2))
    assert all(g.has_edge(u, a1) or g.has_edge(u, a2) for u in b)
    assert {a1, a2} | b == set(g.neighbors(0))


def test_neighborhood_split_inconsistent_on_three_chromatic():
    # 3-chromatic squared cycle: the coloring of g - v misses a colour around v
    with pytest.raises(ContractError, match="colour 3 is unused around 0; the coloring extends"):
        _split(cycle_power(9, 2), 0)


def test_neighborhood_split_raises_when_a_component_misses_the_pair():
    # a fabricated coloring of C10^2 - 0: the pair A = {1, 2} shares colour 1,
    # and the 1-2 component of B-vertex 8 is {8} alone
    g = cycle_power(10, 2)
    phi = (0, 1, 1, 3, 3, 3, 3, 3, 2, 3)
    with pytest.raises(ContractError, match=r"component of 8 misses both of \(1, 2\)"):
        neighborhood_split(g, 0, phi)


def test_neighborhood_split_requires_regularity():
    with pytest.raises(ContractError):
        neighborhood_split(graph_from_edges(6, [(0, i) for i in range(1, 6)] + [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]), 0,
                           (0, 1, 2, 1, 2, 3))


# The regular split sweep's inputs: every 4-critical C_n^2 the sweep reaches
# (n = 1 mod 3, 7 <= n <= 61) and the Delta >= 5 circulants, relabelled.
REGULAR_SWEEP_INPUTS = [(str(n), cycle_power(n, 2)) for n in range(7, 62, 3)] + [
    (f"C{n}{jumps}-{copy}".replace(" ", ""), _relabelled_circulant(n, jumps, copy))
    for n, jumps in HIGH_DEGREE_CIRCULANTS
    for copy in (1, 2)
]


@pytest.mark.parametrize(
    "g", [g for _, g in REGULAR_SWEEP_INPUTS], ids=[i for i, _ in REGULAR_SWEEP_INPUTS]
)
def test_neighborhood_split_reuses_the_critical_scan_coloring(g):
    # what the split sweep relies on: the scan keeps every vertex of a
    # regular critical graph and stores a coloring of g - v for every v.
    # Trial 0 searches, so vertex 0's is the one `find_k_coloring` gives
    # g - 0 itself; the others may come from recolouring it
    delta = max_degree(g)
    assert min_degree(g) == delta
    kept, colorings = extract_vertex_critical(g, delta)
    assert kept == set(range(g.n))
    assert sorted(colorings) == list(range(g.n))
    for v in range(g.n):
        others = [u for u in range(g.n) if u != v]
        phi = colorings[v]
        assert set(phi) == set(range(delta)) and [u for u in range(g.n) if phi[u]] == others
        assert is_proper(g, phi)
    assert colorings[0] == find_k_coloring(g, delta - 1, range(1, g.n))


def test_neighborhood_split_rejects_a_coloring_of_another_vertex():
    g = cycle_power(13, 2)
    colorings = extract_vertex_critical(g, 4)[1]
    with pytest.raises(ContractError):
        neighborhood_split(g, 1, colorings[0])


@pytest.mark.parametrize("color", [4, -1])
@pytest.mark.parametrize("n", [13, 16, 19])
def test_neighborhood_split_rejects_a_colour_outside_the_palette(n, color):
    # the scan's coloring of C_n^2 - 0 with vertex 1 recoloured outside
    # 1..3: still proper, but not a (max degree - 1)-coloring
    g = cycle_power(n, 2)
    phi = extract_vertex_critical(g, 4)[1][0]
    phi = phi[:1] + (color,) + phi[2:]
    assert is_proper(g, phi)
    with pytest.raises(ContractError, match=r"not a \(3\)-coloring of g minus 0"):
        neighborhood_split(g, 0, phi)


def test_neighborhood_split_rejects_a_long_coloring():
    # the scan's coloring of C13^2 - 0 with one more, uncoloured, entry
    g = cycle_power(13, 2)
    phi = extract_vertex_critical(g, 4)[1][0]
    with pytest.raises(ContractError, match=r"not a \(3\)-coloring of g minus 0"):
        neighborhood_split(g, 0, phi + (0,))


ROOT = Path(__file__).resolve().parents[1]


def _golden_regular():
    rows = (ROOT / "tests" / "data" / "golden_certificates.txt").read_text(encoding="ascii")
    graphs = (decode_graph6(row.split("\t")[0]) for row in rows.splitlines())
    return [g for g in graphs if min_degree(g) == max_degree(g) >= 4]


def _bench_squares():
    # the squared_cycles workload's relabelled C_n^2, n <= 61, read from the
    # benchmark's own input builder
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [decode_graph6(line) for _, line in inputs.squared_cycle_inputs()]


SPLIT_INPUTS = {
    "golden regular": _golden_regular,
    "bench squares": _bench_squares,
    "split closes a hole": lambda: [decode_graph6("H@U^NRo"), decode_graph6("LhEIHEPQHGaPaP")],
}


@pytest.mark.parametrize("name", list(SPLIT_INPUTS))
def test_neighborhood_split_matches_the_full_chain_reference(name):
    # the attachment search inside the two colour classes finds the path
    # that the search inside the B-vertex's full Kempe chain finds, at every
    # v whose g - v has a (delta - 1)-coloring
    graphs = SPLIT_INPUTS[name]()
    assert graphs
    compared = 0
    for g in graphs:
        delta = max_degree(g)
        for v in range(g.n):
            phi = find_k_coloring(g, delta - 1, [u for u in range(g.n) if u != v])
            if phi is None:
                continue
            want = chain_split_reference(g, v, phi)
            if want is None:
                with pytest.raises(ContractError):
                    neighborhood_split(g, v, phi)
            else:
                assert neighborhood_split(g, v, phi) == want, (name, g.n, v)
            compared += 1
    assert compared


def test_attachment_search_matches_the_full_chain_reference_on_any_colouring():
    # the search inside two colour classes stays in the B-vertex's component
    # whatever the colours are, proper or not; random colours reach the long
    # attachment paths and the chains that miss A, which no coloring of g - v
    # on these inputs reaches
    rng = random.Random(6161)
    outcomes = Counter()
    for g in _golden_regular() + SPLIT_INPUTS["split closes a hole"]():
        delta = max_degree(g)
        for v in range(g.n):
            for _ in range(5):
                phi = tuple(0 if u == v else rng.randint(1, delta - 1) for u in range(g.n))
                if len({phi[u] for u in g.neighbors(v)}) != delta - 1:
                    continue
                try:
                    want = chain_split_reference(g, v, phi)
                except ContractError:
                    continue  # a B pair's probe refused the colours first
                if want is None:
                    with pytest.raises(ContractError, match="misses both"):
                        neighborhood_split(g, v, phi)
                else:
                    assert neighborhood_split(g, v, phi) == want, (g.n, v, phi)
                outcomes[type(want).__name__] += 1
    assert set(outcomes) == {"NoneType", "tuple", "HighOddHoleWitness"}


# --- attachment count and path quad ---------------------------------------------------


def test_split_attachment_counts():
    g10 = cycle_power(10, 2)
    s10 = _split(g10, 0)
    # each A-vertex sees |B| - 1 = 1 of B and returns the one it misses
    assert split_attachment_check(g10, s10, 2) == 9
    assert split_attachment_check(g10, s10, 8) == 1
    g7 = cycle_power(7, 2)
    s7 = _split(g7, 0)
    assert split_attachment_check(g7, s7, 2) == 6


def test_split_attachment_rejects_a_wrong_count():
    # a fabricated split of C10^2 at 0 whose A-vertex 2 sees none of B
    fake = ((2, 8), frozenset({5, 6}))
    with pytest.raises(ContractError, match="vertex 2 has 0 neighbours in B, expected 1$"):
        split_attachment_check(cycle_power(10, 2), fake, 2)


def test_split_attachment_rejects_full_attachment():
    # K5 plus a pendant at vertex 1; a fabricated split whose A-vertex 1 sees
    # all of B would close a K5, which no regular vertex-critical graph holds
    fake = ((1, 5), frozenset({2, 3, 4}))
    g = graph_from_edges(6, [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(1, 5)])
    with pytest.raises(ContractError, match="vertex 1 has 3 neighbours in B, expected 2$"):
        split_attachment_check(g, fake, 1)


def test_split_attachment_rejects_foreign_vertex():
    g10 = cycle_power(10, 2)
    s10 = _split(g10, 0)
    with pytest.raises(ContractError):
        split_attachment_check(g10, s10, 1)


@pytest.mark.parametrize(
    "n,quad",
    [(10, (2, 1, 9, 8)), (7, (2, 1, 6, 5)), (16, (2, 1, 15, 14))],
)
def test_path_quads_on_squared_cycles(n, quad):
    g = cycle_power(n, 2)
    split = _split(g, 0)
    out = path_quad(g, split)
    assert out == quad
    a1, b1, b2, a2 = quad
    assert g.has_edge(a1, b1) and g.has_edge(b1, b2) and g.has_edge(b2, a2)
    assert not g.has_edge(a1, b2) and not g.has_edge(b1, a2) and not g.has_edge(a1, a2)


@pytest.mark.parametrize(
    "a,b,reason",
    [
        ((2, 8), {1, 5, 9}, "vertex 2 has 1 neighbours in B, expected 2$"),
        ((2, 8), {0, 5}, "vertex 5 is attached to neither A-vertex"),
        ((2, 3), {0, 5}, r"induced structure on \(2, 0, 5, 3\) is not the expected path"),
    ],
)
def test_path_quad_rejects_fabricated_splits(a, b, reason):
    # splits of C10^2 at 0 that no valid instance yields
    with pytest.raises(ContractError, match=reason):
        path_quad(cycle_power(10, 2), (a, frozenset(b)))


def _path_quad_reference(g, split):
    # every condition checked in full: each A-vertex misses exactly one
    # B-vertex, the two misses differ, and all six pairs of (a1, b1, b2, a2)
    # induce the path a1-b1-b2-a2; the quad, or None where a check fails
    (a1, a2), b = split
    missed1 = sorted(b - set(g.neighbors(a1)))
    missed2 = sorted(b - set(g.neighbors(a2)))
    if len(missed1) != 1 or len(missed2) != 1 or missed1 == missed2:
        return None
    quad = (a1, missed2[0], missed1[0], a2)
    path = {frozenset(quad[i:i + 2]) for i in range(3)}
    for u, w in itertools.combinations(quad, 2):
        if g.has_edge(u, w) != (frozenset((u, w)) in path):
            return None
    return quad


PATH_QUAD_INPUTS = (
    [(str(n), cycle_power(n, 2)) for n in (10, 13, 16)]
    + [("C7 complement", c7_complement())]
    + [(name, g) for name, g in REGULAR_SWEEP_INPUTS if max_degree(g) >= 5]
)


@pytest.mark.parametrize(
    "g", [g for _, g in PATH_QUAD_INPUTS], ids=[i for i, _ in PATH_QUAD_INPUTS]
)
def test_path_quad_matches_the_full_check_on_every_fabricated_split(g):
    # every ordered pair A of neighbours of every v, with B = N(v) - A:
    # path_quad raises exactly where the full check fails and otherwise
    # returns its quad; on the Delta >= 5 circulants every split fails
    outcomes = Counter()
    for v in range(g.n):
        nbrs = g.neighbors(v)
        for a in itertools.permutations(nbrs, 2):
            split = (a, frozenset(nbrs) - set(a))
            want = _path_quad_reference(g, split)
            if want is None:
                with pytest.raises(ContractError):
                    path_quad(g, split)
            else:
                assert path_quad(g, split) == want, (v, a)
            outcomes[want is None] += 1
    assert outcomes[True] and bool(outcomes[False]) == (max_degree(g) == 4)


def test_path_quad_rejects_an_adjacent_a_pair():
    # the 4-wheel: its rim is the path 0-2-3-1 closed by the edge 0 ~ 1, so at
    # the hub 4 the split ((0, 1), {2, 3}) passes every check but a1 !~ a2,
    # which no split of the graphs above isolates
    g = graph_from_edges(5, [(0, 2), (2, 3), (3, 1), (1, 0)] + [(u, 4) for u in range(4)])
    split = ((0, 1), frozenset({2, 3}))
    assert _path_quad_reference(g, split) is None
    with pytest.raises(ContractError, match=r"induced structure on \(0, 2, 3, 1\)"):
        path_quad(g, split)


# --- squared-cycle trace ---------------------------------------------------------------


@pytest.mark.parametrize("n", range(7, 21))
def test_trace_labels_squared_cycles(n):
    # only the 4-critical squares, n = 1 mod 3, are labelled
    g = cycle_power(n, 2)
    if n % 3 == 2:
        # not vertex-critical: the scan deletes a vertex, so some g - v has
        # no coloring to probe
        with pytest.raises(ContractError, match="no coloring of g minus"):
            _trace(g)
        return
    if n % 3 == 0:
        with pytest.raises(ContractError, match="colour 3 is unused around 0; the coloring extends"):
            _trace(g)
        return
    at = _trace(g)
    assert isinstance(at, tuple) and len(at) == n
    assert sorted(at) == list(range(n))
    for p in range(n):
        for q in range(p + 1, n):
            d = min(q - p, n - q + p)
            assert g.has_edge(at[p], at[q]) == (d in (1, 2))


@pytest.mark.parametrize("n", [16, 40])
def test_find_witness_splits_each_vertex_once(monkeypatch, n):
    # the regular sweep and the squared-cycle trace share one quad per vertex
    calls = []
    original = witness_mod.neighborhood_split

    def counting(g, v, phi):
        calls.append(v)
        return original(g, v, phi)

    monkeypatch.setattr(witness_mod, "neighborhood_split", counting)
    g = cycle_power(n, 2)
    assert isinstance(find_witness(g), HighOddHoleWitness)
    assert calls == list(range(n))


@pytest.mark.parametrize(
    "g",
    [
        cycle_power(16, 2),
        cycle_power(40, 2),
        c7_complement(),
        _relabelled_circulant(11, (1, 2, 3), 1),  # the degree >= 5 regular sweep
    ],
    ids=["C16^2", "C40^2", "C7-complement", "C11(1,2,3)"],
)
def test_find_witness_colours_each_subgraph_once(monkeypatch, g):
    # the critical scan's colorings of g - v feed the regular split sweep,
    # so one find_witness call never asks for the same coloring twice.  Every
    # search, `find_k_coloring`'s included, is one call of
    # `coloring._search` on a vertex bitmask
    asked = []
    original = coloring_mod._search

    def recording(h, k, inside):
        asked.append((h, k, inside))
        return original(h, k, inside)

    monkeypatch.setattr(coloring_mod, "_search", recording)
    find_witness(g)
    assert asked
    assert [key for key, times in Counter(asked).items() if times > 1] == []


def test_find_witness_computes_chi_once(monkeypatch):
    # find_witness decides chi = Delta by Brooks' theorem, with the
    # (Delta - 1)-colourability test made by the critical scan at
    # Delta >= 4 and before it at Delta <= 3: a valid input never computes
    # chi, and one that fails the contract (complete, an odd cycle, or
    # chi < Delta) computes it once, only to word the error
    calls = []
    original = coloring_mod.chromatic_number

    def counting(h):
        calls.append(h.n)
        return original(h)

    monkeypatch.setattr(coloring_mod, "chromatic_number", counting)
    monkeypatch.setattr(witness_mod, "chromatic_number", counting)
    k5_minus_edge = graph_from_edges(5, [e for e in k_n(5).edges() if e != (0, 1)])
    for g in (cycle_power(16, 2), cycle_power(7, 2), petersen(), path_n(5), k5_minus_edge):
        find_witness(g)
    assert calls == []
    for g, message in [
        (k_n(5), "chromatic number 5 != max degree 4"),
        (cycle_power(5, 2), "chromatic number 5 != max degree 4"),
        (cycle_power(7, 1), "chromatic number 3 != max degree 2"),
        (cycle_power(9, 2), "chromatic number 3 != max degree 4"),
        (path_n(2), "chromatic number 2 != max degree 1"),
        (path_n(1), "chromatic number 1 != max degree 0"),
    ]:
        with pytest.raises(ContractError) as info:
            find_witness(g)
        assert str(info.value) == message
        assert calls == [g.n]
        calls.clear()


def test_find_witness_contract_matches_chromatic_number_up_to_seven_vertices():
    # Brooks' theorem: on every connected graph with n <= 7, find_witness
    # refuses the input exactly when its chromatic number is not Delta
    from chidelta.generate import generate_connected_graphs

    seen = {True: 0, False: 0}
    for n in range(1, 8):
        for g in generate_connected_graphs(n):
            valid = chromatic_number(g) == max_degree(g)
            try:
                find_witness(g)
            except ContractError as err:
                assert not valid and str(err).startswith("chromatic number"), (n, sorted(g.edges()))
            else:
                assert valid, (n, sorted(g.edges()))
            seen[valid] += 1
    assert seen == {True: 154, False: 996 - 154}


def _relabelled_square(n, copy):
    perm = list(range(n))
    random.Random(f"squared-cycle:{n}:{copy}").shuffle(perm)
    return graph_from_edges(n, [(perm[u], perm[w]) for u, w in cycle_power(n, 2).edges()])


@pytest.mark.parametrize(
    "n,copy,position,cert",
    [
        (7, 1, (0, 1, 2, 4, 6, 3, 5), ExceptionalC7Complement((0, 2, 4, 1, 5, 6, 3))),
        (7, 2, (0, 2, 4, 1, 6, 5, 3), ExceptionalC7Complement((0, 4, 1, 2, 5, 3, 6))),
        (
            16, 1,
            (0, 11, 9, 3, 2, 13, 8, 4, 14, 15, 6, 12, 5, 7, 10, 1),
            HighOddHoleWitness((15, 3, 7, 10, 13, 2, 1, 5, 9)),
        ),
        (
            16, 2,
            (0, 8, 10, 13, 6, 3, 11, 1, 4, 7, 2, 5, 15, 9, 12, 14),
            HighOddHoleWitness((7, 5, 8, 4, 9, 13, 6, 3, 12)),
        ),
        (
            40, 1,
            (0, 19, 32, 2, 4, 14, 28, 7, 34, 20, 18, 3, 37, 30, 38, 1, 35, 15, 9, 11,
             39, 5, 36, 13, 33, 26, 22, 21, 10, 29, 23, 24, 6, 25, 31, 8, 16, 17, 12, 27),
            HighOddHoleWitness((15, 11, 4, 32, 7, 18, 28, 38, 23, 17, 36, 10, 1, 27, 26,
                                31, 33, 39, 6, 13, 34, 24, 16, 12, 20)),
        ),
        (
            40, 2,
            (0, 37, 28, 7, 30, 23, 32, 36, 17, 19, 11, 4, 22, 13, 10, 20, 1, 31, 8, 6,
             26, 14, 9, 18, 39, 12, 5, 33, 21, 25, 27, 24, 16, 15, 3, 35, 34, 2, 38, 29),
            HighOddHoleWitness((16, 34, 11, 19, 3, 22, 14, 25, 13, 33, 32, 23, 9, 28, 12,
                                31, 29, 30, 2, 4, 17, 27, 35, 1, 24)),
        ),
    ],
)
def test_trace_and_witness_pinned_on_relabelled_squares(n, copy, position, cert):
    # `position` pins each vertex's place; the walk holds its inverse
    g = _relabelled_square(n, copy)
    assert _trace(g) == tuple(sorted(range(n), key=position.__getitem__))
    assert find_witness(g) == cert


def test_trace_rejects_a_walk_that_revisits_a_vertex(monkeypatch):
    # the quad of the walk's second vertex w is rewritten to (x, 0, 0, y),
    # so the walk turns back from w to vertex 0 and misses some vertex; the
    # position check alone must still reject it
    original = witness_mod._quads

    def turning_back(g, colorings):
        quads = original(g, colorings)
        w = quads[0][1]
        x, _, _, y = quads[w]
        quads[w] = (x, 0, 0, y)
        return quads

    monkeypatch.setattr(witness_mod, "_quads", turning_back)
    with pytest.raises(ContractError, match="disagree with its position"):
        _trace(cycle_power(13, 2))


def test_trace_rejects_a_disconnected_graph():
    twice = graph_from_edges(
        20, [(u + shift, w + shift) for u, w in cycle_power(10, 2).edges() for shift in (0, 10)]
    )
    with pytest.raises(ContractError, match="^graph must be connected and nonempty$"):
        trace_squared_cycle(twice, {})


def test_trace_on_c7_complement():
    out = _trace(c7_complement())
    assert isinstance(out, tuple) and len(out) == 7


@pytest.mark.parametrize(
    "g6,hole",
    [
        ("H@U^NRo", (5, 3, 2, 7, 0)),
        ("LhEIHEPQHGaPaP", (5, 6, 7, 8, 0)),  # the circulant C13(1, 5)
    ],
)
def test_trace_hands_on_the_hole_a_probe_closes(g6, hole):
    # 4-regular and 4-critical, but not a squared cycle: a split probe closes
    # a hole before the walk starts, and the trace returns it as find_witness does
    g = decode_graph6(g6)
    assert min_degree(g) == max_degree(g) == 4
    want = HighOddHoleWitness(hole)
    assert _trace(g) == want
    assert find_witness(g) == want


def test_trace_fails_cleanly_off_family():
    # 4-regular, but not a squared cycle: the 4-dimensional hypercube
    edges = [
        (u, u ^ (1 << b)) for u in range(16) for b in range(4) if u < u ^ (1 << b)
    ]
    q4 = graph_from_edges(16, edges)
    # bipartite: the coloring of q4 - 0 leaves a colour free around 0
    with pytest.raises(ContractError, match="colour 2 is unused around 0; the coloring extends"):
        _trace(q4)
    with pytest.raises(ContractError):
        _trace(petersen())  # 3-regular


# --- explicit hole construction ----------------------------------------------------------


@pytest.mark.parametrize("k", range(3, 13))
def test_squared_cycle_hole_length_and_validity(k):
    n = 3 * k + 1
    hole = squared_cycle_hole(n)
    assert len(hole) == 2 * k - 1
    assert verify_certificate(cycle_power(n, 2), HighOddHoleWitness(hole)).ok


def test_squared_cycle_hole_pinned_examples():
    assert squared_cycle_hole(16) == (1, 3, 4, 6, 7, 9, 11, 13, 15)
    assert squared_cycle_hole(10) == (1, 3, 5, 7, 9)
    g10 = cycle_power(10, 2)
    cyc = squared_cycle_hole(10)
    for i in range(5):
        assert g10.has_edge(cyc[i], cyc[(i + 1) % 5])
    for i, j in itertools.combinations(range(5), 2):
        if abs(i - j) not in (1, 4):
            assert not g10.has_edge(cyc[i], cyc[j])


@pytest.mark.parametrize("n", [100, 199, 400, 799])
def test_find_witness_on_squared_cycles_beyond_graph6(n):
    # graph6 carries at most 62 vertices, so the golden file cannot pin these
    assert find_witness(cycle_power(n, 2)) == HighOddHoleWitness(squared_cycle_hole(n))


@pytest.mark.parametrize("n", [n for n in range(8, 62) if n % 3 == 2])
def test_squared_cycle_hole_two_mod_three(n):
    # these squares are not vertex-critical, so the endgame never reaches them
    with pytest.raises(ValueError, match="not vertex-critical"):
        squared_cycle_hole(n)


@pytest.mark.parametrize("n", [9, 12, 7, 4, 5])
def test_squared_cycle_hole_rejects(n):
    with pytest.raises(ValueError):
        squared_cycle_hole(n)


@pytest.mark.parametrize("n", [n for n in range(7, 62) if n % 3 != 0])
def test_squared_cycle_minus_a_vertex_three_colorable_iff_one_mod_three(n):
    # why the endgame serves only n = 1 mod 3: for n = 2 mod 3 the square
    # minus a vertex is still 4-chromatic, so the square is not vertex-critical
    assert is_k_colorable(cycle_power(n, 2), 3, range(1, n)) == (n % 3 == 1)


@pytest.mark.parametrize("n", [n for n in range(8, 62) if n % 3 != 1])
def test_trace_inconsistent_on_squares_off_the_endgame(n):
    g = cycle_power(n, 2)
    if n % 3 == 0:
        with pytest.raises(ContractError, match="colour 3 is unused around 0; the coloring extends"):
            _trace(g)
    else:
        # 2 mod 3: not vertex-critical, so the scan stores no coloring of g - v
        # for some v, and the trace refuses to probe without one
        with pytest.raises(ContractError, match="no coloring of g minus"):
            _trace(g)


# --- residue-class colourings (test helpers in conftest) -------------------------------------


def test_sequence_three_coloring_examples():
    c9 = sequence_three_coloring(9)
    assert c9 == (1, 2, 3, 1, 2, 3, 1, 2, 3)
    assert is_proper(cycle_power(9, 2), c9)
    assert is_proper(cycle_power(12, 2), sequence_three_coloring(12))
    with pytest.raises(ValueError):
        sequence_three_coloring(8)


def test_forced_conflict_examples():
    rep = forced_coloring_conflict(8)
    g8 = cycle_power(8, 2)
    assert g8.has_edge(*rep.edge)
    assert 0 in rep.edge and rep.color == 1  # closes back onto the seed vertex
    rep11 = forced_coloring_conflict(11)
    assert cycle_power(11, 2).has_edge(*rep11.edge)
    with pytest.raises(ValueError):
        forced_coloring_conflict(9)


def test_forced_conflict_replay():
    for n in (8, 10, 11, 13):
        rep = forced_coloring_conflict(n)
        forced = [1, 2, 3]
        for p in range(3, n):
            forced.append(6 - forced[-1] - forced[-2])
        assert tuple(forced) == rep.forced
        u, w = rep.edge
        assert forced[u] == forced[w] == rep.color
        assert cycle_power(n, 2).has_edge(u, w)


# --- find_witness -----------------------------------------------------------------------------


def test_find_witness_exceptional_graph():
    w = find_witness(c7_complement())
    assert isinstance(w, ExceptionalC7Complement)
    assert verify_certificate(c7_complement(), w).ok


def test_find_witness_squared_sixteen_cycle():
    w = find_witness(cycle_power(16, 2))
    assert isinstance(w, HighOddHoleWitness) and len(w.cycle) == 9
    assert w.cycle == (1, 3, 4, 6, 7, 9, 11, 13, 15)
    assert verify_certificate(cycle_power(16, 2), w).ok


def test_find_witness_petersen():
    w = find_witness(petersen())
    assert isinstance(w, HighOddHoleWitness) and len(w.cycle) == 5
    assert verify_certificate(petersen(), w).ok


def test_find_witness_low_degree_instances():
    p4 = path_n(4)  # chi = delta = 2
    w = find_witness(p4)
    assert isinstance(w, CliqueWitness) and len(w.vertices) == 2
    even_cycle = cycle_power(6, 1)
    w = find_witness(even_cycle)
    assert isinstance(w, CliqueWitness) and len(w.vertices) == 2
    diamond = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    w = find_witness(diamond)  # chi = delta = 3 with a triangle
    assert isinstance(w, CliqueWitness) and len(w.vertices) == 3


def test_find_witness_triangle_free_degree_three():
    # 3-regular triangle-free with chi 3: the shortest odd cycle is returned
    w = find_witness(petersen())
    assert len(w.cycle) == 5


def test_find_witness_brooks_branch():
    # K4 with a pendant: the critical subgraph is K4 with maximum degree 3 = delta - 1
    g = graph_from_edges(5, [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(0, 4)])
    w = find_witness(g)
    assert w == CliqueWitness(frozenset({0, 1, 2, 3}))


# The regular split sweep must certify each high-degree circulant without
# the oracle fallback.
@pytest.mark.parametrize("copy", [1, 2])
@pytest.mark.parametrize("n,jumps", HIGH_DEGREE_CIRCULANTS)
def test_find_witness_high_degree_circulants_skip_oracle(monkeypatch, n, jumps, copy):
    g = _relabelled_circulant(n, jumps, copy)
    assert min_degree(g) == max_degree(g) >= 5
    calls = []

    def spy(h):
        calls.append(h)
        return oracle_witness(h)

    monkeypatch.setattr(witness_mod, "oracle_witness", spy)
    w = find_witness(g)
    assert isinstance(w, HighOddHoleWitness) and verify_certificate(g, w).ok
    assert calls == []


def test_find_witness_rejects_bad_inputs():
    with pytest.raises(ContractError):
        find_witness(graph_from_edges(4, [(0, 1), (2, 3)]))  # disconnected
    with pytest.raises(ContractError):
        find_witness(k_n(5))  # chi = 5, delta = 4
    with pytest.raises(ContractError):
        find_witness(cycle_power(5, 1))  # odd cycle: chi = 3, delta = 2
    with pytest.raises(ContractError):
        find_witness(k_n(1))
    with pytest.raises(ContractError, match="^empty graph$"):
        find_witness(decode_graph6("?"))


def test_find_witness_kind_can_differ_from_oracle():
    # this 8-vertex graph contains both a K4 and a high odd hole; the greedy
    # critical subgraph drops vertex 0 and lands on a K4-free 4-critical
    # graph, so the probe path legitimately reports the hole
    g = decode_graph6("GqhVPw")
    proof = find_witness(g)
    oracle = oracle_witness(g)
    assert isinstance(proof, HighOddHoleWitness)
    assert isinstance(oracle, CliqueWitness)
    assert verify_certificate(g, proof).ok and verify_certificate(g, oracle).ok


def test_find_witness_sound_on_small_cohort():
    from chidelta.sweep import generate_connected_graphs

    seen_kinds = set()
    for n in range(1, 7):
        for g in generate_connected_graphs(n):
            if chromatic_number(g) != max_degree(g):
                continue
            w = find_witness(g)
            assert verify_certificate(g, w).ok
            seen_kinds.add(type(w).__name__)
    assert "CliqueWitness" in seen_kinds and "HighOddHoleWitness" in seen_kinds
