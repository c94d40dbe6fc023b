import itertools
import pickle
import random
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chidelta.graph import (
    GRAPH6_MAX_ORDER,
    Graph,
    GraphError,
    complement,
    cycle_power,
    decode_graph6,
    encode_graph6,
    graph6_order,
    graph_from_edges,
    induced_subgraph,
    is_connected,
    max_degree,
    min_degree,
)

from conftest import c7_complement, k_n, naive_graph6_encode, random_graph, to_nx


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    else:
        edges = []
    return graph_from_edges(n, edges)


# --- graph_from_edges -------------------------------------------------------


def test_one_vertex_graph():
    g = graph_from_edges(1, [])
    assert g.n == 1 and g.edge_count() == 0


def test_k4_from_edges():
    g = k_n(4)
    assert all(g.degree(v) == 3 for v in range(4))
    assert g.edge_count() == 6


def test_distance_23_pairs_give_c7_complement():
    pairs = [
        (i, j)
        for i in range(7)
        for j in range(i + 1, 7)
        if min(j - i, 7 - (j - i)) in (2, 3)
    ]
    g = graph_from_edges(7, pairs)
    assert g == c7_complement()
    assert max_degree(g) == min_degree(g) == 4


def test_from_edges_rejects_bad_input():
    with pytest.raises(GraphError):
        graph_from_edges(3, [(0, 3)])
    with pytest.raises(GraphError):
        graph_from_edges(3, [(1, 1)])


def test_duplicate_edges_collapse():
    g = graph_from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_constructor_rejects_asymmetry_and_loops():
    with pytest.raises(GraphError):
        Graph(2, (0b10, 0b00))
    with pytest.raises(GraphError):
        Graph(1, (0b1,))
    # rows 0 and 1 both claim a neighbour that does not claim them back;
    # the pair named is the first by row, then by neighbour
    with pytest.raises(GraphError, match="^asymmetric adjacency between 2 and 0$"):
        Graph(3, (0b100, 0b101, 0b010))


# --- graph6 codec ------------------------------------------------------------


def test_decode_single_vertex():
    g = decode_graph6("@")
    assert g.n == 1 and g.edge_count() == 0


def test_decode_k4():
    assert decode_graph6("C~") == k_n(4)


def test_decode_five_cycle():
    g = decode_graph6("Dhc")
    assert sorted(g.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_decode_accepts_header():
    assert decode_graph6(">>graph6<<C~") == k_n(4)


MALFORMED_GRAPH6 = [
    "",  # empty
    "C~~",  # trailing garbage
    "C",  # truncated body
    "~??",  # extended length encoding
    "C!",  # body character below the graph6 range
    "B~",  # nonzero padding: n=3 has 3 bits, '~'=111111 pads with 1s
]


@pytest.mark.parametrize("line", MALFORMED_GRAPH6)
def test_decode_rejects_malformed(line):
    with pytest.raises(GraphError):
        decode_graph6(line)


def _outcome(parse, line):
    """What parsing `line` gives: ("ok", value) or ("error", GraphError message)."""
    try:
        return "ok", parse(line)
    except GraphError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        graphs(max_n=14).map(encode_graph6),
        st.text(max_size=8),
        st.text(alphabet=st.characters(min_codepoint=60, max_codepoint=130), max_size=8),
    )
)
def test_graph6_order_agrees_with_decode(line):
    # one parser behind both: the same order on valid lines, the same
    # GraphError message on malformed ones
    order = _outcome(graph6_order, line)
    decoded = _outcome(lambda text: decode_graph6(text).n, line)
    assert order == decoded


# every run also tries each malformed line above and a few more
for _line in MALFORMED_GRAPH6 + ["!!bad", "\udcff\udcfe", ">>graph6<<", ">>graph6<<C~"]:
    test_graph6_order_agrees_with_decode = example(_line)(test_graph6_order_agrees_with_decode)


def test_encode_examples():
    assert encode_graph6(graph_from_edges(1, [])) == "@"
    assert encode_graph6(k_n(4)) == "C~"


def test_encode_matches_reference_at_every_order():
    # n = 0..62 meets every residue n(n-1)/2 can leave mod 6, so every
    # padding length; empty and complete graphs fill the padded group both ways
    rng = random.Random(6)
    residues = set()
    for n in range(GRAPH6_MAX_ORDER + 1):
        residues.add(n * (n - 1) // 2 % 6)
        for g in (graph_from_edges(n, []), k_n(n), random_graph(rng, n)):
            line = encode_graph6(g)
            assert line == naive_graph6_encode(g)
            assert decode_graph6(line) == g
    assert residues == {0, 1, 3, 4}


CORPUS_N8 = Path(__file__).resolve().parents[1] / "bench" / "data" / "connected_n8.g6"


def _bitwise_decode(line):
    """Reference graph6 decoder, one bit at a time from a '0'/'1' string of
    the body, in pair order (0,1), (0,2), (1,2), (0,3), ..."""
    n = ord(line[0]) - 63
    bits = "".join(format(ord(ch) - 63, "06b") for ch in line[1:])
    rows = [0] * n
    k = 0
    for j in range(n):
        for i in range(j):
            if bits[k] == "1":
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Graph(n, rows)


def test_codec_over_the_full_corpus():
    # every connected graph with n <= 8: decoded as the reference decodes it,
    # and re-encoded to its own line
    lines = CORPUS_N8.read_text(encoding="ascii").splitlines()
    assert len(lines) == 12113
    for line in lines:
        g = decode_graph6(line)
        assert g == _bitwise_decode(line), line
        assert encode_graph6(g) == line


def _first_graph_error(n, adj):
    """The message Graph(n, adj) must raise, found by a plain scan: ranges
    and loops of every row first, then the first asymmetric pair by row,
    then by neighbour."""
    for v, row in enumerate(adj):
        if row >> n:
            return f"vertex {v} has a neighbour outside [0, {n})"
        if row >> v & 1:
            return f"loop at vertex {v}"
    for v in range(n):
        for u in range(n):
            if adj[v] >> u & 1 and not adj[u] >> v & 1:
                return f"asymmetric adjacency between {u} and {v}"
    return None


@st.composite
def adjacency_rows(draw):
    """Rows without loops, often symmetric but for a few planted pairs, and
    now and then a loop or a bit beyond n."""
    n = draw(st.integers(min_value=0, max_value=20))
    rows = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=n, max_size=n))
    rows = [row & ~(1 << v) for v, row in enumerate(rows)]
    if n > 1 and draw(st.booleans()):
        rows = [
            sum(1 << u for u in range(n) if (rows[max(u, v)] >> min(u, v) & 1)) & ~(1 << v)
            for v in range(n)
        ]
        for _ in range(draw(st.integers(1, 3))):
            v, u = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if u != v:
                rows[v] |= 1 << u
    if n and draw(st.integers(0, 9)) == 0:
        rows[draw(st.integers(0, n - 1))] |= 1 << draw(st.integers(0, n + 2))
    return n, rows


@settings(max_examples=300, deadline=None)
@given(adjacency_rows())
def test_constructor_reports_first_offending_pair(case):
    n, rows = case
    expected = _first_graph_error(n, rows)
    if expected is None:
        g = Graph(n, rows)
        assert all(g.neighbors(v) == tuple(u for u in range(n) if rows[v] >> u & 1) for v in range(n))
    else:
        with pytest.raises(GraphError) as err:
            Graph(n, rows)
        assert str(err.value) == expected


def test_encode_rejects_large_order():
    with pytest.raises(GraphError):
        encode_graph6(graph_from_edges(63, []))


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=14))
def test_codec_round_trip(g):
    line = encode_graph6(g)
    assert decode_graph6(line) == g
    assert encode_graph6(decode_graph6(line)) == line


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=14))
def test_pickle_round_trip(g):
    # the sweep's process pool sends generated graphs to its workers this way
    back = pickle.loads(pickle.dumps(g))
    assert back == g
    assert all(back.neighbors(v) == g.neighbors(v) for v in range(g.n))


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=12))
def test_codec_matches_reference_and_networkx(g):
    line = encode_graph6(g)
    assert line == naive_graph6_encode(g)
    assert line == nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
    back = nx.from_graph6_bytes(line.encode())
    assert sorted(map(tuple, map(sorted, back.edges()))) == sorted(g.edges())


# --- queries ------------------------------------------------------------------


def test_is_connected_examples():
    assert is_connected(k_n(4))
    assert not is_connected(graph_from_edges(4, [(0, 1), (2, 3)]))
    assert is_connected(cycle_power(10, 2))
    assert is_connected(graph_from_edges(1, []))


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=10))
def test_is_connected_matches_networkx(g):
    assert is_connected(g) == nx.is_connected(to_nx(g))


def test_degree_examples():
    assert (max_degree(k_n(4)), min_degree(k_n(4))) == (3, 3)
    c7c = c7_complement()
    assert (max_degree(c7c), min_degree(c7c)) == (4, 4)
    star = graph_from_edges(5, [(0, i) for i in range(1, 5)])
    assert (max_degree(star), min_degree(star)) == (4, 1)
    with pytest.raises(GraphError):
        max_degree(graph_from_edges(0, []))
    with pytest.raises(GraphError):
        min_degree(graph_from_edges(0, []))


def test_degree_extremes_match_per_vertex_degrees():
    rng = random.Random(124)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 20), rng.random())
        degrees = [g.degree(v) for v in range(g.n)]
        assert (max_degree(g), min_degree(g)) == (max(degrees), min(degrees))


def test_induced_subgraph_examples():
    sub, mapping = induced_subgraph(k_n(4), {0, 1, 2})
    assert sub == k_n(3) and mapping == {0: 0, 1: 1, 2: 2}
    c5 = cycle_power(5, 1)
    sub, _ = induced_subgraph(c5, {0, 1, 2})
    assert sorted(sub.edges()) == [(0, 1), (1, 2)]
    with pytest.raises(GraphError):
        induced_subgraph(c5, {0, 9})


def test_induced_subgraphs_of_c7_complement_have_no_k4():
    g = c7_complement()
    for kept in itertools.combinations(range(7), 6):
        sub, _ = induced_subgraph(g, kept)
        for four in itertools.combinations(range(6), 4):
            assert not all(
                sub.has_edge(u, w) for u, w in itertools.combinations(four, 2)
            )


def test_induced_subgraph_preserves_adjacency():
    g = cycle_power(9, 2)
    kept = [1, 3, 4, 7, 8]
    sub, mapping = induced_subgraph(g, kept)
    for u in kept:
        for w in kept:
            if u < w:
                assert sub.has_edge(mapping[u], mapping[w]) == g.has_edge(u, w)


def test_complement_examples():
    assert complement(k_n(4)).edge_count() == 0
    c7c = complement(cycle_power(7, 1))
    assert all(c7c.degree(v) == 4 for v in range(7))


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=10))
def test_complement_involution(g):
    assert complement(complement(g)) == g


def test_cycle_power_examples():
    assert cycle_power(5, 1) == graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    g16 = cycle_power(16, 2)
    assert g16.n == 16 and g16.edge_count() == 32
    assert max_degree(g16) == min_degree(g16) == 4
    with pytest.raises(GraphError):
        cycle_power(2, 1)
    with pytest.raises(GraphError):
        cycle_power(5, 0)


def test_cycle_power_7_2_isomorphic_to_c7_complement():
    # the map x -> 2x mod 7 carries cyclic distances {1, 2} to {2, 4 -> 3}
    g = cycle_power(7, 2)
    target = c7_complement()
    for u in range(7):
        for w in range(u + 1, 7):
            assert g.has_edge(u, w) == target.has_edge(2 * u % 7, 2 * w % 7)


@pytest.mark.parametrize("n", range(5, 20))
def test_cycle_power_two_is_four_regular(n):
    g = cycle_power(n, 2)
    assert max_degree(g) == min_degree(g) == 4


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=10))
def test_adjacency_symmetric_and_irreflexive(g):
    for v in range(g.n):
        assert not g.has_edge(v, v)
        for u in g.neighbors(v):
            assert g.has_edge(u, v) and g.has_edge(v, u)
