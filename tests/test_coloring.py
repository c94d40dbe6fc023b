import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chidelta.coloring as coloring_mod
from chidelta.coloring import (
    chromatic_number,
    extract_vertex_critical,
    find_k_coloring,
    is_k_colorable,
    kempe_chain,
    shortest_path_in_chain,
)
from chidelta.graph import cycle_power, graph_from_edges, induced_subgraph, max_degree, min_degree
from chidelta.oracle import find_clique

from conftest import (
    brute_chromatic,
    c7_complement,
    is_proper,
    k_n,
    kempe_swap,
    path_n,
    random_graph,
    to_nx,
)


def _critical(g):
    # the critical scan as the proof route runs it: chi from the caller
    return extract_vertex_critical(g, chromatic_number(g))[0]


def test_is_proper_examples():
    k3 = k_n(3)
    assert is_proper(k3, (1, 2, 3))
    assert not is_proper(k3, (1, 1, 2))
    c5 = cycle_power(5, 1)
    assert is_proper(c5, (1, 2, 1, 2, 3))


def test_is_proper_requires_colored_vertices():
    with pytest.raises(ValueError):
        is_proper(k_n(3), (1, 0, 2), on={0, 1})


def test_is_proper_restricted_to_on():
    # the monochromatic edge (0, 1) is outside `on`
    g = path_n(3)
    c = (1, 1, 2)
    assert is_proper(g, c, on={1, 2})
    assert not is_proper(g, c)


def test_find_k_coloring_examples():
    c5 = cycle_power(5, 1)
    assert find_k_coloring(c5, 2) is None
    c = find_k_coloring(c5, 3)
    assert c is not None and is_proper(c5, c)
    assert find_k_coloring(c7_complement(), 3) is None


def test_find_k_coloring_on_subset():
    g = k_n(4)
    c = find_k_coloring(g, 3, on={0, 1, 2})
    assert c is not None
    assert [v for v in range(g.n) if c[v]] == [0, 1, 2]
    assert is_proper(g, c, on={0, 1, 2})


def test_find_k_coloring_deterministic():
    g = cycle_power(11, 2)
    assert find_k_coloring(g, 4) == find_k_coloring(g, 4)


def test_chromatic_number_examples():
    assert chromatic_number(k_n(4)) == 4
    assert chromatic_number(c7_complement()) == 4
    assert chromatic_number(cycle_power(9, 2)) == 3


def test_chromatic_number_matches_brute_force():
    rng = random.Random(20240817)
    for _ in range(40):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        assert chromatic_number(g) == brute_chromatic(g)


def test_solver_consistency_one_less_color():
    rng = random.Random(573)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8), 0.5)
        chi = chromatic_number(g)
        if chi > 1:
            assert find_k_coloring(g, chi - 1) is None
        assert find_k_coloring(g, chi) is not None


def test_solver_consistency_over_small_corpus():
    from chidelta.sweep import generate_connected_graphs

    for n in range(2, 7):
        for g in generate_connected_graphs(n):
            chi = chromatic_number(g)
            if chi > 1:
                assert find_k_coloring(g, chi - 1) is None


def test_is_k_colorable_matches_find_k_coloring():
    rng = random.Random(2718)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(0, 12)
        g = random_graph(rng, n, rng.choice([0.2, 0.35, 0.5, 0.7, 0.85]))
        subset = [v for v in range(n) if rng.random() < 0.7]
        rng.shuffle(subset)
        for k in range(1, 6):
            for on in (None, subset, subset + subset[:2]):
                got = is_k_colorable(g, k, on)
                assert got == (find_k_coloring(g, k, on) is not None), (n, sorted(g.edges()), k, on)
                outcomes.add(got)
    assert outcomes == {True, False}


def test_is_k_colorable_rejects_what_find_k_coloring_rejects():
    for k, on in ((0, None), (-1, [0]), (2, [3]), (2, [-1])):
        for decide in (is_k_colorable, find_k_coloring):
            with pytest.raises(ValueError):
                decide(k_n(3), k, on)


def test_find_k_coloring_rejects_bad_palette():
    with pytest.raises(ValueError):
        find_k_coloring(k_n(3), 0)


def _find_k_coloring_reference(g, k, on=None):
    # reference: the recursive search that recounts every saturation at every
    # node; same branching, so it must return the same colourings
    verts = sorted(set(on)) if on is not None else list(range(g.n))
    colors = [0] * g.n

    def solve(remaining, used):
        if remaining == 0:
            return True
        v, best_sat = -1, -1
        for u in verts:
            if not colors[u]:
                sat = len({colors[w] for w in g.neighbors(u) if colors[w]})
                if sat > best_sat:
                    v, best_sat = u, sat
        forbidden = {colors[u] for u in g.neighbors(v)}
        for c in range(1, min(k, used + 1) + 1):
            if c in forbidden:
                continue
            colors[v] = c
            if solve(remaining - 1, max(used, c)):
                return True
            colors[v] = 0
        return False

    if solve(len(verts), 0):
        return tuple(colors)
    return None


def test_find_k_coloring_matches_reference():
    rng = random.Random(3301)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(0, 14)
        g = random_graph(rng, n, rng.choice([0.2, 0.35, 0.5, 0.7, 0.85]))
        subset = [v for v in range(n) if rng.random() < 0.7]
        for k in range(1, 6):
            for on in (None, subset):
                got = find_k_coloring(g, k, on)
                assert got == _find_k_coloring_reference(g, k, on), (n, sorted(g.edges()), k, on)
                outcomes.add(got is None)
    assert outcomes == {True, False}


# --- Kempe machinery -----------------------------------------------------------


def test_kempe_chain_on_path():
    g = path_n(3)
    c = (1, 2, 1)
    chain = kempe_chain(g, c, 0, 1, 2)
    assert chain == {0, 1, 2}


def test_kempe_chain_singleton():
    g = graph_from_edges(2, [])
    c = (1, 2)
    assert kempe_chain(g, c, 0, 1, 2) == {0}


def test_kempe_chain_c5_example():
    c5 = cycle_power(5, 1)
    c = (1, 2, 1, 2, 3)
    chain = kempe_chain(c5, c, 0, 1, 2)
    assert chain == {0, 1, 2, 3}


def test_kempe_chain_validates_start():
    c5 = cycle_power(5, 1)
    c = (1, 2, 1, 2, 3)
    with pytest.raises(ValueError):
        kempe_chain(c5, c, 4, 1, 2)
    with pytest.raises(ValueError):
        kempe_chain(c5, c, 0, 1, 1)


def test_kempe_swap_examples():
    g = graph_from_edges(1, [])
    c = (1,)
    chain = kempe_chain(g, c, 0, 1, 2)
    assert kempe_swap(c, chain, 1, 2) == (2,)

    c5 = cycle_power(5, 1)
    c = (1, 2, 1, 2, 3)
    chain = kempe_chain(c5, c, 0, 1, 2)
    swapped = kempe_swap(c, chain, 1, 2)
    assert swapped == (2, 1, 2, 1, 3)
    assert kempe_swap(swapped, chain, 1, 2) == c  # involution


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kempe_swap_preserves_properness(data):
    n = data.draw(st.integers(min_value=2, max_value=10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    g = graph_from_edges(n, edges)
    k = data.draw(st.integers(min_value=2, max_value=5))
    c = find_k_coloring(g, k)
    if c is None:
        return
    start = data.draw(st.integers(min_value=0, max_value=n - 1))
    a = c[start]
    b = data.draw(st.integers(min_value=1, max_value=k).filter(lambda x: x != a))
    chain = kempe_chain(g, c, start, a, b)
    assert is_proper(g, kempe_swap(c, chain, a, b))


def test_shortest_path_in_chain_examples():
    g = path_n(4)
    c = (1, 2, 1, 2)
    chain = kempe_chain(g, c, 0, 1, 2)
    assert shortest_path_in_chain(g, chain, 0, {0}) == (0,)
    assert shortest_path_in_chain(g, chain, 0, {3}) == (0, 1, 2, 3)

    c5 = cycle_power(5, 1)
    c = (1, 2, 1, 2, 3)
    chain = kempe_chain(c5, c, 0, 1, 2)
    assert shortest_path_in_chain(c5, chain, 0, {3}) == (0, 1, 2, 3)


def test_shortest_path_absent_target():
    g = graph_from_edges(3, [(0, 1)])
    c = (1, 2, 1)
    chain = kempe_chain(g, c, 0, 1, 2)
    assert shortest_path_in_chain(g, chain, 0, {2}) is None
    with pytest.raises(ValueError):
        shortest_path_in_chain(g, chain, 2, {0})


def test_shortest_path_lowest_id_tiebreak():
    # two routes of equal length from 0 to 3: via 1 or via 2
    g = graph_from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    c = (1, 2, 2, 1)
    chain = kempe_chain(g, c, 0, 1, 2)
    assert shortest_path_in_chain(g, chain, 0, {3}) == (0, 1, 3)


# --- critical subgraph extraction ------------------------------------------------


def test_extract_critical_k4_plus_pendant():
    g = graph_from_edges(5, [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(3, 4)])
    assert _critical(g) == {0, 1, 2, 3}


@pytest.mark.parametrize("chi", [0, -1])
def test_extract_critical_rejects_a_chromatic_number_below_one(chi):
    # as find_k_coloring and is_k_colorable reject a palette below 1;
    # unchecked, both values return a meaningless "critical" set of C7^2
    with pytest.raises(ValueError, match="chromatic number must be at least 1"):
        extract_vertex_critical(cycle_power(7, 2), chi)


def test_extract_critical_accepts_chromatic_number_one():
    # an edgeless graph is 1-chromatic; one vertex is its critical subgraph
    assert extract_vertex_critical(graph_from_edges(3, []), 1)[0] == {2}


def test_extract_critical_single_scan(monkeypatch):
    # one chromatic number for the whole graph plus one per vertex, no rescans
    g = graph_from_edges(5, [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(3, 4)])
    calls = []
    original = coloring_mod.chromatic_number

    def counting(h):
        calls.append(h.n)
        return original(h)

    monkeypatch.setattr(coloring_mod, "chromatic_number", counting)
    assert extract_vertex_critical(g, coloring_mod.chromatic_number(g))[0] == {0, 1, 2, 3}
    assert len(calls) <= g.n + 1


@pytest.mark.parametrize(
    "g", [c7_complement(), cycle_power(16, 2), graph_from_edges(3, []), path_n(4)]
)
def test_extract_critical_computes_chi_once(monkeypatch, g):
    # the scan asks colourability questions, never a chromatic number per
    # vertex: the one chromatic number is the caller's
    calls = []
    original = coloring_mod.chromatic_number

    def counting(h):
        calls.append(h.n)
        return original(h)

    monkeypatch.setattr(coloring_mod, "chromatic_number", counting)
    extract_vertex_critical(g, coloring_mod.chromatic_number(g))
    assert calls == [g.n]


def test_extract_critical_skips_search_while_a_clique_survives(monkeypatch):
    # K4 with a 30-vertex pendant path labelled before it: an exhaustive
    # 3-colouring search of path-plus-K4 would branch on every path vertex
    m = 30
    edges = [(i, i + 1) for i in range(m)]
    edges += [(m + i, m + j) for i in range(4) for j in range(i + 1, 4)]
    g = graph_from_edges(m + 4, edges)
    clique = set(range(m, m + 4))
    original = coloring_mod._search

    def inside_clique_only(h, k, inside):
        # every search goes through `_search`, on the bitmask of its vertices
        assert {v for v in range(h.n) if inside >> v & 1} <= clique, "searched with the K4 intact"
        return original(h, k, inside)

    monkeypatch.setattr(coloring_mod, "_search", inside_clique_only)
    assert _critical(g) == clique


def _pendant_c7_complement(m):
    # complement of C7 on ids m..m+6 with a path on ids 0..m-1 hanging off m
    edges = [(i, i + 1) for i in range(m)]
    edges += [(m + i, m + j) for i in range(7) for j in range(i + 2, 7) if (i, j) != (0, 6)]
    return graph_from_edges(m + 7, edges)


def test_searches_see_only_cores(monkeypatch):
    # chi = 4 and no K4, so no clique settles the question: every search runs,
    # and each must be on a k-core, never on the pendant path
    m = 30
    g = _pendant_c7_complement(m)
    original = coloring_mod._search
    calls = []

    def core_only(h, k, mask):
        inside = frozenset(v for v in range(h.n) if mask >> v & 1)
        assert len(inside) < h.n, "searched the whole graph"
        for v in inside:
            assert len(set(h.neighbors(v)) & inside) >= k, f"vertex {v} not in the {k}-core"
        calls.append(inside)
        return original(h, k, mask)

    monkeypatch.setattr(coloring_mod, "_search", core_only)
    assert chromatic_number(g) == 4
    calls.clear()
    assert _critical(g) == set(range(m, m + 7))
    # once the path is gone, the first trial on the complement of C7, at m,
    # searches the other six and keeps m.  That is the only search on it:
    # the trial's colouring proves the other six vertices kept by
    # recolouring, and their trials search nothing
    c7 = set(range(m, m + 7))
    late = [call for call in calls if call < c7]
    assert late == [frozenset(c7 - {m})]


def _restart_scan_critical(g):
    # reference: delete the lowest deletable vertex, then rescan from the start
    target = chromatic_number(g)
    keep = list(range(g.n))
    changed = True
    while changed:
        changed = False
        for v in keep:
            trial = [u for u in keep if u != v]
            if not trial:
                continue
            sub, _ = induced_subgraph(g, trial)
            if chromatic_number(sub) == target:
                keep = trial
                changed = True
                break
    return frozenset(keep)


def _greedy_clique_reference(g, verts):
    # reference: the start vertex picked by `max` with a key, ties to the
    # lowest id, then the same candidate growth
    if not verts:
        return []
    inside = sum(1 << v for v in verts)
    start = max(verts, key=lambda v: ((g.adjacency_mask(v) & inside).bit_count(), -v))
    clique = [start]
    cand = g.adjacency_mask(start) & inside
    while cand:
        best, best_score = -1, -1
        for v in range(g.n):
            if cand >> v & 1:
                score = (g.adjacency_mask(v) & cand).bit_count()
                if score > best_score:
                    best, best_score = v, score
        clique.append(best)
        cand &= g.adjacency_mask(best)
    return clique


def test_greedy_clique_matches_reference():
    rng = random.Random(4242)
    for _ in range(400):
        n = rng.randint(0, 14)
        g = random_graph(rng, n, rng.choice([0.2, 0.35, 0.5, 0.7, 0.85]))
        subset = [v for v in range(n) if rng.random() < 0.7]
        for verts in (list(range(n)), subset):
            got = coloring_mod._greedy_clique(g, sum(1 << v for v in verts))
            assert got == len(_greedy_clique_reference(g, verts)), (n, sorted(g.edges()), verts)


def test_peel_matches_networkx_k_core():
    # the k-core of an induced subgraph, read off a vertex bitmask, against
    # networkx's core on the same subgraph; and the seeded peel of a core
    # minus any one of its vertices against both
    rng = random.Random(6161)
    for _ in range(300):
        n = rng.randint(0, 14)
        g = random_graph(rng, n, rng.choice([0.2, 0.35, 0.5, 0.7, 0.85]))
        subset = [v for v in range(n) if rng.random() < 0.7]
        for verts in (list(range(n)), subset):
            sub = to_nx(g).subgraph(verts)
            for k in range(n + 1):
                want = sum(1 << v for v in nx.k_core(sub, k))
                core = coloring_mod._peel(g, k, sum(1 << v for v in verts))
                assert core == want, (n, sorted(g.edges()), verts, k)
                members = list(nx.k_core(sub, k))
                for v in members:
                    rest = core ^ 1 << v
                    others = sub.subgraph(u for u in members if u != v)
                    want = sum(1 << u for u in nx.k_core(others, k))
                    got = coloring_mod._peel_without(g, k, core, v)
                    assert got == coloring_mod._peel(g, k, rest) == want, (
                        n, sorted(g.edges()), verts, k, v
                    )


def test_has_clique_matches_the_oracle():
    # the critical scan's exact clique test against the oracle's clique
    # search, at every size from a single vertex to one more than n
    rng = random.Random(5151)
    for _ in range(300):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.2, 0.35, 0.5, 0.7, 0.85]))
        for s in range(1, n + 2):
            want = find_clique(g, s) is not None
            assert coloring_mod._has_clique(g, s, (1 << n) - 1) == want, (n, sorted(g.edges()), s)


def test_extract_critical_matches_restart_scan():
    rng = random.Random(2024)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.3, 0.5, 0.7]))
        assert _critical(g) == _restart_scan_critical(g)


def _greedy_color_count_reference(g):
    # non-backtracking saturation-order coloring; upper bound only
    colors = [0] * g.n
    for _ in range(g.n):
        best, best_sat = -1, -1
        for v in range(g.n):
            if not colors[v]:
                sat = len({colors[u] for u in g.neighbors(v) if colors[u]})
                if sat > best_sat:
                    best, best_sat = v, sat
        forbidden = {colors[u] for u in g.neighbors(best)}
        c = 1
        while c in forbidden:
            c += 1
        colors[best] = c
    return max(colors, default=0)


def _chromatic_number_reference(g):
    # reference: clique lower bound, greedy upper bound, exact searches between
    if g.edge_count() == 0:
        return 1
    low = max(2, coloring_mod._greedy_clique(g, (1 << g.n) - 1))
    high = _greedy_color_count_reference(g)
    for k in range(low, high):
        if find_k_coloring(g, k) is not None:
            return k
    return high


def test_chromatic_number_matches_reference():
    rng = random.Random(7177)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.35, 0.5, 0.7, 0.85]))
        assert chromatic_number(g) == _chromatic_number_reference(g)


def test_extract_critical_c5():
    assert _critical(cycle_power(5, 1)) == {0, 1, 2, 3, 4}


def test_extract_critical_c7_complement():
    g = c7_complement()
    assert _critical(g) == set(range(7))
    for v in range(7):
        sub, _ = induced_subgraph(g, set(range(7)) - {v})
        assert brute_chromatic(sub) == 3


def test_extract_critical_invariants_random():
    rng = random.Random(99)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 8), 0.5)
        chi = chromatic_number(g)
        keep = _critical(g)
        sub, _ = induced_subgraph(g, keep)
        assert chromatic_number(sub) == chi
        for v in range(sub.n):
            if sub.n == 1:
                continue
            smaller, _ = induced_subgraph(sub, set(range(sub.n)) - {v})
            assert chromatic_number(smaller) < chi
        if sub.n > 1 and max_degree(sub) == chi:
            assert min_degree(sub) >= chi - 1
