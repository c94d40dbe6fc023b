import hashlib
import itertools
import json
import math
import multiprocessing.pool
import pickle
import random
import re
import time
from pathlib import Path

import networkx as nx
import pytest

import chidelta.generate as generate_mod
import chidelta.graph as graph_mod
import chidelta.sweep as sweep_mod
import chidelta.witness as witness_mod
from chidelta.cli import EX_REJECT, cli_dispatch
from chidelta.certificate import (
    CliqueWitness,
    ExceptionalC7Complement,
    HighOddHoleWitness,
    SerializationError,
    Verdict,
    certificate_kind,
    certificate_text,
    deserialize_certificate,
    serialize_certificate,
    verify_certificate,
)
from chidelta.coloring import _peel, chromatic_number
from chidelta.graph import (
    Graph,
    complement,
    cycle_power,
    decode_graph6,
    encode_graph6,
    graph_from_edges,
    induced_subgraph,
    is_connected,
    max_degree,
)
from chidelta.sweep import (
    SweepError,
    generate_connected_graphs,
    theorem_sweep,
)
from chidelta.witness import ContractError, find_witness

from conftest import c7_complement, k_n, petersen, random_graph, to_nx

KNOWN_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def minperm_code(g):
    """Canonical code by plain minimum over all permutations (test oracle)."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        code = 0
        for j in range(g.n):
            for i in range(j):
                code = code << 1 | (1 if g.has_edge(perm[i], perm[j]) else 0)
        if best is None or code < best:
            best = code
    return best


def aut_count(g):
    """Automorphism count by degree-pruned backtracking (test oracle)."""
    deg = [g.degree(v) for v in range(g.n)]
    hits = 0

    def place(mapping, used):
        nonlocal hits
        i = len(mapping)
        if i == g.n:
            hits += 1
            return
        for w in range(g.n):
            if used >> w & 1 or deg[w] != deg[i]:
                continue
            if all(g.has_edge(i, j) == g.has_edge(w, mapping[j]) for j in range(i)):
                mapping.append(w)
                place(mapping, used | 1 << w)
                mapping.pop()

    place([], 0)
    return hits


def labeled_connected_count(n):
    """Classic recurrence for the number of labeled connected graphs."""
    c = [0, 1]
    for m in range(2, n + 1):
        total = 2 ** math.comb(m, 2)
        for k in range(1, m):
            total -= math.comb(m - 1, k - 1) * c[k] * 2 ** math.comb(m - k, 2)
        c.append(total)
    return c[n]


# --- generation ----------------------------------------------------------------


CORPUS_N8 = Path(__file__).resolve().parents[1] / "bench" / "data" / "connected_n8.g6"
GENERATION_DIGESTS = Path(__file__).resolve().parent / "data" / "generation_digests.json"


@pytest.mark.parametrize("n", range(1, 9))
def test_generation_counts(n):
    assert sum(1 for _ in generate_connected_graphs(n)) == KNOWN_COUNTS[n]


def _rows(g):
    return tuple(g.adjacency_mask(v) for v in range(g.n))


def _code(g):
    return generate_mod._search(g.n, _rows(g))[0]


def _canonical(g):
    return tuple(graph_mod._triangle_rows(g.n, _code(g)))


def test_decoded_and_generated_graphs_equal_checked_builds(monkeypatch):
    # decoding and generation build their rows symmetric by construction and
    # never go through the checking constructor
    def refuse(self, n, adj):
        raise AssertionError("Graph.__init__ called")

    with monkeypatch.context() as m:
        m.setattr(Graph, "__init__", refuse)
        decoded = [decode_graph6(line) for line in CORPUS_N8.read_text(encoding="ascii").splitlines()]
        generated = [g for n in range(1, 9) for g in generate_connected_graphs(n)]
    assert len(decoded) == len(generated) == 12113
    for g in decoded + generated:
        rows = _rows(g)
        assert g._nbrs is None
        assert g == Graph(g.n, rows)
        assert all(
            g.neighbors(v) == tuple(u for u in range(g.n) if rows[v] >> u & 1) for v in range(g.n)
        )


def test_filter_builds_no_neighbor_tuples_on_an_empty_core():
    # a corpus graph whose (delta - 1)-core is empty is ruled out by the
    # sweep's reads of its bitmasks alone
    ruled_out = 0
    for line in CORPUS_N8.read_text(encoding="ascii").splitlines():
        g = decode_graph6(line)
        delta = graph_mod.max_degree(g)
        if delta < 2 or _peel(g, delta - 1, (1 << g.n) - 1):
            continue
        assert encode_graph6(g) == line and is_connected(g)
        assert not sweep_mod._in_cohort(g)
        assert g._nbrs is None, line
        ruled_out += 1
    assert ruled_out > 0


def test_search_code_is_the_graph6_bit_vector():
    # generation decodes its canonical codes with the graph6 decoder's helper
    for n in range(1, 8):
        for g in generate_connected_graphs(n):
            assert _code(g) == graph_mod._parse_graph6(encode_graph6(g))[1]


def _generation_digest(n):
    """sha256 of the graph6 lines of level n, in emission order."""
    text = "\n".join(encode_graph6(g) for g in generate_connected_graphs(n))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("n", range(1, 9))
def test_generation_is_pinned_byte_for_byte(n):
    # labelling and emission order of each level; CI checks n = 9, which
    # takes about 20 s
    levels = json.loads(GENERATION_DIGESTS.read_text(encoding="ascii"))["levels"]
    assert _generation_digest(n) == levels[str(n)]


def test_generation_gives_canonical_representatives():
    # label-independent pin: the committed corpus holds one graph per class
    # for n = 1..8 in the labelling of an older generator, so its canonical
    # forms are the classes; every generated graph is its own canonical form
    pinned = CORPUS_N8.read_text(encoding="ascii").splitlines()
    assert len(pinned) == 12113
    generated = [_rows(g) for n in range(1, 9) for g in generate_connected_graphs(n)]
    assert all(_canonical(Graph(len(rows), rows)) == rows for rows in generated)
    canonical = set(generated)
    assert canonical == {_canonical(decode_graph6(line)) for line in pinned}
    for seed in (1, 2):
        rng = random.Random(seed)
        for line in pinned:
            g = decode_graph6(line)
            assert _canonical(_relabel(g, _shuffled(rng, g.n))) in canonical, (seed, line)


def _relabel(g, perm):
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _shuffled(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _key_samples():
    # seeded random graphs with n <= 9 and some highly symmetric ones
    rng = random.Random(20251)
    graphs = [random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.5, 0.8])) for _ in range(60)]
    graphs += [
        k_n(8),
        k_n(9),
        cycle_power(9, 2),
        cycle_power(8, 1),
        complement(cycle_power(8, 1)),
        graph_from_edges(8, [(i, j) for i in range(4) for j in range(4, 8)]),
        graph_from_edges(9, []),
    ]
    return graphs


def test_canonical_code_invariant_under_relabelling():
    for g in _key_samples():
        rng = random.Random(encode_graph6(g))
        code = _code(g)
        for _ in range(5):
            assert _code(_relabel(g, _shuffled(rng, g.n))) == code, encode_graph6(g)


def _degree_preserving_swap(rng, g):
    # one random double-edge swap: same degree sequence, often another class
    edges = list(g.edges())
    for _ in range(20):
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) == 4 and not g.has_edge(a, d) and not g.has_edge(c, b):
            kept = [e for e in edges if e not in ((a, b), (c, d))]
            return graph_from_edges(g.n, kept + [(a, d), (c, b)])
    return g


@pytest.mark.parametrize("seed", range(8))
def test_canonical_code_separates_exactly_the_classes(seed):
    # pairs with equal degree sequences, so only the code can tell them apart
    rng = random.Random(seed)
    for _ in range(40):
        g = random_graph(rng, rng.randint(5, 9), rng.choice([0.3, 0.5, 0.7]))
        if g.edge_count() < 2:
            continue
        h = _relabel(_degree_preserving_swap(rng, g), _shuffled(rng, g.n))
        assert (_code(g) == _code(h)) == nx.is_isomorphic(to_nx(g), to_nx(h))


def test_canonical_code_matches_minimum_permutation_code():
    # regular graphs form one cell, so the code is the minimum over all orderings
    for g in (cycle_power(7, 1), cycle_power(7, 2), complement(cycle_power(7, 1)), k_n(5)):
        assert _code(g) == minperm_code(g)


def test_pruning_uses_only_automorphisms():
    found = 0
    for g in _key_samples():
        for perm in generate_mod._search(g.n, _rows(g))[1]:
            found += 1
            assert sorted(perm) == list(range(g.n)), encode_graph6(g)
            for u, v in itertools.combinations(range(g.n), 2):
                assert g.has_edge(u, v) == g.has_edge(perm[u], perm[v]), encode_graph6(g)
    assert found


def _brute_orbits(g):
    # u is in the orbit of v when g with v marked is isomorphic to g with u marked
    marked = []
    for v in range(g.n):
        h = to_nx(g)
        nx.set_node_attributes(h, {u: u == v for u in h}, "mark")
        marked.append(h)

    def same(a, b):
        return a["mark"] == b["mark"]

    return [
        sum(1 << u for u in range(g.n) if nx.is_isomorphic(marked[v], marked[u], node_match=same))
        for v in range(g.n)
    ]


def test_search_orbits_match_brute_force():
    # the acceptance rule of generation is exact only if the automorphisms
    # found by the canonical search generate the whole automorphism group
    graphs = [g for n in range(1, 7) for g in generate_connected_graphs(n)]
    graphs += [g for g in _key_samples() if g.n <= 8]
    for g in graphs:
        autos = generate_mod._search(g.n, _rows(g))[1]
        orbits = [generate_mod._orbit(v, autos) for v in range(g.n)]
        assert orbits == _brute_orbits(g), encode_graph6(g)


@pytest.mark.parametrize("n", [4, 5])
def test_pruned_masks_give_children_already_seen(n):
    # every skipped neighbour mask of the new vertex yields a child isomorphic
    # to that of a smaller mask that is kept, so no class loses its first child
    skipped = 0
    for parent in generate_connected_graphs(n):
        kept = generate_mod._orbit_minima(n, generate_mod._search(n, _rows(parent))[1])
        assert kept == sorted(set(kept))
        first = {}
        for mask in range(1, 1 << n):
            edges = list(parent.edges()) + [(v, n) for v in range(n) if mask >> v & 1]
            code = _code(graph_from_edges(n + 1, edges))
            if mask in kept:
                first.setdefault(code, mask)
            else:
                skipped += 1
                assert first.get(code, mask) < mask
    assert skipped


def _non_cut(g, v):
    return is_connected(induced_subgraph(g, [u for u in range(g.n) if u != v])[0])


def _beaten(parent, mask):
    # the full rival rule of generation: the child C = P + w is rejected when
    # a non-cut vertex of C has a larger invariant (degree, then the sum of
    # its neighbours' degrees) than the new vertex w
    n = parent.n
    c = graph_from_edges(n + 1, list(parent.edges()) + [(v, n) for v in range(n) if mask >> v & 1])

    def key(u):
        return c.degree(u), sum(c.degree(x) for x in c.neighbors(u))

    return any(key(v) > key(n) and _non_cut(c, v) for v in range(n))


def _least_kept(every, least):
    return [m for m in every if m.bit_count() == 1 or m.bit_count() >= least]


def test_degree_threshold_drops_only_rejected_children():
    # generation skips masks of 2 <= k < top vertices, top the largest degree
    # of a non-cut vertex of P: that vertex stays non-cut in C with a degree
    # above k, the degree of w
    dropped = tried = 0
    for n in range(1, 8):
        for parent in generate_connected_graphs(n):
            top = max((parent.degree(v) for v in range(n) if _non_cut(parent, v)), default=0)
            autos = generate_mod._search(n, _rows(parent))[1]
            every = generate_mod._orbit_minima(n, autos)
            kept = generate_mod._orbit_minima(n, autos, top)
            assert kept == _least_kept(every, top), encode_graph6(parent)
            for mask in sorted(set(every) - set(kept)):
                assert _beaten(parent, mask), (encode_graph6(parent), mask)
            dropped += len(every) - len(kept)
            tried += len(every)
    assert (dropped, tried) == (34294, 71300)


def test_orbit_minima_lower_bound_keeps_the_other_orbits():
    for g in _key_samples():
        if g.n <= 8:
            autos = generate_mod._search(g.n, _rows(g))[1]
            every = generate_mod._orbit_minima(g.n, autos)
            for least in range(1, g.n + 2):
                kept = generate_mod._orbit_minima(g.n, autos, least)
                assert kept == _least_kept(every, least), (encode_graph6(g), least)


def test_pruning_a_complete_parent_is_fast():
    started = time.perf_counter()
    kept = generate_mod._orbit_minima(8, generate_mod._search(8, _rows(k_n(8)))[1])
    assert time.perf_counter() - started < 1.0
    assert kept == [(1 << k) - 1 for k in range(1, 9)]


def test_generation_rejects_out_of_range():
    # the order is checked at the call, before the iterator is read, for
    # the canonical and the streamed level alike
    for canonical, n in itertools.product((True, False), (0, 10)):
        with pytest.raises(ValueError, match=f"order {n} outside supported range 1..9"):
            generate_connected_graphs(n, canonical=canonical)
        with pytest.raises(ValueError):
            list(generate_connected_graphs(n, canonical=canonical))


@pytest.mark.parametrize("n", range(1, 9))
def test_streamed_level_has_the_canonical_classes_in_order(n):
    # labelled as built: the parent's representative plus vertex n - 1
    built = list(generate_connected_graphs(n, canonical=False))
    canonical = list(generate_connected_graphs(n))
    assert len(built) == len(canonical) == KNOWN_COUNTS[n]
    parents = {_rows(p) for p in generate_connected_graphs(n - 1)} if n > 1 else {()}
    for g, rep in zip(built, canonical):
        assert generate_mod.canonical_form(g) == rep
        assert tuple(row & ~(1 << (n - 1)) for row in _rows(g)[:-1]) in parents
    # from n = 4 on some class is built off its canonical labels
    assert built != canonical or n <= 3


@pytest.mark.parametrize("n", range(1, 8))
def test_canonical_form_is_the_representative(n):
    rng = random.Random(n)
    for rep in generate_connected_graphs(n):
        assert generate_mod.canonical_form(rep) == rep
        for _ in range(3):
            relabelled = _relabel(rep, _shuffled(rng, n))
            assert generate_mod.canonical_form(relabelled) == rep, encode_graph6(rep)


@pytest.mark.parametrize("n", range(1, 9))
def test_levels_are_held_as_canonical_codes(n):
    # each class is held as its graph6 bit vector, one 64-bit word, in
    # emission order
    level = generate_mod._connected_level(n)
    assert level.itemsize == 8
    assert list(level) == [
        graph_mod._parse_graph6(encode_graph6(g))[1] for g in generate_connected_graphs(n)
    ]


def test_generation_cap_fits_a_code_word():
    # a code of the top level has n(n - 1)/2 bits and must fit the level
    # array's 64-bit words
    cap = generate_mod.GENERATION_CAP
    assert cap * (cap - 1) // 2 <= 64


@pytest.mark.parametrize("n", range(1, 6))
def test_generation_matches_brute_force_classification(n):
    """Classify every labeled connected graph on n vertices by minimum
    permutation code and compare the full class-code sets."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    classes = set()
    for bits in range(1 << len(pairs)):
        g = graph_from_edges(n, [p for k, p in enumerate(pairs) if bits >> k & 1])
        if is_connected(g):
            classes.add(minperm_code(g))
    generated = [minperm_code(g) for g in generate_connected_graphs(n)]
    assert len(generated) == len(set(generated)) == len(classes)
    assert set(generated) == classes


@pytest.mark.parametrize("n", [6, 7])
def test_generation_complete_and_distinct(n):
    """Completeness via the labeled-count identity: representatives are
    pairwise non-isomorphic, connected, and their orbit sizes n!/|Aut| sum to
    the number of labeled connected graphs."""
    reps = list(generate_connected_graphs(n))
    assert len(reps) == KNOWN_COUNTS[n]
    buckets = {}
    total_labeled = 0
    for g in reps:
        assert is_connected(g) and g.n == n
        a = aut_count(g)
        assert math.factorial(n) % a == 0
        total_labeled += math.factorial(n) // a
        key = (tuple(sorted(g.degree(v) for v in range(n))), g.edge_count())
        buckets.setdefault(key, []).append(g)
    assert total_labeled == labeled_connected_count(n)
    for group in buckets.values():
        for g1, g2 in itertools.combinations(group, 2):
            assert not nx.is_isomorphic(to_nx(g1), to_nx(g2))


# --- certificate serialization ---------------------------------------------------


def test_serialize_pinned_formats():
    assert (
        serialize_certificate(CliqueWitness(frozenset({3, 1, 0, 2})))
        == '{"kind": "clique", "vertices": [0, 1, 2, 3]}'
    )
    cycle = (1, 3, 4, 6, 7, 9, 11, 13, 15)
    assert json.loads(serialize_certificate(HighOddHoleWitness(cycle))) == {
        "kind": "high_odd_hole",
        "cycle": list(cycle),
    }
    cert = ExceptionalC7Complement((0, 1, 2, 3, 4, 5, 6))
    assert json.loads(serialize_certificate(cert)) == {
        "kind": "c7_complement",
        "positions": [0, 1, 2, 3, 4, 5, 6],
    }



def test_certificate_text_pinned():
    clique = CliqueWitness(frozenset({3, 1, 0, 2}))
    hole = HighOddHoleWitness((1, 3, 4, 6, 7, 9, 11, 13, 15))
    c7 = ExceptionalC7Complement((0, 2, 4, 6, 1, 3, 5))
    assert certificate_text(clique) == "kind: clique\nvertices: 0 1 2 3"
    assert certificate_text(hole) == "kind: high_odd_hole\ncycle: 1 3 4 6 7 9 11 13 15"
    assert certificate_text(c7) == (
        "kind: c7_complement\npositions: 0 2 4 6 1 3 5\n"
        "note: unique exceptional graph (complement of the 7-cycle)"
    )
    for cert in (clique, hole, c7):
        assert certificate_kind(cert) == json.loads(serialize_certificate(cert))["kind"]


@pytest.mark.parametrize(
    "cert",
    [
        CliqueWitness(frozenset({0, 1, 2, 3})),
        HighOddHoleWitness((4, 2, 0, 1, 3)),
        ExceptionalC7Complement((6, 5, 4, 3, 2, 1, 0)),
    ],
)
def test_serialize_round_trip(cert):
    assert deserialize_certificate(serialize_certificate(cert)) == cert


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"kind": "mystery", "vertices": [1]}',
        '{"kind": "clique", "vertices": "abc"}',
        '{"kind": "clique", "vertices": [1, "x"]}',
        '{"kind": "clique", "vertices": [0, 0, 1, 2]}',
        '{"kind": "high_odd_hole"}',
        "[1, 2, 3]",
    ],
)
def test_deserialize_rejects_malformed(text):
    with pytest.raises(SerializationError):
        deserialize_certificate(text)


def test_serialize_rejects_foreign_object():
    with pytest.raises(SerializationError):
        serialize_certificate("not a certificate")


# --- theorem sweep ----------------------------------------------------------------


def test_small_sweep_passes():
    report = theorem_sweep(5, "both")
    assert report.ok and report.total_failures == 0
    assert report.total_graphs == 1 + 1 + 2 + 6 + 21
    assert [o.cohort for o in report.orders] == [0, 0, 1, 4, 9]
    # the cohort includes an edge witness (P3) and a triangle witness (diamond)
    p3 = find_witness(graph_from_edges(3, [(0, 1), (1, 2)]))
    assert len(p3.vertices) == 2
    diamond = find_witness(graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]))
    assert len(diamond.vertices) == 3


def test_sweep_deterministic_across_workers():
    r1 = theorem_sweep(6, "both", jobs=1)
    r2 = theorem_sweep(6, "both", jobs=2)
    d1, d2 = r1.to_dict(), r2.to_dict()
    for d in (d1, d2):
        d["jobs"] = None
        for o in d["orders"]:
            o["seconds"] = None
    assert d1 == d2


def test_sweep_methods_individually():
    proof = theorem_sweep(5, "proof")
    oracle = theorem_sweep(5, "oracle")
    assert proof.ok and oracle.ok
    assert [o.cohort for o in proof.orders] == [o.cohort for o in oracle.orders]
    assert all(not o.oracle_kinds for o in proof.orders)
    assert all(not o.proof_kinds for o in oracle.orders)


def test_sweep_corpus_replay(tmp_path):
    lines = [encode_graph6(g) for g in generate_connected_graphs(4)]
    corpus = tmp_path / "order4.g6"
    corpus.write_text("\n".join(lines) + "\n")
    report = theorem_sweep(4, "both", min_n=4, corpus=corpus.read_text().splitlines())
    assert report.orders[-1].graphs == 6
    assert report.orders[-1].cohort == 4
    assert report.total_failures == 0


def test_sweep_corpus_accepts_graph6_header():
    # nauty writes the header at the start of a file; the sweep reads past it
    lines = [encode_graph6(g) for g in generate_connected_graphs(4)]
    reports = [
        theorem_sweep(4, "both", corpus=corpus).to_dict()
        for corpus in (lines, [">>graph6<<" + lines[0]] + lines[1:])
    ]
    for d in reports:
        for o in d["orders"]:
            o["seconds"] = None
    assert reports[0] == reports[1] and reports[0]["ok"]
    assert sweep_mod._corpus_by_order([">>graph6<<C~"]) == {4: ["C~"]}


def _count_codec_calls(monkeypatch) -> dict[str, list]:
    calls: dict[str, list] = {"decode_graph6": [], "encode_graph6": []}
    for name, log in calls.items():
        original = getattr(sweep_mod, name)

        def counting(arg, original=original, log=log):
            log.append(arg)
            return original(arg)

        monkeypatch.setattr(sweep_mod, name, counting)
    return calls


def test_generated_sweep_never_calls_the_codec(monkeypatch):
    # generated graphs reach their task as graphs; only a corpus is decoded
    calls = _count_codec_calls(monkeypatch)
    report = theorem_sweep(7, "both")
    assert report.ok and report.total_graphs == sum(KNOWN_COUNTS[n] for n in range(1, 8))
    assert calls == {"decode_graph6": [], "encode_graph6": []}


def test_sweep_aborts_on_bogus_certificate(monkeypatch):
    def planted(g):
        return CliqueWitness(frozenset(range(g.n)))

    monkeypatch.setattr(sweep_mod, "oracle_witness", planted)
    failing = next(
        g
        for n in range(1, 5)
        for g in generate_connected_graphs(n)
        if sweep_mod._in_cohort(g) and not verify_certificate(g, planted(g))
    )
    calls = _count_codec_calls(monkeypatch)
    for jobs in (1, 2):
        with pytest.raises(SweepError) as err:
            theorem_sweep(4, "oracle", jobs=jobs)
        assert err.value.line == encode_graph6(failing)
        assert err.value.detail.startswith("oracle certificate rejected")
    # the failing graph is encoded once, to name it; with jobs=2 a worker
    # encodes it, so the counters here see the serial run only
    assert calls == {"decode_graph6": [], "encode_graph6": [failing]}


@pytest.mark.parametrize("jobs", [1, 2])
def test_routes_see_canonical_graphs(monkeypatch, jobs):
    # the top order is streamed labelled as built, yet each route gets the
    # class representative; a worker reports a wrong one as its failure
    seen = []
    for name in ("find_witness", "oracle_witness"):
        original = getattr(sweep_mod, name)

        def checking(g, original=original):
            seen.append(g)
            assert g == generate_mod.canonical_form(g), "route got a non-canonical graph"
            return original(g)

        monkeypatch.setattr(sweep_mod, name, checking)
    report = theorem_sweep(7, "both", jobs=jobs)
    assert report.ok and report.orders[-1].cohort == 107
    if jobs == 1:  # the pool's workers record into their own copies
        assert len(seen) == 2 * report.total_cohort


def test_bogus_certificate_at_the_top_order_names_the_canonical_line(monkeypatch):
    def planted(g):
        return CliqueWitness(frozenset(range(g.n)))

    monkeypatch.setattr(sweep_mod, "oracle_witness", planted)
    failing = next(
        g
        for g in generate_connected_graphs(5)
        if sweep_mod._in_cohort(g) and not verify_certificate(g, planted(g))
    )
    calls = _count_codec_calls(monkeypatch)
    for jobs in (1, 2):
        with pytest.raises(SweepError) as err:
            theorem_sweep(5, "oracle", min_n=5, jobs=jobs)
        assert err.value.line == encode_graph6(failing)
        assert err.value.detail.startswith("oracle certificate rejected")
    # the serial run encodes the failing graph, in canonical form, to name it
    assert calls == {"decode_graph6": [], "encode_graph6": [failing]}


# Canonical searches in a cold `theorem_sweep(8, "both")`: 996 on the
# parents of levels 1..7, the children of those levels without a code and
# the tied children of every level, and one canonical form per cohort graph.
# Searching every child of level 8 as well made 14,151.
SWEEP8_CANONICAL_SEARCHES = 7222


def test_cold_sweep_searches_only_where_a_label_is_read(monkeypatch):
    generate_mod._connected_level.cache_clear()
    calls = []
    original = generate_mod._search

    def counting(n, adj):
        calls.append(n)
        return original(n, adj)

    monkeypatch.setattr(generate_mod, "_search", counting)
    report = theorem_sweep(8, "both")
    assert report.ok and report.total_graphs == 12113 and report.total_cohort == 567
    assert len(calls) == SWEEP8_CANONICAL_SEARCHES


def test_sweep_verifies_each_certificate_once(monkeypatch):
    calls = []
    for mod in (witness_mod, sweep_mod):
        original = mod.verify_certificate

        def counting(g, cert, original=original):
            calls.append(cert)
            return original(g, cert)

        monkeypatch.setattr(mod, "verify_certificate", counting)
    report = theorem_sweep(6, "both")
    assert report.ok and report.total_cohort > 0
    assert len(calls) == 2 * report.total_cohort


def test_rejected_proof_certificate_aborts(monkeypatch):
    monkeypatch.setattr(
        witness_mod, "verify_certificate", lambda g, cert: Verdict(False, "planted rejection")
    )
    with pytest.raises(ContractError, match="planted rejection"):
        find_witness(graph_from_edges(3, [(0, 1), (1, 2)]))
    with pytest.raises(SweepError) as err:
        theorem_sweep(4, "proof")
    assert "planted rejection" in err.value.detail
    assert decode_graph6(err.value.line).n <= 4


def test_corpus_lines_decoded_at_most_twice(monkeypatch):
    lines = [encode_graph6(g) for n in range(1, 7) for g in generate_connected_graphs(n)]
    calls = _count_codec_calls(monkeypatch)["decode_graph6"]
    report = theorem_sweep(6, "both", jobs=1, corpus=lines)
    assert report.total_graphs == len(lines)
    assert len(calls) <= 2 * len(lines)


def test_corpus_lines_decoded_once(monkeypatch):
    # the up-front pass reads each line's order without building its graph
    lines = [encode_graph6(g) for n in range(1, 7) for g in generate_connected_graphs(n)]
    calls = _count_codec_calls(monkeypatch)["decode_graph6"]
    report = theorem_sweep(6, "both", jobs=1, corpus=lines)
    assert report.ok and report.total_graphs == len(lines)
    assert len(calls) == len(lines)


# C4 plus an isolated vertex, and two isolated vertices
DISCONNECTED_LINES = ["Dl?", "A?"]


@pytest.mark.parametrize("method", ["proof", "oracle", "both"])
@pytest.mark.parametrize("line", DISCONNECTED_LINES)
def test_sweep_rejects_disconnected_corpus_line(line, method):
    g = decode_graph6(line)
    assert not is_connected(g) and encode_graph6(g) == line
    with pytest.raises(SweepError) as err:
        theorem_sweep(5, method, corpus=["C~", line])
    assert err.value.line == line
    assert err.value.detail == "graph is disconnected"


def test_corpus_keeps_file_order_within_each_order():
    lines = [encode_graph6(g) for g in generate_connected_graphs(4)]
    mixed = [lines[3], "C~", lines[0], encode_graph6(graph_from_edges(2, [(0, 1)]))]
    assert sweep_mod._corpus_by_order(mixed + ["", "  "]) == {
        4: [lines[3], "C~", lines[0]],
        2: [mixed[3]],
    }


# --- chi = delta filter ---------------------------------------------------------------


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_cohort_filter_matches_chromatic_number_on_corpus(seed):
    # every connected graph on up to 8 vertices, as committed or relabelled
    rng = random.Random(seed)
    for line in CORPUS_N8.read_text().split():
        g = decode_graph6(line)
        if seed is not None:
            g = _relabelled(g, rng)
        assert sweep_mod._in_cohort(g) == (chromatic_number(g) == max_degree(g)), (line, seed)


def test_cohort_filter_matches_chromatic_number_on_named_and_random_graphs():
    rng = random.Random(1941)
    graphs = [k_n(n) for n in range(1, 10)] + [cycle_power(n, 1) for n in range(3, 10)]
    graphs += [petersen(), c7_complement(), cycle_power(16, 2)]
    graphs += [
        random_graph(rng, rng.randint(1, 11), rng.choice([0.2, 0.35, 0.5, 0.7, 0.9]))
        for _ in range(300)
    ]
    outcomes = set()
    for g in graphs:
        expected = chromatic_number(g) == max_degree(g)
        assert sweep_mod._in_cohort(g) == expected, sorted(g.edges())
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_corpus_sweep_computes_chi_only_where_it_can_equal_delta(monkeypatch):
    # one (delta - 1)-colourability test settles every graph with chi < delta;
    # the exact chi runs on the 567 cohort graphs, K1..K8, C5 and C7 only
    calls = []
    original = sweep_mod.chromatic_number

    def counting(g):
        chi = original(g)
        calls.append((g, chi))
        return chi

    monkeypatch.setattr(sweep_mod, "chromatic_number", counting)
    report = theorem_sweep(8, "both", corpus=CORPUS_N8.read_text().splitlines())
    assert report.ok and report.total_graphs == 12113 and report.total_cohort == 567
    assert len(calls) == 577
    others = sorted((g.n, g.edge_count()) for g, chi in calls if chi != max_degree(g))
    assert others == sorted([(n, n * (n - 1) // 2) for n in range(1, 9)] + [(5, 5), (7, 7)])


def test_sweep_failure_terminates_pool(monkeypatch):
    # a disconnected corpus line fails in its worker
    line = encode_graph6(graph_from_edges(3, [(0, 1)]))
    terminated = []
    original = multiprocessing.pool.Pool.terminate

    def spy(pool):
        terminated.append(pool)
        original(pool)

    monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", spy)
    with pytest.raises(SweepError) as err:
        theorem_sweep(3, "both", min_n=3, jobs=2, corpus=[line])
    assert err.value.line == line and err.value.detail == "graph is disconnected"
    assert len(terminated) == 1


def test_sweep_error_pickles_as_itself():
    # a pool re-raises a task's SweepError in the sweep process; an error that
    # did not unpickle would kill the pool's result thread and hang the sweep
    err = SweepError("A?", "graph is disconnected")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is SweepError
    assert (back.line, back.detail, str(back)) == (err.line, err.detail, str(err))


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_worker_exception_names_the_line(monkeypatch, capsys, jobs):
    # an unexpected exception inside the per-graph work is a failure of that
    # graph, not a traceback out of the pool
    def broken(g):
        raise RuntimeError("boom")

    monkeypatch.setattr(sweep_mod, "find_witness", broken)
    line = encode_graph6(graph_from_edges(3, [(0, 1), (1, 2)]))
    with pytest.raises(SweepError) as err:
        theorem_sweep(3, "proof", min_n=3, jobs=jobs, corpus=[line])
    assert err.value.line == line
    assert err.value.detail == "internal error: RuntimeError: boom"

    code = cli_dispatch(["sweep", "--min-n", "3", "--max-n", "3", "--jobs", str(jobs)])
    err_text = capsys.readouterr().err
    assert code == EX_REJECT
    assert "internal error: RuntimeError: boom" in err_text
    assert "offending graph6 line: " in err_text


def test_sweep_rejects_bad_parameters():
    with pytest.raises(ValueError):
        theorem_sweep(10, "both")
    with pytest.raises(ValueError):
        theorem_sweep(5, "guess")


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_rejects_nonpositive_jobs(jobs):
    with pytest.raises(ValueError, match="jobs"):
        theorem_sweep(3, jobs=jobs)


@pytest.mark.parametrize(
    "min_n,max_n,corpus,message",
    [
        (5, 2, None, "order range 5..2 outside 1..9"),
        (5, 2, ["C~"], "order range 5..2 outside"),
        (-3, 1, ["C~"], "order range -3..1 outside"),
    ],
)
def test_sweep_rejects_bad_order_range(min_n, max_n, corpus, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        theorem_sweep(max_n, "both", min_n=min_n, corpus=corpus)


def test_same_report_ignores_only_jobs_and_seconds(tmp_path):
    # the comparison CI runs on sweep reports: `jobs` and per-order
    # `seconds` may differ, any other field or the order of the keys may
    # not, and both must be ok
    import same_report

    pinned = Path(__file__).resolve().parent / "data" / "sweep9_report.json"

    def edited(name, edit):
        report = json.loads(pinned.read_text(encoding="utf-8"))
        edit(report)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        return str(path)

    def timing(r):
        r["jobs"] = 7
        for o in r["orders"]:
            o["seconds"] = 123.0

    def count(r):
        r["orders"][0]["graphs"] += 1

    def top_keys(r):
        r["ok"] = r.pop("ok")

    def order_keys(r):
        r["orders"][-1]["n"] = r["orders"][-1].pop("n")

    assert same_report.main([str(pinned), edited("timing", timing)]) == 0
    assert same_report.main([str(pinned), edited("count", count)]) == 1
    assert same_report.main([str(pinned), edited("top_keys", top_keys)]) == 1
    assert same_report.main([str(pinned), edited("order_keys", order_keys)]) == 1
    failed = edited("failed", lambda r: r.update(ok=False))
    assert same_report.main([failed, failed]) == 1
    assert same_report.main([str(pinned)]) == 2
