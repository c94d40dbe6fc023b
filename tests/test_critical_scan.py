"""The critical scan keeps exactly what one fresh search per trial keeps,
with no more search work, and decides chi >= Delta for `find_witness`.

`per_trial_critical_scan` in conftest is the scan with a fresh colouring
search for every trial set.  `extract_vertex_critical` must return the same
kept set on every input here: the golden inputs with maximum degree at
least 4, the golden file's 111 relabelled squared cycles among them,
C_m[K_2] (the circulant C_2m(1, m - 1, m), whose refutations backtrack
hard), squared cycles, also beyond graph6's order limit, and small random
graphs.  A kept trial's colouring proves later vertices kept by searching
every recolouring reachable from it instead of running their trials; each
such proof must hold up against the reference.  The stored colourings are
(chi - 1)-colourings of g - v wherever the reference stores one for every
v, and a searched trial's is the reference's own.  On C_n^2 with n = 2
(mod 3) the first trial, on all of the graph but vertex 0, deletes vertex
0.  Counted in neighbour reads, one per paint or unpaint, the scan must do
no more search work than the reference, and strictly less on the plain
squared cycles and C_m[K_2]; where trial 0 keeps vertex 0, and only
there, the reference is charged one (chi - 1)-colourability test of all
of g, which the scan then makes too.  No scan of a golden squared cycle
makes more than `MOST_GOLDEN_SEARCHES` searches.

The scan decides chi >= Delta itself: a first trial that deletes vertex 0
refutes g, and otherwise one test of all of g follows it at once.  On the
4-critical squared cycles the scan makes one trial search, one peel of a
trial and one greedy clique, the one that leads to its single clique
test, all in trial 0, then the test of g; trial 0's colouring proves
every other vertex kept.  Where a greedy clique refutes a trial before
one fails, the exact clique test must not run.  Where chi equals the
maximum degree, the kept set must have the shape `find_witness` reads its
branch off, and an input with chi < Delta is refused as it was.
"""

from __future__ import annotations

import functools
import random
from pathlib import Path
from unittest import mock

import pytest

import chidelta.coloring as coloring_mod
from chidelta.certificate import HighOddHoleWitness
from chidelta.cli import EX_CONTRACT, cli_dispatch
from chidelta.coloring import chromatic_number, extract_vertex_critical, is_k_colorable
from chidelta.graph import (
    cycle_power,
    decode_graph6,
    encode_graph6,
    graph_from_edges,
    induced_subgraph,
    max_degree,
    min_degree,
)
from chidelta.witness import ContractError, find_witness

from conftest import CountingGraph, is_proper, k_n, per_trial_critical_scan, random_graph

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_certificates.txt"
# the golden file's benchmark squared cycles: 111 lines, then the 21
# circulant lines (tests/make_golden.py)
GOLDEN_SQUARES = slice(-132, -21)


def _c_m_k2(m):
    n = 2 * m
    return graph_from_edges(n, [(i, (i + s) % n) for i in range(n) for s in (1, m - 1, m)])


def _golden(squares=False):
    # every golden input has chi = delta; the squared cycles, or every
    # other input
    rows = GOLDEN.read_text(encoding="ascii").splitlines()
    if squares:
        rows = rows[GOLDEN_SQUARES]
    else:
        del rows[GOLDEN_SQUARES]
    graphs = (decode_graph6(row.split("\t")[0]) for row in rows)
    return [(g, max_degree(g)) for g in graphs if max_degree(g) >= 4]


def _random():
    rng = random.Random(9090)
    out = []
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 13), rng.choice([0.2, 0.35, 0.5, 0.7, 0.85]))
        out.append((g, chromatic_number(g)))
    return out


CASES = {
    "golden": _golden,
    "golden squared cycles": lambda: _golden(squares=True),
    "C11[K2]": lambda: [(_c_m_k2(11), 5)],
    "C13[K2]": lambda: [(_c_m_k2(13), 5)],
    "C15[K2]": lambda: [(_c_m_k2(15), 5)],
    "C_n^2, n <= 61": lambda: [(cycle_power(n, 2), 4) for n in range(10, 62, 3)],
    "C100^2": lambda: [(cycle_power(100, 2), 4)],
    "C199^2": lambda: [(cycle_power(199, 2), 4)],
    "C400^2": lambda: [(cycle_power(400, 2), 4)],
    "C_n^2, n = 2 (mod 3), n <= 62": lambda: [(cycle_power(n, 2), 4) for n in range(11, 63, 3)],
    "C101^2": lambda: [(cycle_power(101, 2), 4)],
    "C200^2": lambda: [(cycle_power(200, 2), 4)],
    "random": _random,
}


@functools.cache
def _scans(name):
    # (input, chi, reference output, its reads, scan output, its reads, the
    # scan's recolouring proofs, its searches) per input; a proof
    # (v, u, colours) is a vertex u that the recolouring search from trial
    # v reached, with the colouring of keep - u it gives.  The reference's
    # reads include those of one (chi - 1)-colourability test of all of g
    # only where the scan makes one too: where trial 0 keeps vertex 0, so
    # that vertex 0 is in the reference's kept set
    original = coloring_mod._recolorings
    search = coloring_mod._search
    proofs, searches = [], []

    def recording(g, colors, v, later):
        for u in original(g, colors, v, later):
            proofs.append((v, u, tuple(colors)))
            yield u

    def counting(g, k, inside):
        searches.append(inside)
        return search(g, k, inside)

    out = []
    with mock.patch.object(coloring_mod, "_recolorings", recording), \
            mock.patch.object(coloring_mod, "_search", counting):
        for g, chi in CASES[name]():
            h = CountingGraph(g)
            refuted = chi == 1 or not is_k_colorable(h, chi - 1)
            assert refuted, (name, g)
            test_reads, h.reads = h.reads, 0
            want = per_trial_critical_scan(h, chi)
            want_reads, h.reads = h.reads + (test_reads if 0 in want[0] else 0), 0
            proofs.clear()
            searches.clear()
            got = extract_vertex_critical(h, chi)
            out.append((g, chi, want, want_reads, got, h.reads, tuple(proofs), len(searches)))
    return out


@pytest.mark.parametrize("name", list(CASES))
def test_scan_matches_per_trial_reference(name):
    # The kept sets are equal.  Each stored colouring is a proper
    # (chi - 1)-colouring of exactly g - v; the scan stores one wherever
    # the reference does; and a vertex the scan did not prove by
    # recolouring had its trial's search, so its colouring is the
    # reference's
    for g, chi, want, _, got, _, proofs, _ in _scans(name):
        assert got[0] == want[0], (name, g)
        for v, phi in got[1].items():
            assert {u for u in range(g.n) if phi[u]} == set(range(g.n)) - {v}, (name, g, v)
            assert max(phi) <= chi - 1 and is_proper(g, phi), (name, g, v)
        assert set(want[1]) <= set(got[1]), (name, g)
        proven = {u for _, u, _ in proofs}
        for v, phi in want[1].items():
            if v not in proven:
                assert got[1][v] == phi, (name, g, v)


@pytest.mark.parametrize("name", list(CASES))
def test_scan_reads_no_more_than_per_trial_reference(name):
    # a trial the scan runs searches the core the reference's trial
    # searches, a trial proven by recolouring searches nothing, and the
    # scan's test of g, made only where trial 0 keeps vertex 0, searches
    # what the reference's test of g searches
    for g, _, _, want_reads, _, got_reads, _, _ in _scans(name):
        assert got_reads <= want_reads, (name, g)


@pytest.mark.parametrize(
    "name", [name for name in CASES if name not in ("golden", "golden squared cycles", "random")]
)
def test_scan_shares_search_work_on_squared_cycles(name):
    # n = 1 (mod 3): C_n^2 is 4-critical, and trial 0's colouring proves
    # every other vertex kept by recolouring, so their trials search
    # nothing.  n = 2 (mod 3) and C_m[K_2]: trial 0 deletes vertex 0, and
    # one kept trial's colouring proves most later vertices kept.  The
    # golden squared cycles include relabelled C_8^2 and C_11^2, where the
    # scan does just the reference's search work
    for g, _, _, want_reads, _, got_reads, _, _ in _scans(name):
        assert got_reads < want_reads, (name, g)


FOUR_CRITICAL_SQUARES = [n for n in range(10, 62) if n % 3 == 1] + [100, 199, 400]


@pytest.mark.parametrize("n", FOUR_CRITICAL_SQUARES)
def test_scan_neither_peels_nor_bounds_a_critical_squared_cycle(monkeypatch, n):
    # C_n^2 is 4-regular with chi = 4, so it is its own 3-core and no trial
    # set peels, and it has no K_4, so no greedy clique can refute a trial:
    # trial 0's greedy clique fails and the one clique test says no K_4.
    # Trial 0 keeps vertex 0, so the test of all of g follows: its peel
    # removes nothing and its greedy clique bounds nothing.  Trial 0's
    # colouring proves every other vertex kept, so no later trial runs at
    # all.  Every peel is recorded with what it removes, from all of C_n^2
    # or from C_n^2 - 0
    calls = []

    def recording(name, original, *args):
        got = original(*args)
        if name == "_peel":
            calls.append(("_peel", args[2] & ~got))
        elif name == "_peel_without":
            calls.append(("_peel_without", args[3], args[2] & ~got & ~(1 << args[3])))
        else:
            calls.append((name, got))
        return got

    for name in ("_peel", "_peel_without", "_greedy_clique", "_has_clique"):
        monkeypatch.setattr(
            coloring_mod, name, functools.partial(recording, name, getattr(coloring_mod, name))
        )
    kept, colorings = extract_vertex_critical(cycle_power(n, 2), 4)
    assert kept == set(range(n)) and sorted(colorings) == list(range(n))
    assert calls == [
        ("_peel", 0), ("_peel_without", 0, 0), ("_greedy_clique", 3), ("_has_clique", False),
        ("_peel", 0), ("_greedy_clique", 3),
    ]


@pytest.mark.parametrize("n", FOUR_CRITICAL_SQUARES)
def test_scan_searches_a_critical_squared_cycle_once(monkeypatch, n):
    # trial 0 searches C_n^2 - 0, the one trial that searches, and its
    # colouring proves every other vertex kept by recolouring, each a
    # colouring of C_n^2 - u that the scan stores for the regular branch.
    # Trial 0's colouring uses all three colours around vertex 0, so the
    # test of all of g searches C_n^2 once
    original = coloring_mod._search
    calls = []

    def recording(h, k, inside):
        calls.append(inside)
        return original(h, k, inside)

    monkeypatch.setattr(coloring_mod, "_search", recording)
    kept, colorings = extract_vertex_critical(cycle_power(n, 2), 4)
    assert kept == set(range(n)) and sorted(colorings) == list(range(n))
    assert calls == [(1 << n) - 2, (1 << n) - 1]


@pytest.mark.parametrize("d", [4, 5, 6])
def test_scan_skips_the_clique_test_once_a_greedy_clique_refutes(monkeypatch, d):
    # K_d with a pendant path of three vertices at vertex 0: the trials on
    # the clique's vertices peel to nothing, and trial d, on the path, keeps
    # all of K_d, whose greedy clique refutes it; that proves a K_d, so the
    # exact clique test never runs
    calls = []
    original = coloring_mod._has_clique
    monkeypatch.setattr(coloring_mod, "_has_clique", lambda *args: calls.append(args) or original(*args))
    edges = [(i, j) for i in range(d) for j in range(i + 1, d)] + [(0, d), (d, d + 1), (d + 1, d + 2)]
    kept, _ = extract_vertex_critical(graph_from_edges(d + 3, edges), d)
    assert kept == set(range(d)) and calls == []


def _whole_graph_tests(monkeypatch, n):
    # records each colourability test of all n vertices: a `_colorable`
    # call, and the search it makes, on every vertex (each input here is
    # its own (chi - 1)-core)
    everything = (1 << n) - 1
    calls = []

    def recording(name, original, h, k, inside):
        if inside == everything:
            calls.append(name)
        return original(h, k, inside)

    for name in ("_colorable", "_search"):
        monkeypatch.setattr(
            coloring_mod, name, functools.partial(recording, name, getattr(coloring_mod, name))
        )
    return calls


@pytest.mark.parametrize(
    "m,cycle",
    [(m, tuple(range(2, m + 1)) + (1,)) for m in (15, 17, 19, 21)],
)
def test_find_witness_pinned_on_c_m_k2(monkeypatch, m, cycle):
    # C_m[K_2] is 5-regular with chi = 5 and no K_5, so the scan skips every
    # greedy clique on a graph whose refutations backtrack hard; its
    # certificate is the one it had while every trial computed one, and
    # while every kept trial after the first deletion searched.  Trial 0
    # deletes vertex 0, which refutes g, so no test of all of g runs.
    # m = 21 takes about 3 s
    calls = _whole_graph_tests(monkeypatch, 2 * m)
    assert find_witness(_c_m_k2(m)) == HighOddHoleWitness(cycle)
    assert calls == []


@pytest.mark.parametrize("name", [name for name in CASES if name != "random"])
def test_kept_set_has_a_shape_find_witness_reads(name):
    # chi = Delta = d on these inputs.  Kept has d vertices exactly when it
    # induces K_d; otherwise it induces maximum degree d and minimum degree
    # at least d - 1, and it is d-regular only as all of g
    for g, _, _, _, (kept, _), _, _, _ in _scans(name):
        d = max_degree(g)
        sub, _ = induced_subgraph(g, sorted(kept))
        complete = sub.edge_count() == sub.n * (sub.n - 1) // 2
        assert (len(kept) == d) == (complete and sub.n == d), (name, g)
        if len(kept) != d:
            assert max_degree(sub) == d and min_degree(sub) >= d - 1, (name, g)
            if min_degree(sub) == d:
                assert sub.n == g.n, (name, g)


def _two_mod_three_hole(n):
    # positions 2..n - 1 off the multiples of 3, then back to 1: the hole
    # find_witness gave C_n^2 for n = 2 (mod 3) while the first unpeeled
    # trial on each kept set still searched afresh
    return HighOddHoleWitness(tuple(p for p in range(2, n) if p % 3) + (1,))


@pytest.mark.parametrize("n", [101, 200, 401, 800])
def test_find_witness_pinned_on_squared_cycles_two_mod_three(n):
    # the scan's first trial deletes vertex 0, so the kept set is C_n^2 - 0
    # and the certificate comes from the deficient probe
    assert find_witness(cycle_power(n, 2)) == _two_mod_three_hole(n)


@pytest.mark.parametrize("name", list(CASES))
def test_recolouring_proves_only_kept_vertices(name):
    # Every vertex the scan proves kept by recolouring, instead of running
    # its trial, is kept by the per-trial reference, and the colouring that
    # proves it is a proper (chi - 1)-colouring of exactly keep - u, keep
    # being the kept set when the search starts at trial v: the reference's
    # kept set with every vertex from v on, since only trial w deletes w
    proven = 0
    for g, chi, (kept, _), _, got, _, proofs, _ in _scans(name):
        assert got[0] == kept, (name, g)
        for v, u, phi in proofs:
            assert u in kept, (name, g, v, u)
            keep_v = kept | set(range(v, g.n))
            assert {w for w in range(g.n) if phi[w]} == keep_v - {u}, (name, g, v, u)
            assert max(phi) <= chi - 1 and is_proper(g, phi), (name, g, v, u)
        # on the plain squared cycles and C_m[K_2], recolouring acts on
        # every input; on the golden and random inputs at least somewhere
        assert proofs or name in ("golden", "golden squared cycles", "random"), (name, g)
        proven += len(proofs)
    assert proven, name


@pytest.mark.parametrize("n", [101, 200, 401, 800])
def test_scan_searches_little_after_deleting_vertex_zero(monkeypatch, n):
    # C_n^2 with n = 2 (mod 3): trial 0 refutes C_n^2 - 0 and deletes
    # vertex 0.  Every later trial keeps its vertex.  Those near vertex 0
    # peel to nothing; the first one that does not searches, and its
    # colouring proves every vertex after it kept by recolouring.
    # Searching each later trial instead took about two runs per vertex
    original = coloring_mod._search
    calls = []

    def recording(h, k, inside):
        got = original(h, k, inside)
        calls.append((inside, got))
        return got

    monkeypatch.setattr(coloring_mod, "_search", recording)
    extract_vertex_critical(cycle_power(n, 2), 4)
    first = next(i for i, (_, got) in enumerate(calls) if got is None)
    assert calls[first][0] == (1 << n) - 2
    assert len(calls) - first - 1 == 1, len(calls) - first - 1


# The most `_search` calls a scan of a golden squared cycle makes, the test
# of all of g included.  A search that followed one recolouring chain from
# each kept trial left up to 19 trials to search.
MOST_GOLDEN_SEARCHES = 6


def test_golden_squared_cycles_keep_the_reference_set_in_few_searches():
    scans = _scans("golden squared cycles")
    assert len(scans) == 111
    for g, _, want, _, got, _, _, searches in scans:
        assert got[0] == want[0], g
        assert searches <= MOST_GOLDEN_SEARCHES, (g, searches)


# C_m[K_2] for m = 15..21: see test_find_witness_pinned_on_c_m_k2
DELETING = {
    **{f"C{m}[K2]": lambda m=m: [_c_m_k2(m)] for m in (11, 13)},
    "golden squared cycles, n = 2 (mod 3)": lambda: [
        g for g, _ in _golden(squares=True) if g.n % 3 == 2
    ],
}


@pytest.mark.parametrize("name", list(DELETING))
def test_find_witness_tests_no_whole_graph_where_the_scan_deletes(monkeypatch, name):
    # trial 0 refutes g - 0 and deletes vertex 0, which refutes g itself:
    # find_witness decides chi >= Delta without a test of all of g
    graphs = DELETING[name]()
    assert graphs
    for g in graphs:
        with monkeypatch.context() as patch:
            calls = _whole_graph_tests(patch, g.n)
            find_witness(g)
        assert calls == [], (name, g)


@pytest.mark.parametrize("n", FOUR_CRITICAL_SQUARES)
def test_find_witness_tests_a_critical_squared_cycle_whole_once(monkeypatch, n):
    # trial 0 keeps vertex 0, so one test of all of g follows at once, and
    # no other
    calls = _whole_graph_tests(monkeypatch, n)
    find_witness(cycle_power(n, 2))
    assert calls == ["_colorable", "_search"]


def _bipartite_quartic():
    # the circulant C_12(1, 3): odd jumps on an even cycle, so bipartite
    return graph_from_edges(12, [(i, (i + s) % 12) for i in range(12) for s in (1, 3)])


@pytest.mark.parametrize(
    "g,message",
    [
        (cycle_power(9, 2), "chromatic number 3 != max degree 4"),
        (k_n(5), "chromatic number 5 != max degree 4"),
        (_bipartite_quartic(), "chromatic number 2 != max degree 4"),
    ],
    ids=["C9^2", "K5", "C12(1,3)"],
)
def test_witness_refuses_chi_below_delta_with_exit_code_2(capsys, g, message):
    code = cli_dispatch(["witness", "--graph", encode_graph6(g)])
    out = capsys.readouterr()
    assert code == EX_CONTRACT == 2
    assert (out.out, out.err) == ("", f"error: {message}\n")


def test_find_witness_refuses_a_large_three_colourable_square_in_two_searches(monkeypatch):
    # C_600^2 has chi = 3 (3 divides n) and lies beyond graph6's order
    # limit.  Trial 0 colours C_600^2 - 0 with three colours, leaving one
    # free at vertex 0, so the scan finds g 3-colourable without another
    # search; wording the error computes chi with one more
    original = coloring_mod._search
    calls = []

    def recording(h, k, inside):
        calls.append(inside)
        return original(h, k, inside)

    monkeypatch.setattr(coloring_mod, "_search", recording)
    with pytest.raises(ContractError) as info:
        find_witness(cycle_power(600, 2))
    assert str(info.value) == "chromatic number 3 != max degree 4"
    assert len(calls) <= 2, len(calls)
