"""Shared builders and independent oracles for the test suite.

The oracles here are deliberately separate implementations: a string-based
graph6 reference codec, chromatic number by honest enumeration of all
assignments, and networkx for isomorphism and codec cross-checks.  The
properness check, the Kempe swap and the residue-class colourings of squared
cycles are facts the tests check about the proof's setting; no route of the
program needs them.  `per_trial_critical_scan` is the critical scan with one
fresh colouring search per trial, and `CountingGraph` counts the neighbour
reads a search makes, so the tests can hold the scan to both.
`chain_split_reference` is the neighbourhood split with each attachment
path sought inside the B-vertex's full Kempe chain, built first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import networkx as nx
import pytest

from chidelta.certificate import HighOddHoleWitness
from chidelta.coloring import (
    Coloring,
    _greedy_clique,
    find_k_coloring,
    kempe_chain,
    shortest_path_in_chain,
)
from chidelta.graph import Graph, complement, cycle_power, graph_from_edges
from chidelta.witness import _probe_pairs


def k_n(n: int) -> Graph:
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_n(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def petersen() -> Graph:
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    return graph_from_edges(10, edges)


def grotzsch() -> Graph:
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, (i - 1) % 5) for i in range(5)]
        + [(10, 5 + i) for i in range(5)]
    )
    return graph_from_edges(11, edges)


def c7_complement() -> Graph:
    return complement(cycle_power(7, 1))


def to_nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def brute_chromatic(g: Graph) -> int:
    """Minimum over enumeration of all colour assignments."""
    if g.n == 0:
        raise ValueError
    edges = list(g.edges())
    if not edges:
        return 1
    for k in range(2, g.n + 1):
        for assign in itertools.product(range(k), repeat=g.n):
            if all(assign[u] != assign[v] for u, v in edges):
                return k
    raise AssertionError("unreachable")


def naive_graph6_encode(g: Graph) -> str:
    """String-built graph6 reference, independent of the production bit math."""
    bits = "".join(
        "1" if g.has_edge(i, j) else "0" for j in range(g.n) for i in range(j)
    )
    bits += "0" * (-len(bits) % 6)
    return chr(g.n + 63) + "".join(
        chr(int(bits[i : i + 6], 2) + 63) for i in range(0, len(bits), 6)
    )


def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return graph_from_edges(n, edges)


@pytest.fixture
def named_instances():
    return {
        "k4": k_n(4),
        "k5": k_n(5),
        "petersen": petersen(),
        "grotzsch": grotzsch(),
        "c7c": c7_complement(),
    }


def is_proper(g: Graph, c: Coloring, on: Iterable[int] | None = None) -> bool:
    """True iff no edge inside `on` (default: all coloured vertices) is monochromatic."""
    verts = set(on) if on is not None else {v for v, cv in enumerate(c) if cv}
    for v in verts:
        if not c[v]:
            raise ValueError(f"vertex {v} is uncoloured")
    return all(c[u] != c[v] for v in verts for u in g.neighbors(v) if u in verts)


def kempe_swap(c: Coloring, chain: frozenset[int], a: int, b: int) -> Coloring:
    """Exchange colours a and b on the chain's vertices; everything else unchanged."""
    swap = {a: b, b: a}
    return tuple(swap.get(cv, cv) if v in chain else cv for v, cv in enumerate(c))


@dataclass(frozen=True)
class ConflictReport:
    """A forced monochromatic edge witnessing that no 3-coloring exists.

    `forced` replays the propagation: positions 0,1,2 seed colours 1,2,3 and
    every later position is determined by the triangle with its two
    predecessors; `edge` is the first wrap-around edge whose endpoints were
    forced to the same colour.
    """

    n: int
    edge: tuple[int, int]
    color: int
    forced: tuple[int, ...]


def sequence_three_coloring(n: int) -> Coloring:
    """Proper 3-coloring of the squared n-cycle for n divisible by 3."""
    if n % 3 != 0 or n < 6:
        raise ValueError(f"n={n} must be a multiple of 3, at least 6")
    return tuple(p % 3 + 1 for p in range(n))


def forced_coloring_conflict(n: int) -> ConflictReport:
    """Forced monochromatic edge showing the squared n-cycle has no 3-coloring.

    Seeds colours 1, 2, 3 on positions 0, 1, 2 (forced up to renaming, since
    they form a triangle) and propagates: every later position completes a
    triangle with its two predecessors, so its colour is determined.  When n
    is not a multiple of 3 the pattern cannot close, and one of the wrap
    edges comes back monochromatic; that edge is reported.
    """
    if n < 7:
        raise ValueError(f"n={n} too small")
    if n % 3 == 0:
        raise ValueError(f"n={n} is divisible by 3; no conflict exists")
    forced = [0] * n
    forced[0], forced[1], forced[2] = 1, 2, 3
    for p in range(3, n):
        forced[p] = 6 - forced[p - 1] - forced[p - 2]
    for u, w in ((n - 2, 0), (n - 1, 0), (n - 1, 1)):
        if forced[u] == forced[w]:
            return ConflictReport(n, (u, w), forced[u], tuple(forced))
    raise AssertionError(f"propagation closed without conflict at n={n}")


class CountingGraph(Graph):
    """A copy of a graph that counts its `neighbors` reads.

    The colouring search reads a vertex's neighbours exactly once per paint
    and once per unpaint, and peeling, the clique bound and the critical
    scan's recolouring read bitmasks only, so `reads` measures the search
    work done on the graph.
    """

    __slots__ = ("reads",)

    def __init__(self, g: Graph):
        super().__init__(g.n, (g.adjacency_mask(v) for v in range(g.n)))
        self.reads = 0

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.reads += 1
        return Graph.neighbors(self, v)


def per_trial_critical_scan(g: Graph, chi: int) -> tuple[frozenset[int], dict[int, Coloring]]:
    """`extract_vertex_critical` with one fresh search per trial.

    Each trial set is peeled to its (chi - 1)-core, a greedy clique of more
    than chi - 1 vertices refutes the core, and otherwise
    `find_k_coloring` searches the core from scratch.  A trial's colouring
    is kept when nothing peeled and no earlier trial deleted a vertex.
    """
    k = chi - 1
    keep = list(range(g.n))
    colorings: dict[int, Coloring] = {}
    for v in range(g.n):
        trial = [u for u in keep if u != v]
        if not trial:
            continue
        inside = sum(1 << u for u in trial)
        while True:
            low = [
                u for u in trial
                if inside >> u & 1 and (g.adjacency_mask(u) & inside).bit_count() < k
            ]
            if not low:
                break
            for u in low:
                inside ^= 1 << u
        core = [u for u in trial if inside >> u & 1]
        if not core:
            phi = (0,) * g.n
        elif _greedy_clique(g, inside) > k:
            phi = None
        else:
            phi = find_k_coloring(g, k, core)
        if phi is None:
            keep = trial
        elif len(core) == len(trial) and len(keep) == g.n:
            colorings[v] = phi
    return frozenset(keep), colorings


def chain_split_reference(g: Graph, v: int, phi: Coloring):
    """`neighborhood_split` on input it accepts (a regular graph, every
    colour around v), each B-vertex's Kempe chain built in full before the
    shortest path from it to A is sought inside it.

    Returns the split (A, B) or the hole it closes as `neighborhood_split`
    does, and None where that raises ContractError because a chain misses A;
    a ContractError from a probe of two B-vertices propagates.
    """
    by_color: dict[int, list[int]] = {}
    for u in g.neighbors(v):
        by_color.setdefault(phi[u], []).append(u)
    dup = next(c for c, verts in by_color.items() if len(verts) == 2)
    a_pair = tuple(sorted(by_color[dup]))
    b_set = sorted(u for u in g.neighbors(v) if u not in a_pair)
    hole = _probe_pairs(g, v, b_set, phi)
    if hole is not None:
        return hole
    for b in sorted(b_set, key=lambda u: phi[u]):
        chain = kempe_chain(g, phi, b, dup, phi[b])
        path = shortest_path_in_chain(g, chain, b, set(a_pair))
        if path is None:
            return None
        if len(path) > 2:
            return HighOddHoleWitness(tuple(path) + (v,))
    return a_pair, frozenset(b_set)
