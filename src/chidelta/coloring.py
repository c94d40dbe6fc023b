"""Exact vertex colouring, Kempe chains, and vertex-critical subgraph extraction.

The solver is exact branch-and-bound with saturation-degree ordering (DSatur)
and a deterministic branching rule, so every coloring it hands out is
reproducible for a fixed graph labeling.  It keeps each vertex's saturation
incrementally, touching only the neighbours of the vertex it paints or
unpaints, and backtracks over an explicit stack, so search depth is not
bounded by the interpreter's recursion limit.  Kempe machinery works on
two-colour components of a proper partial coloring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Graph


@dataclass(frozen=True)
class Coloring:
    """Partial vertex coloring: colors 1..k, with 0 meaning uncoloured."""

    k: int
    colors: tuple[int, ...]

    def color_of(self, v: int) -> int:
        return self.colors[v]

    def is_colored(self, v: int) -> bool:
        return self.colors[v] != 0

    def colored_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, c in enumerate(self.colors) if c)


@dataclass(frozen=True)
class KempeChain:
    """A maximal connected two-colour component containing `start`."""

    colors: tuple[int, int]
    start: int
    members: frozenset[int]


def is_proper(g: Graph, c: Coloring, on: Iterable[int] | None = None) -> bool:
    """True iff no edge inside `on` (default: all coloured vertices) is monochromatic."""
    verts = sorted(set(on)) if on is not None else list(c.colored_vertices())
    inside = set(verts)
    for v in verts:
        if not c.is_colored(v):
            raise ValueError(f"vertex {v} is uncoloured")
    for v in verts:
        cv = c.colors[v]
        for u in g.neighbors(v):
            if u in inside and c.colors[u] == cv:
                return False
    return True


def find_k_coloring(g: Graph, k: int, on: Iterable[int] | None = None) -> Coloring | None:
    """Proper coloring of exactly the vertices in `on` with <= k colors, or None.

    Branching picks the uncoloured vertex of maximum saturation (distinct
    colours among its coloured neighbours), ties broken by lowest id, and
    tries colours in ascending order allowing at most one fresh colour.

    Per-vertex, per-colour counts of coloured neighbours and the saturation
    they give are updated only over the neighbours of the vertex being painted
    or unpainted, so selection is one pass over the uncoloured vertices with
    no recounting.  Backtracking runs over an explicit stack of
    (vertex, its index among the uncoloured, colour, colours used before it)
    frames, not recursion.
    """
    if k < 1:
        raise ValueError("palette size must be at least 1")
    free = _vertex_list(g, on)
    if not free:
        return Coloring(k, (0,) * g.n)
    nbrs = g.neighbors
    stride = k + 1
    colors = [0] * g.n
    seen = [0] * (g.n * stride)  # seen[u * stride + c]: neighbours of u coloured c
    sat = [0] * g.n  # distinct colours among u's coloured neighbours
    stack: list[tuple[int, int, int, int]] = []  # (vertex, index in free, colour, used before)
    used = 0  # highest colour in use
    c = 0  # colour last tried at v; 0 means select a new v
    while True:
        if c == 0:
            # select: uncoloured vertex of maximum saturation, ties to the lowest
            # id (`free` ascending); saturation never exceeds `used`
            best = -1
            for j, u in enumerate(free):
                s = sat[u]
                if s > best:
                    best, i = s, j
                    if s == used:
                        break
            v = free.pop(i)
        # next colour above c not seen next to v, at most one fresh colour
        base = v * stride
        top = k if used >= k else used + 1
        c += 1
        while c <= top and seen[base + c]:
            c += 1
        if c <= top:
            colors[v] = c
            for u in nbrs(v):
                j = u * stride + c
                if not seen[j]:
                    sat[u] += 1
                seen[j] += 1
            stack.append((v, i, c, used))
            if not free:
                return Coloring(k, tuple(colors))
            if c > used:
                used = c
            c = 0
            continue
        # no colour left for v: put it back and move the previous vertex on
        free.insert(i, v)
        if not stack:
            return None
        v, i, c, used = stack.pop()
        colors[v] = 0
        for u in nbrs(v):
            j = u * stride + c
            seen[j] -= 1
            if not seen[j]:
                sat[u] -= 1


def _vertex_list(g: Graph, on: Iterable[int] | None) -> list[int]:
    # The distinct vertices of `on` (default: all) in ascending order.
    if on is None:
        return list(range(g.n))
    verts = sorted(set(on))
    for v in verts:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    return verts


def _greedy_clique(g: Graph, verts: list[int]) -> list[int]:
    # Lower bound for the exact search on the subgraph induced by the
    # distinct ascending `verts`; deterministic but heuristic.  Starts at
    # the vertex with the most neighbours in `verts` (lowest id on ties),
    # then keeps adding the candidate with the most candidate neighbours.
    if not verts:
        return []
    adj = g.adjacency_mask
    inside = 0
    for v in verts:
        inside |= 1 << v
    start, most = -1, -1
    for v in verts:
        d = (adj(v) & inside).bit_count()
        if d > most:
            start, most = v, d
    clique = [start]
    cand = adj(start) & inside
    while cand:
        best = -1
        best_score = -1
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            score = (adj(v) & cand).bit_count()
            if score > best_score:
                best_score = score
                best = v
        clique.append(best)
        cand &= adj(best)
    return clique


def _core_coloring(
    g: Graph, k: int, verts: list[int], clique_fits: bool = False
) -> tuple[list[int], Coloring | None]:
    # The k-core of the subgraph induced by the distinct ascending `verts`,
    # and a k-coloring of it, or None when `verts` has no k-coloring.  A
    # vertex with fewer than k neighbours can always be coloured last, so
    # peel such vertices until none is left: the rest is the k-core, which
    # is k-colourable exactly when `verts` is.  A greedy clique of more than k
    # vertices lies inside the core and settles it without a search; a
    # caller that knows the greedy clique of `verts` to have at most k
    # vertices passes `clique_fits`, and it is not recomputed unless peeling
    # changed the set.  The clique only cuts short a search that would
    # return None, so it never changes the coloring returned.  An empty
    # core gets the empty coloring `find_k_coloring(g, k, [])` would return,
    # without the clique or the search.
    adj = g.adjacency_mask
    inside = 0
    for v in verts:
        inside |= 1 << v
    core = verts
    while True:
        left = []
        for v in core:
            if (adj(v) & inside).bit_count() >= k:
                left.append(v)
            else:
                inside ^= 1 << v
        if len(left) == len(core):
            break
        core = left
    if not core:
        return core, Coloring(k, (0,) * g.n)
    if not (clique_fits and core is verts) and len(_greedy_clique(g, core)) > k:
        return core, None
    return core, find_k_coloring(g, k, core)


def is_k_colorable(g: Graph, k: int, on: Iterable[int] | None = None) -> bool:
    """Whether the vertices in `on` (default: all) have a proper k-coloring.

    The same answer as `find_k_coloring(g, k, on) is not None`, decided with
    as little search as possible: peel vertices with fewer than k neighbours
    in the set down to its k-core, bound by a greedy clique of the core,
    then one exact search on the core.
    """
    if k < 1:
        raise ValueError("palette size must be at least 1")
    return _core_coloring(g, k, _vertex_list(g, on))[1] is not None


def chromatic_number(g: Graph) -> int:
    """Least k for which a proper k-coloring of all vertices exists (exact).

    Starts at the size of a greedy clique and raises k until the vertices
    are k-colourable, decided as in `is_k_colorable`.  The greedy clique of
    all vertices never exceeds k here, so it is recomputed only on a core
    that peeling made smaller.
    """
    if g.n == 0:
        raise ValueError("chromatic number of the empty graph")
    verts = list(range(g.n))
    k = len(_greedy_clique(g, verts))
    while _core_coloring(g, k, verts, clique_fits=True)[1] is None:
        k += 1
    return k


def kempe_chain(g: Graph, c: Coloring, start: int, a: int, b: int) -> KempeChain:
    """Connected component of `start` in the subgraph induced by colours {a, b}."""
    if a == b:
        raise ValueError("chain colours must be distinct")
    if c.colors[start] not in (a, b):
        raise ValueError(f"start vertex {start} is not coloured {a} or {b}")
    members = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for u in g.neighbors(v):
                if u not in members and c.colors[u] in (a, b):
                    members.add(u)
                    nxt.append(u)
        frontier = nxt
    return KempeChain((a, b), start, frozenset(members))


def kempe_swap(c: Coloring, chain: KempeChain) -> Coloring:
    """Exchange the chain's two colours on its members; everything else unchanged."""
    a, b = chain.colors
    swapped = list(c.colors)
    for v in chain.members:
        if swapped[v] == a:
            swapped[v] = b
        elif swapped[v] == b:
            swapped[v] = a
    return Coloring(c.k, tuple(swapped))


def shortest_path_in_chain(
    g: Graph, chain: KempeChain, start: int, targets: Iterable[int]
) -> tuple[int, ...] | None:
    """Shortest path inside the chain from `start` to the nearest target.

    Breadth-first layers; each newly reached vertex records its lowest-id
    predecessor, and among targets in the first reachable layer the lowest id
    wins, so the returned path is deterministic.
    """
    if start not in chain.members:
        raise ValueError(f"start vertex {start} is not in the chain")
    goal = set(targets)
    if start in goal:
        return (start,)
    parent: dict[int, int] = {start: -1}
    frontier = [start]
    while frontier:
        discovered: dict[int, int] = {}
        for u in sorted(frontier):
            for w in g.neighbors(u):
                if w in chain.members and w not in parent and w not in discovered:
                    discovered[w] = u
        if not discovered:
            return None
        parent.update(discovered)
        hits = sorted(w for w in discovered if w in goal)
        if hits:
            path = [hits[0]]
            while path[-1] != start:
                path.append(parent[path[-1]])
            return tuple(reversed(path))
        frontier = list(discovered)
    return None


def extract_vertex_critical(
    g: Graph, chi: int | None = None, colorings: dict[int, Coloring] | None = None
) -> frozenset[int]:
    """Vertex set of a vertex-critical subgraph with the same chromatic number.

    Takes the chromatic number chi of g from a caller that already has it,
    or computes it once; then one scan in ascending vertex order deletes
    every vertex whose removal keeps chi.  Deleting vertices never raises
    chi, so v can go exactly when the remaining vertices admit no
    (chi - 1)-coloring.  `_core_coloring` decides that as `is_k_colorable`
    does: peel to the (chi - 1)-core, bound by a greedy clique, then one
    exact search on the core.  One pass suffices: a vertex found necessary
    in a superset stays necessary in every later subset, so a rescan would
    delete nothing.

    A kept vertex v is kept because the other remaining vertices have a
    (chi - 1)-coloring.  When peeling removed none of them, that coloring
    covers the whole trial set, and if `colorings` is given it is stored
    there under v.  When no vertex before v was deleted, it is the coloring
    of g - v that `find_k_coloring(g, chi - 1, others)` returns.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    target = chromatic_number(g) if chi is None else chi
    keep = list(range(g.n))
    for v in range(g.n):
        trial = [u for u in keep if u != v]
        if not trial:
            continue
        core, phi = _core_coloring(g, target - 1, trial)
        if phi is None:
            keep = trial
        elif colorings is not None and len(core) == len(trial):
            colorings[v] = phi
    return frozenset(keep)
