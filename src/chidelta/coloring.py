"""Exact vertex colouring, Kempe chains, and vertex-critical subgraph extraction.

A colouring is a plain tuple, `Coloring`: `phi[v]` is v's colour in 1..k,
and 0 means v is uncoloured.  The solver is exact branch-and-bound with
saturation-degree ordering (DSatur) and a deterministic branching rule, so
every colouring it hands out is reproducible for a fixed graph labeling.  It
keeps each vertex's saturation incrementally, touching only the neighbours of
the vertex it paints or unpaints, and backtracks over an explicit stack of
(vertex, colour, colours used before it) frames, so search depth is not
bounded by the interpreter's recursion limit.  Every colourability
question, each trial of the critical-subgraph scan included, is decided
one way: peel to the k-core, let a greedy clique of more than k vertices
refute it, and otherwise search it.  The scan runs a trial only when no
recolouring of a colouring it already has proves the trial's vertex kept,
and it checks the chromatic number it is given: its first trial either
refutes the whole graph or is followed by one test of it.  A Kempe chain,
a two-colour component of a proper partial colouring, is the frozenset of
its vertices.

Inside the module a vertex set is a bitmask, bit v set when v is in it, like
the graph's adjacency rows: the colourability decision peels, bounds and
searches on masks from start to end, and only a search lists its uncoloured
vertices, in ascending order.  The public functions take vertex iterables and
hand vertex sets out as frozensets.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Container, Iterable, Iterator

from .graph import Graph, _bits, _reach

Coloring = tuple[int, ...]


def find_k_coloring(g: Graph, k: int, on: Iterable[int] | None = None) -> Coloring | None:
    """Proper coloring of exactly the vertices in `on` with <= k colors, or None.

    Branching picks the uncoloured vertex of maximum saturation (distinct
    colours among its coloured neighbours), ties broken by lowest id, and
    tries colours in ascending order allowing at most one fresh colour.

    Per-vertex, per-colour counts of coloured neighbours and the saturation
    they give are updated only over the neighbours of the vertex being painted
    or unpainted, so selection is one pass over the uncoloured vertices with
    no recounting.  Backtracking runs over an explicit stack of
    (vertex, colour, colours used before it) frames, not recursion, and puts
    a vertex that runs out of colours back among the uncoloured by value.
    """
    if k < 1:
        raise ValueError("palette size must be at least 1")
    return _search(g, k, _vertex_mask(g, on))


def _search(g: Graph, k: int, inside: int) -> Coloring | None:
    # The search of `find_k_coloring` on the vertices of the bitmask
    # `inside`: a k-colouring of exactly them, or None.  `free` holds the
    # uncoloured vertices still to select, ascending, and
    # seen[u * (k + 1) + c] the number of u's neighbours coloured c.
    free = list(_bits(inside))
    colors = [0] * g.n
    if not free:
        return tuple(colors)
    seen = [0] * (g.n * (k + 1))
    sat = [0] * g.n
    stack: list[tuple[int, int, int]] = []
    nbrs = g.neighbors
    stride = k + 1
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
            stack.append((v, c, used))
            if not free:
                return tuple(colors)
            if c > used:
                used = c
            c = 0
            continue
        # no colour left for v: put it back and move the previous vertex on
        insort(free, v)
        if not stack:
            return None
        v, c, used = stack.pop()
        colors[v] = 0
        for u in nbrs(v):
            j = u * stride + c
            seen[j] -= 1
            if not seen[j]:
                sat[u] -= 1


def _vertex_mask(g: Graph, on: Iterable[int] | None) -> int:
    # The vertices of `on` (default: all) as a bitmask.
    if on is None:
        return (1 << g.n) - 1
    inside = 0
    for v in on:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        inside |= 1 << v
    return inside


def _greedy_clique(g: Graph, inside: int) -> int:
    # Size of a clique in the subgraph induced by the bitmask `inside`: a
    # lower bound for the exact search, deterministic but heuristic.  Starts
    # at the vertex with the most neighbours inside (lowest id on ties),
    # then keeps adding the candidate with the most candidate neighbours.
    if not inside:
        return 0
    adj = g.adjacency_mask
    start, most = -1, -1
    for v in _bits(inside):
        d = (adj(v) & inside).bit_count()
        if d > most:
            start, most = v, d
    size = 1
    cand = adj(start) & inside
    while cand:
        best, best_score = -1, -1
        for v in _bits(cand):
            score = (adj(v) & cand).bit_count()
            if score > best_score:
                best, best_score = v, score
        size += 1
        cand &= adj(best)
    return size


def _peel(g: Graph, k: int, inside: int) -> int:
    # The k-core of the subgraph induced by the bitmask `inside`, as a mask.
    # A vertex with fewer than k neighbours can always be coloured last, so
    # peel such vertices until none is left: the rest is k-colourable
    # exactly when `inside` is.
    adj = g.adjacency_mask
    while True:
        before = inside
        for v in _bits(before):
            if (adj(v) & inside).bit_count() < k:
                inside ^= 1 << v
        if inside == before:
            return inside


def _core_coloring(g: Graph, k: int, core: int) -> Coloring | None:
    # A k-coloring of exactly the vertices of the bitmask `core`, a k-core,
    # or None: an empty core is coloured at once, a greedy clique of more
    # than k vertices refutes it, and otherwise one exact search decides.
    # The clique only cuts short a search that would return None.
    if not core:
        return (0,) * g.n
    if _greedy_clique(g, core) > k:
        return None
    return _search(g, k, core)


def _colorable(g: Graph, k: int, inside: int) -> bool:
    # Whether the vertices of the bitmask `inside` have a k-coloring,
    # decided on their k-core.
    return _core_coloring(g, k, _peel(g, k, inside)) is not None


def is_k_colorable(g: Graph, k: int, on: Iterable[int] | None = None) -> bool:
    """Whether the vertices in `on` (default: all) have a proper k-coloring.

    The same answer as `find_k_coloring(g, k, on) is not None`, decided with
    as little search as possible: peel vertices with fewer than k neighbours
    in the set down to its k-core; an empty core is coloured at once, a
    greedy clique of more than k vertices refutes the core, and otherwise
    one exact search on the core decides.
    """
    if k < 1:
        raise ValueError("palette size must be at least 1")
    return _colorable(g, k, _vertex_mask(g, on))


def chromatic_number(g: Graph) -> int:
    """Least k for which a proper k-coloring of all vertices exists (exact).

    Starts at the size of a greedy clique and raises k until the vertices
    are k-colourable, decided as in `is_k_colorable`.
    """
    if g.n == 0:
        raise ValueError("chromatic number of the empty graph")
    everything = (1 << g.n) - 1
    k = _greedy_clique(g, everything)
    while not _colorable(g, k, everything):
        k += 1
    return k


def kempe_chain(g: Graph, c: Coloring, start: int, a: int, b: int) -> frozenset[int]:
    """Vertex set of the component of `start` in the subgraph induced by colours {a, b}."""
    if a == b:
        raise ValueError("chain colours must be distinct")
    if c[start] not in (a, b):
        raise ValueError(f"start vertex {start} is not coloured {a} or {b}")
    within = sum(1 << v for v, col in enumerate(c) if col == a or col == b)
    return frozenset(_bits(_reach(g._adj, 1 << start, within)))


def shortest_path_in_chain(
    g: Graph, chain: Container[int], start: int, targets: Iterable[int]
) -> tuple[int, ...] | None:
    """Shortest path inside the chain from `start` to the nearest target.

    Breadth-first layers; each newly reached vertex records its lowest-id
    predecessor, and among targets in the first reachable layer the lowest id
    wins, so the returned path is deterministic.  The search only ever
    reaches the component of `start` inside `chain`, so `chain` may be any
    vertex set whose component of `start` is the chain, such as the union of
    the chain's two colour classes, and the path is the same.
    """
    if start not in chain:
        raise ValueError(f"start vertex {start} is not in the chain")
    goal = set(targets)
    if start in goal:
        return (start,)
    parent: dict[int, int] = {start: -1}
    frontier = [start]
    while True:
        discovered: dict[int, int] = {}
        for u in sorted(frontier):
            for w in g.neighbors(u):
                if w in chain and w not in parent and w not in discovered:
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


def _recolorings(g: Graph, colors: list[int], v: int, later: int) -> Iterator[int]:
    # Vertices proven kept by recolouring, from `colors`, a proper colouring
    # of exactly keep - v (0 elsewhere).  If u is the only neighbour of the
    # uncoloured x coloured c, then x coloured c with u uncoloured is a
    # colouring of exactly keep - u with the same palette, so u is kept.
    # That holds for every u in keep, so the search runs depth first over
    # every vertex such steps can uncolour, each at most once, in place:
    # `path` holds the vertices uncoloured before the current one, and
    # backing out of a vertex undoes its swap.  Each step goes to the lowest qualifying
    # vertex of the bitmask `later` if there is one, else to the lowest
    # other; so the search first walks the chain of lowest `later` steps.
    # Yields each vertex of `later` it reaches, with `colors` changed in
    # place to that colouring of keep - u, and stops once all are reached.
    seen = 1 << v
    path: list[tuple[int, int]] = []  # (vertex, its lone neighbours)
    x, lone = v, _lone_neighbors(g, colors, v)
    while later:
        todo = lone & ~seen
        if todo:
            low = todo & later or todo
            low &= -low
            u = low.bit_length() - 1
            colors[x], colors[u] = colors[u], 0
            seen |= low
            path.append((x, lone))
            if later & low:
                later ^= low
                yield u
            x, lone = u, _lone_neighbors(g, colors, u)
        elif path:
            u = x
            x, lone = path.pop()
            colors[x], colors[u] = 0, colors[x]
        else:
            return


def _lone_neighbors(g: Graph, colors: list[int], x: int) -> int:
    # The bitmask of x's coloured neighbours that no other neighbour of x
    # shares a colour with.
    owner: dict[int, int] = {}  # colour -> its only neighbour of x, or -1
    for u in _bits(g.adjacency_mask(x)):
        c = colors[u]
        if c:
            owner[c] = -1 if c in owner else u
    return sum(1 << u for u in owner.values() if u >= 0)


def extract_vertex_critical(
    g: Graph, chi: int
) -> tuple[frozenset[int], dict[int, Coloring]] | None:
    """Vertex set of a vertex-critical subgraph with the same chromatic number,
    and the colorings that kept its vertices; None if g is (chi - 1)-colourable.

    Takes the chromatic number chi of g as the caller claims it, g being
    chi-colourable (an empty g or a chi below 1 raises ValueError); then
    one scan in ascending vertex order deletes every vertex whose removal
    keeps chi.  Deleting vertices never raises chi, so v can go exactly
    when the remaining vertices admit no (chi - 1)-coloring.
    That is decided as `is_k_colorable` decides it: peel to the
    (chi - 1)-core; an empty core is coloured at once, a greedy clique of
    more than chi - 1 vertices refutes the core, and otherwise one exact
    search on the core decides.  The clique only cuts short a search that
    would return None, so it never changes a coloring returned.  One pass
    suffices: a vertex found necessary in a superset stays necessary in
    every later subset, so a rescan would delete nothing.

    The scan keeps the (chi - 1)-core of the kept set, and the k-core is
    unique: the core of keep - v is the core of (core of keep) - v.  So a
    trial whose v is outside the kept set's core has that core as its own,
    and otherwise the trial peels that core minus v, not all of keep - v.

    The scan also checks the claim that chi is not too high.  If trial 0
    deletes vertex 0, g - 0 and so g have no (chi - 1)-coloring.  Otherwise
    the test of all of g follows at once, before any other trial: a colour
    that trial 0's coloring of g - 0 leaves free around vertex 0 colours
    g, and else one `is_k_colorable` test of g decides.  If g is
    (chi - 1)-colourable, the scan returns None.

    A kept vertex v is kept because the other remaining vertices have a
    (chi - 1)-coloring.  When peeling removed none of them, that coloring
    phi covers the whole trial set keep - v, and it proves later vertices
    kept by recolouring.  If u is the only neighbour of v in keep coloured
    phi(u), then phi with v coloured phi(u) and u uncoloured is a
    (chi - 1)-coloring of keep - u, so u is kept.  That holds for every u
    in keep, whether its trial is past, proven or still to come, so from
    phi the scan searches every vertex it can uncolour by such steps,
    depth first and in place, each vertex once, undoing each step as it
    backs out; every vertex it reaches whose trial is still to come is
    proven.  Each step goes to the lowest such vertex if one qualifies, so
    the search first walks the chain of those.  The scan only shrinks
    keep, so keep' - u, a subset of keep - u, stays colourable for every
    later kept set keep'.  A proven vertex skips its trial: no peel, no
    greedy clique, no search.  The kept set is the one the trials would
    give.  On C_n^2 with n = 1 (mod 3), trial 0's coloring proves every
    other vertex kept; with n = 2 (mod 3), trial 0 deletes vertex 0, and
    one kept trial's coloring proves the rest.

    While no trial has deleted a vertex, each of these colorings is one of
    g - v, and it is returned in the dict under v: for a trial that
    searched, the coloring `find_k_coloring(g, chi - 1, others)` returns,
    and for a proven vertex, the search's.  If the scan deletes nothing from
    a chi-regular g, no trial set peels either (each of its vertices keeps
    at least chi - 1 neighbours), so a coloring of g - v is returned for
    every v: the regular branch of the proof route relies on it, and reads
    the dict nowhere else.

    The kept set, its core, each trial set and the trial's core are vertex
    bitmasks: trial v is keep with bit v cleared (v is still kept, since
    only trial v deletes it), a core that differs from its trial set has
    peeled, and the kept set is handed out as a frozenset.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    if chi < 1:
        raise ValueError("chromatic number must be at least 1")
    k = chi - 1
    everything = keep = (1 << g.n) - 1
    base = _peel(g, k, keep)  # the k-core of keep
    colorings: dict[int, Coloring] = {}
    proven = 0  # later trials' vertices proven kept by recolouring
    for v in range(g.n):
        if proven >> v & 1:
            continue
        trial = keep ^ 1 << v  # v is still kept: only trial v deletes it
        core = _peel(g, k, base ^ 1 << v) if base >> v & 1 else base
        phi = _core_coloring(g, k, core)
        if phi is None:
            keep, base = trial, core
            continue
        if not v:  # is g itself (chi - 1)-colourable?
            around = {phi[u] for u in _bits(g.adjacency_mask(0))}
            if core == trial and len(around) < k or _colorable(g, k, base):
                return None
        if core != trial:
            continue
        whole = keep == everything
        if whole:
            colorings[v] = phi
        colors = list(phi)
        for u in _recolorings(g, colors, v, keep & ~proven & -(2 << v)):
            proven |= 1 << u
            if whole:
                colorings[u] = tuple(colors)
    return frozenset(_bits(keep)), colorings
