"""Brute-force certificate search, independent of the probe path.

Everything here is exhaustive search over small graphs: backtracking clique
search with bitmask intersection pruning, anchored chordless-cycle
enumeration for high odd holes, and direct structural recognition of the
7-vertex exceptional graph.  Both searches backtrack over explicit stacks,
so their depth is not bounded by the interpreter's recursion limit.
`oracle_witness` returns an unchecked certificate; its callers verify it
with the checker in `certificate`, where the types are defined.
"""

from __future__ import annotations

from collections.abc import Iterator

from .certificate import Certificate, CliqueWitness, ExceptionalC7Complement, HighOddHoleWitness
# re-exported for bench/run.py, which imports the checker from here
from .certificate import verify_certificate  # noqa: F401
from .graph import Graph, complement, max_degree


def find_clique(g: Graph, k: int) -> frozenset[int] | None:
    """Lexicographically least k-clique (as a vertex set), or None.

    Depth-first over ascending vertex ids with candidate-mask intersection,
    one stack entry of untried candidates per chosen vertex; because subsets
    are explored in lexicographic order and pruning only discards infeasible
    branches, the first hit is the least witness.
    """
    if k < 1:
        raise ValueError("clique size must be at least 1")
    if k > g.n:
        return None
    chosen: list[int] = []
    cands = [(1 << g.n) - 1]  # cands[i]: untried extensions of chosen[:i]
    while len(chosen) < k:
        cand = cands[-1]
        if cand.bit_count() < k - len(chosen):
            cands.pop()
            if not chosen:
                return None
            chosen.pop()
            continue
        low = cand & -cand
        v = low.bit_length() - 1
        cands[-1] = cand ^ low
        chosen.append(v)
        cands.append(cand & g.adjacency_mask(v))
    return frozenset(chosen)


def odd_holes(g: Graph, degree_floor: int = 0) -> Iterator[tuple[int, ...]]:
    """Enumerate chordless odd cycles of length >= 5 on vertices meeting the floor.

    Each cycle is anchored at its least vertex and reported once: paths grow
    from the anchor through ascending extensions that stay chordless, and a
    closure is emitted only when the second vertex id is below the last,
    killing the reflected traversal.  The paths are grown depth-first over an
    explicit stack of frames, one per path vertex after the anchor.
    """
    candidates = 0
    for v in range(g.n):
        if g.degree(v) >= degree_floor:
            candidates |= 1 << v

    for a in range(g.n):
        if not candidates >> a & 1:
            continue
        above = candidates & ~((1 << (a + 1)) - 1)
        closing = g.adjacency_mask(a)
        for u in g.neighbors(a):
            if not above >> u & 1:
                continue
            # frame: (untried extensions of the path's last vertex, vertices
            # on the path, neighbours of the path's earlier vertices)
            path = [a, u]
            on_path = (1 << a) | (1 << u)
            stack = [(g.adjacency_mask(u) & above & ~on_path, on_path, 0)]
            while stack:
                m, on_path, blocked = stack[-1]
                if not m:
                    stack.pop()
                    path.pop()
                    continue
                low = m & -m
                w = low.bit_length() - 1
                stack[-1] = (m ^ low, on_path, blocked)
                if closing >> w & 1:
                    length = len(path) + 1
                    if length >= 5 and length % 2 == 1 and path[1] < w:
                        yield tuple(path) + (w,)
                    continue
                blocked |= g.adjacency_mask(path[-1])
                on_path |= low
                path.append(w)
                stack.append((g.adjacency_mask(w) & above & ~on_path & ~blocked, on_path, blocked))


def find_high_odd_hole(g: Graph) -> tuple[int, ...] | None:
    """First chordless odd cycle >= 5 all of whose vertices have degree >= max degree - 1."""
    if g.n == 0:
        return None
    floor = max_degree(g) - 1
    for cycle in odd_holes(g, floor):
        return cycle
    return None


def is_c7_complement(g: Graph) -> tuple[int, ...] | None:
    """Positions of the vertices along the complement 7-cycle, or None.

    Succeeds iff g has 7 vertices, is 4-regular, and its complement is a
    single 7-cycle; the walk starts at vertex 0 and takes the lower-id
    neighbour first, so the map is deterministic.
    """
    if g.n != 7 or any(g.degree(v) != 4 for v in range(7)):
        return None
    # the complement is 2-regular, so the walk has one way on from each
    # vertex, and it is one 7-cycle unless the walk returns to 0 early
    comp = complement(g)
    order = [0, comp.neighbors(0)[0]]
    while len(order) < 7:
        tail, prev = order[-1], order[-2]
        step = next(u for u in comp.neighbors(tail) if u != prev)
        if step in order:
            return None
        order.append(step)
    positions = [0] * 7
    for pos, v in enumerate(order):
        positions[v] = pos
    return tuple(positions)


def oracle_witness(g: Graph) -> Certificate | None:
    """Brute-force certificate: clique first, then high odd hole, then the exception."""
    if g.n == 0:
        return None
    delta = max_degree(g)
    if delta >= 1:
        clique = find_clique(g, delta)
        if clique is not None:
            return CliqueWitness(clique)
    hole = find_high_odd_hole(g)
    if hole is not None:
        return HighOddHoleWitness(hole)
    positions = is_c7_complement(g)
    if positions is not None:
        return ExceptionalC7Complement(positions)
    return None
