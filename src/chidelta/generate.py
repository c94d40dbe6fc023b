"""Isomorphism-free enumeration of connected graphs.

Generation grows graphs one vertex at a time: every connected graph arises
from a connected graph one vertex smaller by attaching the new vertex to a
nonempty subset (remove any non-cutvertex to see this).  Parents are taken in
the order of the level below and, for each parent, subsets in ascending mask
order; a child is kept when its isomorphism class has not been seen before,
so each class is represented by its first-seen child.  Classes are told apart
by a canonical code: the least upper-triangle adjacency code over the
orderings that respect an isomorphism-invariant ordered partition.

Two subsets of a parent that an automorphism of the parent maps onto each
other give isomorphic children, so only the least subset of each orbit is
tried: every other subset's child belongs to a class already seen from the
same parent, so skipping it changes no representative.  The automorphisms
come from the parent's own canonical search: any two orderings with the
least code differ by an automorphism.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .graph import Graph

GENERATION_CAP = 9


# ---------------------------------------------------------------------------
# canonical form


def _cells(n: int, adj: tuple[int, ...]) -> list[int]:
    """Cells, as vertex masks in invariant order, of one refinement round:
    vertices are split by degree and then by how many neighbours they have
    of each degree.  Counts fit in four bits for n <= 16.
    """
    by_degree = [0] * n
    for v in range(n):
        by_degree[adj[v].bit_count()] |= 1 << v
    classes = [c for c in by_degree if c]
    cells: dict[int, int] = {}
    for v in range(n):
        row = adj[v]
        sig = row.bit_count()
        for c in classes:
            sig = sig << 4 | (row & c).bit_count()
        cells[sig] = cells.get(sig, 0) | 1 << v
    return [cells[sig] for sig in sorted(cells)]


def _search(n: int, adj: tuple[int, ...]) -> tuple[int, list[list[int]]]:
    """Canonical code of the graph, and automorphisms found on the way.

    The code is the least upper-triangle adjacency code (column by column)
    over the vertex orderings that place the cells of `_cells` in order.
    Position d is filled from its cell by the unplaced vertices whose column
    against the placed ones is least; a prefix worse than the best seen at
    its depth is cut.  A leaf with the same code as the best leaf gives an
    automorphism (best leaf's vertex at each position to this leaf's), and
    the rest of the subtree where the two leaves part is that automorphism's
    image of a subtree already searched, so the search resumes above it.

    The search runs on an explicit stack: per depth, the untried candidates,
    the code with that depth's column appended, and the placed-vertex mask.
    """
    at: list[int] = []
    for cell in _cells(n, adj):
        at += [cell] * cell.bit_count()
    best = [-1] * (n + 2)  # best code prefix per depth; -1 means none yet
    path = [0] * n
    best_path = path
    autos: list[list[int]] = []
    untried = [0] * n
    codes = [0] * n
    masks = [0] * n
    d = code = placed = 0
    while True:
        cur = best[d]
        if cur < 0 or code < cur:
            best[d] = code
            best[d + 1] = -1  # deeper bests are stale; each is reset on the way down
            if d == n:
                best_path = path[:]
            expand = d < n
        elif code == cur and d == n:
            perm = [0] * n
            for i in range(n):
                perm[best_path[i]] = path[i]
            autos.append(perm)
            d = 0
            while path[d] == best_path[d]:
                d += 1
            d += 1  # resume at the depth where the two leaves part
            expand = False
        else:
            expand = code == cur
        if expand:
            group = at[d] & ~placed
            column = 0
            for i in range(d):
                apart = group & ~adj[path[i]]
                if apart:
                    group = apart
                    column <<= 1
                else:
                    column = column << 1 | 1
            untried[d] = group
            codes[d] = code << d | column
            masks[d] = placed
            d += 1
        d -= 1
        while d >= 0 and not untried[d]:
            d -= 1
        if d < 0:
            return best[n], autos
        group = untried[d]
        bit = group & -group
        untried[d] = group ^ bit
        path[d] = bit.bit_length() - 1
        code = codes[d]
        placed = masks[d] | bit
        d += 1


def _canonical_code(n: int, adj: tuple[int, ...]) -> int:
    """Complete isomorphism invariant: equal exactly for isomorphic graphs."""
    return _search(n, adj)[0]


def _orbit_minima(n: int, autos: list[list[int]]) -> list[int]:
    """Nonempty vertex masks, ascending, that are least in their orbit under
    the group generated by the permutations `autos` of range(n)."""
    top = 1 << n
    if not autos:
        return list(range(1, top))
    images = []
    for perm in autos:
        image = [0] * top
        for mask in range(1, top):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << perm[low.bit_length() - 1]
        images.append(image)
    done = bytearray(top)
    out = []
    for mask in range(1, top):
        if done[mask]:
            continue
        out.append(mask)
        done[mask] = 1
        todo = [mask]
        while todo:
            m = todo.pop()
            for image in images:
                m2 = image[m]
                if not done[m2]:
                    done[m2] = 1
                    todo.append(m2)
    return out


@lru_cache(maxsize=None)
def _connected_level(n: int) -> tuple[tuple[int, ...], ...]:
    """One adjacency tuple per isomorphism class of connected graphs on n vertices.

    Each class is represented by its first-seen child: parents in the order
    of level n - 1, and for each parent the new vertex's neighbour masks in
    ascending order.  Masks that are not least in their orbit under the
    parent's automorphisms are skipped.  This is exact for any set of
    automorphisms: if sigma(mask) < mask for an automorphism sigma, the child
    from sigma(mask) is isomorphic to this one (sigma, fixing the new vertex,
    maps one onto the other) and was examined earlier from the same parent,
    so this child's class is already seen and it would not be kept.
    """
    if n == 1:
        return ((0,),)
    out: list[tuple[int, ...]] = []
    seen: set[int] = set()
    new = n - 1
    for parent in _connected_level(new):
        for mask in _orbit_minima(new, _search(new, parent)[1]):
            rows = [row | (mask >> v & 1) << new for v, row in enumerate(parent)]
            rows.append(mask)
            adj = tuple(rows)
            code = _canonical_code(n, adj)
            if code not in seen:
                seen.add(code)
                out.append(adj)
    return tuple(out)


def generate_connected_graphs(n: int) -> Iterator[Graph]:
    """Stream one representative per isomorphism class of connected graphs on n vertices."""
    if not 1 <= n <= GENERATION_CAP:
        raise ValueError(f"order {n} outside supported range 1..{GENERATION_CAP}")
    for adj in _connected_level(n):
        yield Graph(n, adj)
