"""Isomorphism-free enumeration of connected graphs by canonical augmentation.

Generation grows graphs one vertex at a time: every connected graph arises
from a connected graph one vertex smaller by attaching the new vertex to a
nonempty subset (remove any non-cut vertex to see this).  Each class is
emitted once, and no record of the classes seen is kept (B. D. McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  A child is
built on its parent's labels plus the new vertex; `canonical_form` relabels
it only where something reads the class representative.

- Canonical form.  `_search` finds the least upper-triangle adjacency code
  over the orderings that respect an isomorphism-invariant ordered
  partition, one ordering with that code (the best leaf) and automorphisms
  found on the way.  Any two orderings with the least code differ by an
  automorphism.  A class is represented by the graph decoded from its code,
  so the representative depends only on the class.  A canonical level is
  held as the array of its classes' codes, 8 bytes per class, and a graph
  is decoded from its code when it is extended or yielded.  Every level
  below the one generated is canonical: its graphs are the parents.
- Canonical deletion.  In a graph C, take the non-cut vertices whose
  invariant (degree, then the sum of the neighbours' degrees) is largest,
  and among them the one the best leaf places last.  An isomorphism carries
  invariants, cut vertices and best leaves from one graph to the other, and
  best leaves differ by automorphisms, so the Aut(C)-orbit of this vertex
  depends only on C up to isomorphism.
- Acceptance.  The representative P of each class one vertex smaller gets a
  new vertex w joined to each nonempty mask that is least in its orbit
  under Aut(P), and the child C = P + w is kept exactly when w lies in the
  Aut(C)-orbit of C's canonical deletion vertex.
- Degree threshold.  Let top be the largest degree of a non-cut vertex u of
  P.  A mask S with 2 <= |S| < top is not tried: u stays non-cut in C, as
  P - u is connected and S has a vertex other than u, and its degree in C is
  at least top > |S|, the degree of w.  Degree leads the invariant, so w
  ranks below u and is not in the orbit of the canonical deletion vertex.
  Automorphisms keep |S|, so leaving these masks out changes no other orbit.

Every class is emitted: from a graph of the class delete its canonical
deletion vertex m; what remains is connected, so an isomorphism carries it
onto a representative P and m's neighbours onto a mask S of P.  The child
from the least mask in the Aut(P)-orbit of S is isomorphic to the graph by an
isomorphism taking w to m, so it is tried (the threshold drops only
children that would be rejected) and kept.  No class is emitted
twice: if kept children P + S and P' + S' are isomorphic, some isomorphism
between them takes w to w, since in both w lies in the orbit of the
canonical deletion vertex.  It restricts to an isomorphism of P onto P', so
P = P' as the parents are one graph per class, and to an automorphism of P
taking S to S', so S = S' as both are least in their orbit.  The argument
needs one parent per class, not canonical labels on the children, so a
level that is only streamed needs no search of the children that the
acceptance test does not search.

Orbits are taken under the group generated by the automorphisms `_search`
finds, so the argument needs that group to be the whole automorphism group.
The tests compare its vertex orbits with brute force, and the class counts
with OEIS A001349.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache

from .graph import Graph, _graph, _reach, _triangle_rows

# A level's codes have n(n - 1)/2 bits, so its array's 64-bit words hold them up to n = 11.
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


def _search(n: int, adj: tuple[int, ...]) -> tuple[int, list[list[int]], list[int]]:
    """Canonical code of the graph, automorphisms found on the way, and the
    best leaf: the vertex at each position of an ordering with that code.

    The code is the least upper-triangle adjacency code (column by column,
    the graph6 bit vector of the reordered graph) over the vertex orderings
    that place the cells of `_cells` in order.
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
            return best[n], autos, best_path
        group = untried[d]
        bit = group & -group
        untried[d] = group ^ bit
        path[d] = bit.bit_length() - 1
        code = codes[d]
        placed = masks[d] | bit
        d += 1


@lru_cache(maxsize=None)
def _masks(n: int, least: int) -> tuple[int, ...]:
    """Nonempty masks of range(n), ascending, but for those of 2 to least - 1 vertices."""
    return tuple(m for m in range(1, 1 << n) if m & (m - 1) == 0 or m.bit_count() >= least)


def _orbit_minima(n: int, autos: list[list[int]], least: int = 1) -> list[int]:
    """Nonempty vertex masks, ascending, that are least in their orbit under
    the group generated by the permutations `autos` of range(n).  Masks of 2
    to least - 1 vertices are left out; orbits keep the vertex count, so this
    changes no other mask's orbit."""
    top = 1 << n
    masks = _masks(n, least)
    if not autos:
        return list(masks)
    images = []
    for perm in autos:
        image = [0] * top
        for mask in range(1, top):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << perm[low.bit_length() - 1]
        images.append(image)
    done = bytearray(top)
    out = []
    for mask in masks:
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


def _orbit(v: int, autos: list[list[int]]) -> int:
    """Mask of the orbit of vertex v under the group generated by `autos`."""
    orbit = 1 << v
    todo = [v]
    while todo:
        u = todo.pop()
        for perm in autos:
            w = perm[u]
            if not orbit >> w & 1:
                orbit |= 1 << w
                todo.append(w)
    return orbit


def _components(adj: tuple[int, ...], keep: int) -> list[int]:
    """Vertex masks of the components of the subgraph induced by mask `keep`."""
    out = []
    while keep:
        out.append(_reach(adj, keep & -keep, keep))
        keep ^= out[-1]
    return out


def _children(n: int) -> Iterator[tuple[list[int], int | None]]:
    """The rows of each child kept at level n, in emission order, labelled as
    built: the parent's representative on 0..n - 2 and the new vertex
    w = n - 1.  Each comes with its `_search` code when the acceptance test
    searched it, else None.

    Each representative P of level n - 1 gets w joined to each mask least in
    its orbit under P's automorphisms, and the child C is kept exactly when w
    lies in the Aut(C)-orbit of C's canonical deletion vertex.  Invariants
    are packed as degree << 8 | neighbour degree sum, which fits for n <= 16.
    A child in which some non-cut vertex has a larger invariant than w is
    rejected before any search.  Before that, a mask of 2 to top - 1
    vertices, top the largest degree of a non-cut vertex of P, is not even
    built: that vertex beats w by degree.  Only vertices whose degree in C
    reaches k = |mask|, the degree of w, are compared with w.  A child in
    which no non-cut vertex ties w is kept without a search: w alone has
    the largest invariant, so it is the canonical deletion vertex.  Only a
    tied child is searched, for the orbit test.  The module docstring shows
    that this emits every class exactly once.
    """
    if n == 1:
        yield [0], 0
        return
    new = n - 1
    everyone = (1 << new) - 1
    for parent_code in _connected_level(new):
        parent = tuple(_triangle_rows(new, parent_code))
        degree = [row.bit_count() for row in parent]
        dsum = [0]  # dsum[m]: sum of the degrees of the vertices in mask m
        for d in degree:
            dsum += [s + d for s in dsum]
        keys = [degree[v] << 8 | dsum[row] for v, row in enumerate(parent)]
        # v is a non-cut vertex of P + w exactly when w meets every component of P - v
        parts = [_components(parent, everyone ^ 1 << v) for v in range(new)]
        top = max((degree[v] for v in range(new) if len(parts[v]) == 1), default=0)
        # at_least[d]: mask of the vertices of degree at least d in P
        at_least = [sum(1 << v for v in range(new) if degree[v] >= d) for d in range(new + 1)]
        for mask in _orbit_minima(new, _search(new, parent)[1], top):
            k = mask.bit_count()
            key = k << 8 | k + dsum[mask]
            tied = 1 << new  # w and the non-cut vertices whose key equals w's
            # only a vertex whose degree in C reaches k can match w's key
            rivals = at_least[k] | mask & at_least[k - 1]
            while rivals:
                low = rivals & -rivals
                rivals ^= low
                v = low.bit_length() - 1
                child_key = keys[v] + (parent[v] & mask).bit_count()
                if mask & low:  # w adds one to v's degree and k to its sum
                    child_key += (1 << 8) + k
                if child_key < key:
                    continue
                for part in parts[v]:
                    if not mask & part:
                        break
                else:  # v is a non-cut vertex of C
                    if child_key > key:
                        break
                    tied |= low
            else:  # no non-cut vertex beats w
                rows = [row | (mask >> v & 1) << new for v, row in enumerate(parent)]
                rows.append(mask)
                if tied == 1 << new:
                    yield rows, None
                    continue
                code, autos, best_path = _search(n, tuple(rows))
                last = next(v for v in reversed(best_path) if tied >> v & 1)
                if _orbit(last, autos) >> new & 1:
                    yield rows, code


@lru_cache(maxsize=None)
def _connected_level(n: int) -> Sequence[int]:
    """The `_search` code of each isomorphism class of connected graphs on n
    vertices, in emission order, as an `array("Q")` of 64-bit words (8 bytes
    per class; a code has n(n - 1)/2 bits).  The class's representative is the
    graph `_triangle_rows` decodes from its code.  The array is cached and
    shared: callers read it and never change it.  Only the children of
    `_children` that come without a code are searched here.
    """
    from array import array  # loaded only where graphs are generated

    return array(
        "Q",
        (_search(n, tuple(rows))[0] if code is None else code for rows, code in _children(n)),
    )


def generate_connected_graphs(n: int, *, canonical: bool = True) -> Iterator[Graph]:
    """Stream one representative per isomorphism class of connected graphs on n vertices.

    With `canonical` each is the class's representative, as `canonical_form`
    gives it, and level n's codes are built and cached.  Without it the same
    classes come in the same order, each labelled as built (level n - 1's
    representative plus vertex n - 1), and only the children whose
    acceptance needs it are searched; `canonical_form` of the i-th graph is
    the i-th graph of the canonical stream.

    The order is checked here; the level is built and decoded as the
    returned iterator is read.
    """
    if not 1 <= n <= GENERATION_CAP:
        raise ValueError(f"order {n} outside supported range 1..{GENERATION_CAP}")
    if not canonical:
        return (_graph(n, tuple(rows)) for rows, _ in _children(n))
    return _representatives(n)


def _representatives(n: int) -> Iterator[Graph]:
    """Level n's representatives, each decoded from its code as it is read."""
    for code in _connected_level(n):
        yield _graph(n, tuple(_triangle_rows(n, code)))


def canonical_form(g: Graph) -> Graph:
    """The representative of g's isomorphism class: the graph decoded from
    its `_search` code, which the canonical stream yields for a connected g."""
    return _graph(g.n, tuple(_triangle_rows(g.n, _search(g.n, g._adj)[0])))
