"""Bitset-backed simple undirected graphs and the graph6 line codec.

`Graph(n, adj)` is the one constructor that checks its rows: each must lie
in range, hold no loop and agree with the others.  Every other builder here
(`graph_from_edges`, after its own range and loop checks on each edge,
`induced_subgraph`, `complement`, `cycle_power` and `decode_graph6`) and
`generate.generate_connected_graphs` make rows that are symmetric, loopless
and in range by construction, and wrap them with `_graph`, which checks
nothing.
"""

from __future__ import annotations

from typing import Iterable, Iterator

GRAPH6_HEADER = ">>graph6<<"
GRAPH6_MAX_ORDER = 62


class GraphError(ValueError):
    """Malformed graph construction or graph6 input."""


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Adjacency is stored as one int bitmask per vertex, so neighbourhood
    intersection, membership and popcounts are word-parallel operations.
    Neighbour tuples, for cheap Python-level iteration, are built for every
    vertex on the first `neighbors` call (or `edges`), so a graph read only
    through its bitmasks never builds them.  Building them twice gives the
    same tuples, so a graph stays safe to share.
    """

    __slots__ = ("n", "_adj", "_nbrs")

    def __init__(self, n: int, adj: Iterable[int]):
        adj = tuple(adj)
        if n < 0 or len(adj) != n:
            raise GraphError(f"adjacency length {len(adj)} does not match order {n}")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise GraphError(f"vertex {v} has a neighbour outside [0, {n})")
            if row >> v & 1:
                raise GraphError(f"loop at vertex {v}")
        for v, row in enumerate(adj):
            for u in _bits(row):
                if not adj[u] >> v & 1:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")
        self.n = n
        self._adj = adj
        self._nbrs: tuple[tuple[int, ...], ...] | None = None

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbours of v in ascending order."""
        nbrs = self._nbrs
        if nbrs is None:
            nbrs = self._nbrs = tuple(map(_bits, self._adj))
        return nbrs[v]

    def adjacency_mask(self, v: int) -> int:
        """Neighbour set of v as a bitmask (bit u set iff u ~ v)."""
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in self.neighbors(v):
                if u > v:
                    yield (v, u)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self._adj) // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def _graph(n: int, adj: tuple[int, ...]) -> Graph:
    """The graph on n vertices with rows `adj`, which the caller has built
    symmetric, loopless and in range, as `Graph(n, adj)` but unchecked."""
    g = object.__new__(Graph)
    g.n = n
    g._adj = adj
    g._nbrs = None
    return g


# _BYTE_BITS[b] lists the set bits of the byte b in ascending order
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))
# _REVERSED[b] is the byte b with its bit order reversed
_REVERSED = tuple(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _bits(mask: int) -> tuple[int, ...]:
    """Set bits of a nonnegative mask in ascending order, a byte at a time."""
    if mask < 256:
        return _BYTE_BITS[mask]
    out: list[int] = []
    base = 0
    while mask:
        out += [base + i for i in _BYTE_BITS[mask & 255]]
        mask >>= 8
        base += 8
    return tuple(out)


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on n vertices from unordered pairs; duplicates collapse."""
    if n < 0:
        raise GraphError("negative order")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise GraphError(f"loop edge at {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _graph(n, tuple(adj))


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0 (vacuous for n <= 1)."""
    if g.n <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        grown = seen
        for v in _bits(frontier):
            grown |= g.adjacency_mask(v)
        frontier = grown & ~seen
        seen = grown
    return seen == (1 << g.n) - 1


def max_degree(g: Graph) -> int:
    if g.n == 0:
        raise GraphError("max_degree of the empty graph")
    return max(map(int.bit_count, g._adj))


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise GraphError("min_degree of the empty graph")
    return min(map(int.bit_count, g._adj))


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on `keep` plus the order-preserving old->new vertex map."""
    kept = sorted(set(keep))
    if kept and not (0 <= kept[0] and kept[-1] < g.n):
        raise GraphError("kept vertex out of range")
    old_to_new = {old: new for new, old in enumerate(kept)}
    adj = [0] * len(kept)
    for new, old in enumerate(kept):
        for u in g.neighbors(old):
            if u in old_to_new:
                adj[new] |= 1 << old_to_new[u]
    return _graph(len(kept), tuple(adj)), old_to_new


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return _graph(g.n, tuple(full & ~row & ~(1 << v) for v, row in enumerate(g._adj)))


def cycle_power(n: int, d: int) -> Graph:
    """Graph on a cycle's vertices with i ~ j iff cyclic distance is in [1, d]."""
    if n < 3 or d < 1:
        raise GraphError(f"cycle_power parameters out of range: n={n}, d={d}")
    adj = [0] * n
    for i in range(n):
        for step in range(1, d + 1):
            adj[i] |= 1 << ((i + step) % n)
            adj[i] |= 1 << ((i - step) % n)
        adj[i] &= ~(1 << i)
    return _graph(n, tuple(adj))


def _parse_graph6(text: str) -> tuple[int, int]:
    """Check one graph6 line (an optional '>>graph6<<' header is allowed).

    Layout: length byte 63+n for n <= 62, then the upper-triangle bit vector
    in column-major pair order (0,1),(0,2),(1,2),(0,3),... packed into 6-bit
    groups offset by 63, zero-padded at the end.  Returns the order n and the
    bit vector as an int (pair (0,1) most significant, padding dropped).
    """
    line = text.strip()
    if line.startswith(GRAPH6_HEADER):
        line = line[len(GRAPH6_HEADER):]
    if not line:
        raise GraphError("empty graph6 line")
    head = ord(line[0])
    if head == 126:
        raise GraphError("extended graph6 length encoding (n > 62) is not supported")
    if not 63 <= head <= 126:
        raise GraphError(f"malformed length byte {line[0]!r}")
    n = head - 63
    nbits = n * (n - 1) // 2
    body = line[1:]
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise GraphError(
            f"graph6 body has {len(body)} characters, expected {expected} for n={n}"
        )
    stream = 0
    for ch in body:
        o = ord(ch)
        if not 63 <= o <= 126:
            raise GraphError(f"character {ch!r} outside graph6 range")
        stream = stream << 6 | (o - 63)
    pad = 6 * expected - nbits
    if pad and stream & ((1 << pad) - 1):
        raise GraphError("nonzero padding bits")
    return n, stream >> pad


def _reversed_bits(x: int, width: int) -> int:
    """The `width` low bits of x (x < 2**width) in reverse order, a byte at a time."""
    if width <= 8:
        return _REVERSED[x] >> (8 - width)
    out = 0
    for _ in range((width + 7) >> 3):
        out = out << 8 | _REVERSED[x & 255]
        x >>= 8
    return out >> (-width & 7)


def _triangle_rows(n: int, bits: int) -> list[int]:
    """Adjacency rows of the graph on n vertices whose upper-triangle bit
    vector, in graph6 pair order with pair (0,1) most significant, is `bits`.

    Column j of the vector is j bits in a row, the pairs (0,j) ... (j-1,j)
    with (0,j) most significant, so it is read as one chunk from the low end
    of what is left: reversed, it is row j's bits below j, and bit j is then
    set in the row of each of those lower neighbours.
    """
    rows = [0] * n
    for j in range(n - 1, 0, -1):
        low = _reversed_bits(bits & ((1 << j) - 1), j)
        bits >>= j
        rows[j] |= low
        bit = 1 << j
        for i in _bits(low):
            rows[i] |= bit
    return rows


def graph6_order(text: str) -> int:
    """Order of a graph6 line, checked exactly as `decode_graph6` checks it,
    without building the graph."""
    return _parse_graph6(text)[0]


def decode_graph6(text: str) -> Graph:
    """Decode one graph6 line; see `_parse_graph6` for the layout and checks."""
    n, bits = _parse_graph6(text)
    return _graph(n, tuple(_triangle_rows(n, bits)))


def encode_graph6(g: Graph) -> str:
    """Encode a graph as a canonical graph6 line (no header).

    The bit vector is built a column at a time, the inverse of
    `_triangle_rows`: column j is row j's bits below j, reversed.
    """
    n = g.n
    if n > GRAPH6_MAX_ORDER:
        raise GraphError(f"order {n} exceeds graph6 single-byte range")
    adj = g._adj
    stream = 0
    for j in range(1, n):
        stream = stream << j | _reversed_bits(adj[j] & ((1 << j) - 1), j)
    pairs = n * (n - 1) // 2
    pad = -pairs % 6
    stream <<= pad
    return chr(63 + n) + "".join(
        chr(63 + (stream >> shift & 63)) for shift in range(pairs + pad - 6, -1, -6)
    )
