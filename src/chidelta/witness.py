"""Constructive certificate search for connected graphs with chromatic number
equal to maximum degree.

The search mirrors a Kempe-chain argument: colour the graph minus one vertex
with one colour fewer than the chromatic number, probe pairs of neighbours
whose colours are unique in that neighbourhood, and either certify adjacency
or close a chordless odd cycle through the uncoloured vertex.  Sweeping these
probes over a vertex-critical subgraph yields a maximum-degree clique or a
high odd hole on every valid input except the complement of the 7-cycle,
which is recognised explicitly.
"""

from __future__ import annotations

from collections.abc import Sequence

from .certificate import (
    Certificate, CliqueWitness, ExceptionalC7Complement, HighOddHoleWitness, verify_certificate
)
from .coloring import (
    Coloring,
    chromatic_number,
    extract_vertex_critical,
    find_k_coloring,
    is_k_colorable,
    kempe_chain,
    shortest_path_in_chain,
)
from .graph import Graph, induced_subgraph, is_connected, max_degree, min_degree
from .oracle import find_clique, is_c7_complement, odd_holes, oracle_witness


class ContractError(ValueError):
    """An input violated a precondition of the certificate search."""


def kempe_adjacency_probe(
    h: Graph, x: int, y: int, z: int, phi: Coloring
) -> HighOddHoleWitness | None:
    """Probe two uniquely-coloured neighbours of the uncoloured vertex x.

    If y ~ z the pair is adjacent and None is returned.  Otherwise walk the
    maximal two-colour component of (phi(y), phi(z)) starting at y: if z is
    missing, swapping the component would free phi(y) at x and extend the
    coloring, so the claimed chromatic number was wrong (ContractError).  If
    z is present, the shortest alternating path from y to z closes through x
    into a cycle that is odd (the path ends in different colours, so it has
    evenly many vertices) and chordless (a chord would shortcut the shortest
    path, and x has no other neighbour coloured phi(y) or phi(z)); that hole
    is returned, unverified, as built.
    """
    if len(phi) != h.n:
        raise ContractError(f"coloring has {len(phi)} entries, graph has {h.n} vertices")
    if phi.count(0) != 1 or phi[x] != 0:
        uncolored = [v for v in range(h.n) if not phi[v]]
        raise ContractError(f"expected exactly vertex {x} uncoloured, got {uncolored}")
    if not (h.has_edge(x, y) and h.has_edge(x, z)):
        raise ContractError(f"{y} and {z} must both be neighbours of {x}")
    cy, cz = phi[y], phi[z]
    if cy == cz:
        raise ContractError(f"probed vertices share colour {cy}")
    for u in h.neighbors(x):
        if u not in (y, z) and phi[u] in (cy, cz):
            raise ContractError(f"colour {phi[u]} reappears on neighbour {u} of {x}")
    if h.has_edge(y, z):
        return None
    chain = kempe_chain(h, phi, y, cy, cz)
    if z not in chain:
        raise ContractError(
            f"swap on the ({cy},{cz})-component of {y} would extend the coloring to {x}"
        )
    path = shortest_path_in_chain(h, chain, y, {z})
    return HighOddHoleWitness(tuple(path) + (x,))


def _probe_pairs(
    h: Graph, x: int, verts: Sequence[int], phi: Coloring
) -> HighOddHoleWitness | None:
    # Probe every pair of `verts` around x in order; the first hole ends it,
    # and None means every pair is adjacent.
    for i, y in enumerate(verts):
        for z in verts[i + 1:]:
            hole = kempe_adjacency_probe(h, x, y, z, phi)
            if hole is not None:
                return hole
    return None


def degree_deficient_probe(h: Graph, v: int) -> CliqueWitness | HighOddHoleWitness:
    """Certificate at a vertex of degree one below the maximum.

    Colours h - v with max_degree(h) - 1 colours; since the coloring cannot
    extend to v, the neighbours of v carry all colours exactly once, so every
    neighbour pair qualifies for the adjacency probe.  The first hole wins;
    if all pairs are adjacent, the closed neighbourhood is a clique of size
    max_degree(h).  The certificate is returned unverified.
    """
    delta = max_degree(h)
    if h.degree(v) != delta - 1:
        raise ContractError(f"vertex {v} has degree {h.degree(v)}, expected {delta - 1}")
    others = [u for u in range(h.n) if u != v]
    phi = find_k_coloring(h, delta - 1, others)
    if phi is None:
        raise ContractError(
            f"graph minus {v} admits no ({delta - 1})-coloring; input is not critical"
        )
    nbrs = h.neighbors(v)
    if len({phi[u] for u in nbrs}) != len(nbrs):
        raise ContractError(
            f"coloring extends to {v}; the claimed chromatic number is too high"
        )
    return _probe_pairs(h, v, nbrs, phi) or CliqueWitness(frozenset(nbrs) | {v})


def neighborhood_split(
    g: Graph, v: int, phi: Coloring
) -> tuple[tuple[int, int], frozenset[int]] | HighOddHoleWitness:
    """Split N(v) of a regular graph into (A, B): the sorted pair A, the clique B.

    `phi` is a (max degree - 1)-coloring of exactly g - v, the one the
    critical scan found when it kept v; any other coloring, a colour
    outside 1..max degree - 1 included, is a ContractError naming v.
    Exactly one colour must repeat among the neighbours (pigeonhole,
    provided every colour shows up); the repeated pair A is non-adjacent by
    properness.  Pairs inside B = N(v) - A are certified adjacent by the
    Kempe probe, and each B-vertex is attached to A via its two-colour
    component towards A: a single-edge path certifies attachment, a longer
    path closes an odd hole through v, returned instead of the split, and a
    missing path means the coloring could be rearranged to extend, which
    raises ContractError, as does a colour missing around v.  The path is
    a breadth-first search from the B-vertex inside the union of the two
    colour classes, stopped at the first layer that meets A; it reaches
    only the B-vertex's component there, the Kempe chain, so the chain
    itself is never built.  Membership in that union is read off the
    coloring, one vertex at a time, so no colour class is built either:
    a split costs only the vertices its searches reach.
    """
    delta = max_degree(g)
    if delta < 4:
        raise ContractError(f"maximum degree {delta} below 4")
    if min_degree(g) != delta:
        raise ContractError("graph is not regular")
    if len(phi) != g.n or phi.count(0) != 1 or phi[v] != 0 or not set(phi) <= set(range(delta)):
        raise ContractError(f"given coloring is not a ({delta - 1})-coloring of g minus {v}")
    by_color: dict[int, list[int]] = {}
    for u in g.neighbors(v):
        by_color.setdefault(phi[u], []).append(u)
    if len(by_color) < delta - 1:
        missing = sorted(set(range(1, delta)) - set(by_color))
        raise ContractError(f"colour {missing[0]} is unused around {v}; the coloring extends")
    duplicated = [c for c, verts in by_color.items() if len(verts) == 2]
    a_pair = tuple(sorted(by_color[duplicated[0]]))
    dup_color = duplicated[0]
    b_set = sorted(u for u in g.neighbors(v) if u not in a_pair)
    hole = _probe_pairs(g, v, b_set, phi)
    if hole is not None:
        return hole
    for b in sorted(b_set, key=lambda u: phi[u]):
        path = shortest_path_in_chain(g, _Classes(phi, (dup_color, phi[b])), b, set(a_pair))
        if path is None:
            raise ContractError(f"component of {b} misses both of {a_pair}; the coloring extends")
        if len(path) > 2:
            return HighOddHoleWitness(tuple(path) + (v,))
    return a_pair, frozenset(b_set)


class _Classes:
    # The vertices that `phi` colours with a colour of `pair`, as a container
    # whose membership test reads one vertex's colour, so a search inside it
    # costs only the vertices it reaches.
    __slots__ = ("phi", "pair")

    def __init__(self, phi: Coloring, pair: tuple[int, int]):
        self.phi, self.pair = phi, pair

    def __contains__(self, w: int) -> bool:
        return self.phi[w] in self.pair


def split_attachment_check(
    g: Graph, split: tuple[tuple[int, int], frozenset[int]], a: int
) -> int:
    """The one B-vertex that the A-vertex `a` of the split (A, B) misses.

    Any count of neighbours in B but |B| - 1 raises ContractError, as does
    an `a` outside A; a smaller count means an earlier probe should have
    fired.  Full attachment, |B|, would close a clique K of size |B| + 2 on
    B + {a, centre}.  On the d-regular vertex-critical g the split sweep
    runs on, B is N(centre) minus the two A-vertices, so K has size d.  K
    is not d-regular, so it is a proper subgraph, and its chromatic number
    d equals that of g, which contradicts vertex-criticality.
    """
    a_pair, b = split
    if a not in a_pair:
        raise ContractError(f"vertex {a} is not in the split's A pair")
    missed = _mask(b) & ~g.adjacency_mask(a)
    if missed.bit_count() != 1:
        count = len(b) - missed.bit_count()
        raise ContractError(f"vertex {a} has {count} neighbours in B, expected {len(b) - 1}")
    return missed.bit_length() - 1


def _mask(verts) -> int:
    m = 0
    for v in verts:
        m |= 1 << v
    return m


def path_quad(
    g: Graph, split: tuple[tuple[int, int], frozenset[int]]
) -> tuple[int, int, int, int]:
    """The induced path (a1, b1, b2, a2) among the centre's neighbours.

    b2 is the B-vertex that a1 misses, as its attachment check returns it,
    and b1 the one a2 misses.  Once b1 != b2, those two misses settle four
    of the six pairs, so only a1 !~ a2 and b1 ~ b2 are tested; a failed
    check, b1 == b2 or a failed test raises ContractError.
    """
    (a1, a2), _ = split
    b2 = split_attachment_check(g, split, a1)
    b1 = split_attachment_check(g, split, a2)
    if b1 == b2:
        raise ContractError(f"vertex {b1} is attached to neither A-vertex")
    quad = (a1, b1, b2, a2)
    if g.has_edge(a1, a2) or not g.has_edge(b1, b2):
        raise ContractError(f"induced structure on {quad} is not the expected path")
    return quad


def _quads(
    g: Graph, colorings: dict[int, Coloring]
) -> dict[int, tuple[int, int, int, int]] | HighOddHoleWitness:
    # The path quad at every vertex, in vertex order: split, then quad.  The
    # first hole ends it.  `colorings` holds the critical scan's coloring of
    # g - v for every v.
    quads: dict[int, tuple[int, int, int, int]] = {}
    for v in range(g.n):
        if v not in colorings:
            raise ContractError(f"the critical scan stored no coloring of g minus {v}")
        split = neighborhood_split(g, v, colorings[v])
        if isinstance(split, HighOddHoleWitness):
            return split
        quads[v] = path_quad(g, split)
    return quads


def trace_squared_cycle(
    g: Graph, colorings: dict[int, Coloring]
) -> tuple[int, ...] | HighOddHoleWitness:
    """Label a 4-regular graph as the square of a cycle, or fail trying.

    First computes the path quad at every vertex, in vertex order; the first
    hole a split closes on the way is returned, and the first contradiction
    raises ContractError.  Then walks one vertex per step from vertex 0 to
    the B-vertex b1 of its quad: each next vertex is the B-vertex of the
    current vertex's quad that is not the previous one.  Every walk vertex's
    neighbourhood must then be that of its walk position in the square of
    the n-cycle, or ContractError is raised.  This check alone rejects a
    walk that revisits a vertex: g is connected, so a vertex the walk misses
    has a neighbour on the walk, whose position neighbourhood lacks it.
    The result is the walk itself, the vertex at each position: the only
    such labeling with vertex 0 at position 0 and b1 at position 1.
    `colorings` must hold, for every v, the 3-coloring of g - v that
    `extract_vertex_critical` returned; a missing one is a ContractError
    naming v.
    """
    if g.n == 0 or not is_connected(g):
        raise ContractError("graph must be connected and nonempty")
    if max_degree(g) != 4 or min_degree(g) != 4:
        raise ContractError("graph is not 4-regular")
    n = g.n
    quads = _quads(g, colorings)
    if isinstance(quads, HighOddHoleWitness):
        return quads
    walk = [0, quads[0][1]]
    while len(walk) < n:
        _, b1, b2, _ = quads[walk[-1]]
        walk.append(b2 if b1 == walk[-2] else b1)
    for p, u in enumerate(walk):
        if g.adjacency_mask(u) != _mask(walk[(p + s) % n] for s in (-2, -1, 1, 2)):
            raise ContractError(f"neighbours of {u} disagree with its position {p}")
    return tuple(walk)


def squared_cycle_hole(n: int) -> tuple[int, ...]:
    """Chordless odd cycle of length >= 5 in the square of an n-cycle, as positions.

    Steps advance clockwise by 2 (a distance-2 edge) or 1 (a distance-1
    edge).  No two unit steps are ever adjacent, so any two chosen positions
    that are not consecutive on the hole are separated by at least 1+2 = 3 on
    both arcs, which rules out chords.

    For n = 3k+1 (k >= 3): start at position 1, alternate double step then
    unit step k-3 times each (reaching 3k-8), then five double steps wrap
    back to the start; the length is 2k-1.

    These are the squared cycles the degree-4 endgame reaches, the
    4-chromatic vertex-critical ones; every other n raises ValueError with
    the reason.  For 3 | n the squared cycle is 3-colorable, and for n = 3k+2
    it is not vertex-critical: the forced 3-coloring of the square minus v
    makes its edge (v-1, v+1) monochromatic.
    """
    if n % 3 == 0:
        raise ValueError(f"n={n} is divisible by 3; the squared cycle is 3-colorable")
    if n % 3 == 2:
        raise ValueError(f"n={n} is 2 mod 3; the squared cycle is not vertex-critical")
    if n < 10:
        raise ValueError(f"n={n} has no such cycle (the 7-vertex case is exceptional)")
    k = (n - 1) // 3
    seq = [1]
    pos = 1
    for _ in range(k - 3):
        pos += 2
        seq.append(pos)
        pos += 1
        seq.append(pos)
    for _ in range(4):
        pos += 2
        seq.append(pos)
    return tuple(seq)


def _shortest_odd_hole(g: Graph) -> tuple[int, ...] | None:
    best: tuple[int, ...] | None = None
    for cycle in odd_holes(g, 2):
        if best is None or len(cycle) < len(best):
            best = cycle
    return best


def _lift(
    cert: CliqueWitness | HighOddHoleWitness, new_to_old: list[int]
) -> CliqueWitness | HighOddHoleWitness:
    if isinstance(cert, CliqueWitness):
        return CliqueWitness(frozenset(new_to_old[v] for v in cert.vertices))
    return HighOddHoleWitness(tuple(new_to_old[v] for v in cert.cycle))


def find_witness(g: Graph) -> Certificate:
    """Certificate for a connected graph whose chromatic number equals its
    maximum degree: a clique of that size, a high odd hole, or identification
    of the complement of the 7-cycle.

    Whether chi = Delta is decided without computing chi.  By Brooks'
    theorem a connected graph that is neither complete nor an odd cycle has
    chi <= Delta, so for it chi = Delta exactly when it has no
    (Delta - 1)-coloring; a complete graph or an odd cycle has
    chi = Delta + 1.  At Delta <= 3 one colourability test decides that.
    At Delta >= 4 the critical scan below decides it: its first trial
    refutes g - 0, which refutes g, or is followed at once by one test of
    all of g, and the scan returns None if g has a (Delta - 1)-coloring.
    The exact chi is computed only to word the ContractError that refuses
    the input.

    Dispatch: degree 2 yields an edge; degree 3 yields a triangle or the
    shortest odd cycle (chordless, since a chord would split off a shorter
    odd cycle, and triangle-free rules out length 3).  For degree d >= 4 the
    search moves to the vertex set H of a vertex-critical subgraph with
    chromatic number d and reads the branch off it.  Every vertex of H has
    at least d - 1 neighbours in H, or it could be coloured last.  A
    d-chromatic graph on d vertices is complete, so H of d vertices is the
    clique K_d.  Otherwise H has maximum degree d: at d - 1 it would be
    (d - 1)-regular with chromatic number d, so complete by Brooks' theorem
    (an odd cycle needs d = 3), on d vertices.  So a vertex of degree d - 1
    in H is probed directly, and if there is none, H is d-regular: no
    vertex of H has a neighbour outside it, and g is connected, so H is all
    of g.  Were the scan wrong, each branch would still end in
    ContractError: a wrong clique fails verification, and a bad regular
    branch fails the neighbourhood split, the quads or the trace.

    The regular g gets the path quad at every vertex, in vertex order: the
    neighbourhood split, then the quad, read off the attachment checks of
    the split's two A-vertices; the first hole a split closes wins.  Each
    split requires the coloring of g - v that the critical scan found when
    it kept v, so no g - v is coloured twice; on this branch the scan
    deleted nothing and no trial set peeled, so it stored one for every v.
    At degree 4 that sweep is the first half of `trace_squared_cycle`,
    whose walk, the vertex at each position of the squared cycle, then
    yields the explicit hole (or the complement of C7), unless a split
    already closed one; at degree >= 5 a silent sweep falls back to the
    brute-force oracle.

    The proof route's one check: the certificate is verified against g before
    it is returned, and a rejection raises ContractError.
    """
    cert = _derive_witness(g)
    verdict = verify_certificate(g, cert)
    if not verdict:
        raise ContractError(f"find_witness: certificate failed verification: {verdict.reason}")
    return cert


def _chi_is_not(g: Graph, delta: int) -> ContractError:
    return ContractError(f"chromatic number {chromatic_number(g)} != max degree {delta}")


def _derive_witness(g: Graph) -> Certificate:
    # The dispatch described in find_witness; the certificate is unverified.
    if g.n == 0:
        raise ContractError("empty graph")
    if not is_connected(g):
        raise ContractError("input graph is disconnected")
    delta = max_degree(g)
    low = min_degree(g)
    complete = low == g.n - 1
    odd_cycle = low == delta == 2 and g.n % 2
    if complete or odd_cycle or delta <= 3 and is_k_colorable(g, delta - 1):  # Brooks
        raise _chi_is_not(g, delta)
    if delta == 2:
        return CliqueWitness(find_clique(g, 2))
    if delta == 3:
        triangle = find_clique(g, 3)
        if triangle is not None:
            return CliqueWitness(triangle)
        cycle = _shortest_odd_hole(g)
        if cycle is None:
            raise ContractError("triangle-free 3-chromatic graph has no odd cycle")
        return HighOddHoleWitness(cycle)

    scan = extract_vertex_critical(g, delta)
    if scan is None:  # g has a (delta - 1)-coloring
        raise _chi_is_not(g, delta)
    kept, colorings = scan
    if len(kept) == delta:
        return CliqueWitness(kept)
    keep = sorted(kept)
    sub = g if len(keep) == g.n else induced_subgraph(g, keep)[0]
    deficient = [v for v in range(sub.n) if sub.degree(v) == delta - 1]
    if deficient:
        return _lift(degree_deficient_probe(sub, deficient[0]), keep)
    if delta >= 5:
        quads = _quads(g, colorings)
        if isinstance(quads, HighOddHoleWitness):
            return quads
        import logging  # the only code that logs, a fallback no known input reaches

        logging.getLogger(__name__).warning(
            "probe sweep finished without a certificate at max degree %d; "
            "falling back to the brute-force oracle",
            delta,
        )
        cert = oracle_witness(g)
        if cert is None:
            raise ContractError("oracle found no certificate after a silent sweep")
        return cert
    walk = trace_squared_cycle(g, colorings)
    if isinstance(walk, HighOddHoleWitness):
        return walk
    m = len(walk)
    if m == 7:
        positions = is_c7_complement(g)
        if positions is None:
            raise ContractError("7-vertex squared cycle failed recognition")
        return ExceptionalC7Complement(positions)
    if m % 3 != 1:
        raise ContractError(f"squared cycle of length {m} is not 4-critical")
    return HighOddHoleWitness(tuple(walk[p] for p in squared_cycle_hole(m)))
