"""Benchmark inputs and independent output checks.

Everything here is written against the graph6 format itself, not against the
program, so the inputs stay byte-identical when the program's codec or
generator changes, and the certificate checks do not trust the program's own
`verify_certificate` alone.
"""

from __future__ import annotations

import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
CORPUS = DATA / "connected_n8.g6"

# OEIS A001349: connected graphs on n unlabelled vertices, n = 1..8.
A001349 = (1, 1, 2, 6, 21, 112, 853, 11117)

SQUARED_ORDERS = tuple(n for n in range(7, 62) if n % 3)
SQUARED_COPIES = 3


def decode(line: str) -> list[int]:
    """Adjacency bitmasks of a single-byte-length graph6 line."""
    n = ord(line[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"unsupported graph6 length byte in {line!r}")
    nbits = n * (n - 1) // 2
    if len(line) - 1 != (nbits + 5) // 6:
        raise ValueError(f"graph6 body length wrong in {line!r}")
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (ord(line[1 + k // 6]) - 63) >> (5 - k % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return adj


def encode(adj: list[int]) -> str:
    n = len(adj)
    bits = [adj[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k:k + 6])), 2)) for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def relabel(adj: list[int], perm: list[int]) -> list[int]:
    """The graph with vertex v renamed perm[v]."""
    out = [0] * len(adj)
    for v, row in enumerate(adj):
        for u in range(len(adj)):
            if row >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return out


def connected(adj: list[int]) -> bool:
    if not adj:
        return False
    seen, frontier = 1, 1
    while frontier:
        reach = 0
        for v in range(len(adj)):
            if frontier >> v & 1:
                reach |= adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << len(adj)) - 1


def load_corpus() -> list[str]:
    """The committed n <= 8 corpus, checked against A001349 before any use."""
    lines = CORPUS.read_text(encoding="ascii").split()
    if len(set(lines)) != len(lines):
        raise ValueError("corpus has duplicate lines")
    per_order = [0] * len(A001349)
    for line in lines:
        adj = decode(line)
        if not 1 <= len(adj) <= len(A001349) or not connected(adj):
            raise ValueError(f"corpus line {line!r} is not a connected graph on 1..8 vertices")
        per_order[len(adj) - 1] += 1
    if tuple(per_order) != A001349:
        raise ValueError(f"corpus per-order counts {per_order} differ from A001349 {A001349}")
    return lines


def relabelled_corpus(seed: int) -> list[str]:
    rng = random.Random(f"replay8:{seed}")
    out = []
    for line in load_corpus():
        adj = decode(line)
        perm = list(range(len(adj)))
        rng.shuffle(perm)
        out.append(encode(relabel(adj, perm)))
    return out


def squared_cycle(n: int) -> list[int]:
    return [
        sum(1 << ((v + s) % n) for s in (-2, -1, 1, 2)) for v in range(n)
    ]


def squared_cycle_inputs() -> list[tuple[int, str]]:
    """(n, graph6) for every order, each copy under its own fixed relabelling.

    The relabelling does not depend on the run's seed: the work of a witness
    call depends on the vertex labels, so seeds vary only the timing.
    """
    rng = random.Random("squared_cycles")
    out = []
    for n in SQUARED_ORDERS:
        for _ in range(SQUARED_COPIES):
            perm = list(range(n))
            rng.shuffle(perm)
            out.append((n, encode(relabel(squared_cycle(n), perm))))
    return out


def certificate_problem(adj: list[int], cert: dict) -> str | None:
    """Why `cert` is not a valid certificate for the graph, or None if it is."""
    n = len(adj)
    delta = max(row.bit_count() for row in adj)
    kind = cert.get("kind")
    if kind == "clique":
        vs = cert.get("vertices", [])
        if len(set(vs)) != delta or not all(0 <= v < n for v in vs):
            return "clique has the wrong size"
        if any(not adj[a] >> b & 1 for a in vs for b in vs if a != b):
            return "clique misses an edge"
        return None
    if kind == "high_odd_hole":
        cyc = cert.get("cycle", [])
        k = len(cyc)
        if k < 5 or k % 2 == 0 or len(set(cyc)) != k or not all(0 <= v < n for v in cyc):
            return "hole is not a simple odd cycle of length >= 5"
        for i in range(k):
            for j in range(i + 1, k):
                consecutive = j == i + 1 or (i == 0 and j == k - 1)
                if bool(adj[cyc[i]] >> cyc[j] & 1) != consecutive:
                    return "hole has a chord or a missing edge"
        if any(adj[v].bit_count() < delta - 1 for v in cyc):
            return "hole vertex has degree below delta - 1"
        return None
    if kind == "c7_complement":
        pos = cert.get("positions", [])
        if n != 7 or sorted(pos) != list(range(7)):
            return "positions are not a bijection onto the 7-cycle"
        for u in range(7):
            for w in range(u + 1, 7):
                d = abs(pos[u] - pos[w])
                if bool(adj[u] >> w & 1) != (min(d, 7 - d) in (2, 3)):
                    return "adjacency disagrees with the 7-cycle complement"
        return None
    return f"unknown certificate kind {kind!r}"
