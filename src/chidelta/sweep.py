"""Connected-graph enumeration and the exhaustive theorem sweep.

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

import json
import multiprocessing
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

# deserialize_certificate is re-exported: bench/run.py imports it from here.
from .certificate import certificate_kind, deserialize_certificate  # noqa: F401
from .coloring import chromatic_number
from .graph import Graph, GraphError, decode_graph6, encode_graph6, max_degree
from .oracle import oracle_witness, verify_certificate
from .witness import ContractError, find_witness

GENERATION_CAP = 9


class SweepError(RuntimeError):
    """A sweep hit a verification failure or an error; carries the offending graph6 line."""

    def __init__(self, line: str, detail: str):
        super().__init__(f"{detail} (graph6: {line})")
        self.line = line
        self.detail = detail


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


# ---------------------------------------------------------------------------
# the sweep


@dataclass
class OrderTally:
    n: int
    graphs: int = 0
    cohort: int = 0
    proof_kinds: dict[str, int] = field(default_factory=dict)
    oracle_kinds: dict[str, int] = field(default_factory=dict)
    kind_mismatches: int = 0
    verification_failures: int = 0
    exceptional: int = 0
    seconds: float = 0.0


@dataclass
class SweepReport:
    min_n: int
    max_n: int
    method: str
    jobs: int
    built_in_corpus: bool
    orders: list[OrderTally] = field(default_factory=list)

    @property
    def total_graphs(self) -> int:
        return sum(o.graphs for o in self.orders)

    @property
    def total_cohort(self) -> int:
        return sum(o.cohort for o in self.orders)

    @property
    def total_failures(self) -> int:
        return sum(o.verification_failures for o in self.orders)

    @property
    def total_mismatches(self) -> int:
        return sum(o.kind_mismatches for o in self.orders)

    def exceptional_by_order(self) -> dict[int, int]:
        return {o.n: o.exceptional for o in self.orders if o.exceptional}

    def problems(self) -> list[str]:
        out = []
        if self.total_failures:
            out.append(f"{self.total_failures} verification failure(s)")
        for o in self.orders:
            if o.n != 7 and o.exceptional:
                out.append(f"{o.exceptional} exceptional graph(s) at order {o.n}")
            if self.built_in_corpus and o.n == 7 and o.exceptional != 1:
                out.append(f"expected exactly one exceptional graph at order 7, saw {o.exceptional}")
        return out

    @property
    def ok(self) -> bool:
        return not self.problems()

    def to_dict(self) -> dict:
        return {
            "min_n": self.min_n,
            "max_n": self.max_n,
            "method": self.method,
            "jobs": self.jobs,
            "built_in_corpus": self.built_in_corpus,
            "ok": self.ok,
            "problems": self.problems(),
            "orders": [
                {
                    **asdict(o),
                    "proof_kinds": dict(sorted(o.proof_kinds.items())),
                    "oracle_kinds": dict(sorted(o.oracle_kinds.items())),
                }
                for o in self.orders
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        def fmt(kinds: dict[str, int]) -> str:
            return ",".join(f"{k}:{v}" for k, v in sorted(kinds.items())) or "-"

        lines = [
            f"sweep orders {self.min_n}..{self.max_n}  method={self.method}  jobs={self.jobs}",
            f"{'n':>3} {'graphs':>8} {'chi=delta':>9} {'proof':>24} {'oracle':>24} "
            f"{'mism':>5} {'fail':>5} {'exc':>4} {'sec':>7}",
        ]
        for o in self.orders:
            lines.append(
                f"{o.n:>3} {o.graphs:>8} {o.cohort:>9} {fmt(o.proof_kinds):>24} "
                f"{fmt(o.oracle_kinds):>24} {o.kind_mismatches:>5} "
                f"{o.verification_failures:>5} {o.exceptional:>4} {o.seconds:>7.2f}"
            )
        lines.append(
            f"total graphs={self.total_graphs} cohort={self.total_cohort} "
            f"failures={self.total_failures} mismatches={self.total_mismatches} "
            f"result={'PASS' if self.ok else 'FAIL'}"
        )
        return "\n".join(lines)


def _sweep_task(args: tuple[str, str]) -> dict:
    line, method = args
    rec: dict = {
        "line": line,
        "cohort": False,
        "proof_kind": None,
        "oracle_kind": None,
        "error": None,
    }
    try:
        g = decode_graph6(line)
        if encode_graph6(g) != line:
            rec["error"] = "graph6 round trip mismatch"
            return rec
        if g.n == 0:
            return rec
        if chromatic_number(g) != max_degree(g):
            return rec
        rec["cohort"] = True
        if method in ("proof", "both"):
            # find_witness verifies its own certificate and raises ContractError
            rec["proof_kind"] = certificate_kind(find_witness(g))
        if method in ("oracle", "both"):
            cert = oracle_witness(g)
            if cert is None:
                rec["error"] = "oracle found no certificate for a chi=delta graph"
                return rec
            verdict = verify_certificate(g, cert)
            if not verdict:
                rec["error"] = f"oracle certificate rejected: {verdict.reason}"
                return rec
            rec["oracle_kind"] = certificate_kind(cert)
    except ContractError as exc:
        rec["error"] = f"contract error: {exc}"
    except Exception as exc:
        # any other failure still names its graph6 line, in the pool or not
        rec["error"] = f"internal error: {type(exc).__name__}: {exc}"
    return rec


def _corpus_by_order(corpus: Iterable[str]) -> dict[int, list[str]]:
    """Stripped nonblank corpus lines by graph order, in file order within each order."""
    by_order: dict[int, list[str]] = {}
    for number, raw in enumerate(corpus, 1):
        line = raw.strip()
        if not line:
            continue
        try:
            n = decode_graph6(line).n
        except GraphError as exc:
            raise GraphError(f"corpus line {number} {line!r}: {exc}") from exc
        by_order.setdefault(n, []).append(line)
    return by_order


def _tasks_for_order(
    n: int, method: str, corpus: dict[int, list[str]] | None
) -> Iterator[tuple[str, str]]:
    if corpus is None:
        for g in generate_connected_graphs(n):
            yield encode_graph6(g), method
    else:
        for line in corpus.get(n, ()):
            yield line, method


def theorem_sweep(
    max_n: int,
    method: str = "both",
    min_n: int = 1,
    jobs: int = 1,
    corpus: Iterable[str] | None = None,
) -> SweepReport:
    """Run the selected witness method(s) over every connected graph with
    chromatic number equal to maximum degree, verifying each certificate
    once: `find_witness` checks its own, the sweep checks the oracle's.

    Per-graph work is independent; with jobs > 1 a process pool is used and
    results are merged in generation order, so the report is identical for
    any worker count.  The first verification failure, or any other
    exception in the per-graph work, aborts with the offending graph6 line.
    A corpus is decoded once up front; a malformed line raises GraphError
    naming its line number.
    """
    if method not in ("proof", "oracle", "both"):
        raise ValueError(f"unknown method {method!r}")
    if corpus is None and not 1 <= min_n <= max_n <= GENERATION_CAP:
        raise ValueError(f"order range {min_n}..{max_n} outside 1..{GENERATION_CAP}")
    by_order = _corpus_by_order(corpus) if corpus is not None else None
    report = SweepReport(min_n, max_n, method, jobs, by_order is None)
    pool = multiprocessing.Pool(jobs) if jobs > 1 else None
    try:
        for n in range(min_n, max_n + 1):
            tally = OrderTally(n)
            started = time.perf_counter()
            tasks = _tasks_for_order(n, method, by_order)
            results = pool.imap(_sweep_task, tasks, chunksize=32) if pool else map(_sweep_task, tasks)
            for rec in results:
                tally.graphs += 1
                if rec["error"] is not None:
                    tally.verification_failures += 1
                    raise SweepError(rec["line"], rec["error"])
                if not rec["cohort"]:
                    continue
                tally.cohort += 1
                pk, ok = rec["proof_kind"], rec["oracle_kind"]
                if pk is not None:
                    tally.proof_kinds[pk] = tally.proof_kinds.get(pk, 0) + 1
                if ok is not None:
                    tally.oracle_kinds[ok] = tally.oracle_kinds.get(ok, 0) + 1
                if pk is not None and ok is not None and pk != ok:
                    tally.kind_mismatches += 1
                if "c7_complement" in (pk, ok):
                    tally.exceptional += 1
            tally.seconds = time.perf_counter() - started
            report.orders.append(tally)
    finally:
        if pool is not None:
            # Tasks still queued after a failure are dropped, not drained.
            pool.terminate()
            pool.join()
    return report
