"""The exhaustive theorem sweep over connected graphs, generated or replayed from a corpus."""

from __future__ import annotations

import json
import time
from collections.abc import Iterable

# deserialize_certificate is re-exported: bench/run.py imports it from here.
from .certificate import certificate_kind, deserialize_certificate, verify_certificate  # noqa: F401
from .coloring import chromatic_number, is_k_colorable
from .generate import GENERATION_CAP, generate_connected_graphs
from .graph import (
    GRAPH6_HEADER,
    Graph,
    GraphError,
    decode_graph6,
    encode_graph6,
    graph6_order,
    is_connected,
    max_degree,
)
from .oracle import oracle_witness
from .witness import ContractError, find_witness


class SweepError(RuntimeError):
    """A sweep hit a verification failure or an error; carries the offending graph6 line."""

    def __init__(self, line: str, detail: str):
        super().__init__(f"{detail} (graph6: {line})")
        self.line = line
        self.detail = detail


class OrderTally:
    """What the sweep found at one order."""

    def __init__(
        self,
        n: int,
        graphs: int = 0,
        cohort: int = 0,
        proof_kinds: dict[str, int] | None = None,
        oracle_kinds: dict[str, int] | None = None,
        kind_mismatches: int = 0,
        verification_failures: int = 0,
        exceptional: int = 0,
        seconds: float = 0.0,
    ):
        self.n = n
        self.graphs = graphs
        self.cohort = cohort
        self.proof_kinds = {} if proof_kinds is None else proof_kinds
        self.oracle_kinds = {} if oracle_kinds is None else oracle_kinds
        self.kind_mismatches = kind_mismatches
        self.verification_failures = verification_failures
        self.exceptional = exceptional
        self.seconds = seconds

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "graphs": self.graphs,
            "cohort": self.cohort,
            "proof_kinds": dict(sorted(self.proof_kinds.items())),
            "oracle_kinds": dict(sorted(self.oracle_kinds.items())),
            "kind_mismatches": self.kind_mismatches,
            "verification_failures": self.verification_failures,
            "exceptional": self.exceptional,
            "seconds": self.seconds,
        }


class SweepReport:
    """Per-order tallies of one sweep and how it was run."""

    def __init__(
        self,
        min_n: int,
        max_n: int,
        method: str,
        jobs: int,
        built_in_corpus: bool,
        orders: list[OrderTally] | None = None,
    ):
        self.min_n = min_n
        self.max_n = max_n
        self.method = method
        self.jobs = jobs
        self.built_in_corpus = built_in_corpus
        self.orders = [] if orders is None else orders

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
            "orders": [o.to_dict() for o in self.orders],
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


def _in_cohort(g: Graph) -> bool:
    """Whether the chromatic number of g equals its maximum degree delta.

    A (delta - 1)-coloring shows chi < delta with one colourability test.
    Only graphs without one pay for the exact chromatic number: by Brooks'
    theorem a connected one is complete, an odd cycle or in the cohort.
    The answer is exact for every graph, not only where Brooks applies.
    """
    delta = max_degree(g)
    if delta > 1 and is_k_colorable(g, delta - 1):
        return False
    return chromatic_number(g) == delta


def _check(item: Graph | str, method: str, rec: dict) -> str | None:
    """Run the per-graph work on a generated graph or a corpus line, filling
    `rec`; returns the failure, if any."""
    if isinstance(item, str):
        g = decode_graph6(item)
        if encode_graph6(g) != item:
            return "graph6 round trip mismatch"
    else:
        g = item
    if not is_connected(g):
        return "graph is disconnected"
    if not _in_cohort(g):
        return None
    rec["cohort"] = True
    if method in ("proof", "both"):
        # find_witness verifies its own certificate and raises ContractError
        rec["proof_kind"] = certificate_kind(find_witness(g))
    if method in ("oracle", "both"):
        cert = oracle_witness(g)
        if cert is None:
            return "oracle found no certificate for a chi=delta graph"
        verdict = verify_certificate(g, cert)
        if not verdict:
            return f"oracle certificate rejected: {verdict.reason}"
        rec["oracle_kind"] = certificate_kind(cert)
    return None


def _sweep_task(args: tuple[Graph | str, str]) -> dict:
    item, method = args
    rec: dict = {
        "line": None,
        "cohort": False,
        "proof_kind": None,
        "oracle_kind": None,
        "error": None,
    }
    try:
        rec["error"] = _check(item, method, rec)
    except ContractError as exc:
        rec["error"] = f"contract error: {exc}"
    except Exception as exc:
        # any other failure still names its graph6 line, in the pool or not
        rec["error"] = f"internal error: {type(exc).__name__}: {exc}"
    if rec["error"] is not None:
        # a generated graph gets its graph6 line only when it fails
        rec["line"] = item if isinstance(item, str) else encode_graph6(item)
    return rec


def _corpus_by_order(corpus: Iterable[str]) -> dict[int, list[str]]:
    """Stripped nonblank corpus lines by graph order, in file order within each order.

    A line's `>>graph6<<` header, which nauty writes at the start of a file,
    is dropped, so each stored line is the bare encoding of its graph.
    """
    by_order: dict[int, list[str]] = {}
    for number, raw in enumerate(corpus, 1):
        line = raw.strip()
        if not line:
            continue
        line = line.removeprefix(GRAPH6_HEADER)
        try:
            n = graph6_order(line)
        except GraphError as exc:
            raise GraphError(f"corpus line {number} {line!r}: {exc}") from exc
        by_order.setdefault(n, []).append(line)
    return by_order


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

    The chi = delta filter (`_in_cohort`) rules out every graph with
    chi < delta by one (delta - 1)-colourability test and computes the exact
    chi only for the rest: the cohort, complete graphs and odd cycles.

    Per-graph work is independent; with jobs > 1 a process pool is used
    (`multiprocessing` is imported only then, so a serial sweep never
    loads it) and results are merged in generation order, so reports for
    different worker counts differ only in `jobs` and each order's
    `seconds`.  The first verification failure, or any other exception in
    the per-graph work, aborts with the offending graph6 line.
    Generated graphs reach their task as graphs (pickled when jobs > 1), and
    a generated graph is encoded as graph6 only if it fails.  Only a corpus
    goes through the codec: it is checked up front without building graphs
    (a malformed line raises GraphError naming its line number), then each
    line is decoded once, in its task, and must re-encode to itself; a
    disconnected graph there is a failure of its line.
    """
    if method not in ("proof", "oracle", "both"):
        raise ValueError(f"unknown method {method!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    cap = GENERATION_CAP if corpus is None else max_n
    if not 1 <= min_n <= max_n <= cap:
        raise ValueError(f"order range {min_n}..{max_n} outside 1..{cap}")
    by_order = _corpus_by_order(corpus) if corpus is not None else None
    report = SweepReport(min_n, max_n, method, jobs, by_order is None)
    pool = None
    if jobs > 1:
        import multiprocessing  # only a parallel sweep pays for the pool machinery

        pool = multiprocessing.Pool(jobs)
    try:
        for n in range(min_n, max_n + 1):
            tally = OrderTally(n)
            started = time.perf_counter()
            items = generate_connected_graphs(n) if by_order is None else by_order.get(n, ())
            tasks = ((item, method) for item in items)
            results = pool.imap(_sweep_task, tasks, chunksize=32) if pool else map(_sweep_task, tasks)
            for rec in results:
                tally.graphs += 1
                if rec["error"] is not None:
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
