"""Layer spans recorded from outside the program.

`install` rebinds the public names that one chidelta module imported from
another (and the public probe functions `find_witness` reaches inside the
witness module) to wrappers that record a span per call: name, start, end
and the index of the enclosing span.  No program file is edited.  `summarize`
turns the span list into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute, span name).  Only the binding inside the named module is
# replaced, so e.g. chromatic_number called by `sweep` is the chi = delta
# filter, while calls inside `coloring` itself stay within their caller's span.
BINDINGS = (
    ("chidelta.cli", "cli_dispatch", "cli.dispatch"),
    ("chidelta.cli", "decode_graph6", "graph.decode_graph6"),
    ("chidelta.cli", "encode_graph6", "graph.encode_graph6"),
    ("chidelta.cli", "theorem_sweep", "sweep.theorem_sweep"),
    ("chidelta.cli", "find_witness", "witness.find_witness"),
    ("chidelta.cli", "oracle_witness", "oracle.oracle_witness"),
    ("chidelta.cli", "verify_certificate", "oracle.verify_certificate"),
    ("chidelta.sweep", "decode_graph6", "graph.decode_graph6"),
    ("chidelta.sweep", "encode_graph6", "graph.encode_graph6"),
    ("chidelta.sweep", "chromatic_number", "coloring.filter"),
    ("chidelta.sweep", "find_witness", "witness.find_witness"),
    ("chidelta.sweep", "oracle_witness", "oracle.oracle_witness"),
    ("chidelta.sweep", "verify_certificate", "oracle.verify_certificate"),
    ("chidelta.witness", "chromatic_number", "coloring.chromatic_number"),
    ("chidelta.witness", "extract_vertex_critical", "coloring.extract_vertex_critical"),
    ("chidelta.witness", "find_k_coloring", "coloring.find_k_coloring"),
    ("chidelta.witness", "kempe_chain", "coloring.kempe_chain"),
    ("chidelta.witness", "shortest_path_in_chain", "coloring.shortest_path_in_chain"),
    ("chidelta.witness", "find_clique", "oracle.find_clique"),
    ("chidelta.witness", "is_c7_complement", "oracle.is_c7_complement"),
    ("chidelta.witness", "oracle_witness", "oracle.oracle_witness"),
    ("chidelta.witness", "verify_certificate", "oracle.verify_certificate"),
    ("chidelta.witness", "kempe_adjacency_probe", "witness.kempe_adjacency_probe"),
    ("chidelta.witness", "degree_deficient_probe", "witness.degree_deficient_probe"),
    ("chidelta.witness", "neighborhood_split", "witness.neighborhood_split"),
    ("chidelta.witness", "split_attachment_check", "witness.split_attachment_check"),
    ("chidelta.witness", "path_quad", "witness.path_quad"),
    ("chidelta.witness", "trace_squared_cycle", "witness.trace_squared_cycle"),
    ("chidelta.witness", "squared_cycle_hole", "witness.squared_cycle_hole"),
)
# Generators get one span per step, so their lazy work is charged to them.
GENERATORS = (
    ("chidelta.sweep", "generate_connected_graphs", "sweep.generate"),
    ("chidelta.witness", "odd_holes", "oracle.odd_holes"),
)

# find_witness branches, most specific first: the first span name reached
# below a find_witness call decides its branch.
BRANCHES = (
    ("squared_cycle", "witness.trace_squared_cycle"),
    ("split_sweep", "witness.neighborhood_split"),
    ("deficient_probe", "witness.degree_deficient_probe"),
    ("critical_complete", "coloring.extract_vertex_critical"),
)
LOW_DEGREE = "low_degree"


class Tracer:
    """In-memory span list; parents are indices into the same list."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.items: dict[str, int] = {}
        self._stack = [-1]
        self._originals: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                i = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(i)
                self.items[name] = self.items.get(name, 0) + 1
                yield item

        return traced

    def install(self) -> None:
        """Put the wrappers in place."""
        for bindings, wrap in ((BINDINGS, self.wrap), (GENERATORS, self.wrap_generator)):
            for module, attr, name in bindings:
                mod = importlib.import_module(module)
                self._originals.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrap(name, getattr(mod, attr)))

    def uninstall(self) -> None:
        """Put the program's own functions back; the spans are kept."""
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"names": self.names, "starts": self.starts, "ends": self.ends,
                 "parents": self.parents, "items": self.items},
                fh,
            )


def summarize(spans: dict, graphs: int, cohort: int) -> dict[str, float]:
    """Per-layer metrics from a span dump; `graphs` and `cohort` count the inputs."""
    names, starts, ends, parents = spans["names"], spans["starts"], spans["ends"], spans["parents"]
    dur = [e - s for s, e in zip(starts, ends)]
    child = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]

    # Nearest find_witness ancestor of every span (parents precede children).
    fw = [-1] * len(names)
    reached: dict[int, set[str]] = {}
    for i, name in enumerate(names):
        if name == "witness.find_witness":
            fw[i] = i
            reached[i] = set()
        elif parents[i] >= 0:
            fw[i] = fw[parents[i]]
            if fw[i] >= 0:
                reached[fw[i]].add(name)
    branch_calls = {b: 0 for b, _ in BRANCHES} | {LOW_DEGREE: 0}
    branch_s = {b: 0.0 for b in branch_calls}
    for i, seen in reached.items():
        branch = next((b for b, marker in BRANCHES if marker in seen), LOW_DEGREE)
        branch_calls[branch] += 1
        branch_s[branch] += dur[i]
    fallback = sum(
        1 for i, name in enumerate(names) if name == "oracle.oracle_witness" and fw[i] >= 0
    )

    def c(name: str) -> int:
        return calls.get(name, 0)

    def s(name: str) -> float:
        return total.get(name, 0.0)

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    witnesses = c("witness.find_witness")
    certificates = witnesses + c("oracle.oracle_witness") - fallback
    out = {
        "sweep.generate.s": s("sweep.generate"),
        "sweep.generate.graphs": spans["items"].get("sweep.generate", 0),
        "sweep.theorem_sweep.self_s": self_s.get("sweep.theorem_sweep", 0.0),
        "graph.decode_graph6.calls": c("graph.decode_graph6"),
        "graph.decode_graph6.s": s("graph.decode_graph6"),
        "graph.decode_graph6.calls_per_graph": per(c("graph.decode_graph6"), graphs),
        "graph.encode_graph6.s": s("graph.encode_graph6"),
        "coloring.filter.calls": c("coloring.filter"),
        "coloring.filter.s": s("coloring.filter"),
        "sweep.cohort_share": per(cohort, graphs) if c("sweep.theorem_sweep") else 0.0,
        "coloring.extract_vertex_critical.calls": c("coloring.extract_vertex_critical"),
        "coloring.extract_vertex_critical.s": s("coloring.extract_vertex_critical"),
        "coloring.find_k_coloring.calls": c("coloring.find_k_coloring"),
        "coloring.find_k_coloring.s": s("coloring.find_k_coloring"),
        "coloring.find_k_coloring.per_witness": per(c("coloring.find_k_coloring"), witnesses),
        "coloring.kempe_chain.calls": c("coloring.kempe_chain"),
        "witness.find_witness.calls": witnesses,
        "witness.find_witness.s": s("witness.find_witness"),
        "witness.find_witness.self_s": self_s.get("witness.find_witness", 0.0),
    }
    for b in branch_calls:
        out[f"witness.branch.{b}.calls"] = branch_calls[b]
        out[f"witness.branch.{b}.s"] = branch_s[b]
    out.update({
        "witness.neighborhood_split.calls": c("witness.neighborhood_split"),
        "witness.neighborhood_split.per_witness": per(c("witness.neighborhood_split"), witnesses),
        "witness.trace_squared_cycle.calls": c("witness.trace_squared_cycle"),
        "witness.oracle_fallback.calls": fallback,
        "oracle.oracle_witness.s": s("oracle.oracle_witness"),
        "oracle.verify_certificate.calls": c("oracle.verify_certificate"),
        "oracle.verify_certificate.s": s("oracle.verify_certificate"),
        "oracle.verify_certificate.per_certificate": per(
            c("oracle.verify_certificate"), certificates
        ),
        "cli.dispatch.self_s": self_s.get("cli.dispatch", 0.0),
    })
    return out
