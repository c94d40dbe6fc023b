"""chidelta benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ./src, so no
build or install step is needed.  Workloads, metrics and their bounds are
listed in BENCHMARK.json; bench/README.md says why each was chosen.

With --trace 0 the run prints every end-to-end metric, measured with no
wrapper installed, in program time at the reference speed of refclock.py:
a fixed kernel timed every 50 ms in the program's process takes the shared
host's changing speed out of the times.  With --trace 1 it alternates untraced and traced units of
the workload and prints every per-layer metric, computed from the spans
written to bench/out/.  Every output is checked against the pinned counts in
bench/data/pins.json and the certificate rules; any violation makes the run
exit 1 with "correct": false.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD_LIMIT_S = 150
SETUP_REPEATS = 8  # before and again after the workload
SWEEP_TRACE_PAIRS = 3  # untraced and traced sweeps, alternated
SWEEP_ARGV = ["sweep", "--max-n", "8", "--method", "both", "--jobs", "1"]
# A fresh interpreter runs the kernel of refclock.py once, times it three times
# before and three times after it imports chidelta.cli, and prints the import
# time at the reference speed.  refclock imports nothing but time.
SETUP_CODE = (
    "import sys, time; sys.path.append(sys.argv[1]); import refclock; refclock.kernel(); "
    "k = [refclock.time_kernel() for _ in range(3)]; "
    "t = time.perf_counter(); import chidelta.cli; t = time.perf_counter() - t; "
    "k += [refclock.time_kernel() for _ in range(3)]; "
    "print(t * refclock.NOMINAL_S / sorted(k)[3])"
)


class Run:
    """Counts and metrics of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.notes: list[str] = []

    def fail(self, graphs: int, problem: str) -> None:
        self.failed += graphs
        self.problems.append(problem)


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_child(cmd: list[str], tag: str) -> tuple[int, float, float, str]:
    """(exit code, wall seconds, peak RSS in MB, stderr) of one child process."""
    err_path = OUT / f"{tag}.stderr"
    with open(err_path, "w", encoding="utf-8") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL, stderr=err, env=child_env(), cwd=ROOT
        )
        watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024, err_path.read_text(encoding="utf-8")


def setup_times(repeats: int) -> list[float]:
    """Times, at the reference speed, for `repeats` fresh interpreters to import chidelta.cli."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(BENCH)], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return times


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# sweep8_cold and replay8: one `chidelta sweep` subprocess per call


def check_report(run: Run, path: Path, rc: int, stderr: str, pinned: dict) -> int:
    """Gate one sweep against its pinned per-order counts; returns its cohort."""
    graphs = sum(o["graphs"] for o in pinned["orders"])
    run.attempted += graphs
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = None
    if rc != 0 or report is None or not report.get("ok"):
        tail = stderr.strip().splitlines()[-2:]
        run.fail(graphs, f"sweep exit {rc}, ok={report and report.get('ok')}: {' | '.join(tail)}")
        return 0
    got = {o["n"]: o for o in report["orders"]}
    if sorted(got) != [o["n"] for o in pinned["orders"]]:
        run.fail(graphs, f"sweep reported orders {sorted(got)}")
        return 0
    for want in pinned["orders"]:
        have = got[want["n"]]
        wrong = {k: have.get(k) for k, v in want.items() if have.get(k) != v}
        if wrong:
            run.fail(want["graphs"], f"order {want['n']}: {wrong} differs from pinned "
                     f"{ {k: want[k] for k in wrong} }")
    return sum(o["cohort"] for o in report["orders"])


def sweep_workload(name: str, seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    pinned = json.loads((BENCH / "data" / "pins.json").read_text(encoding="utf-8"))[name]
    argv = list(SWEEP_ARGV)
    if name == "replay8":
        corpus = OUT / f"replay8-{seed}.g6"
        corpus.write_text("\n".join(inputs.relabelled_corpus(seed)) + "\n", encoding="ascii")
        argv += ["--corpus", str(corpus)]
    report = OUT / f"{name}-{seed}.report.json"
    argv += ["--json", str(report)]
    graphs = sum(o["graphs"] for o in pinned["orders"])

    def call(cmd: list[str], tag: str) -> tuple[float, float, int]:
        report.unlink(missing_ok=True)
        rc, wall, rss, stderr = run_child(cmd, tag)
        return wall, rss, check_report(run, report, rc, stderr, pinned)

    plain = [sys.executable, "-m", "chidelta.cli"] + argv
    if trace:
        spans = OUT / f"spans-{name}-{seed}.json"
        traced_cmd = [sys.executable, str(BENCH / "child.py"), str(SRC), "sweep", str(spans)]
        untraced, traced = [], []
        for _ in range(SWEEP_TRACE_PAIRS):
            untraced.append(call(plain, f"{name}-{seed}-untraced")[0])
            wall, _, cohort = call(traced_cmd + argv, f"{name}-{seed}-traced")
            traced.append(wall)
        if not run.problems:
            run.metrics = tracer.summarize(json.loads(spans.read_text()), graphs, cohort)
            run.metrics["trace_overhead"] = statistics.median(traced) / statistics.median(untraced)
            run.notes.append(f"spans of the last traced call: {spans.relative_to(ROOT)}")
        return run

    timing = OUT / f"{name}-{seed}.timing.json"
    timed_cmd = [sys.executable, str(BENCH / "child.py"), str(SRC), "timed", str(timing)]
    times, walls, kernels, rss = [], [], [], []
    started = time.perf_counter()
    while True:
        timing.unlink(missing_ok=True)
        wall, peak, _ = call(timed_cmd + argv, f"{name}-{seed}")
        if run.problems:
            return run
        timed = json.loads(timing.read_text(encoding="utf-8"))
        times.append(timed["scaled"])
        kernels.append(timed["kernel"])
        walls.append(wall)
        rss.append(peak)
        now = time.perf_counter()
        if now + wall > started + 1.1 * seconds:
            break
    run.metrics = {
        "graphs_per_s": statistics.median(graphs / t for t in times),
        "witness_p50_ms": 1000 * statistics.median(times),
        "witness_p90_ms": 1000 * p90(times),
        "peak_rss_mb": statistics.median(rss),
    }
    run.notes.append(f"samples: {len(times)} sweep calls of {graphs} graphs, "
                     f"median wall {statistics.median(walls):.3f} s, kernel median "
                     f"{1000 * statistics.median(kernels):.3f} ms")
    return run


# ---------------------------------------------------------------------------
# squared_cycles: in-process `chidelta witness --method both` calls


def check_witness_outputs(run: Run, result: dict, graphs: dict[str, int]) -> None:
    """Re-verify every certificate, outside the timed loop; identical outputs once."""
    verdicts: dict[tuple[str, str], str | None] = {}
    for i, rc, text in zip(result["index"], result["code"], result["output"]):
        line = result["lines"][i]
        key = (line, text)
        if key not in verdicts:
            verdicts[key] = witness_problem(line, graphs[line], rc, text)
        run.attempted += 1
        if verdicts[key] is not None:
            run.fail(1, f"n={graphs[line]} {line}: {verdicts[key]}")


def witness_problem(line: str, n: int, rc: int, text: str) -> str | None:
    from chidelta.graph import decode_graph6
    from chidelta.oracle import verify_certificate
    from chidelta.sweep import deserialize_certificate

    if rc != 0:
        return f"exit {rc}: {text.strip()}"
    try:
        out = json.loads(text)
    except ValueError:
        return f"output is not JSON: {text[:80]!r}"
    expected = "c7_complement" if n == 7 else "high_odd_hole"
    if out.get("kinds_agree") is not True:
        return "routes disagree on the kind"
    adj = inputs.decode(line)
    g = decode_graph6(line)
    for route in ("proof", "oracle"):
        cert = out.get(route)
        if not isinstance(cert, dict) or cert.get("kind") != expected:
            return f"{route} certificate is {cert!r}, expected kind {expected}"
        problem = inputs.certificate_problem(adj, cert)
        if problem is not None:
            return f"{route} certificate: {problem}"
        verdict = verify_certificate(g, deserialize_certificate(json.dumps(cert)))
        if not verdict:
            return f"{route} certificate rejected by verify_certificate: {verdict.reason}"
    return None


def squared_workload(seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    pairs = inputs.squared_cycle_inputs()
    graphs = {line: n for n, line in pairs}
    tag = f"squared_cycles-{seed}-{'traced' if trace else 'untraced'}"
    source = OUT / f"{tag}.g6"
    source.write_text("\n".join(line for _, line in pairs) + "\n", encoding="ascii")
    result_path = OUT / f"{tag}.result.json"
    result_path.unlink(missing_ok=True)
    spans = OUT / f"spans-squared_cycles-{seed}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(SRC), "squared", str(source),
           str(seconds), str(int(trace)), str(result_path)] + ([str(spans)] if trace else [])
    rc, _, rss, stderr = run_child(cmd, tag)
    if rc != 0:
        run.fail(len(pairs), f"witness loop exit {rc}: {stderr.strip()[-300:]}")
        run.attempted += len(pairs)
        return run
    result = json.loads(result_path.read_text(encoding="utf-8"))
    check_witness_outputs(run, result, graphs)
    if run.problems:
        return run
    if trace:
        run.metrics = tracer.summarize(json.loads(spans.read_text()), len(pairs), 0)
        traced = sum(t for t, on in zip(result["latency"], result["traced"]) if on)
        untraced = sum(t for t, on in zip(result["latency"], result["traced"]) if not on)
        run.metrics["trace_overhead"] = traced / untraced
        run.notes.append(f"spans of the last traced pass: {spans.relative_to(ROOT)}")
        return run
    lat = result["latency"]
    run.metrics = {
        "graphs_per_s": len(lat) / sum(result["passes"]),
        "witness_p50_ms": 1000 * statistics.median(lat),
        "witness_p90_ms": 1000 * p90(lat),
        "peak_rss_mb": rss,
    }
    run.notes.append(f"samples: {len(lat)} witness calls, kernel median "
                     f"{1000 * result['kernel']:.3f} ms")
    return run


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "chidelta" / "cli.py").is_file() or not spec_path.is_file():
        print(f"benchmark: no program at {SRC} (run from the repository root)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))

    if not args.trace:
        setup = setup_times(SETUP_REPEATS + 1)[1:]  # the first one writes bytecode caches
    if args.workload == "squared_cycles":
        run = squared_workload(args.seed, args.seconds, bool(args.trace))
    else:
        run = sweep_workload(args.workload, args.seed, args.seconds, bool(args.trace))

    if not args.trace:
        run.metrics["setup_s"] = statistics.median(setup + setup_times(SETUP_REPEATS))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": run.metrics[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in run.metrics}
    missing = [m["name"] for m in wanted if m["name"] not in run.metrics]
    if missing and not run.problems:
        run.problems.append(f"metrics not measured: {missing}")
    correct = not run.problems and run.attempted > 0
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for note in run.notes:
        print(note)
    print(f"fail_frac={run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} of {run.attempted} graphs)")
    for problem in run.problems[:20]:
        print(f"FAIL {problem}")
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed if correct else max(run.failed, 1),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
