"""Work that runs in a fresh interpreter started by run.py.

    child.py SRC squared INPUTS SECONDS TRACE RESULT [SPANS]
        In-process `chidelta witness --method both --format json` calls over
        the graph6 lines in INPUTS, in whole passes.  With TRACE 0, a closed
        loop of passes: one at least, and no new pass that would end beyond
        1.1 * SECONDS, with every latency and pass time read on a
        refclock.RefClock.  With TRACE 1, TRACE_PASSES passes in which every line
        is called twice in a row, once with the layer wrappers of tracer.py
        installed and once without (alternating which goes first), so that
        the host's speed changes hit both alike; the spans of the last pass
        go to SPANS.  Writes, per call, the line index, latency, exit code,
        captured output and whether it was traced, and the time of the
        untraced passes, to RESULT.

    child.py SRC timed RESULT ARGV...
        One `chidelta ARGV...` call, import of chidelta.cli included, timed on
        a refclock.RefClock; writes its time at the reference speed and the
        kernel's median to RESULT and exits with the command's
        exit code.  Its standard output is the command's.

    child.py SRC sweep SPANS ARGV...
        One `chidelta ARGV...` call with the layer wrappers installed; writes
        the spans to SPANS and exits with the command's exit code.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

TRACE_PASSES = 2


def witness_call(line: str) -> tuple[tuple[float, float], int, str]:
    """((start, end), exit code, stdout or stderr) of one witness call."""
    import chidelta.cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = chidelta.cli.cli_dispatch(
            ["witness", "--graph", line, "--method", "both", "--format", "json"]
        )
    return (t0, time.perf_counter()), rc, out.getvalue() if rc == 0 else err.getvalue()


def squared(inputs: str, seconds: float, trace: bool, result: str, spans: str | None) -> int:
    lines = Path(inputs).read_text(encoding="ascii").split()
    calls = {"index": [], "latency": [], "code": [], "output": [], "traced": []}

    def call(i: int, traced: bool) -> None:
        for key, value in zip(calls, (i, *witness_call(lines[i]), traced)):
            calls[key].append(value)

    passes, kernel = [], None
    if trace:
        from tracer import Tracer

        for _ in range(TRACE_PASSES):
            tracer = Tracer()
            for i in range(len(lines)):
                for traced in (False, True) if i % 2 else (True, False):
                    if traced:
                        tracer.install()
                    call(i, traced)
                    if traced:
                        tracer.uninstall()
        tracer.dump(spans)
        calls["latency"] = [b - a for a, b in calls["latency"]]
    else:
        from refclock import RefClock

        clock = RefClock()
        clock.start()
        started = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for i in range(len(lines)):
                call(i, False)
            passes.append((pass_start, time.perf_counter()))
            if 2 * passes[-1][1] - pass_start > started + 1.1 * seconds:
                break
        clock.stop()
        calls["latency"] = clock.scaled(calls["latency"])
        passes = clock.scaled(passes)
        kernel = clock.kernel_median()
    with open(result, "w", encoding="utf-8") as fh:
        json.dump({"lines": lines, "passes": passes, "kernel": kernel, **calls}, fh)
    return 0


def sweep(spans: str, argv: list[str]) -> int:
    import chidelta.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = chidelta.cli.cli_dispatch(argv)
    tracer.dump(spans)
    return rc


def timed(result: str, argv: list[str]) -> int:
    from refclock import RefClock

    clock = RefClock()
    clock.start()
    t0 = time.perf_counter()
    import chidelta.cli

    rc = chidelta.cli.cli_dispatch(argv)
    t1 = time.perf_counter()
    clock.stop()
    with open(result, "w", encoding="utf-8") as fh:
        json.dump({"scaled": clock.scaled([(t0, t1)])[0], "kernel": clock.kernel_median()}, fh)
    return rc


def main(argv: list[str]) -> int:
    sys.path.insert(0, argv[0])
    if argv[1] == "squared":
        inputs, seconds, trace, result = argv[2], float(argv[3]), argv[4] == "1", argv[5]
        return squared(inputs, seconds, trace, result, argv[6] if trace else None)
    if argv[1] == "sweep":
        return sweep(argv[2], argv[3:])
    if argv[1] == "timed":
        return timed(argv[2], argv[3:])
    raise SystemExit(f"unknown mode {argv[1]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
