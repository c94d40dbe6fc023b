"""Self-test of the benchmark itself (takes about two minutes).

    python3 bench/selftest.py

Run from the repository root.  Checks that:
  1. a short run of every workload, untraced and traced, exits 0 and prints
     exactly the end-to-end, respectively per-layer, metrics of BENCHMARK.json;
  2. a deliberately wrong pinned count, in a copy of the tree under
     bench/out/selftest/, makes the gate fail: exit 1, "correct": false and a
     non-zero failed count;
  3. in a directory holding only BENCHMARK.json and bench/, the command exits
     non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "out" / "selftest"


def bench(cwd: Path, *args: str) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "7", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done.returncode, done.stdout.strip().splitlines()


def copy_bench(dest: Path) -> None:
    """BENCHMARK.json and bench/ (without its outputs) in a new tree at `dest`."""
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list[str] = []
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)

    for w in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            rc, out = bench(ROOT, "--workload", w, "--trace", trace)
            result = json.loads(out[-1]) if out else {}
            names = set(result.get("metrics", {}))
            want = {m["name"] for m in spec[key]}
            check(rc == 0 and result.get("correct") is True and result.get("failed") == 0,
                  f"{w} trace={trace} passes its gates", failures)
            check(names == want, f"{w} trace={trace} prints every {key} metric "
                  f"(missing {sorted(want - names)}, extra {sorted(names - want)})", failures)

    wrong = WORK / "wrong-pins"
    copy_bench(wrong)
    shutil.copytree(ROOT / "src", wrong / "src", ignore=shutil.ignore_patterns("__pycache__"))
    pins_path = wrong / "bench" / "data" / "pins.json"
    pins = json.loads(pins_path.read_text(encoding="utf-8"))
    pins["replay8"]["orders"][-1]["cohort"] -= 1
    pins_path.write_text(json.dumps(pins), encoding="utf-8")
    rc, out = bench(wrong, "--workload", "replay8", "--trace", "0")
    result = json.loads(out[-1]) if out else {}
    check(rc == 1 and result.get("correct") is False and result.get("failed", 0) > 0,
          f"wrong pinned cohort fails the gate (exit {rc}, failed {result.get('failed')} "
          f"of {result.get('attempted')})", failures)

    bare = WORK / "bare"
    copy_bench(bare)
    rc, out = bench(bare, "--workload", "replay8", "--trace", "0")
    check(rc != 0 and not any(line.startswith("{") for line in out),
          f"without the program the command exits {rc} and prints no result", failures)
    shutil.rmtree(WORK)

    print("selftest", "FAILED: " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
