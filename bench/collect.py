"""Run the benchmark over ten seeds and summarise each metric's spread.

    python3 bench/collect.py [--label NAME]

Run from the repository root.  For seeds 1 to 10 and every workload of
BENCHMARK.json it runs `bench/run.py --trace 0`, then one `--trace 1` run per
workload on seed 1.  It prints, per workload and end-to-end metric, the
median, the quartiles and the spread (interquartile range over median), and
with --label writes everything, with the machine, the Python version and the
git commit, to bench/baselines/<label>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
TRACED_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    result["run_s"] = elapsed
    return result


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            result = run_once(w, seed, seconds, 0)
            runs[w].append({"seed": seed, "run_s": result["run_s"],
                            **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{w} seed={seed} run_s={result['run_s']:.1f} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)

    summary: dict[str, dict] = {}
    for w in workloads:
        summary[w] = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs[w]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[w][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            print(f"{w:15s} {name:15s} median={median:<12.6g} spread={spread:.4f} "
                  f"bound={bound}{flag}")

    traced = {}
    for w in workloads:
        result = run_once(w, TRACED_SEED, seconds, 1)
        traced[w] = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"{w} traced: run_s={result['run_s']:.1f} "
              f"trace_overhead={traced[w]['trace_overhead']:.3f}", flush=True)

    if args.label:
        out = BENCH / "baselines" / f"{args.label}.json"
        out.write_text(json.dumps({
            "label": args.label,
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "run_seconds": seconds,
            "seeds": list(SEEDS),
            "summary": summary,
            "runs": runs,
            "traced_seed": TRACED_SEED,
            "per_layer": traced,
        }, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
