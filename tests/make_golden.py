"""Rewrite tests/data/golden_certificates.txt from the current proof route.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py

Each line of the file is a graph6 input, a tab, and the serialized
certificate `find_witness` returns for it.  The inputs are the chi = delta
graphs the proof route is checked on:

- the cohort of the committed n <= 8 corpus (`bench/data/connected_n8.g6`),
  as committed and relabelled by the benchmark's replay seeds 1 and 2;
- the benchmark's 111 relabelled squared cycles;
- the seven vertex-critical circulants with chi = delta >= 5 and no K_delta,
  plain and under the two relabellings `tests/test_witness.py` uses.

The input lines come from the benchmark's own graph6 code, so this script is
the only test-side file that imports `bench/inputs.py`; the golden test reads
the data file alone.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from inputs import encode, load_corpus, relabelled_corpus, squared_cycle_inputs  # noqa: E402

from chidelta.certificate import serialize_certificate  # noqa: E402
from chidelta.coloring import chromatic_number  # noqa: E402
from chidelta.graph import decode_graph6, max_degree  # noqa: E402
from chidelta.witness import find_witness  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "golden_certificates.txt"

CIRCULANTS = (
    (11, (1, 2, 3)),
    (11, (1, 3, 4)),
    (11, (1, 4, 5)),
    (11, (2, 3, 5)),
    (11, (2, 4, 5)),
    (15, (1, 4, 5, 6)),
    (15, (2, 3, 5, 7)),
)


def circulant(n: int, jumps: tuple[int, ...], copy: int) -> str:
    # copy 0 is the plain labelling; copies 1 and 2 shuffle it exactly as
    # `_relabelled_circulant` in tests/test_witness.py does
    perm = list(range(n))
    if copy:
        random.Random(f"circulant:{n}:{jumps}:{copy}").shuffle(perm)
    adj = [0] * n
    for i in range(n):
        for s in jumps:
            u, w = perm[i], perm[(i + s) % n]
            adj[u] |= 1 << w
            adj[w] |= 1 << u
    return encode(adj)


def golden_inputs() -> list[str]:
    corpus = load_corpus()
    cohort = [
        i for i, line in enumerate(corpus)
        if chromatic_number(g := decode_graph6(line)) == max_degree(g)
    ]
    lines = [corpus[i] for i in cohort]
    for seed in (1, 2):
        relabelled = relabelled_corpus(seed)
        lines += [relabelled[i] for i in cohort]
    lines += [line for _, line in squared_cycle_inputs()]
    lines += [circulant(n, jumps, copy) for copy in (0, 1, 2) for n, jumps in CIRCULANTS]
    return lines


def main() -> None:
    rows = [
        f"{line}\t{serialize_certificate(find_witness(decode_graph6(line)))}\n"
        for line in golden_inputs()
    ]
    GOLDEN.write_text("".join(rows), encoding="ascii")
    print(f"wrote {len(rows)} lines to {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
