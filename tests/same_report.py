"""Assert that two `chidelta sweep --json` reports agree and both pass.

Run from the repository root:

    python tests/same_report.py A.json B.json

`jobs` and each order's `seconds` are blanked in both reports, since they
depend on how the sweep was run, not on what it found; everything else must
be equal, and both reports must be `ok`.  Exits non-zero, naming the two
files, otherwise.
"""

from __future__ import annotations

import json
import sys


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    report["jobs"] = None
    for order in report["orders"]:
        order["seconds"] = None
    return report


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/same_report.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (_load(p) for p in argv)
    if a != b:
        print(f"sweep reports {argv[0]} and {argv[1]} differ", file=sys.stderr)
        return 1
    if not a["ok"]:  # equal reports: b is ok exactly when a is
        print(f"sweep reports {argv[0]} and {argv[1]} are not ok", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
