"""The proof route's certificates do not change unless a change says why.

`tests/data/golden_certificates.txt` holds one line per chi = delta input: the
graph6 line, a tab, and the certificate JSON `find_witness` gave when the file
was written by `tests/make_golden.py`.  A change that moves a certificate on
purpose rewrites the file with that script and lists the moved lines.
"""

from __future__ import annotations

from pathlib import Path

from chidelta.certificate import serialize_certificate
from chidelta.graph import decode_graph6
from chidelta.witness import find_witness

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_certificates.txt"


def test_golden_certificates_unchanged():
    rows = GOLDEN.read_text(encoding="ascii").splitlines()
    assert len(rows) == 1833
    differing = []
    for number, row in enumerate(rows, 1):
        line, want = row.split("\t")
        got = serialize_certificate(find_witness(decode_graph6(line)))
        if got != want:
            differing.append(f"line {number}: {line}\n  want {want}\n  got  {got}")
    assert not differing, (
        f"{len(differing)} of {len(rows)} certificates differ; first ones:\n"
        + "\n".join(differing[:5])
    )
