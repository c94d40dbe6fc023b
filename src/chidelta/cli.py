"""Command-line interface.

Exit codes: 0 success (certificate, exceptional graph, or verified accept),
1 rejection or sweep failure, 2 input-contract error, 64 usage error,
74 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .certificate import (
    Certificate,
    SerializationError,
    certificate_text,
    deserialize_certificate,
    serialize_certificate,
    verify_certificate,
)
from .coloring import chromatic_number
from .graph import (
    GRAPH6_MAX_ORDER,
    GraphError,
    cycle_power,
    decode_graph6,
    encode_graph6,
    is_connected,
    max_degree,
)
from .oracle import oracle_witness
from .sweep import SweepError, theorem_sweep
from .witness import ContractError, find_witness

EX_OK = 0
EX_REJECT = 1
EX_CONTRACT = 2
EX_USAGE = 64
EX_IOERR = 74


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    # Built on the first dispatch and reused: parsing keeps its state in the
    # namespace it returns, not in the parser.
    parser = _Parser(prog="chidelta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    w = sub.add_parser("witness", help="find a certificate for a chi=delta graph")
    w.add_argument("--graph", required=True, help="graph6 line, or '-' for stdin")
    w.add_argument("--method", choices=("proof", "oracle", "both"), default="proof")
    w.add_argument("--format", choices=("json", "text"), default="text")

    c = sub.add_parser("chi", help="print chromatic number and maximum degree")
    c.add_argument("--graph", required=True, help="graph6 line, or '-' for stdin")

    v = sub.add_parser("verify", help="check a certificate against a graph")
    v.add_argument("--graph", required=True, help="graph6 line, or '-' for stdin")
    v.add_argument("--certificate", required=True, help="path to certificate JSON")

    s = sub.add_parser("sweep", help="exhaustive check over small connected graphs")
    s.add_argument("--max-n", type=int, required=True)
    s.add_argument("--min-n", type=int, default=1)
    s.add_argument("--method", choices=("proof", "oracle", "both"), default="both")
    s.add_argument("--jobs", type=int, default=1, help="worker processes")
    s.add_argument("--corpus", help="replay graph6 lines from a file instead of generating")
    s.add_argument("--json", dest="json_out", help="also write the JSON report to this path")

    g = sub.add_parser("gen", help="emit generator graphs as graph6")
    g.add_argument("--squared-cycle", type=int, required=True, metavar="N",
                   help=f"square of the N-cycle, 3 <= N <= {GRAPH6_MAX_ORDER}")
    return parser


def _read_graph(arg: str) -> str:
    return sys.stdin.readline() if arg == "-" else arg


def _cmd_witness(args) -> int:
    g = decode_graph6(_read_graph(args.graph))
    if not is_connected(g):
        # the theorem is about connected graphs, whichever route is asked
        raise ContractError("input graph is disconnected")
    certs: dict[str, Certificate] = {}
    if args.method in ("proof", "both"):
        certs["proof"] = find_witness(g)
    if args.method in ("oracle", "both"):
        cert = oracle_witness(g)
        if cert is None:
            raise ContractError("oracle found no clique, high odd hole, or exceptional graph")
        verdict = verify_certificate(g, cert)
        if not verdict:
            print(f"reject: oracle certificate: {verdict.reason}", file=sys.stderr)
            return EX_REJECT
        certs["oracle"] = cert
    if args.method == "both":
        agree = type(certs["proof"]) is type(certs["oracle"])
        if args.format == "json":
            print(json.dumps({
                "proof": json.loads(serialize_certificate(certs["proof"])),
                "oracle": json.loads(serialize_certificate(certs["oracle"])),
                "kinds_agree": agree,
            }))
        else:
            print("[proof]\n" + certificate_text(certs["proof"]))
            print("[oracle]\n" + certificate_text(certs["oracle"]))
            print(f"kinds agree: {'yes' if agree else 'no'}")
    else:
        cert = certs[args.method]
        print(serialize_certificate(cert) if args.format == "json" else certificate_text(cert))
    return EX_OK


def _cmd_chi(args) -> int:
    g = decode_graph6(_read_graph(args.graph))
    if g.n == 0:
        raise ContractError("empty graph")
    print(f"chi={chromatic_number(g)} delta={max_degree(g)}")
    return EX_OK


def _cmd_verify(args) -> int:
    g = decode_graph6(_read_graph(args.graph))
    with open(args.certificate, "rb") as fh:
        data = fh.read()
    try:
        cert = deserialize_certificate(data.decode("utf-8"))
    except (UnicodeDecodeError, SerializationError) as exc:
        print(f"reject: malformed certificate: {exc}")
        return EX_REJECT
    verdict = verify_certificate(g, cert)
    if verdict:
        print("accept")
        return EX_OK
    print(f"reject: {verdict.reason}")
    return EX_REJECT


def _cmd_sweep(args) -> int:
    corpus = None
    if args.corpus:
        # undecodable bytes survive as surrogates, which the graph6
        # decoder rejects with the corpus line number
        with open(args.corpus, encoding="utf-8", errors="surrogateescape") as fh:
            corpus = fh.readlines()
    try:
        report = theorem_sweep(
            args.max_n, method=args.method, min_n=args.min_n, jobs=args.jobs, corpus=corpus
        )
    except SweepError as exc:
        print(f"sweep failed: {exc.detail}", file=sys.stderr)
        print(f"offending graph6 line: {exc.line}", file=sys.stderr)
        return EX_REJECT
    except GraphError:
        raise  # malformed corpus line: input contract, not usage
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    print(report.to_text())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return EX_OK if report.ok else EX_REJECT


def _cmd_gen(args) -> int:
    n = args.squared_cycle
    if not 3 <= n <= GRAPH6_MAX_ORDER:
        raise _UsageError(f"squared cycle order must be in 3..{GRAPH6_MAX_ORDER}, got {n}")
    print(encode_graph6(cycle_power(n, 2)))
    return EX_OK


def cli_dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    handlers = {
        "witness": _cmd_witness,
        "chi": _cmd_chi,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
        "gen": _cmd_gen,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (GraphError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_CONTRACT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EX_IOERR


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
