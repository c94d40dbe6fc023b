import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import chidelta.cli as cli_mod
from chidelta.certificate import CliqueWitness, HighOddHoleWitness, serialize_certificate
from chidelta.cli import EX_CONTRACT, EX_IOERR, EX_OK, EX_REJECT, EX_USAGE, cli_dispatch
from chidelta.graph import cycle_power, encode_graph6, graph_from_edges

from conftest import c7_complement

C7C_LINE = encode_graph6(c7_complement())


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SRC = Path(__file__).resolve().parents[1] / "src"
CORPUS_N8 = SRC.parent / "bench" / "data" / "connected_n8.g6"


def test_serial_use_never_loads_multiprocessing():
    # only a sweep with --jobs > 1 needs a pool; a fresh interpreter that
    # imports the CLI and runs a serial sweep must not have loaded it
    script = (
        "import contextlib, io, sys\n"
        "import chidelta.cli as cli\n"
        "loaded = ['multiprocessing' in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.cli_dispatch(['sweep', '--max-n', '4', '--jobs', '1']) == 0\n"
        "loaded.append('multiprocessing' in sys.modules)\n"
        "print(loaded)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert done.stdout.strip() == "[False, False]"


def test_witness_loads_neither_logging_nor_array():
    # only the Δ ≥ 5 oracle fallback logs and only generation holds codes in
    # an array, so importing the CLI and running a witness loads neither;
    # a module the interpreter loaded before the CLI is not counted
    script = (
        "import contextlib, io, sys\n"
        "before = {'logging', 'array'} & set(sys.modules)\n"
        "import chidelta.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.cli_dispatch(['witness', '--graph', 'LzKWWKB?W@oBoB', '--method', 'both']) == 0\n"
        "print(sorted({'logging', 'array'} & set(sys.modules) - before))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_cli_loads_neither_dataclasses_inspect_nor_typing(tmp_path):
    # -S keeps `site` and its .pth files from loading typing before the CLI
    # does, so nothing is loaded before the import and the check is exact
    cert = tmp_path / "cert.json"
    cert.write_text(serialize_certificate(HighOddHoleWitness((0, 1, 2, 3, 4))))
    corpus = tmp_path / "c.g6"
    corpus.write_text("\n".join(CORPUS_N8.read_text().splitlines()[:10] + [C7C_LINE]) + "\n")
    script = (
        "import contextlib, io, sys\n"
        "cert, corpus, c5 = sys.argv[1:]\n"
        "import chidelta.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.cli_dispatch(['witness', '--graph', 'LzKWWKB?W@oBoB', '--method', 'both']) == 0\n"
        "    assert cli.cli_dispatch(['verify', '--graph', c5, '--certificate', cert]) == 0\n"
        "    assert cli.cli_dispatch(['sweep', '--max-n', '7', '--corpus', corpus]) == 0\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, str(cert), str(corpus), encode_graph6(cycle_power(5, 1))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    assert done.stdout.strip() == "[]"


# --- witness ---------------------------------------------------------------


def test_witness_oracle_on_k4(capsys):
    # K4 has chi = 4, delta = 3: the oracle hands back a K3 = K_delta
    code, out, _ = run(capsys, "witness", "--graph", "C~", "--method", "oracle")
    assert code == EX_OK
    assert "kind: clique" in out


def test_witness_proof_rejects_k4(capsys):
    # the proof-driven search requires chi = delta and K4 has chi = delta + 1
    code, _, err = run(capsys, "witness", "--graph", "C~")
    assert code == EX_CONTRACT
    assert "chromatic number" in err


def test_witness_exceptional(capsys):
    code, out, _ = run(capsys, "witness", "--graph", C7C_LINE)
    assert code == EX_OK
    assert "c7_complement" in out and "exceptional" in out


def test_witness_proof_json(capsys):
    line = encode_graph6(cycle_power(16, 2))
    code, out, _ = run(capsys, "witness", "--graph", line, "--format", "json")
    assert code == EX_OK
    obj = json.loads(out)
    assert obj["kind"] == "high_odd_hole" and len(obj["cycle"]) == 9


def test_witness_both_agreement(capsys):
    line = encode_graph6(cycle_power(10, 2))
    code, out, _ = run(capsys, "witness", "--graph", line, "--method", "both", "--format", "json")
    assert code == EX_OK
    obj = json.loads(out)
    assert obj["kinds_agree"] is True
    assert obj["proof"]["kind"] == obj["oracle"]["kind"] == "high_odd_hole"


def test_witness_both_as_text(capsys):
    line = encode_graph6(cycle_power(10, 2))
    code, out, _ = run(capsys, "witness", "--graph", line, "--method", "both", "--format", "text")
    assert code == EX_OK
    proof, oracle = out.split("[oracle]\n")
    assert proof.startswith("[proof]\n") and "kind: high_odd_hole" in proof
    assert "kind: high_odd_hole" in oracle
    assert out.endswith("kinds agree: yes\n")


def test_witness_oracle_finds_nothing_on_k33(capsys):
    # K_{3,3} has chi = 2 < delta = 3: no K_3, no odd hole, not the exception
    k33 = graph_from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    code, out, err = run(capsys, "witness", "--graph", encode_graph6(k33), "--method", "oracle")
    assert code == EX_CONTRACT and out == ""
    assert err == "error: oracle found no clique, high odd hole, or exceptional graph\n"


def test_witness_on_the_empty_graph_is_a_contract_error(capsys):
    code, out, err = run(capsys, "witness", "--graph", "?")
    assert code == EX_CONTRACT and out == ""
    assert err == "error: empty graph\n"


@pytest.mark.parametrize("method", ["oracle", "both"])
def test_witness_rejects_bogus_oracle_certificate(capsys, monkeypatch, method):
    monkeypatch.setattr(
        "chidelta.cli.oracle_witness", lambda g: CliqueWitness(frozenset(range(g.n)))
    )
    code, out, err = run(capsys, "witness", "--graph", C7C_LINE, "--method", method)
    assert code == EX_REJECT
    assert "reject: oracle certificate" in err and "clique" not in out


def test_witness_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(C7C_LINE + "\n"))
    code, out, _ = run(capsys, "witness", "--graph", "-")
    assert code == EX_OK and "c7_complement" in out


def test_witness_disconnected_graph(capsys):
    code, _, err = run(capsys, "witness", "--graph", "C`")  # two disjoint edges
    assert code == EX_CONTRACT and "disconnected" in err


@pytest.mark.parametrize("method", ["proof", "oracle", "both"])
def test_witness_rejects_disconnected_graph_under_every_method(capsys, method):
    # C4 plus an isolated vertex: the oracle alone would find the edge K2 = K_delta
    code, out, err = run(capsys, "witness", "--graph", "Dl?", "--method", method)
    assert code == EX_CONTRACT and out == ""
    assert err == "error: input graph is disconnected\n"


def test_witness_malformed_graph6(capsys):
    code, _, err = run(capsys, "witness", "--graph", "C~~~")
    assert code == EX_CONTRACT and "error" in err


# --- chi --------------------------------------------------------------------


def test_chi_reports_both_numbers(capsys):
    code, out, _ = run(capsys, "chi", "--graph", "C~")
    assert code == EX_OK and out.strip() == "chi=4 delta=3"
    code, out, _ = run(capsys, "chi", "--graph", C7C_LINE)
    assert code == EX_OK and out.strip() == "chi=4 delta=4"


def test_chi_empty_graph_is_contract_error(capsys):
    code, _, err = run(capsys, "chi", "--graph", "?")
    assert code == EX_CONTRACT and err.strip() == "error: empty graph"


# --- verify -----------------------------------------------------------------


def test_verify_accepts_good_certificate(capsys, tmp_path):
    line = encode_graph6(cycle_power(5, 1))
    path = tmp_path / "cert.json"
    path.write_text(serialize_certificate(HighOddHoleWitness((0, 1, 2, 3, 4))))
    code, out, _ = run(capsys, "verify", "--graph", line, "--certificate", str(path))
    assert code == EX_OK and out.strip() == "accept"


def test_verify_rejects_tampered_cycle(capsys, tmp_path):
    line = encode_graph6(cycle_power(5, 1))
    path = tmp_path / "cert.json"
    path.write_text(serialize_certificate(HighOddHoleWitness((0, 1, 2, 4, 3))))
    code, out, _ = run(capsys, "verify", "--graph", line, "--certificate", str(path))
    assert code == EX_REJECT
    assert "adjacency violated" in out or "chord present" in out


def test_verify_rejects_malformed_certificate(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text('{"kind": "sorcery"}')
    code, out, _ = run(capsys, "verify", "--graph", "C~", "--certificate", str(path))
    assert code == EX_REJECT and "malformed" in out


def test_verify_rejects_repeated_clique_vertex(capsys, tmp_path):
    # the repeat would otherwise collapse into {0, 1, 2}, a valid clique of K4
    path = tmp_path / "cert.json"
    path.write_text('{"kind": "clique", "vertices": [0, 0, 1, 2]}')
    code, out, _ = run(capsys, "verify", "--graph", "C~", "--certificate", str(path))
    assert code == EX_REJECT and out.startswith("reject: malformed certificate: ")


def test_verify_rejects_non_utf8_certificate(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_bytes(b'{"kind": "clique", "vertices": [0, 1, 2]}\xff\xfe')
    code, out, _ = run(capsys, "verify", "--graph", "C~", "--certificate", str(path))
    assert code == EX_REJECT and out.startswith("reject: malformed certificate: ")


def test_verify_on_the_empty_graph_is_a_rejection(capsys, tmp_path):
    # '?' is a well-formed graph6 line: a certificate for it is rejected, not an error
    path = tmp_path / "cert.json"
    path.write_text('{"kind": "clique", "vertices": []}')
    code, out, err = run(capsys, "verify", "--graph", "?", "--certificate", str(path))
    assert code == EX_REJECT and err == ""
    assert out.strip() == "reject: empty graph has no maximum degree"


def test_verify_missing_file_is_io_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "verify", "--graph", "C~", "--certificate", str(tmp_path / "nope.json")
    )
    assert code == EX_IOERR


# --- sweep ------------------------------------------------------------------


def test_sweep_small(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "sweep", "--max-n", "5", "--method", "both", "--json", str(out_json)
    )
    assert code == EX_OK
    assert "PASS" in out
    report = json.loads(out_json.read_text())
    assert report["ok"] is True
    assert [o["graphs"] for o in report["orders"]] == [1, 1, 2, 6, 21]
    # the keys come in the order of the pinned report, at the top and per order
    pinned = json.loads((SRC.parent / "tests" / "data" / "sweep9_report.json").read_text())
    assert list(report) == list(pinned)
    assert all(list(o) == list(pinned["orders"][0]) for o in report["orders"])


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_nonpositive_jobs(capsys, jobs):
    code, out, err = run(capsys, "sweep", "--max-n", "3", "--jobs", jobs)
    assert code == EX_USAGE and "jobs" in err and out == ""


def test_sweep_corpus_option(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text(C7C_LINE + "\n")
    code, out, _ = run(
        capsys, "sweep", "--max-n", "7", "--min-n", "7", "--corpus", str(corpus)
    )
    assert code == EX_OK and "c7_complement:1" in out


def test_sweep_bad_range_is_usage_error(capsys):
    code, _, err = run(capsys, "sweep", "--max-n", "12")
    assert code == EX_USAGE and "usage error" in err


@pytest.mark.parametrize("min_n,max_n", [("5", "2"), ("-3", "1")])
def test_sweep_corpus_bad_range_is_usage_error(capsys, tmp_path, min_n, max_n):
    corpus = tmp_path / "c.g6"
    corpus.write_text(C7C_LINE + "\n")
    code, out, err = run(
        capsys, "sweep", "--min-n", min_n, "--max-n", max_n, "--corpus", str(corpus)
    )
    assert code == EX_USAGE and "order range" in err and out == ""


def test_sweep_missing_corpus_is_io_error(capsys, tmp_path):
    code, out, err = run(
        capsys, "sweep", "--max-n", "3", "--corpus", str(tmp_path / "nope.g6")
    )
    assert code == EX_IOERR and err.startswith("i/o error: [Errno") and out == ""


def test_sweep_unwritable_json_is_io_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "sweep", "--max-n", "3", "--json", str(tmp_path / "missing" / "report.json")
    )
    assert code == EX_IOERR and err.startswith("i/o error: [Errno")


def test_sweep_malformed_corpus_is_contract_error(capsys, tmp_path):
    corpus = tmp_path / "bad.g6"
    corpus.write_text("C~~~\n")
    code, _, err = run(capsys, "sweep", "--max-n", "4", "--corpus", str(corpus))
    assert code == EX_CONTRACT


def test_sweep_malformed_corpus_names_the_line(capsys, tmp_path):
    corpus = tmp_path / "bad.g6"
    corpus.write_text("C~\nDhc\n!!bad\n")
    code, _, err = run(capsys, "sweep", "--max-n", "5", "--corpus", str(corpus))
    assert code == EX_CONTRACT
    assert "corpus line 3 '!!bad'" in err and "malformed length byte" in err


def test_sweep_non_utf8_corpus_names_the_line(capsys, tmp_path):
    corpus = tmp_path / "bad.g6"
    corpus.write_bytes(b"C~\n\xff\xfe\n")
    code, _, err = run(capsys, "sweep", "--max-n", "5", "--corpus", str(corpus))
    assert code == EX_CONTRACT
    assert "corpus line 2 " in err and "malformed length byte" in err


@pytest.mark.parametrize("method", ["proof", "oracle", "both"])
@pytest.mark.parametrize("line", ["Dl?", "A?"])
def test_sweep_disconnected_corpus_line_is_rejected(capsys, tmp_path, line, method):
    # C4 plus an isolated vertex, or two isolated vertices: outside the
    # connected graphs the sweep is defined over, under every method
    corpus = tmp_path / "c.g6"
    corpus.write_text(line + "\n")
    code, out, err = run(
        capsys, "sweep", "--max-n", "5", "--method", method, "--corpus", str(corpus)
    )
    assert code == EX_REJECT and out == ""
    assert "sweep failed: graph is disconnected" in err
    assert f"offending graph6 line: {line}\n" in err


# --- gen --------------------------------------------------------------------


def test_gen_squared_cycle(capsys):
    code, out, _ = run(capsys, "gen", "--squared-cycle", "16")
    assert code == EX_OK
    assert out.strip() == encode_graph6(cycle_power(16, 2))


def test_gen_rejects_tiny_cycle(capsys):
    code, out, err = run(capsys, "gen", "--squared-cycle", "2")
    assert code == EX_USAGE and out == "" and "3..62" in err


@pytest.mark.parametrize("n,code", [("62", EX_OK), ("63", EX_USAGE)], ids=["62", "63"])
def test_gen_order_range_top(capsys, n, code):
    # past the single-byte graph6 range is the same usage error as below 3
    got, out, err = run(capsys, "gen", "--squared-cycle", n)
    assert got == code
    if code == EX_OK:
        assert out.strip() == encode_graph6(cycle_power(62, 2))
    else:
        assert out == "" and "3..62" in err


# --- usage ------------------------------------------------------------------


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == EX_USAGE


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "witness")
    assert code == EX_USAGE


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "chidelta" in out


# --- one parser per process ------------------------------------------------

C16_LINE = encode_graph6(cycle_power(16, 2))


def test_parser_is_built_once(capsys):
    run(capsys, "gen", "--squared-cycle", "7")
    run(capsys, "witness", "--graph", C16_LINE)
    assert cli_mod._build_parser.cache_info().misses == 1


def test_defaults_return_after_options_were_given(capsys):
    code, out, _ = run(capsys, "witness", "--graph", C16_LINE, "--method", "both", "--format", "json")
    assert code == EX_OK and json.loads(out)["kinds_agree"] is True
    code, out, _ = run(capsys, "witness", "--graph", C16_LINE)
    assert code == EX_OK
    assert out.startswith("kind: high_odd_hole") and "[oracle]" not in out


@pytest.mark.parametrize(
    "first, first_code",
    [(["witness", "--method", "both"], EX_USAGE), (["--help"], EX_OK), (["witness", "--help"], EX_OK)],
    ids=["usage-error", "help", "subcommand-help"],
)
def test_failed_parse_leaves_the_parser_usable(capsys, first, first_code):
    code, _, _ = run(capsys, *first)
    assert code == first_code
    code, out, err = run(capsys, "witness", "--graph", C16_LINE, "--format", "json")
    assert code == EX_OK and err == ""
    assert json.loads(out)["kind"] == "high_odd_hole"


# --- README ----------------------------------------------------------------


def _readme_examples():
    """(argv, shown output) of each `$ chidelta ...` line in README.md that
    has output shown below it, up to the next prompt or the end of its block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    examples, current = [], None
    for line in text.splitlines():
        if line.startswith("$ chidelta "):
            current = (shlex.split(line)[2:], [])
            examples.append(current)
        elif line.startswith(("$", "```")):
            current = None
        elif current is not None:
            current[1].append(line)
    return [(argv, "\n".join(shown) + "\n") for argv, shown in examples if shown]


README_EXAMPLES = _readme_examples()


def test_readme_examples_found():
    # the sweep example shows no output and is not run
    assert [argv[0] for argv, _ in README_EXAMPLES] == ["gen", "witness"]


@pytest.mark.parametrize("argv, shown", README_EXAMPLES, ids=[a[0] for a, _ in README_EXAMPLES])
def test_readme_example_output(capsys, argv, shown):
    code, out, _ = run(capsys, *argv)
    assert code == EX_OK and out == shown
