"""Acceptance suite: one test per criterion, each printing a PASS line.

The exhaustive n <= 8 sweep runs once (single worker, instrumented so every
probe outcome and every Kempe chain built anywhere in the proof path is
audited) and its report is shared by the criteria that need it.
"""

import random
import time
from dataclasses import asdict
from pathlib import Path

import pytest
from _pytest.monkeypatch import MonkeyPatch

import chidelta.witness as witness_mod
from chidelta.certificate import CliqueWitness, HighOddHoleWitness, verify_certificate
from chidelta.coloring import chromatic_number, find_k_coloring, kempe_chain
from chidelta.generate import generate_connected_graphs
from chidelta.graph import cycle_power, decode_graph6, encode_graph6, max_degree
from chidelta.oracle import (
    find_clique,
    find_high_odd_hole,
    is_c7_complement,
    oracle_witness,
)
from chidelta.sweep import theorem_sweep
from chidelta.witness import find_witness, squared_cycle_hole

from conftest import (
    c7_complement,
    forced_coloring_conflict,
    grotzsch,
    is_proper,
    k_n,
    kempe_swap,
    petersen,
    random_graph,
    sequence_three_coloring,
)

EXPECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853, 11117]
CORPUS_N8 = Path(__file__).resolve().parents[1] / "bench" / "data" / "connected_n8.g6"


@pytest.fixture(scope="module")
def audited_sweep():
    audit = {
        "probe_calls": 0,
        "holes": 0,
        "adjacent": 0,
        "swap_checks": 0,
        "violations": [],
    }
    orig_probe = witness_mod.kempe_adjacency_probe
    orig_split = witness_mod.neighborhood_split
    orig_chain = witness_mod.kempe_chain

    def probe_wrapper(h, x, y, z, phi):
        out = orig_probe(h, x, y, z, phi)
        audit["probe_calls"] += 1
        if isinstance(out, HighOddHoleWitness):
            audit["holes"] += 1
            cycle = out.cycle
            verdict = verify_certificate(h, out)
            if not verdict.ok or len(cycle) % 2 == 0 or len(cycle) < 5:
                audit["violations"].append(("hole", cycle, verdict.reason))
        elif out is None:
            audit["adjacent"] += 1
        else:
            audit["violations"].append(("probe result", out))
        return out

    def split_wrapper(g, v, phi):
        out = orig_split(g, v, phi)
        if isinstance(out, HighOddHoleWitness):
            audit["holes"] += 1
            verdict = verify_certificate(g, out)
            if not verdict.ok or len(out.cycle) % 2 == 0 or len(out.cycle) < 5:
                audit["violations"].append(("split hole", out.cycle, verdict.reason))
        return out

    def chain_wrapper(g, c, start, a, b):
        chain = orig_chain(g, c, start, a, b)
        audit["swap_checks"] += 1
        if not is_proper(g, kempe_swap(c, chain, a, b)):
            audit["violations"].append(("swap", chain))
        return chain

    mp = MonkeyPatch()
    mp.setattr(witness_mod, "kempe_adjacency_probe", probe_wrapper)
    mp.setattr(witness_mod, "neighborhood_split", split_wrapper)
    mp.setattr(witness_mod, "kempe_chain", chain_wrapper)
    started = time.perf_counter()
    try:
        report = theorem_sweep(8, "both", jobs=1)
    finally:
        mp.undo()
    elapsed = time.perf_counter() - started
    return report, audit, elapsed


def test_criterion_1_exhaustive_theorem_check(audited_sweep):
    report, _, elapsed = audited_sweep
    assert report.total_failures == 0
    for tally in report.orders:
        if tally.cohort:
            assert sum(tally.proof_kinds.values()) == tally.cohort
            assert sum(tally.oracle_kinds.values()) == tally.cohort
    assert [(o.n, o.exceptional) for o in report.orders if o.exceptional] == [(7, 1)]
    seven = next(o for o in report.orders if o.n == 7)
    assert seven.proof_kinds.get("c7_complement") == 1
    assert seven.oracle_kinds.get("c7_complement") == 1
    assert elapsed < 600  # well under the ten-minute single-thread budget
    print(
        f"\nPASS criterion 1: sweep n<=8 both methods, {report.total_graphs} graphs, "
        f"{report.total_cohort} with chi=delta, 0 failures, unique exception at n=7 "
        f"({elapsed:.1f}s)"
    )


def test_criterion_2_exceptional_graph_facts():
    g = c7_complement()
    assert chromatic_number(g) == 4
    assert max_degree(g) == 4
    assert find_clique(g, 4) is None
    assert find_high_odd_hole(g) is None
    positions = is_c7_complement(g)
    assert positions is not None
    assert sorted(positions) == list(range(7))
    print("\nPASS criterion 2: complement of C7 has chi=4, delta=4, no K4, no odd hole")


def test_criterion_3_squared_cycle_hole_construction():
    for k in range(3, 13):
        n = 3 * k + 1
        hole = squared_cycle_hole(n)
        assert len(hole) == 2 * k - 1
        verdict = verify_certificate(cycle_power(n, 2), HighOddHoleWitness(hole))
        assert verdict.ok, (n, verdict.reason)
    assert squared_cycle_hole(16) == (1, 3, 4, 6, 7, 9, 11, 13, 15)
    print("\nPASS criterion 3: hole length 2k-1 for k=3..12, n=16 matches the 9-cycle")


def _explicit_four_coloring(n):
    # concatenated blocks of (1,2,3) and (1,2,3,4): across any block boundary
    # (wrap included) the two nearest colours on each side stay distinct
    blocks_of_four = 1 if n % 3 == 1 else 2
    blocks_of_three = (n - 4 * blocks_of_four) // 3
    colors = [1, 2, 3] * blocks_of_three + [1, 2, 3, 4] * blocks_of_four
    return tuple(colors)


def test_criterion_4_residue_class_colorings():
    for n in range(6, 61, 3):
        assert is_proper(cycle_power(n, 2), sequence_three_coloring(n)), n
    for n in range(7, 62):
        if n % 3 == 0:
            continue
        rep = forced_coloring_conflict(n)
        g = cycle_power(n, 2)
        u, w = rep.edge
        assert g.has_edge(u, w) and rep.forced[u] == rep.forced[w], n
        replay = [1, 2, 3]
        for p in range(3, n):
            replay.append(6 - replay[-1] - replay[-2])
        assert tuple(replay) == rep.forced, n
        if n <= 20:
            assert chromatic_number(g) == 4, n
        else:
            assert is_proper(g, _explicit_four_coloring(n)), n
    print(
        "\nPASS criterion 4: proper 3-colorings for n=0 mod 3 (6..60), forced conflicts "
        "and chi=4 for n!=0 mod 3 (7..61)"
    )


def test_criterion_5_probe_property_suite(audited_sweep):
    _, audit, _ = audited_sweep
    # a contradiction raises ContractError, which aborts the audited sweep
    # with SweepError, so reaching this point means the sweep met none
    assert audit["violations"] == []
    assert audit["probe_calls"] > 0 and audit["swap_checks"] > 0

    rng = random.Random(0xC1D3)
    swaps = 0
    while swaps < 10_000:
        g = random_graph(rng, rng.randint(2, 10), rng.choice([0.3, 0.5, 0.7]))
        k = rng.randint(2, 5)
        coloring = find_k_coloring(g, k)
        if coloring is None:
            continue
        start = rng.randrange(g.n)
        a = coloring[start]
        b = rng.choice([c for c in range(1, k + 1) if c != a])
        chain = kempe_chain(g, coloring, start, a, b)
        assert is_proper(g, kempe_swap(coloring, chain, a, b))
        swaps += 1
    print(
        f"\nPASS criterion 5: {audit['probe_calls']} probe calls "
        f"({audit['holes']} holes, all odd/chordless/high), "
        f"{audit['swap_checks']} in-sweep swaps plus {swaps} random swaps proper, "
        f"no contradiction raised"
    )


def test_criterion_6_named_instance_spot_checks():
    pet = petersen()
    w = find_witness(pet)
    assert isinstance(w, HighOddHoleWitness) and len(w.cycle) == 5
    assert verify_certificate(pet, w).ok

    gro = grotzsch()
    assert chromatic_number(gro) == 4
    w = oracle_witness(gro)
    assert isinstance(w, HighOddHoleWitness)
    assert verify_certificate(gro, w).ok

    w = oracle_witness(k_n(5))
    assert isinstance(w, CliqueWitness) and len(w.vertices) == 4
    assert verify_certificate(k_n(5), w).ok
    print(
        "\nPASS criterion 6: Petersen 5-hole, Grotzsch high odd hole, K5 size-4 clique"
    )


def test_criterion_7_codec_and_generator_regression(audited_sweep):
    # generated graphs reach their sweep task without the codec, so the round
    # trip of every generated graph is checked here
    for n in range(1, 9):
        for g in generate_connected_graphs(n):
            line = encode_graph6(g)
            back = decode_graph6(line)
            assert back == g and encode_graph6(back) == line, line
    report, _, _ = audited_sweep
    assert report.total_failures == 0
    assert [o.graphs for o in report.orders] == EXPECTED_COUNTS
    print(
        "\nPASS criterion 7: graph6 round trip over the full corpus, generation "
        f"counts {EXPECTED_COUNTS}"
    )


def test_generated_sweep_matches_corpus_replay(audited_sweep):
    # generated representatives and the committed corpus label each class
    # differently, and the proof route's kinds may depend on labels: pin that
    # the two give the same tallies, kinds included
    report, _, _ = audited_sweep
    replay = theorem_sweep(8, "both", jobs=1, corpus=CORPUS_N8.read_text(encoding="ascii").splitlines())

    def tallies(r):
        return [{k: v for k, v in asdict(o).items() if k != "seconds"} for o in r.orders]

    assert tallies(report) == tallies(replay)
    print(
        "\nPASS generated sweep equals corpus replay: per-order graphs, cohort, "
        "proof and oracle kinds, mismatches and exceptional graphs"
    )
