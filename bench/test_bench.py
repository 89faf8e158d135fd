"""Tests of the benchmark's own parts: the witness validator, the corpus
generator, the counting of failed operations and the speed probe.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import collections
import itertools
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import toroidal  # noqa: E402
import worker  # noqa: E402


def subdivided_k5():
    """K5 on 0..4 with the edge 0-1 replaced by the path 0-5-1."""
    edges = set(itertools.combinations(range(5), 2)) - {(0, 1)} | {(0, 5), (1, 5)}
    witness = {
        "pattern": "K5",
        "corners": {str(i): i for i in range(5)},
        "paths": {f"{p},{q}": [p, q] for p, q in itertools.combinations(range(5), 2)},
    }
    witness["paths"]["0,1"] = [0, 5, 1]
    return 6, edges, witness


def test_validator_accepts_a_subdivision_and_the_package_witnesses():
    n, edges, witness = subdivided_k5()
    checks.check_witness(witness, n, edges)
    payload = toroidal.decide_toroidal(toroidal.Graph.complete(5)).to_payload()
    checks.check_witness(payload["tk5"], 5, set(itertools.combinations(range(5), 2)))


def test_validator_rejects_a_tampered_path():
    n, edges, witness = subdivided_k5()
    witness["paths"]["0,2"] = [0, 5, 2]  # 5-2 is not an edge
    with pytest.raises(checks.CheckFailed, match="not an edge"):
        checks.check_witness(witness, n, edges)
    n, edges, witness = subdivided_k5()
    witness["paths"]["0,2"] = [0, 3, 2]  # runs through corner 3
    with pytest.raises(checks.CheckFailed, match="through corner"):
        checks.check_witness(witness, n, edges)
    n, edges, witness = subdivided_k5()
    witness["paths"]["0,2"] = [2, 0]  # wrong direction: ends at the wrong corner
    with pytest.raises(checks.CheckFailed, match="does not join"):
        checks.check_witness(witness, n, edges)


def test_validator_rejects_a_reused_internal_vertex():
    n, edges, witness = subdivided_k5()
    edges = edges | {(2, 5)}
    witness["paths"]["0,2"] = [0, 5, 2]
    with pytest.raises(checks.CheckFailed, match="reused"):
        checks.check_witness(witness, n, edges)


def test_validator_rejects_a_missing_pattern_edge():
    n, edges, witness = subdivided_k5()
    del witness["paths"]["3,4"]
    with pytest.raises(checks.CheckFailed, match="cover"):
        checks.check_witness(witness, n, edges)


def test_corpus_is_in_class_with_the_expected_verdict_mix():
    graphs = corpus.clique_sum_corpus(seed=3, count=35)
    assert corpus.clique_sum_corpus(seed=3, count=35) == graphs
    assert collections.Counter(core for core, _ in graphs) == {c: 5 for c in corpus.CORE_ORDER}
    statuses = collections.Counter()
    for core, graph in graphs:
        n, edges = graph
        assert 10 <= n <= 45  # a target of at most 40, plus one piece
        verdict = toroidal.decide_toroidal(toroidal.from_graph6(corpus.to_graph6(graph)))
        expected = "Toroidal" if core in corpus.TOROIDAL_CORES else "NonToroidal"
        assert verdict.status == expected, (core, corpus.to_graph6(graph))
        statuses[verdict.status] += 1
    assert statuses == {"Toroidal": 15, "NonToroidal": 20}


def test_tm_cap_is_a_counted_failure_not_a_dropped_graph():
    k5 = corpus.to_graph6(corpus.complete(5))
    _, fault = corpus.fault_graphs()[0]
    lines = [k5, corpus.to_graph6(fault), k5]
    ops, phases, outputs = worker.decide_round(toroidal, {"graph6": lines})
    assert len(ops) == 3 and "capped at 16 vertices" in ops[1]["error"]
    assert outputs["payloads"][1] is None and outputs["replays"] == [True, True]
    round_ = {"ops": ops, "phases": phases, "outputs": outputs, "peak_rss_mb": 1.0}
    assert run.tally([round_, round_]) == (6, 2)
    expected = ["Toroidal", "NonToroidal", "Toroidal"]
    checks.check_clique_sums(lines, expected, {1}, outputs)
    with pytest.raises(checks.CheckFailed, match="outside the fixed fault graphs"):
        checks.check_clique_sums(lines, expected, set(), outputs)
    assert run.op_p90_ms([round_]) == float("inf")


def test_speed_probe_samples_a_round_and_leaves_its_time_out():
    probe = speed.Probe()
    probe.start()
    start = probe.clock()
    end = time.perf_counter() + 0.5
    while time.perf_counter() < end:
        sum(range(1000))
    probe.stop()
    assert len(probe.units) >= 3
    assert probe.clock() - start == pytest.approx(0.5 - probe.spent, abs=0.05)
    mean_unit = probe.spent / len(probe.units)
    assert probe.scale(2.0) == pytest.approx(2.0 * speed.REF_UNIT_S / mean_unit)
