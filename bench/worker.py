"""One round of a benchmark workload, in a fresh interpreter.

Reads a job as JSON on stdin and prints the round's timings and outputs as
JSON on stdout.  A fresh interpreter per round means the package's
module-level caches start empty in every round, as they do for each CLI
call.  Only the calls into the package are timed: setup (import plus
catalog load) and every correctness check happen outside.  An untraced
round also samples the machine's speed (speed.py) and leaves the samples'
time out of its timings.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.perf_counter


def decide_round(toroidal, inputs):
    """Phase 1: parse, decide and serialize each graph.  Phase 2: replay
    every certificate.  An operation is one graph; the input error raised
    by the TM-search cap is the one failure counted rather than raised."""
    ops, payloads, decided = [], [], []
    start = clock()
    for line in inputs["graph6"]:
        t0 = clock()
        try:
            g = toroidal.from_graph6(line)
            verdict = toroidal.decide_toroidal(g)
            payload = verdict.to_payload()
        except toroidal.GraphInputError as exc:
            ops.append({"s": clock() - t0, "error": str(exc)})
            payloads.append(None)
            continue
        ops.append({"s": clock() - t0, "error": None})
        payloads.append(payload)
        decided.append((g, verdict))
    phase1 = clock() - start
    start = clock()
    replays = [toroidal.verify_certificate(g, verdict) for g, verdict in decided]
    phase2 = clock() - start
    outputs = {"payloads": payloads, "errors": [op["error"] for op in ops], "replays": replays}
    return ops, [phase1, phase2], outputs


def obstructions_round(toroidal, inputs):
    """Phase 1: the minor report of each of G1..G11 (one operation each).
    Phase 2: split regeneration from G1..G4 (one operation)."""
    ops, reports = [], {}
    start = clock()
    for name in inputs["reports"]:
        t0 = clock()
        reports[name] = toroidal.verify_minor_obstruction(toroidal.builtin(name))
        ops.append({"s": clock() - t0, "error": None})
    phase1 = clock() - start
    start = clock()
    seeds = [toroidal.builtin(name) for name in inputs["split_seeds"]]
    found = toroidal.enumerate_splits(seeds, ceiling=inputs["ceiling"])
    splits = [toroidal.to_graph6(g) for g in found]
    phase2 = clock() - start
    ops.append({"s": phase2, "error": None})
    return ops, [phase1, phase2], {"reports": reports, "splits": splits}


def genus_round(toroidal, inputs):
    """Phase 1: exact minimum genus of each graph.  Phase 2: torus
    embeddings of K5 and two genus distributions.  An operation is one
    oracle call."""
    graphs = {
        name: toroidal.Graph(range(n), edges) for name, (n, edges) in inputs["graphs"].items()
    }
    ops, out = [], {"genus": {}, "torus_embeddings": {}, "distribution": {}}

    def call(kind, name, fn):
        t0 = clock()
        out[kind][name] = fn(graphs[name])
        ops.append({"s": clock() - t0, "error": None})

    start = clock()
    for name in inputs["min_genus"]:
        call("genus", name, toroidal.min_genus_bruteforce)
    phase1 = clock() - start
    start = clock()
    for name in inputs["torus_embeddings"]:
        call("torus_embeddings", name, toroidal.count_torus_embeddings)
    for name in inputs["distribution"]:
        call("distribution", name, toroidal.genus_distribution)
    phase2 = clock() - start
    return ops, [phase1, phase2], out


def peak_rss_mb() -> float:
    """This interpreter's peak resident memory.  VmHWM is reset at exec;
    ru_maxrss is not, and would report the launching process's size."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


ROUNDS = {
    "atlas7": decide_round,
    "clique-sums": decide_round,
    "obstructions": obstructions_round,
    "genus-oracle": genus_round,
}


def main() -> int:
    job = json.load(sys.stdin)
    import toroidal

    toroidal.catalog()
    global clock
    tracer = probe = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        from speed import Probe

        probe = Probe()
        clock = probe.clock
        probe.start()
    ops, phases, outputs = ROUNDS[job["workload"]](toroidal, job["inputs"])
    if probe is not None:
        probe.stop()
    result = {
        "ops": ops,
        "phases": phases,
        "outputs": outputs,
        "peak_rss_mb": peak_rss_mb(),
    }
    if probe is not None:
        result["speed_samples"] = len(probe.units)
        result["ref_wall_s"] = probe.scale(sum(phases))
    if tracer is not None:
        unpinned = [
            name for name in tracer.names
            if name.startswith("subdivisions.find_subdivision.") and not name.endswith("_pinned")
        ]
        result["trace"] = tracer.summary()
        result["trace"]["within"] = {
            "check_planarity_in_extraction": tracer.count_within(
                ["networkx.check_planarity"], "planarity.kuratowski_witness"
            ),
            "unpinned_in_decision": tracer.count_within(unpinned, "toroidality.decide_toroidal"),
        }
        if job["spans_path"]:
            tracer.write_spans(job["spans_path"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
