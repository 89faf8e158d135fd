"""Benchmark of the toroidal package: one workload per run.

    python3 bench/run.py --workload clique-sums --seed 1 --seconds 24 --trace 0

Each round of the workload runs in a fresh interpreter (bench/worker.py),
one round after another on one thread, until the next round would end past
``--seconds``; every run does at least one whole round.  The outputs of
every round are checked after the timed work, and the last line printed is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones).  The same
object goes to bench/out/, with the spans of a traced run.  The exit code
is 0 when every check passed, 1 when one failed, 2 when the package
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import corpus  # noqa: E402
import speed  # noqa: E402

SETUP_PROBES = 7
SETUP_UNITS = 10
ROUND_TIMEOUT_S = 150
CLIQUE_SUMS_SEEDED = 140  # four cycles of the 35 core/growth strata
MINOR_NAMES = [f"G{i}" for i in range(1, 5)]
TOPOLOGICAL_NAMES = [f"G{i}" for i in range(1, 12)]


# -- workloads: inputs from the seed, and the checks on a round's outputs ----


def atlas7_inputs(seed):
    return {"graph6": corpus.atlas_graph6()}, {}


def atlas7_check(inputs, context, outputs):
    sys.path.insert(0, str(SRC))
    from toroidal import from_graph6
    from toroidal.subdivisions import find_minor

    k33 = from_graph6("EFz_")

    def has_k33_minor(line):
        return find_minor(from_graph6(line), k33) is not None

    checks.check_atlas(inputs["graph6"], outputs, has_k33_minor)


def clique_sums_inputs(seed):
    seeded = corpus.clique_sum_corpus(seed, CLIQUE_SUMS_SEEDED)
    fixed = corpus.tail_graphs()
    faults = corpus.fault_graphs()
    graphs = seeded + fixed + faults
    context = {
        "expected": [
            "Toroidal" if core in corpus.TOROIDAL_CORES else "NonToroidal" for core, _ in graphs
        ],
        "fault_indices": set(range(len(graphs) - len(faults), len(graphs))),
    }
    return {"graph6": [corpus.to_graph6(g) for _, g in graphs]}, context


def clique_sums_check(inputs, context, outputs):
    checks.check_clique_sums(
        inputs["graph6"], context["expected"], context["fault_indices"], outputs
    )


def obstructions_inputs(seed):
    inputs = {"reports": TOPOLOGICAL_NAMES, "split_seeds": MINOR_NAMES, "ceiling": 16}
    return inputs, {}


def obstructions_check(inputs, context, outputs):
    data = SRC / "toroidal" / "data"
    names = [entry["name"] for entry in json.loads((data / "catalog.json").read_text())]
    lines = (data / "catalog.g6").read_text().split()
    catalog = dict(zip(names, lines))
    checks.check_obstructions(outputs, {name: catalog[name] for name in TOPOLOGICAL_NAMES})


def genus_inputs(seed):
    graphs = corpus.genus_graphs()
    inputs = {
        "graphs": {name: graph for name, (graph, _) in graphs.items()},
        "min_genus": list(graphs),
        "torus_embeddings": ["K5"],
        "distribution": ["K5", "K3,4"],
        "expected_genus": {name: genus for name, (_, genus) in graphs.items()},
        "expected_torus_embeddings": {"K5": 6},
    }
    return inputs, {}


def genus_check(inputs, context, outputs):
    checks.check_genus(inputs, outputs)


WORKLOADS = {
    "atlas7": (atlas7_inputs, atlas7_check),
    "obstructions": (obstructions_inputs, obstructions_check),
    "clique-sums": (clique_sums_inputs, clique_sums_check),
    "genus-oracle": (genus_inputs, genus_check),
}


# -- running -----------------------------------------------------------------


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# A set-up probe: import the package and load the catalog, then time
# reference units of speed.py in the same interpreter.
SETUP_PROBE = """
import sys, time
import toroidal
toroidal.catalog()
sys.path.insert(0, {bench!r})
import speed
units = []
for _ in range({count}):
    start = time.perf_counter()
    speed.unit()
    units.append(time.perf_counter() - start)
print(sum(units), len(units))
"""


def measure_setup():
    """Seconds from starting an interpreter to ``import toroidal`` plus the
    catalog load, at the reference speed of speed.py: each probe's
    interpreter times SETUP_UNITS reference units after its set-up, and
    their mean scales it.  The median of SETUP_PROBES fresh interpreters."""
    code = SETUP_PROBE.format(bench=str(BENCH), count=SETUP_UNITS)
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], env=_env(), check=True,
            capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - start
        units_s, count = done.stdout.split()
        mean_unit = float(units_s) / int(count)
        times.append((elapsed - float(units_s)) * speed.REF_UNIT_S / mean_unit)
    return statistics.median(times)


def run_round(workload, inputs, trace, spans_path=None):
    job = {"workload": workload, "inputs": inputs, "trace": trace, "spans_path": spans_path}
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True,
        env=_env(), timeout=ROUND_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} round exited with {done.returncode}")
    return json.loads(done.stdout)


def run_rounds(workload, inputs, seconds, trace, spans_stem=None):
    """Whole rounds until the next one would end past ``seconds``."""
    rounds = []
    begin = time.perf_counter()
    while True:
        spans = f"{spans_stem}-round{len(rounds)}.json" if spans_stem else None
        rounds.append(run_round(workload, inputs, trace, spans))
        elapsed = time.perf_counter() - begin
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


# -- metrics ---------------------------------------------------------------


def tally(rounds):
    """(attempted, failed) operations over the run's rounds."""
    ops = [op for r in rounds for op in r["ops"]]
    return len(ops), sum(op["error"] is not None for op in ops)


def op_p90_ms(rounds):
    """90th percentile (nearest rank) of the operation latencies, in ms.
    An operation's latency is its median over the rounds; a failed
    operation sorts last, as infinitely slow."""
    latencies = sorted(
        math.inf if ops[0]["error"] else statistics.median(op["s"] for op in ops)
        for ops in zip(*(r["ops"] for r in rounds))
    )
    return 1e3 * latencies[math.ceil(0.9 * len(latencies)) - 1]


def end_to_end(rounds, setup_s):
    """Set-up time, and medians over the run's rounds.  ``ref_wall_s`` is
    a round's timed work at the reference speed of speed.py."""
    def median_of(key):
        return statistics.median(key(r) for r in rounds)

    values = {
        "setup_s": (setup_s, "s"),
        "ref_wall_s": (median_of(lambda r: r["ref_wall_s"]), "s"),
        "peak_rss_mb": (median_of(lambda r: r["peak_rss_mb"]), "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


# Functions whose calls and self time are reported, by span name.
LAYER_FUNCTIONS = [
    "graphs.blocks",
    "graphs.bridges_of",
    "graphs.from_graph6",
    "graphs.Graph.__init__",
    "planarity.is_planar",
    "planarity.kuratowski_witness",
    "planarity.find_k5_subdivision",
    "networkx.check_planarity",
    "isomorphism.canonical_form",
    "isomorphism.automorphisms",
    "structure.is_k33_free",
    "structure.find_k33_subdivision",
    "structure.decompose_by_corners",
    "subdivisions.find_subdivision.K5_pinned",
    "subdivisions.find_subdivision.K33",
    "subdivisions.find_subdivision.M",
    "subdivisions.SubdivisionWitness.validate",
    "toroidality.decide_toroidal",
    "toroidality.build_m_subdivision",
    "toroidality.verify_certificate",
    "toroidality.ToroidalityVerdict.to_payload",
    "obstructions.is_topological_obstruction",
    "obstructions.apply_split",
    "genus.min_genus_bruteforce",
    "genus.count_torus_embeddings",
    "genus.genus_distribution",
    "genus.hill_climb_genus",
    "genus.trace_faces",
]
LAYER_RATIOS = [
    ("planarity.kuratowski_witness.per_decision", "ratio"),
    ("networkx.check_planarity.per_extraction", "ratio"),
    ("planarity.is_planar.distinct_ratio", "ratio"),
    ("isomorphism.canonical_form.distinct_ratio", "ratio"),
    ("subdivisions.find_subdivision.unpinned_calls", "count"),
    ("genus.rotations_per_s", "1/s"),
    ("traced.wall_s", "s"),
]
ENUMERATORS = (
    "genus.min_genus_bruteforce",
    "genus.count_torus_embeddings",
    "genus.genus_distribution",
)


def rotations_visited(inputs, outputs):
    """Rotation systems the genus oracle enumerated in one round, from the
    rotation-space sizes: min_genus_bruteforce sweeps half the space (one
    reflection per system) unless its hill climb already found genus 0."""
    if "min_genus" not in inputs:
        return 0
    size = {name: checks.rotation_space_size(*g) for name, g in inputs["graphs"].items()}
    visited = sum(size[name] // 2 for name, genus in outputs["genus"].items() if genus > 0)
    visited += sum(size[name] for name in inputs["torus_embeddings"])
    return visited + sum(size[name] for name in inputs["distribution"])


def per_layer_round(r, visited):
    layers = r["trace"]["layers"]
    within = r["trace"]["within"]

    def get(name, field):
        return layers.get(name, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in LAYER_FUNCTIONS:
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    distinct = r["trace"]["distinct"]
    extractions = get("planarity.kuratowski_witness", "calls")
    enumeration = sum(get(n, "total_s") for n in ENUMERATORS)
    enumeration -= get("genus.hill_climb_genus", "total_s")
    out.update({
        "planarity.kuratowski_witness.per_decision": ratio(
            extractions, get("toroidality.decide_toroidal", "calls")),
        "networkx.check_planarity.per_extraction": ratio(
            within["check_planarity_in_extraction"], extractions),
        "planarity.is_planar.distinct_ratio": ratio(
            distinct["planarity.is_planar"], get("planarity.is_planar", "calls")),
        "isomorphism.canonical_form.distinct_ratio": ratio(
            distinct["isomorphism.canonical_form"], get("isomorphism.canonical_form", "calls")),
        "subdivisions.find_subdivision.unpinned_calls": within["unpinned_in_decision"],
        "genus.rotations_per_s": ratio(visited, enumeration),
        "traced.wall_s": sum(r["phases"]),
    })
    return out


def per_layer_units():
    units = {}
    for name in LAYER_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(dict(LAYER_RATIOS))
    return units


def per_layer(rounds, inputs):
    units = per_layer_units()
    each = [per_layer_round(r, rotations_visited(inputs, r["outputs"])) for r in rounds]
    return {
        name: {"value": statistics.median(v[name] for v in each), "unit": unit}
        for name, unit in units.items()
    }


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills the round's
    # interpreter and waits for it before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "toroidal" / "__init__.py").is_file():
        print(f"package sources not found under {SRC}", file=sys.stderr)
        return 2

    make_inputs, check = WORKLOADS[args.workload]
    inputs, context = make_inputs(args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_s = None if args.trace else measure_setup()
    rounds = run_rounds(
        args.workload, inputs, args.seconds, bool(args.trace),
        str(OUT / f"spans-{stem}") if args.trace else None,
    )

    correct = True
    try:
        check(inputs, context, rounds[0]["outputs"])
        first = json.dumps(rounds[0]["outputs"], sort_keys=True)
        for r in rounds[1:]:
            if json.dumps(r["outputs"], sort_keys=True) != first:
                raise checks.CheckFailed("rounds disagree on the same inputs")
    except checks.CheckFailed as exc:
        print(f"CHECK FAILED ({args.workload}, seed {args.seed}): {exc}", file=sys.stderr)
        correct = False

    attempted, failed = tally(rounds)
    metrics = per_layer(rounds, inputs) if args.trace else end_to_end(rounds, setup_s)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, round_phases=[r["phases"] for r in rounds], op_p90_ms=op_p90_ms(rounds))
    if not args.trace:
        record["wall_s"] = statistics.median(sum(r["phases"]) for r in rounds)
    (OUT / f"result-{stem}.json").write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
