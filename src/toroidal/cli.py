"""Command-line front end for batch decisions, catalog verification,
split enumeration, and the genus oracle.

Exit codes: 0 = query answered (whatever the verdict), 1 = input error,
2 = class violation (some input contains a K3,3), 3 = budget refusal: the
genus oracle's rotation budget; ``decide``, ``verify-obstructions`` and
``splits`` run no budgeted search.  ``decide`` and ``genus`` load and
answer graph by graph: an input error or a budget refusal in one graph of
a batch is reported for that graph and the rest go on; exit 1 then takes
precedence over 3, and 3 over 2.  141 = stdout closed before
the output was written, as a shell reports a process that SIGPIPE ended;
nothing goes to stderr then.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Callable
from functools import partial

from .errors import BudgetExceeded, GraphInputError
from .genus import DEFAULT_BUDGET, count_torus_embeddings, min_genus_bruteforce
from .graphs import Graph, from_edge_list_text, from_graph6, to_graph6
from .isomorphism import is_isomorphic
from .obstructions import (
    MINOR_OBSTRUCTION_NAMES,
    TOPOLOGICAL_OBSTRUCTION_NAMES,
    builtin,
    catalog,
    enumerate_splits,
    verify_minor_obstruction,
    verify_topological_obstruction,
)
from .toroidality import NOT_IN_CLASS, decide_toroidal

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CLASS = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141

# how a refusal is reported: its kind on stderr and its exit code
_REFUSALS = {
    GraphInputError: ("input error", EXIT_INPUT),
    BudgetExceeded: ("budget refusal", EXIT_BUDGET),
}


def _refusal(exc: Exception) -> tuple[str, int]:
    return next(v for t, v in _REFUSALS.items() if isinstance(exc, t))


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GraphInputError(f"cannot read {path}: {exc}") from None


def _parse_graphs(
    text: str, fmt: str, label: str
) -> list[tuple[str, Callable[[], Graph]]]:
    if fmt == "graph6":
        parse, chunks = from_graph6, [l for l in text.splitlines() if l.strip()]
    elif fmt == "edgelist":
        parse = from_edge_list_text
        # graphs are separated by lines that hold only whitespace
        chunks = [c for c in re.split(r"\n\s*\n", text) if c.strip()]
    else:
        raise GraphInputError(f"unknown format {fmt!r}")
    return [(f"{label}:{i}", partial(parse, chunk)) for i, chunk in enumerate(chunks)]


def _gather_inputs(args) -> list[tuple[str, Callable[[], Graph]]]:
    """Each input's label and a loader that parses it, raising
    GraphInputError for that input alone."""
    graphs: list[tuple[str, Callable[[], Graph]]] = []
    for name in args.name or ():
        graphs.append((name, partial(builtin, name)))
    for path in args.files or ():
        graphs.extend(_parse_graphs(_read_text(path), args.format, path))
    if not args.name and not args.files:
        graphs.extend(_parse_graphs(_read_text("-"), args.format, "stdin"))
    if not graphs:
        raise GraphInputError("no graphs in input")
    return graphs


def _answer_each(
    args, answer: Callable[[Graph], tuple[dict, str, int]]
) -> int:
    """Load and answer the input graphs one by one.  ``answer`` gives a
    graph's JSON fields, its text line and its exit code; a graph that fails
    to load, or that the oracle refuses, is reported alone and the rest go
    on.  The batch exits 1 if any graph did, else 3, else 2, else 0."""
    payloads = []
    codes = set()
    for label, load in _gather_inputs(args):
        try:
            fields, line, code = answer(load())
        except tuple(_REFUSALS) as exc:
            kind, code = _refusal(exc)
            fields, line = {"error": str(exc)}, None
            if not args.json:
                print(f"{label}: {kind}: {exc}", file=sys.stderr)
        codes.add(code)
        if args.json:
            payloads.append({"input": label, **fields})
        elif line is not None:
            print(f"{label}: {line}")
    if args.json:
        print(json.dumps(payloads, indent=2, sort_keys=True))
    return next(
        (c for c in (EXIT_INPUT, EXIT_BUDGET, EXIT_CLASS) if c in codes), EXIT_OK
    )


def cmd_decide(args) -> int:
    def answer(g: Graph) -> tuple[dict, str, int]:
        verdict = decide_toroidal(g)
        code = EXIT_CLASS if verdict.status == NOT_IN_CLASS else EXIT_OK
        return verdict.to_payload(), f"{verdict.status} {verdict.case}", code

    return _answer_each(args, answer)


_OBSTRUCTIONS = {
    "minor": (MINOR_OBSTRUCTION_NAMES, verify_minor_obstruction),
    "topological": (TOPOLOGICAL_OBSTRUCTION_NAMES, verify_topological_obstruction),
}


def cmd_verify_obstructions(args) -> int:
    names, verify = _OBSTRUCTIONS[args.kind]
    reports = {}
    for name in names:
        reports[name] = report = verify(builtin(name))
        if not args.json:
            print(f"{name}: {'PASS' if report['passes'] else 'FAIL'}")
    failures = [name for name, report in reports.items() if not report["passes"]]
    if args.json:
        out = {"kind": args.kind, "failures": failures, "reports": reports}
        print(json.dumps(out, indent=2, sort_keys=True))
    elif failures:
        print(f"failures: {' '.join(failures)}")
    else:
        print(f"all {len(names)} {args.kind} obstructions verified")
    return EXIT_OK


def cmd_splits(args) -> int:
    seeds = [builtin(n) for n in (args.seeds or MINOR_OBSTRUCTION_NAMES)]
    result = enumerate_splits(seeds, ceiling=args.ceiling)
    lines = [to_graph6(g) for g in result]
    if args.json:
        print(json.dumps({"count": len(lines), "graphs": lines}, indent=2))
    else:
        for line in lines:
            print(line)
        print(f"count: {len(lines)}")
    return EXIT_OK


def cmd_genus(args) -> int:
    if args.count_torus:
        oracle, key = count_torus_embeddings, "torus_embeddings"
    else:
        oracle, key = min_genus_bruteforce, "genus"

    def answer(g: Graph) -> tuple[dict, str, int]:
        value = oracle(g, budget=args.budget)
        return {key: value}, f"{key} = {value}", EXIT_OK

    return _answer_each(args, answer)


def cmd_isomorphic(args) -> int:
    def load(source: str) -> Graph:
        if source in catalog():
            return builtin(source)
        text = _read_text(source)
        stripped = text.strip()
        if "\n" not in stripped and stripped and not stripped[0].isdigit():
            return from_graph6(stripped)
        return from_edge_list_text(text)

    a, b = load(args.a), load(args.b)
    answer = is_isomorphic(a, b)
    print("true" if answer else "false")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toroidal",
        description="Toroidality decisions for graphs with no K3,3-subdivisions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_inputs(p):
        p.add_argument("files", nargs="*", help="input files ('-' for stdin)")
        p.add_argument(
            "--format",
            choices=("edgelist", "graph6"),
            default="edgelist",
            help="input format (edgelist: 'n m' header then edge lines, "
            "blank-line separated; graph6: one graph per line)",
        )
        p.add_argument(
            "--name",
            action="append",
            help="use a catalog graph (K5, K3,3, M, G1..G11); repeatable",
        )

    p = sub.add_parser("decide", help="decide toroidality, with certificate")
    add_inputs(p)
    p.add_argument("--json", action="store_true", help="emit JSON certificates")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("verify-obstructions", help="verify the catalog")
    p.add_argument("--kind", choices=tuple(_OBSTRUCTIONS), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_obstructions)

    p = sub.add_parser("splits", help="regenerate obstructions by vertex splits")
    p.add_argument("--seeds", nargs="*", help="catalog names (default G1..G4)")
    p.add_argument("--ceiling", type=int, default=16, help="vertex-count cap")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_splits)

    p = sub.add_parser("genus", help="brute-force orientable genus oracle")
    add_inputs(p)
    p.add_argument("--count-torus", action="store_true",
                   help="count inequivalent torus embeddings instead")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="rotation budget (default %(default)s)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser("isomorphic", help="test two graphs for isomorphism")
    p.add_argument("a", help="file or catalog name")
    p.add_argument("b", help="file or catalog name")
    p.set_defaults(func=cmd_isomorphic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: later writes, the one at exit too, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except tuple(_REFUSALS) as exc:
        kind, code = _refusal(exc)
        print(f"{kind}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
