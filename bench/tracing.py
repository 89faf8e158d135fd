"""Spans around the package's public functions, installed from outside.

The package's modules bind each other's functions at import time
(``from .planarity import is_planar``), so a function is replaced by its
wrapper in every module that holds it.  Each call records a span: name,
start, end and the index of the enclosing span.  Spans stay in memory in
flat arrays and are written out once, when the round ends.  A function's
self time is its span's duration minus the durations of its traced
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (module, attribute) pairs; a dotted attribute is a method of a class.
TARGETS = [
    ("graphs", "blocks"),
    ("graphs", "bridges_of"),
    ("graphs", "from_graph6"),
    ("graphs", "Graph.__init__"),
    ("planarity", "is_planar"),
    ("planarity", "kuratowski_witness"),
    ("planarity", "find_k5_subdivision"),
    ("isomorphism", "canonical_form"),
    ("isomorphism", "automorphisms"),
    ("structure", "is_k33_free"),
    ("structure", "find_k33_subdivision"),
    ("structure", "decompose_by_corners"),
    ("subdivisions", "find_subdivision"),
    ("subdivisions", "SubdivisionWitness.validate"),
    ("toroidality", "decide_toroidal"),
    ("toroidality", "build_m_subdivision"),
    ("toroidality", "verify_certificate"),
    ("toroidality", "ToroidalityVerdict.to_payload"),
    ("obstructions", "is_topological_obstruction"),
    ("obstructions", "apply_split"),
    ("genus", "min_genus_bruteforce"),
    ("genus", "count_torus_embeddings"),
    ("genus", "genus_distribution"),
    ("genus", "hill_climb_genus"),
    ("genus", "trace_faces"),
]

# Calls whose distinct first arguments are counted: the most a cache can save.
DISTINCT = ("planarity.is_planar", "isomorphism.canonical_form")

SUBDIVISION_PATTERNS = {"K5": "K5", "K3,3": "K33", "M": "M"}


def _subdivision_name(args, kwargs):
    """Span name of a find_subdivision call: its pattern, and whether corners
    are pinned."""
    pattern = args[1] if len(args) > 1 else kwargs["h"]
    label = SUBDIVISION_PATTERNS.get(pattern, "custom") if isinstance(pattern, str) else "custom"
    pinned = args[2] if len(args) > 2 else kwargs.get("require_corners")
    return f"subdivisions.find_subdivision.{label}{'_pinned' if pinned else ''}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.distinct: dict[str, set[int]] = {name: set() for name in DISTINCT}
        self._stack: list[list] = []  # [span index, traced child seconds]

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return nid

    def wrap(self, fn, name: str, namer=None):
        stack = self._stack
        clock = time.perf_counter
        seen = self.distinct.get(name)
        fixed_id = None if namer else self._name_id(name)

        def traced(*args, **kwargs):
            nid = fixed_id if namer is None else self._name_id(namer(args, kwargs))
            if seen is not None:
                seen.add(hash(args[0]))
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[idx] = end
                duration = end - start
                self.calls[nid] += 1
                self.total_s[nid] += duration
                self.self_s[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target, plus networkx's LR planarity test, which
        ``get_counterexample`` calls once per edge."""
        for module_name, attr in TARGETS:
            module = importlib.import_module(f"toroidal.{module_name}")
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(getattr(cls, method), name))
                continue
            namer = _subdivision_name if attr == "find_subdivision" else None
            self._replace_everywhere("toroidal", getattr(module, attr), name, namer)
        import networkx

        self._replace_everywhere(
            "networkx", networkx.check_planarity, "networkx.check_planarity"
        )

    def _replace_everywhere(self, package, original, name, namer=None):
        wrapper = self.wrap(original, name, namer)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == package or module_name.startswith(package + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def summary(self) -> dict:
        """Per span name: calls, self seconds and inclusive seconds; per
        DISTINCT name: the number of distinct first arguments."""
        return {
            "layers": {
                name: {
                    "calls": self.calls[i],
                    "self_s": self.self_s[i],
                    "total_s": self.total_s[i],
                }
                for i, name in enumerate(self.names)
            },
            "distinct": {name: len(seen) for name, seen in self.distinct.items()},
        }

    def count_within(self, names, ancestor: str) -> int:
        """Spans named in ``names`` that have a span named ``ancestor``
        somewhere above them."""
        ids = {self._ids[n] for n in names if n in self._ids}
        anc = self._ids.get(ancestor)
        if not ids or anc is None:
            return 0
        count = 0
        for i, nid in enumerate(self.span_name):
            if nid in ids:
                p = self.span_parent[i]
                while p >= 0 and self.span_name[p] != anc:
                    p = self.span_parent[p]
                count += p >= 0
        return count

    def write_spans(self, path) -> None:
        """One JSON object: the name table and one [name, parent, start, end]
        row per span, in call order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names": ' + json.dumps(self.names) + ', "spans": [')
            for i in range(len(self.span_start)):
                if i:
                    fh.write(",")
                fh.write(
                    f"[{self.span_name[i]},{self.span_parent[i]},"
                    f"{self.span_start[i]!r},{self.span_end[i]!r}]"
                )
            fh.write("]}\n")
