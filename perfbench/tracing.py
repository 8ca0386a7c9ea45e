"""Spans around the public entry points of sklift, recorded from outside.

`install()` replaces each traced function, wherever a loaded sklift module
has bound it by name, with a wrapper that records one span (name, start,
end, parent) in memory and, for some entry points, adds to a counter from
the arguments and the result.  `Tracer.dump` writes the spans out once, at
the end of the process; `summarize` turns a span file into calls,
inclusive seconds and self seconds per span name, where self time is a
span's duration minus the durations of its child spans.

Nothing in `src/` is edited: the package runs as shipped, only the names
the calls go through are rebound.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from math import isqrt

RELATION_FAMILIES = ("check_classical", "check_symmetric", "check_p_relations",
                     "check_singular_law")


def box_cells(n_max: int, m_max: int) -> int:
    """Number of cells SiegelExpansion.box_cells enumerates on the box:
    (n, r, m) != 0 with n <= n_max, m <= m_max and r^2 <= 4nm."""
    return sum(2 * isqrt(4 * n * m) + 1
               for n in range(n_max + 1) for m in range(m_max + 1)) - 1


def _count_pair_ops(counts, args, result):
    phi, f = args[0], args[1]
    counts["jacobi.mul_elliptic.pair_ops"] += len(phi.nonzero_items()) * len(f.nonzero_items())


def _count_written(counts, args, result):
    counts["serialize.bytes"] += len(result)


def _count_parsed(counts, args, result):
    counts["serialize.bytes"] += len(args[0])


def _relation_counter(family):
    def count(counts, args, report):
        F = args[0]
        if family == "check_singular_law":
            enumerated = max(F.n_max, 0)
        else:
            enumerated = box_cells(F.n_max, F.m_max)
        counts[f"siegel.{family}.checked"] += enumerated - report.skipped
        counts[f"siegel.{family}.skipped"] += report.skipped
        counts[f"siegel.{family}.violations"] += len(report.violations)
    return count


# (module, attribute, span name, counter); "Class.method" rebinds a method
TRACED = (
    ("sklift.numtheory", "cohen_h", "numtheory.cohen_h", None),
    ("sklift.characters", "DirichletCharacter.value", "characters.value", None),
    ("sklift.jacobi", "mul_elliptic", "jacobi.mul_elliptic", _count_pair_ops),
    ("sklift.jacobi", "builtin_form", "jacobi.builtin_form", None),
    ("sklift.jacobi", "index_shift", "jacobi.index_shift", None),
    ("sklift.jacobi", "write_skjf", "serialize.skjf_write", _count_written),
    ("sklift.jacobi", "parse_skjf", "serialize.skjf_parse", _count_parsed),
    ("sklift.siegel", "lift", "siegel.lift", None),
    *(("sklift.siegel", f, f"siegel.{f}", _relation_counter(f)) for f in RELATION_FAMILIES),
    ("sklift.siegel", "write_sksf", "serialize.sksf_write", _count_written),
    ("sklift.siegel", "parse_sksf", "serialize.sksf_parse", _count_parsed),
    ("sklift.hecke", "verify_theorem_identity", "hecke.verify_theorem_identity", None),
    ("sklift.hecke", "multiply", "hecke.multiply", None),
    ("sklift.hecke", "canonicalize_coset", "hecke.canonicalize_coset", None),
    ("sklift.cli", "main", "cli.main", None),
    ("sklift.cli", "cmd_gen", "cli.gen", None),
    ("sklift.cli", "cmd_lift", "cli.lift", None),
    ("sklift.cli", "cmd_verify", "cli.verify", None),
    ("sklift.cli", "cmd_hecke", "cli.hecke", None),
)


class Tracer:
    """Spans in four parallel arrays, one entry per traced call."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def wrap(self, name, fn, counter):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack, counts = self.stack, self.counts
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.start)}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def install() -> Tracer:
    """Wrap every entry point in TRACED, in every loaded sklift module."""
    tracer = Tracer()
    modules = [m for n, m in sys.modules.items() if n == "sklift" or n.startswith("sklift.")]
    for module_name, attr, span, counter in TRACED:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = getattr(cls, meth)
            wrapper = tracer.wrap(span, original, counter)
            for key, value in list(vars(cls).items()):
                if value is original:
                    setattr(cls, key, wrapper)
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(span, original, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return tracer


def summarize(path: str) -> dict[str, dict[str, float]]:
    """{span name: {"calls", "total_s", "self_s"}} from a dumped span file."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["spans"]
        name_id, parent, start, end = array("i"), array("i"), array("d"), array("d")
        for arr in (name_id, parent, start, end):
            arr.fromfile(fh, count)
    duration = [e - s for s, e in zip(start, end)]
    child = [0.0] * count
    for i in range(count):
        if parent[i] >= 0:
            child[parent[i]] += duration[i]
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in header["names"]}
    names = header["names"]
    for i in range(count):
        entry = out[names[name_id[i]]]
        entry["calls"] += 1
        entry["total_s"] += duration[i]
        entry["self_s"] += duration[i] - child[i]
    return out
