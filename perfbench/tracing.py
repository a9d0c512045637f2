"""Spans around wsat's public entry points, installed in a job's child.

install() wraps each entry point below at every module attribute that binds
it (`wsat.cli.closure` as well as `wsat.percolation.closure`), so calls made
through any import path are seen.  A span records its name, start, end and
parent, plus the time its traced children covered, from which self time
follows.  Calls made thousands of times per job (WitnessIndex.close) are not
spans: they are aggregated as a count and a total time, which also counts as
child time of the enclosing span.  Entry points missing from the program are
skipped and listed in the dump.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _index_counts(args, result):
    return {"percolation.index_builds": 1,
            "percolation.index_universe": args[0].universe}


def _verify_counts(args, result):
    cert = args[2]
    replayed = len(cert) if result.ok else (result.step or 0) + 1
    return {"percolation.verify_steps": replayed}


def _cover_counts(args, result):
    return {"designs.cover_blocks": len(result.blocks),
            "designs.cover_sampled": int(result.sampled)}


def _edges_built(args, result):
    return {"constructions.edges_built": result.edge_count}


# (span name, module, attribute, counts(args, result) -> dict | None).
# "Class.method" patches the method on the class.
SPANS = [
    ("cli.main", "wsat.cli", "main", None),
    ("percolation.index_build", "wsat.percolation", "WitnessIndex.__init__",
     _index_counts),
    ("percolation.closure", "wsat.percolation", "closure",
     lambda a, r: {"percolation.closure_steps": len(r.certificate)}),
    ("percolation.is_weakly_saturated", "wsat.percolation",
     "is_weakly_saturated", None),
    ("percolation.cert_write", "wsat.percolation", "certificate_to_text", None),
    ("percolation.cert_parse", "wsat.percolation", "certificate_from_text", None),
    ("percolation.verify", "wsat.percolation", "verify_certificate",
     _verify_counts),
    ("solver.exact", "wsat.solver", "wsat_exact",
     lambda a, r: {"solver.explored": r.explored}),
    ("solver.upper", "wsat.solver", "wsat_upper_witness", None),
    ("templates.closure", "wsat.templates", "template_closure",
     lambda a, r: {"templates.closure_steps": len(r.certificate)}),
    ("templates.cert_to_pattern", "wsat.templates",
     "template_cert_to_pattern_cert", None),
    ("designs.cover", "wsat.designs", "greedy_cover", _cover_counts),
    ("designs.verify_cover", "wsat.designs", "verify_cover", None),
    ("constructions.main", "wsat.constructions", "main_construction",
     lambda a, r: {"constructions.edges_built": r.graph.edge_count}),
    ("constructions.clique_extremal", "wsat.constructions", "clique_extremal",
     _edges_built),
    ("constructions.cone_gadget", "wsat.constructions", "cone_gadget",
     _edges_built),
    ("constructions.spartite_gadget", "wsat.constructions", "spartite_gadget",
     _edges_built),
    ("constructions.percolate_gadget", "wsat.constructions", "percolate_gadget",
     lambda a, r: {"constructions.edges_built": len(r[0]) + len(r[1])}),
    ("constructions.padded_example", "wsat.constructions", "padded_example",
     _edges_built),
    ("constructions.s1", "wsat.constructions", "s1_construction", _edges_built),
    ("constructions.bounds", "wsat.constructions", "cone_bound", None),
    ("constructions.bounds", "wsat.constructions", "percolate_bound", None),
    ("constructions.bounds", "wsat.constructions", "clique_extremal_bound", None),
    ("hypergraph.parse", "wsat.hypergraph", "graph_from_text",
     lambda a, r: {"hypergraph.edges_parsed": r.edge_count}),
    ("hypergraph.write", "wsat.hypergraph", "graph_to_text", None),
]
AGGREGATES = [("percolation.close", "wsat.percolation", "WitnessIndex.close")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, child_s, counts]
        self.stack: list[int] = []
        self.aggregates: dict[str, list] = {}  # name -> [calls, total_s]
        self.missing: list[str] = []

    def span(self, name, fn, counts):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), None,
                      stack[-1] if stack else None, 0.0, None]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = time.perf_counter()
                if record[3] is not None:
                    spans[record[3]][4] += record[2] - record[1]
            if counts is not None:
                try:
                    record[5] = counts(args, result)
                except (AttributeError, IndexError, TypeError) as exc:
                    # a renamed result field must not fail the job
                    self.missing.append(f"{name} counts: {exc}")
            return result

        return wrapper

    def aggregate(self, name, fn):
        spans, stack = self.spans, self.stack
        totals = self.aggregates.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                totals[0] += 1
                totals[1] += took
                if stack:
                    spans[stack[-1]][4] += took

        return wrapper

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans,
                                    "aggregates": self.aggregates,
                                    "missing": self.missing}))


def _rebind(original, wrapped) -> None:
    """Point every wsat module attribute bound to original at wrapped."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "wsat" or mod_name.startswith("wsat."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def install() -> Tracer:
    tracer = Tracer()
    targets = [(name, mod, attr, counts, False) for name, mod, attr, counts in SPANS]
    targets += [(name, mod, attr, None, True) for name, mod, attr in AGGREGATES]
    for name, mod, attr, counts, aggregated in targets:
        owner = sys.modules.get(mod)
        *cls_path, fn_name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, fn_name, None)
        if original is None:
            tracer.missing.append(f"{mod}.{attr}")
            continue
        wrapped = (tracer.aggregate(name, original) if aggregated
                   else tracer.span(name, original, counts))
        if cls_path:
            setattr(owner, fn_name, wrapped)
        else:
            _rebind(original, wrapped)
    return tracer
