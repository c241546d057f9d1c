"""Request and span recording for the benchmark, and the per-layer reducer.

A `Recorder` counts the checked operations of every request (one
search spec or one certification) and, while installed, wraps the
package's public functions at the module attributes where they are
looked up, so each call becomes a span: name, start, end, parent span
and request id.  Spans stay in memory and are written out at the end.

`reduce` turns a written trace into the per-layer metrics: calls, time
and self time (span time minus the time covered by wrapped children)
per function, search counts, and ratios.  It also checks that every
parent span is at least as long as the sum of its children.  Run as a
script it prints the per-layer table of a trace file:

    python3 perfbench/spans.py perfbench/results/decide-seed1.trace.json
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import traceback
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  A span is named after the module that
# defines the function; it is wrapped wherever the package or the
# benchmark looks it up.
TARGETS = (
    ("mixedcages.search", "search_order", "search.search_order"),
    ("mixedcages.search", "girth", "girth.girth"),
    ("mixedcages.search", "canonical_form", "isomorphism.canonical_form"),
    ("mixedcages.search", "degree_profile", "graphs.degree_profile"),
    ("mixedcages.search", "new_graph", "graphs.new_graph"),
    ("mixedcages.girth", "girth", "girth.girth"),
    ("mixedcages.girth", "validate_witness", "girth.validate_witness"),
    ("mixedcages.isomorphism", "canonical_form", "isomorphism.canonical_form"),
    ("mixedcages.isomorphism", "is_isomorphic", "isomorphism.is_isomorphic"),
    ("mixedcages.isomorphism", "automorphism_group", "isomorphism.automorphism_group"),
    ("mixedcages.isomorphism", "group_fingerprint", "isomorphism.group_fingerprint"),
    ("mixedcages.isomorphism", "degree_profile", "graphs.degree_profile"),
    ("mixedcages.isomorphism", "apply_permutation", "graphs.apply_permutation"),
    ("mixedcages.graphs", "degree_profile", "graphs.degree_profile"),
    ("mixedcages.graphs", "new_graph", "graphs.new_graph"),
    ("mixedcages.graphs", "apply_permutation", "graphs.apply_permutation"),
    ("mixedcages.matrixio", "read_adjacency_matrix", "matrixio.read_adjacency_matrix"),
    ("mixedcages.matrixio", "new_graph", "graphs.new_graph"),
    ("mixedcages.constructions", "build_g30", "constructions.build_g30"),
    ("mixedcages.constructions", "girth", "girth.girth"),
    ("mixedcages.constructions", "degree_profile", "graphs.degree_profile"),
    ("mixedcages.constructions", "new_graph", "graphs.new_graph"),
)

# Per-pass fields reported for each wrapped function: `s` is span time,
# `self_s` span time minus wrapped children.
FUNCTION_FIELDS = (
    ("search.search_order", ("calls", "self_s")),
    ("girth.girth", ("calls", "s", "us_per_call")),
    ("girth.validate_witness", ("s",)),
    ("isomorphism.canonical_form", ("calls", "s", "us_per_call")),
    ("isomorphism.automorphism_group", ("calls", "self_s")),
    ("isomorphism.group_fingerprint", ("s",)),
    ("isomorphism.is_isomorphic", ("calls", "self_s")),
    ("graphs.new_graph", ("calls", "s")),
    ("graphs.degree_profile", ("calls", "s")),
    ("graphs.apply_permutation", ("calls", "s")),
    ("matrixio.read_adjacency_matrix", ("calls", "s")),
)
SEARCH_COUNTS = ("nodes", "girth_prunes", "canonicity_prunes", "infeasible_prunes")
UNITS = {"calls": "count", "s": "s", "self_s": "s", "us_per_call": "us"}
TOLERANCE_S = 1e-9


def per_layer_metrics(spec_labels) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name, fields in FUNCTION_FIELDS:
        out += [(f"{name}.{f}", UNITS[f], "lower") for f in fields]
    out += [(f"search.search_order.self_s.{lab}", "s", "lower") for lab in spec_labels]
    out += [("search.us_per_node", "us", "lower")]
    out += [(f"search.{c}", "count", "lower") for c in SEARCH_COUNTS]
    out += [
        ("search.node_survival", "ratio", "higher"),
        ("search.emissions", "count", "lower"),
        ("search.class_yield", "ratio", "higher"),
        ("constructions.build_g30.s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


class Request:
    """One request: a context that times it, opens its root span while
    tracing, and turns an exception into failed operations."""

    def __init__(self, rec: Recorder, kind: str, label: str, ops: int) -> None:
        self.rec, self.kind, self.label, self.ops = rec, kind, label, ops
        self.pass_index = rec.pass_index
        self.counts: dict[str, int] = {}
        self.passed = 0
        self.seconds = 0.0

    def verdict(self, op: str, problems: list[str]) -> None:
        """Record one checked operation; any problem fails it."""
        if problems:
            print(f"FAILED {self.kind} {self.label} {op}: " + "; ".join(problems),
                  file=sys.stderr)
        else:
            self.passed += 1

    def __enter__(self) -> Request:
        rec = self.rec
        self.id = len(rec.requests)
        rec.requests.append(self)
        rec.request_id = self.id
        self._span = rec.begin("request." + self.kind) if rec.tracing else None
        self.t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.t1 = perf_counter()
        self.seconds = self.t1 - self.t0
        rec = self.rec
        if self._span is not None:
            rec.end(self._span)
        rec.request_id = -1
        if exc is not None and not isinstance(exc, Exception):
            return False
        if exc is not None:
            print(f"FAILED {self.kind} {self.label}: exception", file=sys.stderr)
            traceback.print_exception(exc_type, exc, tb, file=sys.stderr)
        rec.attempted += self.ops
        rec.failed += self.ops - self.passed
        return True


class Recorder:
    """The requests, passes and checked operations of one run, and the
    spans recorded while `install` has the wrappers in place."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent, request]
        self._open: list[int] = []
        self.requests: list[Request] = []
        self.passes: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.pass_index = -1  # -1 is set-up
        self.request_id = -1
        self.tracing = False
        self._saved: list[tuple] = []
        self._t0 = perf_counter()

    def request(self, kind: str, label: str, ops: int) -> Request:
        return Request(self, kind, label, ops)

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append([nid, perf_counter() - self._t0, 0.0, parent, self.request_id])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter() - self._t0
        self._open.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def install(self) -> None:
        for module, attr, name in TARGETS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))
        self.tracing = True

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        self.tracing = False

    def retime(self, ref) -> None:
        """Re-express every request, pass and span in the clock that `ref`
        maps perf_counter() readings to (see speed.ReferenceClock)."""
        for r in self.requests:
            r.seconds = float(ref(r.t1) - ref(r.t0))
        for p in self.passes:
            p["wall_seconds"] = p["t1"] - p["t0"]
            p["seconds"] = float(ref(p["t1"]) - ref(p["t0"]))
        if self.spans:
            origin = ref(self._t0)
            starts = ref([self._t0 + sp[1] for sp in self.spans]) - origin
            ends = ref([self._t0 + sp[2] for sp in self.spans]) - origin
            for sp, a, b in zip(self.spans, starts.tolist(), ends.tolist()):
                sp[1], sp[2] = a, b

    def as_trace(self, spec_labels) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "requests": [
                {"id": r.id, "kind": r.kind, "label": r.label, "pass": r.pass_index,
                 "seconds": r.seconds, "counts": r.counts}
                for r in self.requests
            ],
            "passes": self.passes,
            "spec_labels": list(spec_labels),
        }


def reduce(trace: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics (median over traced passes) and span problems."""
    names, spans = trace["names"], trace["spans"]
    req_of = {r["id"]: r for r in trace["requests"]}
    traced = [p["index"] for p in trace["passes"] if p["traced"]]
    per = {p: defaultdict(float) for p in traced}
    setup: defaultdict[str, float] = defaultdict(float)
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    in_search = [False] * len(spans)
    problems = []
    for i, (nid, start, end, parent, rid) in enumerate(spans):
        name = names[nid]
        dur = end - start
        if dur + TOLERANCE_S < covered[i]:
            problems.append(f"span {i} ({name}) lasts {dur:.9f} s, "
                            f"its children {covered[i]:.9f} s")
        in_search[i] = name == "search.search_order" or (parent >= 0 and in_search[parent])
        req = req_of.get(rid)
        pass_index = req["pass"] if req else -1
        bucket = setup if pass_index < 0 else per.get(pass_index)
        if bucket is None:
            continue
        bucket[f"{name}.calls"] += 1
        bucket[f"{name}.s"] += dur
        bucket[f"{name}.self_s"] += dur - covered[i]
        if name == "search.search_order" and req["label"] in trace["spec_labels"]:
            bucket[f"search.search_order.self_s.{req['label']}"] += dur - covered[i]
        if name == "graphs.degree_profile" and in_search[i]:
            bucket["search.emissions"] += 1
    for req in trace["requests"]:
        bucket = per.get(req["pass"])
        if bucket is not None:
            for key, value in req["counts"].items():
                bucket[f"search.{key}"] += value
    for b in per.values():
        for name, _ in FUNCTION_FIELDS:
            calls = b[f"{name}.calls"]
            b[f"{name}.us_per_call"] = b[f"{name}.s"] / calls * 1e6 if calls else 0.0
        nodes = b["search.nodes"]
        if nodes:
            b["search.us_per_node"] = b["search.search_order.self_s"] / nodes * 1e6
            b["search.node_survival"] = (
                nodes - b["search.infeasible_prunes"] - b["search.canonicity_prunes"]
            ) / nodes
        if b["search.emissions"]:
            b["search.class_yield"] = b["search.classes"] / b["search.emissions"]
    metrics = {}
    for name, _, _ in per_layer_metrics(trace["spec_labels"]):
        if name == "constructions.build_g30.s":
            # built once, during set-up
            metrics[name] = setup[name]
        elif name == "trace.overhead_ratio":
            metrics[name] = overhead_ratio(trace["passes"])
        else:
            values = [per[p][name] for p in traced]
            metrics[name] = statistics.median(values) if values else 0.0
    return metrics, problems


def overhead_ratio(passes: list[dict]) -> float:
    """Median traced pass time over median untraced pass time."""
    traced = [p["seconds"] for p in passes if p["traced"]]
    plain = [p["seconds"] for p in passes if not p["traced"]]
    if not traced or not plain:
        return 0.0
    return statistics.median(traced) / statistics.median(plain)


def print_table(metrics: dict[str, float], spec_labels, out=sys.stdout) -> None:
    for name, unit, _ in per_layer_metrics(spec_labels):
        print(f"  {name:<48} {metrics[name]:>16.6g} {unit}", file=out)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 perfbench/spans.py TRACE.json", file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        trace = json.load(f)
    metrics, problems = reduce(trace)
    print_table(metrics, trace["spec_labels"])
    for p in problems:
        print(f"span check: {p}", file=sys.stderr)
    print(f"span check: {len(trace['spans'])} spans, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
