"""Spans around monet's public functions, installed from outside the program.

``install`` replaces each traced function in every ``monet`` module that
holds it under its name, which is where its callers look it up, and each
traced method on its class.  A function the program no longer has is skipped
and its metrics are left out.  Spans (id, parent, name, start, end, request)
stay in memory until ``write`` saves them as gzipped JSON lines; per-layer
figures are derived from them by ``layer_metrics``.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from array import array
from fractions import Fraction

# (span name, module, attribute, class or None)
TARGETS = [
    ("app_model.parse_package", "monet.app_model", "parse_package", None),
    ("trace.parse_trace", "monet.trace", "parse_trace", None),
    ("trace.build_sss", "monet.trace", "build_sss", None),
    ("dataflow.build_cfg", "monet.dataflow", "build_cfg", None),
    ("dataflow.reaching_definitions", "monet.dataflow", "reaching_definitions", None),
    ("dataflow.extract_intent_calls", "monet.dataflow", "extract_intent_calls", None),
    ("behavior_graph.build_sbg", "monet.behavior_graph", "build_sbg", None),
    ("behavior_graph.complete_rbg", "monet.behavior_graph", "complete_rbg", None),
    ("behavior_graph.decouple", "monet.behavior_graph", "decouple", None),
    ("behavior_graph.graph_from_json_obj", "monet.behavior_graph", "graph_from_json_obj", None),
    ("behavior_graph.graph_to_json", "monet.behavior_graph", "graph_to_json", None),
    ("bptree.range", "monet.bptree", "range", "BplusIndex"),
    ("bptree.insert", "monet.bptree", "insert", "BplusIndex"),
    ("sigstore.load_store", "monet.sigstore", "load_store", None),
    ("sigstore.insert_signature", "monet.sigstore", "insert_signature", None),
    ("matcher.decide", "monet.matcher", "decide", None),
    ("matcher.upper_bound_value", "monet.matcher", "upper_bound_value", None),
    ("matcher.similarity", "monet.matcher", "similarity", None),
    ("service.handle_match", "monet.service", "handle_match", "DetectionService"),
    ("service.handle_insert", "monet.service", "handle_insert", "DetectionService"),
]
# Spans that open a request of their own when none is open on their thread.
REQUEST_ROOTS = ("service.handle_match", "service.handle_insert")
# Results kept with the span, as JSON values: the window size of a range
# query, and the score (numerator, denominator, exact) of a search.
_KEEP = {
    "bptree.range": len,
    "matcher.similarity": lambda s: [s.value.numerator, s.value.denominator, s.exact],
}


class Tracer:
    """In-memory span recorder shared by the wrappers it installs."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.ids = array("q")
        self.parents = array("q")
        self.name_ixs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.requests = array("q")
        self.kept: dict[int, object] = {}
        self.present: set[str] = set()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = 0
        return local

    def begin_request(self) -> None:
        """Mark the calls that follow on this thread as one benchmark op."""
        self._state().request = next(self._requests)

    def end_request(self) -> None:
        self._state().request = 0

    def _wrap(self, name: str, fn):
        if name not in self._name_ix:
            self._name_ix[name] = len(self.names)
            self.names.append(name)
        ix = self._name_ix[name]
        keep = _KEEP.get(name)
        opens_request = name in REQUEST_ROOTS
        tracer = self

        def traced(*args, **kwargs):
            state = tracer._state()
            own_request = opens_request and not state.request
            if own_request:
                state.request = next(tracer._requests)
            sid = next(tracer._ids)
            parent = state.stack[-1] if state.stack else 0
            state.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.stack.pop()
                request = state.request
                if own_request:
                    state.request = 0
            with tracer._lock:
                tracer.ids.append(sid)
                tracer.parents.append(parent)
                tracer.name_ixs.append(ix)
                tracer.starts.append(start)
                tracer.ends.append(end)
                tracer.requests.append(request)
                if keep is not None:
                    tracer.kept[sid] = keep(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target the program still has."""
        for name, module_name, attr, cls_name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            if cls_name is not None:
                cls = getattr(module, cls_name, None)
                original = getattr(cls, attr, None) if cls is not None else None
                if original is None:
                    continue
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                self.present.add(name)
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "monet" or mod_name.startswith("monet.")) and \
                        getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
            self.present.add(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def rows(self):
        """(id, parent, name index, start, end, request, kept) per span."""
        return [(self.ids[i], self.parents[i], self.name_ixs[i], self.starts[i], self.ends[i],
                 self.requests[i], self.kept.get(self.ids[i])) for i in range(len(self.ids))]

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for row in self.rows():
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def read_spans(path):
    """Load what ``Tracer.write`` saved, as (names, rows)."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        names = json.loads(fh.readline())["names"]
        return names, [tuple(json.loads(line)) for line in fh]


class SpanTable:
    """Per-name totals over the spans that ran inside benchmark ops."""

    def __init__(self, names, rows):
        child_time: dict[int, float] = {}
        for sid, parent, ix, start, end, request, _ in rows:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.kept: dict[str, list] = {}
        self.outside: dict[str, list[float]] = {}
        for sid, parent, ix, start, end, request, kept in rows:
            name = names[ix]
            if not request:
                self.outside.setdefault(name, []).append(end - start)
                continue
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
            self.durations.setdefault(name, []).append(end - start)
            if kept is not None:
                self.kept.setdefault(name, []).append(kept)


def percentile(values: list[float], pct: float) -> float:
    """The ``pct`` percentile by linear interpolation (``pct`` in 0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(table: SpanTable, present: set[str], ops: int, inserts: int, threshold,
                  tail_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures from one traced phase, by metric name.

    ``ops`` is the number of benchmark ops the spans cover and ``inserts``
    how many of them were store inserts.  Metrics of targets the program no
    longer has are left out.
    """
    out: dict[str, tuple[float, str]] = {}

    def per(name: str, n: int) -> float:
        return table.self_s.get(name, 0.0) * 1000.0 / n if n else 0.0

    def calls(name: str, n: int) -> float:
        return table.calls.get(name, 0) / n if n else 0.0

    per_op = ["app_model.parse_package", "trace.parse_trace", "trace.build_sss",
              "dataflow.build_cfg", "dataflow.reaching_definitions",
              "dataflow.extract_intent_calls", "behavior_graph.build_sbg",
              "behavior_graph.complete_rbg", "behavior_graph.decouple",
              "behavior_graph.graph_from_json_obj", "bptree.range", "matcher.decide",
              "matcher.upper_bound_value"]
    for name in per_op:
        if name in present:
            out[name + ".ms"] = (per(name, ops), "ms/op")
    if "dataflow.build_cfg" in present:
        out["dataflow.methods"] = (calls("dataflow.build_cfg", ops), "calls/op")
    if "behavior_graph.graph_to_json" in present:
        out["behavior_graph.graph_to_json.calls"] = (
            calls("behavior_graph.graph_to_json", inserts), "calls/insert")
    for name in ("bptree.insert", "sigstore.insert_signature"):
        if name in present:
            out[name + ".ms"] = (per(name, inserts), "ms/insert")
    if "bptree.range" in present:
        sizes = table.kept.get("bptree.range", [])
        out["sigstore.window_size"] = (statistics.fmean(sizes) if sizes else 0.0, "cand/cluster")
    if "sigstore.load_store" in present:
        loads = table.outside.get("sigstore.load_store", [])
        out["sigstore.load_store.s"] = (statistics.median(loads) if loads else 0.0, "s")
    if "matcher.upper_bound_value" in present:
        out["matcher.upper_bound_value.calls"] = (calls("matcher.upper_bound_value", ops), "calls/op")
    if "matcher.similarity" in present:
        searched = table.calls.get("matcher.similarity", 0)
        checked = table.calls.get("matcher.upper_bound_value", 0)
        out["matcher.bound_pass_ratio"] = (searched / checked if checked else 0.0, "ratio")
        out["matcher.similarity.calls"] = (calls("matcher.similarity", ops), "calls/op")
        times = [t * 1000.0 for t in table.durations.get("matcher.similarity", [])]
        out["matcher.similarity.ms_p50"] = (statistics.median(times) if times else 0.0, "ms/call")
        out["matcher.similarity.ms_tail"] = (percentile(times, tail_pct) if times else 0.0, "ms/call")
        results = table.kept.get("matcher.similarity", [])
        hits = sum(1 for num, den, _ in results if Fraction(num, den) >= threshold)
        out["matcher.similarity.hit_ratio"] = (hits / len(results) if results else 0.0, "ratio")
        out["matcher.similarity.inexact"] = (float(sum(1 for *_, exact in results if not exact)),
                                             "count")
    for name, unit_n, unit in (("service.handle_match", ops - inserts, "ms/request"),
                               ("service.handle_insert", inserts, "ms/request")):
        if name in present:
            out[name + ".ms"] = (per(name, unit_n), unit)
    return out
