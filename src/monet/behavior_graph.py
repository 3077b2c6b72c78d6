"""Behavior graphs: static construction, runtime completion and decoupling.

A behavior graph is a directed labeled graph over three node families:

* app components (name + declared kind; kind is None for components only
  discovered at runtime through dynamic loading),
* system components (identified by descriptor string),
* intent actions (implicit intents whose handler is unknown; treated as
  system-side nodes).

Edges carry an integer transaction code and an optional display-only content
string, and are deduplicated by (src, dst, code) keeping the first content
seen.  Static edges use the canonical codes below; runtime records carry
their own codes verbatim.

Each node class states its JSON ``type``, its id ``prefix`` and its ``label``
field once, and ``NODE_TYPES`` maps the JSON type to the class.  A node id is
prefix + label, so in one graph there is at most one node per identity, and
``BehaviorGraph`` checks every id against its node.  Graphs are immutable once
built.  Nodes are slotted, and a graph parsed from JSON uses its node-key
strings as edge endpoints too, so a stored graph holds each id once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import attrgetter
from typing import ClassVar

from .app_model import AppPackage
from .dataflow import IntentCall

# Canonical transaction codes for statically resolved intent calls.  3 is the
# conventional start-activity code observed in binder traffic; 5 and 14 are
# fixed artifact conventions for the other two call kinds.
CODE_START_ACTIVITY = 3
CODE_START_SERVICE = 5
CODE_SEND_BROADCAST = 14

STATIC_CODES = {
    "start_activity": CODE_START_ACTIVITY,
    "start_service": CODE_START_SERVICE,
    "send_broadcast": CODE_SEND_BROADCAST,
}


class GraphError(Exception):
    pass


class CorruptGraph(GraphError):
    """A serialized graph violates the schema or a structural invariant."""


class UnknownCaller(GraphError):
    """A binder record's caller is neither declared nor marked dynamic."""

    def __init__(self, record):
        self.record = record
        super().__init__(f"binder record {record.seq}: unknown caller {record.caller!r}")


@dataclass(frozen=True, slots=True)
class AppComponent:
    name: str
    kind: str | None  # None: discovered at runtime via dynamic loading
    json_type: ClassVar[str] = "app"
    prefix: ClassVar[str] = "app:"
    label = property(attrgetter("name"))


@dataclass(frozen=True, slots=True)
class SystemComponent:
    descriptor: str
    json_type: ClassVar[str] = "system"
    prefix: ClassVar[str] = "sys:"
    label = property(attrgetter("descriptor"))


@dataclass(frozen=True, slots=True)
class IntentAction:
    action: str
    json_type: ClassVar[str] = "action"
    prefix: ClassVar[str] = "act:"
    label = property(attrgetter("action"))


GraphNode = AppComponent | SystemComponent | IntentAction
NODE_TYPES: dict[str, type[GraphNode]] = {c.json_type: c for c in (AppComponent, SystemComponent, IntentAction)}


def node_id(node: GraphNode) -> str:
    return node.prefix + node.label


EdgeKey = tuple[str, str, int]


class BehaviorGraph:
    """Immutable directed graph; ``origin`` is "static" or "runtime"."""

    __slots__ = ("origin", "nodes", "edges", "_profile", "_one_cluster")

    def __init__(self, origin: str, nodes: dict[str, GraphNode], edges: dict[EdgeKey, str | None]):
        if origin not in ("static", "runtime"):
            raise CorruptGraph(f"bad origin {origin!r}")
        self.origin = origin
        self.nodes = nodes
        self.edges = edges
        self._profile = None
        self._one_cluster = False  # proven a single app cluster, so a search need not check
        self._validate()

    @classmethod
    def _part(cls, nodes: dict[str, GraphNode], edges: dict[EdgeKey, str | None]) -> "BehaviorGraph":
        """One app cluster that ``decouple`` cut from a runtime graph, which passed
        ``_validate``: so it is neither validated nor checked for clusters again."""
        g = object.__new__(cls)
        g.origin, g.nodes, g.edges, g._profile, g._one_cluster = "runtime", nodes, edges, None, True
        return g

    @classmethod
    def of(cls, origin: str, nodes, edges) -> "BehaviorGraph":
        """Build from node values and (src_node, dst_node, code[, content]) tuples."""
        node_map: dict[str, GraphNode] = {}
        for n in nodes:
            nid = node_id(n)
            if nid in node_map and node_map[nid] != n:
                raise CorruptGraph(f"conflicting nodes for {nid}")
            node_map[nid] = n
        edge_map: dict[EdgeKey, str | None] = {}
        for e in edges:
            src, dst, code = e[0], e[1], e[2]
            content = e[3] if len(e) > 3 else None
            key = (node_id(src), node_id(dst), int(code))
            edge_map.setdefault(key, content)
        return cls(origin, node_map, edge_map)

    def _validate(self) -> None:
        for nid, node in self.nodes.items():
            if node_id(node) != nid:
                raise CorruptGraph(f"node id mismatch: {nid}")
        for src, dst, code in self.edges:
            if src not in self.nodes or dst not in self.nodes:
                raise CorruptGraph(f"edge endpoint missing: {src}->{dst}")
            if not isinstance(code, int):
                raise CorruptGraph(f"non-integer edge code on {src}->{dst}")
            # Traces are app-scoped: every call originates from an app component.
            if not src.startswith("app:"):
                raise CorruptGraph(f"edge source is not an app component: {src}")
        if self.origin == "static":
            # Static system-side nodes only arise as intent-call targets, so
            # none may float free of the edge set.
            targeted = {dst for _, dst, _ in self.edges}
            for nid in self.nodes:
                if not nid.startswith("app:") and nid not in targeted:
                    raise CorruptGraph(f"static graph has unreferenced system node {nid}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BehaviorGraph)
            and self.origin == other.origin
            and self.nodes == other.nodes
            and self.edges == other.edges
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"BehaviorGraph({self.origin}, {len(self.nodes)} nodes, {len(self.edges)} edges)"

    def app_components(self) -> list[AppComponent]:
        return [n for n in self.nodes.values() if isinstance(n, AppComponent)]

    @property
    def app_count(self) -> int:
        return sum(1 for nid in self.nodes if nid.startswith("app:"))


def graph_to_json_obj(g: BehaviorGraph) -> dict:
    nodes = []
    for nid, node in sorted(g.nodes.items(), key=lambda item: (item[1].json_type, item[1].label)):
        obj = {"id": nid, "type": node.json_type, "label": node.label}
        if isinstance(node, AppComponent) and node.kind is not None:
            obj["kind"] = node.kind
        nodes.append(obj)
    edges = []
    for (src, dst, code), content in sorted(g.edges.items()):
        obj = {"src": src, "dst": dst, "code": code}
        if content is not None:
            obj["content"] = content
        edges.append(obj)
    return {"origin": g.origin, "nodes": nodes, "edges": edges}


def graph_to_json(g: BehaviorGraph) -> str:
    """Canonical serialization: byte-stable for equal graphs."""
    return json.dumps(graph_to_json_obj(g), sort_keys=True, indent=2) + "\n"


def graph_from_json_obj(obj) -> BehaviorGraph:
    """JSON types are checked here, ids and edges in ``BehaviorGraph``."""
    if not isinstance(obj, dict):
        raise CorruptGraph("graph JSON must be an object")
    try:
        origin = obj["origin"]
        node_map: dict[str, GraphNode] = {}
        for n in obj["nodes"]:
            nid, ntype, label, kind = n["id"], n["type"], n["label"], n.get("kind")
            cls = NODE_TYPES.get(ntype)
            if cls is None:
                raise CorruptGraph(f"unknown node type {ntype!r}")
            if not isinstance(nid, str) or not isinstance(label, str):
                raise CorruptGraph(f"node id and label must be strings: {nid!r}, {label!r}")
            if cls is AppComponent and not isinstance(kind, (str, type(None))):
                raise CorruptGraph(f"node kind must be a string: {kind!r}")
            if nid in node_map:
                raise CorruptGraph("duplicate node ids")
            node_map[nid] = AppComponent(label, kind) if cls is AppComponent else cls(label)
        edge_items = [(e["src"], e["dst"], e["code"], e.get("content")) for e in obj["edges"]]
    except (KeyError, TypeError) as exc:
        raise CorruptGraph(f"malformed graph JSON: {exc}") from exc
    keys = {nid: nid for nid in node_map}  # edge endpoints share the node-key strings
    edges: dict[EdgeKey, str | None] = {}
    for src, dst, code, content in edge_items:
        if not isinstance(src, str) or not isinstance(dst, str):
            raise CorruptGraph(f"edge endpoints must be strings: {src!r} -> {dst!r}")
        if not isinstance(code, int) or isinstance(code, bool):
            raise CorruptGraph(f"edge code must be an integer: {code!r}")
        if not isinstance(content, (str, type(None))):
            raise CorruptGraph(f"edge content must be a string: {content!r}")
        key = (keys.get(src, src), keys.get(dst, dst), code)
        if key in edges:
            raise CorruptGraph(f"duplicate edge {key}")
        edges[key] = content
    return BehaviorGraph(origin, node_map, edges)


def graph_from_json(text: str) -> BehaviorGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptGraph(f"invalid JSON: {exc}") from exc
    return graph_from_json_obj(obj)


# ---------------------------------------------------------------------------
# static behavior graph
# ---------------------------------------------------------------------------


def build_sbg(pkg: AppPackage, calls: list[IntentCall]) -> BehaviorGraph:
    """One app node per declared component, one edge per resolved intent call.

    Explicit targets map to the declared component when present, otherwise to
    a system node named by the class.  Implicit targets map to intent-action
    nodes.  Unresolved calls contribute nothing.  Content providers are not
    intent-addressable, so calls from or to a declared provider are skipped.
    """
    kinds = pkg.kinds_by_name()
    nodes: dict[str, GraphNode] = {}
    for comp in pkg.components:
        node = AppComponent(comp.name, comp.kind)
        nodes[node_id(node)] = node
    edges: dict[EdgeKey, str | None] = {}
    for call in calls:
        if call.target_kind == "unresolved":
            continue
        if kinds.get(call.caller_component) == "provider":
            continue
        src = AppComponent(call.caller_component, kinds[call.caller_component])
        if call.target_kind == "explicit":
            assert call.target is not None
            if call.target in kinds:
                if kinds[call.target] == "provider":
                    continue
                dst: GraphNode = AppComponent(call.target, kinds[call.target])
            else:
                dst = SystemComponent(call.target)
        else:
            assert call.target is not None
            dst = IntentAction(call.target)
        nodes.setdefault(node_id(dst), dst)
        edges.setdefault((node_id(src), node_id(dst), STATIC_CODES[call.call_kind]), None)
    return BehaviorGraph("static", nodes, edges)


# ---------------------------------------------------------------------------
# runtime completion
# ---------------------------------------------------------------------------


def complete_rbg(sbg: BehaviorGraph, trace, pkg: AppPackage) -> BehaviorGraph:
    """Complete a static graph with observed binder records.

    Returns a new runtime-origin graph; ``sbg`` is not mutated.  Raises
    :class:`UnknownCaller` for records whose caller is neither a declared
    component nor flagged dynamic anywhere in the trace.
    """
    if sbg.origin != "static":
        raise ValueError("complete_rbg expects a static graph")
    kinds = pkg.kinds_by_name()
    dynamic = {r.caller for r in trace.binder if r.dynamic_caller}
    nodes = dict(sbg.nodes)
    edges = dict(sbg.edges)
    for record in trace.binder:
        caller_id = "app:" + record.caller
        if caller_id not in nodes:
            if record.caller in kinds:
                nodes[caller_id] = AppComponent(record.caller, kinds[record.caller])
            elif record.caller in dynamic:
                nodes[caller_id] = AppComponent(record.caller, None)
            else:
                raise UnknownCaller(record)
        ttype, value = record.target  # "component", "system" or "action"
        if ttype == "component":
            dst: GraphNode = AppComponent(value, kinds.get(value))
        else:
            dst = NODE_TYPES[ttype](value)
        dst_id = node_id(dst)
        nodes.setdefault(dst_id, dst)
        edges.setdefault((caller_id, dst_id, record.code), record.content)
    return BehaviorGraph("runtime", nodes, edges)


# ---------------------------------------------------------------------------
# decoupling
# ---------------------------------------------------------------------------


def app_clusters(g: BehaviorGraph) -> dict[str, str]:
    """Each app node id of ``g`` mapped to the root of its weakly connected app
    cluster, system-side nodes removed: one union-find pass over the edges."""
    parent = {nid: nid for nid in g.nodes if nid.startswith("app:")}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for src, dst, _ in g.edges:
        if dst in parent:
            parent[find(src)] = find(dst)
    return {nid: find(nid) for nid in parent}


def decouple(rbg: BehaviorGraph) -> list[BehaviorGraph]:
    """Split a (possibly repackaged) graph into per-cluster graphs.

    Removes system-side nodes and takes the weakly connected app-component
    clusters.  In one pass, each edge is filed under its source's cluster, and
    that cluster gets a fresh copy of the removed node the edge reaches.
    Ordered by descending app-component count, then smallest app id ("app:" + name).
    """
    if rbg.origin != "runtime":
        raise ValueError("decouple expects a runtime graph")
    root = app_clusters(rbg)
    parts: dict[str, tuple[dict[str, GraphNode], dict[EdgeKey, str | None]]] = {}
    for nid, r in root.items():
        parts.setdefault(r, ({}, {}))[0][nid] = rbg.nodes[nid]
    order = sorted(parts.values(), key=lambda part: (-len(part[0]), min(part[0])))
    for (src, dst, code), content in rbg.edges.items():
        nodes, edges = parts[root[src]]  # every edge source is an app node
        if dst not in root:
            nodes.setdefault(dst, rbg.nodes[dst])
        edges[src, dst, code] = content
    return [BehaviorGraph._part(nodes, edges) for nodes, edges in order]


def is_decoupled(g: BehaviorGraph) -> bool:
    """True when ``g`` is a single app cluster with no orphan system nodes;
    for a runtime graph, exactly when ``decouple(g) == [g]``.  A graph found to
    be one cluster is marked so, and its first search does not check again."""
    root = app_clusters(g)
    g._one_cluster = len(set(root.values())) == 1
    return g._one_cluster and g.nodes.keys() - root.keys() <= {dst for _, dst, _ in g.edges}
