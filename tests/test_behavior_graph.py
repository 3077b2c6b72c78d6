import hashlib
import json
import random
import sys
import uuid
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monet.app_model import parse_package
from monet.behavior_graph import (
    AppComponent,
    BehaviorGraph,
    CorruptGraph,
    IntentAction,
    SystemComponent,
    UnknownCaller,
    build_sbg,
    complete_rbg,
    decouple,
    graph_from_json,
    graph_from_json_obj,
    graph_to_json,
    graph_to_json_obj,
    is_decoupled,
)
from monet.corpus import SizeParams, generate_family
from monet.pipeline import intent_calls, runtime_graph, static_graph
from monet.trace import BinderRecord, TraceLog, parse_trace

from oracles import decouple_reference, mutate_json, random_cluster_graph, random_multi_cluster_rbg

TWO_COMP_SRC = """\
package com.t.app
component activity com.t.MainActivity
component service com.t.AdminService

method com.t.MainActivity onCreate {
  b0: v1 = this; v2 = class com.t.AdminService; i = intent(v1, v2); start_service(i) ->
}
"""


def test_sbg_direct_mapping():
    pkg = parse_package(TWO_COMP_SRC)
    g = static_graph(pkg)
    assert g.origin == "static"
    assert len(g.nodes) == 2
    assert set(g.edges) == {("app:com.t.MainActivity", "app:com.t.AdminService", 5)}


def test_sbg_implicit_call_creates_action_node():
    src = (
        "package com.g.el\n"
        "component activity com.g.el.AdminActivity\n"
        "method com.g.el.AdminActivity onCreate {\n"
        '  b0: va = "android.app.action.ADD_DEVICE_ADMIN"; i = intent_action(va); start_activity(i) ->\n'
        "}\n"
    )
    pkg = parse_package(src)
    g = static_graph(pkg)
    assert "act:android.app.action.ADD_DEVICE_ADMIN" in g.nodes
    assert ("app:com.g.el.AdminActivity", "act:android.app.action.ADD_DEVICE_ADMIN", 3) in g.edges


def test_sbg_obfuscated_chain_yields_no_edges():
    src = (
        "package com.t.app\n"
        "component activity com.t.M\n"
        "method com.t.M onCreate {\n"
        "  b0: va = opaque enc; i = intent_action(va); start_activity(i) ->\n"
        "}\n"
    )
    pkg = parse_package(src)
    g = static_graph(pkg)
    assert len(g.nodes) == 1
    assert not g.edges


def test_sbg_undeclared_explicit_target_becomes_system_node():
    src = (
        "package com.t.app\n"
        "component activity com.t.M\n"
        "method com.t.M onCreate {\n"
        "  b0: v1 = this; v2 = class com.other.Exported; i = intent(v1, v2); start_activity(i) ->\n"
        "}\n"
    )
    g = static_graph(parse_package(src))
    assert "sys:com.other.Exported" in g.nodes


def test_sbg_provider_edges_skipped():
    src = (
        "package com.t.app\n"
        "component activity com.t.M\n"
        "component provider com.t.P\n"
        "method com.t.M onCreate {\n"
        "  b0: v1 = this; v2 = class com.t.P; i = intent(v1, v2); start_activity(i) ->\n"
        "}\n"
    )
    g = static_graph(parse_package(src))
    assert not g.edges
    assert "app:com.t.P" in g.nodes  # parsed, present, just never an edge endpoint


TRACE_HEADER = '{"app": "com.g.elements"}'

TABLE_ROWS = """\
{"seq": 1, "kind": "binder", "caller": "com.g.elements.MainActivity", "target": {"type": "system", "value": "PackageManager"}, "code": 2, "content": "getPackageInfo"}
{"seq": 2, "kind": "binder", "caller": "com.g.elements.WorkService", "target": {"type": "system", "value": "ConnectivityManager"}, "code": 4, "content": "getActiveNetworkInfo"}
{"seq": 3, "kind": "binder", "caller": "com.g.elements.WorkService", "target": {"type": "system", "value": "PhoneSubInfo"}, "code": 4, "content": "getDeviceId"}
{"seq": 4, "kind": "binder", "caller": "com.g.elements.AdminService", "target": {"type": "system", "value": "DevicePolicyManager"}, "code": 41, "content": "isAdminActive"}
"""

RUNTIME_PKG = """\
package com.g.elements
component activity com.g.elements.MainActivity
component service com.g.elements.WorkService
component service com.g.elements.AdminService

method com.g.elements.MainActivity onCreate {
  b0: v1 = this; v2 = class com.g.elements.WorkService; i = intent(v1, v2); start_service(i) ->
}
method com.g.elements.MainActivity onResume {
  b0: v1 = this; v2 = class com.g.elements.AdminService; i = intent(v1, v2); start_service(i) ->
}
"""


def test_completion_adds_system_nodes_with_observed_codes():
    pkg = parse_package(RUNTIME_PKG)
    trace = parse_trace(TRACE_HEADER + "\n" + TABLE_ROWS)
    sbg = static_graph(pkg)
    rbg = complete_rbg(sbg, trace, pkg)
    assert rbg.origin == "runtime"
    for desc in ("PackageManager", "ConnectivityManager", "PhoneSubInfo", "DevicePolicyManager"):
        assert f"sys:{desc}" in rbg.nodes
    assert ("app:com.g.elements.WorkService", "sys:PhoneSubInfo", 4) in rbg.edges
    assert rbg.edges[("app:com.g.elements.WorkService", "sys:PhoneSubInfo", 4)] == "getDeviceId"
    # static edges survive completion
    assert ("app:com.g.elements.MainActivity", "app:com.g.elements.WorkService", 5) in rbg.edges


def test_empty_trace_completion_is_noop_up_to_origin():
    pkg = parse_package(RUNTIME_PKG)
    sbg = static_graph(pkg)
    rbg = complete_rbg(sbg, TraceLog("com.g.elements"), pkg)
    assert rbg.origin == "runtime"
    assert rbg.nodes == sbg.nodes
    assert rbg.edges == sbg.edges
    assert sbg.origin == "static"  # input untouched


def test_dynamic_caller_creates_component_node():
    pkg = parse_package(RUNTIME_PKG)
    trace = TraceLog(
        "com.g.elements",
        (BinderRecord(1, "com.g.elements.Loaded", ("system", "ISms"), 5, "sendText", True),),
    )
    rbg = complete_rbg(static_graph(pkg), trace, pkg)
    node = rbg.nodes["app:com.g.elements.Loaded"]
    assert isinstance(node, AppComponent)
    assert node.kind is None
    assert ("app:com.g.elements.Loaded", "sys:ISms", 5) in rbg.edges


def test_unknown_caller_rejected():
    pkg = parse_package(RUNTIME_PKG)
    trace = TraceLog(
        "com.g.elements",
        (BinderRecord(1, "com.nowhere.Ghost", ("system", "ISms"), 5, None, False),),
    )
    with pytest.raises(UnknownCaller):
        complete_rbg(static_graph(pkg), trace, pkg)


def test_completion_monotone_and_replay_idempotent():
    pkg = parse_package(RUNTIME_PKG)
    trace = parse_trace(TRACE_HEADER + "\n" + TABLE_ROWS)
    sbg = static_graph(pkg)
    rbg = complete_rbg(sbg, trace, pkg)
    assert set(sbg.nodes) <= set(rbg.nodes)
    assert set(sbg.edges) <= set(rbg.edges)
    doubled = TraceLog(
        trace.app,
        trace.binder + tuple(
            BinderRecord(r.seq + 100, r.caller, r.target, r.code, r.content, r.dynamic_caller)
            for r in trace.binder
        ),
        trace.syscalls,
    )
    assert complete_rbg(sbg, doubled, pkg) == rbg


# --- decoupling ---------------------------------------------------------------


def _shared_system_fixture():
    a1 = AppComponent("com.host.Main", "activity")
    a2 = AppComponent("com.host.Helper", "service")
    b1 = AppComponent("com.inject.Cmd", "service")
    b2 = AppComponent("com.inject.Boot", "receiver")
    pm = SystemComponent("PackageManager")
    sms = SystemComponent("ISms")
    act = IntentAction("com.inject.action.PING")
    nodes = [a1, a2, b1, b2, pm, sms, act]
    edges = [
        (a1, a2, 5),
        (b1, b2, 14),
        (a1, pm, 2),
        (b1, pm, 2),
        (b1, sms, 5),
        (b2, act, 3),
    ]
    return BehaviorGraph.of("runtime", nodes, edges)


def test_decoupling_two_clusters_with_system_copies():
    parts = decouple(_shared_system_fixture())
    assert len(parts) == 2
    host = next(g for g in parts if "app:com.host.Main" in g.nodes)
    inject = next(g for g in parts if "app:com.inject.Cmd" in g.nodes)
    assert set(host.nodes) == {"app:com.host.Main", "app:com.host.Helper", "sys:PackageManager"}
    assert set(inject.nodes) == {
        "app:com.inject.Cmd", "app:com.inject.Boot", "sys:PackageManager",
        "sys:ISms", "act:com.inject.action.PING",
    }
    assert ("app:com.host.Main", "sys:PackageManager", 2) in host.edges
    assert ("app:com.inject.Cmd", "sys:PackageManager", 2) in inject.edges
    assert ("app:com.host.Main", "sys:PackageManager", 2) not in inject.edges


def test_single_cluster_decouples_to_itself():
    rng = random.Random(3)
    g = random_cluster_graph(rng)
    parts = decouple(g)
    assert len(parts) == 1
    assert parts[0].nodes == g.nodes
    assert parts[0].edges == g.edges


def test_star_of_singletons_each_gets_a_copy():
    apps = [AppComponent(f"com.s.C{i}", "service") for i in range(4)]
    hub = SystemComponent("PackageManager")
    g = BehaviorGraph.of("runtime", [*apps, hub], [(a, hub, 2) for a in apps])
    parts = decouple(g)
    assert len(parts) == 4
    for part in parts:
        assert part.app_count == 1
        assert "sys:PackageManager" in part.nodes
        assert len(part.edges) == 1


def test_no_app_components_returns_empty():
    g = BehaviorGraph.of("runtime", [], [])
    assert decouple(g) == []


def test_decoupling_invariants_random():
    rng = random.Random(41)
    for _ in range(100):
        g = random_multi_cluster_rbg(rng)
        parts = decouple(g)
        # partition of app nodes
        all_apps = Counter()
        for part in parts:
            all_apps.update(n for n in part.nodes if n.startswith("app:"))
        assert all_apps == Counter(n for n in g.nodes if n.startswith("app:"))
        # edge conservation: each original edge in exactly one part
        placed = Counter()
        for part in parts:
            placed.update(part.edges.keys())
        assert placed == Counter(g.edges.keys())
        # idempotence
        for part in parts:
            again = decouple(part)
            assert len(again) == 1
            assert again[0] == part
            assert is_decoupled(part)


@st.composite
def _runtime_graphs(draw):
    apps = [AppComponent(f"com.a.C{i}", "activity") for i in range(draw(st.integers(0, 4)))]
    others = [SystemComponent(f"sys.S{i}") for i in range(draw(st.integers(0, 2)))]
    others += [IntentAction(f"act.A{i}") for i in range(draw(st.integers(0, 2)))]
    nodes = apps + others
    edges = draw(st.lists(st.tuples(st.sampled_from(apps), st.sampled_from(nodes), st.integers(1, 2)),
                          max_size=6)) if apps else []
    return BehaviorGraph.of("runtime", nodes, edges)


@settings(max_examples=300, deadline=None)
@given(_runtime_graphs())
def test_is_decoupled_agrees_with_decouple(g):
    assert is_decoupled(g) == (decouple(g) == [g])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_decouple_equals_the_per_cluster_reference(seed):
    # Shuffled node and edge order interleaves the clusters, and the extra
    # app-to-app edges merge some of them.
    rng = random.Random(seed)
    g = random_multi_cluster_rbg(rng)
    apps = [nid for nid in g.nodes if nid.startswith("app:")]
    edges = dict(g.edges)
    for _ in range(rng.randint(0, 3)):
        edges.setdefault((rng.choice(apps), rng.choice(apps), rng.randint(1, 5)), None)
    node_items, edge_items = list(g.nodes.items()), list(edges.items())
    rng.shuffle(node_items)
    rng.shuffle(edge_items)
    g = BehaviorGraph("runtime", dict(node_items), dict(edge_items))
    parts, expected = decouple(g), decouple_reference(g)
    assert parts == expected
    assert [(list(p.nodes), list(p.edges)) for p in parts] == [(list(p.nodes), list(p.edges)) for p in expected]


def test_ordering_is_by_size_then_name():
    parts = decouple(_shared_system_fixture())
    sizes = [p.app_count for p in parts]
    assert sizes == sorted(sizes, reverse=True)


# --- serialization ------------------------------------------------------------


def test_graph_json_round_trip_and_stability():
    rng = random.Random(77)
    for _ in range(40):
        g = random_cluster_graph(rng)
        text = graph_to_json(g)
        back = graph_from_json(text)
        assert back == g
        assert graph_to_json(back) == text


def test_graph_json_rejects_garbage():
    with pytest.raises(CorruptGraph):
        graph_from_json("{not json")
    with pytest.raises(CorruptGraph):
        graph_from_json('{"origin": "runtime", "nodes": [], "edges": [{"src": "a", "dst": "b", "code": 1}]}')
    with pytest.raises(CorruptGraph):
        graph_from_json('{"origin": "sideways", "nodes": [], "edges": []}')


def _pinned_graphs() -> list[BehaviorGraph]:
    """Static, runtime and decoupled graphs of generated families, in both
    corpus sizes, and random clusters with kind-less and action nodes."""
    graphs = []
    for size in (SizeParams(), SizeParams(malicious_components=(9, 11), benign_components=(0, 0))):
        for seed in range(3):
            t = generate_family(seed, size)
            rbg = runtime_graph(t.base_pkg, t.base_trace)
            graphs += [static_graph(t.base_pkg), rbg, *decouple(rbg)]
    rng = random.Random(12)
    graphs += [random_cluster_graph(rng) for _ in range(20)]
    return graphs


PINNED_GRAPH_JSON_SHA256 = "0eb6868b44f6cc34434f83e212477750e2e437f7e6aec675587c41a36c24d5ff"


def test_graph_json_is_pinned():
    """Graph JSON is what the store file and the HTTP API carry: a change to
    the node classes must not change a byte of it."""
    digest = hashlib.sha256()
    for g in _pinned_graphs():
        text = graph_to_json(g)
        assert graph_from_json(text) == g
        digest.update(text.encode())
    assert digest.hexdigest() == PINNED_GRAPH_JSON_SHA256


def test_graph_json_mutants_raise_only_corrupt_graph():
    rng = random.Random(20161)
    bases = [graph_to_json_obj(g) for g in _pinned_graphs()]
    parsed = 0
    for _ in range(4000):
        mutant = mutate_json(rng.choice(bases), rng)
        try:
            g = graph_from_json_obj(mutant)
        except CorruptGraph:
            continue
        parsed += 1
        assert graph_from_json(graph_to_json(g)) == g
    assert 0 < parsed < 4000


@pytest.mark.parametrize("label", [[], 7, None])
@pytest.mark.parametrize("ntype", ["app", "system", "action"])
def test_non_string_label_is_corrupt(ntype, label):
    obj = {"origin": "runtime", "nodes": [{"id": "app:x", "type": ntype, "label": label}], "edges": []}
    with pytest.raises(CorruptGraph):
        graph_from_json_obj(obj)


def test_parsed_edge_endpoints_are_the_node_keys():
    g = graph_from_json(graph_to_json(_pinned_graphs()[1]))
    keys = {nid: nid for nid in g.nodes}
    assert g.edges
    for src, dst, _ in g.edges:
        assert src is keys[src] and dst is keys[dst]


def test_parsing_interns_none_of_the_strings_a_graph_brings():
    # An interned string outlives its graph (on CPython 3.12, the process), so
    # a parse that interned what a request sends would grow a server for good.
    tag = uuid.uuid4().hex
    a = AppComponent(f"com.x.A{tag}", f"kind{tag}")
    svc, act = SystemComponent(f"Svc{tag}"), IntentAction(f"ACTION_{tag}")
    obj = graph_to_json_obj(BehaviorGraph.of("runtime", [a, svc, act], [(a, svc, 3), (a, act, 4)]))
    obj["edges"][0]["content"] = f"payload{tag}"
    g = graph_from_json(json.dumps(obj))
    strings = [*g.nodes, *(n.label for n in g.nodes.values()), *(n.kind for n in g.app_components()),
               *(content for content in g.edges.values() if content is not None)]
    assert len(strings) == 8
    for text in strings:
        copy = text[:1] + text[1:]
        assert tag in copy and copy is not text
        assert sys.intern(copy) is copy  # no equal string was in the intern table


def test_runtime_graph_pipeline_matches_manual_steps(chain_pkg_source):
    pkg = parse_package(chain_pkg_source)
    trace = TraceLog("com.example.app")
    manual = complete_rbg(build_sbg(pkg, intent_calls(pkg)), trace, pkg)
    assert runtime_graph(pkg, trace) == manual
