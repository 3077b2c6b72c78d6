"""Scaling guard: each layer on a request path does work linear in its input.

Every layer runs on adversarial shapes of size n and 8n, and the fastest of
three runs at 8n may take at most 16 times the fastest at n: a linear layer
reads about 8, a quadratic one about 64.  The shapes are built here, not
through ``corpus``, whose templates stay small.
"""

import gc
import time

import pytest

from monet import matcher, pipeline
from monet.app_model import (
    AppPackage,
    ComponentDecl,
    assign_string,
    make_method,
    new_intent_action,
    nop,
    parse_package,
    render_package,
    start_activity,
)
from monet.behavior_graph import (
    AppComponent,
    BehaviorGraph,
    SystemComponent,
    decouple,
    graph_from_json,
    graph_to_json,
    is_decoupled,
)
from monet.dataflow import build_cfg, reaching_definitions
from monet.trace import BinderRecord, SyscallRecord, TraceLog, parse_trace, render_trace

SMALL, LARGE = 1_000, 8_000
MAX_RATIO = 16


def _app(i: int) -> AppComponent:
    return AppComponent(f"com.x.C{i}", "activity")


# ---------------------------------------------------------------------------
# graph shapes, n app nodes or edges each
# ---------------------------------------------------------------------------


def hub(n: int) -> BehaviorGraph:
    """n one-node app clusters, each with an edge to one shared system node."""
    apps, shared = [_app(i) for i in range(n)], SystemComponent("IHub")
    return BehaviorGraph.of("runtime", [*apps, shared], [(a, shared, 1) for a in apps])


def star(n: int) -> BehaviorGraph:
    apps = [_app(i) for i in range(n + 1)]
    return BehaviorGraph.of("runtime", apps, [(apps[0], a, 1) for a in apps[1:]])


def chain(n: int) -> BehaviorGraph:
    apps = [_app(i) for i in range(n + 1)]
    return BehaviorGraph.of("runtime", apps, [(a, b, 1) for a, b in zip(apps, apps[1:])])


def codes(n: int) -> BehaviorGraph:
    """Two app nodes joined by n edges of distinct codes."""
    a, b = _app(0), AppComponent("com.x.D", "service")
    return BehaviorGraph.of("runtime", [a, b], [(a, b, k) for k in range(n)])


# ---------------------------------------------------------------------------
# method shapes, n blocks or definitions each
# ---------------------------------------------------------------------------


def successors(n: int):
    """One block with n successors."""
    blocks = [("b0", [nop()])] + [(f"b{i}", [nop()]) for i in range(1, n + 1)]
    return make_method("m", blocks, [("b0", f"b{i}") for i in range(1, n + 1)])


def block_chain(n: int):
    blocks = [(f"b{i}", [nop()]) for i in range(n)]
    return make_method("m", blocks, [(f"b{i}", f"b{i + 1}") for i in range(n - 1)])


def definitions(n: int):
    """One block defining one variable n times, then one intent chain using it."""
    instrs = [assign_string("s", f"com.x.action.A{i}") for i in range(n)]
    return make_method("m", [("b0", [*instrs, new_intent_action("i", "s"), start_activity("i")])], [])


def definitions_cfg(n: int):
    return build_cfg(definitions(n))


def _chain_method(blocks):
    return make_method("m", blocks, [(f"b{k}", f"b{k + 1}") for k in range(len(blocks) - 1)])


def new_variables(n: int):
    """n blocks that each define a new variable, then an intent from the first."""
    blocks = [(f"b{k}", [assign_string(f"s{k}", f"com.x.action.A{k}")]) for k in range(n)]
    return _chain_method([*blocks, (f"b{n}", [new_intent_action("i", "s0"), start_activity("i")])])


def relay(n: int):
    """n blocks where block k starts the intent defined in block k-1 and defines its own."""
    return _chain_method([(f"b{k}", [*([start_activity(f"i{k - 1}")] if k else []),
                                     assign_string(f"s{k}", f"com.x.action.A{k}"),
                                     new_intent_action(f"i{k}", f"s{k}")]) for k in range(n)])


def one_definition(n: int):
    """One definition, then n blocks that each build and start an intent from it."""
    return _chain_method([("b0", [assign_string("s", "com.x.action.A")]),
                          *((f"b{k}", [new_intent_action("i", "s"), start_activity("i")])
                            for k in range(1, n + 1))])


def one_definition_loop(n: int):
    """``one_definition`` with a back edge from the last block to the first query."""
    method = one_definition(n)
    return make_method("m", method.blocks, [*method.edges, (f"b{n}", "b1")])


def package(shape):
    def build(n: int) -> AppPackage:
        comp = ComponentDecl("com.x.Main", "activity")
        return AppPackage("com.x", (comp,), {comp.name: (shape(n),)})
    build.__name__ = shape.__name__
    return build


def package_text(shape):
    def build(n: int) -> str:
        return render_package(package(shape)(n))
    build.__name__ = f"{shape.__name__}_text"
    return build


# ---------------------------------------------------------------------------
# trace shapes, n records each
# ---------------------------------------------------------------------------


def callers(n: int) -> str:
    """n distinct callers, each calling one shared system target."""
    return render_trace(TraceLog("com.x", tuple(
        BinderRecord(i, f"com.x.C{i}", ("system", "IHub"), 1) for i in range(n))))


def one_caller(n: int) -> str:
    """One caller making n calls with distinct codes and contents, plus n system calls."""
    binder = tuple(BinderRecord(2 * i, "com.x.C0", ("component", "com.x.D"), i, f"c{i}") for i in range(n))
    syscalls = tuple(SyscallRecord(2 * i + 1, "socket", f"10.0.{i // 256}.{i % 256}:80") for i in range(n))
    return render_trace(TraceLog("com.x", binder, syscalls))


def json_round_trip(g: BehaviorGraph):
    return graph_from_json(graph_to_json(g))


def smaller_side(g: BehaviorGraph):
    """A search profile and its tables as the smaller side of a pair."""
    return matcher._Profile(g).smaller()


def larger_side(g: BehaviorGraph):
    return matcher._Profile(g).larger()


def canon(g: BehaviorGraph):
    return matcher._Profile(g).canon()


CASES = [
    *((json_round_trip, shape) for shape in (hub, star, chain)),
    *((decouple, shape) for shape in (hub, star, chain)),
    *((is_decoupled, shape) for shape in (hub, star, chain)),
    *((matcher._label_bits, shape) for shape in (hub, star, chain, codes)),
    *((matcher._Profile, shape) for shape in (star, chain, codes)),
    *((role, shape) for role in (smaller_side, larger_side, canon) for shape in (star, chain, codes)),
    (parse_trace, callers),
    (parse_trace, one_caller),
    *((parse_package, package_text(shape)) for shape in (successors, block_chain, definitions)),
    (build_cfg, successors),
    (build_cfg, block_chain),
    # Only the one-block shape: on a block chain the debug dump's IN sets are Theta(n^2) by output size.
    (reaching_definitions, definitions_cfg),
    *((pipeline.intent_calls, package(shape)) for shape in (new_variables, relay, one_definition,
                                                            one_definition_loop)),
]


def _fastest(layer, arg) -> float:
    runs = []
    for _ in range(3):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            layer(arg)
            runs.append(time.perf_counter() - start)
        finally:
            gc.enable()
    return min(runs)


@pytest.mark.parametrize("layer, shape", CASES, ids=[f"{layer.__name__}-{shape.__name__}" for layer, shape in CASES])
def test_layer_scales_linearly(layer, shape):
    ratio = _fastest(layer, shape(LARGE)) / _fastest(layer, shape(SMALL))
    assert ratio < MAX_RATIO, f"{layer.__name__} on {shape.__name__}: {LARGE} / {SMALL} took {ratio:.1f}x"
