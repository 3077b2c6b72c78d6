import dataclasses
import hashlib
import json
import random
from collections import Counter

from monet import dataflow, pipeline
from monet.app_model import (
    AppPackage,
    ComponentDecl,
    assign_class,
    assign_string,
    assign_this,
    make_method,
    new_intent_action,
    new_intent_explicit,
    opaque,
    nop,
    send_broadcast,
    start_activity,
    start_service,
)
from monet.corpus import InapplicableTransform, SizeParams, TransformOp, apply_transform, generate_family
from monet.dataflow import (
    ENTRY,
    EXIT,
    DefId,
    build_cfg,
    cfg_to_json,
    defs_at,
    defsets_to_json,
    extract_intent_calls,
    reaching_definitions,
)

from oracles import (
    chaotic_reaching_definitions,
    eager_intent_calls,
    random_chain_method,
    random_method,
    witness_supports,
)

COMP = ComponentDecl("com.t.Main", "activity")


def analyze(method):
    cfg = build_cfg(method)
    sets = reaching_definitions(cfg)
    return cfg, sets


def test_single_block_wiring():
    cfg = build_cfg(make_method("m", [("b0", [nop()])], []))
    assert cfg.succ[ENTRY] == ("b0",)
    assert cfg.succ["b0"] == (EXIT,)
    assert cfg.pred[EXIT] == ("b0",)
    assert cfg.pruned == ()


def test_diamond_structure_preserved():
    m = make_method(
        "m",
        [("b0", [nop()]), ("b1", [nop()]), ("b2", [nop()]), ("b3", [nop()])],
        [("b0", "b1"), ("b0", "b2"), ("b1", "b3"), ("b2", "b3")],
    )
    cfg = build_cfg(m)
    assert cfg.succ["b0"] == ("b1", "b2")
    assert set(cfg.pred["b3"]) == {"b1", "b2"}


def test_unreachable_blocks_pruned_and_reported():
    m = make_method(
        "m",
        [("b0", [nop()]), ("b1", [nop()]), ("dead", [assign_this("v")])],
        [("b0", "b1"), ("dead", "b1")],
    )
    cfg = build_cfg(m)
    assert "dead" not in cfg.blocks
    assert cfg.pruned == ("dead",)


def test_cfg_size_stays_in_observed_block_range():
    rng = random.Random(5)
    for _ in range(50):
        method = random_method(rng, max_blocks=20)
        cfg = build_cfg(method)
        assert 1 <= len(cfg.blocks) <= 20


def test_straight_line_propagation():
    m = make_method("m", [("b0", [assign_this("x")]), ("b1", [nop()])], [("b0", "b1")])
    cfg, sets = analyze(m)
    assert DefId("b0", 0, "x") in sets.in_["b1"]


def test_union_at_join():
    m = make_method(
        "m",
        [
            ("b0", [nop()]),
            ("b1", [assign_this("x")]),
            ("b2", [assign_string("x", "s")]),
            ("b3", [nop()]),
        ],
        [("b0", "b1"), ("b0", "b2"), ("b1", "b3"), ("b2", "b3")],
    )
    cfg, sets = analyze(m)
    assert {DefId("b1", 0, "x"), DefId("b2", 0, "x")} <= sets.in_["b3"]


def test_redefinition_kills_upstream_def():
    m = make_method(
        "m",
        [("b0", [assign_this("x")]), ("b1", [assign_string("x", "s")]), ("b2", [nop()])],
        [("b0", "b1"), ("b1", "b2")],
    )
    cfg, sets = analyze(m)
    assert sets.in_["b2"] == frozenset({DefId("b1", 0, "x")})


def test_fixpoint_is_stable():
    rng = random.Random(11)
    for _ in range(50):
        cfg = build_cfg(random_method(rng))
        sets = reaching_definitions(cfg)
        for bid in (*cfg.blocks, EXIT):
            in_b = frozenset().union(*(sets.out[p] for p in cfg.pred[bid])) if cfg.pred[bid] else frozenset()
            assert in_b == sets.in_[bid]
            assert sets.out[bid] == sets.gen[bid] | (in_b - sets.kill[bid])


def test_worklist_equals_chaotic_oracle():
    rng = random.Random(99)
    for _ in range(120):
        cfg = build_cfg(random_method(rng))
        sets = reaching_definitions(cfg)
        in_o, out_o = chaotic_reaching_definitions(cfg, rng)
        for bid in (*cfg.blocks, EXIT):
            assert sets.in_[bid] == in_o[bid], f"IN mismatch at {bid}"
            assert sets.out[bid] == out_o[bid], f"OUT mismatch at {bid}"


# --- intent extraction -------------------------------------------------------


def _calls_for(instr_blocks, edges=()):
    cfg = build_cfg(make_method("m", instr_blocks, edges))
    return extract_intent_calls(COMP, cfg), cfg


def test_explicit_chain_resolves_to_target_class():
    calls, cfg = _calls_for(
        [("b0", [assign_this("v1"), assign_class("v2", "com.t.B"),
                 new_intent_explicit("i", "v1", "v2"), start_activity("i")])]
    )
    (call,) = calls
    assert call.target_kind == "explicit"
    assert call.target == "com.t.B"
    assert call.call_kind == "start_activity"
    assert call.caller_component == "com.t.Main"
    assert witness_supports(cfg, call)


def test_implicit_chain_resolves_to_action_string():
    calls, cfg = _calls_for(
        [("b0", [assign_string("va", "android.app.action.ADD_DEVICE_ADMIN"),
                 new_intent_action("i", "va"), start_activity("i")])]
    )
    (call,) = calls
    assert call.target_kind == "implicit"
    assert call.target == "android.app.action.ADD_DEVICE_ADMIN"
    assert witness_supports(cfg, call)


def test_opaque_string_definition_is_unresolved():
    calls, _ = _calls_for(
        [("b0", [opaque("enc", "va"), new_intent_action("i", "va"), start_activity("i")])]
    )
    (call,) = calls
    assert call.target_kind == "unresolved"
    assert call.target is None
    assert call.witness == ()


def test_ambiguous_intent_definition_is_unresolved():
    calls, _ = _calls_for(
        [
            ("b0", [nop()]),
            ("b1", [assign_this("v1"), assign_class("v2", "com.t.B"),
                    new_intent_explicit("i", "v1", "v2")]),
            ("b2", [assign_this("w1"), assign_class("w2", "com.t.C"),
                    new_intent_explicit("i", "w1", "w2")]),
            ("b3", [start_activity("i")]),
        ],
        [("b0", "b1"), ("b0", "b2"), ("b1", "b3"), ("b2", "b3")],
    )
    (call,) = calls
    assert call.target_kind == "unresolved"


def test_cross_block_single_definition_resolves():
    calls, cfg = _calls_for(
        [
            ("b0", [assign_this("v1"), assign_class("v2", "com.t.B")]),
            ("b1", [new_intent_explicit("i", "v1", "v2")]),
            ("b2", [start_activity("i")]),
        ],
        [("b0", "b1"), ("b1", "b2")],
    )
    (call,) = calls
    assert call.target == "com.t.B"
    assert witness_supports(cfg, call)


def test_resolution_is_monotone_in_opaque_replacement():
    rng = random.Random(17)
    for _ in range(150):
        method = random_chain_method(rng)
        before = extract_intent_calls(COMP, build_cfg(method))
        resolved_before = {(c.site, c.target_kind, c.target) for c in before
                           if c.target_kind != "unresolved"}

        # replace one opaque def (if any) with a concrete assignment
        blocks = []
        replaced = False
        for bid, instrs in method.blocks:
            new = []
            for instr in instrs:
                if not replaced and instr.op == "opaque" and instr.defs:
                    new.append(assign_string(instr.defs[0], "com.t.action.X"))
                    replaced = True
                else:
                    new.append(instr)
            blocks.append((bid, new))
        if not replaced:
            continue
        method2 = make_method(method.name, blocks, method.edges)
        after = extract_intent_calls(COMP, build_cfg(method2))
        resolved_after = {(c.site, c.target_kind, c.target) for c in after
                          if c.target_kind != "unresolved"}
        assert resolved_before <= resolved_after


def test_every_resolved_call_carries_a_valid_witness():
    rng = random.Random(23)
    for _ in range(200):
        cfg = build_cfg(random_chain_method(rng))
        for call in extract_intent_calls(COMP, cfg):
            assert witness_supports(cfg, call)


def test_defs_at_mid_block():
    m = make_method(
        "m",
        [("b0", [assign_this("x"), assign_string("x", "s"), nop()])],
        [],
    )
    cfg = build_cfg(m)
    assert defs_at(cfg, "b0", 1, "x") == frozenset({DefId("b0", 0, "x")})
    assert defs_at(cfg, "b0", 2, "x") == frozenset({DefId("b0", 1, "x")})


# --- pinned extraction outcomes ----------------------------------------------

PINNED_INTENT_CALLS_SHA256 = "29b0fda152c3b8d996c7169c76c54b6527277a939d2c1555328fcd1b5cae0d2f"
PINNED_DEBUG_DUMP_SHA256 = "fc1241162d94b59da5439699d1e8c9c4301410675a846c4c1ac56fdce9a1ace7"


def _pinned_case_methods():
    """Hand-written chains, one per way a link of the chain can break."""
    diamond = [("b0", "b1"), ("b0", "b2"), ("b1", "b3"), ("b2", "b3")]
    return [
        # an operand whose definition reaches along both diamond branches
        make_method("m", [
            ("b0", [assign_this("v1")]),
            ("b1", [assign_class("v2", "com.t.B")]),
            ("b2", [assign_class("v2", "com.t.C")]),
            ("b3", [new_intent_explicit("i", "v1", "v2"), start_service("i")]),
        ], diamond),
        # the same operand defined once before the diamond
        make_method("m", [
            ("b0", [assign_this("v1"), assign_class("v2", "com.t.B")]),
            ("b1", [nop()]),
            ("b2", [assign_this("w")]),
            ("b3", [new_intent_explicit("i", "v1", "v2"), send_broadcast("i")]),
        ], diamond),
        # operands defined by the wrong op, in each position
        make_method("m", [("b0", [assign_this("v1"), assign_string("v2", "com.t.B"),
                                  new_intent_explicit("i", "v1", "v2"), start_activity("i")])], []),
        make_method("m", [("b0", [assign_class("v1", "com.t.A"), assign_class("v2", "com.t.B"),
                                  new_intent_explicit("i", "v1", "v2"), start_activity("i")])], []),
        make_method("m", [("b0", [assign_class("a", "com.t.A"), new_intent_action("i", "a"),
                                  start_activity("i")])], []),
        # the intent variable defined by something other than a constructor
        make_method("m", [("b0", [assign_string("i", "x"), start_activity("i")])], []),
        # start-calls on variables with no definition at all
        make_method("m", [("b0", [start_activity("i"), start_service("j")])], []),
        make_method("m", [("b0", [new_intent_action("i", "nowhere"), send_broadcast("i")])], []),
        # redefinitions between the constructor and the start-call
        make_method("m", [("b0", [assign_string("a", "x.y"), new_intent_action("i", "a"),
                                  opaque("enc", "i"), start_activity("i")])], []),
        make_method("m", [("b0", [assign_string("a", "x.y"), new_intent_action("i", "a"),
                                  assign_string("a", "x.z"), start_activity("i"),
                                  new_intent_action("i", "a"), start_service("i")])], []),
        # operands defined in earlier blocks, the intent in a later one
        make_method("m", [
            ("b0", [assign_this("v1")]),
            ("b1", [assign_class("v2", "com.t.B"), nop()]),
            ("b2", [new_intent_explicit("i", "v1", "v2")]),
            ("b3", [start_service("i"), start_activity("i")]),
        ], [("b0", "b1"), ("b1", "b2"), ("b2", "b3")]),
        # a loop whose back edge carries a second definition of the operand
        make_method("m", [
            ("b0", [assign_string("a", "x.y")]),
            ("b1", [new_intent_action("i", "a"), start_activity("i"), assign_string("a", "x.z")]),
        ], [("b0", "b1"), ("b1", "b1")]),
    ]


def _mutated_methods(rng, count):
    """Seeded random methods with intent constructors and start-calls spliced in
    over a small variable pool, so operands are often undefined, ambiguous,
    defined by the wrong op or redefined before use."""
    out = []
    for k in range(count):
        method = random_chain_method(rng) if k % 2 else random_method(rng, max_blocks=8, n_vars=4)
        pool = sorted({v for _, instrs in method.blocks for instr in instrs
                       for v in (*instr.defs, *instr.uses)} | {"v0", "v1"})

        def pick():
            return rng.choice(pool)

        blocks = []
        for bid, instrs in method.blocks:
            new = list(instrs)
            for _ in range(rng.randint(0, 3)):
                roll = rng.random()
                if roll < 0.25:
                    instr = new_intent_explicit(pick(), pick(), pick())
                elif roll < 0.45:
                    instr = new_intent_action(pick(), pick())
                elif roll < 0.6:
                    instr = assign_class(pick(), f"com.t.K{rng.randrange(3)}")
                elif roll < 0.7:
                    instr = assign_this(pick())
                else:
                    instr = rng.choice((start_activity, start_service, send_broadcast))(pick())
                new.insert(rng.randint(0, len(new)), instr)
            if new and rng.random() < 0.2:
                del new[rng.randrange(len(new))]
            blocks.append((bid, new))
        edges = list(method.edges)
        if len(blocks) > 1 and rng.random() < 0.5:
            edges.append((rng.choice(blocks)[0], rng.choice(blocks)[0]))
        out.append(make_method(method.name, blocks, edges))
    return out


def _pinned_intent_inputs():
    """(component, method) pairs: corpus apps at two sizes (base and every
    applicable operator), the hand-written broken chains above and seeded
    random methods."""
    methods = [(COMP, m) for m in _pinned_case_methods()]
    for size in (SizeParams(), SizeParams(malicious_components=(9, 11), implicit_intents=(2, 3))):
        for seed in (3, 4):
            template = generate_family(seed, size)
            pkgs = [template.base_pkg]
            for op_id in range(1, 13):
                try:
                    pkgs.append(apply_transform(template, TransformOp(op_id), seed=1)[0])
                except InapplicableTransform:
                    pass
            for pkg in pkgs:
                for comp in pkg.components:
                    methods.extend((comp, m) for m in pkg.methods.get(comp.name, ()))
    methods.extend((COMP, m) for m in _mutated_methods(random.Random(20261018), 400))
    return methods


def test_intent_calls_are_pinned():
    """Every start-call resolves to the same target, witness or non-result."""
    digest = hashlib.sha256()
    for comp, method in _pinned_intent_inputs():
        digest.update(repr(extract_intent_calls(comp, build_cfg(method))).encode())
        digest.update(b"\0")
    assert digest.hexdigest() == PINNED_INTENT_CALLS_SHA256


def test_debug_dump_is_pinned():
    """The ``--debug-dataflow`` shape, CFG and GEN/KILL/IN/OUT, over the pinned
    inputs and seeded random methods with loops, stays byte-identical."""
    rng = random.Random(20261020)
    methods = [m for _, m in _pinned_intent_inputs()]
    methods.extend(random_method(rng, max_blocks=12, n_vars=4) for _ in range(60))
    digest = hashlib.sha256()
    for method in methods:
        cfg = build_cfg(method)
        dump = {"cfg": cfg_to_json(cfg), "defsets": defsets_to_json(reaching_definitions(cfg))}
        digest.update(json.dumps(dump, sort_keys=True).encode())
        digest.update(b"\0")
    assert digest.hexdigest() == PINNED_DEBUG_DUMP_SHA256


def test_demand_driven_resolution_equals_eager_resolution():
    """Over the pinned inputs, resolving on demand gives what resolving
    against a fixpoint solved up front gives, and every witness holds."""
    for comp, method in _pinned_intent_inputs():
        cfg = build_cfg(method)
        calls = extract_intent_calls(comp, cfg)
        assert calls == eager_intent_calls(comp, build_cfg(method))
        assert all(witness_supports(cfg, call) for call in calls)


# --- queries on demand -------------------------------------------------------


class _CountingDict(dict):
    """A ``Cfg.solved`` that counts the writes to each key."""

    def __init__(self):
        super().__init__()
        self.writes = Counter()

    def __setitem__(self, key, value):
        self.writes[key] += 1
        super().__setitem__(key, value)


def test_chains_inside_their_blocks_solve_no_fixpoint():
    calls, cfg = _calls_for(
        [
            ("b0", [assign_this("v1"), assign_class("v2", "com.t.B"),
                    new_intent_explicit("i", "v1", "v2"), start_activity("i")]),
            ("b1", [assign_string("a", "x.y"), new_intent_action("j", "a"), send_broadcast("j"),
                    opaque("enc", "k"), start_service("k")]),
        ],
        [("b0", "b1"), ("b1", "b0")],
    )
    assert [c.target_kind for c in calls] == ["explicit", "implicit", "unresolved"]
    assert cfg.solved == {}


def test_the_request_path_never_solves_the_whole_table(monkeypatch):
    tables = []
    monkeypatch.setattr(dataflow, "reaching_definitions", lambda cfg: tables.append(cfg.method))
    pkg = AppPackage("com.t", (COMP,), {COMP.name: tuple(_pinned_case_methods())})
    calls = pipeline.intent_calls(pkg)
    assert any(c.target_kind != "unresolved" and c.witness[0].block != c.site[0] for c in calls)
    assert tables == []


def test_one_methods_queries_solve_each_out_at_most_once():
    """Every (variable, block) OUT is written once, however many queries of
    the method, the dump's included, read it."""
    solved_some = False
    for comp, method in _pinned_intent_inputs():
        cfg = dataclasses.replace(build_cfg(method), solved=_CountingDict())
        extract_intent_calls(comp, cfg)
        reaching_definitions(cfg)
        assert max(cfg.solved.writes.values(), default=0) <= 1
        solved_some = solved_some or bool(cfg.solved.writes)
    assert solved_some


def test_a_method_without_a_start_call_gets_no_cfg(monkeypatch):
    built = []
    build = pipeline.build_cfg

    def counting(method):
        built.append(method.name)
        return build(method)

    monkeypatch.setattr(pipeline, "build_cfg", counting)
    pkg = AppPackage("com.t", (COMP,), {COMP.name: (
        make_method("quiet", [("b0", [assign_this("v1"), nop()])], []),
        make_method("loud", [("b0", [assign_string("a", "x.y"), new_intent_action("i", "a"),
                                     send_broadcast("i")])], []),
    )})
    assert [c.target for c in pipeline.intent_calls(pkg)] == ["x.y"]
    assert built == ["loud"]
