import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monet import app_model
from monet.app_model import (
    AppPackage,
    ComponentDecl,
    DuplicateComponent,
    Instruction,
    PackageSyntaxError,
    UnknownComponentRef,
    assign_class,
    assign_string,
    assign_this,
    make_method,
    new_intent_action,
    new_intent_explicit,
    nop,
    opaque,
    parse_package,
    render_package,
    start_activity,
    start_service,
    send_broadcast,
    validate_package,
)
from monet.corpus import TransformOp, apply_transform, generate_family

from oracles import parse_instruction_per_form


def test_minimal_package_one_activity_empty_method():
    pkg = parse_package(
        "package com.a\ncomponent activity com.a.Main\n"
        "method com.a.Main onCreate {\n  b0: ->\n}\n"
    )
    assert len(pkg.components) == 1
    assert len(pkg.methods["com.a.Main"]) == 1
    assert len(pkg.methods["com.a.Main"][0].blocks) == 1
    assert pkg.methods["com.a.Main"][0].blocks[0][1] == ()


def test_explicit_intent_chain_parses_into_one_block(chain_pkg_source):
    pkg = parse_package(chain_pkg_source)
    (method,) = pkg.methods["com.example.A"]
    ops = [i.op for _, instrs in method.blocks for i in instrs]
    assert "new_intent_explicit" in ops
    assert "start_activity" in ops
    assert len(method.blocks) == 1


def test_duplicate_component_rejected():
    src = "package com.a\ncomponent activity com.a.Main\ncomponent service com.a.Main\n"
    with pytest.raises(DuplicateComponent):
        parse_package(src)


def test_method_for_undeclared_component_rejected():
    src = (
        "package com.a\ncomponent activity com.a.Main\n"
        "method com.a.Ghost run {\n  b0: nop ->\n}\n"
    )
    with pytest.raises(UnknownComponentRef):
        parse_package(src)


@pytest.mark.parametrize(
    "bad",
    [
        "component activity com.a.Main\n",  # missing header
        "package com.a\ncomponent widget com.a.Main\n",
        "package com.a\ncomponent activity com.a.M\nmethod com.a.M f {\n  b0: nop\n}\n",  # no arrow
        "package com.a\ncomponent activity com.a.M\nmethod com.a.M f {\n  b0: nop -> b9\n}\n",
        "package com.a\ncomponent activity com.a.M\nmethod com.a.M f {\n  b0: zap -> \n}\n",
        "package com.a\ncomponent activity com.a.M\nmethod com.a.M f {\n  b0: nop ->\n",  # no brace
        "package com.a\n",  # no components
    ],
)
def test_syntax_errors(bad):
    with pytest.raises(PackageSyntaxError):
        parse_package(bad)


@pytest.mark.parametrize(
    "method",
    [
        lambda: make_method("m", [("b0", [assign_class("v", "com.a.B\n")])], []),
        lambda: make_method("m", [("b0", [opaque("tag\n", "v")])], []),
        lambda: make_method("m", [("b0", [assign_this("v\n")])], []),
        lambda: make_method("m", [("b0\n", [nop()])], []),
        lambda: make_method("m\n", [("b0", [nop()])], []),
    ],
)
def test_names_with_a_trailing_newline_are_rejected(method):
    with pytest.raises(ValueError):
        method()


def test_reserved_block_ids_rejected():
    src = "package com.a\ncomponent activity com.a.M\nmethod com.a.M f {\n  ENTRY: nop ->\n}\n"
    with pytest.raises(PackageSyntaxError):
        parse_package(src)
    src = "package com.a\ncomponent activity com.a.M\nmethod com.a.M f {\n  EXIT: nop ->\n}\n"
    with pytest.raises(PackageSyntaxError):
        parse_package(src)


def test_syntax_error_carries_location():
    err = None
    try:
        parse_package("package com.a\ncomponent activity com.a.M\nmethod com.a.M f {\n  b0: zap ->\n}\n")
    except PackageSyntaxError as exc:
        err = exc
    assert err is not None
    assert err.line == 4
    assert err.expected == "instruction"


def test_comments_and_strings_interact():
    src = (
        'package com.a\ncomponent activity com.a.M\n'
        'method com.a.M f {\n  b0: v = "a # not comment"; nop -> # trailing\n}\n'
    )
    pkg = parse_package(src)
    instr = pkg.methods["com.a.M"][0].blocks[0][1][0]
    assert instr.arg == "a # not comment"


def _exhaustive_package() -> AppPackage:
    instrs = [
        assign_this("v0"),
        assign_class("v1", "com.a.Svc"),
        assign_string("v2", 'quote " and \\ slash'),
        new_intent_explicit("i0", "v0", "v1"),
        new_intent_action("i1", "v2"),
        start_activity("i0"),
        start_service("i0"),
        send_broadcast("i1"),
        opaque("enc.blob", "v3"),
        opaque("bare.tag"),
        nop(),
    ]
    method = make_method("run", [("b0", instrs[:6]), ("b1", instrs[6:])], [("b0", "b1")])
    pkg = AppPackage(
        "com.a",
        (
            ComponentDecl("com.a.Main", "activity", ("com.a.action.X", "com.a.action.Y")),
            ComponentDecl("com.a.Svc", "service"),
            ComponentDecl("com.a.Recv", "receiver"),
            ComponentDecl("com.a.Prov", "provider"),
        ),
        {"com.a.Main": (method,)},
    )
    validate_package(pkg)
    return pkg


def test_every_opcode_round_trips():
    pkg = _exhaustive_package()
    assert parse_package(render_package(pkg)) == pkg


# --- randomized round-trip -------------------------------------------------

_ident = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
_var = st.from_regex(r"[a-z][a-z0-9]{0,3}", fullmatch=True)
_class_name = st.lists(_ident, min_size=1, max_size=3).map(".".join)
_tag = st.from_regex(r"[a-z][a-z0-9_.:-]{0,6}", fullmatch=True)
_literal = st.text(
    alphabet='ab c"\\;->#x.0', max_size=10
)


@st.composite
def instructions(draw):
    kind = draw(st.sampled_from(
        ["this", "class", "string", "intent", "action", "start", "opaque", "opaque_def", "nop"]
    ))
    if kind == "this":
        return assign_this(draw(_var))
    if kind == "class":
        return assign_class(draw(_var), draw(_class_name))
    if kind == "string":
        return assign_string(draw(_var), draw(_literal))
    if kind == "intent":
        return new_intent_explicit(draw(_var), draw(_var), draw(_var))
    if kind == "action":
        return new_intent_action(draw(_var), draw(_var))
    if kind == "start":
        op = draw(st.sampled_from([start_activity, start_service, send_broadcast]))
        return op(draw(_var))
    if kind == "opaque":
        return opaque(draw(_tag))
    if kind == "opaque_def":
        return opaque(draw(_tag), draw(_var))
    return nop()


@st.composite
def methods(draw):
    n_blocks = draw(st.integers(1, 3))
    bids = [f"b{i}" for i in range(n_blocks)]
    blocks = [(bid, draw(st.lists(instructions(), max_size=4))) for bid in bids]
    edges = []
    for src in bids:
        for dst in draw(st.lists(st.sampled_from(bids), max_size=2)):
            edges.append((src, dst))
    name = draw(_ident)
    return make_method(name, blocks, edges)


@st.composite
def packages(draw):
    n = draw(st.integers(1, 3))
    comps = []
    for i in range(n):
        name = f"com.{draw(_ident)}.C{i}"
        kind = draw(st.sampled_from(["activity", "service", "receiver", "provider"]))
        filters = tuple(draw(st.lists(_class_name, max_size=2)))
        comps.append(ComponentDecl(name, kind, filters))
    methods_map = {}
    for comp in comps:
        ms = draw(st.lists(methods(), max_size=2))
        if ms:
            methods_map[comp.name] = tuple(ms)
    return AppPackage("com." + draw(_ident), tuple(comps), methods_map)


@settings(max_examples=120, deadline=None)
@given(packages())
def test_random_round_trip(pkg):
    validate_package(pkg)
    text = render_package(pkg)
    assert parse_package(text) == pkg
    # rendering is canonical: a second round trip is byte-identical
    assert render_package(parse_package(text)) == text


# --- pinned parse outcomes ---------------------------------------------------

_EDGE_PACKAGE = (
    "package com.a\n"
    "component activity com.a.M filters x.y,z\n"
    "component service com.a.S\n"
    "method com.a.M f {{\n"
    "  b0: {line}\n"
    "  b1: nop ->\n"
    "}}\n"
)
_EDGE_LINES = (
    'v = "abc -> b1',  # unterminated literal
    'v = "abc\\',  # unterminated, trailing backslash
    'v = "a\\\\" -> b1',  # literal ending in an escaped backslash
    'v = "a # b"; nop -> b1 # comment',
    'v = "x -> y; z" -> b1',
    'v = "esc \\" q"; w = "" -> b1',
    "; nop -> b1",
    "nop; ; nop -> b1",
    "zap; ; nop -> b1",
    "nop; -> b1",
    "->",
    "nop -> b1 b1",
    "nop --> b1, b1",
    "v = intent ( a , b ) ; start_activity( v ) ; opaque a.b:c-d ; t = opaque x -> b1",
    "v = class com.x.Y; w = this; i = intent_action(v); send_broadcast(i); start_service(i) -> b1,b1",
    'v="a"->b1',
)
_MUTATION_ALPHABET = 'ab c"\\;->#x.0{}:=(),'
PINNED_PARSE_SHA256 = "dea7bc05248082389fa94cccb65c84d12a10a22d405c26f0aeac059e55b11268"


def _parse_outcome(text: str) -> str:
    try:
        return render_package(parse_package(text))
    except Exception as exc:  # every failure mode is part of the outcome
        where = (getattr(exc, "line", None), getattr(exc, "col", None), getattr(exc, "expected", None))
        return repr((type(exc).__name__, *where, str(exc)))


def _pinned_parse_inputs():
    """Generated apps and hand-written edge lines, each also with seeded
    single-character insertions, deletions and replacements."""
    bases = [render_package(generate_family(seed).base_pkg) for seed in range(2)]
    bases.append(render_package(apply_transform(generate_family(2), TransformOp(3), seed=1)[0]))
    bases.extend(_EDGE_PACKAGE.format(line=line) for line in _EDGE_LINES)
    rng = random.Random(20261018)
    inputs = list(bases)
    while len(inputs) < 1500:
        text = rng.choice(bases)
        pos = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        char = rng.choice(_MUTATION_ALPHABET)
        if edit == 0:
            inputs.append(text[:pos] + char + text[pos:])
        elif edit == 1:
            inputs.append(text[:pos] + text[pos + 1 :])
        else:
            inputs.append(text[:pos] + char + text[pos + 1 :])
    return inputs


def test_parse_outcomes_are_pinned():
    """Every input parses to the same package or fails at the same place."""
    digest = hashlib.sha256()
    for text in _pinned_parse_inputs():
        digest.update(_parse_outcome(text).encode())
        digest.update(b"\0")
    assert digest.hexdigest() == PINNED_PARSE_SHA256


def _line_mutations(rng, text: str) -> str:
    """``text`` with a line repeated, dropped or swapped with the next, or a
    component name on a line renamed: enough to declare a component twice or
    to file a method under an undeclared one."""
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    edit = rng.randrange(4)
    if edit == 0:
        lines.insert(i, lines[i])
    elif edit == 1:
        del lines[i]
    elif edit == 2 and i + 1 < len(lines):
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    else:
        lines[i] = lines[i].replace("com.", "org.", 1)
    return "\n".join(lines)


def _outcome(parse, text: str):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), getattr(exc, "line", None), getattr(exc, "col", None), str(exc)


def test_parsing_with_only_the_component_checks_matches_full_validation(monkeypatch):
    """``parse_package`` skips the per-method and per-instruction checks of
    ``validate_package``, which its patterns already guarantee: over the pinned
    inputs and seeded line edits it gives the same package, or the same
    failure at the same line, as parsing followed by full validation."""
    rng = random.Random(20261020)
    texts = _pinned_parse_inputs()
    texts += [_line_mutations(rng, rng.choice(texts[:3])) for _ in range(1500)]

    def parse_then_validate(text):
        with monkeypatch.context() as m:
            m.setattr(app_model, "_check_component_refs", lambda pkg: None)
            pkg = parse_package(text)
        validate_package(pkg)
        return pkg

    fast = [_outcome(parse_package, text) for text in texts]
    assert fast == [_outcome(parse_then_validate, text) for text in texts]
    kinds = [o if isinstance(o, AppPackage) else o[0] for o in fast]
    assert sum(isinstance(k, AppPackage) for k in kinds) > 300
    assert DuplicateComponent in kinds and UnknownComponentRef in kinds


_SEGMENT_TOKENS = ('v', 'i2', '=', 'this', 'class', 'com.a.B', '"a\\"b"', '"', '\\', 'intent', 'intent_action',
                   '(', ')', ',', 'start_activity', 'start_service', 'send_broadcast', 'opaque', 'x/y:z',
                   'nop', '$', '#', ';', '->')
# Variable names that are also keywords of some form, so forms compete for them.
_SEGMENT_VARS = ("v", "i", "x_1", "this", "intent", "opaque", "nop", "class")


def _random_segment(rng):
    """A random instruction of any form, rendered with random spacing."""
    def var():
        return rng.choice(_SEGMENT_VARS)

    instr = rng.choice((
        lambda: assign_this(var()),
        lambda: assign_class(var(), rng.choice(("com.a.B", "B$1", "_x"))),
        lambda: assign_string(var(), rng.choice(("", "a b", 'q"t', "b\\s", "#;->", "intent(a, b)"))),
        lambda: new_intent_explicit(var(), var(), var()),
        lambda: new_intent_action(var(), var()),
        lambda: rng.choice((start_activity, start_service, send_broadcast))(var()),
        lambda: opaque(rng.choice(("enc", "a.b:c-d", "$1")), rng.choice((None, var()))),
        nop,
    ))()
    out = []
    for ch in app_model._render_instruction(instr):
        if ch == " ":
            out.append(rng.choice((" ", "  ", "\t")))
        elif ch in "(),=":
            out.append(rng.choice(("", " ")) + ch + rng.choice(("", " ")))
        else:
            out.append(ch)
    return "".join(out)


def _instruction_outcome(parse, text):
    try:
        return parse(text, 7, 3)
    except PackageSyntaxError as exc:
        return (exc.line, exc.col, exc.expected)


def test_one_pattern_dispatch_agrees_with_the_per_form_loop(monkeypatch):
    """The single alternation picks the form the per-form loop picks, for every
    instruction segment the pinned parse inputs reach and for seeded random
    segments, and fails where it fails."""
    segments = set()
    parse = app_model._parse_instruction

    def recording(text, lineno, col):
        segments.add(text)
        return parse(text, lineno, col)

    monkeypatch.setattr(app_model, "_parse_instruction", recording)
    for text in _pinned_parse_inputs():
        _parse_outcome(text)
    monkeypatch.undo()
    pinned = sorted(segments)
    assert len(pinned) > 300

    rng = random.Random(20261019)
    for _ in range(4000):
        roll = rng.random()
        if roll < 0.4:
            seg = _random_segment(rng)
        elif roll < 0.7:
            tokens = rng.choices(_SEGMENT_TOKENS, k=rng.randint(1, 8))
            seg = "".join(t + rng.choice(("", " ", "\t")) for t in tokens)
        else:  # a segment with a character inserted or replaced
            seg = rng.choice(pinned) if roll < 0.85 else _random_segment(rng)
            pos = rng.randrange(len(seg) + 1)
            seg = seg[:pos] + rng.choice(_MUTATION_ALPHABET) + seg[pos + rng.randrange(2) :]
        segments.add(seg.strip())
    outcomes = [(_instruction_outcome(parse, seg), _instruction_outcome(parse_instruction_per_form, seg))
                for seg in sorted(segments)]
    assert all(one == loop for one, loop in outcomes)
    assert sum(isinstance(one, Instruction) for one, _ in outcomes) > 1000
