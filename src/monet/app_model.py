"""App-package representation: manifest components plus per-method instruction IR.

A package is a desk-scale stand-in for a disassembled mobile app.  It carries
the manifest-declared components (activity, service, receiver, provider) and,
per component, methods made of basic blocks over a tiny instruction set.  Only
intent construction and start-calls are semantic; everything else is either
``nop`` or ``opaque``.

Text format (one file per app, UTF-8, ``#`` comments)::

    package com.example.app
    component activity com.example.Main filters android.intent.action.MAIN
    component service com.example.Svc
    method com.example.Main onCreate {
      b0: v1 = this; v2 = class com.example.Svc; i = intent(v1, v2); start_service(i) -> b1
      b1: nop ->
    }

Each block line is ``<id>: <instr>; ... -> <succ>,<succ>`` (the successor list
may be empty).  The instruction forms are listed once, in ``_FORMS``: that
table is the grammar's single definition, and the parser, the renderer and
the validator are all derived from it.  ``v = opaque <tag>`` is the assigned
form of ``opaque``: it defines a variable whose value static analysis cannot
see (the model for encrypted strings, reflective class lookups and similar).
Block ids ``ENTRY`` and ``EXIT`` are reserved for the control-flow graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import accumulate

KINDS = ("activity", "service", "receiver", "provider")

_VAR = r"[A-Za-z_][A-Za-z0-9_]*"
_CLASS = r"[A-Za-z_$][A-Za-z0-9_$.]*"
_TAG = r"[A-Za-z0-9_$./:-]+"

VAR_RE = re.compile(rf"{_VAR}\Z")
CLASS_RE = re.compile(rf"{_CLASS}\Z")
TAG_RE = re.compile(rf"{_TAG}\Z")

RESERVED_BLOCK_IDS = ("ENTRY", "EXIT")


class PackageError(Exception):
    """Base for package-IR parse and validation failures."""


class PackageSyntaxError(PackageError):
    def __init__(self, line: int, col: int, expected: str):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"line {line}, col {col}: expected {expected}")


class DuplicateComponent(PackageError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"duplicate component declaration: {name}")


class UnknownComponentRef(PackageError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"method body references undeclared component: {name}")


@dataclass(frozen=True)
class Instruction:
    """One IR instruction.

    ``defs`` and ``uses`` list the variables written and read; ``arg`` carries
    the op's literal payload (class name, string literal or opaque tag).
    """

    op: str
    arg: str | None = None
    defs: tuple[str, ...] = ()
    uses: tuple[str, ...] = ()


def assign_this(var: str) -> Instruction:
    return Instruction("assign_this", defs=(var,))


def assign_class(var: str, class_name: str) -> Instruction:
    return Instruction("assign_class", arg=class_name, defs=(var,))


def assign_string(var: str, literal: str) -> Instruction:
    return Instruction("assign_string", arg=literal, defs=(var,))


def new_intent_explicit(var: str, caller_var: str, target_var: str) -> Instruction:
    return Instruction("new_intent_explicit", defs=(var,), uses=(caller_var, target_var))


def new_intent_action(var: str, action_var: str) -> Instruction:
    return Instruction("new_intent_action", defs=(var,), uses=(action_var,))


def start_activity(intent_var: str) -> Instruction:
    return Instruction("start_activity", uses=(intent_var,))


def start_service(intent_var: str) -> Instruction:
    return Instruction("start_service", uses=(intent_var,))


def send_broadcast(intent_var: str) -> Instruction:
    return Instruction("send_broadcast", uses=(intent_var,))


def opaque(tag: str, var: str | None = None) -> Instruction:
    return Instruction("opaque", arg=tag, defs=(var,) if var else ())


def nop() -> Instruction:
    return Instruction("nop")


START_OPS = ("start_activity", "start_service", "send_broadcast")

# Every instruction form's text syntax: the grammar's single definition.
# Fields: {d} a defined variable, {u} a used variable, {c} a class name,
# {s} a string literal, {t} an opaque tag.  A form lists its defs, then its
# uses, then its payload (the ``arg``); ``opaque`` has one form per def count.
# Any whitespace may separate two tokens, and some must where two words meet.
_FORMS = (
    ("assign_this", "{d} = this"),
    ("assign_class", "{d} = class {c}"),
    ("assign_string", "{d} = {s}"),
    ("new_intent_explicit", "{d} = intent({u}, {u})"),
    ("new_intent_action", "{d} = intent_action({u})"),
    ("start_activity", "start_activity({u})"),
    ("start_service", "start_service({u})"),
    ("send_broadcast", "send_broadcast({u})"),
    ("opaque", "opaque {t}"),
    ("opaque", "{d} = opaque {t}"),
    ("nop", "nop"),
)

# field -> (pattern with one group, payload check)
_FIELDS = {
    "d": (f"({_VAR})", None),
    "u": (f"({_VAR})", None),
    "c": (f"({_CLASS})", CLASS_RE),
    "s": (r'"((?:[^"\\]|\\.)*)"', None),
    "t": (f"({_TAG})", TAG_RE),
}
_FIELD = re.compile(r"\{([ducst])\}")
_SYNTAX_TOKEN = re.compile(rf"{_FIELD.pattern}|\w+|\S")


@dataclass(frozen=True)
class _Form:
    op: str
    n_defs: int
    n_uses: int
    payload: str | None  # the payload's field, if the form has one
    check: re.Pattern[str] | None  # what a payload must match, if anything
    pattern: re.Pattern[str]  # matches a stripped instruction segment
    template: str  # printf-style template over (*defs, *uses, payload text)


def _compile_form(op: str, syntax: str) -> _Form:
    pattern, fields = [], ""
    prev_word = None
    for tok in _SYNTAX_TOKEN.finditer(syntax):
        name, text = tok.group(1), tok.group()
        word = bool(name) or text.isidentifier()
        if prev_word is not None:
            pattern.append(r"\s+" if prev_word and word else r"\s*")
        prev_word = word
        if name:
            fields += name
            pattern.append(_FIELDS[name][0])
        else:
            pattern.append(re.escape(text))
    payload = fields[-1] if fields[-1:] in ("c", "s", "t") else None
    template = _FIELD.sub(lambda m: '"%s"' if m.group(1) == "s" else "%s", syntax)
    regex = re.compile("".join(pattern) + "$")
    check = _FIELDS[payload][1] if payload else None
    return _Form(op, fields.count("d"), fields.count("u"), payload, check, regex, template)


_COMPILED_FORMS = tuple(_compile_form(op, syntax) for op, syntax in _FORMS)
_FORM_OF = {(form.op, form.n_defs): form for form in _COMPILED_FORMS}


# Every form in one pattern, tried in ``_FORMS`` order, each in a group of its
# own.  That group closes after the form's field groups, so a match's
# ``lastindex`` is it, and ``_FORM_AT`` maps it back to the form.
_INSTRUCTION = re.compile("|".join(f"({form.pattern.pattern})" for form in _COMPILED_FORMS))
_FORM_AT = dict(zip(accumulate((1 + form.pattern.groups for form in _COMPILED_FORMS), initial=1),
                    _COMPILED_FORMS))


def _check_instruction(instr: Instruction) -> None:
    form = _FORM_OF.get((instr.op, len(instr.defs)))
    if form is None or len(instr.uses) != form.n_uses or (form.payload is None) != (instr.arg is None):
        raise ValueError(f"instruction matches no form of its op: {instr}")
    if form.check is not None and not form.check.match(instr.arg):
        raise ValueError(f"bad payload in {instr}")
    for v in (*instr.defs, *instr.uses):
        if not VAR_RE.match(v):
            raise ValueError(f"bad variable name {v!r} in {instr}")


@dataclass(frozen=True)
class MethodIR:
    """A method body: ordered basic blocks plus explicit control-flow edges."""

    name: str
    blocks: tuple[tuple[str, tuple[Instruction, ...]], ...]
    edges: tuple[tuple[str, str], ...]
    entry: str


def validate_method(method: MethodIR) -> None:
    if not VAR_RE.match(method.name):
        raise ValueError(f"bad method name: {method.name!r}")
    ids = [bid for bid, _ in method.blocks]
    seen: set[str] = set()
    for bid in ids:
        if not VAR_RE.match(bid) or bid in RESERVED_BLOCK_IDS:
            raise ValueError(f"bad block id: {bid!r}")
        if bid in seen:
            raise ValueError(f"duplicate block id: {bid}")
        seen.add(bid)
    if method.entry not in seen:
        raise ValueError(f"entry block {method.entry!r} not declared")
    # The text format has no entry marker; the first listed block is the entry.
    if method.blocks and method.entry != method.blocks[0][0]:
        raise ValueError("entry must be the first listed block")
    for src, dst in method.edges:
        if src not in seen or dst not in seen:
            raise ValueError(f"edge references unknown block: {src}->{dst}")
    # The text format lists successors per block line, so edges must be grouped
    # by source block in block order (see make_method).
    order = {bid: n for n, bid in enumerate(ids)}
    positions = [order[src] for src, _ in method.edges]
    if positions != sorted(positions):
        raise ValueError("edges must be grouped by source block in block order")
    for _, instrs in method.blocks:
        for instr in instrs:
            _check_instruction(instr)


def make_method(
    name: str,
    blocks,
    edges,
    entry: str | None = None,
) -> MethodIR:
    """Build a validated :class:`MethodIR`, canonicalizing edge order."""
    blocks_t = tuple((bid, tuple(instrs)) for bid, instrs in blocks)
    order = {bid: n for n, (bid, _) in enumerate(blocks_t)}
    edges_t = tuple(sorted(edges, key=lambda e: order.get(e[0], len(order))))
    method = MethodIR(name, blocks_t, edges_t, entry or (blocks_t[0][0] if blocks_t else ""))
    validate_method(method)
    return method


@dataclass(frozen=True)
class ComponentDecl:
    name: str
    kind: str
    intent_filters: tuple[str, ...] = ()


@dataclass(frozen=True)
class AppPackage:
    """A parsed app package.  Treated as immutable after construction."""

    package_name: str
    components: tuple[ComponentDecl, ...]
    methods: dict[str, tuple[MethodIR, ...]] = field(default_factory=dict)

    def kinds_by_name(self) -> dict[str, str]:
        return {c.name: c.kind for c in self.components}


def validate_package(pkg: AppPackage) -> None:
    """Raise if ``pkg`` violates a structural invariant."""
    if not CLASS_RE.match(pkg.package_name):
        raise ValueError(f"bad package name: {pkg.package_name!r}")
    if not pkg.components:
        raise ValueError("package declares no components")
    for comp in pkg.components:
        if not CLASS_RE.match(comp.name):
            raise ValueError(f"bad component name: {comp.name!r}")
        if comp.kind not in KINDS:
            raise ValueError(f"bad component kind: {comp.kind!r}")
        for action in comp.intent_filters:
            if not CLASS_RE.match(action):
                raise ValueError(f"bad intent filter action: {action!r}")
    _check_component_refs(pkg)
    for methods in pkg.methods.values():
        for m in methods:
            validate_method(m)


def _check_component_refs(pkg: AppPackage) -> None:
    """Raise unless each component is declared once and every method is
    filed under a declared one: the only invariants that text the parser
    accepts can still break, since its patterns admit nothing else invalid."""
    names: set[str] = set()
    for comp in pkg.components:
        if comp.name in names:
            raise DuplicateComponent(comp.name)
        names.add(comp.name)
    for comp_name in pkg.methods:
        if comp_name not in names:
            raise UnknownComponentRef(comp_name)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_PKG_LINE = re.compile(rf"\s*package\s+({_CLASS})\s*$")
_COMP_LINE = re.compile(
    rf"\s*component\s+(activity|service|receiver|provider)\s+({_CLASS})"
    rf"(?:\s+filters\s+(\S+))?\s*$"
)
_METHOD_LINE = re.compile(rf"\s*method\s+({_CLASS})\s+({_VAR})\s*\{{\s*$")
_BLOCK_HEAD = re.compile(rf"\s*({_VAR})\s*:")

# One lexeme of a line: a string literal (the end of the line may cut off its
# closing quote or an escaped character), the successor arrow, an instruction
# separator or a comment.  Scanning for lexemes skips over literals, so they
# may hold '#', ';' and '->'.
_LEXEME = re.compile(r'"(?:[^"\\]|\\.?)*"?|->|[;#]', re.S)


def _strip_comment(line: str) -> str:
    if "#" not in line:
        return line
    for m in _LEXEME.finditer(line):
        if m.group() == "#":
            return line[: m.start()]
    return line


def _split_block_body(body: str, lineno: int, base_col: int) -> tuple[list[tuple[str, int]], str]:
    """Split ``instr; instr -> succs`` into instruction segments and the succ text.

    Returns (segments-with-columns, succ_text).  ``body`` has no comment left.
    """
    semis: list[int] = []
    for m in _LEXEME.finditer(body):
        if m.group() == "->":
            break
        if m.group() == ";":
            semis.append(m.start())
    else:
        raise PackageSyntaxError(lineno, base_col + len(body), "'->' successor list")
    out: list[tuple[str, int]] = []
    for start, end in zip([0] + [p + 1 for p in semis], [*semis, m.start()]):
        seg = body[start:end]
        if seg.strip():
            out.append((seg.strip(), base_col + start + (len(seg) - len(seg.lstrip()))))
        elif semis:
            raise PackageSyntaxError(lineno, base_col + start, "instruction")
    return out, body[m.end() :]


def _parse_instruction(text: str, lineno: int, col: int) -> Instruction:
    m = _INSTRUCTION.match(text)
    if m is None:
        raise PackageSyntaxError(lineno, col, "instruction")
    group = m.lastindex
    form = _FORM_AT[group]
    values = m.groups()[group : group + form.pattern.groups]
    arg = values[-1] if form.payload else None
    if form.payload == "s":
        arg = arg.replace('\\"', '"').replace("\\\\", "\\")
    uses = values[form.n_defs : form.n_defs + form.n_uses]
    return Instruction(form.op, arg, values[: form.n_defs], uses)


def parse_package(text: str) -> AppPackage:
    """Parse package-IR source into a validated :class:`AppPackage`.

    Raises :class:`PackageSyntaxError`, :class:`DuplicateComponent` or
    :class:`UnknownComponentRef`.
    """
    package_name: str | None = None
    components: list[ComponentDecl] = []
    methods: dict[str, list[MethodIR]] = {}

    lines = text.split("\n")
    i = 0
    while i < len(lines):
        lineno = i + 1
        line = _strip_comment(lines[i])
        i += 1
        if not line.strip():
            continue
        if package_name is None:
            m = _PKG_LINE.match(line)
            if not m:
                raise PackageSyntaxError(lineno, 0, "'package <name>' header")
            package_name = m.group(1)
            continue
        m = _COMP_LINE.match(line)
        if m:
            kind, name, filters_text = m.group(1), m.group(2), m.group(3)
            filters = tuple(filters_text.split(",")) if filters_text else ()
            if not all(CLASS_RE.match(p) for p in filters):
                raise PackageSyntaxError(lineno, line.find(filters_text), "action string")
            components.append(ComponentDecl(name, kind, filters))
            continue
        m = _METHOD_LINE.match(line)
        if m:
            comp_name, method_name = m.group(1), m.group(2)
            blocks: list[tuple[str, tuple[Instruction, ...]]] = []
            edges: list[tuple[str, str]] = []
            seen_blocks: set[str] = set()
            closed = False
            while i < len(lines):
                body_lineno = i + 1
                raw = _strip_comment(lines[i])
                i += 1
                if not raw.strip():
                    continue
                if raw.strip() == "}":
                    closed = True
                    break
                bm = _BLOCK_HEAD.match(raw)
                if not bm:
                    raise PackageSyntaxError(body_lineno, 0, "'<block-id>:' or '}'")
                bid = bm.group(1)
                if bid in RESERVED_BLOCK_IDS:
                    raise PackageSyntaxError(body_lineno, bm.start(1), "non-reserved block id")
                if bid in seen_blocks:
                    raise PackageSyntaxError(body_lineno, bm.start(1), "unique block id")
                seen_blocks.add(bid)
                segments, succ_text = _split_block_body(raw[bm.end() :], body_lineno, bm.end())
                instrs = tuple(_parse_instruction(seg, body_lineno, col) for seg, col in segments)
                succs = [part.strip() for part in succ_text.split(",")] if succ_text.strip() else []
                if not all(VAR_RE.match(s) for s in succs):
                    raise PackageSyntaxError(body_lineno, raw.find(succ_text), "block id")
                blocks.append((bid, instrs))
                edges.extend((bid, s) for s in succs)
            if not closed:
                raise PackageSyntaxError(len(lines), 0, "'}'")
            if not blocks:
                raise PackageSyntaxError(lineno, 0, "at least one block")
            for src, dst in edges:
                if dst not in seen_blocks:
                    raise PackageSyntaxError(lineno, 0, f"declared block id (got {dst!r})")
            method = MethodIR(method_name, tuple(blocks), tuple(edges), blocks[0][0])
            methods.setdefault(comp_name, []).append(method)
            continue
        raise PackageSyntaxError(lineno, 0, "'component', 'method' or end of file")

    if package_name is None:
        raise PackageSyntaxError(1, 0, "'package <name>' header")
    if not components:
        raise PackageSyntaxError(len(lines), 0, "at least one component")

    pkg = AppPackage(package_name, tuple(components), {k: tuple(v) for k, v in methods.items()})
    _check_component_refs(pkg)
    return pkg


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _render_instruction(instr: Instruction) -> str:
    form = _FORM_OF[instr.op, len(instr.defs)]
    if form.payload is None:
        return form.template % (*instr.defs, *instr.uses)
    arg = instr.arg.replace("\\", "\\\\").replace('"', '\\"') if form.payload == "s" else instr.arg
    return form.template % (*instr.defs, *instr.uses, arg)


def render_package(pkg: AppPackage) -> str:
    """Render ``pkg`` to canonical package-IR text; inverse of :func:`parse_package`."""
    validate_package(pkg)
    out: list[str] = [f"package {pkg.package_name}", ""]
    for comp in pkg.components:
        line = f"component {comp.kind} {comp.name}"
        if comp.intent_filters:
            line += " filters " + ",".join(comp.intent_filters)
        out.append(line)
    for comp in pkg.components:
        for method in pkg.methods.get(comp.name, ()):
            out.append("")
            out.append(f"method {comp.name} {method.name} {{")
            succs: dict[str, list[str]] = {}
            for src, dst in method.edges:
                succs.setdefault(src, []).append(dst)
            for bid, block_instrs in method.blocks:
                instrs = "; ".join(_render_instruction(x) for x in block_instrs)
                succ = ",".join(succs.get(bid, ()))
                head = f"  {bid}: {instrs}".rstrip()
                out.append(f"{head} -> {succ}".rstrip())
            out.append("}")
    return "\n".join(out) + "\n"
