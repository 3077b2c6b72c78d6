"""Synthetic evaluation corpus: family templates, transformation operators,
and the detection-metrics harness.

Families are generated, not collected: each template is a package whose
completed runtime graph decouples into a designated malicious cluster and
(by default) a benign cluster, modeling repackaged malware.  Twelve
transformation operators rewrite the package and/or trace the way static
obfuscation tools rewrite real apps:

    1  class renaming                 7  junk instructions and components
    2  block reordering               8  nop insertion
    3  string constant hiding         9  method renaming
    4  class constant hiding         10  variable renaming
    5  metadata stripping            11  reflective intent construction
    6  instruction reordering        12  dynamic component loading

Operators 1, 2, 5, 6, 8, 9 and 10 preserve the completed runtime graph
exactly; 3, 4, 11 and 12 hide structure from static analysis that the trace
restores at completion; 7 grows the cluster by statically wired junk that
never runs.  Benign samples are drawn from a distinct system-service profile
and rejection-sampled so no benign graph scores 0.6 or more against any
family base (rejections are logged), which keeps a zero false-positive rate
meaningful rather than lucky.
"""

from __future__ import annotations

import logging
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import count

from .app_model import (
    AppPackage,
    ComponentDecl,
    Instruction,
    MethodIR,
    assign_class,
    assign_string,
    assign_this,
    make_method,
    new_intent_action,
    new_intent_explicit,
    opaque,
    nop,
    validate_package,
)
from .behavior_graph import STATIC_CODES, BehaviorGraph, decouple
from .matcher import (
    DEFAULT_ALPHA,
    DEFAULT_THRESHOLD,
    MODES,
    decide,
    exact_threshold,
    match_rbg,
    similarity,
    upper_bound_value,
)
from .pipeline import runtime_graph, signature_of
from .sigstore import FamilySignature, empty_store, insert_signature, merge_blacklist
from .trace import BinderRecord, SyscallRecord, TraceLog

log = logging.getLogger(__name__)

TRANSFORM_NAMES = {
    1: "class renaming",
    2: "block reordering",
    3: "string constant hiding",
    4: "class constant hiding",
    5: "metadata stripping",
    6: "instruction reordering",
    7: "junk instructions and components",
    8: "nop insertion",
    9: "method renaming",
    10: "variable renaming",
    11: "reflective intent construction",
    12: "dynamic component loading",
}

# Runtime-only system-service calls (descriptor, transaction code, call name).
MAL_SERVICES = [
    ("PhoneSubInfo", 4, "getDeviceId"),
    ("DevicePolicyManager", 41, "isAdminActive"),
    ("ISms", 5, "sendText"),
    ("PackageManager", 2, "getPackageInfo"),
    ("ConnectivityManager", 4, "getActiveNetworkInfo"),
    ("ActivityManager", 34, "getRunningAppProcesses"),
    ("WifiManager", 13, "getConnectionInfo"),
    ("TelephonyRegistry", 9, "listen"),
]
BENIGN_SERVICES = [
    ("WindowManager", 8, "addView"),
    ("NotificationManager", 12, "enqueueNotification"),
    ("LocationManager", 21, "getLastKnownLocation"),
    ("AccountManager", 6, "getAccounts"),
    ("AudioService", 17, "setStreamVolume"),
    ("ClipboardService", 3, "getPrimaryClip"),
    ("JobScheduler", 11, "schedule"),
    ("MediaRouterService", 14, "registerClient"),
    ("InputMethodManager", 7, "showSoftInput"),
    ("PowerManager", 16, "acquireWakeLock"),
]

_ACT_STEMS = ["Main", "Home", "Update", "Login", "Panel", "Setup", "Gallery", "Stats"]
_SVC_STEMS = ["Work", "Sync", "Net", "Cmd", "Push", "Task", "Feed"]
_RCV_STEMS = ["Boot", "Sms", "Alarm", "Link", "Pkg"]

_CALL_FOR_KIND = {"activity": "start_activity", "service": "start_service", "receiver": "send_broadcast"}

BENIGN_REJECT_SCORE = Fraction(3, 5)
BENIGN_ATTEMPTS = 25


class InapplicableTransform(Exception):
    pass


@dataclass(frozen=True)
class SizeParams:
    malicious_components: tuple[int, int] = (4, 6)
    benign_components: tuple[int, int] = (3, 5)
    implicit_intents: tuple[int, int] = (1, 2)


@dataclass(frozen=True)
class FamilyTemplate:
    seed: int
    base_pkg: AppPackage
    base_trace: TraceLog
    malicious_cluster: frozenset[str]
    benign_cluster: frozenset[str] | None


@dataclass(frozen=True)
class TransformOp:
    """One of the twelve operators, by its number in :data:`TRANSFORM_NAMES`."""

    op_id: int

    def __post_init__(self):
        if self.op_id not in TRANSFORM_NAMES:
            raise ValueError(f"unknown transform id {self.op_id}")


@dataclass
class _Cluster:
    prefix: str
    comps: list[ComponentDecl] = field(default_factory=list)
    edges: list[tuple[str, str, str]] = field(default_factory=list)  # src, dst, call kind
    implicit: list[tuple[str, str]] = field(default_factory=list)  # src, action
    services: list[tuple[str, str, int, str]] = field(default_factory=list)  # comp, desc, code, call

    def names(self) -> list[str]:
        return [c.name for c in self.comps]


def _pick_name(rng: random.Random, prefix: str, n: int, taken: set[str]) -> ComponentDecl:
    if n == 0:
        kind = "activity"
    else:
        kind = rng.choice(("activity", "service", "service", "receiver"))
    stems = {"activity": _ACT_STEMS, "service": _SVC_STEMS, "receiver": _RCV_STEMS}[kind]
    suffix = kind.capitalize()
    base = f"{prefix}.{rng.choice(stems)}{suffix}"
    name = base
    i = 2
    while name in taken:
        name = f"{base}{i}"
        i += 1
    taken.add(name)
    return ComponentDecl(name, kind)


def _build_cluster(rng: random.Random, prefix: str, n_comps: int, roster, size: SizeParams,
                   action_prefix: str) -> _Cluster:
    cluster = _Cluster(prefix)
    taken: set[str] = set()
    for i in range(n_comps):
        cluster.comps.append(_pick_name(rng, prefix, i, taken))
    names = cluster.names()
    kinds = {c.name: c.kind for c in cluster.comps}
    for i in range(1, n_comps):
        src = names[rng.randrange(i)]
        cluster.edges.append((src, names[i], _CALL_FOR_KIND[kinds[names[i]]]))
    if n_comps >= 2:
        for _ in range(rng.randint(1, 2)):
            src, dst = rng.sample(names, 2)
            if (src, dst, _CALL_FOR_KIND[kinds[dst]]) not in cluster.edges:
                cluster.edges.append((src, dst, _CALL_FOR_KIND[kinds[dst]]))
    for j in range(rng.randint(*size.implicit_intents)):
        cluster.implicit.append((rng.choice(names), f"{action_prefix}.EVENT{j}"))
    subset = rng.sample(roster, min(len(roster), max(3, n_comps)))
    for name in names:
        for svc in rng.sample(subset, rng.randint(1, 3)):
            item = (name, *svc)
            if item not in cluster.services:
                cluster.services.append(item)
    return cluster


def _methods_for(rng: random.Random, cluster: _Cluster) -> dict[str, tuple[MethodIR, ...]]:
    method_name = {"activity": "onCreate", "service": "onStartCommand", "receiver": "onReceive"}
    out: dict[str, tuple[MethodIR, ...]] = {}
    counter = 0
    for comp in cluster.comps:
        instrs: list[Instruction] = []
        for src, dst, call in cluster.edges:
            if src != comp.name:
                continue
            v1, v2, iv = f"v{counter}", f"v{counter + 1}", f"i{counter}"
            counter += 2
            instrs += [
                assign_this(v1),
                assign_class(v2, dst),
                new_intent_explicit(iv, v1, v2),
                Instruction(call, uses=(iv,)),
            ]
        for src, action in cluster.implicit:
            if src != comp.name:
                continue
            va, iv = f"s{counter}", f"i{counter}"
            counter += 1
            instrs += [
                assign_string(va, action),
                new_intent_action(iv, va),
                Instruction("start_activity", uses=(iv,)),
            ]
        if not instrs or rng.random() < 0.4:
            instrs.append(opaque(f"call.{rng.randrange(100)}", f"t{counter}"))
            counter += 1
        if rng.random() < 0.3:
            instrs.append(nop())
        # The first component always gets a multi-block body so the block
        # reordering operator has something to work with.
        blocks, edges = _split_blocks(rng, instrs, force=comp is cluster.comps[0])
        out[comp.name] = (make_method(method_name[comp.kind], blocks, edges),)
    return out


def _split_blocks(rng: random.Random, instrs: list[Instruction], force: bool = False):
    """Chunk a straight-line body into 1-3 blocks, sometimes with a diamond."""
    want_split = force or (len(instrs) >= 6 and rng.random() < 0.5)
    if want_split and len(instrs) >= 2:
        cut = min(max(2, 4 * (len(instrs) // 8 + 1)), len(instrs) - 1)
        blocks = [("b0", instrs[:cut]), ("b1", instrs[cut:])]
        edges = [("b0", "b1")]
        if force or rng.random() < 0.5:
            # diamond around a side block that touches no chain variables
            blocks.append(("b2", [nop()]))
            edges = [("b0", "b1"), ("b0", "b2"), ("b2", "b1")]
        return blocks, edges
    return [("b0", instrs)], []


def _assemble_trace(rng: random.Random, app_name: str, clusters: list[_Cluster],
                    syscalls: list[tuple[str, str]]) -> TraceLog:
    events: list[dict] = []
    for cluster in clusters:
        kinds = {c.name: c.kind for c in cluster.comps}
        for src, dst, call in cluster.edges:
            events.append({
                "caller": src,
                "target": ("component", dst),
                "code": STATIC_CODES[call],
                "content": f"start {kinds[dst]}",
            })
        for src, action in cluster.implicit:
            events.append({"caller": src, "target": ("action", action), "code": 3, "content": action})
        for comp, desc, code, callname in cluster.services:
            events.append({"caller": comp, "target": ("system", desc), "code": code, "content": callname})
    rng.shuffle(events)
    binder = tuple(
        BinderRecord(seq, e["caller"], e["target"], e["code"], e["content"], False)
        for seq, e in enumerate(events, start=1)
    )
    sys_records = tuple(
        SyscallRecord(len(binder) + i, call, detail)
        for i, (call, detail) in enumerate(syscalls, start=1)
    )
    return TraceLog(app_name, binder, sys_records)


def _cluster_graph(graphs: list[BehaviorGraph], members: frozenset[str]) -> BehaviorGraph:
    for g in graphs:
        if {c.name for c in g.app_components()} & members:
            return g
    raise AssertionError("designated cluster not found in decoupled graphs")


def _app_degrees(g: BehaviorGraph) -> dict[str, int]:
    """Edge endpoints at each app node of ``g``, keyed by component name."""
    degree = {c.name: 0 for c in g.app_components()}
    for src, dst, _ in g.edges:
        for nid in (src, dst):
            if nid.startswith("app:"):
                degree[nid[4:]] += 1
    return degree


def _resilience_gap(g: BehaviorGraph) -> tuple[int, int]:
    """(edit ops for losing the min-degree app node, total op budget)."""
    min_deg = min(_app_degrees(g).values())
    total = 2 * (len(g.nodes) + len(g.edges))
    return 2 + 2 * min_deg, total


def generate_family(seed: int, size: SizeParams = SizeParams()) -> FamilyTemplate:
    """Deterministically generate a family template from ``seed``.

    The completed runtime graph always decouples into the designated
    clusters, stays under 50 nodes, and (for clusters of three or more
    components) is large enough that losing one low-degree component to
    dynamic loading cannot drop similarity below 0.8.
    """
    rng = random.Random(f"family:{seed}")
    n_mal = rng.randint(*size.malicious_components)
    n_ben = rng.randint(*size.benign_components) if size.benign_components[1] > 0 else 0

    app_name = f"com.family{seed}.app"
    mal = _build_cluster(rng, f"com.family{seed}.core", n_mal, MAL_SERVICES, size,
                         f"com.family{seed}.action")
    clusters = [mal]
    ben = None
    if n_ben:
        ben = _build_cluster(rng, f"com.family{seed}.ui", n_ben, BENIGN_SERVICES, size,
                             f"com.family{seed}.ui.action")
        clusters.append(ben)

    syscalls = [
        ("socket", f"c2-{seed}.pool{seed % 97}.net:{8000 + seed % 1000}"),
        ("execve", f"/data/local/tmp/exploit{seed}"),
    ]
    if rng.random() < 0.5:
        syscalls.append(("socket", f"mirror{seed % 13}.pool{seed % 97}.net:443"))

    aux = 0
    while True:
        components = tuple(c for cl in clusters for c in cl.comps)
        methods: dict[str, tuple[MethodIR, ...]] = {}
        for cl in clusters:
            methods.update(_methods_for(random.Random(f"methods:{seed}:{aux}"), cl))
        pkg = AppPackage(app_name, components, methods)
        validate_package(pkg)
        trace = _assemble_trace(random.Random(f"trace:{seed}:{aux}"), app_name, clusters, syscalls)
        rbg = runtime_graph(pkg, trace)
        parts = decouple(rbg)
        mal_names = frozenset(mal.names())
        expected = 1 + (1 if ben else 0)
        assert len(parts) == expected, f"unexpected cluster count {len(parts)}"
        mal_graph = _cluster_graph(parts, mal_names)
        if n_mal < 3:
            break
        ops, total = _resilience_gap(mal_graph)
        if ops * 5 <= total:
            break
        # Widen the cluster without touching its thinnest component: hang one
        # more service call off the busiest component and rebuild.
        out_degree = Counter(src[4:] for src, _, _ in mal_graph.edges if src.startswith("app:"))
        busiest = max(sorted(out_degree), key=lambda n: out_degree[n])
        mal.services.append((busiest, f"AuxRegistry{aux}", 50 + aux, "register"))
        aux += 1

    assert len(rbg.nodes) < 50, "template exceeds the sizing envelope"
    return FamilyTemplate(
        seed=seed,
        base_pkg=pkg,
        base_trace=trace,
        malicious_cluster=frozenset(mal.names()),
        benign_cluster=frozenset(ben.names()) if ben else None,
    )


def malicious_graph(template: FamilyTemplate) -> BehaviorGraph:
    parts = decouple(runtime_graph(template.base_pkg, template.base_trace))
    return _cluster_graph(parts, template.malicious_cluster)


def family_signature(template: FamilyTemplate, family_id: str) -> FamilySignature:
    return FamilySignature(family_id, (malicious_graph(template),),
                           notes=f"generated template seed={template.seed}")


def family_blacklist(template: FamilyTemplate) -> tuple[list[str], list[str]]:
    endpoints = [r.detail for r in template.base_trace.syscalls if r.call == "socket"]
    executables = [r.detail for r in template.base_trace.syscalls if r.call == "execve"]
    return endpoints, executables


# ---------------------------------------------------------------------------
# transformation operators
# ---------------------------------------------------------------------------


def _map_methods(pkg: AppPackage, fn) -> AppPackage:
    """The one package walk: rebuild ``pkg`` with fn(method) -> method."""
    methods = {comp: tuple(fn(m) for m in ms) for comp, ms in pkg.methods.items()}
    return AppPackage(pkg.package_name, pkg.components, methods)


def _with_blocks(m: MethodIR, fn) -> MethodIR:
    """``m`` with fn(instrs) -> instrs applied to every block."""
    blocks = tuple((bid, tuple(fn(instrs))) for bid, instrs in m.blocks)
    return MethodIR(m.name, blocks, m.edges, m.entry)


def _map_blocks(pkg: AppPackage, fn) -> AppPackage:
    """Apply fn(instrs) -> instrs to every block, in walk order."""
    return _map_methods(pkg, lambda m: _with_blocks(m, fn))


def _map_instructions(pkg: AppPackage, fn) -> AppPackage:
    """Apply fn(method, instr) -> instr to every instruction."""
    return _map_methods(pkg, lambda m: _with_blocks(m, lambda instrs: [fn(m, i) for i in instrs]))


# Operators that hide one intent-chain instruction behind an opaque call
# defining the same variable: op -> (instruction hidden, the intent
# constructor operand it must feed or None, opaque tag, inapplicable message).
_HIDING = {
    3: ("assign_string", ("new_intent_action", 0), "enc", "no constants feed intent chains (op 3)"),
    4: ("assign_class", ("new_intent_explicit", 1), "dec", "no constants feed intent chains (op 4)"),
    11: ("new_intent_explicit", None, "refl", "no explicit intent constructions to hide"),
}


def _intent_fed_vars(method: MethodIR, ctor_op: str, operand: int) -> set[str]:
    return {instr.uses[operand] for _, instrs in method.blocks for instr in instrs
            if instr.op == ctor_op}


def _rename_components(pkg: AppPackage, trace: TraceLog, mapping: dict[str, str]):
    components = tuple(
        ComponentDecl(mapping.get(c.name, c.name), c.kind, c.intent_filters)
        for c in pkg.components
    )
    renamed = _map_instructions(
        pkg,
        lambda m, instr: replace(instr, arg=mapping[instr.arg])
        if instr.op == "assign_class" and instr.arg in mapping
        else instr,
    )
    methods = {mapping.get(name, name): ms for name, ms in renamed.methods.items()}
    new_pkg = AppPackage(pkg.package_name, components, methods)
    binder = tuple(
        replace(
            r,
            caller=mapping.get(r.caller, r.caller),
            target=("component", mapping.get(r.target[1], r.target[1]))
            if r.target[0] == "component"
            else r.target,
        )
        for r in trace.binder
    )
    return new_pkg, TraceLog(trace.app, binder, trace.syscalls)


def _rename_variables(m: MethodIR) -> MethodIR:
    var_map: dict[str, str] = {}

    def mapped(v: str) -> str:
        if v not in var_map:
            var_map[v] = f"r{len(var_map)}"
        return var_map[v]

    return _with_blocks(m, lambda instrs: [
        replace(i, defs=tuple(mapped(v) for v in i.defs), uses=tuple(mapped(v) for v in i.uses))
        for i in instrs
    ])


def _scatter(rng: random.Random, instrs, make) -> list[Instruction]:
    """``instrs`` with one or two make() instructions at random positions."""
    work = list(instrs)
    for _ in range(rng.randint(1, 2)):
        work.insert(rng.randint(0, len(work)), make())
    return work


def _add_junk(pkg: AppPackage, rng: random.Random, hosts: list[str]) -> AppPackage:
    """Two dead services, each statically started from a malicious host, plus
    opaque padding in every block; fresh variables cannot disturb chains."""
    junk = [ComponentDecl(f"{pkg.package_name}.junk.J{i}Service", "service") for i in range(2)]
    methods = dict(pkg.methods)
    for i, j in enumerate(junk):
        host = rng.choice(hosts)
        first, *rest = methods[host]
        (bid, instrs), *blocks = first.blocks
        v1, v2, iv = f"j{i}a", f"j{i}b", f"j{i}c"
        wiring = (
            assign_this(v1),
            assign_class(v2, j.name),
            new_intent_explicit(iv, v1, v2),
            Instruction("start_service", uses=(iv,)),
        )
        methods[host] = (replace(first, blocks=((bid, instrs + wiring), *blocks)), *rest)
        methods[j.name] = (make_method("onStartCommand", [("b0", [opaque("junk")])], []),)
    pad_ids = count()
    return _map_blocks(
        AppPackage(pkg.package_name, (*pkg.components, *junk), methods),
        lambda instrs: _scatter(rng, instrs, lambda: opaque("junkpad", f"q{next(pad_ids)}")),
    )


def apply_transform(template: FamilyTemplate, op: TransformOp, seed: int = 0):
    """Apply one operator to the template; returns (package, trace).

    Deterministic given (template, op, seed).  Raises
    :class:`InapplicableTransform` when the template lacks the construct the
    operator rewrites.
    """
    rng = random.Random(f"transform:{op.op_id}:{template.seed}:{seed}")
    pkg, trace = template.base_pkg, template.base_trace

    if op.op_id == 1:  # class renaming
        mapping = {
            c.name: f"o{template.seed}x{seed}.p{i}.K{i}" for i, c in enumerate(pkg.components)
        }
        new_pkg, new_trace = _rename_components(pkg, trace, mapping)
        validate_package(new_pkg)
        return new_pkg, new_trace

    if op.op_id == 2:  # block reordering: reverse the non-entry block listing
        new_pkg = _map_methods(
            pkg,
            lambda m: make_method(m.name, [m.blocks[0], *reversed(m.blocks[1:])], m.edges, m.entry)
            if len(m.blocks) >= 3
            else m,
        )
        if new_pkg == pkg:
            raise InapplicableTransform("no method has enough blocks to reorder")
        return new_pkg, trace

    if op.op_id in _HIDING:  # string / class constant hiding, reflective intents
        hidden, feeds, tag, why = _HIDING[op.op_id]
        new_pkg = _map_instructions(
            pkg,
            lambda m, instr: opaque(tag, instr.defs[0])
            if instr.op == hidden and (feeds is None or instr.defs[0] in _intent_fed_vars(m, *feeds))
            else instr,
        )
        if new_pkg == pkg:
            raise InapplicableTransform(why)
        return new_pkg, trace

    if op.op_id == 5:  # strip manifest filters and debug-ish tags
        stripped = _map_instructions(
            pkg,
            lambda m, instr: replace(instr, arg="stripped") if instr.op == "opaque" else instr,
        )
        components = tuple(ComponentDecl(c.name, c.kind, ()) for c in pkg.components)
        return replace(stripped, components=components), trace

    if op.op_id == 6:  # swap adjacent independent instructions
        swaps = 0

        def swap(instrs):
            nonlocal swaps
            work = list(instrs)
            for _ in range(4):
                if len(work) < 2:
                    break
                j = rng.randrange(len(work) - 1)
                a, b = work[j], work[j + 1]
                if not (set(a.defs) | set(a.uses)) & (set(b.defs) | set(b.uses)):
                    work[j], work[j + 1] = b, a
                    swaps += 1
            return work

        new_pkg = _map_blocks(pkg, swap)
        if not swaps:
            raise InapplicableTransform("no independent adjacent instruction pairs")
        return new_pkg, trace

    if op.op_id == 7:  # junk: opaque padding plus statically wired dead components
        return _add_junk(pkg, rng, sorted(template.malicious_cluster)), trace

    if op.op_id == 8:  # nop insertion
        return _map_blocks(pkg, lambda instrs: _scatter(rng, instrs, nop)), trace

    if op.op_id == 9:  # method renaming
        counter = count()
        return _map_methods(pkg, lambda m: replace(m, name=f"m{next(counter)}")), trace

    if op.op_id == 10:  # variable renaming (fields have no other IR analogue)
        return _map_methods(pkg, _rename_variables), trace

    if op.op_id == 12:  # dynamic component loading
        if len(pkg.components) < 2:
            raise InapplicableTransform("cannot delete the only component")
        degree = _app_degrees(malicious_graph(template))
        victim = min(sorted(degree), key=lambda n: degree[n])
        components = tuple(c for c in pkg.components if c.name != victim)
        survivors = {name: ms for name, ms in pkg.methods.items() if name != victim}
        new_pkg = _map_instructions(
            AppPackage(pkg.package_name, components, survivors),
            lambda m, instr: opaque("dyn", instr.defs[0])
            if instr.op == "assign_class" and instr.arg == victim
            else instr,
        )
        binder = tuple(
            replace(r, dynamic_caller=True) if r.caller == victim else r for r in trace.binder
        )
        return new_pkg, TraceLog(trace.app, binder, trace.syscalls)

    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# benign samples and the evaluation harness
# ---------------------------------------------------------------------------


def generate_benign(seed: int, size: SizeParams, base_graphs):
    """A clean single-cluster app; regenerates until structurally far from
    every family base.  Returns (pkg, trace, max_base_score, rejections);
    the score is an upper bound where a search ran out of budget."""
    rejections = 0
    for attempt in range(BENIGN_ATTEMPTS):
        rng = random.Random(f"benign:{seed}:{attempt}")
        n = rng.randint(3, max(4, size.benign_components[1] + 2))
        app_name = f"com.app{seed}.main"
        cluster = _build_cluster(rng, f"com.app{seed}.ui", n, BENIGN_SERVICES, size,
                                 f"com.app{seed}.action")
        methods = _methods_for(rng, cluster)
        pkg = AppPackage(app_name, tuple(cluster.comps), methods)
        validate_package(pkg)
        syscalls = [("socket", f"cdn{rng.randrange(40)}.contentnet.org:443")]
        trace = _assemble_trace(rng, app_name, [cluster], syscalls)
        graphs = decouple(runtime_graph(pkg, trace))
        worst = Fraction(0)
        for g in graphs:
            for base in base_graphs:
                if upper_bound_value(g, base) <= worst:
                    continue
                # The bound is the exact score when the search reaches the
                # floor, lies below the floor when not, and errs high when the
                # search runs out of budget.
                worst = max(worst, similarity(g, base, worst).bound)
        if worst < BENIGN_REJECT_SCORE:
            return pkg, trace, worst, rejections
        rejections += 1
        log.info("benign seed %d attempt %d rejected at score %.3f", seed, attempt, float(worst))
    raise RuntimeError(f"benign generator could not escape family bases (seed {seed})")


@dataclass
class ModeCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def rates(self) -> dict[str, float]:
        pos, neg = self.tp + self.fn, self.tn + self.fp
        total = pos + neg
        return {
            "tpr": self.tp / pos if pos else 0.0,
            "fnr": self.fn / pos if pos else 0.0,
            "tnr": self.tn / neg if neg else 0.0,
            "fpr": self.fp / neg if neg else 0.0,
            "acc": (self.tp + self.tn) / total if total else 0.0,
        }


@dataclass
class EvalReport:
    counts: dict[str, ModeCounts]
    per_transform: dict[str, dict[int, list[int]]]  # mode -> op id -> [detected, total]
    benign_rejections: int
    benign_scores: list[float]
    pruning_checked: int
    pruning_disagreements: int
    params: dict

    def to_json_obj(self) -> dict:
        return {
            "params": self.params,
            "modes": {
                mode: {
                    "tp": c.tp, "fp": c.fp, "tn": c.tn, "fn": c.fn, **c.rates(),
                }
                for mode, c in self.counts.items()
            },
            "per_transform": {
                mode: {
                    str(op_id): {
                        "name": TRANSFORM_NAMES[op_id],
                        "detected": det,
                        "total": tot,
                    }
                    for op_id, (det, tot) in sorted(table.items())
                }
                for mode, table in self.per_transform.items()
            },
            "benign_rejections": self.benign_rejections,
            "benign_score_max": max(self.benign_scores) if self.benign_scores else 0.0,
            "pruning": {
                "checked": self.pruning_checked,
                "disagreements": self.pruning_disagreements,
            },
        }

    def format_table(self) -> str:
        lines = ["mode        TP    FP    TN    FN    TPR    FNR    TNR    FPR    ACC"]
        for mode, c in self.counts.items():
            r = c.rates()
            lines.append(
                f"{mode:<10} {c.tp:>4} {c.fp:>5} {c.tn:>5} {c.fn:>5}"
                f" {r['tpr']:>6.3f} {r['fnr']:>6.3f} {r['tnr']:>6.3f} {r['fpr']:>6.3f}"
                f" {r['acc']:>6.3f}"
            )
        lines.append(
            f"benign rejections: {self.benign_rejections}, max benign score: "
            f"{max(self.benign_scores, default=0.0):.3f}, pruning disagreements: "
            f"{self.pruning_disagreements}/{self.pruning_checked}"
        )
        if "rbg_only" in self.per_transform:
            lines.append("")
            lines.append("id  transformation                      detected/total (rbg_only)")
            for op_id, (det, tot) in sorted(self.per_transform["rbg_only"].items()):
                lines.append(f"{op_id:>2}  {TRANSFORM_NAMES[op_id]:<35} {det}/{tot}")
        return "\n".join(lines)


def run_eval(families: int, variants_per_family: int = 12, benign_count: int = 50,
             threshold=DEFAULT_THRESHOLD, master_seed: int = 7, alpha: int = DEFAULT_ALPHA,
             verify_pruning: bool = False) -> EvalReport:
    """Build a store from generated family bases, then measure detection.

    Positives are transformed variants of each family (operators cycle
    through 1..12); negatives are independently generated benign apps.
    ``verify_pruning`` re-runs every match without the index window and
    records any verdict that pruning would have changed.
    """
    th = exact_threshold(threshold)
    store = empty_store()
    templates = []
    for i in range(families):
        t = generate_family(master_seed * 100_000 + i)
        templates.append(t)
        store = insert_signature(store, family_signature(t, f"fam{i:04d}"))
        endpoints, executables = family_blacklist(t)
        store = merge_blacklist(store, endpoints, executables)
    base_graphs = [store.graph(ref) for ref in store.range_candidates(0, 10**9)]

    counts = {mode: ModeCounts() for mode in MODES}
    per_transform: dict[str, dict[int, list[int]]] = {mode: {} for mode in MODES}
    pruning_checked = 0
    pruning_disagreements = 0

    def evaluate(pkg, trace, positive: bool, op_id: int | None):
        nonlocal pruning_checked, pruning_disagreements
        sig = signature_of(pkg, trace)
        verdict = decide(sig, store, th, "combined", alpha)
        if verify_pruning:
            pruning_checked += 1
            full = match_rbg(decouple(sig.rbg), store, th, alpha=10**9)
            if (full and full[0]) != verdict.family:
                pruning_disagreements += 1
        flagged = {
            "sss_only": verdict.matched_blacklist is not None,
            "rbg_only": verdict.family is not None,
            "combined": verdict.decision == "malicious",
        }
        for mode in MODES:
            detected = flagged[mode]
            c = counts[mode]
            if positive:
                c.tp += 1 if detected else 0
                c.fn += 0 if detected else 1
                if op_id is not None:
                    cell = per_transform[mode].setdefault(op_id, [0, 0])
                    cell[0] += 1 if detected else 0
                    cell[1] += 1
            else:
                c.fp += 1 if detected else 0
                c.tn += 0 if detected else 1

    for fam_idx, template in enumerate(templates):
        for v in range(variants_per_family):
            op = TransformOp(1 + v % 12)
            pkg, trace = apply_transform(template, op, seed=master_seed + v)
            evaluate(pkg, trace, positive=True, op_id=op.op_id)

    benign_scores: list[float] = []
    rejections = 0
    for b in range(benign_count):
        pkg, trace, worst, rej = generate_benign(master_seed * 1_000_000 + b, SizeParams(), base_graphs)
        rejections += rej
        benign_scores.append(float(worst))
        evaluate(pkg, trace, positive=False, op_id=None)

    return EvalReport(
        counts=counts,
        per_transform=per_transform,
        benign_rejections=rejections,
        benign_scores=benign_scores,
        pruning_checked=pruning_checked,
        pruning_disagreements=pruning_disagreements,
        params={
            "families": families,
            "variants_per_family": variants_per_family,
            "benign_count": benign_count,
            "threshold": float(th),
            "alpha": alpha,
            "master_seed": master_seed,
        },
    )
