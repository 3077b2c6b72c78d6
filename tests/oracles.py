"""Independent oracles and random-input generators used across the suite.

Everything here deliberately avoids the library's solver code paths: the
reaching-definitions oracle re-derives GEN/KILL and iterates chaotically, the
eager intent resolver replays each block forward from that oracle's fixpoint,
the witness check searches CFG paths for a redefinition, the per-form
instruction parser tries the grammar's forms one at a time, the window screen
reference ANDs and counts one candidate's mask at a time, the decoupling reference rescans the edges once per cluster, and the
similarity oracle enumerates every injective compatible mapping outright.
"""

from __future__ import annotations

import copy
import random
from collections import Counter
from fractions import Fraction

from monet.app_model import (
    _COMPILED_FORMS,
    START_OPS,
    ComponentDecl,
    Instruction,
    MethodIR,
    PackageSyntaxError,
    assign_class,
    assign_string,
    assign_this,
    make_method,
    new_intent_action,
    new_intent_explicit,
    nop,
    opaque,
)
from monet.behavior_graph import AppComponent, BehaviorGraph, IntentAction, SystemComponent
from monet.dataflow import ENTRY, EXIT, INTENT_CHAINS, Cfg, DefId, IntentCall
from monet.matcher import MASK_WIDTH, _label_bits, exact_threshold

KINDS = ("activity", "service", "receiver", "provider")


# ---------------------------------------------------------------------------
# chaotic-iteration reaching definitions
# ---------------------------------------------------------------------------


def chaotic_reaching_definitions(cfg: Cfg, rng: random.Random):
    """Iterate blocks in random order until a full sweep changes nothing."""
    defs_of: dict[str, set] = {}
    for bid, instrs in cfg.blocks.items():
        for idx, instr in enumerate(instrs):
            for var in instr.defs:
                defs_of.setdefault(var, set()).add(DefId(bid, idx, var))

    gen: dict[str, frozenset] = {}
    kill: dict[str, frozenset] = {}
    for bid in (*cfg.blocks, ENTRY, "EXIT"):
        last: dict[str, DefId] = {}
        killed: set = set()
        for idx, instr in enumerate(cfg.blocks.get(bid, ())):
            for var in instr.defs:
                killed |= defs_of[var]
                last[var] = DefId(bid, idx, var)
        gen[bid] = frozenset(last.values())
        kill[bid] = frozenset(killed - set(last.values()))

    blocks = [b for b in (*cfg.blocks, "EXIT")]
    in_: dict[str, frozenset] = {b: frozenset() for b in (*blocks, ENTRY)}
    out: dict[str, frozenset] = {b: frozenset() for b in (*blocks, ENTRY)}
    while True:
        changed = False
        order = list(blocks)
        rng.shuffle(order)
        for bid in order:
            new_in = frozenset().union(*(out[p] for p in cfg.pred[bid])) if cfg.pred[bid] else frozenset()
            new_out = gen[bid] | (new_in - kill[bid])
            if new_in != in_[bid] or new_out != out[bid]:
                changed = True
            in_[bid], out[bid] = new_in, new_out
        if not changed:
            return in_, out


# ---------------------------------------------------------------------------
# eager intent resolution and witness checks
# ---------------------------------------------------------------------------


def eager_intent_calls(component: ComponentDecl, cfg: Cfg) -> list[IntentCall]:
    """Every start-call resolved against a fixpoint solved before any query.

    The definitions of a variable reaching a point are IN of its block, from
    :func:`chaotic_reaching_definitions`, replayed forward over the
    instructions before it.  A call resolves when each link of its
    ``INTENT_CHAINS`` chain has exactly one definition, by the listed op.
    """
    in_, _ = chaotic_reaching_definitions(cfg, random.Random(0))

    def single(var: str, block: str, index: int):
        live = {d for d in in_[block] if d.var == var}
        for idx, instr in enumerate(cfg.blocks[block][:index]):
            if var in instr.defs:
                live = {DefId(block, idx, var)}
        if len(live) != 1:
            return None
        (d,) = live
        return d, cfg.blocks[d.block][d.index]

    calls = []
    for bid, instrs in cfg.blocks.items():
        for idx, start in enumerate(instrs):
            if start.op not in START_OPS:
                continue
            call = IntentCall(component.name, start.op, "unresolved", None, (bid, idx))
            found = single(start.uses[0], bid, idx)
            if found is not None and found[1].op in INTENT_CHAINS:
                intent_def, ctor = found
                kind, operand_ops = INTENT_CHAINS[ctor.op]
                operands = [single(var, intent_def.block, intent_def.index) for var in ctor.uses]
                if all(o is not None and o[1].op == op for o, op in zip(operands, operand_ops)):
                    witness = (intent_def, *(d for d, _ in operands))
                    call = IntentCall(component.name, start.op, kind, operands[-1][1].arg, (bid, idx),
                                      witness)
            calls.append(call)
    return calls


def definition_reaches(cfg: Cfg, def_id: DefId, block: str, index: int) -> bool:
    """Check by explicit path search that ``def_id`` reaches (block, index).

    Independent of the IN/OUT fixpoint: walks CFG paths and fails if every
    path redefines the variable first.  Used to re-validate witness chains.
    """
    var = def_id.var

    def redefined(bid: str, lo: int, hi: int) -> bool:
        return any(var in instr.defs for instr in cfg.blocks[bid][lo:hi])

    if def_id.block == block and def_id.index < index:
        if not redefined(block, def_id.index + 1, index):
            return True
    # Otherwise the definition must survive to its block's exit, flow along
    # edges through blocks that never redefine var, and reach block's entry.
    if redefined(def_id.block, def_id.index + 1, len(cfg.blocks[def_id.block])):
        return False
    seen: set[str] = set()
    stack = list(cfg.succ.get(def_id.block, ()))
    while stack:
        bid = stack.pop()
        if bid in seen or bid == EXIT:
            continue
        seen.add(bid)
        if bid == block:
            if not redefined(block, 0, index):
                return True
            continue
        if not redefined(bid, 0, len(cfg.blocks[bid])):
            stack.extend(cfg.succ.get(bid, ()))
    return False


def witness_supports(cfg: Cfg, call: IntentCall) -> bool:
    """Re-validate a resolved call's witness chain by independent path search."""
    if call.target_kind == "unresolved":
        return not call.witness
    if not call.witness:
        return False
    intent_def = call.witness[0]
    if not definition_reaches(cfg, intent_def, call.site[0], call.site[1]):
        return False
    for operand_def in call.witness[1:]:
        if not definition_reaches(cfg, operand_def, intent_def.block, intent_def.index):
            return False
    return True


# ---------------------------------------------------------------------------
# instruction parsing, one form at a time
# ---------------------------------------------------------------------------


def parse_instruction_per_form(text: str, lineno: int, col: int) -> Instruction:
    """The first form of the grammar whose own pattern matches ``text`` whole."""
    for form in _COMPILED_FORMS:
        m = form.pattern.match(text)
        if m:
            values = m.groups()
            arg = values[-1] if form.payload else None
            if form.payload == "s":
                arg = arg.replace('\\"', '"').replace("\\\\", "\\")
            uses = values[form.n_defs : form.n_defs + form.n_uses]
            return Instruction(form.op, arg, values[: form.n_defs], uses)
    raise PackageSyntaxError(lineno, col, "instruction")


def random_method(rng: random.Random, max_blocks: int = 20, n_vars: int = 6) -> MethodIR:
    n = rng.randint(1, max_blocks)
    bids = [f"b{i}" for i in range(n)]
    blocks = []
    for bid in bids:
        instrs = []
        for _ in range(rng.randint(0, 4)):
            v = f"v{rng.randrange(n_vars)}"
            roll = rng.random()
            if roll < 0.3:
                instrs.append(assign_string(v, f"s{rng.randrange(4)}"))
            elif roll < 0.55:
                instrs.append(assign_this(v))
            elif roll < 0.8:
                instrs.append(opaque(f"o{rng.randrange(3)}", v))
            else:
                instrs.append(nop())
        blocks.append((bid, instrs))
    edges = []
    for bid in bids:
        for _ in range(rng.randint(0, 2)):
            edges.append((bid, rng.choice(bids)))
    return make_method("m", blocks, edges)


def random_chain_method(rng: random.Random) -> MethodIR:
    """Methods with intent chains, some hidden behind opaque definitions."""
    instrs: list[Instruction] = []
    for c in range(rng.randint(1, 3)):
        v1, v2, iv = f"a{c}", f"b{c}", f"i{c}"
        if rng.random() < 0.5:
            head = [assign_this(v1), assign_class(v2, f"com.t.K{c}")]
            if rng.random() < 0.3:
                head[1] = opaque("enc", v2)
            instrs += [*head, new_intent_explicit(iv, v1, v2),
                       Instruction(rng.choice(("start_activity", "start_service")), uses=(iv,))]
        else:
            sv = f"s{c}"
            first = assign_string(sv, f"com.t.action.A{c}") if rng.random() < 0.7 else opaque("enc", sv)
            instrs += [first, new_intent_action(iv, sv),
                       Instruction("start_activity", uses=(iv,))]
    if rng.random() < 0.5 and len(instrs) > 3:
        cut = rng.randint(1, len(instrs) - 1)
        return make_method("m", [("b0", instrs[:cut]), ("b1", instrs[cut:])], [("b0", "b1")])
    return make_method("m", [("b0", instrs)], [])


# ---------------------------------------------------------------------------
# per-candidate window screen
# ---------------------------------------------------------------------------


def label_mask(g: BehaviorGraph) -> int:
    """The int with ``_label_bits(g)`` set.  It is built in a byte buffer, so
    the cost stays linear in the labels however they fall."""
    buf = bytearray((len(g.nodes) + len(g.edges)) * MASK_WIDTH // 8 + 1)
    for bit in _label_bits(g):
        buf[bit >> 3] |= 1 << (bit & 7)
    return int.from_bytes(buf, "little")


def screen_reference(store, g: BehaviorGraph, threshold, alpha: int) -> list:
    """The window screen one candidate at a time: (ref, shared) for each ref in
    g's window, in window order, where ``shared`` is the bit count of the AND
    of the two label masks and ``2 * shared / total`` reaches the threshold."""
    th = exact_threshold(threshold)
    mask, size = label_mask(g), len(g.nodes) + len(g.edges)
    out = []
    for ref in store.range_candidates(g.app_count, alpha):
        shared = (label_mask(store.graph(ref)) & mask).bit_count()
        if 2 * th.denominator * shared >= th.numerator * (ref.size + size):
            out.append((ref, shared))
    return out


# ---------------------------------------------------------------------------
# brute-force similarity
# ---------------------------------------------------------------------------


def brute_force_best(g1: BehaviorGraph, g2: BehaviorGraph) -> tuple[int, int, Fraction]:
    """Max (Mv, Me) over all injective compatible mappings, by enumeration."""
    apps1 = sorted(n for n in g1.nodes if n.startswith("app:"))
    apps2 = sorted(n for n in g2.nodes if n.startswith("app:"))
    kind1 = {n: g1.nodes[n].kind for n in apps1}
    kind2 = {n: g2.nodes[n].kind for n in apps2}
    sys_common = {n for n in g1.nodes if not n.startswith("app:")} & {
        n for n in g2.nodes if not n.startswith("app:")
    }
    edges2 = set(g2.edges)

    best = (-1, 0, 0)  # (mv + me, mv, me)

    def leaf(mapping: dict[str, str]) -> None:
        nonlocal best
        me = 0
        for (s, d, c) in g1.edges:
            ms, md = mapping.get(s), mapping.get(d)
            if ms is not None and md is not None and (ms, md, c) in edges2:
                me += 1
        mv = len(mapping)
        if mv + me > best[0]:
            best = (mv + me, mv, me)

    def rec(i: int, mapping: dict[str, str], used: set[str]) -> None:
        if i == len(apps1):
            leaf(mapping)
            return
        x = apps1[i]
        rec(i + 1, mapping, used)
        for y in apps2:
            if y not in used and kind1[x] == kind2[y]:
                mapping[x] = y
                used.add(y)
                rec(i + 1, mapping, used)
                used.discard(y)
                del mapping[x]

    rec(0, {n: n for n in sys_common}, set())
    _, mv, me = best
    total = len(g1.nodes) + len(g2.nodes) + len(g1.edges) + len(g2.edges)
    value = Fraction(2 * (mv + me), total) if total else Fraction(1)
    return mv, me, value


def count_bound_reference(g1: BehaviorGraph, g2: BehaviorGraph) -> Fraction:
    """The label-count bound from per-label counters: shared system/action
    ids, plus per app kind the smaller of the two counts, plus per typed edge
    (source type, destination type, code) the smaller of the two counts.  A
    system or action endpoint's type is its id, an app endpoint's its kind."""
    total = len(g1.nodes) + len(g2.nodes) + len(g1.edges) + len(g2.edges)
    if total == 0:
        return Fraction(1)
    sys1 = {n for n in g1.nodes if not n.startswith("app:")}
    sys2 = {n for n in g2.nodes if not n.startswith("app:")}
    kinds1, kinds2 = (Counter(n.kind for nid, n in g.nodes.items() if nid.startswith("app:"))
                      for g in (g1, g2))

    def endpoint_type(g, nid):
        return g.nodes[nid].kind if nid.startswith("app:") else nid

    typed1, typed2 = (Counter((endpoint_type(g, s), endpoint_type(g, d), code) for s, d, code in g.edges)
                      for g in (g1, g2))
    mv = len(sys1 & sys2) + sum(min(n, kinds2[k]) for k, n in kinds1.items())
    me = sum(min(n, typed2[t]) for t, n in typed1.items())
    return Fraction(2 * (mv + me), total)


# ---------------------------------------------------------------------------
# random graphs
# ---------------------------------------------------------------------------

_SYS_POOL = ["PackageManager", "PhoneSubInfo", "ISms", "WindowManager", "JobScheduler"]
_ACT_POOL = ["com.t.action.ONE", "com.t.action.TWO", "com.t.action.THREE"]


def random_cluster_graph(rng: random.Random, max_app: int = 6, max_total: int = 8) -> BehaviorGraph:
    """A single-app-cluster runtime graph within the given size bounds."""
    n_app = rng.randint(1, min(max_app, max_total))
    apps = [
        AppComponent(f"com.t.C{i}", rng.choice((*KINDS, None))) for i in range(n_app)
    ]
    nodes: list = list(apps)
    edges: list[tuple] = []
    for i in range(1, n_app):
        src = apps[rng.randrange(i)]
        edges.append((src, apps[i], rng.randint(1, 5)))
    budget = rng.randint(0, max_total - n_app)
    side = rng.sample(_SYS_POOL, min(budget, len(_SYS_POOL)))
    for desc in side:
        node = SystemComponent(desc)
        nodes.append(node)
        edges.append((rng.choice(apps), node, rng.randint(1, 5)))
    if budget > len(side) and rng.random() < 0.7:
        node = IntentAction(rng.choice(_ACT_POOL))
        nodes.append(node)
        edges.append((rng.choice(apps), node, 3))
    for _ in range(rng.randint(0, 3)):
        src = rng.choice(apps)
        dst = rng.choice(nodes)
        edges.append((src, dst, rng.randint(1, 5)))
    return BehaviorGraph.of("runtime", nodes, edges)


def perturb_graph(rng: random.Random, g: BehaviorGraph) -> BehaviorGraph:
    """A variant of g: renames, kind flips, edge retargets; stays one cluster."""
    for _ in range(30):
        nodes = {nid: n for nid, n in g.nodes.items()}
        edges = dict(g.edges)
        for _ in range(rng.randint(1, 3)):
            kind_roll = rng.random()
            app_ids = [n for n in nodes if n.startswith("app:")]
            if kind_roll < 0.4 and app_ids:  # rename an app component
                nid = rng.choice(app_ids)
                node = nodes.pop(nid)
                renamed = AppComponent(node.name + "X", node.kind)
                nodes["app:" + renamed.name] = renamed
                edges = {
                    (
                        "app:" + renamed.name if s == nid else s,
                        "app:" + renamed.name if d == nid else d,
                        c,
                    ): v
                    for (s, d, c), v in edges.items()
                }
            elif kind_roll < 0.6 and app_ids:  # flip a kind
                nid = rng.choice(app_ids)
                node = nodes[nid]
                nodes[nid] = AppComponent(node.name, rng.choice((*KINDS, None)))
            elif kind_roll < 0.8 and edges:  # change a code
                key = rng.choice(sorted(edges))
                content = edges.pop(key)
                edges[(key[0], key[1], rng.randint(1, 6))] = content
            elif edges:  # drop an edge
                key = rng.choice(sorted(edges))
                edges.pop(key)
        used = {e for key in edges for e in key[:2]}
        nodes = {
            nid: n
            for nid, n in nodes.items()
            if nid.startswith("app:") or nid in used
        }
        try:
            candidate = BehaviorGraph("runtime", nodes, edges)
        except Exception:
            continue
        if _app_clusters(candidate) <= 1:
            return candidate
    return g


def _app_clusters(g: BehaviorGraph) -> int:
    return len(_cluster_members(g))


def _cluster_members(g: BehaviorGraph) -> list[list[str]]:
    """The app node ids of each weakly connected app cluster, system-side
    nodes removed, each cluster in node order."""
    apps = [n for n in g.nodes if n.startswith("app:")]
    parent = {n: n for n in apps}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, d, _ in g.edges:
        if s in parent and d in parent:
            parent[find(s)] = find(d)
    clusters: dict[str, list[str]] = {}
    for n in apps:
        clusters.setdefault(find(n), []).append(n)
    return list(clusters.values())


def decouple_reference(rbg: BehaviorGraph) -> list[BehaviorGraph]:
    """Decoupling one cluster at a time: each cluster scans every edge of
    ``rbg`` for those leaving one of its members, so the cost is clusters x
    edges.  Same output and order as ``decouple``."""
    out = []
    for members in _cluster_members(rbg):
        member_set = set(members)
        nodes = {nid: rbg.nodes[nid] for nid in members}
        edges = {}
        for (src, dst, code), content in rbg.edges.items():
            if src in member_set:
                if not dst.startswith("app:"):
                    nodes.setdefault(dst, rbg.nodes[dst])
                edges[(src, dst, code)] = content
        out.append(BehaviorGraph("runtime", nodes, edges))
    out.sort(key=lambda g: (-g.app_count, min(n.name for n in g.app_components())))
    return out


def random_multi_cluster_rbg(rng: random.Random) -> BehaviorGraph:
    """A repackaged-style graph: several app clusters sharing system nodes."""
    k = rng.randint(1, 4)
    nodes: list = []
    edges: list[tuple] = []
    shared = [SystemComponent(d) for d in rng.sample(_SYS_POOL, rng.randint(0, 4))]
    actions = [IntentAction(a) for a in rng.sample(_ACT_POOL, rng.randint(0, 2))]
    for c in range(k):
        n_app = rng.randint(1, 5)
        apps = [
            AppComponent(f"com.cl{c}.C{i}", rng.choice(KINDS)) for i in range(n_app)
        ]
        nodes.extend(apps)
        for i in range(1, n_app):
            edges.append((apps[rng.randrange(i)], apps[i], rng.randint(1, 5)))
        for node in (*shared, *actions):
            if rng.random() < 0.5:
                edges.append((rng.choice(apps), node, rng.randint(1, 5)))
    used = {dst for _, dst, _ in edges}
    side_nodes = [n for n in (*shared, *actions) if n in used]
    return BehaviorGraph.of("runtime", nodes + side_nodes, edges)


# ---------------------------------------------------------------------------
# JSON mutants
# ---------------------------------------------------------------------------

_JUNK = (None, True, False, 0, 1, -1, 2**70, 1.5, "", "app", "system", "action",
         "app:com.t.C0", "sys:ISms", [], [None], {}, {"id": 1})


def mutate_json(obj, rng: random.Random):
    """A copy of a JSON tree with one to three edits anywhere in it: a value
    replaced by junk or by another value of the tree, dropped, duplicated, or
    a key added."""
    obj = copy.deepcopy(obj)
    for _ in range(rng.randint(1, 3)):
        slots = []  # (container, key) of every value below the root
        stack = [obj]
        while stack:
            node = stack.pop()
            if isinstance(node, (dict, list)):
                for key in (list(node) if isinstance(node, dict) else range(len(node))):
                    slots.append((node, key))
                    stack.append(node[key])
        if not slots or rng.random() < 0.01:
            return copy.deepcopy(rng.choice(_JUNK))
        node, key = rng.choice(slots)
        roll = rng.random()
        if roll < 0.35:
            node[key] = copy.deepcopy(rng.choice(_JUNK))
        elif roll < 0.6:
            other, other_key = rng.choice(slots)
            node[key] = copy.deepcopy(other[other_key])
        elif roll < 0.75:
            del node[key]
        elif roll < 0.9 and isinstance(node, list):
            node.insert(key, copy.deepcopy(node[key]))
        elif isinstance(node, dict):
            new_key = rng.choice(("id", "label", "kind", "content", "type", "extra"))
            node[new_key] = copy.deepcopy(rng.choice(_JUNK))
    return obj
