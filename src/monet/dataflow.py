"""Per-method control-flow graphs and reaching-definition analysis.

The analysis is strictly intra-method: definitions are (block, index, var)
triples.  Every question is one query for one variable, "which definitions of
``var`` reach the entry of ``block``?", answered on demand:

    OUT[B] = the last definition of var in B, if B defines var, else IN[B]
    IN[B]  = union of OUT[p] over predecessors p

A query walks predecessors backwards, stopping at blocks that define ``var``
and at blocks an earlier query solved, then sweeps the blocks it found,
farthest first, until nothing changes.  Each (variable, block) OUT is solved
once and kept in :attr:`Cfg.solved`; a ``Cfg`` is built per method per request
and no thread shares it, so nothing outlives a request.  Worst case, a
method's queries walk each block and edge once per variable asked about, and
sweep what they walk twice, plus once per level of loop nesting on a reducible
graph (Kam & Ullman's bound for a depth-first order).

Intent calls are resolved by one use-def query per link of the chains in
:data:`INTENT_CHAINS`, after a backward scan of the query's own block.
``reaching_definitions`` builds the debug dump's whole table from the same
queries; its IN sets alone can hold Theta(n^2) definitions, so it stays off
the request path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .app_model import ComponentDecl, Instruction, MethodIR, START_OPS

ENTRY = "ENTRY"
EXIT = "EXIT"


@dataclass(frozen=True, order=True)
class DefId:
    """Identity of one definition: which instruction writes which variable."""

    block: str
    index: int
    var: str

    def __str__(self) -> str:
        return f"{self.block}:{self.index}:{self.var}"


@dataclass(frozen=True)
class Cfg:
    """Control-flow graph over the reachable blocks of one method.

    ``succ``/``pred`` include the synthetic ENTRY and EXIT nodes; blocks with
    no declared successor fall through to EXIT.  Unreachable blocks are
    dropped and reported in ``pruned``.  ``solved`` holds OUT per
    (variable, block) as the method's queries solve it.
    """

    method: str
    blocks: dict[str, tuple[Instruction, ...]]
    succ: dict[str, tuple[str, ...]]
    pred: dict[str, tuple[str, ...]]
    entry_block: str
    pruned: tuple[str, ...]
    solved: dict[tuple[str, str], frozenset[DefId]] = field(default_factory=dict, compare=False, repr=False)


def build_cfg(method: MethodIR) -> Cfg:
    """Build the CFG for ``method``, pruning blocks unreachable from the entry."""
    adj: dict[str, dict[str, None]] = {bid: {} for bid, _ in method.blocks}  # ordered successor sets
    for src, dst in method.edges:
        adj[src][dst] = None

    reachable: set[str] = set()
    stack = [method.entry]
    while stack:
        bid = stack.pop()
        if bid in reachable:
            continue
        reachable.add(bid)
        stack.extend(adj[bid])

    blocks = {bid: instrs for bid, instrs in method.blocks if bid in reachable}
    pruned = tuple(bid for bid, _ in method.blocks if bid not in reachable)

    succ: dict[str, tuple[str, ...]] = {ENTRY: (method.entry,)}
    for bid in blocks:
        succs = tuple(sorted(adj[bid]))
        succ[bid] = succs if succs else (EXIT,)
    succ[EXIT] = ()

    pred: dict[str, list[str]] = {bid: [] for bid in (*blocks, ENTRY, EXIT)}
    for src, dsts in succ.items():
        for dst in dsts:
            pred[dst].append(src)
    pred_t = {k: tuple(sorted(v)) for k, v in pred.items()}
    return Cfg(method.name, blocks, succ, pred_t, method.entry, pruned)


@dataclass(frozen=True)
class DefSets:
    """GEN/KILL/IN/OUT per block (including ENTRY and EXIT) at fixpoint."""

    gen: dict[str, frozenset[DefId]]
    kill: dict[str, frozenset[DefId]]
    in_: dict[str, frozenset[DefId]]
    out: dict[str, frozenset[DefId]]


def _gen_kill(cfg: Cfg) -> tuple[dict[str, frozenset[DefId]], dict[str, frozenset[DefId]]]:
    defs_of_var: dict[str, set[DefId]] = {}
    for bid, instrs in cfg.blocks.items():
        for idx, instr in enumerate(instrs):
            for var in instr.defs:
                defs_of_var.setdefault(var, set()).add(DefId(bid, idx, var))

    gen: dict[str, frozenset[DefId]] = {ENTRY: frozenset(), EXIT: frozenset()}
    kill: dict[str, frozenset[DefId]] = {ENTRY: frozenset(), EXIT: frozenset()}
    for bid, instrs in cfg.blocks.items():
        live: dict[str, DefId] = {}
        for idx, instr in enumerate(instrs):
            for var in instr.defs:
                live[var] = DefId(bid, idx, var)
        gen[bid] = frozenset(live.values())
        kill[bid] = frozenset().union(*(defs_of_var[var] for var in live)) - gen[bid]
    return gen, kill


def _reaching(cfg: Cfg, var: str, block: str) -> frozenset[DefId]:
    """Definitions of ``var`` reaching ``block``'s entry, solving OUT on demand."""
    solved = cfg.solved
    outs: dict[str, frozenset[DefId]] = {}  # OUT of each block this walk is first to reach
    post: list[str] = []  # the transparent ones, each after its predecessors
    stack = [(block, iter(cfg.pred[block]))]
    while stack:
        bid, preds = stack[-1]
        p = next(preds, None)
        if p is None:
            stack.pop()
            if stack:
                post.append(bid)
        elif p not in outs and (var, p) not in solved:
            instrs = cfg.blocks.get(p, ())  # ENTRY: no instructions, no predecessors, OUT empty
            last = next((i for i in range(len(instrs) - 1, -1, -1) if var in instrs[i].defs), None)
            if last is None:
                outs[p] = frozenset()
                stack.append((p, iter(cfg.pred[p])))
            else:
                outs[p] = frozenset({DefId(p, last, var)})

    def out(p: str) -> frozenset[DefId]:
        return outs[p] if p in outs else solved[var, p]

    changed = True
    while changed:
        changed = False
        for bid in post:
            new = frozenset().union(*map(out, cfg.pred[bid]))
            if new != outs[bid]:
                outs[bid] = new
                changed = True
    for bid, defs in outs.items():
        solved[var, bid] = defs
    return frozenset().union(*map(out, cfg.pred[block]))


def reaching_definitions(cfg: Cfg) -> DefSets:
    """The whole GEN/KILL/IN/OUT table, IN from one query per defined variable."""
    gen, kill = _gen_kill(cfg)
    variables = {d.var for defs in gen.values() for d in defs}
    nodes = (ENTRY, *cfg.blocks, EXIT)
    in_ = {b: frozenset().union(*(_reaching(cfg, var, b) for var in variables)) for b in nodes}
    out = {b: gen[b] | (in_[b] - kill[b]) for b in nodes}
    return DefSets(gen=gen, kill=kill, in_=in_, out=out)


def defs_at(cfg: Cfg, block: str, index: int, var: str) -> frozenset[DefId]:
    """Definitions of ``var`` reaching (block, index): the nearest earlier one in the block, else its entry's."""
    instrs = cfg.blocks[block]
    for idx in range(index - 1, -1, -1):
        if var in instrs[idx].defs:
            return frozenset({DefId(block, idx, var)})
    return _reaching(cfg, var, block)


@dataclass(frozen=True)
class IntentCall:
    """A statically resolved (or unresolvable) intent call site."""

    caller_component: str
    call_kind: str  # start_activity | start_service | send_broadcast
    target_kind: str  # explicit | implicit | unresolved
    target: str | None
    site: tuple[str, int]
    witness: tuple[DefId, ...] = ()


# Intent constructor op -> (target kind, the op that must define each operand).
# The target is the payload of the last operand's definition.
INTENT_CHAINS: dict[str, tuple[str, tuple[str, ...]]] = {
    "new_intent_explicit": ("explicit", ("assign_this", "assign_class")),
    "new_intent_action": ("implicit", ("assign_string",)),
}


def _single_def(cfg: Cfg, var: str, block: str, index: int) -> tuple[DefId, Instruction] | None:
    reaching = defs_at(cfg, block, index, var)
    if len(reaching) != 1:
        return None
    (d,) = reaching
    return d, cfg.blocks[d.block][d.index]


def _resolve(component: str, cfg: Cfg, start: Instruction, block: str, index: int) -> IntentCall:
    """The start-call at (block, index), resolved if every link of its chain has one definition."""
    unresolved = IntentCall(component, start.op, "unresolved", None, (block, index))
    found = _single_def(cfg, start.uses[0], block, index)
    if found is None or found[1].op not in INTENT_CHAINS:
        return unresolved
    intent_def, ctor = found
    kind, operand_ops = INTENT_CHAINS[ctor.op]
    witness = [intent_def]
    for var, op in zip(ctor.uses, operand_ops):
        found = _single_def(cfg, var, intent_def.block, intent_def.index)
        if found is None or found[1].op != op:
            return unresolved
        witness.append(found[0])
    return IntentCall(component, start.op, kind, found[1].arg, (block, index), tuple(witness))


def extract_intent_calls(component: ComponentDecl, cfg: Cfg) -> list[IntentCall]:
    """Resolve every start-call site; an opaque or ambiguous link leaves it unresolved."""
    return [_resolve(component.name, cfg, instr, bid, idx) for bid, instrs in cfg.blocks.items()
            for idx, instr in enumerate(instrs) if instr.op in START_OPS]


def cfg_to_json(cfg: Cfg) -> dict:
    """Documented debug shape: entry, per-block successors, pruned blocks."""
    return {
        "method": cfg.method,
        "entry": cfg.entry_block,
        "succ": {bid: list(succs) for bid, succs in sorted(cfg.succ.items())},
        "pruned": sorted(cfg.pruned),
    }


def defsets_to_json(sets: DefSets) -> dict:
    def enc(m: dict[str, frozenset[DefId]]) -> dict:
        return {bid: sorted(str(d) for d in ids) for bid, ids in sorted(m.items())}

    return {"gen": enc(sets.gen), "kill": enc(sets.kill), "in": enc(sets.in_), "out": enc(sets.out)}
