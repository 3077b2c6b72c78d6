"""Per-method control-flow graphs and reaching-definition analysis.

The analysis is strictly intra-method: definitions are (block, index, var)
triples, and a block's KILL is every definition of the variables it defines,
one union per variable, minus its GEN.  IN/OUT are solved with a worklist
seeded in reverse post-order.  The fixpoint satisfies

    OUT[B] = GEN[B] | (IN[B] - KILL[B])
    IN[B]  = union of OUT[p] over predecessors p

Worst case the worklist revisits every block once per changed predecessor,
an O(n^2) bound on set-union passes for n blocks; reducible graphs converge
in a couple of sweeps thanks to the reverse post-order seeding.  The IN sets
alone can hold Theta(n^2) definitions: on a chain of n blocks each defining a
new variable, even one sweep takes Theta(n^2) time.

Intent calls are resolved by one use-def query per link of the chains in
:data:`INTENT_CHAINS`: start-call to constructor, constructor to each operand.
Queries are answered on demand: a backward scan of the query's own block
first, and IN only when the scan reaches the block's entry.  The first such
query solves the method's fixpoint (:attr:`Cfg.sets`); most methods never do.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

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
    dropped and reported in ``pruned``.
    """

    method: str
    blocks: dict[str, tuple[Instruction, ...]]
    succ: dict[str, tuple[str, ...]]
    pred: dict[str, tuple[str, ...]]
    entry_block: str
    pruned: tuple[str, ...]

    def reverse_postorder(self) -> list[str]:
        seen = {ENTRY}
        post: list[str] = []
        stack: list[tuple[str, int]] = [(ENTRY, 0)]
        while stack:
            node, i = stack.pop()
            succs = self.succ.get(node, ())
            if i < len(succs):
                stack.append((node, i + 1))
                nxt = succs[i]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, 0))
            else:
                post.append(node)
        return list(reversed(post))

    @cached_property
    def sets(self) -> DefSets:
        """The reaching-definition fixpoint, solved at its first use."""
        return reaching_definitions(self)


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


def reaching_definitions(cfg: Cfg) -> DefSets:
    """Solve reaching definitions to the least fixpoint."""
    gen, kill = _gen_kill(cfg)
    order = cfg.reverse_postorder()
    if EXIT not in order:  # every block sits on a cycle; EXIT still needs sets
        order.append(EXIT)
    in_: dict[str, frozenset[DefId]] = {b: frozenset() for b in order}
    out: dict[str, frozenset[DefId]] = {b: frozenset() for b in order}

    worklist = deque(b for b in order if b != ENTRY)
    queued = set(worklist)
    while worklist:
        bid = worklist.popleft()
        queued.discard(bid)
        new_in = frozenset().union(*(out[p] for p in cfg.pred[bid])) if cfg.pred[bid] else frozenset()
        new_out = gen[bid] | (new_in - kill[bid])
        in_[bid] = new_in
        if new_out != out[bid]:
            out[bid] = new_out
            for succ in cfg.succ.get(bid, ()):
                if succ not in queued:
                    worklist.append(succ)
                    queued.add(succ)
    return DefSets(gen=gen, kill=kill, in_=in_, out=out)


def defs_at(cfg: Cfg, block: str, index: int, var: str) -> frozenset[DefId]:
    """Definitions of ``var`` reaching (block, index): the nearest earlier one in the block, else IN's."""
    instrs = cfg.blocks[block]
    for idx in range(index - 1, -1, -1):
        if var in instrs[idx].defs:
            return frozenset({DefId(block, idx, var)})
    return frozenset(d for d in cfg.sets.in_[block] if d.var == var)


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
