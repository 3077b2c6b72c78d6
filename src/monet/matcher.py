"""Similarity scoring over decoupled behavior graphs and verdict assembly.

The score between two graphs is

    1 - min_ops / (|V1| + |V2| + |E1| + |E2|)

where min_ops counts the node and edge insertions/deletions needed to turn
one graph into the other.  There is no substitution operation, so minimizing
the edit count is the same as maximizing a common subgraph: with Mv matched
vertex pairs and Me matched edge pairs,

    min_ops = (|V1| - Mv) + (|V2| - Mv) + (|E1| - Me) + (|E2| - Me).

Node compatibility: system components match iff descriptors are equal,
intent actions iff actions are equal, and app components iff kinds are equal
(names are ignored, so class renaming cannot defeat matching).  An edge
matches iff both endpoints are matched and the codes are equal.  Because
system-side labels are unique within a graph, system and action nodes are
pre-matched by label; the remaining search maximizes matched edges over
injective app-component mappings.

``match_rbg`` filters the window in two stages, both compared with the
threshold in integers.  The exact stage is the count bound: the shared-token
count of the two graphs' label multisets (system and action ids, app kinds,
edge codes), which no mapping can beat.  Before it, a screen reads a label
mask from each index entry: ``label_mask`` hashes each label into one of
``MASK_WIDTH`` buckets, and the j-th label of a bucket sets bit
``j * MASK_WIDTH + bucket``.  Two masks then share, per bucket, the smaller of
the two bucket counts, which is at least the sum of the per-label minima that
the bucket holds, so ``(m1 & m2).bit_count()`` never falls below the shared
count and the screen drops only candidates that the exact bound drops too.
Only candidates that pass both are sorted and searched.  The masks depend on
the process's string hashes; the verdicts do not.

The search is one branch and bound.  A caller that needs only some score
passes it as ``floor``, and subtrees whose bound cannot reach it are pruned,
so unrelated pairs are rejected without finding their maximum.  A search
stops after ``SEARCH_BUDGET`` node expansions, and a result cut short says so
(``exact=False``) and carries a proven upper ``bound``.

Scores are exact rationals so that threshold comparisons and the published
worked example hold with zero tolerance.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .behavior_graph import BehaviorGraph, app_clusters, decouple
from .trace import Sss

# Node expansions one similarity search may make before it returns its best
# mapping so far with a proven bound.  No search in the tests or benchmark
# workloads needs more than a few hundred, nor benign generation against
# 9-11-component families more than about 3000.
SEARCH_BUDGET = 100_000

MODES = ("sss_only", "rbg_only", "combined")

# The paper's operating point: a match needs similarity 0.8 or more, and only
# stored graphs within 5 app components of the suspect are candidates.
DEFAULT_THRESHOLD = Fraction(4, 5)
DEFAULT_ALPHA = 5

# Buckets of a label mask.  A fixed width keeps a mask's size a function of its
# own graph's labels, not of how many distinct labels the store holds.
MASK_WIDTH = 256


class NotDecoupled(Exception):
    """A graph offered for matching still contains several app clusters."""


@dataclass(frozen=True)
class SimilarityScore:
    """The best mapping found and a proven ``bound`` on the true maximum."""

    value: Fraction
    matched_vertices: int
    matched_edges: int
    exact: bool
    bound: Fraction
    expansions: int


class _Exhausted(Exception):
    """The search spent its expansion budget."""


def exact_threshold(threshold) -> Fraction:
    """Exact rational for a threshold given as float, str, int or Fraction.

    Decimal text (or a float's shortest repr) converts exactly, so a score of
    exactly 4/5 compares equal to a user-supplied 0.8.
    """
    if isinstance(threshold, Fraction):
        return threshold
    if isinstance(threshold, float):
        return Fraction(repr(threshold))
    return Fraction(threshold)


class _Profile:
    """Per-graph precomputation shared by similarity and its cheap bound: app
    ids in search order, kind counts, label ``tokens`` and the orientation key
    (the search reads ``nodes`` and ``edges``, held without the graph so the two
    form no cycle).  ``tokens`` holds each system/action id and ``(kind, j)`` /
    ``(code, j)`` for the j-th app node of a kind and the j-th edge with a code."""

    __slots__ = ("nodes", "edges", "order", "sys_ids", "kind_counts", "tokens", "canon", "clusters")

    def __init__(self, g: BehaviorGraph):
        self.nodes, self.edges = g.nodes, g.edges
        ids = sorted(g.nodes)
        app_ids = [nid for nid in ids if nid.startswith("app:")]
        degree = Counter(src for src, _, _ in g.edges)
        degree.update(dst for _, dst, _ in g.edges)
        self.order = sorted(app_ids, key=lambda i: (-degree[i], i))
        sys_ids, kinds, codes = _labels(g)
        self.sys_ids = frozenset(sys_ids)
        self.kind_counts = Counter(kinds)
        counts = (*self.kind_counts.items(), *Counter(codes).items())
        self.tokens = self.sys_ids.union((k, j) for k, n in counts for j in range(n))
        # Orientation key: keeps similarity symmetric even when a search is
        # cut short by its budget.
        self.canon = (tuple(ids), tuple(sorted(g.edges)),
                      tuple(g.nodes[nid].kind or "" for nid in app_ids))  # type: ignore[union-attr]
        self.clusters: int | None = None  # counted when the graph is first searched


def _profile(g: BehaviorGraph) -> _Profile:
    if g._profile is None:
        g._profile = _Profile(g)
    return g._profile


def _labels(g: BehaviorGraph) -> tuple[list, list, list]:
    """The labels that the count bound and the mask compare: system and action
    ids (unique within a graph), app kinds, and edge codes."""
    sys_ids, kinds = [], []
    for nid, node in g.nodes.items():
        if nid.startswith("app:"):
            kinds.append(node.kind)  # type: ignore[union-attr]
        else:
            sys_ids.append(nid)
    return sys_ids, kinds, [code for _, _, code in g.edges]


def label_mask(g: BehaviorGraph) -> int:
    """Count mask of the labels behind ``_Profile.tokens``: the j-th label
    to fall in bucket ``hash(label) % MASK_WIDTH`` sets bit
    ``j * MASK_WIDTH + bucket``.  The bits go into a byte buffer sized for the
    worst case, every label in one bucket, and become an int once, so the cost
    stays linear in the labels however they fall."""
    width = MASK_WIDTH
    next_bit = list(range(width))
    sys_ids, kinds, codes = _labels(g)
    buf = bytearray((len(sys_ids) + len(kinds) + len(codes)) * width // 8 + 1)
    for label in chain(sys_ids, kinds, codes):
        bucket = hash(label) % width
        bit = next_bit[bucket]
        next_bit[bucket] = bit + width
        buf[bit >> 3] |= 1 << (bit & 7)
    return int.from_bytes(buf, "little")


def _value(units: int, total: int) -> Fraction:
    """1 - min_ops/total for ``units`` matched vertices + edges (min_ops = total - 2*units)."""
    return Fraction(2 * units, total) if total else Fraction(1)


def _shared_total(p1: _Profile, p2: _Profile) -> tuple[int, int]:
    """The count bound's integers: shared label tokens, and vertices + edges of both."""
    return len(p1.tokens & p2.tokens), len(p1.nodes) + len(p2.nodes) + len(p1.edges) + len(p2.edges)


def upper_bound_value(g1: BehaviorGraph, g2: BehaviorGraph) -> Fraction:
    """Cheap optimistic score: every shared label token as a matched vertex or edge."""
    return _value(*_shared_total(_profile(g1), _profile(g2)))


def _search(p1: _Profile, p2: _Profile, mapping: dict[str, str],
            need: int) -> tuple[int, int, int, bool, int]:
    """Branch and bound over injective kind-compatible app mappings, seeded
    with the system identity matches in ``mapping``, that prunes what cannot
    beat both the incumbent and ``need - 1`` pairs + edges.  Returns (pairs,
    edges) of the best mapping found, a proven upper bound on pairs + edges,
    whether the search finished within the budget, and its expansions."""
    order, nodes1, nodes2, e2 = p1.order, p1.nodes, p2.nodes, p2.edges
    n = len(order)
    pos = {nid: i for i, nid in enumerate(order)}
    # An edge unit is decided at the step placing its last app endpoint;
    # units into a system node absent from g2 can never match.
    units: list[list[tuple[str, str, int]]] = [[] for _ in order]
    for src, dst, code in p1.edges:
        if dst in pos or dst in mapping:
            units[max(pos[src], pos.get(dst, -1))].append((src, dst, code))
    candidates_by_kind: dict[str | None, list[str]] = {}
    for nid in p2.order:
        candidates_by_kind.setdefault(nodes2[nid].kind, []).append(nid)  # type: ignore[union-attr]
    # (outgoing?, code) counts of each g2 app node's edges to other app nodes
    app_codes: dict[str, Counter] = {y: Counter() for y in p2.order}
    for src, dst, code in e2:
        if src != dst and dst in app_codes:
            app_codes[src][True, code] += 1
            app_codes[dst][False, code] += 1

    # Suffix bounds: vertices per kind still to come, and the most edge units
    # the remaining steps can gain.  Under x -> y a unit into a system node,
    # or a self-loop, matches only if y has the same edge; units between x and
    # other app nodes are capped per direction and code by y's app edges.
    suffix_kinds: list[dict[str | None, int]] = [dict() for _ in range(n + 1)]
    suffix_cap = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        x = order[i]
        k = nodes1[x].kind  # type: ignore[union-attr]
        suffix_kinds[i] = {**suffix_kinds[i + 1], k: suffix_kinds[i + 1].get(k, 0) + 1}
        fixed = [(d, c) for s, d, c in units[i] if d not in pos or s == d]
        wanted = Counter((s == x, c) for s, d, c in units[i] if d in pos and s != d)
        suffix_cap[i] = suffix_cap[i + 1] + max(
            (sum(1 for d, c in fixed if (y, y if d == x else d, c) in e2)
             + sum(min(m, app_codes[y][key]) for key, m in wanted.items())
             for y in candidates_by_kind.get(k, ())), default=0)

    best = (0, 0)  # leaving every app node unmatched is always a mapping
    cut = max(0, need - 1)
    expansions = 0
    open_bounds: list[int] = []  # per open frame: bound on its untried children
    used: set[str] = set()
    avail = {k: len(v) for k, v in candidates_by_kind.items()}
    # Matching a node never unmatches an edge, so g1 nodes of a kind need to
    # stay unmatched only as far as that kind outnumbers its g2 nodes.
    spare = {k: cnt - avail.get(k, 0) for k, cnt in p1.kind_counts.items()}
    cap_e = min(len(p1.edges), len(e2))

    def bound_at(i: int, mv: int, me: int) -> int:
        rem_v = sum(min(cnt, avail.get(k, 0)) for k, cnt in suffix_kinds[i].items())
        return mv + me + rem_v + min(suffix_cap[i], cap_e - me)

    def gain(i: int) -> int:
        return sum(1 for s, d, c in units[i] if (mapping.get(s), mapping.get(d), c) in e2)

    def rec(i: int, mv: int, me: int) -> None:
        nonlocal best, cut, expansions
        ub = bound_at(i, mv, me)
        if ub <= cut:
            return
        if i == n:  # a leaf's bound is its own pairs + edges
            best, cut = (mv, me), ub
            return
        open_bounds.append(ub)
        expansions += 1
        if expansions > SEARCH_BUDGET:
            raise _Exhausted
        x = order[i]
        kind = nodes1[x].kind  # type: ignore[union-attr]
        children = []  # tried best gain first, so the incumbent rises early
        for y in candidates_by_kind.get(kind, ()):
            if y not in used:
                mapping[x] = y
                children.append((gain(i), y))
        mapping.pop(x, None)
        children.sort(key=lambda child: -child[0])
        for g, y in children:
            mapping[x] = y
            used.add(y)
            avail[kind] -= 1
            rec(i + 1, mv + 1, me + g)
            avail[kind] += 1
            used.discard(y)
            del mapping[x]
        open_bounds[-1] = -1  # only the skip child is left, and it opens its own frame
        if spare[kind] > 0:  # leave x unmatched
            spare[kind] -= 1
            rec(i + 1, mv, me)
            spare[kind] += 1
        open_bounds.pop()

    root = bound_at(0, 0, 0)
    try:
        rec(0, 0, 0)
        complete = True
    except _Exhausted:
        complete = False
    del rec  # a cycle through its own closure: break it so the tables free on return
    # Finished subtrees hold nothing above ``cut``, unfinished ones nothing
    # above their frame's bound, and no mapping beats the root bound.
    return best[0], best[1], min(root, max([cut, *open_bounds])), complete, expansions


def similarity(g1: BehaviorGraph, g2: BehaviorGraph, floor=0) -> SimilarityScore:
    """Edit-distance similarity between two decoupled graphs.

    ``floor`` is the score the caller needs.  When the true maximum reaches it
    the result is that maximum, ``exact=True`` and ``bound == value``.
    Otherwise ``exact=False`` and ``value <= true maximum <= bound < floor``,
    unless the search spent ``SEARCH_BUDGET`` first: then ``bound`` may reach
    the floor.  Symmetric in its arguments.
    """
    p1, p2 = _profile(g1), _profile(g2)
    for g, p in ((g1, p1), (g2, p2)):
        if p.clusters is None:
            p.clusters = len(app_clusters(g))
        if p.clusters > 1:
            raise NotDecoupled(f"graph with {p.clusters} app clusters: {g!r}")

    if (len(p1.order), p1.canon) > (len(p2.order), p2.canon):
        p1, p2 = p2, p1

    common_sys = p1.sys_ids & p2.sys_ids
    total = len(p1.nodes) + len(p2.nodes) + len(p1.edges) + len(p2.edges)
    # value = 2 * (Mv + Me) / total, so reaching the floor takes this many units
    need = math.ceil(exact_threshold(floor) * total / 2) - len(common_sys)
    pairs, me, bound, complete, expansions = _search(
        p1, p2, {nid: nid for nid in common_sys}, need)
    value, bound_value = (_value(len(common_sys) + units, total) for units in (pairs + me, bound))
    return SimilarityScore(value, len(common_sys) + pairs, me,
                           complete and pairs + me >= need, bound_value, expansions)


# ---------------------------------------------------------------------------
# store matching and verdicts
# ---------------------------------------------------------------------------


def match_sss(suspect: Sss, blacklist: Sss) -> list[str]:
    """Exact-string intersection with the blacklist, sorted for determinism."""
    hits = sorted(suspect.endpoints & blacklist.endpoints)
    hits += sorted(suspect.executables & blacklist.executables)
    return hits


def match_rbg(suspect, store, threshold=DEFAULT_THRESHOLD, alpha: int = DEFAULT_ALPHA):
    """Best store match at or above ``threshold`` for any suspect graph.

    ``suspect`` is a list of decoupled graphs.  Candidates come from the
    store's app-component-count index within ±``alpha``.  Returns
    (family_id, SimilarityScore) or None; ties keep the smallest family id.
    """
    th = exact_threshold(threshold)
    num, den = th.numerator, 2 * th.denominator
    best: tuple[str, SimilarityScore] | None = None
    for g in suspect:
        mask, size, survivors = label_mask(g), len(g.nodes) + len(g.edges), []
        for ref in store.range_candidates(g.app_count, alpha):
            # The screen over-counts shared tokens, so what fails it fails the bound.
            ref_mask = ref.mask
            if ref_mask is None:  # filled once per index entry, by the first scan that reads it
                ref_mask = ref.mask = label_mask(store.graph(ref))
            if den * (ref_mask & mask).bit_count() < num * (ref.size + size):
                continue
            # Sort and search only candidates whose bound 2*shared/total reaches th.
            shared, total = _shared_total(_profile(g), _profile(cand := store.graph(ref)))
            if den * shared >= num * total:
                survivors.append((ref, cand, _value(shared, total)))
        survivors.sort(key=lambda s: (s[0].family_id, s[0].ordinal))
        for ref, cand, ub in survivors:
            if best is not None and ub <= best[1].value:
                continue
            score = similarity(g, cand, th if best is None else best[1].value)
            if score.value >= th and (best is None or score.value > best[1].value):
                best = (ref.family_id, score)
    return best


@dataclass(frozen=True)
class RuntimeBehaviorSignature:
    """The uploaded detection unit: runtime graph plus suspicious-call set."""

    app: str
    rbg: BehaviorGraph
    sss: Sss

    def __post_init__(self):
        if self.rbg.origin != "runtime":
            raise ValueError("runtime behavior signature requires a runtime-origin graph")


@dataclass(frozen=True)
class Verdict:
    decision: str  # malicious | clean
    mode: str
    family: str | None = None
    best_score: SimilarityScore | None = None
    matched_blacklist: tuple[str, ...] | None = None

    def to_json_obj(self) -> dict:
        obj: dict = {"decision": self.decision, "mode": self.mode}
        if self.family is not None:
            obj["family"] = self.family
        if self.best_score is not None:
            obj["score"] = float(self.best_score.value)
            obj["exact"] = self.best_score.exact
            if not self.best_score.exact:
                obj["bound"] = float(self.best_score.bound)
        if self.matched_blacklist is not None:
            obj["matched_blacklist"] = list(self.matched_blacklist)
        return obj


def decide(signature: RuntimeBehaviorSignature, store, threshold=DEFAULT_THRESHOLD,
           mode: str = "combined", alpha: int = DEFAULT_ALPHA) -> Verdict:
    """Match a signature against the store under the given mode.

    sss_only flags on a blacklist hit, rbg_only on a graph match, combined on
    either.  The verdict carries whatever evidence was found.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    graph_hit = None
    sss_hits: list[str] = []
    if mode in ("rbg_only", "combined"):
        graph_hit = match_rbg(decouple(signature.rbg), store, threshold, alpha)
    if mode in ("sss_only", "combined"):
        sss_hits = match_sss(signature.sss, store.blacklist)
    malicious = graph_hit is not None or bool(sss_hits)
    return Verdict(
        decision="malicious" if malicious else "clean",
        mode=mode,
        family=graph_hit[0] if graph_hit else None,
        best_score=graph_hit[1] if graph_hit else None,
        matched_blacklist=tuple(sss_hits) if sss_hits else None,
    )
