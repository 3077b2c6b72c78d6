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

The count bound (``upper_bound_value``) counts what two graphs could share
by label.  A node's label is its id for a system or action node and its kind
for an app component.  An edge's label is the labels of its two endpoints and
its code, so an edge can only ever match an edge of the same label: under any
mapping, matched edges have equal codes and endpoints matched by identity or
by kind.  Per label, at most the smaller of the two counts can match, so the
sum of those minima bounds every mapping.

``match_rbg`` filters the window once, with a screen compared with the
threshold in integers.  ``_label_bits`` hashes each label into one of
``MASK_WIDTH`` buckets, and the j-th label of a bucket gets bit ``j *
MASK_WIDTH + bucket``.  Two graphs' bit sets share, per bucket, the smaller of
the two bucket counts, which is at least the sum of the per-label minima that
the bucket holds.  So the number of bits they share never falls below the
shared count of the two label multisets, and like the count bound it bounds
every mapping.  The screen counts it for every candidate of one app-component
count at once, from columns, one per bit, that the store snapshot builds at
that count's first scan (``_KeyScreen``; ``_screen`` proves it exact).
Only those that pass are sorted and searched, and the same bound skips those
that cannot beat the best so far.  How many pass depends on the process's
string hashes; the verdicts do not, as a search cannot beat its count bound.

The search is one branch and bound.  A caller that needs only some score
passes it as ``floor``, and subtrees whose bound cannot reach it are pruned,
so unrelated pairs are rejected without finding their maximum.  A search
stops after ``SEARCH_BUDGET`` node expansions, and a result cut short says so
(``exact=False``) and carries a proven upper ``bound``.  What a search reads
of one graph is kept in its profile (``_Profile``), and each role's tables are
built the first time the graph plays that role: as the smaller side, each
step's edge units and fixed edges, the token sets behind the edge caps and the
kind counts still to come; as the larger side, the app nodes of each kind.
Per pair only the suffix edge caps are left, one set intersection per
compatible pair of app nodes.  ``decide`` searches the clusters ``decouple``
makes for the request, so a suspect's tables never outlive it.

Scores are exact rationals so that threshold comparisons and the published
worked example hold with zero tolerance.  Inside ``similarity`` and
``match_rbg`` they stay integers, matched units against a total, compared by
cross-multiplication; a ``Fraction`` is built only for a returned
``SimilarityScore``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import sub

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

# Buckets of the screen's label bits.  A fixed width keeps a graph's bits a
# function of its own labels, not of how many distinct labels the store holds.
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
    """What a search reads of one graph, built at its first search, which
    refuses a graph of several app clusters unless ``decouple`` or admission
    proved it one, and published by one assignment to ``g._profile``.  It holds
    the graph's node and edge dicts but not the graph, so the two form no cycle.
    ``order`` is the app nodes' search order, ``sys_ids`` the system and action
    ids and ``size`` the vertex + edge count.  Each role's tables, and ``canon``,
    are built at first use and published by one assignment of the finished
    object, as server threads share stored graphs.

    An app node's fixed edges are those into system/action nodes and its
    self-loops, as ``(target, code)`` with ``None`` for the self-loop; such an
    edge of x matches under x -> y iff y has the same one.  Its app edges are
    counted as ``(outgoing?, code, j)`` tokens, one per j-th edge of that
    direction and code, so that two token sets share the per-key minima.
    Equal app-edge tokens and equal token sets are stored once per table."""

    __slots__ = ("nodes", "edges", "order", "sys_ids", "size", "_canon", "_smaller", "_larger")

    def __init__(self, g: BehaviorGraph):
        if not g._one_cluster and len(clusters := set(app_clusters(g).values())) > 1:
            raise NotDecoupled(f"graph with {len(clusters)} app clusters: {g!r}")
        self.nodes, self.edges, self.size = g.nodes, g.edges, len(g.nodes) + len(g.edges)
        degree = dict.fromkeys(g.nodes, 0)
        for src, dst, _ in g.edges:
            degree[src] += 1
            degree[dst] += 1
        self.order = sorted((nid for nid in g.nodes if nid.startswith("app:")), key=lambda i: (-degree[i], i))
        self.sys_ids = g.nodes.keys() - self.order
        self._canon = self._smaller = self._larger = None

    def canon(self) -> tuple:
        """Orientation key between graphs of as many app nodes: keeps similarity
        symmetric even when a search is cut short by its budget."""
        if self._canon is None:
            nids = sorted(self.nodes)
            self._canon = (tuple(nids), tuple(sorted(self.edges)),
                           tuple(self.nodes[nid].kind or "" for nid in nids if nid.startswith("app:")))
        return self._canon

    def smaller(self) -> tuple:
        """As the smaller side, ``(kind_names, kinds, units, fixed, caps,
        suffix_counts)``, per search position i: ``kinds[i]``, an index into
        ``kind_names``; ``units[i]``, its app edges to earlier positions j as
        ``(j, outgoing?, code)``; ``fixed[i]``, its fixed edges; ``caps[i]``,
        those plus the tokens of ``units[i]``; and ``suffix_counts[i]``, the
        count of each kind at positions i and on."""
        if self._smaller is None:
            pos = {nid: i for i, nid in enumerate(self.order)}
            units: list[list[tuple[int, bool, int]]] = [[] for _ in pos]
            fixed: list[list[tuple[str | None, int]]] = [[] for _ in pos]
            caps: list[list[tuple]] = [[] for _ in pos]
            seen, share = {}, {}
            for src, dst, code in self.edges:
                i, j = pos[src], pos.get(dst)
                if j is None or j == i:
                    fixed[i].append(token := (None if j == i else dst, code))
                    caps[i].append(token)
                else:  # a unit is decided at the step placing its last app endpoint
                    at, out = (i, True) if i > j else (j, False)
                    units[at].append((j, True, code) if out else (i, False, code))
                    nth = seen[at, out, code] = seen.get((at, out, code), -1) + 1
                    caps[at].append(share.setdefault(token := (out, code, nth), token))
            kinds = [self.nodes[x].kind for x in self.order]  # type: ignore[union-attr]
            kind_names = tuple(dict.fromkeys(kinds))
            kinds = tuple(map(kind_names.index, kinds))
            counts = [0] * len(kind_names)
            suffix = [tuple(counts)]
            for k in reversed(kinds):
                counts[k] += 1
                suffix.append(tuple(counts))
            self._smaller = (kind_names, kinds, tuple(map(tuple, units)), tuple(map(tuple, fixed)),
                             tuple(share.setdefault(c, c) for c in map(frozenset, caps)),
                             tuple(reversed(suffix)))
        return self._smaller

    def larger(self) -> dict:
        """As the larger side, ``by_kind``: kind -> (app ids in order, each
        one's fixed edges plus the tokens of all its app edges)."""
        if self._larger is None:
            tokens: dict[str, list[tuple]] = {nid: [] for nid in self.order}
            seen, share = {}, {}
            for src, dst, code in self.edges:
                if dst not in tokens or dst == src:
                    tokens[src].append((None if dst == src else dst, code))
                else:
                    nth = seen[src, True, code] = seen.get((src, True, code), -1) + 1
                    tokens[src].append(share.setdefault(token := (True, code, nth), token))
                    nth = seen[dst, False, code] = seen.get((dst, False, code), -1) + 1
                    tokens[dst].append(share.setdefault(token := (False, code, nth), token))
            by_kind: dict[str | None, tuple[list[str], list[frozenset]]] = {}
            for x in self.order:
                ids, labels = by_kind.setdefault(self.nodes[x].kind, ([], []))  # type: ignore[union-attr]
                ids.append(x)
                labels.append(share.setdefault(label := frozenset(tokens[x]), label))
            self._larger = {k: (tuple(ids), tuple(labels)) for k, (ids, labels) in by_kind.items()}
        return self._larger


def _labels(g: BehaviorGraph) -> list:
    """The labels that the count bound and the screen compare: per node, in node
    order, its id, or its kind for an app component; then per edge ``(label(src),
    label(dst), code)``.  Ids carry a ``sys:``/``act:`` prefix and edge labels are
    triples, so no two classes share a label unless a JSON kind is named like an id."""
    label = {nid: node.kind if nid.startswith("app:") else nid  # type: ignore[union-attr]
             for nid, node in g.nodes.items()}
    return [*label.values(), *[(label[src], label[dst], code) for src, dst, code in g.edges]]


def _label_bits(g: BehaviorGraph) -> list[int]:
    """One bit per label of ``_labels``: the j-th label to fall in bucket
    ``hash(label) % MASK_WIDTH`` is bit ``j * MASK_WIDTH + bucket``."""
    width, bits, next_bit = MASK_WIDTH, [], list(range(MASK_WIDTH))
    for label in _labels(g):
        bucket = hash(label) % width
        bits.append(next_bit[bucket])
        next_bit[bucket] += width
    return bits


class _KeyScreen:
    """The label bits of the refs filed under one app-component count, as columns:
    ``cols[b]`` has a 1 in field r if ``refs[r]``'s graph has bit b; ``sizes``, ``ones``
    and ``highs`` hold each field's graph size, a 1 and its top bit.  A field has 5 bits
    more than the largest size, ``width`` in all, and a ``prior`` of that width is extended."""

    __slots__ = ("refs", "width", "cols", "sizes", "ones", "highs")

    def __init__(self, store, refs: tuple, prior: _KeyScreen | None = None):
        self.refs, self.width = refs, max(ref.size for ref in refs).bit_length() + 5
        start, self.cols, width, rows = 0, {}, self.width, {}
        if prior is not None and prior.width == width and refs[:len(prior.refs)] == prior.refs:
            start, self.cols = len(prior.refs), dict(prior.cols)
        for r in range(start, len(refs)):
            for b in _label_bits(store.graph(refs[r])):
                rows.setdefault(b, []).append(r)
        for b, rs in rows.items():
            col = bytearray(rs[-1] * width // 8 + 1)
            for r in rs:
                col[r * width >> 3] |= 1 << (r * width & 7)
            self.cols[b] = self.cols.get(b, 0) | int.from_bytes(col, "little")
        self.sizes = sum(self.cols.values())  # a graph has one bit per vertex and edge
        self.ones = ((1 << width * len(refs)) - 1) // ((1 << width) - 1)
        self.highs = self.ones << (width - 1)


def _screen(store, g: BehaviorGraph, num: int, den: int, alpha: int) -> list:
    """(ref, shared) for each ref in ``g``'s window with ``den * shared >= num *
    (ref.size + n)``, n = g's size, shared = the number of ``_label_bits`` that g
    and ref's graph share.  A count's screen is built at its first scan in the
    store, from the one an insert carried over if any, and published by one assignment.

    Exact: with F = width and B = 2**(F-1), every size is below B/16, so field
    r of ``counts`` is s_r = shared <= min(B/16, n) and no sum carries.
    ``marked`` is sum(v_r * 2**(F*r)) & highs, v_r = B + d*s_r - p*(size_r + n),
    p = pos // q, d = ceil(den / q), where q is the least that puts den*min(B/16,
    n) / q and pos*(B/16 + n) / q below B/2.  Then p*(size_r + n) < B/2, and
    d*s_r < B/16 if d = 1, else d < 2*den/q and d*s_r < B: 0 < v_r < 2**F, no
    field carries or borrows, and v_r's top bit is set iff d*s_r >= p*(size_r +
    n).  As p/d <= num/den or p = 0, every ref that passes is marked, and the
    exact compare drops the rest.  q is 1 or 2 at usual sizes: at 4/5, p/d = num/den."""
    bits, n, pos, out, width = _label_bits(g), len(g.nodes) + len(g.edges), max(num, 0), [], 0
    for key, refs in store.window(g.app_count, alpha):
        screen = store.screens.get(key)
        if screen is None or screen.refs is not refs:
            screen = store.screens[key] = _KeyScreen(store, refs, screen)
        if screen.width != width:  # p and d depend on the field width, not on the count
            width, top = screen.width, 1 << (screen.width - 1)
            q = max(den * min(top >> 4, n), pos * ((top >> 4) + n)) // (top >> 1) + 1
            p, d = pos // q, -(-den // q)
        counts = sum(map(screen.cols.get, bits, repeat(0)))
        marked = (d * counts - p * screen.sizes + (top - p * n) * screen.ones) & screen.highs
        while marked:
            shift = marked.bit_length() - width  # the lowest bit of the top marked field
            marked ^= top << shift
            ref, shared = refs[shift // width], counts >> shift & (top * 2 - 1)
            if den * shared >= num * (ref.size + n):
                out.append((ref, shared))
    return out


def _value(units: int, total: int) -> Fraction:
    """1 - min_ops/total for ``units`` matched vertices + edges (min_ops = total - 2*units)."""
    return Fraction(2 * units, total) if total else Fraction(1)


def upper_bound_value(g1: BehaviorGraph, g2: BehaviorGraph) -> Fraction:
    """The count bound: every label of ``_labels`` the two graphs share, counted
    per label to the smaller multiplicity, as a matched vertex or edge.  Edges
    count by code and endpoint labels, the most a mapping can match, so no
    mapping beats it."""
    shared = sum((Counter(_labels(g1)) & Counter(_labels(g2))).values())
    return _value(shared, len(g1.nodes) + len(g2.nodes) + len(g1.edges) + len(g2.edges))


def _search(p1: _Profile, p2: _Profile, need: int) -> tuple[int, int, int, bool, int]:
    """Branch and bound over injective kind-compatible app mappings, on top of
    the system identity matches, that prunes what cannot beat both the
    incumbent and ``need - 1`` pairs + edges.  Returns (pairs, edges) of the
    best mapping found, a proven upper bound on pairs + edges, whether the
    search finished within the budget, and its expansions."""
    kind_names, kinds, units, fixed, caps, suffix_counts = p1.smaller()
    by_kind, e2, n = p2.larger(), p2.edges, len(kinds)
    # Per kind of g1, by index: g2's (app ids, labels) and how many are unmatched.
    candidates = [by_kind.get(k, ((), ())) for k in kind_names]
    avail = [len(ids) for ids, _ in candidates]
    # Matching a node never unmatches an edge, so g1 nodes of a kind need to
    # stay unmatched only as far as that kind outnumbers its g2 nodes.
    spare = list(map(sub, suffix_counts[0], avail))
    # Suffix cap: the most edge units the remaining steps can gain.  Under
    # x -> y a fixed edge matches only if y has it too, and the units between
    # x and other app nodes are capped per direction and code by y's app edges.
    steps = [max(map(len, map(cap.__and__, candidates[k][1])), default=0)
             for cap, k in zip(caps, kinds)]
    suffix_cap = [*accumulate(reversed(steps), initial=0)][::-1]

    best = (0, 0)  # leaving every app node unmatched is always a mapping
    cut = max(0, need - 1)
    expansions = 0
    open_bounds: list[int] = []  # per open frame: bound on its untried children
    assigned: list[str | None] = [None] * n  # the g2 node of each position, if matched
    used: set[str] = set()
    cap_e = min(len(p1.edges), len(e2))

    def bound_at(i: int, mv: int, me: int) -> int:
        rem_v = sum(map(min, suffix_counts[i], avail))
        return mv + me + rem_v + min(suffix_cap[i], cap_e - me)

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
        kind, fx, ux = kinds[i], fixed[i], units[i]
        children = []  # tried best gain first, so the incumbent rises early
        for y, labels in zip(*candidates[kind]):
            if y not in used:
                gain = len(labels.intersection(fx))
                for j, out, code in ux:
                    z = assigned[j]
                    if z is not None and ((y, z, code) if out else (z, y, code)) in e2:
                        gain += 1
                children.append((gain, y))
        children.sort(key=lambda child: -child[0])
        for gain, y in children:
            assigned[i] = y
            used.add(y)
            avail[kind] -= 1
            rec(i + 1, mv + 1, me + gain)
            avail[kind] += 1
            used.discard(y)
        assigned[i] = None
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
    del rec  # a cycle through its own closure: break it so the per-pair lists free on return
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
    for g in (g1, g2):
        if g._profile is None:
            g._profile = _Profile(g)
    p1, p2 = g1._profile, g2._profile
    n1, n2 = len(p1.order), len(p2.order)
    if n1 > n2 or n1 == n2 and p1.canon() > p2.canon():
        p1, p2 = p2, p1

    common_sys = len(p1.sys_ids & p2.sys_ids)
    total = p1.size + p2.size
    fl = exact_threshold(floor)
    # value = 2 * (Mv + Me) / total, so reaching the floor takes this many units
    need = -(-fl.numerator * total // (2 * fl.denominator)) - common_sys
    pairs, me, bound, complete, expansions = _search(p1, p2, need)
    value, bound_value = (_value(common_sys + units, total) for units in (pairs + me, bound))
    return SimilarityScore(value, common_sys + pairs, me,
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
    (family_id, SimilarityScore) or None; a tie keeps the first hit, in
    suspect-cluster order and then family id.
    """
    th = exact_threshold(threshold)
    num, den = th.numerator, 2 * th.denominator
    best: tuple[str, SimilarityScore] | None = None
    best_num = best_den = 0  # best[1].value as integers
    for g in suspect:
        size = len(g.nodes) + len(g.edges)
        # Search only candidates whose bound 2*shared/total reaches th (ref.size > 0).
        survivors = [(ref, store.graph(ref), 2 * shared, ref.size + size)
                     for ref, shared in _screen(store, g, num, den, alpha)]
        survivors.sort(key=lambda s: (s[0].family_id, s[0].ordinal))
        for ref, cand, ub_num, ub_den in survivors:
            if best is not None and ub_num * best_den <= best_num * ub_den:
                continue
            score = similarity(g, cand, th if best is None else best[1].value)
            v_num, v_den = score.value.numerator, score.value.denominator
            # the first hit has to reach the threshold, a later one to beat the best
            if (v_num * best_den > best_num * v_den if best is not None
                    else v_num * th.denominator >= th.numerator * v_den):
                best, best_num, best_den = (ref.family_id, score), v_num, v_den
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
