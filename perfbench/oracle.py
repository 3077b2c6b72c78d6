"""Reference scores for the benchmark's output checks, written apart from
``monet.matcher``.

The score between two decoupled graphs is ``2 * (Mv + Me) / (|V1| + |V2| +
|E1| + |E2|)`` for the best injective mapping of app components onto app
components of the same kind, with system and action nodes matched by label
(labels are unique within a graph, so matching equal labels never costs).
``Mv`` counts matched nodes and ``Me`` edges whose image under the mapping is
an edge of the other graph with the same code.

The search enumerates every such mapping, pruning a branch only when an
admissible count bound computed here shows it cannot beat the incumbent, and
pruning a stored candidate only when the same kind of count bound shows it
cannot reach the threshold.
"""

from __future__ import annotations

from fractions import Fraction


class Shape:
    """The counts and adjacency of one graph that the oracle reads."""

    __slots__ = ("apps", "kind", "system", "edges", "edge_set", "kind_count", "code_count", "total",
                 "app_count")

    def __init__(self, g):
        self.apps = [nid for nid in g.nodes if nid.startswith("app:")]
        self.kind = {nid: g.nodes[nid].kind for nid in self.apps}
        self.system = frozenset(nid for nid in g.nodes if not nid.startswith("app:"))
        self.edges = list(g.edges)
        self.edge_set = frozenset(self.edges)
        self.kind_count: dict = {}
        for nid in self.apps:
            self.kind_count[self.kind[nid]] = self.kind_count.get(self.kind[nid], 0) + 1
        self.code_count: dict = {}
        for _, _, code in self.edges:
            self.code_count[code] = self.code_count.get(code, 0) + 1
        self.total = len(g.nodes) + len(self.edges)
        self.app_count = len(self.apps)


def count_bound(a: Shape, b: Shape) -> int:
    """An upper bound on Mv + Me from label, kind and edge-code counts."""
    nodes = len(a.system & b.system)
    nodes += sum(min(n, b.kind_count.get(k, 0)) for k, n in a.kind_count.items())
    edges = sum(min(n, b.code_count.get(c, 0)) for c, n in a.code_count.items())
    return nodes + edges


def best_units(a: Shape, b: Shape, floor: int = -1) -> int:
    """The largest Mv + Me over all mappings, or ``floor`` if none exceeds it."""
    common = a.system & b.system
    order = sorted(a.apps, key=lambda nid: -sum(1 for e in a.edges if nid in (e[0], e[1])))
    position = {nid: i for i, nid in enumerate(order)}
    targets: dict = {}
    for nid in b.apps:
        targets.setdefault(b.kind[nid], []).append(nid)

    # An edge is decided at the step that places its last app endpoint; edges
    # into a system node absent from ``b`` can never match and count nowhere.
    decided_at: list[list[tuple]] = [[] for _ in order]
    for edge in a.edges:
        src, dst, _ = edge
        if not dst.startswith("app:") and dst not in common:
            continue
        step = max(position[n] for n in (src, dst) if n in position)
        decided_at[step].append(edge)
    edges_left = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        edges_left[i] = edges_left[i + 1] + len(decided_at[i])
    kinds_left: list[dict] = [dict() for _ in range(len(order) + 1)]
    for i in range(len(order) - 1, -1, -1):
        kinds_left[i] = dict(kinds_left[i + 1])
        k = a.kind[order[i]]
        kinds_left[i][k] = kinds_left[i].get(k, 0) + 1
    free = {k: len(v) for k, v in targets.items()}

    image = {nid: nid for nid in common}
    used: set = set()
    best = floor

    def gain(edges) -> int:
        hits = 0
        for src, dst, code in edges:
            s, d = image.get(src), image.get(dst)
            if s is not None and d is not None and (s, d, code) in b.edge_set:
                hits += 1
        return hits

    def visit(i: int, units: int) -> None:
        nonlocal best
        if i == len(order):
            best = max(best, units)
            return
        optimistic = units + edges_left[i]
        optimistic += sum(min(n, free.get(k, 0)) for k, n in kinds_left[i].items())
        if optimistic <= best:
            return
        x = order[i]
        k = a.kind[x]
        for y in targets.get(k, ()):
            if y in used:
                continue
            image[x] = y
            used.add(y)
            free[k] -= 1
            visit(i + 1, units + 1 + gain(decided_at[i]))
            free[k] += 1
            used.discard(y)
            del image[x]
        visit(i + 1, units)

    visit(0, len(common))
    return best


def best_match(clusters: list[Shape], stored: list[tuple[str, Shape]], threshold: Fraction,
               alpha: int) -> tuple[Fraction | None, frozenset[str]]:
    """The best score at or above ``threshold`` over every stored graph whose
    app-component count lies within ``alpha`` of a suspect cluster's, and the
    families reaching it; ``(None, frozenset())`` when nothing reaches it."""
    best: Fraction | None = None
    families: set[str] = set()
    for a in clusters:
        for family, b in stored:
            if abs(a.app_count - b.app_count) > alpha:
                continue
            total = a.total + b.total
            # Mv + Me must reach ceil(threshold * total / 2) units.
            need = -((-threshold.numerator * total) // (2 * threshold.denominator))
            if best is not None:
                need = max(need, -((-best.numerator * total) // (2 * best.denominator)))
            if count_bound(a, b) < need:
                continue
            units = best_units(a, b, floor=need - 1)
            if units < need:
                continue
            value = Fraction(2 * units, total)
            if best is None or value > best:
                best, families = value, {family}
            elif value == best:
                families.add(family)
    return best, frozenset(families)
