import functools
import gc
import hashlib
import random
import sys
import threading
import time
from fractions import Fraction
from itertools import count, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monet import matcher
from monet.behavior_graph import AppComponent, BehaviorGraph, SystemComponent, decouple
from monet.corpus import (
    InapplicableTransform,
    SizeParams,
    TransformOp,
    apply_transform,
    generate_family,
    malicious_graph,
)
from monet.matcher import (
    NotDecoupled,
    RuntimeBehaviorSignature,
    decide,
    exact_threshold,
    match_rbg,
    match_sss,
    similarity,
    upper_bound_value,
)
from monet.pipeline import runtime_graph
from monet.sigstore import FamilySignature, empty_store, insert_signature, merge_blacklist
from monet.trace import Sss, sss_from_json_obj

from oracles import (
    KINDS,
    brute_force_best,
    count_bound_reference,
    label_mask,
    perturb_graph,
    random_cluster_graph,
    screen_reference,
)


def worked_example_pair():
    a = AppComponent("com.x.Main", "activity")
    b = AppComponent("com.x.Work", "service")
    sys_nodes = [SystemComponent(d) for d in
                 ("PackageManager", "PhoneSubInfo", "ConnectivityManager", "DevicePolicyManager")]
    nodes = [a, b, *sys_nodes]
    edges1 = [(a, b, 5), (a, sys_nodes[0], 2), (b, sys_nodes[1], 4),
              (b, sys_nodes[2], 4), (a, sys_nodes[3], 41), (b, sys_nodes[0], 2)]
    edges2 = [(a, b, 5), (a, sys_nodes[0], 2), (b, sys_nodes[1], 4),
              (b, sys_nodes[2], 4), (a, sys_nodes[3], 41), (b, sys_nodes[3], 2)]
    return BehaviorGraph.of("runtime", nodes, edges1), BehaviorGraph.of("runtime", nodes, edges2)


def test_six_node_retargeted_edge_scores_eleven_twelfths():
    g1, g2 = worked_example_pair()
    score = similarity(g1, g2)
    assert score.value == Fraction(11, 12)
    assert (score.matched_vertices, score.matched_edges) == (6, 5)
    assert score.exact
    assert f"{float(score.value):.4f}" == "0.9167"


def test_identical_graphs_score_one():
    g1, _ = worked_example_pair()
    assert similarity(g1, g1).value == 1


def test_empty_graph_scores_zero():
    g1, _ = worked_example_pair()
    empty = BehaviorGraph.of("runtime", [], [])
    assert similarity(g1, empty).value == 0
    assert similarity(empty, empty).value == 1


def test_not_decoupled_rejected():
    a = AppComponent("com.x.A", "activity")
    b = AppComponent("com.x.B", "activity")
    g = BehaviorGraph.of("runtime", [a, b], [])
    ok, _ = worked_example_pair()
    for a, b in ((g, ok), (ok, g), (g, ok)):
        with pytest.raises(NotDecoupled):
            similarity(a, b)
        assert g._profile is None  # a refused build caches nothing
    assert ok._profile is not None


def test_similarity_matches_brute_force_on_random_pairs():
    rng = random.Random(2024)
    for trial in range(80):
        g1 = random_cluster_graph(rng)
        g2 = perturb_graph(rng, g1) if rng.random() < 0.6 else random_cluster_graph(rng)
        score = similarity(g1, g2)
        mv, me, value = brute_force_best(g1, g2)
        assert score.value == value, f"trial {trial}"
        assert score.matched_vertices + score.matched_edges == mv + me
        assert score.exact


def test_symmetry_reflexivity_and_range():
    rng = random.Random(5)
    for _ in range(40):
        g1 = random_cluster_graph(rng)
        g2 = random_cluster_graph(rng)
        s12, s21 = similarity(g1, g2), similarity(g2, g1)
        assert s12.value == s21.value
        assert 0 <= s12.value <= 1
        assert similarity(g1, g1).value == 1


def test_formula_identity():
    rng = random.Random(8)
    for _ in range(40):
        g1, g2 = random_cluster_graph(rng), random_cluster_graph(rng)
        s = similarity(g1, g2)
        v1, v2 = len(g1.nodes), len(g2.nodes)
        e1, e2 = len(g1.edges), len(g2.edges)
        ops = (v1 - s.matched_vertices) + (v2 - s.matched_vertices) \
            + (e1 - s.matched_edges) + (e2 - s.matched_edges)
        assert s.value == 1 - Fraction(ops, v1 + v2 + e1 + e2)


def test_rename_invariance():
    from monet.behavior_graph import node_id

    rng = random.Random(13)
    for _ in range(30):
        g = random_cluster_graph(rng)

        def rename(node):
            if isinstance(node, AppComponent):
                return AppComponent("x." + node.name, node.kind)
            return node

        remap = {nid: ("app:x." + nid[4:] if nid.startswith("app:") else nid) for nid in g.nodes}
        nodes = {node_id(rename(n)): rename(n) for n in g.nodes.values()}
        edges = {(remap[s], remap[d], c): v for (s, d, c), v in g.edges.items()}
        g2 = BehaviorGraph("runtime", nodes, edges)
        assert similarity(g, g2).value == 1


def test_upper_bound_dominates_true_value():
    rng = random.Random(21)
    for _ in range(60):
        g1, g2 = random_cluster_graph(rng), random_cluster_graph(rng)
        assert upper_bound_value(g1, g2) >= similarity(g1, g2).value


def _coarsened(g):
    """``g`` with every kind None and edge codes folded onto 1 and 2, so that
    kinds and codes repeat."""
    nodes = {nid: AppComponent(n.name, None) if nid.startswith("app:") else n
             for nid, n in g.nodes.items()}
    return BehaviorGraph("runtime", nodes, {(s, d, c % 2 + 1): v for (s, d, c), v in g.edges.items()})


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_upper_bound_equals_the_counter_reference(seed):
    rng = random.Random(seed)
    g1 = random_cluster_graph(rng, 8, 12)
    g2 = perturb_graph(rng, g1) if rng.random() < 0.5 else random_cluster_graph(rng, 8, 12)
    for a, b in ((g1, g2), (_coarsened(g1), g2), (_coarsened(g1), _coarsened(g2))):
        assert upper_bound_value(a, b) == count_bound_reference(a, b)
        assert upper_bound_value(b, a) == count_bound_reference(b, a)


def _shuffled(rng, g):
    """``g`` rebuilt with its node and edge dicts in a random order."""
    nodes, edges = list(g.nodes.items()), list(g.edges.items())
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return BehaviorGraph(g.origin, dict(nodes), dict(edges))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_label_bits_and_count_bound_ignore_node_and_edge_order(seed):
    # A bucket's bits are j * MASK_WIDTH + bucket for every j below its count,
    # whatever order the labels come in; the count bound counts a multiset.
    rng = random.Random(seed)
    g1 = random_cluster_graph(rng, 8, 12)
    g2 = perturb_graph(rng, g1) if rng.random() < 0.5 else random_cluster_graph(rng, 8, 12)
    for a, b in ((g1, g2), (_coarsened(g1), _coarsened(g2))):
        s1, s2 = _shuffled(rng, a), _shuffled(rng, b)
        assert s1 == a and s2 == b
        for x, y in ((a, s1), (b, s2)):
            bits = matcher._label_bits(x)
            assert sorted(matcher._label_bits(y)) == sorted(bits) and len(set(bits)) == len(bits)
        want = count_bound_reference(a, b)
        assert upper_bound_value(a, b) == upper_bound_value(s1, s2) == upper_bound_value(s2, s1) == want


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_upper_bound_is_at_least_the_brute_force_best(seed):
    rng = random.Random(seed)
    g1 = random_cluster_graph(rng)
    g2 = perturb_graph(rng, g1) if rng.random() < 0.5 else random_cluster_graph(rng)
    for a, b in ((g1, g2), (_coarsened(g1), g2), (_coarsened(g1), _coarsened(g2))):
        for x, y in ((a, b), (b, a)):
            assert upper_bound_value(x, y) >= brute_force_best(x, y)[2]


def test_thirteen_component_chains_score_exactly_one():
    # 13 app components on each side, a size the search once handed to a
    # heuristic; isomorphic chains must now score exactly 1.
    kinds = ["activity", "service", "receiver"]
    apps1 = [AppComponent(f"com.big.C{i}", kinds[i % 3]) for i in range(13)]
    apps2 = [AppComponent(f"com.big.D{i}", kinds[i % 3]) for i in range(13)]
    edges1 = [(apps1[i], apps1[i + 1], 5 + i % 3) for i in range(12)]
    edges2 = [(apps2[i], apps2[i + 1], 5 + i % 3) for i in range(12)]
    g1 = BehaviorGraph.of("runtime", apps1, edges1)
    g2 = BehaviorGraph.of("runtime", apps2, edges2)
    s = similarity(g1, g2)
    assert s.exact
    assert s.value == s.bound == 1
    # deterministic and symmetric
    assert similarity(g1, g2) == s
    assert similarity(g2, g1) == s
    assert similarity(g1, g1).value == 1


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.fractions(0, 1, max_denominator=40))
def test_floor_decides_reach_against_brute_force(seed, floor):
    rng = random.Random(seed)
    g1 = random_cluster_graph(rng)
    g2 = perturb_graph(rng, g1) if rng.random() < 0.5 else random_cluster_graph(rng)
    _, _, best = brute_force_best(g1, g2)
    s = similarity(g1, g2, floor)
    assert similarity(g2, g1, floor) == s
    assert s.value <= best <= s.bound
    if best >= floor:
        assert s.exact and s.value == s.bound == best
    else:
        assert not s.exact and s.value < floor and s.bound < floor


def test_exhausted_budget_reports_incumbent_and_bound(monkeypatch):
    rng = random.Random(77)
    cut_short = 0
    for _ in range(60):
        g1, g2 = random_cluster_graph(rng), random_cluster_graph(rng)
        full = similarity(g1, g2)
        monkeypatch.setattr(matcher, "SEARCH_BUDGET", 2)
        s = similarity(g1, g2)
        monkeypatch.undo()
        if full.expansions <= 2:
            assert s == full
            continue
        cut_short += 1
        _, _, best = brute_force_best(g1, g2)
        assert not s.exact
        assert s.value <= best <= s.bound
        assert similarity(g2, g1) == full
    assert cut_short >= 20


def test_inexact_verdict_reports_its_bound(monkeypatch):
    rng = random.Random(77)
    monkeypatch.setattr(matcher, "SEARCH_BUDGET", 2)
    inexact = 0
    for _ in range(60):
        g1, g2 = random_cluster_graph(rng), random_cluster_graph(rng)
        store = insert_signature(empty_store(), FamilySignature("famA", (g2,)))
        verdict = decide(RuntimeBehaviorSignature("x", g1, Sss()), store, 0.1, "rbg_only", 10**9)
        obj = verdict.to_json_obj()
        if verdict.best_score is None:
            assert "bound" not in obj
        elif verdict.best_score.exact:
            assert obj["exact"] is True and "bound" not in obj
        else:
            inexact += 1
            assert obj["exact"] is False
            assert obj["bound"] == float(verdict.best_score.bound) >= obj["score"]
    assert inexact >= 3


def test_exact_threshold_handles_decimal_text():
    assert exact_threshold(0.8) == Fraction(4, 5)
    assert exact_threshold("0.8") == Fraction(4, 5)
    assert exact_threshold(Fraction(1, 2)) == Fraction(1, 2)
    # a score of exactly 4/5 passes a 0.8 threshold
    assert Fraction(4, 5) >= exact_threshold(0.8)


PINNED_SIMILARITY_SHA256 = "30410229a4a9e283a4f382707da4c61768e5bf8b24e1870b8551249d4f24d5d8"

_WIDE_SYSTEM = ("PackageManager", "PhoneSubInfo", "ISms", "WindowManager", "AudioManager")


def _wide_edges(rng, n_app):
    """A spanning tree over n_app indexed components plus n_app extra edges,
    each to another component or to a system descriptor."""
    tree = [(rng.randrange(i), i, rng.randint(1, 4)) for i in range(1, n_app)]
    return tree + [(rng.randrange(n_app), rng.choice((rng.randrange(n_app), rng.choice(_WIDE_SYSTEM))),
                    rng.randint(1, 4)) for _ in range(n_app)]


def _wide_graph(prefix, kinds, edges):
    apps = [AppComponent(f"{prefix}.C{i}", k) for i, k in enumerate(kinds)]
    targets = [apps[d] if isinstance(d, int) else SystemComponent(d) for _, d, _ in edges]
    return BehaviorGraph.of("runtime", apps + targets,
                            [(apps[s], t, c) for (s, _, c), t in zip(edges, targets)])


def _wide_pair(rng, n_app):
    """An unrelated or a variant pair of n_app-component clusters, in the
    style of scripts/bench_similarity.py."""
    kinds = [rng.choice(("activity", "service")) for _ in range(n_app)]
    edges = _wide_edges(rng, n_app)
    if rng.random() < 0.5:
        other_kinds, other = [rng.choice(("activity", "service")) for _ in kinds], _wide_edges(rng, n_app)
    else:
        other_kinds = kinds
        other = edges[:-2] + [(rng.randrange(n_app), rng.randrange(n_app), rng.randint(1, 4))]
    return _wide_graph("com.a", kinds, edges), _wide_graph("com.b", other_kinds, other)


def test_similarity_results_are_pinned(monkeypatch):
    """Every score, bound and expansion count stays as it is: seeded random
    pairs, a few 10-12-component pairs and every pair among the decoupled
    clusters of six corpus families, at three floors in both argument
    orders, once at the default budget and once cut short at five
    expansions."""
    rng = random.Random(20261018)
    pairs = []
    for _ in range(150):
        g1 = random_cluster_graph(rng, 8, 12)
        pairs.append((g1, perturb_graph(rng, g1) if rng.random() < 0.5 else random_cluster_graph(rng, 8, 12)))
    pairs += [_wide_pair(rng, n_app) for n_app in (10, 10, 11, 11, 12, 12)]
    clusters = [g for seed in range(6) for t in [generate_family(seed)]
                for g in decouple(runtime_graph(t.base_pkg, t.base_trace))]
    pairs += [(a, b) for i, a in enumerate(clusters) for b in clusters[i:]]

    digest = hashlib.sha256()
    for budget in (matcher.SEARCH_BUDGET, 5):
        monkeypatch.setattr(matcher, "SEARCH_BUDGET", budget)
        for g1, g2 in pairs:
            for a, b in ((g1, g2), (g2, g1)):
                digest.update(repr(upper_bound_value(a, b)).encode())
                for floor in (0, Fraction(1, 2), Fraction(4, 5)):
                    s = similarity(a, b, floor)
                    digest.update(repr((s.value, s.matched_vertices, s.matched_edges,
                                        s.exact, s.bound, s.expansions)).encode())
    assert digest.hexdigest() == PINNED_SIMILARITY_SHA256


def _fresh(g):
    """An equal graph built anew, so it has no profile or search tables yet."""
    return BehaviorGraph.of(g.origin, g.nodes.values(),
                            [(g.nodes[s], g.nodes[d], c, content) for (s, d, c), content in g.edges.items()])


def test_warm_search_tables_give_what_cold_ones_give(monkeypatch):
    """A graph's search tables are built at its first search and reused in
    either role.  After every graph has searched every other one, as the
    smaller and as the larger side, each score equals the score of fresh
    copies, whose tables are built by that search."""
    rng = random.Random(20261019)
    graphs = [random_cluster_graph(rng, 8, 12) for _ in range(16)]
    graphs += [perturb_graph(rng, g) for g in graphs[:8]]
    graphs += [g for seed in range(3) for t in [generate_family(seed)]
               for g in decouple(runtime_graph(t.base_pkg, t.base_trace))]
    roles: dict[int, set[str]] = {}
    search = matcher._search

    def recording_search(p1, p2, need):
        roles.setdefault(id(p1), set()).add("smaller")
        roles.setdefault(id(p2), set()).add("larger")
        return search(p1, p2, need)

    monkeypatch.setattr(matcher, "_search", recording_search)
    floors = (0, Fraction(4, 5))
    for a in graphs:
        for b in graphs:
            for floor in floors:
                similarity(a, b, floor)
    assert all(roles[id(g._profile)] == {"smaller", "larger"} for g in graphs)
    for a in graphs:
        for b in graphs:
            for floor in floors:
                assert similarity(a, b, floor) == similarity(_fresh(a), _fresh(b), floor)


# --- store matching -----------------------------------------------------------


def _store_with(*graphs_by_family, blacklist=None, store=None):
    store = empty_store() if store is None else store
    for fid, graphs in graphs_by_family:
        store = insert_signature(store, FamilySignature(fid, tuple(graphs)))
    if blacklist:
        store = merge_blacklist(store, *blacklist)
    return store


def test_self_match_scores_one():
    g1, _ = worked_example_pair()
    store = _store_with(("famA", [g1]))
    hit = match_rbg([g1], store, 0.8)
    assert hit is not None
    assert hit[0] == "famA"
    assert hit[1].value == 1


def test_index_window_prunes_distant_sizes():
    g1, _ = worked_example_pair()  # 2 app components
    big = [AppComponent(f"com.b.C{i}", "service") for i in range(10)]
    big_graph = BehaviorGraph.of("runtime", big, [(big[i], big[i + 1], 5) for i in range(9)])
    store = _store_with(("famBig", [big_graph]))
    assert store.range_candidates(2, 5) == []
    assert match_rbg([g1], store, 0.1, alpha=5) is None


def test_tie_breaks_by_family_id():
    g1, _ = worked_example_pair()
    store = _store_with(("famB", [g1]), ("famA", [g1]))
    hit = match_rbg([g1], store, 0.8)
    assert hit[0] == "famA"
    # Across suspect clusters the earlier cluster's hit is kept on a tie.
    c, d = AppComponent("com.y.C", "receiver"), AppComponent("com.y.D", "provider")
    g_c = BehaviorGraph.of("runtime", [c, d], [(c, d, 31), (d, c, 32)])
    store = _store_with(("famZ", [g1]), ("famA", [g_c]))
    hits = [match_rbg(suspect, store, 0.8) for suspect in ([g1, g_c], [g_c, g1])]
    assert [(family, score.value) for family, score in hits] == [("famZ", 1), ("famA", 1)]


def test_variant_with_junk_component_and_extra_edges_hand_computed():
    # Variant = stored graph + 1 junk component + 2 extra runtime edges.
    # All of the base matches: min_ops = (6-6) + (7-6) + (6-6) + (8-6) = 3,
    # total = 6 + 7 + 6 + 8 = 27, value = 24/27 = 8/9 ~ 0.889 >= 0.8.
    base, _ = worked_example_pair()
    junk = AppComponent("com.x.Junk", "receiver")
    nodes = list(base.nodes.values()) + [junk]
    edges = [(s, d, c) for (s, d, c) in base.edges]
    by_id = base.nodes
    edges_objs = [(by_id[s], by_id[d], c) for (s, d, c) in edges]
    edges_objs.append((by_id["app:com.x.Main"], junk, 14))
    edges_objs.append((junk, by_id["sys:PackageManager"], 2))
    variant = BehaviorGraph.of("runtime", nodes, edges_objs)

    score = similarity(base, variant)
    assert score.value == Fraction(8, 9)

    store = _store_with(("famA", [base]))
    hit = match_rbg([variant], store, 0.8)
    assert hit is not None and hit[0] == "famA"
    assert hit[1].value == Fraction(8, 9)
    assert match_rbg([variant], store, 0.9) is None  # below a stricter threshold


def test_match_rbg_agrees_with_unfloored_scan_of_the_window():
    rng = random.Random(31)
    for trial in range(40):
        pool = [random_cluster_graph(rng) for _ in range(4)]
        families = [(f"fam{i}", [g, perturb_graph(rng, g)]) for i, g in enumerate(pool)]
        store = _store_with(*families)
        suspect = [perturb_graph(rng, rng.choice(pool)), random_cluster_graph(rng)]
        th = rng.choice((Fraction(1, 2), Fraction(7, 10), Fraction(4, 5)))
        alpha = rng.choice((1, 5))
        want = None
        for g in suspect:
            for ref in sorted(store.range_candidates(g.app_count, alpha),
                              key=lambda r: (r.family_id, r.ordinal)):
                value = brute_force_best(g, store.graph(ref))[2]
                if value >= th and (want is None or value > want[1]):
                    want = (ref.family_id, value)
        hit = match_rbg(suspect, store, th, alpha)
        got = None if hit is None else (hit[0], hit[1].value)
        assert got == want, f"trial {trial}"
        assert hit is None or hit[1].exact


def _passes_screen(g1, g2, th):
    shared = (label_mask(g1) & label_mask(g2)).bit_count()
    total = len(g1.nodes) + len(g2.nodes) + len(g1.edges) + len(g2.edges)
    return 2 * shared * th.denominator >= th.numerator * total


def test_match_rbg_searches_no_candidate_below_the_threshold(monkeypatch):
    rng = random.Random(32)
    pool = [random_cluster_graph(rng) for _ in range(12)]
    store = _store_with(*((f"fam{i}", [g, perturb_graph(rng, g)]) for i, g in enumerate(pool)))
    searched = []

    def recording_similarity(g1, g2, floor=0):
        searched.append((g1, g2))
        return similarity(g1, g2, floor)

    monkeypatch.setattr(matcher, "similarity", recording_similarity)
    below = 0
    for _ in range(30):
        suspect = [perturb_graph(rng, rng.choice(pool)), random_cluster_graph(rng)]
        th = rng.choice((Fraction(1, 2), Fraction(7, 10), Fraction(4, 5)))
        searched.clear()
        match_rbg(suspect, store, th, 5)
        assert all(_passes_screen(a, b, th) for a, b in searched)
        below += sum(not _passes_screen(g, store.graph(ref), th)
                     for g in suspect for ref in store.range_candidates(g.app_count, 5))
    assert below > 0  # the window held candidates for the screen to drop


def test_screen_drops_graphs_that_share_kinds_and_codes_but_no_typed_edge(monkeypatch):
    # `back` reverses every app edge of `forth` and moves its system edge to a
    # component of another kind: every kind, system id and code is shared, no
    # (source label, destination label, code) is.
    apps = [AppComponent(f"com.x.C{i}", KINDS[i % len(KINDS)]) for i in range(20)]
    sys_node = SystemComponent("ISms")
    forth = BehaviorGraph.of("runtime", [*apps, sys_node],
                             [(apps[i], apps[i + 1], i) for i in range(19)] + [(apps[0], sys_node, 99)])
    back = BehaviorGraph.of("runtime", [*apps, sys_node],
                            [(apps[i + 1], apps[i], i) for i in range(19)] + [(apps[1], sys_node, 99)])
    assert upper_bound_value(back, forth) == Fraction(2 * 21, 82)  # the nodes alone
    searched = []
    monkeypatch.setattr(matcher, "similarity", lambda *args: searched.append(args))
    assert match_rbg([back], _store_with(("fam", [forth]))) is None
    assert searched == []


def test_window_scan_keeps_no_module_state_and_profiles_only_screened_in_graphs():
    a, b = AppComponent("com.x.A", "activity"), AppComponent("com.x.B", "service")
    near = BehaviorGraph.of("runtime", [a, b], [(a, b, 7), (b, a, 7)])
    c, d = AppComponent("com.y.C", "receiver"), AppComponent("com.y.D", "provider")
    far = BehaviorGraph.of("runtime", [c, d], [(c, d, 31), (d, c, 32)])
    store = _store_with(("near", [near]), ("far", [far]))
    hit = match_rbg([BehaviorGraph.of("runtime", [a, b], [(a, b, 7), (b, a, 7), (a, b, 9)])], store)
    assert hit is not None and hit[0] == "near"
    module_state = {name: value for name, value in vars(matcher).items()
                    if isinstance(value, (dict, list, set)) and not name.startswith("__")}
    assert module_state == {}  # no table for a scan to fill, so none outlives its store
    # the window's counts have their columns, kept by the store snapshot
    assert {key: screen.refs for key, screen in store.screens.items()} == dict(store.window(2, 5))
    assert near._profile is not None
    assert far._profile is None  # the screen dropped it before any profile was built


@functools.lru_cache(maxsize=32)
def _graph_of_size(size: int, shift: int) -> BehaviorGraph:
    """Two app components and ``size - 2`` edges between them, alternately
    ``(B, A, k)`` and ``(A, B, k + shift)``: two such graphs share more edges
    the closer their shifts."""
    a, b = AppComponent("com.z.A", "activity"), AppComponent("com.z.B", "service")
    edges = [(a, b, i // 2 + shift) if i % 2 else (b, a, i // 2) for i in range(size - 2)]
    return BehaviorGraph.of("runtime", [a, b], edges)


# Thresholds of every shape: tiny and 9-digit denominators, both ends, and the
# default.  Large denominators and sizes coarsen the packed compare.
SCREEN_THRESHOLDS = (Fraction(1, 3), Fraction(8137, 10000), Fraction(123456789, 987654321),
                     Fraction(1, 10**6), Fraction(0), Fraction(1), Fraction(1, 2), Fraction(4, 5))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from((None,) * 10 + (2 ** 13, 2 ** 16)))
@example(0, 2 ** 13)
@example(0, 2 ** 16)
def test_column_screen_returns_the_per_candidate_screens_pairs(seed, huge):
    rng = random.Random(seed)
    pool = [random_cluster_graph(rng, rng.choice((3, 6, 10)), rng.choice((8, 14, 24)))
            for _ in range(rng.randint(2, 14))]
    families = [(f"fam{i}", [g, perturb_graph(rng, g)]) for i, g in enumerate(pool)]
    # Sizes at the 16-bit field limit (every size below 2**11) and just past it.
    limit = 2 ** 11 - 1
    families.append(("edge", [_graph_of_size(limit, rng.randint(0, 40)),
                              _graph_of_size(limit - rng.randint(0, 3), rng.randint(0, 40))]))
    if rng.random() < 0.5:
        families.append(("past", [_graph_of_size(limit + 1, 7)]))
    if huge:  # where a field with less headroom would overflow
        families.append(("huge", [_graph_of_size(huge - 1 - rng.randint(0, 9), rng.randint(0, 40))]))
    store = _store_with(*families[: len(families) // 2])
    # The last suspect is larger than every stored graph, or as large as the huge one.
    suspects = [perturb_graph(rng, rng.choice(pool)), random_cluster_graph(rng, 10, 24),
                _graph_of_size(rng.choice((2, 40, limit)), rng.randint(0, 40)),
                _graph_of_size(huge or 3 * limit, rng.randint(0, 40))]
    for step, family in enumerate(families[len(families) // 2:] + [None]):
        for g in suspects:
            drawn = rng.choice((*SCREEN_THRESHOLDS, Fraction(rng.randint(0, 10**9), 10**9)))
            # Against the whole store, the huge pair also meets the thresholds that coarsen most.
            extreme = huge and family is None and g is suspects[-1]
            for th in (drawn, Fraction(1, 10**6), Fraction(8137, 10000)) if extreme else (drawn,):
                alpha = rng.choice((0, 2, 5, 100))
                got = matcher._screen(store, g, th.numerator, 2 * th.denominator, alpha)
                want = screen_reference(store, g, th, alpha)
                assert sorted(got, key=_pair_key) == sorted(want, key=_pair_key), (step, th, alpha)
        if family is not None:  # the next snapshot derives the columns of the count it touched
            store = _store_with(family, store=store)


def _pair_key(pair):
    return pair[0].family_id, pair[0].ordinal, pair[1]


def _columns(screen):
    return screen.refs, screen.width, screen.cols, screen.sizes, screen.ones, screen.highs


def test_columns_derived_over_a_chain_of_inserts_equal_columns_built_from_scratch(monkeypatch):
    rng = random.Random(44)
    derived = []
    build = matcher._KeyScreen

    def recording_build(store, refs, prior=None):
        screen = build(store, refs, prior)
        if prior is not None and screen.cols is not prior.cols and len(prior.cols) <= len(screen.cols):
            derived.append(len(refs) - len(prior.refs))
        return screen

    monkeypatch.setattr(matcher, "_KeyScreen", recording_build)
    pool = [random_cluster_graph(rng, 6, 12) for _ in range(8)]
    store = _store_with(*((f"fam{i}", [g]) for i, g in enumerate(pool)))
    for step in range(40):
        fid = f"fam{rng.randrange(10)}"
        grown = [perturb_graph(rng, rng.choice(pool))]
        if step % 9 == 8:  # past the 16-bit field limit: this count's columns widen
            grown.append(_graph_of_size(2 ** 11 + step, 5))
        store = _store_with((fid, grown), store=store)
        for g in rng.sample(pool, 2):
            match_rbg([g], store, Fraction(1, 2), rng.choice((1, 3)))
    match_rbg([pool[0]], store, Fraction(1, 2), 10**6)  # the last inserts' counts too
    assert len(derived) >= 10 and max(derived) >= 2  # some counts took several inserts at once
    assert set(store.screens) == set(store.index.keys())
    for key, refs in store.window(0, 10**6):
        assert _columns(store.screens[key]) == _columns(build(store, refs)), key


def test_an_insert_builds_no_columns_and_the_next_scan_derives_only_its_count(monkeypatch):
    rng = random.Random(45)
    pool = [random_cluster_graph(rng, 6, 12) for _ in range(16)]
    store = _store_with(*((f"fam{i}", [g]) for i, g in enumerate(pool)))
    probe = random_cluster_graph(rng, 6, 12)
    match_rbg([probe], store, Fraction(1, 2), 100)
    before = dict(store.screens)
    assert set(before) == set(store.index.keys()) and len(before) >= 3
    grown = next(g for g in (perturb_graph(rng, pool[0]) for _ in range(100))
                 if g.app_count in before and g not in pool)
    calls = []
    build = matcher._KeyScreen

    def counting_build(store, refs, prior=None):
        calls.append((refs, prior))
        return build(store, refs, prior)

    monkeypatch.setattr(matcher, "_KeyScreen", counting_build)
    new = insert_signature(store, FamilySignature("fam0", (grown,)))
    assert calls == []  # nothing is built at insert
    assert all(new.screens[key] is screen for key, screen in before.items())  # all shared
    match_rbg([probe], new, Fraction(1, 2), 100)
    touched = grown.app_count
    assert [(refs, prior) for refs, prior in calls] == [(dict(new.window(touched, 0))[touched],
                                                          before[touched])]
    assert calls[0][0][:-1] == before[touched].refs
    assert all(new.screens[key] is screen for key, screen in before.items() if key != touched)
    assert store.screens == before  # the old snapshot keeps its own columns, unchanged
    assert _columns(before[touched]) == _columns(build(store, before[touched].refs))


def test_threads_building_and_deriving_columns_at_once_screen_like_the_reference():
    rng = random.Random(46)
    pool = [random_cluster_graph(rng, 6, 12) for _ in range(24)]
    families = [(f"fam{i}", [g, perturb_graph(rng, g)]) for i, g in enumerate(pool)]
    old = _store_with(*families)
    match_rbg([pool[0]], old, Fraction(1, 2), 100)  # every count's columns, for grown to derive from
    grown = _store_with(*((f"fam{i}", [perturb_graph(rng, pool[i])]) for i in range(0, 24, 5)), store=old)
    store = _store_with(*families)  # builds all of its columns from scratch
    suspects = [perturb_graph(rng, g) for g in pool[:12]]
    th = Fraction(1, 2)
    want = {(id(s), id(g)): sorted(screen_reference(s, g, th, 3), key=_pair_key)
            for s in (store, grown) for g in suspects}
    failures = []

    def scan(worker):
        try:
            for g in suspects[worker % 4:] + suspects[:worker % 4]:
                for s in (store, grown) if worker % 2 else (grown, store):
                    got = matcher._screen(s, g, th.numerator, 2 * th.denominator, 3)
                    if sorted(got, key=_pair_key) != want[id(s), id(g)]:
                        failures.append((worker, g))
        except Exception as exc:  # noqa: BLE001  reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=scan, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert set(grown.screens) == set(grown.index.keys())


def _reachable(obj, depth):
    """Objects reachable from obj in at most ``depth`` references, types excluded."""
    seen, frontier = {id(obj)}, [obj]
    for _ in range(depth):
        found = []
        for o in frontier:
            for r in gc.get_referents(o):
                if not isinstance(r, type) and id(r) not in seen:
                    seen.add(id(r))
                    found.append(r)
        yield from found
        frontier = found


def test_window_scan_builds_each_graphs_search_tables_once(monkeypatch):
    rng = random.Random(14)
    pool = [random_cluster_graph(rng, 8, 12) for _ in range(10)]
    store = _store_with(*((f"fam{i}", [g, perturb_graph(rng, g)]) for i, g in enumerate(pool)))
    # Variants only: an unrelated suspect is dropped by the screen and gets no profile.
    suspect = [perturb_graph(rng, g) for g in pool]
    builds: list[int] = []
    build = matcher._Profile

    def counting_build(g):
        builds.append(id(g))
        return build(g)

    monkeypatch.setattr(matcher, "_Profile", counting_build)
    first = [match_rbg([g], store, Fraction(1, 2)) for g in suspect]
    built = len(builds)
    assert [match_rbg([g], store, Fraction(1, 2)) for g in suspect] == first
    assert len(builds) == built  # the second scan reuses every profile
    assert len(builds) == len(set(builds))
    stored = [store.graph(ref) for ref in store.range_candidates(0, 100)]
    searched = [g for g in stored if g._profile is not None]
    assert len(searched) >= 5
    for g in searched + suspect:
        reachable = list(_reachable(g._profile, 8))
        assert any(r is g.edges for r in reachable)  # the walk does reach the graph's own parts
        assert not any(r is g for r in reachable)


def test_decide_builds_the_suspects_tables_per_request_and_the_stored_ones_once(monkeypatch):
    """Per request by design: ``decide`` searches the clusters that ``decouple``
    makes anew, so the caller's signature keeps no tables and none outlive the
    request, while a stored graph's tables are built at its first search only."""
    g1, g2 = worked_example_pair()
    store = _store_with(("famA", [g2]))
    (ref,) = store.range_candidates(g2.app_count, 0)
    sig = RuntimeBehaviorSignature("com.x", g1, Sss())
    built = []
    build = matcher._Profile

    def counting_build(g):
        built.append(g)
        return build(g)

    monkeypatch.setattr(matcher, "_Profile", counting_build)
    for _ in range(2):
        assert decide(sig, store, mode="rbg_only").family == "famA"
    suspects = [g for g in built if g is not store.graph(ref)]
    assert len(suspects) == 2 and suspects[0] is not suspects[1] and suspects == [g1, g1]
    assert len(built) == 3  # and the stored graph's, once
    assert sig.rbg._profile is None


def test_decoupled_and_admitted_graphs_are_not_checked_for_clusters_again(monkeypatch):
    g1, g2 = worked_example_pair()
    store = _store_with(("famA", [g2]))
    checked = []
    clusters = matcher.app_clusters
    monkeypatch.setattr(matcher, "app_clusters", lambda g: checked.append(g) or clusters(g))
    assert decide(RuntimeBehaviorSignature("com.x", g1, Sss()), store, mode="rbg_only").family == "famA"
    assert checked == []  # the suspect's clusters come from decouple, the stored graph was admitted
    a, b = _fresh(g1), _fresh(g2)
    similarity(a, b)
    assert checked == [a, b]  # any other graph is checked at its first search


def test_threads_searching_cold_stored_graphs_in_both_roles_score_like_a_serial_run():
    rng = random.Random(47)
    pool = [random_cluster_graph(rng, rng.choice((3, 6, 8)), 14) for _ in range(10)]
    pool += [perturb_graph(rng, g) for g in pool[:4]]
    store = _store_with(*((f"fam{i}", [g]) for i, g in enumerate(pool)))
    graphs = [store.graph(ref) for ref in store.range_candidates(0, 100)]
    assert len({g.app_count for g in graphs}) >= 3  # so each graph plays both roles
    tasks = [(a, b, floor) for a in graphs for b in graphs for floor in (0, Fraction(4, 5))]
    want = [similarity(_fresh(a), _fresh(b), floor) for a, b, floor in tasks]
    assert all(g._profile is None for g in graphs)
    failures = []

    def search(worker):
        try:
            start = worker * len(tasks) // 8
            for i in [*range(start, len(tasks)), *range(start)]:
                if similarity(*tasks[i]) != want[i]:
                    failures.append((worker, i))
        except Exception as exc:  # noqa: BLE001  reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=search, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def test_screen_fields_are_sized_to_their_count():
    store = _store_with(("a", [_graph_of_size(20, 0)]), ("b", [_graph_of_size(40, 1)]))
    match_rbg([_graph_of_size(30, 0)], store, Fraction(1, 2), 0)
    assert store.screens[2].width == (40).bit_length() + 5  # not rounded up to 16 bits


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_label_masks_never_undercount_shared_tokens(seed):
    rng = random.Random(seed)
    g1 = random_cluster_graph(rng, 8, 12)
    g2 = perturb_graph(rng, g1) if rng.random() < 0.5 else random_cluster_graph(rng, 8, 12)
    for a, b in ((g1, g2), (_coarsened(g1), g2), (_coarsened(g1), _coarsened(g2))):
        total = len(a.nodes) + len(b.nodes) + len(a.edges) + len(b.edges)
        for x, y in ((a, b), (b, a)):
            shared = (label_mask(x) & label_mask(y)).bit_count()
            assert 2 * shared >= count_bound_reference(x, y) * total


def test_screen_is_linear_when_every_label_shares_one_bucket():
    # Each edge of `piled` has a code whose edge label hashes into bucket 0, so
    # it takes the next bit up in that bucket's run: one column per bit, and
    # the screen sums as many columns as `spread`'s.
    a, b = AppComponent("com.x.A", "activity"), AppComponent("com.x.B", "service")
    n = 20_000
    codes = islice(filter(lambda k: hash((a.kind, b.kind, k)) % matcher.MASK_WIDTH == 0, count()), n)
    piled = BehaviorGraph.of("runtime", [a, b], [(a, b, k) for k in codes])
    spread = BehaviorGraph.of("runtime", [a, b], [(a, b, k) for k in range(n)])

    def fastest(g):
        store, runs = _store_with(("fam", [g])), []
        (ref,), = (refs for _, refs in store.window(g.app_count, 0))
        for _ in range(3):
            store.screens.clear()  # the first scan of the count builds its _KeyScreen
            start = time.perf_counter()
            bits = matcher._label_bits(g)
            found = matcher._screen(store, g, 4, 10, 0)
            runs.append(time.perf_counter() - start)
        assert found == [(ref, n + 2)]
        assert len(store.screens[g.app_count].cols) == len(set(bits)) == n + 2
        return min(runs), bits

    (piled_s, piled_bits), (spread_s, spread_bits) = fastest(piled), fastest(spread)
    assert max(piled_bits) >= (n - 1) * matcher.MASK_WIDTH
    assert max(spread_bits) < n * matcher.MASK_WIDTH // 64
    assert piled_s < 10 * spread_s + 0.05  # a quadratic screen needs seconds at this size


def _corpus_window_results():
    size = SizeParams(benign_components=(0, 0))
    templates = [generate_family(7000 + i, size) for i in range(24)]
    store = _store_with(*((f"c{i:02d}", [malicious_graph(t)]) for i, t in enumerate(templates)))
    suspects = [decouple(runtime_graph(t.base_pkg, t.base_trace))
                for t in (generate_family(8000 + i, size) for i in range(6))]
    for i, t in enumerate(templates[:12]):
        try:
            suspects.append(decouple(runtime_graph(*apply_transform(t, TransformOp(1 + i), seed=i))))
        except InapplicableTransform:
            continue
    return [match_rbg(s, store, th, 5) for s in suspects for th in (Fraction(1, 2), Fraction(4, 5))]


def test_match_rbg_is_the_same_when_every_label_shares_one_bucket(monkeypatch):
    wide = _corpus_window_results()
    monkeypatch.setattr(matcher, "MASK_WIDTH", 1)
    assert _corpus_window_results() == wide
    assert sum(hit is not None for hit in wide) >= 12


def test_match_sss_intersection():
    bl = Sss(endpoints=["c2.evil.net:443"], executables=["/data/local/secbino"])
    hits = match_sss(Sss(frozenset({"c2.evil.net:443", "ok.com:80"}),
                         frozenset({"/data/local/secbino"})), bl)
    assert hits == ["c2.evil.net:443", "/data/local/secbino"]
    assert match_sss(Sss(frozenset({"other:1"}), frozenset()), bl) == []


def test_sss_endpoint_host_is_matched_in_any_case():
    store = merge_blacklist(empty_store(), ["c2.example.net:9090"], [])
    suspect = sss_from_json_obj({"endpoints": ["C2.example.NET:9090"]})
    signature = RuntimeBehaviorSignature("a", BehaviorGraph("runtime", {}, {}), suspect)
    verdict = decide(signature, store, mode="sss_only")
    assert verdict.decision == "malicious"
    assert verdict.matched_blacklist == ("c2.example.net:9090",)


def test_decide_mode_isolation():
    g1, _ = worked_example_pair()
    clean_graph = BehaviorGraph.of(
        "runtime",
        [AppComponent("com.c.Solo", "receiver"), SystemComponent("JobScheduler")],
        [(AppComponent("com.c.Solo", "receiver"), SystemComponent("JobScheduler"), 11)],
    )
    store = _store_with(("famA", [g1]), blacklist=(["c2.evil.net:443"], []))
    dirty_sss = Sss(frozenset({"c2.evil.net:443"}), frozenset())

    sig = RuntimeBehaviorSignature("com.c", clean_graph, dirty_sss)
    assert decide(sig, store, mode="rbg_only").decision == "clean"
    v = decide(sig, store, mode="combined")
    assert v.decision == "malicious"
    assert v.matched_blacklist == ("c2.evil.net:443",)
    assert v.family is None

    clean_sig = RuntimeBehaviorSignature("com.c", clean_graph, Sss())
    assert decide(clean_sig, store, mode="combined").decision == "clean"

    hot_sig = RuntimeBehaviorSignature("com.x", g1, Sss())
    verdict = decide(hot_sig, store, mode="rbg_only")
    assert verdict.decision == "malicious"
    assert verdict.family == "famA"
    assert verdict.best_score.value == 1


def test_verdict_json_shape():
    g1, _ = worked_example_pair()
    store = _store_with(("famA", [g1]))
    verdict = decide(RuntimeBehaviorSignature("com.x", g1, Sss()), store, mode="rbg_only")
    obj = verdict.to_json_obj()
    assert obj["decision"] == "malicious"
    assert obj["family"] == "famA"
    assert obj["score"] == 1.0
    assert obj["exact"] is True
    assert "matched_blacklist" not in obj


def test_signature_requires_runtime_origin():
    static = BehaviorGraph.of("static", [AppComponent("com.a.M", "activity")], [])
    with pytest.raises(ValueError):
        RuntimeBehaviorSignature("com.a", static, Sss())
