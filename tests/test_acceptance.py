"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import random
import statistics
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from monet.behavior_graph import decouple, graph_to_json_obj
from monet.bptree import BplusIndex
from monet.corpus import (
    SizeParams,
    TransformOp,
    apply_transform,
    family_blacklist,
    family_signature,
    generate_benign,
    generate_family,
)
from monet.dataflow import EXIT, build_cfg, reaching_definitions
from monet.matcher import decide, match_rbg, similarity
from monet.pipeline import signature_of
from monet.service import DetectionService
from monet.sigstore import (
    ChecksumMismatch,
    empty_store,
    insert_signature,
    load_store,
    merge_blacklist,
    save_store,
)

from conftest import http_json, running_server
from oracles import (
    brute_force_best,
    chaotic_reaching_definitions,
    perturb_graph,
    random_cluster_graph,
    random_method,
    random_multi_cluster_rbg,
)
from test_matcher import worked_example_pair

SEMANTIC_OPS = (1, 2, 5, 6, 8, 9, 10)
HIDING_OPS = (3, 4, 7, 11, 12)


def _ok(criterion: int, message: str) -> None:
    print(f"[acceptance] C{criterion} PASS - {message}")


def test_c01_worked_example_similarity_exact_and_fast():
    g1, g2 = worked_example_pair()
    assert len(g1.nodes) == 6 and len(g1.edges) == 6
    assert len(g2.nodes) == 6 and len(g2.edges) == 6
    score = similarity(g1, g2)  # warm caches before timing
    assert score.value == 1 - Fraction(2, 24) == Fraction(11, 12)
    assert f"{float(score.value):.4f}" == "0.9167"
    best = min(
        _timed(lambda: similarity(g1, g2)) for _ in range(5)
    )
    assert best < 0.001, f"similarity took {best * 1000:.3f} ms"
    _ok(1, f"value=11/12 exactly, runtime {best * 1e6:.0f} us")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_c02_similarity_equals_brute_force_enumeration():
    rng = random.Random(20240611)
    start = time.perf_counter()
    checked = 0
    while checked < 200:
        g1 = random_cluster_graph(rng, max_app=6, max_total=8)
        g2 = perturb_graph(rng, g1) if rng.random() < 0.6 else random_cluster_graph(rng, 6, 8)
        assert len(g1.nodes) <= 8 and len(g2.nodes) <= 8
        score = similarity(g1, g2)
        assert score.exact
        mv, me, value = brute_force_best(g1, g2)
        assert score.value == value, f"pair {checked}: {score.value} != {value}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _ok(2, f"{checked} pairs equal to enumeration in {elapsed:.1f}s")


def test_c03_reaching_definitions_match_chaotic_oracle():
    rng = random.Random(31415)
    mismatches = 0
    for _ in range(500):
        cfg = build_cfg(random_method(rng, max_blocks=20, n_vars=6))
        sets = reaching_definitions(cfg)
        in_o, out_o = chaotic_reaching_definitions(cfg, rng)
        for bid in (*cfg.blocks, EXIT):
            if sets.in_[bid] != in_o[bid] or sets.out[bid] != out_o[bid]:
                mismatches += 1
    assert mismatches == 0
    _ok(3, "500 random CFGs, zero IN/OUT mismatches")


def test_c04_decoupling_invariants_hold():
    from test_behavior_graph import _shared_system_fixture

    rng = random.Random(2718)
    for _ in range(200):
        g = random_multi_cluster_rbg(rng)
        parts = decouple(g)
        apps = Counter()
        placed = Counter()
        for part in parts:
            apps.update(n for n in part.nodes if n.startswith("app:"))
            placed.update(part.edges.keys())
            again = decouple(part)
            assert len(again) == 1 and again[0] == part
        assert apps == Counter(n for n in g.nodes if n.startswith("app:"))
        assert placed == Counter(g.edges.keys())

    parts = decouple(_shared_system_fixture())
    assert len(parts) == 2
    host = next(g for g in parts if "app:com.host.Main" in g.nodes)
    inject = next(g for g in parts if "app:com.inject.Cmd" in g.nodes)
    assert "sys:PackageManager" in host.nodes and "sys:PackageManager" in inject.nodes
    assert "sys:ISms" not in host.nodes
    assert ("app:com.inject.Cmd", "sys:ISms", 5) in inject.edges
    _ok(4, "200 random graphs: partition, conservation, idempotence; fixture splits into 2")


def test_c05_transformation_resilience_and_false_positive_rate():
    start = time.perf_counter()
    families = 10
    master_seed = 7

    store = empty_store()
    templates = []
    for i in range(families):
        t = generate_family(master_seed * 100_000 + i)
        templates.append(t)
        store = insert_signature(store, family_signature(t, f"fam{i:04d}"))
        eps, exes = family_blacklist(t)
        store = merge_blacklist(store, eps, exes)

    semantic_hits = semantic_total = 0
    hiding_hits = hiding_total = 0
    pruning_disagreements = 0
    for t in templates:
        for op_id in range(1, 13):
            pkg, trace = apply_transform(t, TransformOp(op_id), seed=master_seed + op_id)
            suspect = decouple(signature_of(pkg, trace).rbg)
            hit = match_rbg(suspect, store, 0.8, alpha=5)
            full = match_rbg(suspect, store, 0.8, alpha=10**9)
            if (hit is None) != (full is None):
                pruning_disagreements += 1
            if op_id in SEMANTIC_OPS:
                semantic_total += 1
                assert hit is not None, f"op {op_id} missed for seed {t.seed}"
                assert hit[1].value == 1, f"op {op_id} score {hit[1].value} != 1"
                semantic_hits += 1
            else:
                hiding_total += 1
                hiding_hits += 1 if hit is not None else 0
    assert semantic_hits == semantic_total == families * len(SEMANTIC_OPS)
    assert hiding_hits / hiding_total >= 0.95, f"hiding ops at {hiding_hits}/{hiding_total}"
    assert pruning_disagreements == 0

    base_graphs = [store.graph(r) for r in store.range_candidates(0, 10**9)]
    false_positives = 0
    for b in range(500):
        pkg, trace, _, _ = generate_benign(master_seed * 1_000_000 + b, SizeParams(), base_graphs)
        sig = signature_of(pkg, trace)
        for mode in ("rbg_only", "sss_only", "combined"):
            verdict = decide(sig, store, 0.8, mode, alpha=5)
            if verdict.decision == "malicious":
                false_positives += 1
    assert false_positives == 0

    elapsed = time.perf_counter() - start
    assert elapsed < 600
    _ok(5, f"semantic ops {semantic_hits}/{semantic_total} at 1.0, "
           f"hiding ops {hiding_hits}/{hiding_total}, 500 benign FPR=0, {elapsed:.0f}s")


def test_c06_index_scale_audit_and_latency_trend():
    rng = random.Random(60601)
    tree = BplusIndex()
    mirror: list[tuple[int, int]] = []

    def bulk_insert(tree, count):
        for i in range(count):
            key = rng.randrange(0, 1_000_000) * 2  # even keys; odd band stays empty
            ref = len(mirror)
            tree = tree.insert(key, ref)
            mirror.append((key, ref))
            if len(mirror) % 1000 == 0:
                tree.audit()
        return tree

    tree = bulk_insert(tree, 5000)

    def median_query_time(tree, queries):
        times = []
        for lo, hi in queries:
            t0 = time.perf_counter()
            tree.range(lo, hi)
            times.append(time.perf_counter() - t0)
        times.sort()
        return times[len(times) // 2]

    probe = [(k, k) for k in rng.sample(range(1, 2_000_000, 2), 400)]  # k = 0 for all
    t_half = min(median_query_time(tree, probe) for _ in range(3))

    tree = bulk_insert(tree, 5000)
    t_full = min(median_query_time(tree, probe) for _ in range(3))

    assert len(mirror) == 10_000
    tree.audit()

    for _ in range(100):
        n = rng.randrange(0, 2_000_000)
        alpha = rng.randrange(0, 20_000)
        got = set(tree.range(max(0, n - alpha), n + alpha))
        expect = {ref for key, ref in mirror if n - alpha <= key <= n + alpha}
        assert got == expect

    ratio = t_full / t_half if t_half > 0 else 1.0
    assert ratio < 2.0, f"doubling ratio {ratio:.2f}"
    _ok(6, f"10k inserts audited, 100 range queries equal linear scan, "
           f"doubling ratio {ratio:.2f}")


def test_c07_match_latency_against_thousand_signature_store():
    size = SizeParams(benign_components=(0, 0))
    store = empty_store()
    for i in range(1000):
        t = generate_family(500_000 + i, size)
        store = insert_signature(store, family_signature(t, f"fam{i:04d}"))
    assert store.graph_count() == 1000

    suspect_template = generate_family(999_999, size)
    sig = signature_of(suspect_template.base_pkg, suspect_template.base_trace)
    assert len(sig.rbg.nodes) <= 50
    # every stored graph is inside the alpha window: worst-case candidate load
    n = decouple(sig.rbg)[0].app_count
    assert len(store.range_candidates(n, 5)) == 1000

    # The first call also builds the matcher profiles of the window's graphs,
    # so the cold call and the warm calls are timed apart.
    times = []
    for _ in range(4):
        start = time.perf_counter()
        verdict = decide(sig, store, 0.8, "combined", alpha=5)
        times.append(time.perf_counter() - start)
        assert verdict.decision == "clean"  # unrelated seed: no family matches
    cold, warm = times[0], statistics.median(times[1:])
    assert cold < 1.0, f"cold match took {cold:.3f}s"
    assert warm < 1.0, f"warm match took {warm:.3f}s (median of 3)"
    _ok(7, f"1 signature vs 1000-signature store: cold {cold * 1000:.0f} ms, "
           f"warm {warm * 1000:.1f} ms (median of 3)")


def _request_bodies(templates, count):
    bodies = []
    for i in range(count):
        t = templates[i % len(templates)]
        sig = signature_of(t.base_pkg, t.base_trace)
        bodies.append({
            "signature": {
                "app": sig.app,
                "rbg": graph_to_json_obj(sig.rbg),
                "sss": {"endpoints": sorted(sig.sss.endpoints),
                        "executables": sorted(sig.sss.executables)},
            },
            "mode": ("combined", "rbg_only", "sss_only")[i % 3],
        })
    return bodies


def test_c08_service_concurrency_and_snapshot_isolation():
    store = empty_store()
    templates = [generate_family(700 + i) for i in range(3)]
    for i, t in enumerate(templates):
        store = insert_signature(store, family_signature(t, f"fam{i}"))
        eps, exes = family_blacklist(t)
        store = merge_blacklist(store, eps, exes)

    bodies = _request_bodies(templates, 100)
    service = DetectionService(store)
    serial = [service.handle_match(json.loads(json.dumps(b))) for b in bodies]
    with running_server(store) as addr:
        with ThreadPoolExecutor(max_workers=16) as pool:
            concurrent = list(pool.map(
                lambda b: http_json(addr, "POST", "/v1/match", b)[1], bodies
            ))
    for s, c in zip(serial, concurrent):
        s.pop("timing_ms"), c.pop("timing_ms")
    assert serial == concurrent

    # snapshot isolation: a mid-burst insert may only flip verdicts for
    # requests served from the new snapshot, atomically
    newcomer = generate_family(777)
    new_sig = signature_of(newcomer.base_pkg, newcomer.base_trace)
    new_body = _request_bodies([newcomer], 1)[0]
    new_body["mode"] = "rbg_only"
    fam_payload = {
        "family_id": "famNEW",
        "graphs": [graph_to_json_obj(g) for g in decouple(new_sig.rbg)
                   if {c.name for c in g.app_components()} <= newcomer.malicious_cluster],
    }
    v0 = store.version
    with running_server(store) as addr:
        results = []
        lock = threading.Lock()

        def fire(_):
            _, resp = http_json(addr, "POST", "/v1/match", new_body)
            with lock:
                results.append(resp)

        inserted = {}

        def insert_midway():
            time.sleep(0.01)
            inserted["resp"] = http_json(addr, "POST", "/v1/signatures", fam_payload)[1]

        with ThreadPoolExecutor(max_workers=16) as pool:
            ins = pool.submit(insert_midway)
            list(pool.map(fire, range(60)))
            ins.result()

    assert inserted["resp"]["store_version"] == v0 + 1
    for resp in results:
        if resp["store_version"] == v0:
            assert resp["verdict"]["decision"] == "clean"
        else:
            assert resp["store_version"] == v0 + 1
            assert resp["verdict"]["decision"] == "malicious"
            assert resp["verdict"]["family"] == "famNEW"
    _ok(8, "100 concurrent == serial; in-flight verdicts isolated from insert")


def test_c09_store_persistence_round_trip_and_fail_closed(tmp_path):
    rng = random.Random(909)
    for trial in range(8):
        store = empty_store()
        for i in range(rng.randint(0, 5)):
            fid = f"f{trial}_{i}"
            store = insert_signature(
                store, family_signature(generate_family(9000 + trial * 10 + i), fid)
            )
        if rng.random() < 0.6:
            store = merge_blacklist(store, [f"host{trial}.net:443"], [f"/bin/x{trial}"])
        path = tmp_path / f"store{trial}"
        save_store(store, path)
        assert load_store(path) == store

    target = tmp_path / "store1"
    files = sorted(p for p in target.rglob("*") if p.is_file() and p.name != "store.crc")
    victim = files[rng.randrange(len(files))]
    victim.write_bytes(victim.read_bytes()[: max(1, victim.stat().st_size // 2)])
    with pytest.raises(ChecksumMismatch):
        load_store(target)
    _ok(9, "8 randomized stores round-trip equal; truncation fails closed")


def test_c10_offline_bundle_parity_with_server(tmp_path):
    store = empty_store()
    templates = [generate_family(820 + i) for i in range(4)]
    for i, t in enumerate(templates):
        store = insert_signature(store, family_signature(t, f"fam{i}"))
        eps, exes = family_blacklist(t)
        store = merge_blacklist(store, eps, exes)
    bundle = tmp_path / "bundle"
    save_store(store, bundle)

    offline_store = load_store(bundle)
    probes = templates + [generate_family(830 + i) for i in range(3)]
    bodies = _request_bodies(probes, 10)
    offline_verdicts = []
    for body in bodies:
        from monet.service import _parse_signature

        sig = _parse_signature(body["signature"])
        offline_verdicts.append(decide(sig, offline_store, 0.8, body["mode"]).to_json_obj())

    with running_server(store) as addr:
        online = [http_json(addr, "POST", "/v1/match", b)[1]["verdict"] for b in bodies]
    assert offline_verdicts == online
    _ok(10, "offline preloaded verdicts equal server verdicts for 10 requests")
