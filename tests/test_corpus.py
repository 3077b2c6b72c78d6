import hashlib
import json
from fractions import Fraction

import pytest

from monet.behavior_graph import decouple
from monet.corpus import (
    InapplicableTransform,
    SizeParams,
    TransformOp,
    apply_transform,
    family_blacklist,
    family_signature,
    generate_benign,
    generate_family,
    malicious_graph,
    run_eval,
)
from monet.matcher import similarity
from monet.pipeline import runtime_graph, signature_of, static_graph
from monet.app_model import render_package, validate_package
from monet.trace import render_trace

SEMANTIC_OPS = (1, 2, 5, 6, 8, 9, 10)
HIDING_OPS = (3, 4, 7, 11, 12)


def test_same_seed_same_template():
    assert generate_family(12) == generate_family(12)
    assert generate_family(12) != generate_family(13)


def test_template_decouples_into_designated_clusters():
    for seed in (1, 2, 9):
        t = generate_family(seed)
        parts = decouple(runtime_graph(t.base_pkg, t.base_trace))
        clusters = {frozenset(c.name for c in g.app_components()) for g in parts}
        assert clusters == {t.malicious_cluster, t.benign_cluster}
        assert len(runtime_graph(t.base_pkg, t.base_trace).nodes) < 50


def test_single_cluster_template():
    t = generate_family(4, SizeParams(malicious_components=(1, 1), benign_components=(0, 0)))
    assert t.benign_cluster is None
    parts = decouple(runtime_graph(t.base_pkg, t.base_trace))
    assert len(parts) == 1
    assert frozenset(c.name for c in parts[0].app_components()) == t.malicious_cluster


def test_transforms_produce_valid_packages():
    t = generate_family(21)
    for op_id in range(1, 13):
        pkg, trace = apply_transform(t, TransformOp(op_id), seed=3)
        validate_package(pkg)
        runtime_graph(pkg, trace)  # must complete without errors


def test_semantic_ops_preserve_runtime_graph_exactly():
    for seed in (5, 6):
        t = generate_family(seed)
        base = malicious_graph(t)
        for op_id in SEMANTIC_OPS:
            pkg, trace = apply_transform(t, TransformOp(op_id), seed=seed)
            parts = decouple(runtime_graph(pkg, trace))
            best = max(similarity(base, g).value for g in parts)
            assert best == 1, f"op {op_id} not similarity-preserving"


def test_hiding_ops_change_sbg_but_keep_rbg_close():
    for seed in (7, 8):
        t = generate_family(seed)
        base_sbg = static_graph(t.base_pkg)
        base = malicious_graph(t)
        for op_id in HIDING_OPS:
            pkg, trace = apply_transform(t, TransformOp(op_id), seed=seed)
            sbg = static_graph(pkg)
            if op_id == 7:
                assert len(sbg.edges) > len(base_sbg.edges)  # junk wiring adds structure
            else:
                assert len(sbg.edges) < len(base_sbg.edges)  # static resolution degraded
            parts = decouple(runtime_graph(pkg, trace))
            best = max(similarity(base, g).value for g in parts)
            assert best >= Fraction(4, 5), f"op {op_id} fell below threshold: {best}"


def test_class_rename_touches_every_occurrence():
    t = generate_family(10)
    pkg, trace = apply_transform(t, TransformOp(1), seed=1)
    old_names = {c.name for c in t.base_pkg.components}
    assert not old_names & {c.name for c in pkg.components}
    for records in (trace.binder,):
        for r in records:
            assert r.caller not in old_names
            if r.target[0] == "component":
                assert r.target[1] not in old_names
    for ms in pkg.methods.values():
        for m in ms:
            for _, instrs in m.blocks:
                for i in instrs:
                    if i.op == "assign_class":
                        assert i.arg not in old_names


def test_junk_components_grow_the_malicious_cluster():
    t = generate_family(11)
    base = malicious_graph(t)
    pkg, trace = apply_transform(t, TransformOp(7), seed=2)
    parts = decouple(runtime_graph(pkg, trace))
    grown = max(parts, key=lambda g: g.app_count)
    assert grown.app_count == base.app_count + 2
    # edit cost: two junk nodes plus their two wiring edges, all on one side
    v1, e1 = len(base.nodes), len(base.edges)
    v2, e2 = len(grown.nodes), len(grown.edges)
    expected = 1 - Fraction((v2 - v1) + (e2 - e1), v1 + v2 + e1 + e2)
    assert similarity(base, grown).value == expected


def test_dynamic_loading_marks_trace_and_drops_component():
    t = generate_family(14)
    pkg, trace = apply_transform(t, TransformOp(12), seed=0)
    dropped = {c.name for c in t.base_pkg.components} - {c.name for c in pkg.components}
    assert len(dropped) == 1
    victim = dropped.pop()
    assert victim in t.malicious_cluster
    flagged = [r for r in trace.binder if r.caller == victim]
    assert flagged and all(r.dynamic_caller for r in flagged)
    # the runtime graph still contains the component, discovered dynamically
    rbg = runtime_graph(pkg, trace)
    assert f"app:{victim}" in rbg.nodes
    assert rbg.nodes[f"app:{victim}"].kind is None


def test_inapplicable_transform_raises():
    t = generate_family(4, SizeParams(malicious_components=(1, 1), benign_components=(0, 0),
                                      implicit_intents=(0, 0)))
    with pytest.raises(InapplicableTransform):
        apply_transform(t, TransformOp(3), seed=0)  # no implicit chains to hide
    with pytest.raises(InapplicableTransform):
        apply_transform(t, TransformOp(12), seed=0)  # only one component


def test_transform_determinism():
    t = generate_family(15)
    for op_id in range(1, 13):
        a = apply_transform(t, TransformOp(op_id), seed=9)
        b = apply_transform(t, TransformOp(op_id), seed=9)
        assert a == b


def test_benign_generator_stays_far_from_bases():
    bases = [malicious_graph(generate_family(s)) for s in range(30, 34)]
    for i in range(6):
        pkg, trace, worst, _ = generate_benign(600 + i, SizeParams(), bases)
        assert worst < Fraction(3, 5)
        sig = signature_of(pkg, trace)
        assert not sig.sss.executables  # benign apps execute nothing suspicious


def test_run_eval_self_detection_trivial_case():
    report = run_eval(families=1, variants_per_family=1, benign_count=0, master_seed=2)
    c = report.counts["rbg_only"]
    assert (c.tp, c.fn, c.fp, c.tn) == (1, 0, 0, 0)
    assert c.rates()["tpr"] == 1.0
    assert c.rates()["acc"] == 1.0


def test_run_eval_arithmetic_consistency():
    report = run_eval(families=2, variants_per_family=6, benign_count=8, master_seed=3)
    for mode, c in report.counts.items():
        assert c.tp + c.fn == 2 * 6
        assert c.tn + c.fp == 8
        r = c.rates()
        assert r["acc"] == (c.tp + c.tn) / (c.tp + c.tn + c.fp + c.fn)
        assert abs(r["tpr"] + r["fnr"] - 1) < 1e-12
    table = report.per_transform["rbg_only"]
    assert sum(tot for _, tot in table.values()) == 12
    json_obj = report.to_json_obj()
    assert json_obj["modes"]["combined"]["tp"] == report.counts["combined"].tp
    assert report.format_table()


PINNED_EVAL_SHA256 = "aee3c6e195b7f2ea5541a1c6aa6585f730940766777248a404dc3c4bc333ced6"


def test_run_eval_report_is_pinned():
    """At 0.2 benign apps pass the graph threshold but not the blacklist, so
    the three modes count differently."""
    digest = hashlib.sha256()
    for threshold in (0.8, 0.2):
        report = run_eval(families=2, variants_per_family=6, benign_count=8, master_seed=3,
                          threshold=threshold, verify_pruning=True)
        digest.update(json.dumps(report.to_json_obj(), sort_keys=True).encode())
    assert digest.hexdigest() == PINNED_EVAL_SHA256


def test_blacklist_comes_from_malicious_trace():
    t = generate_family(16)
    eps, exes = family_blacklist(t)
    assert any(e.startswith("c2-16.") for e in eps)
    assert all("/data/local" in x for x in exes)
    fam = family_signature(t, "famZ")
    assert fam.family_id == "famZ"
    assert len(fam.graphs) == 1


PINNED_CORPUS_SHA256 = "62a9b8114d313dddbe8126be231fa500d9126f666abf19c7aeca0cc4070a05ab"


def test_generated_corpus_is_pinned():
    """The benchmark's inputs come from this module: a change to corpus
    output must show up here, not silently in the benchmark figures."""
    digest = hashlib.sha256()

    def feed(pkg, trace):
        digest.update(render_package(pkg).encode())
        digest.update(render_trace(trace).encode())

    sizes = (SizeParams(), SizeParams(malicious_components=(9, 11), benign_components=(0, 0)))
    for size in sizes:
        templates = [generate_family(seed, size) for seed in range(3)]
        for t in templates:
            feed(t.base_pkg, t.base_trace)
            for op_id in range(1, 13):
                try:
                    feed(*apply_transform(t, TransformOp(op_id), seed=1))
                except InapplicableTransform:
                    digest.update(f"inapplicable {t.seed} {op_id}".encode())
        bases = [malicious_graph(t) for t in templates]
        for seed in range(2):
            pkg, trace, worst, rejections = generate_benign(seed, size, bases)
            feed(pkg, trace)
            digest.update(f"{worst} {rejections}".encode())
    assert digest.hexdigest() == PINNED_CORPUS_SHA256
