import json
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monet import sigstore
from monet.behavior_graph import AppComponent, BehaviorGraph
from monet.matcher import NotDecoupled, RuntimeBehaviorSignature, decide
from monet.sigstore import (
    ChecksumMismatch,
    FamilySignature,
    FormatVersionMismatch,
    StoreError,
    StoreIOError,
    empty_store,
    insert_signature,
    load_store,
    merge_blacklist,
    rebuild_index,
    save_store,
)

from monet.trace import Sss

from oracles import random_cluster_graph


def _single_cluster(rng):
    return random_cluster_graph(rng, max_app=5, max_total=8)


def test_insert_indexes_by_app_component_count():
    rng = random.Random(1)
    g = _single_cluster(rng)
    store = insert_signature(empty_store(), FamilySignature("famA", (g,)))
    refs = store.range_candidates(g.app_count, 0)
    assert [store.graph(r) for r in refs] == [g]
    assert store.version == 1


def test_insert_rejects_multi_cluster_graph():
    a = AppComponent("com.a.X", "activity")
    b = AppComponent("com.a.Y", "activity")
    g = BehaviorGraph.of("runtime", [a, b], [])
    with pytest.raises(NotDecoupled):
        insert_signature(empty_store(), FamilySignature("famA", (g,)))


def test_insert_rejects_static_graph():
    g = BehaviorGraph.of("static", [AppComponent("com.a.X", "activity")], [])
    with pytest.raises(Exception):
        insert_signature(empty_store(), FamilySignature("famA", (g,)))


def test_reinsert_same_family_is_idempotent_on_content():
    rng = random.Random(2)
    g = _single_cluster(rng)
    s1 = insert_signature(empty_store(), FamilySignature("famA", (g,)))
    s2 = insert_signature(s1, FamilySignature("famA", (g,)))
    assert s2.families == s1.families
    assert len(s2.index) == len(s1.index)


def test_insert_merges_new_graphs_into_family():
    rng = random.Random(3)
    g1, g2 = _single_cluster(rng), _single_cluster(rng)
    s = insert_signature(empty_store(), FamilySignature("famA", (g1,)))
    s = insert_signature(s, FamilySignature("famA", (g2,)))
    assert len(s.families["famA"].graphs) == 2 if g1 != g2 else 1


def test_snapshots_are_isolated():
    rng = random.Random(4)
    g1, g2 = _single_cluster(rng), _single_cluster(rng)
    s1 = insert_signature(empty_store(), FamilySignature("famA", (g1,)))
    s2 = insert_signature(s1, FamilySignature("famB", (g2,)))
    assert "famB" not in s1.families
    assert len(s1.index) == 1
    assert len(s2.index) == 2


def test_index_matches_rebuild_after_random_inserts():
    rng = random.Random(5)
    store = empty_store()
    for i in range(40):
        store = insert_signature(store, FamilySignature(f"fam{i % 7}", (_single_cluster(rng),)))
    rebuilt = rebuild_index(store.families)
    assert sorted(map(repr, store.index.range(0, 10**9))) == sorted(map(repr, rebuilt.range(0, 10**9)))
    store.index.audit()


def test_save_load_round_trip(tmp_path):
    rng = random.Random(6)
    store = empty_store()
    for i in range(5):
        store = insert_signature(store, FamilySignature(f"fam{i}", (_single_cluster(rng),),
                                                        notes=f"note {i}"))
    store = merge_blacklist(store, ["C2.evil.NET:443"], ["/data/local/secbino"])
    save_store(store, tmp_path / "store")
    loaded = load_store(tmp_path / "store")
    assert loaded == store
    assert loaded.blacklist.endpoints == {"c2.evil.net:443"}
    refs = loaded.range_candidates(3, 50)
    assert {r.family_id for r in refs} == set(loaded.families)


def test_empty_store_round_trip(tmp_path):
    store = empty_store()
    save_store(store, tmp_path / "s")
    assert load_store(tmp_path / "s") == store


def test_truncated_graph_file_fails_closed(tmp_path):
    rng = random.Random(7)
    store = insert_signature(empty_store(), FamilySignature("famA", (_single_cluster(rng),)))
    save_store(store, tmp_path / "s")
    victim = next((tmp_path / "s" / "graphs").rglob("*.json"))
    victim.write_bytes(victim.read_bytes()[:10])
    with pytest.raises(ChecksumMismatch):
        load_store(tmp_path / "s")


def test_truncated_manifest_fails_closed(tmp_path):
    store = empty_store()
    save_store(store, tmp_path / "s")
    manifest = tmp_path / "s" / "store.json"
    manifest.write_bytes(manifest.read_bytes()[:-5])
    with pytest.raises(ChecksumMismatch):
        load_store(tmp_path / "s")


def test_missing_crc_fails_closed(tmp_path):
    store = empty_store()
    save_store(store, tmp_path / "s")
    (tmp_path / "s" / "store.crc").unlink()
    with pytest.raises((ChecksumMismatch, StoreIOError)):
        load_store(tmp_path / "s")


def test_format_version_mismatch(tmp_path):
    store = empty_store()
    save_store(store, tmp_path / "s")
    manifest = tmp_path / "s" / "store.json"
    text = manifest.read_text().replace('"format": 1', '"format": 99')
    manifest.write_text(text)
    # recompute checksum so only the version differs
    import zlib

    crc = zlib.crc32(b"store.json\0" + manifest.read_bytes() + b"\0", 0)
    (tmp_path / "s" / "store.crc").write_text(f"{crc:08x}\n")
    with pytest.raises(FormatVersionMismatch):
        load_store(tmp_path / "s")


def test_missing_directory_is_io_error(tmp_path):
    with pytest.raises(StoreIOError):
        load_store(tmp_path / "nothere")


def test_unsafe_family_id_rejected():
    rng = random.Random(8)
    with pytest.raises(ValueError):
        insert_signature(empty_store(), FamilySignature("../escape", (_single_cluster(rng),)))


def test_blacklist_normalization():
    bl = Sss(endpoints=["EVIL.net:80"], executables=["/x"])
    assert bl.endpoints == frozenset({"evil.net:80"})


def test_randomized_round_trips(tmp_path):
    rng = random.Random(9)
    for trial in range(10):
        store = empty_store()
        for i in range(rng.randint(0, 6)):
            store = insert_signature(
                store, FamilySignature(f"f{trial}_{i}", (_single_cluster(rng),))
            )
        if rng.random() < 0.5:
            store = merge_blacklist(store, [f"h{trial}.net:1"], [f"/bin/t{trial}"])
        path = tmp_path / f"s{trial}"
        save_store(store, path)
        assert load_store(path) == store


def _sign(root, graph_rels) -> None:
    """Write the checksum of ``store.json`` and the given graph files."""
    crc = 0
    for rel in ("store.json", *graph_rels):
        crc = zlib.crc32(rel.encode() + b"\0" + (root / rel).read_bytes() + b"\0", crc)
    (root / "store.crc").write_text(f"{crc:08x}\n")


def _store_with_manifest(path, manifest) -> None:
    """Write ``manifest`` over a saved one-family store and re-sign it, so
    that only the manifest's content is wrong."""
    save_store(insert_signature(empty_store(), FamilySignature(
        "famA", (_single_cluster(random.Random(10)),))), path)
    (path / "store.json").write_text(json.dumps(manifest))
    _sign(path, ["graphs/famA/0.json"])


def _good_manifest():
    return {"format": 1, "version": 1, "blacklist": {"endpoints": [], "executables": []},
            "families": [{"family_id": "famA", "graph_count": 1, "notes": ""}]}


def test_resigned_manifest_round_trips(tmp_path):
    _store_with_manifest(tmp_path / "s", _good_manifest())
    assert load_store(tmp_path / "s").graph_count() == 1


def test_loaded_blacklist_endpoint_host_is_lowercased(tmp_path):
    manifest = _good_manifest()
    manifest["blacklist"]["endpoints"] = ["C2.Example.net:9090"]
    _store_with_manifest(tmp_path / "s", manifest)
    store = load_store(tmp_path / "s")
    suspect = Sss(endpoints=["c2.example.net:9090"])
    signature = RuntimeBehaviorSignature("a", BehaviorGraph("runtime", {}, {}), suspect)
    assert decide(signature, store, mode="sss_only").decision == "malicious"


def test_insert_deduplicates_without_serializing(monkeypatch):
    rng = random.Random(12)
    g1, g2 = _single_cluster(rng), _single_cluster(rng)
    store = insert_signature(empty_store(), FamilySignature("famA", (g1,)))

    def refuse(graph):
        raise AssertionError("insert_signature serialized a graph")

    monkeypatch.setattr(sigstore, "graph_to_json", refuse)
    store = insert_signature(store, FamilySignature("famA", (g1, g2, g2)))
    assert store.families["famA"].graphs == (g1, g2)
    store.index.audit()


@pytest.mark.parametrize("breakage", [
    lambda m: m["families"][0].pop("graph_count"),
    lambda m: m.update(families=5),
    lambda m: m["families"][0].update(graph_count="1"),
    lambda m: m["families"][0].update(notes=7),
    lambda m: m.pop("blacklist"),
    lambda m: m["blacklist"].update(endpoints=[["x"]]),
    lambda m: m.update(version=None),
])
def test_manifest_schema_errors_are_store_errors(tmp_path, breakage):
    manifest = _good_manifest()
    breakage(manifest)
    _store_with_manifest(tmp_path / "s", manifest)
    with pytest.raises(StoreError):
        load_store(tmp_path / "s")


@pytest.mark.parametrize("family_id", ["../x", "..", "a/b", "fam\n"])
def test_load_rejects_unsafe_family_ids(tmp_path, family_id):
    # The graph file the id points to exists and the checksum matches it.
    root = tmp_path / "store" / "s"
    manifest = _good_manifest()
    manifest["families"][0]["family_id"] = family_id
    _store_with_manifest(root, manifest)
    target = root / "graphs" / family_id / "0.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes((root / "graphs" / "famA" / "0.json").read_bytes())
    _sign(root, [f"graphs/{family_id}/0.json"])
    with pytest.raises(StoreError, match="unsafe"):
        load_store(root)


@pytest.mark.parametrize("family_id", ["..", ".hidden", "fam\n"])
def test_insert_rejects_dot_and_newline_ids(family_id):
    with pytest.raises(ValueError):
        insert_signature(empty_store(), FamilySignature(family_id, (_single_cluster(random.Random(8)),)))


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=12), inner, max_size=4),
    max_leaves=12,
)
_keys = ("format", "version", "families", "blacklist", "family_id", "graph_count", "notes",
         "endpoints", "executables")


def _mutate(manifest, data):
    """Replace, delete or retype one value somewhere in ``manifest``."""
    node = manifest
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        if isinstance(node, dict) and data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(_json | st.sampled_from(_keys))
        return


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_manifest_fuzz_raises_only_store_errors(tmp_path_factory, data):
    manifest = _good_manifest()
    manifest["families"].append({"family_id": "famB", "graph_count": 0, "notes": "n"})
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(manifest, data)
    path = tmp_path_factory.mktemp("fuzz") / "s"
    _store_with_manifest(path, manifest)
    try:
        load_store(path)
    except StoreError:
        pass
