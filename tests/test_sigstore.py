import errno
import hashlib
import json
import os
import random
import stat
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monet import sigstore
from monet.behavior_graph import AppComponent, BehaviorGraph, CorruptGraph, SystemComponent, graph_to_json_obj
from monet.corpus import family_blacklist, family_signature, generate_family
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

from conftest import write_version_one_store
from oracles import random_cluster_graph


def _single_cluster(rng):
    return random_cluster_graph(rng, max_app=5, max_total=8)


PINNED_STORE_SHA256 = "2369fe394078eacc110ea54cae525acddf226b4cd725f2a2ee479cd482cf8c07"


def test_store_file_is_pinned(tmp_path):
    """``store.dat`` bytes for a fixed store: generated families with their
    blacklist, and random clusters with kind-less and action nodes."""
    store = empty_store()
    for i in range(3):
        t = generate_family(40 + i)
        store = insert_signature(store, family_signature(t, f"fam{i:02d}"))
        store = merge_blacklist(store, *family_blacklist(t))
    rng = random.Random(9)
    store = insert_signature(store, FamilySignature("famR", tuple(_single_cluster(rng) for _ in range(8)), "r"))
    save_store(store, tmp_path / "a")
    data = (tmp_path / "a" / "store.dat").read_bytes()
    save_store(load_store(tmp_path / "a"), tmp_path / "b")
    assert (tmp_path / "b" / "store.dat").read_bytes() == data
    assert hashlib.sha256(data).hexdigest() == PINNED_STORE_SHA256


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
    victim = tmp_path / "s" / "store.dat"
    manifest_line, graph_line = victim.read_bytes().splitlines(keepends=True)
    victim.write_bytes(manifest_line + graph_line[:10])
    with pytest.raises(ChecksumMismatch):
        load_store(tmp_path / "s")


def test_truncated_manifest_fails_closed(tmp_path):
    store = empty_store()
    save_store(store, tmp_path / "s")
    manifest = tmp_path / "s" / "store.dat"
    manifest.write_bytes(manifest.read_bytes()[:-5])
    with pytest.raises(ChecksumMismatch):
        load_store(tmp_path / "s")


def test_missing_crc_fails_closed(tmp_path):
    store = empty_store()
    save_store(store, tmp_path / "s")
    victim = tmp_path / "s" / "store.dat"
    victim.write_bytes(victim.read_bytes()[9:])  # the line without its CRC
    with pytest.raises((ChecksumMismatch, StoreIOError)):
        load_store(tmp_path / "s")


def test_format_version_mismatch(tmp_path):
    store = empty_store()
    save_store(store, tmp_path / "s")
    # re-sign so only the version differs
    _sign(tmp_path / "s", [p.replace(b'"format":2', b'"format":99') for p in _payloads(tmp_path / "s")])
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


def _payloads(root) -> list[bytes]:
    """Each line of the store file at ``root`` without its CRC field."""
    return [line[9:] for line in (root / "store.dat").read_bytes().splitlines(keepends=True)]


def _sign(root, payloads) -> None:
    """Write ``payloads`` as the store file at ``root``, each line with its running CRC."""
    crc, lines = 0, []
    for payload in payloads:
        crc = zlib.crc32(payload, crc)
        lines.append(b"%08x %s" % (crc, payload))
    (root / "store.dat").write_bytes(b"".join(lines))


def _store_with_manifest(path, manifest) -> None:
    """Write ``manifest`` over a saved one-family store and re-sign it, so
    that only the manifest's content is wrong."""
    save_store(insert_signature(empty_store(), FamilySignature(
        "famA", (_single_cluster(random.Random(10)),))), path)
    _sign(path, [json.dumps(manifest).encode() + b"\n", *_payloads(path)[1:]])


def _good_manifest():
    return {"format": 2, "version": 1, "blacklist": {"endpoints": [], "executables": []},
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

    monkeypatch.setattr(sigstore, "graph_to_json_obj", refuse)
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
    # The family's graph line follows and the checksum matches it.
    root = tmp_path / "store" / "s"
    manifest = _good_manifest()
    manifest["families"][0]["family_id"] = family_id
    _store_with_manifest(root, manifest)
    with pytest.raises(StoreError, match="unsafe"):
        load_store(root)


def test_manifest_listing_a_family_twice_is_a_store_error(tmp_path):
    manifest = _good_manifest()
    manifest["families"].append(dict(manifest["families"][0], graph_count=0))
    _store_with_manifest(tmp_path / "s", manifest)
    with pytest.raises(StoreError, match="twice"):
        load_store(tmp_path / "s")


_X, _Y = AppComponent("com.a.X", "activity"), AppComponent("com.a.Y", "service")
_S = SystemComponent("android.os.IServiceManager")


@pytest.mark.parametrize("graph", [
    BehaviorGraph.of("runtime", [_X, _Y, _S], [(_X, _S, 1), (_Y, _S, 1)]),  # two clusters
    BehaviorGraph.of("static", [_X, _Y], [(_X, _Y, 3)]),
])
def test_load_admits_only_what_insert_admits(tmp_path, graph):
    with pytest.raises((CorruptGraph, NotDecoupled)):
        insert_signature(empty_store(), FamilySignature("famA", (graph,)))
    root = tmp_path / "s"
    _store_with_manifest(root, _good_manifest())
    _sign(root, [_payloads(root)[0], json.dumps(graph_to_json_obj(graph)).encode() + b"\n"])
    with pytest.raises(StoreError):
        load_store(root)


@pytest.mark.parametrize("edit, error", [
    (lambda lines: [*lines, b"{}\n"], ChecksumMismatch),  # data after the last graph
    (lambda lines: lines[:1], ChecksumMismatch),  # the graph line is missing
    (lambda lines: [lines[0], b"{not json\n"], StoreError),  # bad JSON under a good CRC
])
def test_resigned_store_file_fails_closed(tmp_path, edit, error):
    root = tmp_path / "s"
    _store_with_manifest(root, _good_manifest())
    _sign(root, edit(_payloads(root)))
    with pytest.raises(StoreError) as caught:
        load_store(root)
    assert caught.type is error


@pytest.mark.parametrize("call", ["fsync", "replace"])
def test_failed_save_leaves_the_old_store(tmp_path, monkeypatch, call):
    rng = random.Random(13)
    old = insert_signature(empty_store(), FamilySignature("famA", (_single_cluster(rng),)))
    save_store(old, tmp_path / "s")
    new = insert_signature(old, FamilySignature("famB", (_single_cluster(rng), _single_cluster(rng))))

    def fail(*args):
        raise OSError(f"injected {call} failure")

    monkeypatch.setattr(sigstore.os, call, fail)
    with pytest.raises(StoreIOError):
        save_store(new, tmp_path / "s")
    monkeypatch.undo()
    assert load_store(tmp_path / "s") == old


def test_save_fsyncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    root = tmp_path / "s"
    store = insert_signature(empty_store(), FamilySignature("famA", (_single_cluster(random.Random(15)),)))
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        events.append("fsync dir" if stat.S_ISDIR(st.st_mode) and st.st_ino == root.stat().st_ino
                      else "fsync file")
        real_fsync(fd)

    def replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(sigstore.os, "fsync", fsync)
    monkeypatch.setattr(sigstore.os, "replace", replace)
    save_store(store, root)
    assert events == ["fsync file", "replace", "fsync dir"]


def test_failed_directory_fsync_is_a_store_io_error(tmp_path, monkeypatch):
    root = tmp_path / "s"
    store = insert_signature(empty_store(), FamilySignature("famA", (_single_cluster(random.Random(16)),)))
    real_fsync = os.fsync

    def fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(errno.EIO, "injected directory fsync failure")
        real_fsync(fd)

    monkeypatch.setattr(sigstore.os, "fsync", fsync)
    with pytest.raises(StoreIOError):
        save_store(store, root)
    assert sorted(p.name for p in root.iterdir()) == ["store.dat"]


def test_version_one_store_directory_fails_closed(tmp_path):
    write_version_one_store(tmp_path / "s", _single_cluster(random.Random(14)))
    with pytest.raises(StoreError):
        load_store(tmp_path / "s")


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
