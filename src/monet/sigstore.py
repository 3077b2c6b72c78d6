"""Persistent signature database: family graphs, SSS blacklist, count index.

A store is an immutable snapshot.  ``insert_signature`` returns a new store
sharing unchanged data with the old one; service code swaps the reference
atomically so readers never observe a partial update.

On disk a store is a directory::

    store.json                  manifest: format/version, families, blacklist
    graphs/<family>/<ordinal>.json   canonical graph blobs
    store.crc                   CRC-32 over manifest and graph blobs

The index is rebuilt on load rather than persisted (corruption resistance
beats load time at this scale).  Loading is fail-closed: a bad checksum or
unknown format aborts with nothing partially loaded.
"""

from __future__ import annotations

import json
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from .behavior_graph import BehaviorGraph, CorruptGraph, graph_from_json, graph_to_json, is_decoupled
from .bptree import BplusIndex
from .matcher import DEFAULT_ALPHA, NotDecoupled
from .trace import Sss

FORMAT_VERSION = 1

# No path separators, and no leading dot: "." and ".." would leave graphs/.
_FAMILY_ID_RE = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]*")


class StoreError(Exception):
    pass


class FormatVersionMismatch(StoreError):
    pass


class ChecksumMismatch(StoreError):
    pass


class StoreIOError(StoreError):
    pass


@dataclass(frozen=True)
class FamilySignature:
    """Analyst-curated malicious decoupled graphs for one malware family."""

    family_id: str
    graphs: tuple[BehaviorGraph, ...]
    notes: str = ""


@dataclass(frozen=True)
class GraphRef:
    family_id: str
    ordinal: int


@dataclass(frozen=True)
class SignatureStore:
    families: dict[str, FamilySignature] = field(default_factory=dict)
    blacklist: Sss = Sss()
    index: BplusIndex = field(default_factory=BplusIndex)
    version: int = 0

    def graph(self, ref: GraphRef) -> BehaviorGraph:
        return self.families[ref.family_id].graphs[ref.ordinal]

    def graph_count(self) -> int:
        return sum(len(f.graphs) for f in self.families.values())

    def range_candidates(self, n: int, alpha: int = DEFAULT_ALPHA) -> list[GraphRef]:
        """Stored graphs whose app-component count lies within n ± alpha."""
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        return self.index.range(max(0, n - alpha), n + alpha)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignatureStore)
            and self.families == other.families
            and self.blacklist == other.blacklist
            and self.version == other.version
        )


def empty_store() -> SignatureStore:
    return SignatureStore()


def insert_signature(store: SignatureStore, family: FamilySignature) -> SignatureStore:
    """Add (or merge into) a family; returns a new store snapshot.

    Graphs must each be a single decoupled app cluster; duplicates within the
    family (by graph equality) are dropped, so re-inserting the same
    family is idempotent up to the version counter.
    """
    if not _FAMILY_ID_RE.fullmatch(family.family_id):
        raise ValueError(f"family id unsafe for storage: {family.family_id!r}")
    for g in family.graphs:
        if g.origin != "runtime":
            raise CorruptGraph("family graphs must have runtime origin")
        if not is_decoupled(g):
            raise NotDecoupled(f"family {family.family_id}: graph is not a single app cluster")

    existing = store.families.get(family.family_id)
    kept = list(existing.graphs) if existing else []
    index = store.index
    for g in family.graphs:
        if g in kept:
            continue
        index = index.insert(g.app_count, GraphRef(family.family_id, len(kept)))
        kept.append(g)

    notes = family.notes or (existing.notes if existing else "")
    families = dict(store.families)
    families[family.family_id] = FamilySignature(family.family_id, tuple(kept), notes)
    return SignatureStore(families, store.blacklist, index, store.version + 1)


def merge_blacklist(store: SignatureStore, endpoints=(), executables=()) -> SignatureStore:
    bl = Sss(store.blacklist.endpoints.union(endpoints), store.blacklist.executables.union(executables))
    return SignatureStore(dict(store.families), bl, store.index, store.version + 1)


def rebuild_index(families: dict[str, FamilySignature]) -> BplusIndex:
    """The count index of ``families``, built from scratch."""
    index = BplusIndex()
    for fid in sorted(families):
        for ordinal, g in enumerate(families[fid].graphs):
            index = index.insert(g.app_count, GraphRef(fid, ordinal))
    return index


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _manifest_json(store: SignatureStore) -> str:
    obj = {
        "format": FORMAT_VERSION,
        "version": store.version,
        "families": [
            {
                "family_id": fid,
                "notes": store.families[fid].notes,
                "graph_count": len(store.families[fid].graphs),
            }
            for fid in sorted(store.families)
        ],
        "blacklist": {
            "endpoints": sorted(store.blacklist.endpoints),
            "executables": sorted(store.blacklist.executables),
        },
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _graph_rel_paths(family_counts: list[tuple[str, int]]) -> list[str]:
    out = []
    for fid, count in sorted(family_counts):
        out.extend(f"graphs/{fid}/{ordinal}.json" for ordinal in range(count))
    return out


def _checksum(root: Path, rel_paths: list[str]) -> str:
    crc = 0
    for rel in ["store.json", *rel_paths]:
        try:
            data = (root / rel).read_bytes()
        except OSError as exc:
            raise ChecksumMismatch(f"missing or unreadable {rel}: {exc}") from exc
        crc = zlib.crc32(rel.encode() + b"\0" + data + b"\0", crc)
    return f"{crc:08x}"


def save_store(store: SignatureStore, path) -> None:
    root = Path(path)
    try:
        root.mkdir(parents=True, exist_ok=True)
        (root / "store.json").write_text(_manifest_json(store), encoding="utf-8")
        for fid in sorted(store.families):
            fam_dir = root / "graphs" / fid
            fam_dir.mkdir(parents=True, exist_ok=True)
            for ordinal, g in enumerate(store.families[fid].graphs):
                (fam_dir / f"{ordinal}.json").write_text(graph_to_json(g), encoding="utf-8")
        rels = _graph_rel_paths([(fid, len(f.graphs)) for fid, f in store.families.items()])
        (root / "store.crc").write_text(_checksum(root, rels) + "\n", encoding="utf-8")
    except OSError as exc:
        raise StoreIOError(f"cannot write store at {root}: {exc}") from exc


def _manifest_schema(manifest) -> tuple[list[tuple[str, int, str]], Sss, int]:
    """(family id, graph count, notes) entries, blacklist and version of a
    decoded manifest; any deviation from the schema is a :class:`StoreError`."""

    def require(ok: bool, what: str) -> None:
        if not ok:
            raise StoreError(f"malformed manifest: {what}")

    families = manifest.get("families")
    require(isinstance(families, list), "'families' must be a list")
    entries = []
    for f in families:
        require(isinstance(f, dict), "each family entry must be an object")
        fid, count, notes = f.get("family_id"), f.get("graph_count"), f.get("notes", "")
        require(isinstance(fid, str) and bool(_FAMILY_ID_RE.fullmatch(fid)),
                f"family id unsafe for storage: {fid!r}")
        require(type(count) is int and count >= 0, f"family {fid}: bad graph_count {count!r}")
        require(isinstance(notes, str), f"family {fid}: 'notes' must be a string")
        entries.append((fid, count, notes))
    bl = manifest.get("blacklist")
    require(isinstance(bl, dict), "'blacklist' must be an object")
    endpoints, executables = bl.get("endpoints"), bl.get("executables")
    require(all(isinstance(xs, list) and all(isinstance(x, str) for x in xs)
                for xs in (endpoints, executables)),
            "blacklist endpoints and executables must be lists of strings")
    version = manifest.get("version")
    require(type(version) is int and version >= 0, f"bad version {version!r}")
    return entries, Sss(endpoints, executables), version


def load_store(path) -> SignatureStore:
    """Load a store directory; fail-closed on any corruption."""
    root = Path(path)
    try:
        manifest_bytes = (root / "store.json").read_bytes()
        crc = (root / "store.crc").read_bytes().strip()
    except OSError as exc:
        raise StoreIOError(f"cannot read store at {root}: {exc}") from exc
    try:
        manifest = json.loads(manifest_bytes)
    except (ValueError, RecursionError) as exc:  # bad JSON or bad UTF-8
        raise ChecksumMismatch(f"manifest is not valid JSON: {exc}") from exc
    found = manifest.get("format") if isinstance(manifest, dict) else None
    if found != FORMAT_VERSION:
        raise FormatVersionMismatch(f"unsupported store format {found!r} (want {FORMAT_VERSION})")
    entries, blacklist, version = _manifest_schema(manifest)
    rel_paths = _graph_rel_paths([(fid, count) for fid, count, _ in entries])
    if _checksum(root, rel_paths).encode() != crc:
        raise ChecksumMismatch("store checksum mismatch")

    families: dict[str, FamilySignature] = {}
    for fid, count, notes in entries:
        graphs = []
        for ordinal in range(count):
            rel = f"graphs/{fid}/{ordinal}.json"
            try:
                graphs.append(graph_from_json((root / rel).read_bytes().decode("utf-8")))
            except OSError as exc:
                raise StoreIOError(f"cannot read {rel}: {exc}") from exc
            except (CorruptGraph, ValueError, RecursionError) as exc:
                raise StoreError(f"{rel}: {exc}") from exc
        families[fid] = FamilySignature(fid, tuple(graphs), notes)
    return SignatureStore(families, blacklist, rebuild_index(families), version)
