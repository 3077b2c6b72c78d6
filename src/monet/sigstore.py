"""Persistent signature database: family graphs, SSS blacklist, count index.

A store is an immutable snapshot.  ``insert_signature`` returns a new store
sharing unchanged data with the old one; service code swaps the reference
atomically so readers never observe a partial update.

On disk a store is one file, ``store.dat``, of ``<8-hex CRC-32> <JSON>``
lines: the manifest (format, version, blacklist, families), then each graph
in manifest order.  Each line's CRC runs on from the previous line's.  A save
writes and fsyncs ``store.dat.tmp``, renames it over ``store.dat`` and fsyncs
the directory; a save that fails removes ``store.dat.tmp``.

The index is rebuilt on load rather than persisted (corruption resistance
beats load time at this scale).  Loading is fail-closed: any corruption, or
a graph ``insert_signature`` would refuse, aborts with nothing loaded.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from .behavior_graph import BehaviorGraph, CorruptGraph, graph_from_json_obj, graph_to_json_obj, is_decoupled
from .bptree import BplusIndex
from .matcher import DEFAULT_ALPHA, NotDecoupled
from .trace import Sss

FORMAT_VERSION = 2
STORE_FILE = "store.dat"

# Plain names: no separators, no leading dot and no trailing newline.
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


@dataclass(slots=True, unsafe_hash=True)
class GraphRef:
    """One index entry: where a stored graph lives and its vertex + edge
    count.  Entries compare and hash by location, which never changes."""

    family_id: str
    ordinal: int
    size: int = field(compare=False)


@dataclass(frozen=True)
class SignatureStore:
    """One snapshot.  ``screens`` maps an app-component count to its refs' window
    screen (``matcher._KeyScreen``), built at first use, never at load or insert.
    An insert's copy of the dict shares them all; a count it touched extends its own."""

    families: dict[str, FamilySignature] = field(default_factory=dict)
    blacklist: Sss = Sss()
    index: BplusIndex = field(default_factory=BplusIndex, compare=False)
    version: int = 0
    screens: dict = field(default_factory=dict, compare=False, repr=False)

    def graph(self, ref: GraphRef) -> BehaviorGraph:
        return self.families[ref.family_id].graphs[ref.ordinal]

    def graph_count(self) -> int:
        return sum(len(f.graphs) for f in self.families.values())

    def range_candidates(self, n: int, alpha: int = DEFAULT_ALPHA) -> list[GraphRef]:
        """Stored graphs whose app-component count lies within n ± alpha."""
        return [ref for _, refs in self.window(n, alpha) for ref in refs]

    def window(self, n: int, alpha: int = DEFAULT_ALPHA) -> list[tuple[int, tuple[GraphRef, ...]]]:
        """The same graphs as (count, refs filed under it), in count order."""
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        return self.index.groups(max(0, n - alpha), n + alpha)


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
        _admit(family.family_id, g)

    existing = store.families.get(family.family_id)
    kept = list(existing.graphs) if existing else []
    index = store.index
    for g in family.graphs:
        if g in kept:
            continue
        index = index.insert(g.app_count, _entry(family.family_id, len(kept), g))
        kept.append(g)

    notes = family.notes or (existing.notes if existing else "")
    families = dict(store.families)
    families[family.family_id] = FamilySignature(family.family_id, tuple(kept), notes)
    return SignatureStore(families, store.blacklist, index, store.version + 1, dict(store.screens))


def _admit(family_id: str, g: BehaviorGraph) -> None:
    """Raise unless ``g`` is a runtime graph of one decoupled app cluster."""
    if g.origin != "runtime":
        raise CorruptGraph(f"family {family_id}: graphs must have runtime origin")
    if not is_decoupled(g):
        raise NotDecoupled(f"family {family_id}: graph is not a single app cluster")


def _entry(family_id: str, ordinal: int, g: BehaviorGraph) -> GraphRef:
    return GraphRef(family_id, ordinal, len(g.nodes) + len(g.edges))


def merge_blacklist(store: SignatureStore, endpoints=(), executables=()) -> SignatureStore:
    bl = Sss(store.blacklist.endpoints.union(endpoints), store.blacklist.executables.union(executables))
    return SignatureStore(dict(store.families), bl, store.index, store.version + 1, store.screens)


def rebuild_index(families: dict[str, FamilySignature]) -> BplusIndex:
    """The count index of ``families``, built from scratch."""
    index = BplusIndex()
    for fid in sorted(families):
        for ordinal, g in enumerate(families[fid].graphs):
            index = index.insert(g.app_count, _entry(fid, ordinal, g))
    return index


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_store(store: SignatureStore, path) -> None:
    """Write ``<path>/store.dat`` whole: a fsynced temporary file, a rename,
    then a fsync of the directory."""
    root = Path(path)
    tmp = root / (STORE_FILE + ".tmp")
    manifest = {
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
    graphs = (graph_to_json_obj(g) for fid in sorted(store.families) for g in store.families[fid].graphs)
    try:
        root.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
            crc = 0
            for obj in itertools.chain([manifest], graphs):
                payload = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"
                crc = zlib.crc32(payload, crc)
                fh.write(b"%08x %s" % (crc, payload))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, root / STORE_FILE)
        # The rename is durable only once the directory entry is on disk.
        dir_fd = os.open(root, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError as exc:
        # A leftover temporary file would make a new directory look non-empty.
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise StoreIOError(f"cannot write store at {root}: {exc}") from exc


def _manifest_schema(manifest) -> tuple[dict[str, tuple[int, str]], Sss, int]:
    """Graph count and notes by family id, blacklist and version of a
    decoded manifest; any deviation from the schema is a :class:`StoreError`."""

    def require(ok: bool, what: str) -> None:
        if not ok:
            raise StoreError(f"malformed manifest: {what}")

    families = manifest.get("families")
    require(isinstance(families, list), "'families' must be a list")
    entries: dict[str, tuple[int, str]] = {}
    for f in families:
        require(isinstance(f, dict), "each family entry must be an object")
        fid, count, notes = f.get("family_id"), f.get("graph_count"), f.get("notes", "")
        require(isinstance(fid, str) and bool(_FAMILY_ID_RE.fullmatch(fid)),
                f"family id unsafe for storage: {fid!r}")
        require(fid not in entries, f"family {fid} listed twice")
        require(type(count) is int and count >= 0, f"family {fid}: bad graph_count {count!r}")
        require(isinstance(notes, str), f"family {fid}: 'notes' must be a string")
        entries[fid] = (count, notes)
    bl = manifest.get("blacklist")
    require(isinstance(bl, dict), "'blacklist' must be an object")
    endpoints, executables = bl.get("endpoints"), bl.get("executables")
    require(all(isinstance(xs, list) and all(isinstance(x, str) for x in xs)
                for xs in (endpoints, executables)),
            "blacklist endpoints and executables must be lists of strings")
    version = manifest.get("version")
    require(type(version) is int and version >= 0, f"bad version {version!r}")
    return entries, Sss(endpoints, executables), version


def _read_record(fh, crc: int, what: str):
    """The next line's JSON and the CRC run on over it, checked before parsing."""
    line = fh.readline()
    if not line:
        raise ChecksumMismatch(f"store ends before {what}")
    crc = zlib.crc32(line[9:], crc)
    if line[:9] != b"%08x " % crc:
        raise ChecksumMismatch(f"checksum mismatch at {what}")
    try:
        return json.loads(line[9:]), crc
    except (ValueError, RecursionError) as exc:  # bad JSON or bad UTF-8
        raise StoreError(f"{what} is not valid JSON: {exc}") from exc


def load_store(path) -> SignatureStore:
    """Load ``<path>/store.dat``; fail-closed on any corruption."""
    file = Path(path) / STORE_FILE
    try:
        with open(file, "rb") as fh:
            manifest, crc = _read_record(fh, 0, "the manifest")
            found = manifest.get("format") if isinstance(manifest, dict) else None
            if found != FORMAT_VERSION:
                raise FormatVersionMismatch(f"unsupported store format {found!r} (want {FORMAT_VERSION})")
            entries, blacklist, version = _manifest_schema(manifest)
            families: dict[str, FamilySignature] = {}
            for fid, (count, notes) in entries.items():
                graphs = []
                for ordinal in range(count):
                    obj, crc = _read_record(fh, crc, f"graph {ordinal} of family {fid}")
                    try:
                        g = graph_from_json_obj(obj)
                        _admit(fid, g)
                    except (CorruptGraph, NotDecoupled) as exc:
                        raise StoreError(f"graph {ordinal} of family {fid}: {exc}") from exc
                    graphs.append(g)
                families[fid] = FamilySignature(fid, tuple(graphs), notes)
            if fh.read(1):
                raise ChecksumMismatch("data after the last graph")
    except OSError as exc:
        raise StoreIOError(f"cannot read store {file}: {exc}") from exc
    return SignatureStore(families, blacklist, rebuild_index(families), version)
