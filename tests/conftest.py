from __future__ import annotations

import json
import threading
import zlib
from contextlib import contextmanager

import pytest

from monet.behavior_graph import graph_to_json
from monet.service import make_server

FIG_PKG = """\
package com.example.app
component activity com.example.A
component activity com.example.B

method com.example.A onCreate {
  b0: v1 = this; v2 = class com.example.B; i = intent(v1, v2); start_activity(i) ->
}
"""


@pytest.fixture
def chain_pkg_source() -> str:
    return FIG_PKG


@contextmanager
def running_server(store, threshold=0.8, alpha=5):
    server = make_server(store, threshold=threshold, alpha=alpha)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def http_json(hostport, method: str, path: str, body=None):
    import http.client

    conn = http.client.HTTPConnection(*hostport, timeout=30)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, payload, {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def write_version_one_store(root, graph) -> dict[str, bytes]:
    """Write ``graph`` as family ``famA`` in the retired version-1 directory
    layout (``store.json``, ``graphs/<family>/<n>.json`` and ``store.crc``),
    and return each file's bytes by relative path."""
    manifest = {"format": 1, "version": 1, "blacklist": {"endpoints": [], "executables": []},
                "families": [{"family_id": "famA", "graph_count": 1, "notes": ""}]}
    files = {
        "store.json": json.dumps(manifest, sort_keys=True, indent=2).encode() + b"\n",
        "graphs/famA/0.json": graph_to_json(graph).encode(),
    }
    crc = 0
    for rel, data in files.items():
        crc = zlib.crc32(rel.encode() + b"\0" + data + b"\0", crc)
    files["store.crc"] = f"{crc:08x}\n".encode()
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return files
