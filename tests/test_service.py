import json
import random
import socket
import struct
from concurrent.futures import ThreadPoolExecutor

import pytest

from monet.behavior_graph import CorruptGraph, graph_from_json_obj, graph_to_json_obj
from monet.corpus import (
    family_blacklist,
    family_signature,
    generate_benign,
    generate_family,
    malicious_graph,
    SizeParams,
)
from monet.matcher import RuntimeBehaviorSignature, decide
from monet.pipeline import signature_of
from monet.service import MAX_BODY_BYTES, BadRequest, DetectionService
from monet.sigstore import (
    StoreError,
    empty_store,
    insert_signature,
    load_store,
    merge_blacklist,
    save_store,
)

from conftest import http_json, running_server
from oracles import mutate_json


def small_store(n_families=2, seed=50):
    store = empty_store()
    templates = []
    for i in range(n_families):
        t = generate_family(seed + i)
        templates.append(t)
        store = insert_signature(store, family_signature(t, f"fam{i:02d}"))
        eps, exes = family_blacklist(t)
        store = merge_blacklist(store, eps, exes)
    return store, templates


def signature_body(sig: RuntimeBehaviorSignature, mode="combined", threshold=None):
    body = {
        "signature": {
            "app": sig.app,
            "rbg": graph_to_json_obj(sig.rbg),
            "sss": {
                "endpoints": sorted(sig.sss.endpoints),
                "executables": sorted(sig.sss.executables),
            },
        },
        "mode": mode,
    }
    if threshold is not None:
        body["threshold"] = threshold
    return body


def test_match_endpoint_flags_stored_family():
    store, templates = small_store()
    sig = signature_of(templates[0].base_pkg, templates[0].base_trace)
    with running_server(store) as addr:
        status, resp = http_json(addr, "POST", "/v1/match", signature_body(sig))
    assert status == 200
    assert resp["verdict"]["decision"] == "malicious"
    assert resp["verdict"]["family"] == "fam00"
    assert resp["verdict"]["score"] == 1.0
    assert resp["store_version"] == store.version
    assert resp["timing_ms"] >= 0


def test_static_origin_graph_rejected():
    store, templates = small_store(1)
    sig = signature_of(templates[0].base_pkg, templates[0].base_trace)
    body = signature_body(sig)
    body["signature"]["rbg"]["origin"] = "static"
    with running_server(store) as addr:
        status, resp = http_json(addr, "POST", "/v1/match", body)
    assert status == 400
    assert "runtime" in resp["error"]


def test_malformed_body_and_unknown_route():
    store, _ = small_store(1)
    with running_server(store) as addr:
        status, resp = http_json(addr, "POST", "/v1/match", {"signature": "nope"})
        assert status == 400
        import http.client

        conn = http.client.HTTPConnection(*addr)
        conn.request("POST", "/v1/match", "{broken", {"Content-Type": "application/json"})
        assert conn.getresponse().status == 400
        conn.close()
        status, _ = http_json(addr, "GET", "/v1/nothing")
        assert status == 404
        # server still alive afterwards
        status, health = http_json(addr, "GET", "/v1/health")
        assert status == 200
        assert health["families"] == 1


def _raw_post(addr, content_length: str) -> bytes:
    """POST /v1/match with a literal Content-Length header; returns the reply
    head, or raises socket.timeout if the server never answers."""
    with socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(b"POST /v1/match HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
                     b"Content-Length: " + content_length.encode() + b"\r\n\r\n{}")
        reply = b""
        while b"\r\n\r\n" not in reply:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    return reply


def test_short_body_is_dropped_after_socket_timeout(monkeypatch, caplog):
    monkeypatch.setattr("monet.service._Handler.timeout", 0.2)
    store, _ = small_store(1)
    with running_server(store) as addr:
        assert _raw_post(addr, "10") == b""  # 2 of 10 bytes sent: closed, no reply
        status, _ = http_json(addr, "GET", "/v1/health")
        assert status == 200
    assert "Traceback" not in caplog.text and "internal error" not in caplog.text


def test_oversized_body_gets_413_and_close():
    store, _ = small_store(1)
    with running_server(store) as addr:
        reply = _raw_post(addr, str(MAX_BODY_BYTES + 1))
        assert reply.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in reply


@pytest.mark.parametrize("content_length", ["abc", "-1"])
def test_bad_content_length_gets_400(content_length, caplog):
    store, _ = small_store(1)
    with running_server(store) as addr:
        reply = _raw_post(addr, content_length)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in reply
        status, _ = http_json(addr, "GET", "/v1/health")
        assert status == 200
    assert "Traceback" not in caplog.text and "internal error" not in caplog.text


def _framed_replies(raw: bytes) -> list[tuple[bytes, dict]]:
    """Split everything a connection sent into (head, JSON body) replies,
    asserting that each has an HTTP/1.1 status line and that nothing trails."""
    replies = []
    while raw:
        head, _, rest = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 "), raw
        length = int(next(line for line in head.split(b"\r\n")
                          if line.lower().startswith(b"content-length:")).split(b":")[1])
        replies.append((head, json.loads(rest[:length])))
        raw = rest[length:]
    return replies


def test_chunked_body_gets_one_400_and_close(caplog):
    store, _ = small_store(1)
    with running_server(store) as addr:
        with socket.create_connection(addr, timeout=5) as sock:
            sock.sendall(b"POST /v1/match HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
                         b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n")
            reply = b""
            while chunk := sock.recv(4096):  # until the server closes the connection
                reply += chunk
        [(head, body)] = _framed_replies(reply)  # one reply and nothing after it
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert "Transfer-Encoding" in body["error"]
        status, _ = http_json(addr, "GET", "/v1/health")
        assert status == 200
    assert "Traceback" not in caplog.text and "internal error" not in caplog.text


@pytest.mark.parametrize("request_bytes, statuses", [
    # the body is shorter than what follows it, so "xyz" is read as the next request line
    (b"POST /v1/match HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n{}xyz\r\n", [b"400", b"400"]),
    (b"GET /v1/health\r\n\r\n", [b"400"]),
    (b"POST /v1/match\r\n\r\n", [b"400"]),
    (b"GET /v1/health HTTP/x.y\r\n\r\n", [b"400"]),
    (b"DELETE /v1/health HTTP/1.1\r\nHost: t\r\n\r\n", [b"501"]),
], ids=["bytes-after-body", "get-without-version", "post-without-version", "bad-version", "unknown-method"])
def test_protocol_errors_get_a_json_reply_and_close(request_bytes, statuses, caplog):
    store, _ = small_store(1)
    with running_server(store) as addr:
        with socket.create_connection(addr, timeout=5) as sock:
            sock.sendall(request_bytes)
            raw = b""
            while chunk := sock.recv(4096):  # until the server closes the connection
                raw += chunk
        got = _framed_replies(raw)
        assert [head.split()[1] for head, _ in got] == statuses
        assert all("error" in body for _, body in got)
        assert b"Connection: close" in got[-1][0]
        status, _ = http_json(addr, "GET", "/v1/health")
        assert status == 200
    assert "Traceback" not in caplog.text and "internal error" not in caplog.text


@pytest.mark.parametrize("path", ["/v1/match", "/v1/signatures"])
@pytest.mark.parametrize("body", [b'{"a": "\xff"}', b"\x80abc", b"[" * 100_000 + b"]" * 100_000],
                         ids=["bad-utf8-in-string", "bad-utf8-lead-byte", "nested-100000-deep"])
def test_undecodable_body_gets_400(path, body, caplog):
    import http.client

    store, _ = small_store(1)
    with running_server(store) as addr:
        conn = http.client.HTTPConnection(*addr, timeout=30)
        conn.request("POST", path, body, {"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 400
        assert json.loads(resp.read())["error"].startswith("invalid JSON body")
        conn.close()
        status, _ = http_json(addr, "GET", "/v1/health")
        assert status == 200
    assert "Traceback" not in caplog.text and "internal error" not in caplog.text


def test_bad_mode_and_threshold_rejected():
    store, templates = small_store(1)
    sig = signature_of(templates[0].base_pkg, templates[0].base_trace)
    with running_server(store) as addr:
        status, resp = http_json(addr, "POST", "/v1/match", signature_body(sig, mode="psychic"))
        assert status == 400 and "mode" in resp["error"]
        body = signature_body(sig)
        body["threshold"] = 1.7
        status, resp = http_json(addr, "POST", "/v1/match", body)
        assert status == 400 and "threshold" in resp["error"]
        body["threshold"] = 0.5
        status, resp = http_json(addr, "POST", "/v1/match", body)
        assert status == 200  # per-request override accepted


def test_health_reports_version_and_family_count():
    store, _ = small_store(3)
    with running_server(store) as addr:
        status, health = http_json(addr, "GET", "/v1/health")
    assert status == 200
    assert health == {"store_version": store.version, "families": 3}


def test_admin_insert_bumps_version_and_detects():
    store, templates = small_store(1)
    extra = generate_family(77)
    sig = signature_of(extra.base_pkg, extra.base_trace)
    fam_body = {
        "family_id": "famX",
        "graphs": [graph_to_json_obj(malicious_graph(extra))],
        "notes": "added online",
    }
    with running_server(store) as addr:
        _, before = http_json(addr, "POST", "/v1/match", signature_body(sig, "rbg_only"))
        assert before["verdict"]["decision"] == "clean"
        status, ins = http_json(addr, "POST", "/v1/signatures", fam_body)
        assert status == 200
        assert ins["store_version"] == store.version + 1
        _, after = http_json(addr, "POST", "/v1/match", signature_body(sig, "rbg_only"))
    assert after["verdict"]["decision"] == "malicious"
    assert after["verdict"]["family"] == "famX"
    assert after["store_version"] == store.version + 1


def test_insert_rejects_undecoupled_graph():
    store, templates = small_store(1)
    t = generate_family(88)
    from monet.pipeline import runtime_graph

    whole = runtime_graph(t.base_pkg, t.base_trace)  # two clusters, not decoupled
    body = {"family_id": "famBad", "graphs": [graph_to_json_obj(whole)]}
    with running_server(store) as addr:
        status, resp = http_json(addr, "POST", "/v1/signatures", body)
    assert status == 400


def test_match_with_non_string_edge_endpoint_is_rejected():
    store, templates = small_store(1)
    body = signature_body(signature_of(templates[0].base_pkg, templates[0].base_trace))
    edge = body["signature"]["rbg"]["edges"][0]
    edge["src"] = [edge["src"]]
    with pytest.raises(BadRequest):
        DetectionService(store).handle_match(body)


@pytest.mark.parametrize("where", ["kind", "content"])
def test_insert_with_non_string_kind_or_content_is_rejected(where):
    store, _ = small_store(1)
    graph = graph_to_json_obj(malicious_graph(generate_family(77)))
    if where == "kind":
        next(n for n in graph["nodes"] if n["type"] == "app")["kind"] = ["x"]
    else:
        graph["edges"][0]["content"] = ["x"]
    service = DetectionService(store)
    with pytest.raises(BadRequest):
        service.handle_insert({"family_id": "famX", "graphs": [graph]})
    assert service.store.version == store.version


@pytest.mark.parametrize("sss", [{"endpoints": 5}, {"executables": "abc"}])
def test_malformed_sss_is_rejected(sss):
    store, templates = small_store(1)
    body = signature_body(signature_of(templates[0].base_pkg, templates[0].base_trace))
    body["signature"]["sss"] = sss
    with pytest.raises(BadRequest):
        DetectionService(store).handle_match(body)


def test_match_with_mutated_graph_answers_400_not_500(caplog):
    store, templates = small_store(1)
    body = signature_body(signature_of(templates[0].base_pkg, templates[0].base_trace))
    rbg = body["signature"]["rbg"]
    service = DetectionService(store)
    rng = random.Random(8743)
    corrupt = []
    for _ in range(1000):
        mutant = mutate_json(rbg, rng)
        body["signature"]["rbg"] = mutant
        try:
            graph_from_json_obj(mutant)
        except CorruptGraph:
            corrupt.append(mutant)
            with pytest.raises(BadRequest) as exc_info:
                service.handle_match(body)
            assert exc_info.value.status == 400
    assert corrupt
    with running_server(store) as addr:
        for mutant in corrupt[:40]:
            body["signature"]["rbg"] = mutant
            status, resp = http_json(addr, "POST", "/v1/match", body)
            assert status == 400, resp
    assert "Traceback" not in caplog.text and "internal error" not in caplog.text


@pytest.mark.parametrize("body_sent", ["whole", "half"])
def test_client_reset_is_not_an_internal_error(body_sent, caplog, capsys):
    """A client that resets the connection after its request (the server's
    reply fails) or halfway through the body (the server's read fails)."""
    store, templates = small_store(1)
    payload = json.dumps(signature_body(signature_of(templates[0].base_pkg, templates[0].base_trace))).encode()
    request = (b"POST /v1/match HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
               b"Content-Length: %d\r\n\r\n%s" % (len(payload), payload))
    if body_sent == "half":
        request = request[:len(request) - len(payload) // 2]
    with running_server(store) as addr:
        for _ in range(5):
            sock = socket.create_connection(addr, timeout=5)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.sendall(request)
            sock.close()  # linger 0: the close sends a reset, not a FIN
        status, _ = http_json(addr, "GET", "/v1/health")
        assert status == 200
    logged = caplog.text + capsys.readouterr().err
    assert "Traceback" not in logged and "internal error" not in logged


def test_concurrent_requests_match_serial_results():
    store, templates = small_store(2)
    service = DetectionService(store)
    rng = random.Random(4)
    requests = []
    for i in range(60):
        t = templates[i % 2]
        if i % 3 == 0:
            pkg, trace, _, _ = generate_benign(900 + i, SizeParams(), [])
            sig = signature_of(pkg, trace)
        else:
            sig = signature_of(t.base_pkg, t.base_trace)
        requests.append(signature_body(sig, mode=("combined", "rbg_only", "sss_only")[i % 3]))

    serial = [service.handle_match(json.loads(json.dumps(b))) for b in requests]
    with running_server(store) as addr:
        with ThreadPoolExecutor(max_workers=12) as pool:
            concurrent = list(pool.map(
                lambda b: http_json(addr, "POST", "/v1/match", b)[1], requests
            ))
    for s, c in zip(serial, concurrent):
        s.pop("timing_ms"), c.pop("timing_ms")
        assert s == c


def test_preload_matches_decide_directly(tmp_path):
    store, templates = small_store(2)
    save_store(store, tmp_path / "bundle")
    loaded = load_store(tmp_path / "bundle")
    sig = signature_of(templates[1].base_pkg, templates[1].base_trace)
    offline = decide(sig, loaded, 0.8, "combined")
    online = decide(sig, store, 0.8, "combined")
    assert offline.to_json_obj() == online.to_json_obj()


def test_preload_refuses_corrupted_bundle(tmp_path):
    store, _ = small_store(1)
    save_store(store, tmp_path / "bundle")
    victim = tmp_path / "bundle" / "store.dat"
    manifest_line, graph_line = victim.read_bytes().splitlines(keepends=True)[:2]
    victim.write_bytes(manifest_line + graph_line[:9] + b"{}\n")
    with pytest.raises(StoreError):
        load_store(tmp_path / "bundle")


def test_empty_bundle_answers_clean(tmp_path):
    save_store(empty_store(), tmp_path / "bundle")
    loaded = load_store(tmp_path / "bundle")
    t = generate_family(91)
    sig = signature_of(t.base_pkg, t.base_trace)
    assert decide(sig, loaded, 0.8, "combined").decision == "clean"
