"""Backend detection server: signature uploads in, verdicts out.

HTTP/1.1 + JSON endpoints:

* ``POST /v1/match`` — body ``{"signature": {"app", "rbg", "sss"}, "mode"?,
  "threshold"?}``; the rbg must be a runtime-origin graph (it is re-decoupled
  server-side, which is idempotent).  Response ``{"verdict": {...},
  "timing_ms": <matcher wall time>, "store_version": <snapshot used>}``.
* ``POST /v1/signatures`` — admin insert of a family
  ``{"family_id", "graphs": [...], "notes"?}``; responds with the new store
  version.
* ``GET /v1/health`` — ``{"store_version", "families"}``.

Requests run against an immutable store snapshot; inserts build a new store
and swap the reference under a lock, so in-flight matches are isolated from
concurrent updates.  Malformed bodies get a 4xx JSON error, never a crash,
and so do malformed request lines, which also close the connection.
A client that resets its connection is dropped with a debug log line.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .behavior_graph import CorruptGraph, graph_from_json_obj
from .matcher import (
    DEFAULT_ALPHA,
    DEFAULT_THRESHOLD,
    MODES,
    NotDecoupled,
    RuntimeBehaviorSignature,
    decide,
    exact_threshold,
)
from .sigstore import (
    FamilySignature,
    SignatureStore,
    StoreError,
    insert_signature,
    load_store,
)
from .trace import sss_from_json_obj

log = logging.getLogger(__name__)

MAX_BODY_BYTES = 16 * 1024 * 1024


class BadRequest(Exception):
    status = 400


class PayloadTooLarge(BadRequest):
    status = 413


def _parse_signature(obj) -> RuntimeBehaviorSignature:
    if not isinstance(obj, dict):
        raise BadRequest("'signature' must be an object")
    app = obj.get("app")
    if not isinstance(app, str) or not app:
        raise BadRequest("signature.app must be a non-empty string")
    try:
        rbg = graph_from_json_obj(obj.get("rbg"))
    except CorruptGraph as exc:
        raise BadRequest(f"signature.rbg: {exc}") from exc
    if rbg.origin != "runtime":
        raise BadRequest("signature.rbg must have runtime origin")
    try:
        sss = sss_from_json_obj(obj.get("sss", {}))
    except ValueError as exc:
        raise BadRequest(f"signature.sss: {exc}") from exc
    return RuntimeBehaviorSignature(app, rbg, sss)


def _parse_family(obj) -> FamilySignature:
    if not isinstance(obj, dict) or not isinstance(obj.get("family_id"), str):
        raise BadRequest("body must be {'family_id', 'graphs', 'notes'?}")
    graphs_obj = obj.get("graphs")
    if not isinstance(graphs_obj, list) or not graphs_obj:
        raise BadRequest("'graphs' must be a non-empty list")
    try:
        graphs = tuple(graph_from_json_obj(g) for g in graphs_obj)
    except CorruptGraph as exc:
        raise BadRequest(f"graphs: {exc}") from exc
    notes = obj.get("notes", "")
    if not isinstance(notes, str):
        raise BadRequest("'notes' must be a string")
    return FamilySignature(obj["family_id"], graphs, notes)


class DetectionService:
    """Store snapshot holder plus the request handlers, transport-agnostic."""

    def __init__(self, store: SignatureStore, threshold=DEFAULT_THRESHOLD, alpha: int = DEFAULT_ALPHA):
        self._store = store
        self._lock = threading.Lock()
        self.threshold = exact_threshold(threshold)
        self.alpha = alpha

    @property
    def store(self) -> SignatureStore:
        return self._store

    def handle_match(self, body: dict) -> dict:
        if not isinstance(body, dict):
            raise BadRequest("request body must be a JSON object")
        signature = _parse_signature(body.get("signature"))
        mode = body.get("mode", "combined")
        if mode not in MODES:
            raise BadRequest(f"mode must be one of {', '.join(MODES)}")
        threshold = self.threshold
        if "threshold" in body:
            raw = body["threshold"]
            if not isinstance(raw, (int, float)) or isinstance(raw, bool) or not 0 < raw <= 1:
                raise BadRequest("threshold must be a number in (0, 1]")
            threshold = exact_threshold(raw)
        snapshot = self._store  # one atomic read; the whole request uses it
        start = time.perf_counter()
        verdict = decide(signature, snapshot, threshold, mode, self.alpha)
        timing_ms = (time.perf_counter() - start) * 1000.0
        return {
            "verdict": verdict.to_json_obj(),
            "timing_ms": timing_ms,
            "store_version": snapshot.version,
        }

    def handle_insert(self, body: dict) -> dict:
        family = _parse_family(body)
        with self._lock:
            try:
                new_store = insert_signature(self._store, family)
            except (NotDecoupled, CorruptGraph, ValueError) as exc:
                raise BadRequest(str(exc)) from exc
            self._store = new_store
        return {"store_version": new_store.version, "families": len(new_store.families)}

    def handle_health(self) -> dict:
        snapshot = self._store
        return {"store_version": snapshot.version, "families": len(snapshot.families)}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Seconds a socket read or write may wait, so that a client which stops
    # sending (say, a body shorter than its Content-Length) frees its thread.
    timeout = 30

    def log_message(self, fmt, *args):  # route access logs through logging
        log.debug("%s %s", self.address_string(), fmt % args)

    def handle_one_request(self):
        try:
            super().handle_one_request()
        except ConnectionError as exc:  # a reset or a broken pipe: the client went away
            log.debug("%s closed the connection: %s", self.address_string(), exc)
            self.close_connection = True

    def parse_request(self):
        # A request line without a version would be answered as HTTP/0.9, with
        # no status line.  Refuse it before reading any header.
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        if len(self.requestline.split()) == 2:
            self.send_error(HTTPStatus.BAD_REQUEST, "request line has no HTTP version")
            return False
        return super().parse_request()

    def send_error(self, code, message=None, explain=None):
        """Protocol-level errors (a bad request line, an unsupported method, an
        oversized header) get what every other error gets, a status line and a
        JSON body, and then the connection closes."""
        self.request_version = self.protocol_version  # else a versionless line gets no status line
        self.close_connection = True
        self.log_error("code %d, message %s", code, message)
        self._send(code, {"error": message or self.responses[code][0]})

    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _read_body(self) -> dict:
        text = self.headers.get("Content-Length") or "0"
        # Without a length the body cannot be framed, so neither can the next
        # request on this connection.  A chunked body is not read at all.
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True
            raise BadRequest("Transfer-Encoding is not supported; send Content-Length")
        if not (text.isascii() and text.isdigit()):
            self.close_connection = True
            raise BadRequest("Content-Length must be a non-negative integer")
        if int(text) > MAX_BODY_BYTES:
            self.close_connection = True  # the unread body would frame the next request
            raise PayloadTooLarge(f"body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(int(text))
        try:
            return json.loads(raw)
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8 or nested too deep
            raise BadRequest(f"invalid JSON body: {exc}") from exc

    def do_GET(self):
        if self.path == "/v1/health":
            self._send(200, self.server.service.handle_health())  # type: ignore[attr-defined]
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        service: DetectionService = self.server.service  # type: ignore[attr-defined]
        try:
            if self.path == "/v1/match":
                self._send(200, service.handle_match(self._read_body()))
            elif self.path == "/v1/signatures":
                self._send(200, service.handle_insert(self._read_body()))
            else:
                self._send(404, {"error": "not found"})
        except BadRequest as exc:
            self._send(exc.status, {"error": str(exc)})
        except (TimeoutError, ConnectionError):
            raise  # a stalled or vanished client: handle_one_request drops the connection
        except Exception as exc:  # malformed input must never kill the server
            log.exception("internal error handling %s", self.path)
            self._send(500, {"error": f"internal error: {exc}"})


class DetectionServer(ThreadingHTTPServer):
    daemon_threads = True
    # socketserver's default listen backlog of 5 resets connections when a
    # burst of clients arrives before the accept loop catches up.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], service: DetectionService):
        super().__init__(address, _Handler)
        self.service = service


def make_server(store: SignatureStore, host: str = "127.0.0.1", port: int = 0,
                threshold=DEFAULT_THRESHOLD, alpha: int = DEFAULT_ALPHA) -> DetectionServer:
    return DetectionServer((host, port), DetectionService(store, threshold, alpha))


def serve(store_path, listen: str = "127.0.0.1:8743",
          threshold=DEFAULT_THRESHOLD, alpha: int = DEFAULT_ALPHA) -> None:
    """Load the store and serve until interrupted.  Startup failures raise."""
    store = load_store(store_path)  # a corrupted store refuses to start
    host, _, port_text = listen.rpartition(":")
    if not host or not port_text.isdigit() or int(port_text) > 65535:
        raise ValueError(f"listen address must be host:port, got {listen!r}")
    server = make_server(store, host, int(port_text), threshold, alpha)
    host, port = server.server_address[:2]
    log.info("serving %d families on %s:%d", len(store.families), host, port)
    print(f"listening on {host}:{port} (store version {store.version})", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


__all__ = [
    "BadRequest",
    "DetectionServer",
    "DetectionService",
    "StoreError",
    "make_server",
    "serve",
]
