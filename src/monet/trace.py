"""Runtime trace logs: binder-call records, intercepted system calls, SSS.

Trace files are offline JSON Lines artifacts standing in for an in-device
collector.  The first non-blank line is a header ``{"app": "<package>"}``;
every following line is either a binder record::

    {"seq": N, "kind": "binder", "caller": "<class>",
     "target": {"type": "component"|"system"|"action", "value": "<string>"},
     "code": N, "content": "...", "dynamic_caller": false}

or a system-call record (only socket and execve are intercepted)::

    {"seq": N, "kind": "syscall", "call": "socket"|"execve", "detail": "<string>"}

``seq`` must be strictly increasing across the whole log.  A completely
empty stream parses as the empty log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


class TraceError(Exception):
    pass


class TraceSyntaxError(TraceError):
    def __init__(self, line: int, reason: str):
        self.line = line
        super().__init__(f"trace line {line}: {reason}")


class NonMonotoneSeq(TraceError):
    def __init__(self, line: int, seq: int):
        self.line = line
        self.seq = seq
        super().__init__(f"trace line {line}: seq {seq} is not strictly increasing")


class UnknownKind(TraceError):
    def __init__(self, line: int, kind: str):
        self.line = line
        self.kind = kind
        super().__init__(f"trace line {line}: unknown record kind {kind!r}")


TARGET_TYPES = ("component", "system", "action")
SYSCALLS = ("socket", "execve")


@dataclass(frozen=True)
class BinderRecord:
    seq: int
    caller: str
    target: tuple[str, str]  # (type, value)
    code: int
    content: str | None = None
    dynamic_caller: bool = False


@dataclass(frozen=True)
class SyscallRecord:
    seq: int
    call: str
    detail: str


@dataclass(frozen=True)
class TraceLog:
    app: str
    binder: tuple[BinderRecord, ...] = ()
    syscalls: tuple[SyscallRecord, ...] = ()


@dataclass(frozen=True)
class Sss:
    """Suspicious system-call set: socket endpoints and executed binaries.

    Also the store's blacklist.  Any iterables are accepted and kept as
    frozensets, with every endpoint's host lowercased (:func:`normalize_endpoint`).
    """

    endpoints: frozenset[str] = frozenset()
    executables: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "endpoints", frozenset(map(normalize_endpoint, self.endpoints)))
        object.__setattr__(self, "executables", frozenset(self.executables))


def _require(cond: bool, line: int, reason: str) -> None:
    if not cond:
        raise TraceSyntaxError(line, reason)


def parse_trace(stream: str) -> TraceLog:
    """Parse a JSON Lines trace; see the module docstring for the format."""
    app: str | None = None
    binder: list[BinderRecord] = []
    syscalls: list[SyscallRecord] = []
    last_seq: int | None = None

    for lineno, raw in enumerate(stream.split("\n"), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise TraceSyntaxError(lineno, f"invalid JSON ({exc.msg})") from exc
        _require(isinstance(obj, dict), lineno, "record must be a JSON object")
        if app is None:
            _require("app" in obj and isinstance(obj["app"], str), lineno, "header {'app': ...}")
            _require(set(obj) == {"app"}, lineno, "header with only the 'app' field")
            app = obj["app"]
            continue
        kind = obj.get("kind")
        if kind not in ("binder", "syscall"):
            raise UnknownKind(lineno, str(kind))
        seq = obj.get("seq")
        _require(isinstance(seq, int) and not isinstance(seq, bool), lineno, "integer 'seq'")
        if last_seq is not None and seq <= last_seq:
            raise NonMonotoneSeq(lineno, seq)
        last_seq = seq
        if kind == "binder":
            caller = obj.get("caller")
            target = obj.get("target")
            code = obj.get("code")
            _require(isinstance(caller, str) and bool(caller), lineno, "'caller' string")
            _require(
                isinstance(target, dict)
                and target.get("type") in TARGET_TYPES
                and isinstance(target.get("value"), str),
                lineno,
                "'target' with type in component/system/action and string value",
            )
            _require(isinstance(code, int) and not isinstance(code, bool), lineno, "integer 'code'")
            content = obj.get("content")
            _require(content is None or isinstance(content, str), lineno, "'content' string")
            dynamic = obj.get("dynamic_caller", False)
            _require(isinstance(dynamic, bool), lineno, "'dynamic_caller' boolean")
            binder.append(
                BinderRecord(seq, caller, (target["type"], target["value"]), code, content, dynamic)
            )
        else:
            call = obj.get("call")
            detail = obj.get("detail")
            if call not in SYSCALLS:
                raise TraceSyntaxError(lineno, "'call' must be socket or execve")
            _require(isinstance(detail, str) and bool(detail), lineno, "'detail' string")
            syscalls.append(SyscallRecord(seq, call, detail))

    return TraceLog(app or "", tuple(binder), tuple(syscalls))


def render_trace(trace: TraceLog) -> str:
    """Serialize back to JSON Lines; parse_trace(render_trace(t)) == t."""
    lines = [json.dumps({"app": trace.app}, sort_keys=True)]
    records: list[tuple[int, dict]] = []
    for r in trace.binder:
        obj = {
            "seq": r.seq,
            "kind": "binder",
            "caller": r.caller,
            "target": {"type": r.target[0], "value": r.target[1]},
            "code": r.code,
            "dynamic_caller": r.dynamic_caller,
        }
        if r.content is not None:
            obj["content"] = r.content
        records.append((r.seq, obj))
    for s in trace.syscalls:
        records.append((s.seq, {"seq": s.seq, "kind": "syscall", "call": s.call, "detail": s.detail}))
    records.sort(key=lambda x: x[0])
    lines.extend(json.dumps(obj, sort_keys=True) for _, obj in records)
    return "\n".join(lines) + "\n"


def normalize_endpoint(detail: str) -> str:
    """Lowercase the host part of ``host:port``; the port stays verbatim."""
    host, sep, port = detail.rpartition(":")
    if not sep:
        return detail.lower()
    return host.lower() + ":" + port


def sss_from_json_obj(obj) -> Sss:
    """The SSS of ``{"endpoints"?, "executables"?}``, each a list of strings.

    Raises ``ValueError`` on anything else.
    """
    if not isinstance(obj, dict):
        raise ValueError("SSS must be an object")
    parts = []
    for key in ("endpoints", "executables"):
        items = obj.get(key, [])
        if not isinstance(items, list) or not all(isinstance(x, str) for x in items):
            raise ValueError(f"SSS {key!r} must be a list of strings")
        parts.append(items)
    return Sss(*parts)


def build_sss(trace: TraceLog) -> Sss:
    """Distinct socket endpoints and execve paths."""
    endpoints = [r.detail for r in trace.syscalls if r.call == "socket"]
    executables = [r.detail for r in trace.syscalls if r.call == "execve"]
    return Sss(endpoints, executables)
