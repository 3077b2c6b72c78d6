#!/usr/bin/env python3
"""monet benchmark: four closed-loop workloads from .mir text to HTTP verdict.

    python3 perfbench/run.py --workload detect-corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --smoke

Run from the repository root; the program is imported from ``src`` with the
standard library alone.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs half the time untraced and half traced and prints the
per-layer metrics and the tracing overhead.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every run appends a record to ``perfbench/results/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("detect-corpus", "window-scan", "large-cluster", "serve-mixed")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _ms(seconds: float) -> float:
    return seconds * 1000.0


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def _share(i: int, n: int, k: int) -> int:
    """How many of ``k`` evenly spread extras follow the ``i``-th of ``n`` ops."""
    return (i + 1) * k // n - i * k // n


def timed_phase(w, seconds: float, kept: dict, setups: list, tracer=None):
    """Whole rounds until ``seconds`` have passed: every item of ``w.items``,
    with ``w.inserts_per_round`` store inserts and ``w.setups_per_round``
    store loads spread evenly between the ops.

    Returns one (op latencies, insert latencies, elapsed) per round.  Load
    times go to ``setups`` and are left out of ``elapsed``: spread over the
    run, their median does not rest on one moment of the machine's speed.
    ``kept`` maps each item index, or ``("insert", n)`` for the n-th insert
    graph, to its distinct results (an exception for a call that raised) and
    how often each came back, so the benchmark's own memory does not grow
    with the op count.  Inserts and loads are not traced as ops.
    """
    n_items, n_graphs = len(w.items), len(w.insert_items)
    rounds = []
    inserted = 0
    total = 0.0
    while True:
        latencies: list[float] = []
        insert_latencies: list[float] = []
        loading = 0.0
        start = time.perf_counter()
        for i, item in enumerate(w.items):
            if tracer is not None:
                tracer.begin_request()
            t0 = time.perf_counter()
            try:
                result = w.op(item)
            except Exception as exc:  # an op that raises is a failed op
                result = exc
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_request()
            _keep(kept, i, result)
            for _ in range(_share(i, n_items, w.inserts_per_round)):
                n = inserted % n_graphs
                inserted += 1
                t0 = time.perf_counter()
                try:
                    result = w.insert(w.insert_items[n])
                except Exception as exc:  # an insert that raises is a failed op
                    result = exc
                insert_latencies.append(time.perf_counter() - t0)
                _keep(kept, ("insert", n), result)
            for _ in range(_share(i, n_items, w.setups_per_round)):
                t0 = time.perf_counter()
                w.load()
                setups.append(time.perf_counter() - t0)
                loading += setups[-1]
        elapsed = time.perf_counter() - start - loading
        rounds.append((latencies, insert_latencies, elapsed))
        total += elapsed
        if total >= seconds:
            return rounds


def _keep(kept: dict, key, result) -> None:
    entries = kept.setdefault(key, [])
    for entry in entries:
        if entry[0] == result:
            entry[1] += 1
            return
    entries.append([result, 1])


def check_results(w, kept) -> tuple[int, int]:
    """Returns (failed ops, ops whose output failed a check)."""
    from workloads import CheckFailed

    failed = wrong = 0
    for key, entries in kept.items():
        for result, count in entries:
            if isinstance(result, Exception):
                print(f"perfbench: {w.name} {key} raised {result!r}", file=sys.stderr)
                failed += count
                continue
            try:
                if isinstance(key, tuple):
                    w.check_insert(w.insert_items[key[1]], result)
                else:
                    w.check(w.items[key], result)
            except CheckFailed as exc:
                print(f"perfbench: {w.name} {key}: {exc}", file=sys.stderr)
                failed += count
                wrong += count
    return failed, wrong


def run_inprocess(w, seconds: float, trace: bool) -> dict:
    setups = []
    for _ in range(w.setup_repeats):
        t0 = time.perf_counter()
        w.store = w.load()
        setups.append(time.perf_counter() - t0)

    phase_seconds = seconds / 2 if trace else seconds
    kept: dict = {}
    rounds = timed_phase(w, phase_seconds, kept, setups)
    out = {"setups": setups, "rounds": rounds}
    attempted = sum(len(ops) + len(inserts) for ops, inserts, _ in rounds)
    if trace:
        from tracing import SpanTable, Tracer, layer_metrics
        from workloads import THRESHOLD

        tracer = Tracer()
        tracer.install()
        try:
            for _ in range(w.setup_repeats):
                w.store = w.load()
            traced_rounds = timed_phase(w, phase_seconds, kept, [], tracer)
        finally:
            tracer.uninstall()
        traced = [t for ops, _, _ in traced_rounds for t in ops]
        attempted += sum(len(ops) + len(inserts) for ops, inserts, _ in traced_rounds)
        table = SpanTable(tracer.names, tracer.rows())
        layers = layer_metrics(table, tracer.present, len(traced), 0, THRESHOLD, w.tail_pct)
        # No request crosses HTTP here.
        layers["service.transport.ms"] = (0.0, "ms/request")
        layers["service.request_kb"] = (0.0, "KB/request")
        out["layers"] = layers
        out["traced_latencies"] = traced
        out["tracer"] = tracer
    failed, wrong = check_results(w, kept)
    out.update(attempted=attempted, failed=failed, wrong=wrong,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return out


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------


def run_serve(w, seconds: float, trace: bool, spans_path: Path) -> dict:
    w.build()
    setups = []
    try:
        for r in range(w.setup_repeats):
            if r:
                w.stop()
            setups.append(w.start())
        phase_seconds = seconds / 2 if trace else seconds
        logs, elapsed = w.run_phase(phase_seconds)
        attempted, failed, wrong, _ = w.check(logs)
        w.stop()
        # More starts after the phase, so the median spans the run.
        for _ in range(w.setups_after):
            setups.append(w.start())
            w.stop()
    finally:
        w.stop()
    out = {"setups": setups}
    if trace:
        from tracing import SpanTable, layer_metrics, read_spans
        from workloads import THRESHOLD

        try:
            w.start(spans_path)
            traced_logs, _ = w.run_phase(phase_seconds)
        finally:
            w.stop()
        t_attempted, t_failed, t_wrong, t_inserts = w.check(traced_logs)
        attempted += t_attempted
        failed += t_failed
        wrong += t_wrong
        names, rows = read_spans(spans_path)
        table = SpanTable(names, rows)
        requests = [entry for log in traced_logs for entry in log]
        present = set(names)
        layers = layer_metrics(table, present, len(requests), t_inserts, THRESHOLD, w.tail_pct)
        handled = sum(sum(table.durations.get(n, [])) for n in
                      ("service.handle_match", "service.handle_insert"))
        client = sum(entry[1] for entry in requests)
        layers["service.transport.ms"] = (_ms(client - handled) / len(requests), "ms/request")
        layers["service.request_kb"] = (
            statistics.fmean(entry[5] for entry in requests) / 1024.0, "KB/request")
        out["layers"] = layers
        out["traced_latencies"] = [e[1] for e in requests if e[0] == "/v1/match"]
    # The connections run their rounds side by side, so the phase is one round.
    out["rounds"] = [([e[1] for log in logs for e in log if e[0] == "/v1/match"],
                      [e[1] for log in logs for e in log if e[0] == "/v1/signatures"], elapsed)]
    out.update(attempted=attempted, failed=failed, wrong=wrong,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    return out


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def in_process(name: str, seed: int, work: Path, smoke: bool):
    import workloads

    cls = {"detect-corpus": workloads.DetectCorpus, "window-scan": workloads.WindowScan,
           "large-cluster": workloads.LargeCluster}[name]
    return cls(seed, work, smoke)


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import workloads
    from tracing import percentile

    work = HERE / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{name}.jsonl.gz"
    try:
        if name == "serve-mixed":
            w = workloads.ServeMixed(seed, work, smoke, ROOT)
            raw = run_serve(w, seconds, trace, spans_path)
        else:
            # Inputs are built in a child process, so that this process's peak
            # memory is the store's and the run's, not the generator's.
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--build-into", str(work)]
            subprocess.run(argv + (["--smoke"] if smoke else []), check=True, cwd=ROOT)
            w = in_process(name, seed, work, smoke)
            w.load_inputs()
            raw = run_inprocess(w, seconds, trace)
            if trace:
                raw.pop("tracer").write(spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = raw["rounds"]
    lat = [t for ops, _, _ in rounds for t in ops]

    def over_rounds(figure) -> float:
        """A figure taken per round, as the median over the run's rounds, so
        that a burst of machine slowness in one round does not move it."""
        return statistics.median(figure(ops, inserts, elapsed) for ops, inserts, elapsed in rounds)

    end_to_end = {
        "setup_s": (statistics.median(raw["setups"]), "s"),
        "ops_per_s": (over_rounds(lambda ops, _, elapsed: len(ops) / elapsed), "ops/s"),
        "op_p50_ms": (_ms(over_rounds(lambda ops, _, __: statistics.median(ops))), "ms"),
        "op_tail_ms": (_ms(over_rounds(lambda ops, _, __: percentile(ops, w.tail_pct))), "ms"),
        "insert_p50_ms": (_ms(over_rounds(lambda _, inserts, __: statistics.median(inserts))),
                          "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    if trace:
        metrics = dict(raw["layers"])
        metrics["trace.overhead_ms"] = (
            _ms(statistics.median(raw["traced_latencies"]) - statistics.median(lat)), "ms")
    else:
        metrics = end_to_end
    result = {
        "correct": raw["wrong"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "inputs": w.sizes,
        "ops": len(lat),
        "rounds": len(rounds),
        "tail_percentile": w.tail_pct,
        "tail_samples_beyond": int(len(lat) * (100.0 - w.tail_pct) / 100.0),
        "inserts": sum(len(inserts) for _, inserts, _ in rounds),
        "setup_samples": len(raw["setups"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "metrics": result["metrics"],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
    }
    with open(RESULTS / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return result


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    traces = (0, 1) if args.smoke else (args.trace,)
    for name in WORKLOADS:
        for trace in traces:
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                return _fail(f"{name} (trace {trace}) exited with {proc.returncode}")
            result = json.loads(lines[-1])
            print(json.dumps({"workload": name, "trace": trace, **result}, sort_keys=True))
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            summary["workloads"][f"{name}/trace{trace}"] = result["metrics"]
    print(json.dumps(summary, sort_keys=True))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one round per phase, every check on")
    parser.add_argument("--build-into", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (ROOT / "src" / "monet" / "__init__.py").is_file():
        return _fail(f"no monet sources under {ROOT / 'src'}; run from a full checkout")
    if args.smoke:
        args.seconds = 0.0
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    if args.build_into:
        w = in_process(args.workload, args.seed, Path(args.build_into), args.smoke)
        w.build()
        w.save_inputs()
        return 0
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
