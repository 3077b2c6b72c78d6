"""The benchmark's four workloads: inputs, the op each one times, and the
checks each op's output must pass.

Every workload is a closed loop: a caller sends its next op only after the
previous verdict came back.  Inputs are generated from the seed with monet's
own corpus generator before any timing starts, and every timed phase runs
whole rounds of the same ops, so the share of failed ops does not depend on
how long a run lasts.  Expected outputs come from ``oracle``, which does not
use ``monet.matcher``.
"""

from __future__ import annotations

import http.client
import json
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

from monet import app_model, behavior_graph, corpus, pipeline, sigstore, trace
from monet import matcher

import oracle

THRESHOLD = Fraction(4, 5)
ALPHA = 5
SEMANTICS_PRESERVING = (1, 2, 5, 6, 8, 9, 10)
MODES = ("combined", "rbg_only", "sss_only")
# In-process workloads prepare this many graphs to insert and use them in turn.
INSERT_GRAPHS = 40


class CheckFailed(Exception):
    """An op returned an output that disagrees with the reference."""


def _shapes(sig) -> list[oracle.Shape]:
    return [oracle.Shape(g) for g in behavior_graph.decouple(sig.rbg)]


def _check_graph_verdict(verdict, expected) -> None:
    """The verdict's graph evidence against the oracle's best over the window."""
    best, families = expected
    if best is None:
        if verdict.family is not None or verdict.best_score is not None:
            raise CheckFailed(f"reported {verdict.family} but nothing reaches the threshold")
        return
    score = verdict.best_score
    if score is None or verdict.family not in families:
        raise CheckFailed(f"family {verdict.family}, want one of {sorted(families)} at {best}")
    if score.exact and score.value != best:
        raise CheckFailed(f"exact score {score.value} != reference {best}")
    if not score.exact and score.value > best:
        raise CheckFailed(f"inexact score {score.value} exceeds reference {best}")


def _stored_shapes(store) -> list[tuple[str, oracle.Shape]]:
    return [(fid, oracle.Shape(g)) for fid in sorted(store.families)
            for g in store.families[fid].graphs]


def _renamed_cluster(template, k: int):
    """The malicious cluster of an op-1 renaming of ``template`` under seed ``k``:
    a graph equal in structure to the family's, distinct as a blob."""
    pkg, log = corpus.apply_transform(template, corpus.TransformOp(1), seed=k)
    renamed = {pkg.components[i].name for i, c in enumerate(template.base_pkg.components)
               if c.name in template.malicious_cluster}
    for g in behavior_graph.decouple(pipeline.runtime_graph(pkg, log)):
        if {c.name for c in g.app_components()} & renamed:
            return g
    raise AssertionError("renamed malicious cluster not found")


class InProcess:
    """A workload whose caller is the benchmark process itself."""

    name = ""
    tail_pct = 95.0
    setup_repeats = 1  # loads before the timed phase
    setups_per_round = 0  # loads spread through each round
    inserts_per_round = 10

    def __init__(self, seed: int, work: Path, smoke: bool):
        self.seed = seed
        self.work = work
        self.smoke = smoke
        self.store_dir = work / "store"
        self.store = None
        self.items: list = []
        self.insert_items: list = []
        self.sizes: dict = {}

    def save_inputs(self) -> None:
        with open(self.work / "inputs.pickle", "wb") as fh:
            pickle.dump((self.items, self.insert_items, self.sizes), fh)

    def load_inputs(self) -> None:
        with open(self.work / "inputs.pickle", "rb") as fh:
            self.items, self.insert_items, self.sizes = pickle.load(fh)

    def load(self):
        """What the program does before it can answer: load the store."""
        return sigstore.load_store(self.store_dir)

    def op(self, item):
        raise NotImplementedError

    def check(self, item, result) -> None:
        raise NotImplementedError

    def insert(self, family) -> tuple[int, int]:
        """Insert a new graph into an existing family of the loaded store.
        The store is immutable, so every insert starts from the same store.
        Returns the new store's version and the family's graph count."""
        new = sigstore.insert_signature(self.store, family)
        return new.version, len(new.families[family.family_id].graphs)

    def check_insert(self, family, result: tuple[int, int]) -> None:
        want = (self.store.version + 1, len(self.store.families[family.family_id].graphs) + 1)
        if result != want:
            raise CheckFailed(f"insert into {family.family_id} gave {result}, want {want}")

    def _insert_items(self, templates: list, family_ids: list[str], salt: int) -> None:
        n = 4 if self.smoke else INSERT_GRAPHS
        for j in range(n):
            i = j % len(templates)
            g = _renamed_cluster(templates[i], salt + j)
            self.insert_items.append(sigstore.FamilySignature(family_ids[i], (g,)))


class DetectCorpus(InProcess):
    """.mir text and JSONL trace text to a ``combined`` verdict, small store."""

    name = "detect-corpus"
    tail_pct = 99.0
    setups_per_round = 4
    inserts_per_round = 8
    # Per-app cost follows family size; twenty families keep a seed's mean
    # close to the generator's.
    FAMILIES = 20
    BENIGN = 40

    def build(self) -> None:
        n_fam, n_benign = (3, 3) if self.smoke else (self.FAMILIES, self.BENIGN)
        base = 1_000_000 + self.seed * 1000
        templates = [corpus.generate_family(base + i) for i in range(n_fam)]
        family_ids = [f"fam{i:03d}" for i in range(n_fam)]
        store = sigstore.empty_store()
        for t, fid in zip(templates, family_ids):
            store = sigstore.insert_signature(store, corpus.family_signature(t, fid))
            store = sigstore.merge_blacklist(store, *corpus.family_blacklist(t))
        sigstore.save_store(store, self.store_dir)
        stored = _stored_shapes(store)

        apps = []  # (mir text, trace text, family id or None, op id or None)
        for t, fid in zip(templates, family_ids):
            for op_id in range(1, 13):
                try:
                    pkg, log = corpus.apply_transform(t, corpus.TransformOp(op_id), seed=self.seed)
                except corpus.InapplicableTransform:
                    continue
                apps.append((pkg, log, fid, op_id))
        base_graphs = [store.graph(ref) for ref in store.range_candidates(0, 10**9)]
        for b in range(n_benign):
            pkg, log, _, _ = corpus.generate_benign(base * 10 + b, corpus.SizeParams(), base_graphs)
            apps.append((pkg, log, None, None))
        rng = random.Random(f"detect:{self.seed}")
        rng.shuffle(apps)
        for pkg, log, fid, op_id in apps:
            expected = oracle.best_match(_shapes(pipeline.signature_of(pkg, log)), stored,
                                         THRESHOLD, ALPHA)
            self.items.append((app_model.render_package(pkg), trace.render_trace(log), fid, op_id,
                               expected))
        self._insert_items(templates, family_ids, salt=base)
        self.sizes = {"families": n_fam, "variants": len(apps) - n_benign, "benign": n_benign,
                      "apps_per_round": len(apps)}

    def op(self, item):
        pkg = app_model.parse_package(item[0])
        log = trace.parse_trace(item[1])
        sig = pipeline.signature_of(pkg, log)
        return matcher.decide(sig, self.store, THRESHOLD, "combined", ALPHA)

    def check(self, item, verdict) -> None:
        mir, log, family, op_id, expected = item
        _check_graph_verdict(verdict, expected)
        if family is None:
            sig = pipeline.signature_of(app_model.parse_package(mir), trace.parse_trace(log))
            for mode in MODES:
                if matcher.decide(sig, self.store, THRESHOLD, mode, ALPHA).decision != "clean":
                    raise CheckFailed(f"benign app flagged in {mode}")
            return
        if verdict.decision != "malicious":
            raise CheckFailed(f"variant of {family} (op {op_id}) not flagged")
        if op_id in SEMANTICS_PRESERVING and (
                verdict.family != family or verdict.best_score.value != 1):
            raise CheckFailed(f"op {op_id} variant of {family} scored {verdict.best_score}")


class WindowScan(InProcess):
    """Prebuilt signatures against thousands of single-graph families, every
    one inside the suspect's window."""

    name = "window-scan"
    tail_pct = 95.0
    # Loads go before the phase: a second copy of this store held during a
    # round would move the peak memory.
    setup_repeats = 5
    # Single-cluster apps throughout, so every suspect scans the window once.
    SIZE = corpus.SizeParams(benign_components=(0, 0))
    SIGNATURES = 2000
    SUSPECTS = 96
    inserts_per_round = 20

    def build(self) -> None:
        n_sig, n_sus = (60, 6) if self.smoke else (self.SIGNATURES, self.SUSPECTS)
        base = 2_000_000 + self.seed * 100_000
        templates = [corpus.generate_family(base + i, self.SIZE) for i in range(n_sig)]
        family_ids = [f"w{i:05d}" for i in range(n_sig)]
        store = sigstore.empty_store()
        for t, fid in zip(templates, family_ids):
            store = sigstore.insert_signature(store, corpus.family_signature(t, fid))
        sigstore.save_store(store, self.store_dir)
        stored = _stored_shapes(store)

        rng = random.Random(f"window:{self.seed}")
        sigs = []
        for j in range(n_sus // 2):
            unrelated = corpus.generate_family(base + 50_000 + j, self.SIZE)
            sigs.append(pipeline.signature_of(unrelated.base_pkg, unrelated.base_trace))
            op_id = 1 + j % 12
            while True:
                try:
                    pkg, log = corpus.apply_transform(templates[rng.randrange(n_sig)],
                                                      corpus.TransformOp(op_id), seed=j)
                    break
                except corpus.InapplicableTransform:
                    continue
            sigs.append(pipeline.signature_of(pkg, log))
        rng.shuffle(sigs)
        self.items = [(sig, oracle.best_match(_shapes(sig), stored, THRESHOLD, ALPHA))
                      for sig in sigs]
        self._insert_items(templates, family_ids, salt=base)
        self.sizes = {"signatures": n_sig, "suspects_per_round": len(sigs)}

    def op(self, item):
        return matcher.decide(item[0], self.store, THRESHOLD, "rbg_only", ALPHA)

    def check(self, item, result) -> None:
        _check_graph_verdict(result, item[1])
        if (result.decision == "malicious") != (item[1][0] is not None):
            raise CheckFailed(f"decision {result.decision} disagrees with the reference")


class LargeCluster(InProcess):
    """Suspects with 9-11 app components against families of the same size,
    where the count bound passes candidates on to the exact search."""

    name = "large-cluster"
    tail_pct = 89.0
    setups_per_round = 8
    inserts_per_round = 24
    SIZE = corpus.SizeParams(malicious_components=(9, 11), benign_components=(0, 0))
    # The store and suspects are one fixed pool; the seed orders the suspects.
    # Search time per suspect runs from under a millisecond to seconds here,
    # so a pool drawn per seed would move the figures more than any usable
    # bound.
    POOL = 8_000_000
    FAMILIES = 8
    UNRELATED = 13
    VARIANT_OPS = tuple(range(1, 13))

    def build(self) -> None:
        n_fam = 3 if self.smoke else self.FAMILIES
        templates = [corpus.generate_family(self.POOL + i, self.SIZE) for i in range(n_fam)]
        family_ids = [f"big{i:02d}" for i in range(n_fam)]
        store = sigstore.empty_store()
        for t, fid in zip(templates, family_ids):
            store = sigstore.insert_signature(store, corpus.family_signature(t, fid))
        sigstore.save_store(store, self.store_dir)
        stored = _stored_shapes(store)

        sigs = []
        unrelated = 1 if self.smoke else self.UNRELATED
        for j in range(unrelated):
            t = corpus.generate_family(self.POOL + 500 + j, self.SIZE)
            sigs.append(pipeline.signature_of(t.base_pkg, t.base_trace))
        ops = self.VARIANT_OPS[:2] if self.smoke else self.VARIANT_OPS
        for j, op_id in enumerate(ops):
            pkg, log = corpus.apply_transform(templates[j % n_fam], corpus.TransformOp(op_id), seed=j)
            sigs.append(pipeline.signature_of(pkg, log))
        random.Random(f"large:{self.seed}").shuffle(sigs)
        self.items = [(sig, oracle.best_match(_shapes(sig), stored, THRESHOLD, ALPHA))
                      for sig in sigs]
        self._insert_items(templates, family_ids, salt=self.POOL + self.seed * 100)
        self.sizes = {"families": n_fam, "unrelated": unrelated, "variants": len(ops),
                      "suspects_per_round": len(sigs)}

    op = WindowScan.op
    check = WindowScan.check


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------


class ServeMixed:
    """``monet serve`` in a child process; one client process holding two
    keep-alive connections sends matches in all three modes and a fixed
    share of inserts that grow existing families."""

    name = "serve-mixed"
    tail_pct = 98.0
    setup_repeats = 4  # starts before the timed phase
    setups_after = 3  # and after it
    FAMILIES = 30
    CONNECTIONS = 2
    MATCHES_PER_ROUND = 18  # per connection
    INSERTS_PER_ROUND = 2  # per connection
    INSERT_BODIES = 600

    def __init__(self, seed: int, work: Path, smoke: bool, root: Path):
        self.seed = seed
        self.work = work
        self.smoke = smoke
        self.root = root
        self.store_dir = work / "store"
        self.proc = None
        self.port = 0
        self.version0 = 0  # store version the running server started with
        self.sizes: dict = {}
        self.rounds: list[list] = []  # per connection: one round of requests
        self.insert_bodies: list[bytes] = []

    def build(self) -> None:
        n_fam = 4 if self.smoke else self.FAMILIES
        base = 3_000_000 + self.seed * 1000
        templates = [corpus.generate_family(base + i) for i in range(n_fam)]
        family_ids = [f"s{i:03d}" for i in range(n_fam)]
        store = sigstore.empty_store()
        for t, fid in zip(templates, family_ids):
            store = sigstore.insert_signature(store, corpus.family_signature(t, fid))
            store = sigstore.merge_blacklist(store, *corpus.family_blacklist(t))
        sigstore.save_store(store, self.store_dir)
        base_graphs = [store.graph(ref) for ref in store.range_candidates(0, 10**9)]

        rng = random.Random(f"serve:{self.seed}")
        matches = self.MATCHES_PER_ROUND if not self.smoke else 3
        k = 0
        for c in range(self.CONNECTIONS):
            requests = []
            for j in range(matches):
                mode = MODES[(c + j) % 3]
                if j % 3 == 2:
                    pkg, log, _, _ = corpus.generate_benign(base * 10 + k, corpus.SizeParams(),
                                                            base_graphs)
                    family = None
                else:
                    i = rng.randrange(n_fam)
                    while True:
                        op_id = rng.randint(1, 12)
                        try:
                            pkg, log = corpus.apply_transform(templates[i], corpus.TransformOp(op_id),
                                                              seed=k)
                            break
                        except corpus.InapplicableTransform:
                            continue
                    family = family_ids[i]
                k += 1
                sig = pipeline.signature_of(pkg, log)
                body = {
                    "signature": {
                        "app": sig.app,
                        "rbg": behavior_graph.graph_to_json_obj(sig.rbg),
                        "sss": {"endpoints": sorted(sig.sss.endpoints),
                                "executables": sorted(sig.sss.executables)},
                    },
                    "mode": mode,
                }
                requests.append(("/v1/match", json.dumps(body).encode(), (family, mode)))
            inserts = self.INSERTS_PER_ROUND
            for j in range(inserts):
                spot = 1 + (j * matches) // inserts + j
                requests.insert(spot, ("/v1/signatures", None, None))
            self.rounds.append(requests)
        n_bodies = 8 if self.smoke else self.INSERT_BODIES
        for j in range(n_bodies):
            i = j % n_fam
            g = _renamed_cluster(templates[i], base + j)
            body = {"family_id": family_ids[i], "graphs": [behavior_graph.graph_to_json_obj(g)]}
            self.insert_bodies.append(json.dumps(body).encode())
        self.sizes = {"families": n_fam, "connections": self.CONNECTIONS,
                      "matches_per_round": matches * self.CONNECTIONS,
                      "inserts_per_round": self.INSERTS_PER_ROUND * self.CONNECTIONS,
                      "distinct_insert_graphs": n_bodies}

    # -- the server --------------------------------------------------------

    def start(self, spans_path: Path | None = None) -> float:
        """Start the server; return seconds until ``/v1/health`` answers."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        serve_args = ["serve", "--store", str(self.store_dir), "--listen", "127.0.0.1:0"]
        if spans_path is None:
            argv = [sys.executable, "-m", "monet.cli", *serve_args]
        else:
            launcher = Path(__file__).resolve().parent / "serve_traced.py"
            argv = [sys.executable, str(launcher), str(spans_path), *serve_args]
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, cwd=self.root, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])
        deadline = time.monotonic() + 60
        while True:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
                conn.request("GET", "/v1/health")
                resp = conn.getresponse()
                health = json.loads(resp.read())
                conn.close()
                if resp.status == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server never answered /v1/health")
            time.sleep(0.005)
        elapsed = time.perf_counter() - start
        self.version0 = health["store_version"]
        return elapsed

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None

    # -- the client --------------------------------------------------------

    def run_phase(self, seconds: float):
        """Closed loop on every connection for ``seconds``, whole rounds each.

        Returns per-connection lists of (path, latency, status, reply,
        expectation, request bytes) and the elapsed time.  Inserts take the
        prepared bodies in turn, wrapping around once all are used.
        """
        counter = [0]
        lock = threading.Lock()
        logs: list[list] = [[] for _ in self.rounds]
        errors: list[BaseException] = []

        def caller(c: int) -> None:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
            try:
                start = time.perf_counter()
                while True:
                    for path, body, expect in self.rounds[c]:
                        if body is None:
                            with lock:
                                body = self.insert_bodies[counter[0] % len(self.insert_bodies)]
                                counter[0] += 1
                        t0 = time.perf_counter()
                        try:
                            conn.request("POST", path, body=body,
                                         headers={"Content-Type": "application/json"})
                            resp = conn.getresponse()
                            data = resp.read()
                            status = resp.status
                        except (OSError, http.client.HTTPException) as exc:
                            data, status = repr(exc).encode(), 0
                            conn.close()
                            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
                        logs[c].append((path, time.perf_counter() - t0, status, data, expect,
                                        len(body)))
                    if time.perf_counter() - start >= seconds:
                        break
            except BaseException as exc:  # reported by the caller of run_phase
                errors.append(exc)
            finally:
                conn.close()

        threads = [threading.Thread(target=caller, args=(c,)) for c in range(len(self.rounds))]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        if errors:
            raise errors[0]
        return logs, elapsed

    def check(self, logs) -> tuple[int, int, int, int]:
        """Check every reply.  Returns (attempted, failed, wrong, inserts):
        ``wrong`` counts answered requests whose reply failed a check."""
        attempted = failed = wrong = inserts = 0
        insert_versions = []
        for log in logs:
            last_version = -1
            for path, _, status, data, expect, _ in log:
                attempted += 1
                try:
                    if status != 200:
                        print(f"perfbench: {path} answered {status}: {data[:200]!r}",
                              file=sys.stderr)
                        failed += 1
                        continue
                    reply = json.loads(data)
                    version = reply["store_version"]
                    if version < last_version:
                        raise CheckFailed(f"store version went back from {last_version} to {version}")
                    last_version = version
                    if path == "/v1/signatures":
                        inserts += 1
                        insert_versions.append(version)
                        continue
                    family, mode = expect
                    verdict = reply["verdict"]
                    if family is None:
                        if verdict["decision"] != "clean":
                            raise CheckFailed(f"benign app flagged in {mode}: {verdict}")
                    elif verdict["decision"] != "malicious":
                        raise CheckFailed(f"variant of {family} not flagged in {mode}")
                    elif mode != "sss_only" and verdict.get("family") != family:
                        raise CheckFailed(f"{mode} named {verdict.get('family')}, want {family}")
                except (CheckFailed, ValueError, KeyError, TypeError) as exc:
                    print(f"perfbench: {path}: {exc!r}", file=sys.stderr)
                    failed += 1
                    wrong += 1
        # Each insert returns the version before it plus one, so together the
        # inserts of a phase return consecutive versions.
        insert_versions.sort()
        expected = list(range(self.version0 + 1, self.version0 + 1 + len(insert_versions)))
        if insert_versions != expected:
            print(f"perfbench: insert versions {insert_versions}, want {expected}", file=sys.stderr)
            bad = sum(1 for a, b in zip(insert_versions, expected) if a != b) or 1
            failed += bad
            wrong += bad
        return attempted, failed, wrong, inserts
