#!/usr/bin/env python3
"""Window-scan experiment: the label-mask screen before the searches.

For each store size it builds that many single-graph families from
``corpus.generate_family`` (every stored graph inside the suspects' ±alpha
window, as in perfbench's ``window-scan``), and a set of suspects: half
unrelated apps, half transformed variants of stored families.  Once every
index entry has its mask, it times per suspect, each on its own over the
whole window:

* the screen, one AND and one ``bit_count`` per candidate on the entry's mask;
* ``match_rbg``, which runs the screen and searches what passes.

Masks and the count bound (``upper_bound_value``) compare the same labels:
system and action ids, app kinds, and each edge as its code and the labels of
both endpoints.  It reports how many candidates pass the screen, how many of
them reach the exact count bound, and how many searches and expansions
``match_rbg`` makes per suspect; with endpoint-typed edges an unrelated
suspect usually has no candidate left to search.  It checks that the screen never
drops a candidate whose count bound reaches the threshold, and digests the
verdicts, which must not move when the matcher changes underneath.  It also
reports the bytes of a mask, of an index entry and of a searched graph's
profile (tracemalloc, over the first 500 stored graphs).  How many candidates
pass the screen, and so how many are searched, moves a little with the
process's string hash; the verdicts do not.  The cold figure is the first
``match_rbg`` after the store is built, which fills the masks of the window.
``--json`` also writes the inputs and results, with the git sha, Python
version and CPU count, to ``BENCH_window.json``.

    PYTHONPATH=src python3 scripts/bench_window.py --json
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import tracemalloc

from monet import corpus, matcher, pipeline, sigstore
from monet.behavior_graph import decouple

SIZE = corpus.SizeParams(benign_components=(0, 0))
THRESHOLD = matcher.DEFAULT_THRESHOLD
ALPHA = matcher.DEFAULT_ALPHA


def git_sha():
    """HEAD's sha, suffixed ``-dirty`` when the work tree has uncommitted changes."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def build(families: int, suspects: int, seed: int):
    base = 3_000_000 + seed * 100_000
    templates = [corpus.generate_family(base + i, SIZE) for i in range(families)]
    store = sigstore.empty_store()
    for i, t in enumerate(templates):
        store = sigstore.insert_signature(store, corpus.family_signature(t, f"w{i:05d}"))
    rng = random.Random(f"bench-window:{seed}")
    graphs = []
    for j in range(suspects // 2):
        unrelated = corpus.generate_family(base + 90_000 + j, SIZE)
        graphs.append(pipeline.runtime_graph(unrelated.base_pkg, unrelated.base_trace))
        while True:
            try:
                pkg, log = corpus.apply_transform(templates[rng.randrange(families)],
                                                  corpus.TransformOp(1 + j % 12), seed=j)
                break
            except corpus.InapplicableTransform:
                continue
        graphs.append(pipeline.runtime_graph(pkg, log))
    return store, [g for rbg in graphs for g in decouple(rbg)]


def ms(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


def profile_bytes(graphs) -> float:
    """Mean bytes a first search leaves in each graph's profile."""
    for g in graphs:
        g._profile = None
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    for g in graphs:
        matcher.similarity(g, g)
    held = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return held / len(graphs)


def measure(families: int, suspects: int, seed: int) -> dict:
    t0 = time.perf_counter()
    store, clusters = build(families, suspects, seed)
    build_s = time.perf_counter() - t0
    th = matcher.exact_threshold(THRESHOLD)
    num, den = th.numerator, 2 * th.denominator

    t0 = time.perf_counter()
    matcher.match_rbg(clusters[:1], store, th, ALPHA)
    cold_ms = ms(t0)
    matcher.match_rbg(clusters, store, th, ALPHA)  # every stored graph is in every window

    scores = []
    search = matcher.similarity

    def counting_search(g1, g2, floor=0):
        scores.append(score := search(g1, g2, floor))
        return score

    windows, screen, match, passed, reached, searches, expansions = [], [], [], [], [], [], []
    verdicts = hashlib.sha256()
    for g in clusters:
        window = store.range_candidates(g.app_count, ALPHA)
        windows.append(len(window))

        t0 = time.perf_counter()
        mask, size = matcher.label_mask(g), len(g.nodes) + len(g.edges)
        through = [ref for ref in window
                   if den * (ref.mask & mask).bit_count() >= num * (ref.size + size)]
        screen.append(ms(t0))

        kept = [ref for ref in window if matcher.upper_bound_value(g, store.graph(ref)) >= th]
        if not set(kept) <= set(through):
            raise SystemExit(f"screen dropped a candidate the count bound keeps ({families} families)")
        passed.append(len(through))
        reached.append(len(kept))

        scores.clear()
        matcher.similarity = counting_search
        try:
            hit = matcher.match_rbg([g], store, th, ALPHA)
        finally:
            matcher.similarity = search
        searches.append(len(scores))
        expansions.append(sum(s.expansions for s in scores))
        verdicts.update(repr(hit and (hit[0], hit[1].value)).encode())

        t0 = time.perf_counter()
        matcher.match_rbg([g], store, th, ALPHA)
        match.append(ms(t0))

    refs = store.range_candidates(0, 10**9)
    mask_bytes = [sys.getsizeof(ref.mask) for ref in refs]
    return {
        "families": families, "suspect_clusters": len(clusters), "build_s": build_s,
        "window_mean": statistics.fmean(windows), "screen_ms_p50": statistics.median(screen),
        "match_rbg_ms_p50": statistics.median(match), "cold_first_match_ms": cold_ms,
        "passed_screen_mean": statistics.fmean(passed),
        "reached_count_bound_mean": statistics.fmean(reached),
        "searches_mean": statistics.fmean(searches),
        "expansions_mean": statistics.fmean(expansions),
        "verdicts_sha256": verdicts.hexdigest(),
        "mask_bytes_mean": statistics.fmean(mask_bytes), "mask_bytes_max": max(mask_bytes),
        # The family id string is shared with the store's family table.
        "index_entry_bytes_mean": sys.getsizeof(refs[0]) + statistics.fmean(mask_bytes),
        "profile_bytes_mean": profile_bytes([store.graph(ref) for ref in refs[:500]]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--families", type=int, nargs="+", default=[2000, 10000])
    parser.add_argument("--suspects", type=int, default=48, help="apps, half of them variants")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", action="store_true", help="write BENCH_window.json")
    args = parser.parse_args()

    rows = []
    print(f"{'families':>8} {'window':>7} {'screen ms':>9} {'match ms':>9} {'cold ms':>8} "
          f"{'passed':>7} {'reached':>7} {'searches':>8} {'mask B':>7} {'entry B':>7} {'profile B':>9}")
    for families in args.families:
        row = measure(families, args.suspects, args.seed)
        rows.append(row)
        print(f"{families:>8} {row['window_mean']:>7.0f} {row['screen_ms_p50']:>9.3f} "
              f"{row['match_rbg_ms_p50']:>9.3f} {row['cold_first_match_ms']:>8.1f} "
              f"{row['passed_screen_mean']:>7.1f} {row['reached_count_bound_mean']:>7.1f} "
              f"{row['searches_mean']:>8.2f} {row['mask_bytes_mean']:>7.1f} "
              f"{row['index_entry_bytes_mean']:>7.1f} {row['profile_bytes_mean']:>9.0f}")

    if args.json:
        record = {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "inputs": {"families": args.families, "suspects": args.suspects, "seed": args.seed,
                       "threshold": str(THRESHOLD), "alpha": ALPHA,
                       "mask_width": matcher.MASK_WIDTH},
            "results": rows,
        }
        with open("BENCH_window.json", "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
