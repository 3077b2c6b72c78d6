#!/usr/bin/env python3
"""Window-scan experiment: the label-mask screen against the exact count bound.

For each store size it builds that many single-graph families from
``corpus.generate_family`` (every stored graph inside the suspects' ±alpha
window, as in perfbench's ``window-scan``), and a set of suspects: half
unrelated apps, half transformed variants of stored families.  Once every
index entry has its mask and every stored graph its profile, it times per
suspect, each on its own over the whole window:

* the screen, one AND and one ``bit_count`` per candidate on the entry's mask;
* the exact bound, one token-set intersection per candidate;
* ``match_rbg``, which runs the screen, the exact bound on what passes, and
  the searches.

It reports how many candidates pass the screen and how many survive the
exact bound, checks that every survivor passed the screen, and reports the
bytes of a mask and of an index entry.  How many candidates pass the screen
moves a little with the process's string hash; the survivors do not.  The
cold figure is the first ``match_rbg`` after the store is built, which fills
the masks of the window.
``--json`` also writes the inputs and results, with the git sha, Python
version and CPU count, to ``BENCH_window.json``.

    PYTHONPATH=src python3 scripts/bench_window.py --json
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

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
    for ref in store.range_candidates(0, 10**9):
        matcher._profile(store.graph(ref))

    windows, screen, exact, match, passed, survived = [], [], [], [], [], []
    for g in clusters:
        window = store.range_candidates(g.app_count, ALPHA)
        windows.append(len(window))

        t0 = time.perf_counter()
        mask, size = matcher.label_mask(g), len(g.nodes) + len(g.edges)
        through = [ref for ref in window
                   if den * (ref.mask & mask).bit_count() >= num * (ref.size + size)]
        screen.append(ms(t0))

        t0 = time.perf_counter()
        p = matcher._profile(g)
        kept = []
        for ref in window:
            shared, total = matcher._shared_total(p, matcher._profile(store.graph(ref)))
            if den * shared >= num * total:
                kept.append(ref)
        exact.append(ms(t0))

        if not set(kept) <= set(through):
            raise SystemExit(f"screen dropped a candidate the exact bound keeps ({families} families)")
        passed.append(len(through))
        survived.append(len(kept))

        t0 = time.perf_counter()
        matcher.match_rbg([g], store, th, ALPHA)
        match.append(ms(t0))

    refs = store.range_candidates(0, 10**9)
    mask_bytes = [sys.getsizeof(ref.mask) for ref in refs]
    return {
        "families": families, "suspect_clusters": len(clusters), "build_s": build_s,
        "window_mean": statistics.fmean(windows),
        "screen_ms_p50": statistics.median(screen), "exact_bound_ms_p50": statistics.median(exact),
        "match_rbg_ms_p50": statistics.median(match), "cold_first_match_ms": cold_ms,
        "passed_screen_mean": statistics.fmean(passed),
        "survived_exact_bound_mean": statistics.fmean(survived),
        "mask_bytes_mean": statistics.fmean(mask_bytes), "mask_bytes_max": max(mask_bytes),
        # The family id string is shared with the store's family table.
        "index_entry_bytes_mean": sys.getsizeof(refs[0]) + statistics.fmean(mask_bytes),
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
    print(f"{'families':>8} {'window':>7} {'screen ms':>9} {'exact ms':>9} {'match ms':>9} "
          f"{'cold ms':>8} {'passed':>7} {'survived':>8} {'mask B':>7} {'entry B':>7}")
    for families in args.families:
        row = measure(families, args.suspects, args.seed)
        rows.append(row)
        print(f"{families:>8} {row['window_mean']:>7.0f} {row['screen_ms_p50']:>9.3f} "
              f"{row['exact_bound_ms_p50']:>9.3f} {row['match_rbg_ms_p50']:>9.3f} "
              f"{row['cold_first_match_ms']:>8.1f} {row['passed_screen_mean']:>7.1f} "
              f"{row['survived_exact_bound_mean']:>8.1f} {row['mask_bytes_mean']:>7.1f} "
              f"{row['index_entry_bytes_mean']:>7.1f}")

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
