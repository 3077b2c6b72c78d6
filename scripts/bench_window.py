#!/usr/bin/env python3
"""Window-scan experiment: the count-column screen before the searches.

For each store size it builds that many single-graph families from
``corpus.generate_family`` (every stored graph inside the suspects' ±alpha
window, as in perfbench's ``window-scan``), and a set of suspects: half
unrelated apps, half transformed variants of stored families.  Once every
app-component count has its count columns, it times per suspect, each on its
own over the whole window and on a warm repeat, after the checks below have
run the same call once:

* the screen (``matcher._screen``), per count one sum of the columns of the
  suspect's label bits and one whole-int expression that marks the candidates
  whose bound reaches the threshold;
* ``match_rbg``, which runs the screen and searches what passes.

The screen and the count bound (``upper_bound_value``) compare the same labels:
system and action ids, app kinds, and each edge as its code and the labels of
both endpoints.  It reports how many candidates pass the screen, how many of
them reach the exact count bound, and how many searches and expansions
``match_rbg`` makes per suspect; with endpoint-typed edges an unrelated
suspect usually has no candidate left to search.  It checks that the screen
returns exactly the (candidate, shared count) pairs of the per-candidate
reference (``tests/oracles.screen_reference``, one mask AND and one
``bit_count`` per candidate), and never drops a candidate whose count bound
reaches the threshold, and digests the verdicts, which must not move when the
matcher changes underneath.  It exits 1 if a check fails.  It also reports the bytes
of the screen per stored graph, of an index entry and of a searched graph's
profile (tracemalloc, over the first 500 stored graphs).  How many candidates
pass the screen, and so how many are searched, moves a little with the
process's string hash; the verdicts do not.  The cold figure is the first
``match_rbg`` after the store is built, which builds the columns of every
count in the window.  Then, ``--inserts`` times, it inserts a suspect graph
into a window family and times the next suspect's first ``match_rbg`` on the
new snapshot, which derives the touched count's columns from the old
snapshot's; each derived screen must equal one built from scratch, and two
suspects' screens must still equal the reference.  ``--json`` also writes
the inputs and results, with the git sha, Python version and CPU count, to
``BENCH_window.json``.

    PYTHONPATH=src python3 scripts/bench_window.py --json
"""

import argparse
import hashlib
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from monet import corpus, matcher, pipeline, sigstore
from monet.behavior_graph import decouple

from bench_record import write_record

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import screen_reference  # noqa: E402

SIZE = corpus.SizeParams(benign_components=(0, 0))
THRESHOLD = matcher.DEFAULT_THRESHOLD
ALPHA = matcher.DEFAULT_ALPHA


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


def pair_key(pair):
    return pair[0].family_id, pair[0].ordinal, pair[1]


def screen_bytes(store) -> int:
    """Bytes of every count's screen: its object, column dict and ints (the
    refs tuple is the index's own)."""
    total = 0
    for screen in store.screens.values():
        ints = [*screen.cols.values(), screen.sizes, screen.ones, screen.highs]
        total += sys.getsizeof(screen) + sys.getsizeof(screen.cols) + sum(map(sys.getsizeof, ints))
    return total


def fail(message: str):
    print(f"bench_window: {message}", file=sys.stderr)
    raise SystemExit(1)


def measure(families: int, suspects: int, seed: int, inserts: int) -> dict:
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

        through = matcher._screen(store, g, num, den, ALPHA)
        if sorted(through, key=pair_key) != sorted(screen_reference(store, g, th, ALPHA), key=pair_key):
            fail(f"screen differs from the per-candidate reference ({families} families)")
        kept = [ref for ref in window if matcher.upper_bound_value(g, store.graph(ref)) >= th]
        if not set(kept) <= {ref for ref, _ in through}:
            fail(f"screen dropped a candidate the count bound keeps ({families} families)")
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

        # Both timed on a warm repeat, one right after the other.
        t0 = time.perf_counter()
        matcher._screen(store, g, num, den, ALPHA)
        screen.append(ms(t0) * 1000.0)
        t0 = time.perf_counter()
        matcher.match_rbg([g], store, th, ALPHA)
        match.append(ms(t0))

    refs = store.range_candidates(0, 10**9)
    row = {
        "families": families, "suspect_clusters": len(clusters), "build_s": build_s,
        "window_mean": statistics.fmean(windows), "screen_us_p50": statistics.median(screen),
        "match_rbg_ms_p50": statistics.median(match), "cold_first_match_ms": cold_ms,
        "passed_screen_mean": statistics.fmean(passed),
        "reached_count_bound_mean": statistics.fmean(reached),
        "searches_mean": statistics.fmean(searches),
        "expansions_mean": statistics.fmean(expansions),
        "verdicts_sha256": verdicts.hexdigest(),
        "screen_bytes_per_graph": screen_bytes(store) / len(refs),
        # The family id string is shared with the store's family table.
        "index_entry_bytes": sys.getsizeof(refs[0]),
        "profile_bytes_mean": profile_bytes([store.graph(ref) for ref in refs[:500]]),
    }
    after_insert = []
    for i in range(inserts):
        g = clusters[i % len(clusters)]
        new = sigstore.insert_signature(store, sigstore.FamilySignature(refs[i].family_id, (g,)))
        t0 = time.perf_counter()
        matcher.match_rbg([clusters[(i + 1) % len(clusters)]], new, th, ALPHA)
        after_insert.append(ms(t0))
        key, touched = g.app_count, dict(new.window(g.app_count, 0))[g.app_count]
        derived, scratch = new.screens[key], matcher._KeyScreen(new, touched)
        if (derived.refs, derived.cols, derived.sizes, derived.ones) != \
                (scratch.refs, scratch.cols, scratch.sizes, scratch.ones):
            fail(f"columns derived at count {key} differ from columns built from scratch")
        for s in clusters[i % 7::7][:2]:
            got = matcher._screen(new, s, num, den, ALPHA)
            if sorted(got, key=pair_key) != sorted(screen_reference(new, s, th, ALPHA), key=pair_key):
                fail(f"screen after {i + 1} inserts differs from the per-candidate reference")
        store = new
    if after_insert:
        row["first_match_after_insert_ms_p50"] = statistics.median(after_insert)
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--families", type=int, nargs="+", default=[2000, 10000])
    parser.add_argument("--suspects", type=int, default=48, help="apps, half of them variants")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--inserts", type=int, default=8,
                        help="inserts into window families after the timed scans, each timed "
                             "with the first match after it")
    parser.add_argument("--json", action="store_true", help="write BENCH_window.json")
    args = parser.parse_args()

    rows = []
    print(f"{'families':>8} {'window':>7} {'screen us':>9} {'match ms':>9} {'cold ms':>8} "
          f"{'ins ms':>7} {'passed':>7} {'reached':>7} {'searches':>8} {'screen B':>8} "
          f"{'entry B':>7} {'profile B':>9}")
    for families in args.families:
        row = measure(families, args.suspects, args.seed, args.inserts)
        rows.append(row)
        print(f"{families:>8} {row['window_mean']:>7.0f} {row['screen_us_p50']:>9.1f} "
              f"{row['match_rbg_ms_p50']:>9.3f} {row['cold_first_match_ms']:>8.1f} "
              f"{row.get('first_match_after_insert_ms_p50', float('nan')):>7.2f} "
              f"{row['passed_screen_mean']:>7.1f} {row['reached_count_bound_mean']:>7.1f} "
              f"{row['searches_mean']:>8.2f} {row['screen_bytes_per_graph']:>8.1f} "
              f"{row['index_entry_bytes']:>7} {row['profile_bytes_mean']:>9.0f}")

    if args.json:
        inputs = {"families": args.families, "suspects": args.suspects, "seed": args.seed,
                  "inserts": args.inserts, "threshold": str(THRESHOLD), "alpha": ALPHA,
                  "mask_width": matcher.MASK_WIDTH}
        write_record("BENCH_window.json", inputs, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
