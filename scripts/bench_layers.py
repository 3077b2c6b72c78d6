#!/usr/bin/env python3
"""Match-path layers: what one suspect pays before and around its searches.

It builds two suspect shapes, each against its own store, as perfbench's
in-process workloads do:

* ``window``: single-cluster apps, half unrelated and half transformed
  variants, against ``--families`` single-graph families, every stored graph
  inside the suspects' ±alpha window (``window-scan``);
* ``large``: apps of 9-11 app components, 13 unrelated and 12 variants,
  against 8 families of the same size (``large-cluster``).

Once every count's columns and every stored graph's search tables are built,
it times per suspect app, each as the median of ``--repeat`` calls:

* ``decouple`` of its runtime graph;
* ``matcher._label_bits`` of each of its clusters, summed;
* ``matcher._screen`` of each cluster against the window, summed;
* the build of its search tables: for each cluster that the screen passes
  on, a ``similarity`` of a freshly decoupled copy against the cluster's first
  screened candidate, at the threshold, minus the same call on a copy whose
  tables that call has already built.  The candidate's own tables are warm
  for both, so the difference is what the suspect builds for itself.  It exits
  1 if a cold and a warm search of one pair score differently.

It reports the median µs per suspect of each layer, and of the set-up
(``decouple`` + bits + tables), over all suspects and over those that search.
``--json`` also writes the inputs and results, with the git sha, Python
version and CPU count, to ``BENCH_layers.json``.

    PYTHONPATH=src python3 scripts/bench_layers.py --json
"""

import argparse
import random
import statistics
import sys
import time

from monet import corpus, matcher, pipeline, sigstore
from monet.behavior_graph import decouple

from bench_record import write_record

THRESHOLD = matcher.DEFAULT_THRESHOLD
ALPHA = matcher.DEFAULT_ALPHA
WINDOW_SIZE = corpus.SizeParams(benign_components=(0, 0))
LARGE_SIZE = corpus.SizeParams(malicious_components=(9, 11), benign_components=(0, 0))


def _variant(template, op_id: int, seed: int):
    return pipeline.runtime_graph(*corpus.apply_transform(template, corpus.TransformOp(op_id), seed=seed))


def _store(templates, prefix: str):
    store = sigstore.empty_store()
    for i, t in enumerate(templates):
        store = sigstore.insert_signature(store, corpus.family_signature(t, f"{prefix}{i:05d}"))
    return store


def window_shape(families: int, suspects: int, seed: int):
    base = 6_000_000 + seed * 100_000
    templates = [corpus.generate_family(base + i, WINDOW_SIZE) for i in range(families)]
    rng = random.Random(f"bench-layers:{seed}")
    graphs = []
    for j in range(suspects // 2):
        unrelated = corpus.generate_family(base + 90_000 + j, WINDOW_SIZE)
        graphs.append(pipeline.runtime_graph(unrelated.base_pkg, unrelated.base_trace))
        while True:
            try:
                graphs.append(_variant(templates[rng.randrange(families)], 1 + j % 12, j))
                break
            except corpus.InapplicableTransform:
                continue
    return _store(templates, "w"), graphs


def large_shape():
    pool = 8_000_000
    templates = [corpus.generate_family(pool + i, LARGE_SIZE) for i in range(8)]
    graphs = []
    for j in range(13):
        t = corpus.generate_family(pool + 500 + j, LARGE_SIZE)
        graphs.append(pipeline.runtime_graph(t.base_pkg, t.base_trace))
    graphs += [_variant(templates[j % 8], op_id, j) for j, op_id in enumerate(range(1, 13))]
    return _store(templates, "big"), graphs


def median_us(call, repeat: int, prepare=lambda: None) -> float:
    """Median µs of ``call(prepare())`` over ``repeat`` runs; ``prepare`` is not timed."""
    runs = []
    for _ in range(repeat):
        arg = prepare()
        t0 = time.perf_counter()
        call(arg)
        runs.append((time.perf_counter() - t0) * 1e6)
    return statistics.median(runs)


def table_build_us(rbg, index: int, cand, repeat: int) -> float:
    """Cold minus warm ``similarity`` of cluster ``index`` of ``rbg`` against ``cand``."""
    fresh = lambda: decouple(rbg)[index]  # noqa: E731
    search = lambda g: matcher.similarity(g, cand, THRESHOLD)  # noqa: E731
    cold = search(fresh())  # the candidate's side of this pair is built from here on
    warm = fresh()
    if not cold == search(warm) == search(warm):  # the second call reads warm tables
        print("bench_layers: a cold and a warm search scored differently", file=sys.stderr)
        raise SystemExit(1)
    return median_us(search, repeat, fresh) - median_us(search, repeat, lambda: warm)


def measure(store, graphs, repeat: int) -> dict:
    th = matcher.exact_threshold(THRESHOLD)
    num, den = th.numerator, 2 * th.denominator
    for rbg in graphs:  # every count's columns, and each screened candidate's tables
        matcher.match_rbg(decouple(rbg), store, th, ALPHA)
    rows = []
    for rbg in graphs:
        parts = decouple(rbg)
        row = {"decouple": median_us(decouple, repeat, lambda: rbg),
               "bits": sum(median_us(matcher._label_bits, repeat, lambda: g) for g in parts),
               "screen": sum(median_us(lambda g: matcher._screen(store, g, num, den, ALPHA), repeat,
                                       lambda: g) for g in parts),
               "tables": 0.0, "searches": False}
        for i, g in enumerate(parts):
            passed = sorted(matcher._screen(store, g, num, den, ALPHA),
                            key=lambda pair: (pair[0].family_id, pair[0].ordinal))
            if passed:
                row["tables"] += table_build_us(rbg, i, store.graph(passed[0][0]), repeat)
                row["searches"] = True
        row["setup"] = row["decouple"] + row["bits"] + row["tables"]
        rows.append(row)
    searching = [row for row in rows if row["searches"]]
    out = {"suspects": len(rows), "searching": len(searching)}
    for layer in ("decouple", "bits", "screen", "setup"):
        out[f"{layer}_us_p50"] = statistics.median(row[layer] for row in rows)
    if searching:
        out["tables_us_p50"] = statistics.median(row["tables"] for row in searching)
        out["setup_searching_us_p50"] = statistics.median(row["setup"] for row in searching)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--families", type=int, default=2000, help="stored families of the window shape")
    parser.add_argument("--suspects", type=int, default=48, help="window-shape apps, half of them variants")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=31, help="calls per suspect and layer")
    parser.add_argument("--json", action="store_true", help="write BENCH_layers.json")
    args = parser.parse_args()

    results = {"window": measure(*window_shape(args.families, args.suspects, args.seed), args.repeat),
               "large": measure(*large_shape(), args.repeat)}
    print(f"{'shape':>6} {'suspects':>8} {'search':>6} {'decouple':>8} {'bits':>6} {'screen':>7} "
          f"{'tables':>7} {'setup':>7} {'setup*':>7}   (µs per suspect, median; * searching only)")
    for shape, r in results.items():
        print(f"{shape:>6} {r['suspects']:>8} {r['searching']:>6} {r['decouple_us_p50']:>8.1f} "
              f"{r['bits_us_p50']:>6.1f} {r['screen_us_p50']:>7.1f} {r.get('tables_us_p50', 0):>7.1f} "
              f"{r['setup_us_p50']:>7.1f} {r.get('setup_searching_us_p50', 0):>7.1f}")
    if args.json:
        inputs = {"families": args.families, "suspects": args.suspects, "seed": args.seed,
                  "repeat": args.repeat, "threshold": str(THRESHOLD), "alpha": ALPHA}
        write_record("BENCH_layers.json", inputs, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
