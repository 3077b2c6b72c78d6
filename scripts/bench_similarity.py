#!/usr/bin/env python3
"""Similarity-search experiment: random single-cluster pairs at 8-20 app
components, searched unfloored and at a floor of 0.8.

Half the pairs are variants (the same cluster renamed, with a few non-tree
edges dropped, added or recoded), half are unrelated, so the floored search
sees pairs on both sides of the floor.  Per size and floor it reports the
median and max wall time of a cold search, on fresh copies of the pair whose
profiles and search tables are not built yet; the median wall time of a warm
search, the same pair searched again with everything built, as in a store
scan; the warm microseconds per node expansion, over the searches that
expanded any; the median and max node expansions; how many searches spent
the whole expansion budget; how many reached the floor; and the largest gap
between a proven bound and the value found, over results whose bound reaches
the floor (a result proven below the floor settles the question however low
its value).  ``--json``
also writes the inputs and results, with the git sha, Python version and
CPU count, to ``BENCH_similarity.json``.

    PYTHONPATH=src python3 scripts/bench_similarity.py --json
"""

import argparse
import random
import statistics
import sys
import time
from fractions import Fraction

from monet import matcher
from monet.behavior_graph import AppComponent, BehaviorGraph, SystemComponent

from bench_record import write_record

KINDS = ("activity", "service")
SYSTEM = ("PackageManager", "PhoneSubInfo", "ISms", "WindowManager", "JobScheduler",
          "ConnectivityManager", "LocationManager", "AudioManager")
CODES = (1, 2, 3, 4)
FLOOR = "0.8"  # the default detection threshold


def random_cluster(rng: random.Random, n_app: int):
    """Kinds, spanning-tree edges and extra edges of one app cluster, by index."""
    kinds = [rng.choice(KINDS) for _ in range(n_app)]
    tree = [(rng.randrange(i), i, rng.choice(CODES)) for i in range(1, n_app)]
    extra = [(rng.randrange(n_app), rng.randrange(n_app), rng.choice(CODES))
             for _ in range(n_app // 2)]
    extra += [(rng.randrange(n_app), rng.choice(SYSTEM), rng.choice(CODES))
              for _ in range(n_app // 2 + 1)]
    return kinds, tree, extra


def to_graph(prefix: str, kinds, edges) -> BehaviorGraph:
    apps = [AppComponent(f"{prefix}.C{i}", k) for i, k in enumerate(kinds)]
    nodes = list(apps)
    triples = []
    for src, dst, code in edges:
        target = apps[dst] if isinstance(dst, int) else SystemComponent(dst)
        nodes.append(target)
        triples.append((apps[src], target, code))
    return BehaviorGraph.of("runtime", nodes, triples)


def make_pair(rng: random.Random, n_app: int):
    kinds, tree, extra = random_cluster(rng, n_app)
    g1 = to_graph("com.a", kinds, tree + extra)
    if rng.random() < 0.5:
        kinds2, tree2, extra2 = random_cluster(rng, n_app)
        return g1, to_graph("com.b", kinds2, tree2 + extra2), "unrelated"
    extra = list(extra)
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.4 and extra:
            extra.pop(rng.randrange(len(extra)))
        elif roll < 0.7 and extra:
            src, dst, _ = extra.pop(rng.randrange(len(extra)))
            extra.append((src, dst, rng.choice(CODES)))
        else:
            extra.append((rng.randrange(n_app), rng.randrange(n_app), rng.choice(CODES)))
    return g1, to_graph("com.b", kinds, tree + extra), "variant"


def fresh(g: BehaviorGraph) -> BehaviorGraph:
    """A copy of ``g`` that has no matcher profile yet."""
    return BehaviorGraph(g.origin, dict(g.nodes), dict(g.edges))


def timed(g1, g2, floor):
    t0 = time.perf_counter()
    score = matcher.similarity(g1, g2, floor)
    return score, (time.perf_counter() - t0) * 1000.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 10, 12, 14, 16, 18, 20])
    parser.add_argument("--pairs", type=int, default=6, help="pairs per size")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", action="store_true", help="write BENCH_similarity.json")
    args = parser.parse_args()

    floor = matcher.exact_threshold(FLOOR)
    rows = []
    print(f"{'apps':>4} {'floor':>5} {'median ms':>10} {'max ms':>9} {'warm ms':>8} "
          f"{'us/exp':>7} {'med exp':>8} {'max exp':>8} {'budget':>6} {'reached':>7} "
          f"{'max gap':>8}")
    for n_app in args.sizes:
        rng = random.Random(f"bench-similarity:{args.seed}:{n_app}")
        pairs = [make_pair(rng, n_app) for _ in range(args.pairs)]
        for label, fl in (("0", Fraction(0)), (FLOOR, floor)):
            times, warm, expansions, gaps = [], [], [], []
            exhausted = reached = 0
            for g1, g2, _ in pairs:
                a, b = fresh(g1), fresh(g2)
                score, ms = timed(a, b, fl)
                times.append(ms)
                warm_score, ms = timed(a, b, fl)
                if warm_score != score:
                    raise SystemExit(f"a warm search disagrees with a cold one ({n_app} apps)")
                warm.append(ms)
                expansions.append(score.expansions)
                gaps.append(float(score.bound - score.value) if score.bound >= fl else 0.0)
                exhausted += not score.exact and score.bound >= fl
                reached += score.value >= fl
            row = {
                "app_components": n_app, "floor": label, "pairs": len(pairs),
                "variants": sum(1 for *_, kind in pairs if kind == "variant"),
                "median_ms": statistics.median(times), "max_ms": max(times),
                "warm_median_ms": statistics.median(warm),
                "warm_us_per_expansion": (1000.0 * sum(ms for ms, e in zip(warm, expansions) if e)
                                          / sum(expansions) if any(expansions) else None),
                "median_expansions": statistics.median(expansions),
                "max_expansions": max(expansions), "budget_exhausted": exhausted,
                "reached_floor": reached, "max_bound_gap": max(gaps),
            }
            rows.append(row)
            per_exp = row["warm_us_per_expansion"]
            print(f"{n_app:>4} {label:>5} {row['median_ms']:>10.1f} {row['max_ms']:>9.1f} "
                  f"{row['warm_median_ms']:>8.2f} "
                  f"{'-' if per_exp is None else f'{per_exp:.1f}':>7} "
                  f"{row['median_expansions']:>8.0f} {row['max_expansions']:>8} "
                  f"{exhausted:>6} {reached:>7} {row['max_bound_gap']:>8.3f}")

    if args.json:
        inputs = {"sizes": args.sizes, "pairs_per_size": args.pairs, "floor": FLOOR,
                  "seed": args.seed, "kinds": list(KINDS),
                  "search_budget": matcher.SEARCH_BUDGET}
        write_record("BENCH_similarity.json", inputs, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
