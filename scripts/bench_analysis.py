#!/usr/bin/env python3
"""Analysis-path experiment: from ``.mir`` and trace text to a runtime graph.

It generates a detection corpus with ``monet.corpus``: ``--families`` family
templates, every applicable transformation of each, and ``--benign`` clean
apps, each rendered to package-IR and trace text.  It then times each stage of
the client path on its own, over every app, and reports microseconds per app
(the median over ``--repeat`` passes):

* ``parse_package`` and ``parse_trace``, from text;
* ``intent_calls``, the CFGs, reaching definitions and intent resolution;
* ``build_sbg`` and ``complete_rbg``, the static and runtime graphs.

It also counts, per app, the methods, the methods with a start-call, the
CFGs built and the (variable, block) OUT entries their reaching-definition
queries solved, and digests the resolved intent calls, which must not move
when the analysis changes underneath.  ``--json`` also writes the inputs and results, with the git sha,
Python version and CPU count, to ``BENCH_analysis.json``.

    PYTHONPATH=src python3 scripts/bench_analysis.py --json
"""

import argparse
import hashlib
import statistics
import sys
import time

from monet import app_model, behavior_graph, corpus, dataflow, pipeline, trace

from bench_record import write_record


def build(families: int, benign: int, seed: int):
    """(mir text, trace text) per app: each family's variants, then benign apps."""
    base = 5_000_000 + seed * 1000
    templates = [corpus.generate_family(base + i) for i in range(families)]
    apps = []
    for t in templates:
        for op_id in range(1, 13):
            try:
                apps.append(corpus.apply_transform(t, corpus.TransformOp(op_id), seed=seed))
            except corpus.InapplicableTransform:
                continue
    base_graphs = [corpus.malicious_graph(t) for t in templates]
    for b in range(benign):
        pkg, log, _, _ = corpus.generate_benign(base * 10 + b, corpus.SizeParams(), base_graphs)
        apps.append((pkg, log))
    return [(app_model.render_package(pkg), trace.render_trace(log)) for pkg, log in apps]


def recording(module_attr: str, results: list):
    """Wrap a ``monet.dataflow`` function in every monet module that holds it,
    keeping what each call returns; returns a function that undoes the wrapping."""
    original = getattr(dataflow, module_attr)

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    holders = [mod for name, mod in sys.modules.items()
               if name.startswith("monet") and getattr(mod, module_attr, None) is original]
    for mod in holders:
        setattr(mod, module_attr, recorded)

    def undo():
        for mod in holders:
            setattr(mod, module_attr, original)
    return undo


def measure(texts, repeat: int) -> dict:
    n = len(texts)
    pkgs = [app_model.parse_package(mir) for mir, _ in texts]
    logs = [trace.parse_trace(log) for _, log in texts]
    calls = [pipeline.intent_calls(pkg) for pkg in pkgs]
    sbgs = [behavior_graph.build_sbg(pkg, c) for pkg, c in zip(pkgs, calls)]

    stages = {
        "parse_package": lambda: [app_model.parse_package(mir) for mir, _ in texts],
        "parse_trace": lambda: [trace.parse_trace(log) for _, log in texts],
        "intent_calls": lambda: [pipeline.intent_calls(pkg) for pkg in pkgs],
        "build_sbg": lambda: [behavior_graph.build_sbg(p, c) for p, c in zip(pkgs, calls)],
        "complete_rbg": lambda: [behavior_graph.complete_rbg(s, log, p)
                                 for s, log, p in zip(sbgs, logs, pkgs)],
    }
    times = {name: [] for name in stages}
    for _ in range(repeat):
        for name, stage in stages.items():
            t0 = time.perf_counter()
            stage()
            times[name].append((time.perf_counter() - t0) * 1e6 / n)
    us = {name: statistics.median(t) for name, t in times.items()}

    methods = [m for pkg in pkgs for ms in pkg.methods.values() for m in ms]
    with_start = sum(1 for m in methods
                     if any(i.op in app_model.START_OPS for _, instrs in m.blocks for i in instrs))
    cfgs = []
    undo = recording("build_cfg", cfgs)
    try:
        digest = hashlib.sha256()
        for pkg in pkgs:
            digest.update(repr(pipeline.intent_calls(pkg)).encode())
    finally:
        undo()
    return {
        "apps": n,
        "us_per_app": us,
        "analysis_us_per_app": sum(us.values()),
        "methods_per_app": len(methods) / n,
        "methods_with_start_call_per_app": with_start / n,
        "cfgs_built_per_app": len(cfgs) / n,
        "out_entries_solved_per_app": sum(len(cfg.solved) for cfg in cfgs) / n,
        "intent_calls_sha256": digest.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--families", type=int, default=20)
    parser.add_argument("--benign", type=int, default=40)
    parser.add_argument("--repeat", type=int, default=15, help="timed passes per stage")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", action="store_true", help="write BENCH_analysis.json")
    args = parser.parse_args()

    texts = build(args.families, args.benign, args.seed)
    row = measure(texts, args.repeat)
    print(f"{row['apps']} apps, median of {args.repeat} passes, µs per app:")
    for name, value in row["us_per_app"].items():
        print(f"  {name:<14} {value:>9.1f}")
    print(f"  {'total':<14} {row['analysis_us_per_app']:>9.1f}")
    print(f"per app: {row['methods_per_app']:.2f} methods, "
          f"{row['methods_with_start_call_per_app']:.2f} with a start-call, "
          f"{row['cfgs_built_per_app']:.2f} CFGs built, "
          f"{row['out_entries_solved_per_app']:.2f} OUT entries solved")
    print(f"intent calls sha256 {row['intent_calls_sha256']}")

    if args.json:
        inputs = {"families": args.families, "benign": args.benign, "seed": args.seed,
                  "repeat": args.repeat, "generator": "monet.corpus"}
        write_record("BENCH_analysis.json", inputs, row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
