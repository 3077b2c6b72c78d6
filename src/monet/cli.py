"""Command-line entry point exposing the full pipeline.

Exit codes: 0 success or clean verdict, 1 malicious verdict, 2 usage error,
3 data error (unparseable inputs, store corruption, I/O).  Diagnostics go to
standard error; results go to standard output or the requested file.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import corpus, service
from .app_model import PackageError, parse_package
from .behavior_graph import (
    GraphError,
    decouple,
    graph_from_json,
    graph_to_json,
    build_sbg,
)
from .dataflow import build_cfg, cfg_to_json, defsets_to_json, reaching_definitions
from .matcher import (
    DEFAULT_ALPHA,
    DEFAULT_THRESHOLD,
    MODES,
    NotDecoupled,
    RuntimeBehaviorSignature,
    decide,
    similarity,
)
from .pipeline import intent_calls, runtime_graph
from .sigstore import (
    FamilySignature,
    StoreError,
    empty_store,
    insert_signature,
    load_store,
    save_store,
)
from .trace import Sss, TraceError, build_sss, parse_trace, sss_from_json_obj

EXIT_OK = 0
EXIT_MALICIOUS = 1
EXIT_USAGE = 2
EXIT_DATA = 3

DATA_ERRORS = (PackageError, GraphError, TraceError, StoreError, NotDecoupled, OSError, ValueError, json.JSONDecodeError)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _dump_dataflow(pkg, dest: str) -> None:
    dump = {}
    for comp in pkg.components:
        for method in pkg.methods.get(comp.name, ()):
            cfg = build_cfg(method)
            sets = reaching_definitions(cfg)
            dump[f"{comp.name}.{method.name}"] = {
                "cfg": cfg_to_json(cfg),
                "defsets": defsets_to_json(sets),
            }
    _write(dest, json.dumps(dump, indent=2, sort_keys=True) + "\n")


def _threshold(text: str) -> float:
    """A ``--threshold`` in (0, 1], the range ``/v1/match`` accepts."""
    value = float(text)
    if not 0 < value <= 1:  # also false for nan
        raise argparse.ArgumentTypeError(f"threshold must be a number in (0, 1], not {text!r}")
    return value


def _alpha(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"alpha must be a non-negative integer, not {text!r}")
    return value


def _cmd_sbg(args) -> int:
    pkg = parse_package(_read(args.package))
    if args.debug_dataflow:
        _dump_dataflow(pkg, args.debug_dataflow)
    graph = build_sbg(pkg, intent_calls(pkg))
    _write(args.output, graph_to_json(graph))
    return EXIT_OK


def _cmd_rbg(args) -> int:
    pkg = parse_package(_read(args.pkg))
    graph = runtime_graph(pkg, parse_trace(_read(args.trace)))
    _write(args.output, graph_to_json(graph))
    return EXIT_OK


def _cmd_decouple(args) -> int:
    rbg = graph_from_json(_read(args.rbg))
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, g in enumerate(decouple(rbg)):
        (out_dir / f"{i:03d}.json").write_text(graph_to_json(g), encoding="utf-8")
    return EXIT_OK


def _cmd_sss(args) -> int:
    sss = build_sss(parse_trace(_read(args.trace)))
    obj = {"endpoints": sorted(sss.endpoints), "executables": sorted(sss.executables)}
    _write(args.output, json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_sim(args) -> int:
    g1 = graph_from_json(_read(args.graph1))
    g2 = graph_from_json(_read(args.graph2))
    score = similarity(g1, g2)
    if score.exact:
        print(f"{float(score.value):.4f} exact=true")
    else:
        print(f"{float(score.value):.4f} exact=false bound={float(score.bound):.4f}")
    return EXIT_OK


def _cmd_sign(args) -> int:
    store_dir = Path(args.store)
    # Only a missing or empty directory starts a new store; anything else must load.
    store = load_store(store_dir) if any(store_dir.glob("*")) else empty_store()
    graphs = tuple(graph_from_json(_read(p)) for p in args.rbg)
    store = insert_signature(store, FamilySignature(args.family, graphs, args.notes))
    if args.blacklist:
        from .sigstore import merge_blacklist

        blacklist = sss_from_json_obj(json.loads(_read(args.blacklist)))
        store = merge_blacklist(store, blacklist.endpoints, blacklist.executables)
    save_store(store, store_dir)
    print(f"store version {store.version}: {store.graph_count()} graphs "
          f"in {len(store.families)} families", file=sys.stderr)
    return EXIT_OK


def _cmd_match(args) -> int:
    store = load_store(args.store)
    rbg = graph_from_json(_read(args.rbg))
    sss = sss_from_json_obj(json.loads(_read(args.sss))) if args.sss else Sss()
    signature = RuntimeBehaviorSignature(app=args.app, rbg=rbg, sss=sss)
    verdict = decide(signature, store, args.threshold, args.mode, args.alpha)
    print(json.dumps(verdict.to_json_obj(), sort_keys=True))
    return EXIT_MALICIOUS if verdict.decision == "malicious" else EXIT_OK


def _cmd_serve(args) -> int:
    service.serve(args.store, args.listen, args.threshold, args.alpha)
    return EXIT_OK


def _cmd_eval(args) -> int:
    report = corpus.run_eval(
        families=args.families,
        variants_per_family=args.variants,
        benign_count=args.benign,
        threshold=args.threshold,
        master_seed=args.seed,
        alpha=args.alpha,
        verify_pruning=args.verify_pruning,
    )
    if args.output:
        _write(args.output, json.dumps(report.to_json_obj(), indent=2, sort_keys=True) + "\n")
    print(report.format_table())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="monet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sbg", help="build the static behavior graph of a package")
    p.add_argument("package")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--debug-dataflow", metavar="PATH", help="dump CFG and IN/OUT sets as JSON")
    p.set_defaults(fn=_cmd_sbg)

    p = sub.add_parser("rbg", help="build the runtime behavior graph of a package and its trace")
    p.add_argument("--pkg", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=_cmd_rbg)

    p = sub.add_parser("decouple", help="split a runtime graph into per-cluster graphs")
    p.add_argument("rbg")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(fn=_cmd_decouple)

    p = sub.add_parser("sss", help="derive the suspicious system-call set from a trace")
    p.add_argument("trace")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=_cmd_sss)

    p = sub.add_parser("sim", help="similarity between two decoupled graphs")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.set_defaults(fn=_cmd_sim)

    p = sub.add_parser("sign", help="insert family graphs into a signature store")
    p.add_argument("--family", required=True)
    p.add_argument("--rbg", nargs="+", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--notes", default="")
    p.add_argument("--blacklist", help="JSON file with endpoints/executables to merge")
    p.set_defaults(fn=_cmd_sign)

    p = sub.add_parser("match", help="match a signature against a store")
    p.add_argument("--store", required=True)
    p.add_argument("--rbg", required=True)
    p.add_argument("--sss")
    p.add_argument("--app", default="suspect")
    p.add_argument("--mode", choices=MODES, default="combined")
    p.add_argument("--threshold", type=_threshold, default=DEFAULT_THRESHOLD)
    p.add_argument("--alpha", type=_alpha, default=DEFAULT_ALPHA)
    p.set_defaults(fn=_cmd_match)

    p = sub.add_parser("serve", help="run the detection server")
    p.add_argument("--store", required=True, help="store directory")
    p.add_argument("--listen", default="127.0.0.1:8743")
    p.add_argument("--threshold", type=_threshold, default=DEFAULT_THRESHOLD)
    p.add_argument("--alpha", type=_alpha, default=DEFAULT_ALPHA)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("eval", help="synthetic transformation-resilience evaluation")
    p.add_argument("--families", type=int, default=10)
    p.add_argument("--variants", type=int, default=12)
    p.add_argument("--benign", type=int, default=100)
    p.add_argument("--threshold", type=_threshold, default=DEFAULT_THRESHOLD)
    p.add_argument("--alpha", type=_alpha, default=DEFAULT_ALPHA)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--verify-pruning", action="store_true")
    p.add_argument("-o", "--output", help="write the JSON report here")
    p.set_defaults(fn=_cmd_eval)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except DATA_ERRORS as exc:
        print(f"monet: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KeyboardInterrupt:
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
