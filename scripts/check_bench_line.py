#!/usr/bin/env python3
"""Check that a traced perfbench run ended with a whole result line.

Reads a run's standard output on stdin.  Its last line must be strict JSON
(no ``NaN`` or ``Infinity``), an object with ``correct`` true, integer
``attempted`` and ``failed``, and ``metrics`` holding exactly the per-layer
metric names that ``BENCHMARK.json`` declares, each with a finite number.

    python3 perfbench/run.py --workload detect-corpus --seed 1 --smoke --trace 1 \\
        | python3 scripts/check_bench_line.py

Exits 0 when the line passes, and 1 with one message per problem otherwise.
"""

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def per_layer_names() -> set[str]:
    return {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}


def problems(output: str, names: set[str]) -> list[str]:
    """What is wrong with the last line of ``output`` as a traced result."""
    lines = output.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1], parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"last line is not strict JSON: {exc}"]
    if not isinstance(result, dict):
        return ["last line is not a JSON object"]
    found = []
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}")
    for key in ("attempted", "failed"):
        if type(result.get(key)) is not int:
            found.append(f"{key} is not an integer")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return found + ["no metrics object"]
    for name in sorted(names - metrics.keys()):
        found.append(f"missing metric {name}")
    for name in sorted(metrics.keys() - names):
        found.append(f"undeclared metric {name}")
    for name, metric in sorted(metrics.items()):
        value = metric.get("value") if isinstance(metric, dict) else None
        if type(value) not in (int, float):
            found.append(f"{name} has no numeric value")
    return found


def main() -> int:
    found = problems(sys.stdin.read(), per_layer_names())
    for problem in found:
        print(f"check_bench_line: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
