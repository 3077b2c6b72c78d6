"""``scripts/check_bench_line.py`` guards CI against a traced perfbench run
that exits 0 without a whole result as its last line."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_bench_line.py"


def _checker():
    spec = importlib.util.spec_from_file_location("check_bench_line", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECK = _checker()
NAMES = CHECK.per_layer_names()


def _line(**overrides) -> str:
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {name: {"value": 0.5, "unit": "ms/op"} for name in sorted(NAMES)}}
    result.update(overrides)
    return json.dumps(result)


def test_benchmark_declares_thirty_one_per_layer_metrics():
    assert len(NAMES) == 31


def test_a_whole_result_line_passes():
    assert CHECK.problems("progress\n" + _line() + "\n", NAMES) == []


def test_non_finite_values_are_refused():
    for constant in ("NaN", "Infinity", "-Infinity"):
        text = _line().replace('"value": 0.5', f'"value": {constant}', 1)
        assert any("strict JSON" in p for p in CHECK.problems(text, NAMES)), constant


def test_missing_and_undeclared_metrics_are_named():
    metrics = json.loads(_line())["metrics"]
    gone = sorted(metrics)[0]
    del metrics[gone]
    metrics["dataflow.extra"] = {"value": 1.0, "unit": "ms/op"}
    found = CHECK.problems(_line(metrics=metrics), NAMES)
    assert f"missing metric {gone}" in found
    assert "undeclared metric dataflow.extra" in found


def test_a_last_line_that_is_not_a_result_is_refused():
    assert CHECK.problems("", NAMES) == ["no output"]
    assert CHECK.problems(_line() + "\nperfbench: done\n", NAMES)
    assert CHECK.problems("[1, 2]", NAMES) == ["last line is not a JSON object"]
    assert "correct is False" in CHECK.problems(_line(correct=False), NAMES)
    assert "no metrics object" in CHECK.problems(_line(metrics=None), NAMES)
