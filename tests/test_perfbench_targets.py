"""The perfbench tracer wraps monet functions by module and name, and quietly
leaves out the metrics of any it cannot find.  A rename or move in monet must
therefore show up here, not as a missing per-layer metric."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("name, module_name, attr, cls_name", TARGETS, ids=[t[0] for t in TARGETS])
def test_every_traced_function_still_exists(name, module_name, attr, cls_name):
    owner = importlib.import_module(module_name)
    if cls_name is not None:
        owner = getattr(owner, cls_name, None)
    assert callable(getattr(owner, attr, None)), f"{name}: no {attr} in {module_name} {cls_name or ''}"
