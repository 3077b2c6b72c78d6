"""Convenience wrappers chaining the analysis stages end to end."""

from __future__ import annotations

from .app_model import START_OPS, AppPackage
from .behavior_graph import BehaviorGraph, build_sbg, complete_rbg
from .dataflow import IntentCall, build_cfg, extract_intent_calls
from .matcher import RuntimeBehaviorSignature
from .trace import TraceLog, build_sss


def intent_calls(pkg: AppPackage) -> list[IntentCall]:
    """Resolve the start-calls of every method; a method without one gets no CFG."""
    calls: list[IntentCall] = []
    for comp in pkg.components:
        for method in pkg.methods.get(comp.name, ()):
            if any(instr.op in START_OPS for _, instrs in method.blocks for instr in instrs):
                calls.extend(extract_intent_calls(comp, build_cfg(method)))
    return calls


def static_graph(pkg: AppPackage) -> BehaviorGraph:
    return build_sbg(pkg, intent_calls(pkg))


def runtime_graph(pkg: AppPackage, trace: TraceLog) -> BehaviorGraph:
    return complete_rbg(static_graph(pkg), trace, pkg)


def signature_of(pkg: AppPackage, trace: TraceLog) -> RuntimeBehaviorSignature:
    return RuntimeBehaviorSignature(pkg.package_name, runtime_graph(pkg, trace), build_sss(trace))
