"""Pool-submission pickle-safety rule (FLOW-PKL).

Spawn-start workers unpickle everything they receive.  This rule follows
the payload: anything unpicklable by construction -- lambdas, locally
defined functions/classes, open file handles, thread locks -- is tainted,
taint survives `functools.partial`, container literals and helper
returns, and a finding fires where the value crosses a pool/process
boundary, whether it is written right at the submission or laundered
through any number of wrappers.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from repro.analysis.flow.callgraph import CallSite, _FunctionScope, build_callgraph
from repro.analysis.flow.engine import TaintResult, TaintSpec, run_taint
from repro.analysis.flow.pools import submission_of
from repro.analysis.flow.symbols import FlowProject, ModuleInfo
from repro.analysis.framework import FileContext, LintRule, register_rule

__all__ = ["PoolPayloadPickleRule"]

#: Externals that construct unpicklable values.
_LOCK_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Event",
        "threading.Barrier",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
        "multiprocessing.Condition",
    }
)

#: Externals taint flows through unchanged (wrappers and containers).
_PASSTHROUGH = frozenset(
    {"partial", "tuple", "list", "dict", "set", "frozenset"}
)


class _PickleSpec(TaintSpec):
    family = "FLOW-PKL"

    def call_source(self, site: CallSite) -> Optional[str]:
        if site.external == "open":
            return "an open file handle"
        if site.external in _LOCK_FACTORIES:
            return f"a `{site.external}()` lock/primitive"
        return None

    def expr_source(
        self, node: ast.expr, scope: _FunctionScope, module: ModuleInfo
    ) -> Optional[str]:
        if isinstance(node, ast.Lambda):
            return "a lambda"
        if isinstance(node, ast.Name):
            if node.id in scope.nested_defs:
                return f"locally-defined function `{node.id}`"
            if node.id in scope.local_classes:
                return f"locally-defined class `{node.id}`"
            if node.id in scope.lambda_locals:
                return f"lambda-bound local `{node.id}`"
            if (
                node.id not in scope.assigned
                and node.id in module.lambda_globals
            ):
                return f"module-level lambda `{node.id}`"
        return None

    def passthrough_external(self, external: str) -> bool:
        return external.split(".")[-1] in _PASSTHROUGH

    def sink_crossings(
        self, site: CallSite, module: ModuleInfo
    ) -> List[Tuple[str, ast.expr]]:
        submission = submission_of(site)
        if submission is None:
            return []
        return [(submission.description, expr) for expr in submission.crossings]


def _compute(project: FlowProject) -> TaintResult:
    graph = project.analysis("callgraph", build_callgraph)
    return run_taint(graph, _PickleSpec())


@register_rule
class PoolPayloadPickleRule(LintRule):
    rule_id = "FLOW-PKL"
    name = "unpicklable-payload-reaches-pool"
    severity = "error"
    rationale = (
        "Spawn-start workers unpickle everything they receive; a lambda "
        "or local def submitted to a pool, the same lambda wrapped in "
        "`functools.partial`, a factory-returned closure or a lock "
        "smuggled inside a tuple all pass on fork platforms and explode "
        "under spawn (macOS/Windows defaults, and this repo's campaign "
        "default). This rule taints unpicklable constructions at birth and "
        "follows them through wrappers, containers and helper returns to "
        "the submission boundary. Worker payloads must be module-level "
        "callables and plain data."
    )

    def check(self, ctx: FileContext) -> None:
        project = (
            ctx.project
            if isinstance(ctx.project, FlowProject)
            else FlowProject.single(ctx.path, ctx.source)
        )
        result = project.analysis("flow-pkl", _compute)
        for event in result.events_for(ctx.path):
            ctx.report(
                ctx.tree,
                f"spawn-unsafe payload: {event.origin} flows into "
                f"{event.sink}; workers unpickle their payload -- pass "
                "module-level callables and plain data",
                line=event.line,
                col=event.col,
            )
