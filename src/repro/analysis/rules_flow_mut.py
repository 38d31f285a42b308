"""Worker-reachable global-mutation rule (FLOW-MUT).

Under spawn, a worker sees only the module state its initializer ships,
so the question that matters for a module-global write is *can it
execute inside a worker?*  This rule resolves every pool/process
submission to its worker callable, walks the call graph from those entry
points, and flags the frontier where worker-reachable code calls into a
function that writes module-global state (any mutable module global,
registration APIs included -- a worker calling its own ``register()``
still only mutates the worker's copy).  Writes that run only in the
parent are fine, however they are spelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.analysis.flow.callgraph import build_callgraph
from repro.analysis.flow.pools import (
    collect_mutations,
    resolve_callable_expr,
    submission_of,
)
from repro.analysis.flow.symbols import FlowProject, FunctionInfo
from repro.analysis.framework import FileContext, LintRule, node_location, register_rule

__all__ = ["WorkerReachableMutationRule"]


@dataclass(frozen=True)
class _MutEvent:
    path: str
    line: int
    col: int
    message: str


def _compute(project: FlowProject) -> List[_MutEvent]:
    graph = project.analysis("callgraph", build_callgraph)
    mutations = collect_mutations(graph)
    by_ref: Dict[str, FunctionInfo] = {fn.ref: fn for fn in project.functions()}

    # Worker entry points: every resolvable callable handed to a
    # pool/process boundary anywhere in the project.
    entries: Dict[str, FunctionInfo] = {}
    for fn in project.functions():
        module = project.by_path[fn.path]
        for site in graph.sites_of(fn):
            submission = submission_of(site)
            if submission is None:
                continue
            for expr in submission.entries:
                worker = resolve_callable_expr(project, module, expr)
                if worker is not None:
                    entries.setdefault(worker.ref, worker)

    # BFS over call-graph edges; remember which entry reaches each node.
    adjacency: Dict[str, List[str]] = {}
    for caller, callee in graph.edges():
        adjacency.setdefault(caller, []).append(callee)
    reached_from: Dict[str, str] = {}
    queue: List[str] = []
    for ref in sorted(entries):
        reached_from[ref] = ref
        queue.append(ref)
    while queue:
        current = queue.pop(0)
        for nxt in adjacency.get(current, ()):
            if nxt not in reached_from:
                reached_from[nxt] = reached_from[current]
                queue.append(nxt)

    events: List[_MutEvent] = []
    seen: Set[Tuple[str, int, int]] = set()

    def emit(path: str, line: int, col: int, message: str) -> None:
        key = (path, line, col)
        if key not in seen:
            seen.add(key)
            events.append(_MutEvent(path, line, col, message))

    # Direct writes inside the entry functions themselves.
    for ref, entry in sorted(entries.items()):
        info = mutations.get(ref)
        if info is None or not info.writes:
            continue
        names = ", ".join(f"`{name}`" for name in info.names)
        for line, col in info.sites:
            emit(
                entry.path,
                line,
                col,
                f"worker entry `{entry.ref}` writes module-global "
                f"{names}; spawn workers re-import modules, so the write "
                "diverges parent and worker state",
            )

    # Frontier edges: worker-reachable code calling into a writer.
    for ref in sorted(reached_from):
        fn = by_ref.get(ref)
        if fn is None:
            continue
        for site in graph.sites_of(fn):
            callee = site.callee
            if callee is None:
                continue
            info = mutations.get(callee.ref)
            if info is None or not info.writes:
                continue
            names = ", ".join(f"`{name}`" for name in info.names)
            line, col = node_location(site.node)
            emit(
                fn.path,
                line,
                col,
                f"call to `{callee.ref}`, which writes module-global "
                f"{names}, is reachable from worker entry "
                f"`{reached_from[ref]}`; spawn workers re-import modules, "
                "so the write diverges parent and worker state",
            )
    return events


@register_rule
class WorkerReachableMutationRule(LintRule):
    rule_id = "FLOW-MUT"
    name = "worker-reachable-global-mutation"
    rationale = (
        "Spawn-start workers re-import every module, so a module-global "
        "write executed inside a worker mutates the worker's private copy "
        "and silently diverges from the parent: the spawn-registry bug "
        "class. This rule resolves pool submissions to their worker "
        "callables and walks the call graph, so a write two helpers deep "
        "is still caught."
    )

    def check(self, ctx: FileContext) -> None:
        events: List[_MutEvent] = ctx.project.analysis("flow-mut", _compute)
        for event in events:
            if event.path != ctx.path:
                continue
            ctx.report(ctx.tree, event.message, line=event.line, col=event.col)
