"""Hot-loop purity rule (FLOW-HOT).

The profiled stages of the one Algorithm 1 loop execute once per
iteration per replica; the paper-scale campaigns run millions of such
iterations, and the large-P speedups came almost entirely from removing
Python-level loops and per-iteration allocations from them.  This rule
keeps them out, in two ways:

* every impurity inside a hot region (see
  :func:`repro.analysis.flow.engine.local_impurities`) is reported at its
  own node, so a per-line suppression names exactly the audited site;
* every call site inside a hot region whose callee closure is impure is
  reported at the call, with the chain spelled out.  Functions decorated
  ``@hot_path`` (:func:`repro.utils.markers.hot_path`) are trusted leaves,
  and a justified ``noqa[FLOW-HOT]`` on an impurity waives it for every
  caller too.

The regions are declared in :data:`HOT_REGIONS` as ``Class.method`` names
per file, each in one of two modes:

* ``"loop"`` -- only code inside the function's outermost ``for`` (the
  iteration loop itself is the boundary; setup/teardown around it is free);
* ``"body"`` -- the whole function is hot (per-iteration helpers).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.analysis.flow.callgraph import build_callgraph
from repro.analysis.flow.engine import local_impurities, run_purity
from repro.analysis.flow.summaries import PuritySummary
from repro.analysis.flow.symbols import FlowProject
from repro.analysis.framework import FileContext, LintRule, register_rule

__all__ = ["HOT_REGIONS", "HotPurityRule"]

#: file (package-relative) -> {qualified function name -> "loop" | "body"}.
HOT_REGIONS: Dict[str, Dict[str, str]] = {
    # The one Algorithm 1 loop: solo runs are a batch of one.
    "repro/batch/runner.py": {
        "BatchRunner.run": "loop",
        "BatchRunner._stripe_loads": "body",
        "BatchRunner._stripe_loads_all": "body",
        "BatchRunner._fill_columns": "body",
        "BatchRunner._build_context": "body",
        "BatchRunner._execute_lb_step": "body",
    },
}


def _outermost_for(func: ast.AST) -> Optional[ast.For]:
    """First ``for`` statement in DFS statement order (the iteration loop)."""

    def scan(body: List[ast.stmt]) -> Optional[ast.For]:
        for stmt in body:
            if isinstance(stmt, ast.For):
                return stmt
            for attr in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, attr, None)
                if inner:
                    found = scan(inner)
                    if found is not None:
                        return found
            handlers = getattr(stmt, "handlers", None)
            if handlers:
                for handler in handlers:
                    found = scan(handler.body)
                    if found is not None:
                        return found
        return None

    return scan(getattr(func, "body", []))


def _purity(project: FlowProject) -> Dict[str, PuritySummary]:
    graph = project.analysis("callgraph", build_callgraph)
    return run_purity(graph)


@register_rule
class HotPurityRule(LintRule):
    rule_id = "FLOW-HOT"
    name = "impurity-in-hot-stage"
    severity = "error"
    rationale = (
        "The profiled stages run once per PE or replica per iteration at "
        "campaign scale, so a Python-level loop, a `list(...)`/`.tolist()` "
        "copy, a comprehension or a fresh numpy array there costs "
        "O(P*R*T). This rule flags each such impurity inside a hot region, "
        "and each hot-region call whose transitive callee closure has one. "
        "Vectorize, preallocate and write in place, or hoist the work out "
        "of the stage. Audited callees opt out with `@hot_path`; an "
        "O(small-constant) loop or a once-per-LB-step allocation is "
        "suppressed with the bound or cadence in the justification."
    )

    def check(self, ctx: FileContext) -> None:
        regions = HOT_REGIONS.get(ctx.module_path)
        if not regions:
            return
        project = (
            ctx.project
            if isinstance(ctx.project, FlowProject)
            else FlowProject.single(ctx.path, ctx.source)
        )
        graph = project.analysis("callgraph", build_callgraph)
        purity = project.analysis("flow-purity", _purity)
        module = project.by_path.get(ctx.path)
        if module is None:
            return
        for qualname, mode in regions.items():
            fn = module.functions.get(qualname)
            if fn is None:
                continue
            if mode == "loop":
                loop = _outermost_for(fn.node)
                if loop is None:
                    continue
                roots = list(loop.body) + list(loop.orelse)
            else:
                roots = list(fn.node.body)
            region = [node for root in roots for node in ast.walk(root)]
            for node, description in local_impurities(graph, fn, region):
                ctx.report(
                    node,
                    f"profiled hot stage {description}; vectorize, or "
                    "preallocate and write in place",
                )
            region_ids = {id(node) for node in region}
            for site in graph.sites_of(fn):
                if id(site.node) not in region_ids:
                    continue
                callee = site.callee
                if callee is None or callee.is_hot_path_allowlisted:
                    continue
                summary = purity.get(callee.ref)
                if summary is None or summary.pure:
                    continue
                ctx.report(
                    site.node,
                    f"hot-path call to `{callee.display}`, which "
                    f"{summary.impurity}; hoist it out of the stage, make "
                    "the callee allocation-free, or mark it `@hot_path` "
                    "after auditing",
                )
