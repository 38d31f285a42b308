"""Hot-loop purity rule (FLOW-HOT).

The profiled stages of the one Algorithm 1 loop execute once per
iteration per replica; the paper-scale campaigns run millions of such
iterations, and the large-P speedups came almost entirely from removing
Python-level loops and per-iteration allocations from them.  This rule
keeps them out, in two ways:

* every impurity inside a hot region (see :func:`local_impurities`, the
  one definition of impure) is reported at its own node, so a per-line
  suppression names exactly the audited site;
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
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.flow.callgraph import CallGraph, build_callgraph
from repro.analysis.flow.symbols import FlowProject, FunctionInfo
from repro.analysis.framework import FileContext, LintRule, node_location, register_rule

__all__ = ["HOT_REGIONS", "HotPurityRule"]

#: file (package-relative) -> {qualified function name -> "loop" | "body"}.
HOT_REGIONS: Dict[str, Dict[str, str]] = {
    # The one Algorithm 1 loop: solo runs are a batch of one.
    "repro/batch/runner.py": {
        "BatchRunner.run": "loop",
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


# ----------------------------------------------------------------------
# Impurity and its transitive closure.
# ----------------------------------------------------------------------
#: Suppressing this rule on an impurity's line also removes it from the
#: function's purity summary (the waiver travels up the graph).
_PURITY_WAIVER_RULES = ("FLOW-HOT",)

#: numpy constructors that allocate a fresh array per call.
_NP_ALLOCATORS = frozenset(
    {
        "zeros",
        "ones",
        "empty",
        "full",
        "zeros_like",
        "ones_like",
        "empty_like",
        "full_like",
        "arange",
        "linspace",
        "concatenate",
        "stack",
        "vstack",
        "hstack",
        "column_stack",
        "tile",
        "repeat",
        "copy",
        "array",
        "asarray",
        "eye",
    }
)


def _impurity_of(node: ast.AST, external: Optional[str]) -> Optional[str]:
    """What makes ``node`` impure (``None`` when it is not).

    ``external`` is the resolved dotted callee of a call node (``numpy.zeros``),
    which is how ``np.zeros`` and ``from numpy import zeros`` both match.
    """
    if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
        return "runs a Python-level loop"
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return "allocates via a comprehension"
    if not isinstance(node, ast.Call):
        return None
    if isinstance(node.func, ast.Name) and node.func.id == "list":
        return "copies via `list(...)`"
    if isinstance(node.func, ast.Attribute) and node.func.attr == "tolist":
        return "copies via `.tolist()`"
    if external is not None:
        module, _, name = external.partition(".")
        if module == "numpy" and name in _NP_ALLOCATORS:
            return f"allocates via `np.{name}(...)`"
    return None


def local_impurities(
    graph: CallGraph, fn: FunctionInfo, nodes: Iterable[ast.AST]
) -> Iterator[Tuple[ast.AST, str]]:
    """``(node, description)`` for every impure node among ``nodes``.

    ``nodes`` must lie inside ``fn`` so its call sites resolve them.
    """
    externals = {
        id(site.node): site.external
        for site in graph.sites_of(fn)
        if site.external is not None
    }
    for node in nodes:
        description = _impurity_of(node, externals.get(id(node)))
        if description is not None:
            yield node, description


def _walk_own_body(fn: FunctionInfo) -> List[ast.AST]:
    """Every node of the function body, nested callables excluded."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(fn.node.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _local_impurity(graph: CallGraph, fn: FunctionInfo) -> Optional[str]:
    """Earliest unwaived impurity in the function's own body, or ``None``.

    Impurities on lines covered by a justified ``noqa[FLOW-HOT]`` are
    excluded, so audited sites do not re-surface at their callers.
    """
    module = graph.project.by_path[fn.path]
    suppressed = module.suppressed_lines(*_PURITY_WAIVER_RULES)
    worst: Optional[Tuple[int, int, str]] = None
    for node, description in local_impurities(graph, fn, _walk_own_body(fn)):
        line, col = node_location(node)
        if line in suppressed:
            continue
        candidate = (line, col, description)
        if worst is None or candidate < worst:
            worst = candidate  # earliest in the file, deterministic
    return worst[2] if worst is not None else None


def run_purity(project: FlowProject) -> Dict[str, Optional[str]]:
    """Transitive impurity of every project function (``None`` when the
    function and everything it calls is allocation-free).

    Monotone closure, iterated until no function changes: once a function
    is impure it stays impure, and its description is fixed at first
    discovery (so messages are stable).  The description carries no line
    numbers, so messages also survive unrelated edits.  ``@hot_path``
    functions and Protocol/ABC stubs are pure leaves by decree.
    """
    graph = project.analysis("callgraph", build_callgraph)
    impurity: Dict[str, Optional[str]] = {}
    for fn in project.functions():
        if fn.is_hot_path_allowlisted or fn.is_stub:
            impurity[fn.ref] = None
            continue
        impurity[fn.ref] = _local_impurity(graph, fn)

    changed = True
    while changed:
        changed = False
        for fn in project.functions():
            if impurity.get(fn.ref) is not None or fn.is_hot_path_allowlisted:
                continue
            for site in graph.sites_of(fn):
                callee = site.callee
                if callee is None or callee.is_hot_path_allowlisted:
                    continue
                inner = impurity.get(callee.ref)
                if inner is not None:
                    impurity[fn.ref] = (
                        f"calls `{callee.ref}`, which {inner}"
                    )
                    changed = True
                    break
    return impurity


@register_rule
class HotPurityRule(LintRule):
    rule_id = "FLOW-HOT"
    name = "impurity-in-hot-stage"
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
        project = ctx.project
        graph = project.analysis("callgraph", build_callgraph)
        impurity = project.analysis("flow-purity", run_purity)
        module = project.by_path[ctx.path]
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
                inner = impurity.get(callee.ref)
                if inner is None:
                    continue
                ctx.report(
                    site.node,
                    f"hot-path call to `{callee.ref}`, which "
                    f"{inner}; hoist it out of the stage, make "
                    "the callee allocation-free, or mark it `@hot_path` "
                    "after auditing",
                )
