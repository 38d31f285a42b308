"""Spawn-boundary helpers shared by FLOW-PKL and FLOW-MUT.

FLOW-PKL and FLOW-MUT care about the same call shapes -- pool submissions
(``.submit``/``.apply_async``/...), ``Process``/``Pool``/``SupervisedPool``
constructors -- but from two angles: FLOW-PKL follows the *payload*
expressions crossing the boundary, FLOW-MUT resolves the *worker callable*
and walks the call graph from it.  This module defines those shapes and
the in-place mutator vocabulary once, detects submissions once and offers
both views.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.flow.callgraph import CallGraph, CallSite
from repro.analysis.flow.symbols import (
    FlowProject,
    FunctionInfo,
    ModuleInfo,
    _annotation_name,
)
from repro.analysis.framework import node_location

__all__ = [
    "MutationInfo",
    "Submission",
    "collect_mutations",
    "resolve_callable_expr",
    "submission_of",
]

#: Pool/executor methods whose first positional argument crosses the
#: process boundary.
_SUBMIT_METHODS = frozenset(
    {
        "submit",
        "apply",
        "apply_async",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
    }
)

#: Constructor-name suffix -> keyword whose value crosses the boundary.
_CTOR_KEYWORDS = {
    "Process": ("target",),
    "Pool": ("initializer",),
    "SupervisedPool": ("initializer",),
}

#: Method calls that mutate a dict/list/set in place.
_MUTATORS = frozenset(
    {
        "append",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        "extend",
        "insert",
    }
)

#: Constructor keywords whose values are worker *payload* (not callables).
_PAYLOAD_KEYWORDS = frozenset({"args", "kwds", "kwargs", "initargs"})


def _callable_name(node: ast.AST) -> str:
    """Terminal name of a call target (``SupervisedPool`` for ``rp.SupervisedPool``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


@dataclass
class Submission:
    """One call expression that ships values to a spawn-start worker."""

    site: CallSite
    #: Human label of the boundary (``\`.submit(...)\` submission``).
    description: str
    #: Expressions naming the worker callable(s) (target/initializer/...).
    entries: List[ast.expr] = field(default_factory=list)
    #: Every expression whose value crosses the process boundary.
    crossings: List[ast.expr] = field(default_factory=list)


def submission_of(site: CallSite) -> Optional[Submission]:
    """Classify a call site as a spawn submission, by shape.

    Shape-based on purpose: pools are often held in variables the resolver
    cannot type, and missing a submission is worse than double-checking a
    non-pool ``submit`` (clean payloads produce no findings either way).
    """
    node = site.node
    func = node.func

    if (
        isinstance(func, ast.Attribute)
        and func.attr in _SUBMIT_METHODS
        and node.args
    ):
        submission = Submission(
            site=site, description=f"`.{func.attr}(...)` submission"
        )
        submission.entries.append(node.args[0])
        for arg in node.args:
            target = arg.value if isinstance(arg, ast.Starred) else arg
            submission.crossings.append(target)
        for keyword in node.keywords:
            submission.crossings.append(keyword.value)
        return submission

    ctor = _callable_name(func)
    matched = False
    callable_keywords: Set[str] = set()
    for suffix, keywords in _CTOR_KEYWORDS.items():
        if ctor.endswith(suffix):
            matched = True
            callable_keywords.update(keywords)
    if not matched:
        return None
    submission = Submission(site=site, description=f"`{ctor}(...)` constructor")
    seen: Set[int] = set()

    def add(expr: ast.expr, entry: bool) -> None:
        if id(expr) in seen:
            return
        seen.add(id(expr))
        if entry:
            submission.entries.append(expr)
        submission.crossings.append(expr)

    for keyword in node.keywords:
        if keyword.arg in callable_keywords:
            add(keyword.value, entry=True)
        elif keyword.arg in _PAYLOAD_KEYWORDS:
            add(keyword.value, entry=False)
    if ctor.endswith("SupervisedPool") and node.args:
        add(node.args[0], entry=True)
    if not submission.entries and not submission.crossings:
        return None
    return submission


def resolve_callable_expr(
    project: FlowProject, module: ModuleInfo, expr: ast.expr
) -> Optional[FunctionInfo]:
    """Resolve a worker-callable expression to a project function.

    Handles bare names (same-module defs, imported members through
    re-export chains), import-qualified dotted paths, and unwraps
    ``functools.partial(fn, ...)`` to its first argument.
    """
    if isinstance(expr, ast.Call):
        if _callable_name(expr.func) == "partial" and expr.args:
            return resolve_callable_expr(project, module, expr.args[0])
        return None
    dotted = _annotation_name(expr)
    if dotted is None:
        return None
    parts = dotted.split(".")
    if len(parts) == 1:
        name = parts[0]
        fn = module.functions.get(name)
        if fn is not None and fn.class_name is None:
            return fn
        imported = module.import_members.get(name)
        if imported is not None:
            resolved = project.resolve_member(imported)
            if isinstance(resolved, FunctionInfo):
                return resolved
        return None
    head = parts[0]
    if head in module.import_members:
        qualified = ".".join([module.import_members[head]] + parts[1:])
    elif head in module.import_modules:
        qualified = ".".join([module.import_modules[head]] + parts[1:])
    else:
        return None
    resolved = project.resolve_member(qualified)
    return resolved if isinstance(resolved, FunctionInfo) else None


# ----------------------------------------------------------------------
# Module-global writes (the FLOW-MUT writer side).
# ----------------------------------------------------------------------
#: Suppressing this rule at the write site excuses the write from the
#: reachability analysis as well.
_MUTATION_WAIVER_RULES = ("FLOW-MUT",)


@dataclass
class MutationInfo:
    """Module-global writes performed directly by one function."""

    #: Names of the module globals written.
    names: Tuple[str, ...] = ()
    #: Write sites as ``(line, col)`` pairs in the function's file.
    sites: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def writes(self) -> bool:
        return bool(self.names)


def collect_mutations(graph: CallGraph) -> Dict[str, MutationInfo]:
    """Direct module-global writes of every project function.

    *Any* module-global mutable binding counts (not just UPPER_CASE
    registries), and writes inside ``register*``-style API functions count
    too -- a worker calling its own registration API still only mutates the
    worker's copy.  Rebinding via ``global`` declarations is also a write.
    """
    out: Dict[str, MutationInfo] = {}
    for fn in graph.project.functions():
        module = graph.project.by_path[fn.path]
        suppressed = module.suppressed_lines(*_MUTATION_WAIVER_RULES)
        scope = graph.scope_of(fn)
        body_nodes: List[ast.AST] = []
        for stmt in fn.node.body:
            body_nodes.extend(ast.walk(stmt))

        global_decls: Set[str] = set()
        for node in body_nodes:
            if isinstance(node, ast.Global):
                global_decls.update(node.names)

        def global_mutable(expr: ast.AST) -> Optional[str]:
            """Name of a module-global mutable, unless locally shadowed."""
            if not isinstance(expr, ast.Name):
                return None
            name = expr.id
            if name in global_decls:
                return name
            if name in module.mutable_globals and name not in scope.assigned:
                return name
            return None

        names: List[str] = []
        sites: List[Tuple[int, int]] = []

        def record(name: str, node: ast.AST) -> None:
            line, col = node_location(node)
            if line in suppressed:
                return
            if name not in names:
                names.append(name)
            sites.append((line, col))

        for node in body_nodes:
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in global_decls:
                        record(target.id, node)
                    elif isinstance(target, ast.Subscript):
                        name = global_mutable(target.value)
                        if name is not None:
                            record(name, node)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        name = global_mutable(target.value)
                        if name is not None:
                            record(name, node)
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _MUTATORS:
                    name = global_mutable(node.func.value)
                    if name is not None:
                        record(name, node)
        out[fn.ref] = MutationInfo(names=tuple(names), sites=sites)
    return out
