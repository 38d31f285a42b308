"""Call-graph construction over the :mod:`~repro.analysis.flow.symbols` table.

Every :class:`ast.Call` inside every project function is resolved to one
of four shapes:

* a **project function/method** (:attr:`CallSite.target`) -- via imported
  members (re-export chains included), same-module functions, ``self``
  methods, ``self.attr`` attributes typed by ``__init__`` assignments or
  annotations, annotated parameters/locals, constructor-typed locals, or
  -- as the conservative fallback for dynamic dispatch -- the *unique*
  project function with that bare name;
* a **project class constructor** (:attr:`CallSite.target_class`), which
  the flow rules treat as a call to ``__init__``;
* an **external** callable with a known dotted path
  (:attr:`CallSite.external`, e.g. ``numpy.zeros``, ``functools.partial``,
  or a builtin name);
* **unresolved** (dynamic dispatch with multiple candidates, calls on
  values of unknown type): :attr:`CallSite.unresolved_attr` keeps the
  attribute name so shape-based rules (pool submissions) still match.

Resolution is deliberately *under*-approximate everywhere except the
shape-based sink patterns: an unresolved call contributes no edge and no
taint, which keeps the interprocedural rules free of resolution-driven
false positives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.flow.symbols import (
    ClassInfo,
    FlowProject,
    FunctionInfo,
    ModuleInfo,
    _annotation_name,
    _ctor_type,
)

__all__ = ["CallGraph", "CallSite", "build_callgraph"]

#: Method names the unique-bare-name fallback must never resolve: they
#: are overwhelmingly builtin container/file operations (``events.append``
#: is a list, not the one project class that happens to define
#: ``append``), and a misresolution here fabricates call-graph edges.
_FALLBACK_BLOCKLIST = frozenset(
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
        "sort",
        "reverse",
        "count",
        "index",
        "get",
        "items",
        "keys",
        "values",
        "copy",
        "join",
        "split",
        "strip",
        "format",
        "read",
        "write",
        "flush",
        "close",
        "send",
        "recv",
    }
)


@dataclass
class CallSite:
    """One resolved (or deliberately unresolved) call expression."""

    node: ast.Call
    caller: FunctionInfo
    #: Resolved project function or method, if any.
    target: Optional[FunctionInfo] = None
    #: Resolved project class when the call is a constructor.
    target_class: Optional[ClassInfo] = None
    #: Dotted external path (``numpy.zeros``) or bare builtin name.
    external: Optional[str] = None
    #: Attribute name of an unresolved method call (shape matching).
    unresolved_attr: Optional[str] = None

    @property
    def callee(self) -> Optional[FunctionInfo]:
        """The function the flow rules descend into (``__init__`` for
        constructor calls)."""
        if self.target is not None:
            return self.target
        if self.target_class is not None:
            return self.target_class.methods.get("__init__")
        return None


class _FunctionScope:
    """Local name environment of one function: params, annotated or
    constructor-typed locals, nested defs and local classes."""

    def __init__(self, fn: FunctionInfo) -> None:
        self.fn = fn
        self.param_types: Dict[str, str] = dict(fn.param_annotations)
        self.local_types: Dict[str, str] = {}
        self.nested_defs: Set[str] = set()
        self.local_classes: Set[str] = set()
        self.lambda_locals: Set[str] = set()
        self.assigned: Set[str] = set(fn.params)
        for stmt in fn.node.body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node is not fn.node:
                        self.nested_defs.add(node.name)
                elif isinstance(node, ast.ClassDef):
                    self.local_classes.add(node.name)
                elif isinstance(node, ast.Assign):
                    ctor = _ctor_type(node.value)
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.assigned.add(target.id)
                            if isinstance(node.value, ast.Lambda):
                                self.lambda_locals.add(target.id)
                            if ctor is not None:
                                self.local_types.setdefault(target.id, ctor)
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    self.assigned.add(node.target.id)
                    annotated = _annotation_name(node.annotation)
                    if annotated is not None:
                        self.local_types.setdefault(node.target.id, annotated)

    def type_of(self, name: str) -> Optional[str]:
        return self.local_types.get(name) or self.param_types.get(name)


@dataclass
class CallGraph:
    """All resolved call sites, indexed by caller."""

    project: FlowProject
    #: Caller ref -> call sites in source order.
    sites: Dict[str, List[CallSite]] = field(default_factory=dict)
    #: Caller ref -> scope (reused by FLOW-PKL and FLOW-MUT).
    scopes: Dict[str, _FunctionScope] = field(default_factory=dict)

    def sites_of(self, fn: FunctionInfo) -> List[CallSite]:
        return self.sites.get(fn.ref, [])

    def scope_of(self, fn: FunctionInfo) -> _FunctionScope:
        return self.scopes[fn.ref]

    def edges(self) -> List[Tuple[str, str]]:
        """Sorted unique ``(caller, callee)`` reference pairs."""
        pairs: Set[Tuple[str, str]] = set()
        for ref, sites in self.sites.items():
            for site in sites:
                callee = site.callee
                if callee is not None:
                    pairs.add((ref, callee.ref))
        return sorted(pairs)


def _bind_dotted(project: FlowProject, site: CallSite, dotted: str) -> None:
    """Point ``site`` at the project symbol an import-qualified dotted path
    names, or record the path as external."""
    resolved = project.resolve_member(dotted)
    if isinstance(resolved, FunctionInfo):
        site.target = resolved
    elif isinstance(resolved, ClassInfo):
        site.target_class = resolved
    else:
        site.external = dotted


def _resolve_call(
    project: FlowProject,
    module: ModuleInfo,
    fn: FunctionInfo,
    scope: _FunctionScope,
    node: ast.Call,
) -> CallSite:
    site = CallSite(node=node, caller=fn)
    func = node.func

    if isinstance(func, ast.Name):
        name = func.id
        if name in scope.nested_defs or name in scope.local_classes:
            return site  # local callable; taint rules handle references
        if name not in scope.assigned:
            # Same-module function?
            if name in module.functions and module.functions[name].class_name is None:
                site.target = module.functions[name]
                return site
            if name in module.classes:
                site.target_class = module.classes[name]
                return site
            imported = module.import_members.get(name)
            if imported is not None:
                _bind_dotted(project, site, imported)
                return site
            # Builtin / global unknown name.
            site.external = name
            return site
        return site  # call on a local variable: unresolved

    if isinstance(func, ast.Attribute):
        dotted_func = _annotation_name(func)
        if dotted_func is None:
            site.unresolved_attr = func.attr
            return site
        head, *rest = dotted_func.split(".")

        # Import-qualified: np.zeros, rng_module.ensure_rng, pkg.mod.fn.
        if head not in scope.assigned and head != "self":
            dotted: Optional[str] = None
            if head in module.import_members:
                dotted = ".".join([module.import_members[head]] + rest)
            elif head in module.import_modules:
                dotted = ".".join([module.import_modules[head]] + rest)
            if dotted is not None:
                _bind_dotted(project, site, dotted)
                return site

        # self.method() / self.attr.method().
        if head == "self" and fn.class_name is not None:
            cls = module.classes.get(fn.class_name)
            if cls is not None:
                if len(rest) == 1:
                    method = project.class_method(cls, rest[0])
                    if method is not None:
                        site.target = method
                        return site
                elif len(rest) == 2:
                    attr_type = cls.attr_types.get(rest[0])
                    if attr_type is not None:
                        attr_cls = project.resolve_class(attr_type)
                        if attr_cls is not None:
                            method = project.class_method(attr_cls, rest[1])
                            if method is not None:
                                site.target = method
                                return site

        # Typed local / parameter: rng.integers() where rng: Generator.
        if len(rest) == 1:
            local_type = scope.type_of(head)
            if local_type is not None:
                local_cls = project.resolve_class(local_type)
                if local_cls is not None:
                    method = project.class_method(local_cls, rest[0])
                    if method is not None:
                        site.target = method
                        return site

        # Conservative dynamic-dispatch fallback: unique bare name.
        attr_name = rest[-1] if rest else func.attr
        if attr_name not in _FALLBACK_BLOCKLIST:
            unique = project.unique_function_named(attr_name)
            if unique is not None and unique.class_name is not None:
                site.target = unique
                return site

        site.unresolved_attr = func.attr
        return site

    return site  # calls on arbitrary expressions stay unresolved


def build_callgraph(project: FlowProject) -> CallGraph:
    """Resolve every call site of every project function."""
    graph = CallGraph(project=project)
    for fn in project.functions():
        module = project.by_path[fn.path]
        scope = _FunctionScope(fn)
        graph.scopes[fn.ref] = scope
        sites: List[CallSite] = []
        for stmt in fn.node.body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(node, ast.Call):
                    sites.append(_resolve_call(project, module, fn, scope, node))
        graph.sites[fn.ref] = sites
        # Nested defs get their own FunctionInfo?  They are not module
        # functions; calls inside them belong to the enclosing function's
        # site list (ast.walk above descends into them via statements).
    return graph
