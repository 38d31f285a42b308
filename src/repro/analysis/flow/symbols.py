"""Project-wide symbol table for the interprocedural analyses.

One :class:`ModuleInfo` per file -- its parsed tree, its functions and
classes (with enough type information to resolve method calls: parameter
annotations, constructor-assigned ``self.*`` attributes), its import maps,
and its suppression table (so justified single-file suppressions also
excuse a function from the transitive analyses).

A :class:`FlowProject` parses each file of a lint run exactly once; the
single-file rules read the same tree through
:class:`~repro.analysis.framework.FileContext`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.framework import Suppression, _module_relpath, parse_suppressions

__all__ = [
    "ClassInfo",
    "FlowProject",
    "FunctionInfo",
    "ModuleInfo",
    "collect_imports",
]

#: Decorator name marking a function as audited allocation-free: the
#: transitive purity analysis trusts it as a leaf instead of descending.
HOT_PATH_DECORATOR = "hot_path"

#: Longest dotted suffix registered for module-name resolution.
_MAX_SUFFIX_SEGMENTS = 6


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """Best-effort dotted type name of an annotation expression.

    Unwraps ``Optional[X]`` / ``Final[X]`` / string annotations down to the
    innermost dotted name; anything structurally richer (unions of two real
    types, callables, generics over containers) comes back ``None`` and the
    call site stays unresolved -- the conservative direction.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        parts: List[str] = []
        cur: ast.AST = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if isinstance(cur, ast.Name):
            parts.append(cur.id)
            return ".".join(reversed(parts))
        return None
    if isinstance(node, ast.Subscript):
        head = _annotation_name(node.value)
        if head in {"Optional", "Final", "typing.Optional", "typing.Final"}:
            return _annotation_name(node.slice)
        return None
    return None


def _decorator_names(node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> Tuple[str, ...]:
    """Terminal name of every decorator (``hot_path`` for ``m.hot_path``)."""
    names: List[str] = []
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Attribute):
            names.append(target.attr)
        elif isinstance(target, ast.Name):
            names.append(target.id)
    return tuple(names)


def _is_stub_body(body: Sequence[ast.stmt]) -> bool:
    """True for Protocol/ABC-style bodies: docstring, ``...``, ``pass``,
    ``raise NotImplementedError``."""
    for stmt in body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring / ellipsis
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Raise):
            exc = stmt.exc
            target = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(target, ast.Name) and target.id == "NotImplementedError":
                continue
        return False
    return True


@dataclass
class FunctionInfo:
    """One function or method of the project."""

    #: Dotted module name (``repro.utils.rng``).
    module: str
    #: Module-local qualified name (``Class.meth`` or ``func``).
    qualname: str
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    #: Display path of the defining file (what findings print).
    path: str
    #: Package-relative path (``repro/utils/rng.py``) for path-scoped logic.
    module_path: str
    class_name: Optional[str]
    decorators: Tuple[str, ...]
    #: Parameter names, ``self``/``cls`` excluded for methods, in call
    #: mapping order (positional-or-keyword then keyword-only).
    params: Tuple[str, ...]
    #: Parameter name -> dotted annotation type name (best effort).
    param_annotations: Dict[str, str]
    #: Protocol/ABC stub body (treated as pure and taint-free).
    is_stub: bool

    @property
    def ref(self) -> str:
        """Project-unique key (``module.qualname``)."""
        return f"{self.module}.{self.qualname}"

    @property
    def is_hot_path_allowlisted(self) -> bool:
        return HOT_PATH_DECORATOR in self.decorators

    def param_index(self, name: str) -> Optional[int]:
        try:
            return self.params.index(name)
        except ValueError:
            return None


@dataclass
class ClassInfo:
    """One class of the project, with inferred attribute types."""

    module: str
    name: str
    node: ast.ClassDef
    #: Terminal names of the base classes (resolution happens lazily).
    bases: Tuple[str, ...]
    #: Method name -> FunctionInfo.
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.attr`` -> dotted type name, from ``__init__`` assignments of
    #: resolvable constructor calls / annotated parameters.
    attr_types: Dict[str, str] = field(default_factory=dict)

    @property
    def ref(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class ModuleInfo:
    """Everything the flow layer knows about one file."""

    #: Dotted module name derived from the file path (``repro.obs.clock``).
    name: str
    #: Display path as handed to the linter.
    path: str
    #: Package-relative posix path (``repro/obs/clock.py``).
    module_path: str
    tree: ast.Module
    #: Bound name -> imported module path (``np`` -> ``numpy``).
    import_modules: Dict[str, str]
    #: Bound name -> fully qualified imported member.
    import_members: Dict[str, str]
    #: Module-local qualname -> FunctionInfo (methods included).
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: Module-global names bound to lambdas (unpicklable by reference).
    lambda_globals: Set[str] = field(default_factory=set)
    #: Module-global names bound to mutable literals (registry candidates).
    mutable_globals: Set[str] = field(default_factory=set)
    #: Parsed ``# repro: noqa[...]`` table of the file.
    suppressions: List[Suppression] = field(default_factory=list)

    def suppressed_lines(self, *rule_ids: str) -> Set[int]:
        """Lines a justified suppression naming any of ``rule_ids`` covers."""
        lines: Set[int] = set()
        for suppression in self.suppressions:
            if suppression.justification and any(
                rule in suppression.rules for rule in rule_ids
            ):
                lines.add(suppression.applies_to)
        return lines


def _module_name_from_path(path: Union[str, Path]) -> Tuple[str, ...]:
    """Dotted-name segments of ``path`` (``__init__.py`` -> the package).

    Derived from the package-relative path, so ``src/repro/utils/rng.py``
    and an installed ``repro/utils/rng.py`` both name ``repro.utils.rng``.
    """
    parts = list(Path(_module_relpath(path)).with_suffix("").parts)
    while parts and parts[0] in {"/", "\\"}:
        parts.pop(0)
    if parts and parts[-1] == "__init__":
        parts.pop()
    cleaned = [part for part in parts if part not in {"", ".", ".."}]
    return tuple(cleaned[-_MAX_SUFFIX_SEGMENTS:]) if cleaned else ("<module>",)


def collect_imports(tree: ast.Module) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Map local names to the modules/members they were imported as.

    Returns ``(modules, members)`` over the whole tree (function-level
    imports included): ``modules`` maps a bound name to a module path
    (``np`` -> ``numpy``), ``members`` maps a bound name to a fully
    qualified member (``perf_counter`` -> ``time.perf_counter``).  Only
    absolute imports are tracked -- a relative import's package is not
    known here, and an unresolvable name simply never matches, which keeps
    the rules free of false positives.
    """
    modules: Dict[str, str] = {}
    members: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    modules[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    modules[top] = top
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                members[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return modules, members


def _function_params(
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef], is_method: bool
) -> Tuple[Tuple[str, ...], Dict[str, str]]:
    args = node.args
    ordered = list(args.posonlyargs) + list(args.args)
    if is_method and ordered and ordered[0].arg in {"self", "cls"}:
        ordered = ordered[1:]
    ordered += list(args.kwonlyargs)
    names = tuple(a.arg for a in ordered)
    annotations: Dict[str, str] = {}
    for a in ordered:
        dotted = _annotation_name(a.annotation)
        if dotted is not None:
            annotations[a.arg] = dotted
    return names, annotations


def _build_function(
    module: "ModuleInfo",
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    class_name: Optional[str],
) -> FunctionInfo:
    params, annotations = _function_params(node, is_method=class_name is not None)
    qualname = f"{class_name}.{node.name}" if class_name else node.name
    return FunctionInfo(
        module=module.name,
        qualname=qualname,
        node=node,
        path=module.path,
        module_path=module.module_path,
        class_name=class_name,
        decorators=_decorator_names(node),
        params=params,
        param_annotations=annotations,
        is_stub=_is_stub_body(node.body),
    )


def _ctor_type(value: ast.AST) -> Optional[str]:
    """Dotted name of a plausible constructor call (``WIRDatabase(...)``)."""
    if not isinstance(value, ast.Call):
        return None
    name = _annotation_name(value.func)
    if name is None:
        return None
    terminal = name.split(".")[-1]
    # Constructor heuristic: CapWord terminal name.
    if terminal[:1].isupper():
        return name
    return None


def _class_attr_types(info: ClassInfo) -> Dict[str, str]:
    """Infer ``self.attr`` types from ``__init__`` (and ``__post_init__``).

    Two sources, in priority order: an annotated assignment or a
    constructor-call assignment (``self.x = WIRDatabase(...)``), and a
    plain parameter forward (``self.x = cluster``) typed by the
    parameter's annotation.
    """
    types: Dict[str, str] = {}
    for init_name in ("__init__", "__post_init__"):
        init = info.methods.get(init_name)
        if init is None:
            continue
        annotations = init.param_annotations
        for stmt in ast.walk(init.node):
            targets: List[ast.expr] = []
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
                annotated = _annotation_name(stmt.annotation)
                for target in targets:
                    if (
                        annotated is not None
                        and isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        types.setdefault(target.attr, annotated)
                value = stmt.value
            if value is None:
                continue
            inferred = _ctor_type(value)
            if inferred is None and isinstance(value, ast.Name):
                inferred = annotations.get(value.id)
            if inferred is None:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    types.setdefault(target.attr, inferred)
    return types


def _build_module(path: str, source: str, tree: ast.Module) -> ModuleInfo:
    modules, members = collect_imports(tree)
    info = ModuleInfo(
        name=".".join(_module_name_from_path(path)),
        path=path,
        module_path=_module_relpath(path),
        tree=tree,
        import_modules=modules,
        import_members=members,
        suppressions=parse_suppressions(source),
    )
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = _build_function(info, node, None)
            info.functions[fn.qualname] = fn
        elif isinstance(node, ast.ClassDef):
            bases = tuple(
                name
                for name in (_annotation_name(base) for base in node.bases)
                if name is not None
            )
            cls = ClassInfo(
                module=info.name,
                name=node.name,
                node=node,
                bases=tuple(base.split(".")[-1] for base in bases),
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = _build_function(info, item, node.name)
                    cls.methods[item.name] = fn
                    info.functions[fn.qualname] = fn
            cls.attr_types = _class_attr_types(cls)
            info.classes[node.name] = cls
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            if value is None:
                continue
            is_lambda = isinstance(value, ast.Lambda)
            is_mutable = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in {"dict", "list", "set"}
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    if is_lambda:
                        info.lambda_globals.add(target.id)
                    if is_mutable:
                        info.mutable_globals.add(target.id)
    return info


# ----------------------------------------------------------------------
# Project index.
# ----------------------------------------------------------------------
class FlowProject:
    """The whole-program view the flow rules analyze.

    Built once per ``lint_paths`` invocation over every file in the run,
    which it parses once each; the call graph and the analysis results are
    computed lazily and memoized on the instance (one fixpoint per rule
    family per run).
    """

    def __init__(self, files: Sequence[Tuple[str, str]]) -> None:
        #: Modules in deterministic (path-sorted) order.
        self.modules: List[ModuleInfo] = []
        self.by_path: Dict[str, ModuleInfo] = {}
        self._by_suffix: Dict[str, List[ModuleInfo]] = {}
        self._functions_by_name: Dict[str, List[FunctionInfo]] = {}
        self._classes_by_name: Dict[str, List[ClassInfo]] = {}
        self._analyses: Dict[str, object] = {}
        #: Display path -> why the parser rejected the file (``SYN001``).
        self.syntax_errors: Dict[str, SyntaxError] = {}
        for path, source in sorted(files, key=lambda item: item[0]):
            try:
                tree = ast.parse(source)
            except SyntaxError as exc:
                self.syntax_errors[path] = exc
                continue
            info = _build_module(path, source, tree)
            self.modules.append(info)
            self.by_path[path] = info
            segments = _module_name_from_path(path)
            for start in range(len(segments)):
                suffix = ".".join(segments[start:])
                self._by_suffix.setdefault(suffix, []).append(info)
            for fn in info.functions.values():
                self._functions_by_name.setdefault(
                    fn.node.name, []
                ).append(fn)
            for cls in info.classes.values():
                self._classes_by_name.setdefault(cls.name, []).append(cls)

    # -- symbol resolution --------------------------------------------
    def resolve_module(self, dotted: str) -> Optional[ModuleInfo]:
        """Module for an import path, by unambiguous dotted-suffix match."""
        candidates = self._by_suffix.get(dotted)
        if candidates is not None and len(candidates) == 1:
            return candidates[0]
        return None

    def resolve_member(
        self, dotted: str, depth: int = 0
    ) -> Optional[Union[FunctionInfo, ClassInfo]]:
        """Resolve ``pkg.mod.name`` to a project function or class.

        Follows re-export chains (``from pkg.mod import name`` in an
        ``__init__``) up to a small depth.
        """
        if depth > 4 or "." not in dotted:
            return None
        module_part, member = dotted.rsplit(".", 1)
        module = self.resolve_module(module_part)
        if module is None:
            return None
        if member in module.functions:
            return module.functions[member]
        if member in module.classes:
            return module.classes[member]
        re_export = module.import_members.get(member)
        if re_export is not None:
            return self.resolve_member(re_export, depth + 1)
        return None

    def resolve_class(self, name: str) -> Optional[ClassInfo]:
        """Class by dotted or bare name; bare names must be unambiguous."""
        terminal = name.split(".")[-1]
        if "." in name:
            resolved = self.resolve_member(name)
            if isinstance(resolved, ClassInfo):
                return resolved
        candidates = self._classes_by_name.get(terminal)
        if candidates is not None and len(candidates) == 1:
            return candidates[0]
        return None

    def unique_function_named(self, name: str) -> Optional[FunctionInfo]:
        """Conservative dynamic-dispatch fallback: the *only* def with
        this bare name in the whole project, else ``None``."""
        candidates = self._functions_by_name.get(name)
        if candidates is not None and len(candidates) == 1:
            return candidates[0]
        return None

    def class_method(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """Method lookup through the project-visible base-class chain."""
        seen: Set[str] = set()
        queue: List[ClassInfo] = [cls]
        while queue:
            current = queue.pop(0)
            if current.ref in seen:
                continue
            seen.add(current.ref)
            if name in current.methods:
                return current.methods[name]
            for base in current.bases:
                base_cls = self.resolve_class(base)
                if base_cls is not None:
                    queue.append(base_cls)
        return None

    def functions(self) -> List[FunctionInfo]:
        """Every function of the project in deterministic order."""
        out: List[FunctionInfo] = []
        for module in self.modules:
            for qualname in sorted(module.functions):
                out.append(module.functions[qualname])
        return out

    # -- memoized analyses --------------------------------------------
    def analysis(self, key: str, compute):  # type: ignore[no-untyped-def]
        """Memoize ``compute(self)`` under ``key`` for this run."""
        if key not in self._analyses:
            self._analyses[key] = compute(self)
        return self._analyses[key]
