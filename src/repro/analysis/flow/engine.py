"""Fixpoint dataflow engines of the flow layer.

Two engines share the call graph:

* :func:`run_taint` -- a forward taint propagation parameterized by a
  :class:`TaintSpec` (what introduces taint, what passes it through, what
  counts as a sink).  Each function is analyzed flow-insensitively against
  its callees' :class:`~repro.analysis.flow.summaries.TaintSummary`, and a
  worklist iterates until the summaries stabilize -- so taint laundered
  through any chain of helpers still reaches its sink, at cost linear in
  call-graph size.  Sink crossings are reported at the *frontier*: the
  call expression where a tainted value meets a sink-reaching path, which
  is also where a suppression comment belongs.
* :func:`run_purity` -- transitive allocation-freedom for FLOW-HOT: a
  local impurity scan per function followed by a monotone closure over
  callees.  :func:`local_impurities` is the one definition of impure
  (Python loops, ``list``/``.tolist`` copies, comprehensions, numpy
  allocators) that both this closure and FLOW-HOT's per-site reports use.
  Locally suppressed impurities are excluded from summaries, so a
  justified ``# repro: noqa[FLOW-HOT]`` does not re-surface at every call
  site; ``@hot_path``-decorated functions are trusted leaves.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.flow.callgraph import CallGraph, CallSite, _FunctionScope
from repro.analysis.flow.summaries import (
    AV,
    CLEAN,
    EMPTY_TAINT,
    PuritySummary,
    SinkEvent,
    TaintSummary,
    node_location,
)
from repro.analysis.flow.symbols import FunctionInfo, ModuleInfo

__all__ = [
    "TaintSpec",
    "TaintResult",
    "local_impurities",
    "run_taint",
    "run_purity",
]

#: Hard cap on fixpoint rounds (well above any real call-chain depth).
_MAX_ROUNDS = 12


class TaintSpec:
    """What one taint analysis considers a source, a conduit, and a sink.

    Subclasses override the hooks; every default is the empty analysis.
    """

    #: Rule family the events belong to (used in diagnostics only).
    family = "FLOW"

    def call_source(self, site: CallSite) -> Optional[str]:
        """Taint-origin description when this call *creates* taint."""
        return None

    def expr_source(
        self, node: ast.expr, scope: _FunctionScope, module: ModuleInfo
    ) -> Optional[str]:
        """Taint-origin description for a non-call expression (lambdas,
        references to locally defined functions, ...)."""
        return None

    def passthrough_external(self, external: str) -> bool:
        """True when an external callable returns taint given tainted
        arguments (``functools.partial``, tuple constructors, ...)."""
        return False

    def sink_crossings(
        self, site: CallSite, module: ModuleInfo
    ) -> List[Tuple[str, ast.expr]]:
        """``(sink description, crossing expression)`` pairs for a call
        that is itself a sink boundary."""
        return []


@dataclass
class TaintResult:
    """Converged summaries plus the deduplicated sink events."""

    summaries: Dict[str, TaintSummary] = field(default_factory=dict)
    events: List[SinkEvent] = field(default_factory=list)

    def events_for(self, path: str) -> List[SinkEvent]:
        return [event for event in self.events if event.path == path]


class _FunctionTaint:
    """One flow-insensitive pass over a single function body.

    Two sweeps over the statements in source order: the first populates
    the local environment (so a name used above its def-site in loop
    bodies still picks up taint), the second records sink events.
    """

    def __init__(
        self,
        graph: CallGraph,
        spec: TaintSpec,
        fn: FunctionInfo,
        summaries: Dict[str, TaintSummary],
    ) -> None:
        self.graph = graph
        self.spec = spec
        self.fn = fn
        self.module = graph.project.by_path[fn.path]
        self.scope = graph.scope_of(fn)
        self.summaries = summaries
        self.sites = {id(site.node): site for site in graph.sites_of(fn)}
        self.env: Dict[str, AV] = {
            name: AV(params=frozenset({index}))
            for index, name in enumerate(fn.params)
        }
        self.ret: AV = CLEAN
        self.sink_params: Set[int] = set()
        self.events: List[SinkEvent] = []
        self._record = False

    def run(self) -> Tuple[TaintSummary, List[SinkEvent]]:
        self._record = False
        self._exec(self.fn.node.body)
        self._record = True
        self._exec(self.fn.node.body)
        summary = TaintSummary(
            return_origin=self.ret.origin,
            return_params=frozenset(self.ret.params),
            sink_params=frozenset(self.sink_params),
        )
        return summary, self.events

    # -- statements ---------------------------------------------------
    def _exec(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # nested callables run elsewhere
            if isinstance(stmt, ast.Assign):
                av = self._eval(stmt.value)
                for target in stmt.targets:
                    self._assign(target, av)
            elif isinstance(stmt, ast.AnnAssign):
                if stmt.value is not None:
                    self._assign(stmt.target, self._eval(stmt.value))
            elif isinstance(stmt, ast.AugAssign):
                av = self._eval(stmt.value).merged(self._eval(stmt.target))
                self._assign(stmt.target, av)
            elif isinstance(stmt, ast.Return):
                if stmt.value is not None:
                    self.ret = self.ret.merged(self._eval(stmt.value))
            elif isinstance(stmt, ast.Expr):
                self._eval(stmt.value)
            elif isinstance(stmt, ast.If):
                self._eval(stmt.test)
                self._exec(stmt.body)
                self._exec(stmt.orelse)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._assign(stmt.target, self._eval(stmt.iter))
                self._exec(stmt.body)
                self._exec(stmt.orelse)
            elif isinstance(stmt, ast.While):
                self._eval(stmt.test)
                self._exec(stmt.body)
                self._exec(stmt.orelse)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    av = self._eval(item.context_expr)
                    if item.optional_vars is not None:
                        self._assign(item.optional_vars, av)
                self._exec(stmt.body)
            elif isinstance(stmt, ast.Try):
                self._exec(stmt.body)
                for handler in stmt.handlers:
                    self._exec(handler.body)
                self._exec(stmt.orelse)
                self._exec(stmt.finalbody)
            elif isinstance(stmt, ast.Raise):
                if stmt.exc is not None:
                    self._eval(stmt.exc)
            elif isinstance(stmt, ast.Assert):
                self._eval(stmt.test)
            elif isinstance(
                stmt,
                (
                    ast.Pass,
                    ast.Break,
                    ast.Continue,
                    ast.Global,
                    ast.Nonlocal,
                    ast.Import,
                    ast.ImportFrom,
                    ast.Delete,
                ),
            ):
                continue
            else:  # match statements and future node types
                self._generic(stmt)

    def _generic(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child)
            elif isinstance(child, ast.stmt):
                self._exec([child])
            else:
                self._generic(child)

    def _assign(self, target: ast.expr, av: AV) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = self.env.get(target.id, CLEAN).merged(av)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, av)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, av)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            # Intra-method only: ``self.x`` taint does not cross methods.
            key = f"self.{target.attr}"
            self.env[key] = self.env.get(key, CLEAN).merged(av)

    # -- expressions --------------------------------------------------
    def _eval(self, node: Optional[ast.expr]) -> AV:
        if node is None:
            return CLEAN
        if isinstance(node, ast.Name):
            av = self.env.get(node.id, CLEAN)
            origin = self.spec.expr_source(node, self.scope, self.module)
            if origin is not None:
                av = av.merged(AV(origin=origin))
            return av
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                attr = self.env.get(f"self.{node.attr}")
                if attr is not None:
                    return attr
            return self._eval(node.value)
        if isinstance(node, ast.Lambda):
            origin = self.spec.expr_source(node, self.scope, self.module)
            return AV(origin=origin) if origin is not None else CLEAN
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return self._merge_all(node.elts)
        if isinstance(node, ast.Dict):
            return self._merge_all(list(node.keys) + list(node.values))
        if isinstance(node, ast.BinOp):
            return self._eval(node.left).merged(self._eval(node.right))
        if isinstance(node, ast.BoolOp):
            return self._merge_all(node.values)
        if isinstance(node, ast.Compare):
            return self._merge_all([node.left] + list(node.comparators))
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return self._eval(node.body).merged(self._eval(node.orelse))
        if isinstance(node, ast.Subscript):
            self._eval_slice(node.slice)
            return self._eval(node.value)
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.Await):
            return self._eval(node.value)
        if isinstance(node, ast.NamedExpr):
            av = self._eval(node.value)
            self._assign(node.target, av)
            return av
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            av = CLEAN
            for generator in node.generators:
                av = av.merged(self._eval(generator.iter))
            if isinstance(node, ast.DictComp):
                return av.merged(self._eval(node.key)).merged(
                    self._eval(node.value)
                )
            return av.merged(self._eval(node.elt))
        return CLEAN

    def _eval_slice(self, node: ast.expr) -> None:
        if isinstance(node, ast.Slice):
            self._eval(node.lower)
            self._eval(node.upper)
            self._eval(node.step)
        else:
            self._eval(node)

    def _merge_all(self, nodes: Sequence[Optional[ast.expr]]) -> AV:
        av = CLEAN
        for child in nodes:
            if child is not None:
                av = av.merged(self._eval(child))
        return av

    def _eval_call(self, node: ast.Call) -> AV:
        positional: List[AV] = []
        star = CLEAN
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                star = star.merged(self._eval(arg.value))
            else:
                positional.append(self._eval(arg))
        keywords: List[Tuple[Optional[str], AV]] = [
            (kw.arg, self._eval(kw.value)) for kw in node.keywords
        ]
        base = (
            self._eval(node.func.value)
            if isinstance(node.func, ast.Attribute)
            else CLEAN
        )

        result = CLEAN
        site = self.sites.get(id(node))
        if site is not None:
            origin = self.spec.call_source(site)
            if origin is not None:
                result = result.merged(AV(origin=origin))
            for sink_label, crossing in self.spec.sink_crossings(
                site, self.module
            ):
                self._sink(self._eval(crossing), sink_label, node)
            callee = site.callee
            if callee is not None and not callee.is_stub:
                summary = self.summaries.get(callee.ref, EMPTY_TAINT)
                mapping = self._map_args(callee, positional, keywords, star)
                for index, av in mapping.items():
                    if index in summary.sink_params:
                        self._sink(av, callee.display, node)
                if summary.return_origin is not None:
                    result = result.merged(AV(origin=summary.return_origin))
                for index in summary.return_params:
                    mapped = mapping.get(index)
                    if mapped is not None:
                        result = result.merged(mapped)
            elif site.external is not None and self.spec.passthrough_external(
                site.external
            ):
                for av in positional:
                    result = result.merged(av)
                for _, av in keywords:
                    result = result.merged(av)
                result = result.merged(star)
        # A method-call result carries its receiver's taint
        # (``rng.integers(...)``, ``partial_obj.func``).
        return result.merged(base)

    def _map_args(
        self,
        callee: FunctionInfo,
        positional: Sequence[AV],
        keywords: Sequence[Tuple[Optional[str], AV]],
        star: AV,
    ) -> Dict[int, AV]:
        mapping: Dict[int, AV] = {}

        def merge(index: int, av: AV) -> None:
            mapping[index] = mapping.get(index, CLEAN).merged(av)

        for index, av in enumerate(positional):
            if index < len(callee.params):
                merge(index, av)
        for name, av in keywords:
            if name is None:  # **kwargs: may land anywhere
                for index in range(len(callee.params)):
                    merge(index, av)
            else:
                index = callee.param_index(name)
                if index is not None:
                    merge(index, av)
        if star is not CLEAN:
            for index in range(len(callee.params)):
                merge(index, star)
        return mapping

    def _sink(self, av: AV, sink: str, node: ast.Call) -> None:
        self.sink_params.update(av.params)
        if av.origin is not None and self._record:
            line, col = node_location(node)
            self.events.append(
                SinkEvent(
                    path=self.fn.path,
                    line=line,
                    col=col,
                    origin=av.origin,
                    sink=sink,
                )
            )


def run_taint(graph: CallGraph, spec: TaintSpec) -> TaintResult:
    """Iterate per-function taint analyses to a summary fixpoint."""
    functions = [fn for fn in graph.project.functions() if not fn.is_stub]
    summaries: Dict[str, TaintSummary] = {fn.ref: EMPTY_TAINT for fn in functions}
    events_by_fn: Dict[str, List[SinkEvent]] = {}
    for _ in range(_MAX_ROUNDS):
        changed = False
        for fn in functions:
            summary, events = _FunctionTaint(graph, spec, fn, summaries).run()
            merged = summaries[fn.ref].merged(summary)
            if merged != summaries[fn.ref]:
                summaries[fn.ref] = merged
                changed = True
            events_by_fn[fn.ref] = events
        if not changed:
            break

    seen: Set[Tuple[str, int, int, str, str]] = set()
    deduped: List[SinkEvent] = []
    for fn in functions:
        for event in events_by_fn.get(fn.ref, []):
            key = (event.path, event.line, event.col, event.origin, event.sink)
            if key not in seen:
                seen.add(key)
                deduped.append(event)
    deduped.sort(key=lambda e: (e.path, e.line, e.col, e.sink))
    return TaintResult(summaries=summaries, events=deduped)


# ----------------------------------------------------------------------
# Transitive purity.
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


def _local_impurity(
    graph: CallGraph, fn: FunctionInfo, module: ModuleInfo
) -> Optional[str]:
    """Earliest unwaived impurity in the function's own body, or ``None``.

    Impurities on lines covered by a justified ``noqa[FLOW-HOT]`` are
    excluded, so audited sites do not re-surface at their callers.
    """
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


def run_purity(graph: CallGraph) -> Dict[str, PuritySummary]:
    """Transitive allocation-freedom of every project function.

    Monotone closure: once a function is impure it stays impure, and its
    description is fixed at first discovery (so messages are stable).
    ``@hot_path``-decorated functions and Protocol/ABC stubs are pure
    leaves by decree.
    """
    project = graph.project
    impurity: Dict[str, Optional[str]] = {}
    for fn in project.functions():
        if fn.is_hot_path_allowlisted or fn.is_stub:
            impurity[fn.ref] = None
            continue
        impurity[fn.ref] = _local_impurity(graph, fn, project.by_path[fn.path])

    for _ in range(_MAX_ROUNDS * 4):  # deep chains are cheap to close
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
                        f"calls `{callee.display}`, which {inner}"
                    )
                    changed = True
                    break
        if not changed:
            break
    return {ref: PuritySummary(impurity=desc) for ref, desc in impurity.items()}
