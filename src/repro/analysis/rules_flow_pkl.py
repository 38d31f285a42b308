"""Pool-submission pickle-safety rule (FLOW-PKL).

Spawn-start workers unpickle everything they receive.  This rule follows
the payload: anything unpicklable by construction -- lambdas, locally
defined functions/classes, open file handles, thread locks -- is tainted,
taint survives `functools.partial`, container literals and helper
returns, and a finding fires where the value crosses a pool/process
boundary, whether it is written right at the submission or laundered
through any number of wrappers.

The analysis is a forward taint propagation over per-function
:class:`TaintSummary` records.  Each function is analyzed
flow-insensitively against its callees' summaries, and the summaries are
iterated until they stop changing (every field is monotone and finite, so
recursion and arbitrarily deep helper chains converge).  A crossing is
reported at the *frontier*: the call expression where a tainted value
meets a sink-reaching path, which is also where a suppression belongs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.flow.callgraph import CallGraph, CallSite, _FunctionScope, build_callgraph
from repro.analysis.flow.pools import submission_of
from repro.analysis.flow.symbols import FlowProject, FunctionInfo, ModuleInfo
from repro.analysis.framework import FileContext, LintRule, node_location, register_rule

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


# ----------------------------------------------------------------------
# Taint vocabulary.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AV:
    """Abstract value of the taint lattice.

    ``origin`` is ``None`` for clean values, else a human-readable
    description of the taint source (threaded into finding messages);
    ``params`` holds the caller-parameter indices this value may carry,
    which is how summaries express "flows from parameter *i*".
    """

    origin: Optional[str] = None
    params: FrozenSet[int] = frozenset()

    def merged(self, other: "AV") -> "AV":
        if other is CLEAN:
            return self
        if self is CLEAN:
            return other
        return AV(
            origin=self.origin if self.origin is not None else other.origin,
            params=self.params | other.params,
        )


#: The bottom element: untainted, parameter-free.
CLEAN = AV()


@dataclass(frozen=True)
class SinkEvent:
    """One tainted value crossing a sink boundary, in the file of the
    function whose body contains the crossing call."""

    path: str
    line: int
    col: int
    #: Description of the taint source (``AV.origin``).
    origin: str
    #: Description of the sink (boundary label or callee ref).
    sink: str


@dataclass(frozen=True)
class TaintSummary:
    """What a function does with taint, from its callers' point of view."""

    #: Taint-source description when the function can return a tainted
    #: value given clean arguments (``None`` otherwise).
    return_origin: Optional[str] = None
    #: Parameter indices that may flow into the return value.
    return_params: FrozenSet[int] = frozenset()
    #: Parameter indices that may (transitively) reach a sink.
    sink_params: FrozenSet[int] = frozenset()

    def merged(self, other: "TaintSummary") -> "TaintSummary":
        return TaintSummary(
            return_origin=(
                self.return_origin
                if self.return_origin is not None
                else other.return_origin
            ),
            return_params=self.return_params | other.return_params,
            sink_params=self.sink_params | other.sink_params,
        )


# ----------------------------------------------------------------------
# Sources.
# ----------------------------------------------------------------------
def _call_source(site: CallSite) -> Optional[str]:
    """Taint-origin description when this call *creates* taint."""
    if site.external == "open":
        return "an open file handle"
    if site.external in _LOCK_FACTORIES:
        return f"a `{site.external}()` lock/primitive"
    return None


def _name_source(
    name: str, scope: _FunctionScope, module: ModuleInfo
) -> Optional[str]:
    """Taint-origin description when ``name`` refers to a local def, a
    local class, a lambda-bound local or a module-level lambda."""
    if name in scope.nested_defs:
        return f"locally-defined function `{name}`"
    if name in scope.local_classes:
        return f"locally-defined class `{name}`"
    if name in scope.lambda_locals:
        return f"lambda-bound local `{name}`"
    if name not in scope.assigned and name in module.lambda_globals:
        return f"module-level lambda `{name}`"
    return None


# ----------------------------------------------------------------------
# Per-function pass and fixpoint.
# ----------------------------------------------------------------------
class _FunctionTaint:
    """One flow-insensitive pass over a single function body.

    Two sweeps over the statements in source order: the first populates
    the local environment (so a name used above its def-site in loop
    bodies still picks up taint), the second records sink events.
    """

    def __init__(
        self,
        graph: CallGraph,
        fn: FunctionInfo,
        summaries: Dict[str, TaintSummary],
    ) -> None:
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
        """Bind or return taint for the statements that do; walk every
        other statement's children (expressions, nested blocks)."""
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
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._assign(stmt.target, self._eval(stmt.iter))
                self._exec(stmt.body)
                self._exec(stmt.orelse)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    av = self._eval(item.context_expr)
                    if item.optional_vars is not None:
                        self._assign(item.optional_vars, av)
                self._exec(stmt.body)
            else:
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
            origin = _name_source(node.id, self.scope, self.module)
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
            return AV(origin="a lambda")
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
            origin = _call_source(site)
            if origin is not None:
                result = result.merged(AV(origin=origin))
            submission = submission_of(site)
            if submission is not None:
                for crossing in submission.crossings:
                    self._sink(
                        self._eval(crossing), submission.description, node
                    )
            callee = site.callee
            if callee is not None and not callee.is_stub:
                summary = self.summaries.get(callee.ref, TaintSummary())
                mapping = self._map_args(callee, positional, keywords, star)
                for index, av in mapping.items():
                    if index in summary.sink_params:
                        self._sink(av, callee.ref, node)
                if summary.return_origin is not None:
                    result = result.merged(AV(origin=summary.return_origin))
                for index in summary.return_params:
                    mapped = mapping.get(index)
                    if mapped is not None:
                        result = result.merged(mapped)
            elif (
                site.external is not None
                and site.external.split(".")[-1] in _PASSTHROUGH
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


def run_taint(project: FlowProject) -> List[SinkEvent]:
    """Iterate per-function taint passes until no summary changes, and
    return the converged pass's deduplicated sink events."""
    graph = project.analysis("callgraph", build_callgraph)
    functions = [fn for fn in project.functions() if not fn.is_stub]
    summaries: Dict[str, TaintSummary] = {fn.ref: TaintSummary() for fn in functions}
    events_by_fn: Dict[str, List[SinkEvent]] = {}
    changed = True
    while changed:
        changed = False
        for fn in functions:
            summary, events = _FunctionTaint(graph, fn, summaries).run()
            merged = summaries[fn.ref].merged(summary)
            if merged != summaries[fn.ref]:
                summaries[fn.ref] = merged
                changed = True
            events_by_fn[fn.ref] = events

    seen: Set[SinkEvent] = set()
    deduped: List[SinkEvent] = []
    for fn in functions:
        for event in events_by_fn[fn.ref]:
            if event not in seen:
                seen.add(event)
                deduped.append(event)
    deduped.sort(key=lambda e: (e.path, e.line, e.col, e.sink))
    return deduped


@register_rule
class PoolPayloadPickleRule(LintRule):
    rule_id = "FLOW-PKL"
    name = "unpicklable-payload-reaches-pool"
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
        events: List[SinkEvent] = ctx.project.analysis("flow-pkl", run_taint)
        for event in events:
            if event.path != ctx.path:
                continue
            ctx.report(
                ctx.tree,
                f"spawn-unsafe payload: {event.origin} flows into "
                f"{event.sink}; workers unpickle their payload -- pass "
                "module-level callables and plain data",
                line=event.line,
                col=event.col,
            )
