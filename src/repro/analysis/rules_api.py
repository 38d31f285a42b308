"""API-hygiene rules (API001-API002).

The public API layer promises two things these rules keep honest:

* every event flowing through :class:`repro.api.events.EventBus` has a
  statically known name, so subscribers can be checked against the
  catalog (API001 forces call sites through the ``EV_*`` constants);
* run configuration is immutable after construction -- the
  ``object.__setattr__`` escape hatch frozen dataclasses need in
  ``__init__``/``__post_init__`` must never appear anywhere else (API002).
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Optional, Tuple

from repro.analysis.framework import FileContext, LintRule, register_rule

__all__ = ["EmitConstantRule", "FrozenConfigWriteRule"]

#: Methods where frozen dataclasses legitimately self-assign.
_FROZEN_INIT_METHODS = frozenset({"__init__", "__post_init__", "__setstate__"})


def _event_constants() -> FrozenSet[str]:
    """Names of the ``EV_*`` constants exported by :mod:`repro.api.events`.

    Read from the live module so the rule and the event catalog can never
    drift apart; falls back to an empty set (rule flags every emit) if the
    api layer is unimportable, which only happens in broken checkouts.
    """
    try:
        from repro.api import events
    except Exception:  # pragma: no cover - only on a broken tree
        return frozenset()
    return frozenset(name for name in dir(events) if name.startswith("EV_"))


@register_rule
class EmitConstantRule(LintRule):
    rule_id = "API001"
    name = "emit-requires-event-constant"
    rationale = (
        "`bus.emit(\"phase\", ...)` with a string literal (or a computed "
        "name) cannot be cross-checked against the event catalog, so a "
        "typo becomes an event nobody receives. Call sites must pass one "
        "of the EV_* constants from repro.api.events."
    )

    def __init__(self) -> None:
        self._constants: Optional[FrozenSet[str]] = None

    def check(self, ctx: FileContext) -> None:
        if self._constants is None:
            self._constants = _event_constants()
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
            ):
                continue
            if not node.args:
                ctx.report(
                    node, "emit() without an event name argument"
                )
                continue
            name_arg = node.args[0]
            terminal = None
            if isinstance(name_arg, ast.Name):
                terminal = name_arg.id
            elif isinstance(name_arg, ast.Attribute):
                terminal = name_arg.attr
            if terminal is None or terminal not in self._constants:
                ctx.report(
                    name_arg,
                    "emit() event name must be an EV_* constant from "
                    "repro.api.events (statically checkable), not a "
                    "literal or computed value",
                )


@register_rule
class FrozenConfigWriteRule(LintRule):
    rule_id = "API002"
    name = "frozen-field-write-outside-init"
    rationale = (
        "`object.__setattr__` outside __init__/__post_init__ defeats "
        "frozen dataclasses: the config tree is hashed into run "
        "fingerprints at construction, so a later write silently "
        "invalidates every reproducibility guarantee attached to them."
    )

    def check(self, ctx: FileContext) -> None:
        def visit(node: ast.AST, func_stack: Tuple[str, ...]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, func_stack + (child.name,))
                    continue
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__setattr__"
                    and isinstance(child.func.value, ast.Name)
                    and child.func.value.id == "object"
                    and not any(
                        name in _FROZEN_INIT_METHODS for name in func_stack
                    )
                ):
                    ctx.report(
                        child,
                        "`object.__setattr__` outside "
                        "__init__/__post_init__ mutates a frozen config "
                        "after its fingerprint was taken",
                    )
                visit(child, func_stack)

        visit(ctx.tree, ())
