"""Spawn-safety rule SPN002: registry writes only through registration APIs.

The campaign layer executes cells in spawn-start ``multiprocessing``
workers.  Module-level registries are re-imported fresh in each worker, so
writing to one outside its registration API silently diverges parent and
child state -- the exact bug class behind the spawn-registry fix.  This
rule catches such writes wherever they happen, parent side included;
FLOW-MUT only sees writes reachable from a worker entry point, and
FLOW-PKL owns the other spawn invariant (picklable payloads).
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Set

from repro.analysis.flow.pools import _MUTATORS, _callable_name
from repro.analysis.framework import FileContext, LintRule, register_rule

__all__ = ["RegistryMutationRule"]

#: Function-name pattern allowed to mutate module-level registries.
_REGISTRATION_API = re.compile(r"^_?(register|unregister|clear|reset)")

#: Upper-case module-global naming convention that marks a registry.
_REGISTRY_NAME = re.compile(r"^_?[A-Z][A-Z0-9_]*$")


@register_rule
class RegistryMutationRule(LintRule):
    rule_id = "SPN002"
    name = "registry-mutation-outside-api"
    severity = "error"
    rationale = (
        "Module-level registries (UPPER_CASE dict/list/set globals) are "
        "re-imported fresh in every spawn-start worker; mutating one outside "
        "its register*/unregister*/clear*/reset* API diverges parent and "
        "worker state silently -- the PR 5 spawn-registry bug class."
    )

    def check(self, ctx: FileContext) -> None:
        registries = self._module_registries(ctx.tree)
        if not registries:
            return
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if _REGISTRATION_API.match(func.name):
                continue
            for node in ast.walk(func):
                self._check_mutation(ctx, node, registries)

    @staticmethod
    def _module_registries(tree: ast.Module) -> Set[str]:
        """Module-global UPPER_CASE names bound to mutable literals."""
        names: Set[str] = set()
        for stmt in tree.body:
            targets: List[ast.expr] = []
            value: ast.AST = ast.Constant(value=None)
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            mutable = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
                isinstance(value, ast.Call)
                and _callable_name(value.func) in {"dict", "list", "set"}
            )
            if not mutable:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and _REGISTRY_NAME.match(
                    target.id
                ):
                    names.add(target.id)
        return names

    def _check_mutation(
        self, ctx: FileContext, node: ast.AST, registries: Set[str]
    ) -> None:
        def registry_name(expr: ast.AST) -> Optional[str]:
            if isinstance(expr, ast.Name) and expr.id in registries:
                return expr.id
            return None

        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript):
                    name = registry_name(target.value)
                    if name is not None:
                        ctx.report(
                            target,
                            f"write to module-level registry `{name}[...]` "
                            "outside a registration API function",
                        )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    name = registry_name(target.value)
                    if name is not None:
                        ctx.report(
                            target,
                            f"del on module-level registry `{name}` outside "
                            "a registration API function",
                        )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                name = registry_name(node.func.value)
                if name is not None:
                    ctx.report(
                        node,
                        f"mutating call `{name}.{node.func.attr}(...)` on a "
                        "module-level registry outside a registration API "
                        "function",
                    )
