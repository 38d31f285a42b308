"""Determinism rules (DET001-DET005).

Bit-identical reproduction dies the moment hidden global state leaks into a
run: the process-global numpy RNG, the stdlib ``random`` module's shared
state, or the wall clock.  Every randomness source in this codebase must be
an explicitly seeded :class:`numpy.random.Generator` threaded through
:mod:`repro.utils.rng`, and every clock read must go through the
observability layer so simulated results never depend on host timing.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from repro.analysis.flow.symbols import collect_imports
from repro.analysis.framework import FileContext, LintRule, register_rule

__all__ = [
    "NumpyGlobalRandomRule",
    "UnseededDefaultRngRule",
    "StdlibRandomRule",
    "WallClockRule",
    "DatetimeNowRule",
]

#: ``numpy.random`` attributes that are *not* global-state draws: seeded
#: constructors and bit-generator types.  Everything else
#: (``seed``/``rand``/``randint``/``shuffle``/...) mutates or reads the
#: hidden process-global RNG.
_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Wall-clock reads in :mod:`time`.  ``sleep`` is deliberately absent: it
#: shapes pacing, not results.
_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)

#: Packages whose *purpose* is timing; clock reads are their job.
_CLOCK_EXEMPT_PREFIXES = ("repro/obs/", "repro/resilience/")

_DATETIME_NOW = frozenset(
    {
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


def _qualified(
    node: ast.AST, modules: Dict[str, str], members: Dict[str, str]
) -> Optional[str]:
    """Resolve an attribute chain to its imported dotted path, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    head = node.id
    parts.reverse()
    if head in members:
        return ".".join([members[head]] + parts)
    if head in modules:
        return ".".join([modules[head]] + parts)
    return None


def _iter_calls(ctx: FileContext) -> Iterator[Tuple[ast.Call, str]]:
    modules, members = collect_imports(ctx.tree)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            qualified = _qualified(node.func, modules, members)
            if qualified is not None:
                yield node, qualified


@register_rule
class NumpyGlobalRandomRule(LintRule):
    rule_id = "DET001"
    name = "numpy-global-rng"
    severity = "error"
    rationale = (
        "Calls like `np.random.seed()` / `np.random.rand()` touch the hidden "
        "process-global numpy RNG, so results depend on import order and on "
        "every other caller of that state. All randomness must flow through "
        "an explicit seeded Generator (see repro.utils.rng.ensure_rng)."
    )

    def check(self, ctx: FileContext) -> None:
        for node, qualified in _iter_calls(ctx):
            parts = qualified.split(".")
            if (
                len(parts) == 3
                and parts[0] == "numpy"
                and parts[1] == "random"
                and parts[2] not in _NP_RANDOM_ALLOWED
            ):
                ctx.report(
                    node,
                    f"global-state numpy RNG call `numpy.random.{parts[2]}`; "
                    "thread a seeded Generator from repro.utils.rng instead",
                )


@register_rule
class UnseededDefaultRngRule(LintRule):
    rule_id = "DET002"
    name = "unseeded-default-rng"
    severity = "error"
    rationale = (
        "`default_rng()` with no argument seeds from OS entropy, making "
        "every run unique. Pass an explicit seed, SeedSequence or parent "
        "Generator (repro.utils.rng.ensure_rng accepts all three)."
    )

    def check(self, ctx: FileContext) -> None:
        for node, qualified in _iter_calls(ctx):
            if (
                qualified == "numpy.random.default_rng"
                and not node.args
                and not node.keywords
            ):
                ctx.report(
                    node,
                    "`default_rng()` without a seed draws from OS entropy; "
                    "pass an explicit seed or SeedSequence",
                )


@register_rule
class StdlibRandomRule(LintRule):
    rule_id = "DET003"
    name = "stdlib-random-global-state"
    severity = "error"
    rationale = (
        "Module-level `random.*` functions share one process-global state, "
        "and an unseeded `random.Random()` draws from OS entropy. Seeded "
        "`random.Random(seed)` instances are fine; everything else must use "
        "repro.utils.rng."
    )

    def check(self, ctx: FileContext) -> None:
        for node, qualified in _iter_calls(ctx):
            parts = qualified.split(".")
            if len(parts) != 2 or parts[0] != "random":
                continue
            if parts[1] == "Random":
                if not node.args and not node.keywords:
                    ctx.report(
                        node,
                        "unseeded `random.Random()` draws from OS entropy; "
                        "pass an explicit seed",
                    )
            elif parts[1] == "SystemRandom":
                ctx.report(
                    node,
                    "`random.SystemRandom` is OS entropy by design and can "
                    "never reproduce",
                )
            else:
                ctx.report(
                    node,
                    f"global-state stdlib RNG call `random.{parts[1]}`; use a "
                    "seeded Generator from repro.utils.rng (or a seeded "
                    "random.Random instance)",
                )


@register_rule
class WallClockRule(LintRule):
    rule_id = "DET004"
    name = "wall-clock-read"
    severity = "error"
    rationale = (
        "Simulated results must not depend on host timing; wall-clock reads "
        "belong to the observability layer (repro/obs) and the fault-"
        "tolerance layer (repro/resilience), whose whole job is timing. "
        "Everywhere else, route through repro.obs.clock so the read is "
        "auditable and mockable."
    )

    def check(self, ctx: FileContext) -> None:
        if ctx.in_path(*_CLOCK_EXEMPT_PREFIXES):
            return
        for node, qualified in _iter_calls(ctx):
            parts = qualified.split(".")
            if len(parts) == 2 and parts[0] == "time" and parts[1] in _TIME_FUNCS:
                ctx.report(
                    node,
                    f"wall-clock read `time.{parts[1]}()` outside repro/obs "
                    "and repro/resilience; use repro.obs.clock",
                )


@register_rule
class DatetimeNowRule(LintRule):
    rule_id = "DET005"
    name = "datetime-now"
    severity = "error"
    rationale = (
        "`datetime.now()` / `date.today()` read the wall clock and the local "
        "timezone -- run artifacts stamped with them differ across hosts and "
        "reruns. Use repro.obs.clock.utc_timestamp() for audit stamps."
    )

    def check(self, ctx: FileContext) -> None:
        for node, qualified in _iter_calls(ctx):
            if qualified in _DATETIME_NOW:
                ctx.report(
                    node,
                    f"`{qualified}()` reads wall clock and local timezone; "
                    "use repro.obs.clock.utc_timestamp()",
                )
