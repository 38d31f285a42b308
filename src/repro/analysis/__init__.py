"""Invariant-enforcing static analysis for the repro codebase.

``repro.analysis`` is an AST lint layer with project-specific rules for the
invariants the reproduction depends on:

* **determinism** (DET001-DET005) -- seeded-RNG-only, with every
  entropy-seeded generator flagged where it is built, and no wall clock
  outside the observability/resilience layers;
* **spawn-safety** (FLOW-PKL, FLOW-MUT) -- picklable worker payloads
  however wrapped, no module-global write reachable from a worker;
* **hot-loop purity** (FLOW-HOT) -- no Python loops, copies or fresh
  allocations inside the profiled stages or anything they call;
* **API hygiene** (API001-API002) -- EventBus names via ``EV_*`` constants,
  frozen configs written only in ``__init__``/``__post_init__``;
* **suppression hygiene** (SUP001-SUP002) -- every ``# repro: noqa[...]``
  must name a real rule and carry a justification.

The ``FLOW-*`` rules read the whole-program view of the
:mod:`repro.analysis.flow` layer (symbol table, call graph, spawn-boundary
shapes) and each owns its fixpoint analysis, so each invariant holds
*across* call boundaries with one rule and one implementation.

Run it as ``python -m repro lint`` (see ``docs/static-analysis.md``), or
programmatically::

    from repro.analysis import lint_paths, render
    findings = lint_paths(["src/repro"])
    print(render(findings, "sarif"))

Importing this package registers every shipped rule; the registry is the
single source of truth for ``--list-rules``, the docs catalog and the
self-lint test.
"""

# Importing the rule modules registers their rules as a side effect; the
# self-lint test asserts the resulting catalog, so deleting any module
# below is a test failure, not a silent loss of coverage.
from repro.analysis import (
    rules_api,  # noqa: F401
    rules_determinism,  # noqa: F401
    rules_flow_hot,  # noqa: F401
    rules_flow_mut,  # noqa: F401
    rules_flow_pkl,  # noqa: F401
)
from repro.analysis.findings import Finding
from repro.analysis.flow import FlowProject
from repro.analysis.framework import (
    FileContext,
    LintRule,
    Suppression,
    all_rules,
    collect_files,
    get_rules,
    lint_paths,
    lint_source,
    parse_suppressions,
    register_rule,
    rule_ids,
)
from repro.analysis.report import (
    render,
    render_sarif,
    render_text,
    summarize,
)

__all__ = [
    "FileContext",
    "Finding",
    "FlowProject",
    "LintRule",
    "Suppression",
    "all_rules",
    "collect_files",
    "get_rules",
    "lint_paths",
    "lint_source",
    "parse_suppressions",
    "register_rule",
    "render",
    "render_sarif",
    "render_text",
    "rule_ids",
    "summarize",
]
