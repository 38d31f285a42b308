"""Interprocedural dataflow layer of :mod:`repro.analysis`.

The single-file rules are AST pattern matches; this subpackage is the
whole-program analysis that lets an invariant hold *across* call
boundaries:

* :mod:`repro.analysis.flow.symbols` -- project-wide symbol table: one
  :class:`~repro.analysis.flow.symbols.ModuleInfo` per file (its one
  parse, functions, classes, imports, inferred attribute types).
* :mod:`repro.analysis.flow.callgraph` -- call-site resolution over the
  symbol table: imported members, ``self`` methods, annotated parameters,
  constructor-assigned attributes, and a conservative unique-name fallback
  for dynamic dispatch.
* :mod:`repro.analysis.flow.engine` -- a small fixpoint dataflow engine:
  forward taint propagation over assignments/calls/returns and a
  transitive purity analysis (with the one definition of a hot-path
  impurity), both built on per-function summaries so the whole-program
  pass is linear in call-graph size.
* :mod:`repro.analysis.flow.pools` -- the spawn-boundary call shapes
  (pool submissions, process/pool constructors) and the module-global
  write scan.
* :mod:`repro.analysis.flow.summaries` -- the summary dataclasses the
  engine computes and the rule families consume.

The three rule families (registered by importing their modules, exactly
like the single-file rules):

* ``FLOW-HOT`` -- hot-loop purity: the profiled stages must be
  allocation-free in their own bodies and through their entire callee
  closure;
* ``FLOW-PKL`` -- pool-submission pickle-safety, at the submission site
  and across wrappers and helper returns;
* ``FLOW-MUT`` -- module-global mutation reachable from worker entry
  points.
"""

from repro.analysis.flow.callgraph import CallGraph, CallSite
from repro.analysis.flow.symbols import FlowProject, FunctionInfo, ModuleInfo

__all__ = [
    "CallGraph",
    "CallSite",
    "FlowProject",
    "FunctionInfo",
    "ModuleInfo",
]
