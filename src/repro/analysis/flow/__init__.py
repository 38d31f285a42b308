"""Interprocedural substrate of :mod:`repro.analysis`.

The single-file rules are AST pattern matches; this subpackage is the
whole-program view that lets an invariant hold *across* call boundaries:

* :mod:`repro.analysis.flow.symbols` -- project-wide symbol table: one
  :class:`~repro.analysis.flow.symbols.ModuleInfo` per file (its one
  parse, functions, classes, imports, inferred attribute types).
* :mod:`repro.analysis.flow.callgraph` -- call-site resolution over the
  symbol table: imported members, ``self`` methods, annotated parameters,
  constructor-assigned attributes, and a conservative unique-name fallback
  for dynamic dispatch.
* :mod:`repro.analysis.flow.pools` -- the spawn-boundary call shapes
  (pool submissions, process/pool constructors) and the module-global
  write scan.

Each of the three rules owns its analysis over this substrate, and each
fixpoint runs until nothing changes:

* ``FLOW-HOT`` (``rules_flow_hot``) -- hot-loop purity: the profiled
  stages must be allocation-free in their own bodies and through their
  entire callee closure;
* ``FLOW-PKL`` (``rules_flow_pkl``) -- pool-submission pickle-safety, a
  taint analysis over per-function summaries that follows a payload
  through wrappers and helper returns;
* ``FLOW-MUT`` (``rules_flow_mut``) -- module-global mutation reachable
  from worker entry points.
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
