"""Rule framework of :mod:`repro.analysis`.

The pieces every rule shares:

* :class:`LintRule` -- one named, documented invariant check over a file's
  AST.  Rules are *instances* registered in a module-level registry
  (:func:`register_rule`), so the CLI, the self-lint test and the docs all
  enumerate the same catalog.
* :class:`FileContext` -- everything a rule may inspect about the file under
  analysis (source, AST, normalised module path) plus the :meth:`report`
  sink rules deposit findings into.
* suppressions -- ``# repro: noqa[RULE] -- justification`` comments.  The
  bracket names the rule(s) being silenced and the justification text is
  **mandatory**: a naked suppression is itself a finding (``SUP001``), and
  naming an unknown rule is another (``SUP002``).  A suppression on a line
  containing only the comment applies to the next line, so long statements
  can be annotated without exceeding line length.
* :func:`lint_source` / :func:`lint_file` / :func:`lint_paths` -- the
  drivers that parse, run every selected rule and apply suppressions.  A
  file that cannot be read or decoded is a ``SYN001`` finding, never a
  crash and never a silent skip.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type, Union

from repro.analysis.findings import SEVERITIES, Finding

__all__ = [
    "FileContext",
    "LintRule",
    "Suppression",
    "all_rules",
    "collect_files",
    "get_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "parse_suppressions",
    "register_rule",
    "rule_ids",
]

#: Rule id of the unparsable-file pseudo-finding (a file that cannot be
#: read, decoded as UTF-8 or parsed).
SYNTAX_RULE = "SYN001"
#: Rule id of a suppression carrying no justification text.
MISSING_JUSTIFICATION_RULE = "SUP001"
#: Rule id of a suppression naming an unknown rule.
UNKNOWN_SUPPRESSION_RULE = "SUP002"

_NOQA = re.compile(
    r"#\s*repro:\s*noqa\[(?P<rules>[A-Za-z0-9_,\s-]*)\]\s*(?:--|:)?\s*(?P<why>.*)$"
)


# ----------------------------------------------------------------------
# Rules and their registry.
# ----------------------------------------------------------------------
class LintRule:
    """One invariant check.  Subclasses override :meth:`check`.

    Attributes
    ----------
    rule_id:
        Short stable id (``DET004``); what suppressions and ``--rules``
        select by.
    name:
        Kebab-case human name (``wall-clock-read``).
    severity:
        ``"error"`` or ``"warning"`` (see :data:`~repro.analysis.findings.SEVERITIES`).
    rationale:
        One paragraph: which reproduction invariant the rule protects and
        why violating it has bitten before.  Rendered by ``--list-rules``
        and the docs rule catalog.
    """

    rule_id: str = ""
    name: str = ""
    severity: str = "error"
    rationale: str = ""

    def check(self, ctx: "FileContext") -> None:
        """Inspect ``ctx`` and :meth:`FileContext.report` every violation."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} {self.rule_id} ({self.name})>"


class _SuppressionHygieneRule(LintRule):
    """Placeholder entries so SUP001/SUP002 appear in the rule catalog.

    The actual checking happens in :func:`lint_source` while suppressions
    are applied (it needs the full suppression table, not the AST), but the
    registry still carries one entry per id so ``--list-rules``, ``--rules``
    filtering and the self-lint catalog test see them.
    """

    def __init__(self, rule_id: str, name: str, rationale: str) -> None:
        self.rule_id = rule_id
        self.name = name
        self.severity = "error"
        self.rationale = rationale

    def check(self, ctx: "FileContext") -> None:
        return None


_RULES: Dict[str, LintRule] = {}


def register_rule(rule: Union[LintRule, Type[LintRule]]) -> LintRule:
    """Add ``rule`` to the registry (keyed by ``rule_id``); returns it.

    Usable as a plain call or as a class decorator (the class is
    instantiated with no arguments).  Re-registering an id raises -- two
    rules silently sharing an id would make suppressions ambiguous.
    """
    if isinstance(rule, type):
        rule = rule()
    if not rule.rule_id or not rule.name:
        raise ValueError(f"rule {rule!r} must define rule_id and name")
    if rule.severity not in SEVERITIES:
        raise ValueError(
            f"rule {rule.rule_id}: severity must be one of {SEVERITIES}"
        )
    if rule.rule_id in _RULES:
        raise ValueError(f"rule id {rule.rule_id} is already registered")
    _RULES[rule.rule_id] = rule
    return rule


def all_rules() -> List[LintRule]:
    """Every registered rule, sorted by id."""
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def rule_ids() -> List[str]:
    """Sorted ids of every registered rule."""
    return sorted(_RULES)


def get_rules(selected: Optional[Iterable[str]] = None) -> List[LintRule]:
    """Resolve a ``--rules`` selection (``None`` = every registered rule)."""
    if selected is None:
        return all_rules()
    chosen = list(selected)
    unknown = sorted(set(chosen) - set(_RULES))
    if unknown:
        raise KeyError(
            f"unknown rule id(s) {', '.join(unknown)}; "
            f"registered: {', '.join(sorted(_RULES))}"
        )
    return [_RULES[rule_id] for rule_id in sorted(set(chosen))]


register_rule(
    _SuppressionHygieneRule(
        MISSING_JUSTIFICATION_RULE,
        "suppression-without-justification",
        "Every `# repro: noqa[...]` must say *why* the invariant is waived "
        "at this site; a bare suppression rots into folklore nobody dares "
        "to remove.",
    )
)
register_rule(
    _SuppressionHygieneRule(
        UNKNOWN_SUPPRESSION_RULE,
        "suppression-of-unknown-rule",
        "A suppression naming a rule id that does not exist silences "
        "nothing and usually means a typo is letting the real finding "
        "through.",
    )
)


# ----------------------------------------------------------------------
# File context.
# ----------------------------------------------------------------------
@dataclass
class FileContext:
    """Everything one rule invocation may inspect about one file."""

    #: Display path (as handed to the runner; what findings print).
    path: str
    #: Source text of the file.
    source: str
    #: Parsed module AST.
    tree: ast.Module
    #: Path normalised to start at the package root (``repro/obs/x.py``)
    #: so path-scoped rules match regardless of checkout location.
    module_path: str
    #: Findings deposited by rules (the driver owns post-processing).
    findings: List[Finding] = field(default_factory=list)
    #: Whole-program view for the interprocedural (FLOW-*) rules: a
    #: :class:`repro.analysis.flow.symbols.FlowProject` covering every file
    #: of the run when linting via :func:`lint_paths`, ``None`` for
    #: single-file entry points (flow rules then fall back to a
    #: single-file project).  Typed loosely to keep the framework free of
    #: an import cycle with the flow layer.
    project: Optional[object] = None

    _active_rule: Optional[LintRule] = None

    def report(
        self,
        node: ast.AST,
        message: str,
        *,
        line: Optional[int] = None,
        col: Optional[int] = None,
    ) -> None:
        """Record one violation of the currently running rule at ``node``."""
        rule = self._active_rule
        if rule is None:  # pragma: no cover - driver always sets it
            raise RuntimeError("report() called outside a rule check")
        self.findings.append(
            Finding(
                rule=rule.rule_id,
                severity=rule.severity,
                path=self.path,
                line=line if line is not None else getattr(node, "lineno", 1),
                col=col if col is not None else getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def in_path(self, *prefixes: str) -> bool:
        """True when the file lives under any of the ``repro/...`` prefixes."""
        return any(self.module_path.startswith(prefix) for prefix in prefixes)


def _module_relpath(path: Union[str, Path]) -> str:
    """Normalise ``path`` to a ``repro/...`` relative posix path.

    Rules scope themselves to package-relative locations ("everything under
    ``repro/obs/``"); this finds the last ``repro`` package segment so the
    scoping works for absolute paths, ``src/``-prefixed paths and installed
    trees alike.  Paths outside the package come back as their plain posix
    form (path-scoped rules then simply never match).
    """
    parts = Path(path).as_posix().split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return "/".join(parts)


# ----------------------------------------------------------------------
# Suppressions.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: noqa[...]`` comment."""

    #: Line the comment sits on.
    line: int
    #: Line the suppression applies to (next line for comment-only lines).
    applies_to: int
    #: Rule ids named in the bracket.
    rules: Tuple[str, ...]
    #: Justification text after the bracket ("" when missing).
    justification: str


def parse_suppressions(source: str) -> List[Suppression]:
    """Extract every ``# repro: noqa[...]`` comment from ``source``.

    Comments are found with :mod:`tokenize`, so the marker inside string
    literals is never misread as a suppression.  A comment on a line of its
    own applies to the following line; a trailing comment applies to its
    own line.
    """
    suppressions: List[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _NOQA.search(token.string)
        if match is None:
            continue
        names = tuple(
            name.strip() for name in match.group("rules").split(",") if name.strip()
        )
        line = token.start[0]
        # A comment-only line (nothing but whitespace before the `#`)
        # annotates the next line.
        standalone = token.line[: token.start[1]].strip() == ""
        suppressions.append(
            Suppression(
                line=line,
                applies_to=line + 1 if standalone else line,
                rules=names,
                justification=match.group("why").strip(),
            )
        )
    return suppressions


def _apply_suppressions(
    path: str, findings: List[Finding], suppressions: Sequence[Suppression]
) -> List[Finding]:
    """Mark suppressed findings and append the SUP001/SUP002 hygiene ones."""
    by_line: Dict[int, List[Suppression]] = {}
    for suppression in suppressions:
        by_line.setdefault(suppression.applies_to, []).append(suppression)

    out: List[Finding] = []
    for finding in findings:
        covering = next(
            (
                s
                for s in by_line.get(finding.line, ())
                if finding.rule in s.rules and s.justification
            ),
            None,
        )
        if covering is not None:
            finding = finding.suppress(covering.justification)
        out.append(finding)

    known = set(_RULES) | {SYNTAX_RULE}
    for suppression in suppressions:
        if not suppression.justification:
            out.append(
                Finding(
                    rule=MISSING_JUSTIFICATION_RULE,
                    severity="error",
                    path=path,
                    line=suppression.line,
                    col=0,
                    message=(
                        "suppression without justification: write "
                        "`# repro: noqa[RULE] -- why this site is exempt`"
                    ),
                )
            )
        for name in suppression.rules:
            if name not in known:
                out.append(
                    Finding(
                        rule=UNKNOWN_SUPPRESSION_RULE,
                        severity="error",
                        path=path,
                        line=suppression.line,
                        col=0,
                        message=f"suppression names unknown rule {name!r}",
                    )
                )
    out.sort(key=lambda f: (f.line, f.col, f.rule))
    return out


# ----------------------------------------------------------------------
# Drivers.
# ----------------------------------------------------------------------
def lint_source(
    source: str,
    path: Union[str, Path] = "<string>",
    *,
    rules: Optional[Sequence[LintRule]] = None,
    project: Optional[object] = None,
) -> List[Finding]:
    """Lint one source string; returns every finding (suppressed included).

    The workhorse behind :func:`lint_file` and the fixture tests: parse,
    run each rule, apply suppressions, append suppression-hygiene findings.
    ``project`` carries the whole-program view for the FLOW-* rules when
    the caller linted more than this one file.
    """
    display = str(path)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                rule=SYNTAX_RULE,
                severity="error",
                path=display,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"syntax error: {exc.msg}",
            )
        ]
    ctx = FileContext(
        path=display,
        source=source,
        tree=tree,
        module_path=_module_relpath(path),
        project=project,
    )
    for rule in rules if rules is not None else all_rules():
        ctx._active_rule = rule
        rule.check(ctx)
    ctx._active_rule = None
    return _apply_suppressions(display, ctx.findings, parse_suppressions(source))


def _read_source(path: Path) -> Union[str, Finding]:
    """The file's text, or a ``SYN001`` finding saying why it is unreadable."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return Finding(
            rule=SYNTAX_RULE,
            severity="error",
            path=str(path),
            line=1,
            col=0,
            message=f"unreadable source: {exc}",
        )


def lint_file(
    path: Union[str, Path],
    *,
    rules: Optional[Sequence[LintRule]] = None,
    project: Optional[object] = None,
) -> List[Finding]:
    """Lint one file on disk."""
    text = _read_source(Path(path))
    if isinstance(text, Finding):
        return [text]
    return lint_source(text, path, rules=rules, project=project)


def collect_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files and directory trees to a sorted, deterministic file list."""
    files: List[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files.extend(sorted(entry.rglob("*.py")))
        elif entry.exists():
            files.append(entry)
        else:
            raise FileNotFoundError(f"no such file or directory: {entry}")
    return files


def lint_paths(
    paths: Sequence[Union[str, Path]],
    *,
    rules: Optional[Sequence[LintRule]] = None,
) -> List[Finding]:
    """Lint files and directory trees (``*.py``, sorted, deterministic).

    All files of the run form one :class:`~repro.analysis.flow.symbols.FlowProject`
    shared by every per-file rule invocation, so the FLOW-* families see
    taint that crosses module boundaries.
    """
    # Imported here: the flow layer builds on this framework module.
    from repro.analysis.flow.symbols import FlowProject

    texts = [(str(file), _read_source(file)) for file in collect_files(paths)]
    project = FlowProject(
        [(path, text) for path, text in texts if isinstance(text, str)]
    )
    findings: List[Finding] = []
    for path, text in texts:
        if isinstance(text, Finding):
            findings.append(text)
        else:
            findings.extend(lint_source(text, path, rules=rules, project=project))
    return findings
