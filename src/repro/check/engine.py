"""Drive the registered rules over a file set and account for pragmas.

The engine is split into two phases so whole-project analysis stays
incremental; :func:`repro.check.incremental.lint_paths` is the one entry
point that drives both over a file set:

* the **per-file phase** (:func:`analyze_source`) parses one file, runs
  every per-file rule and every registered fact extractor, and folds the
  outcome into a serializable :class:`~repro.check.framework.FileRecord`.
  This phase never sees ``--select``/``--ignore`` — records are
  filter-independent, which is what lets the incremental driver
  (:mod:`repro.check.incremental`) cache them by content hash and farm
  them out to worker processes.

* the **project phase** (:func:`run_project`) consumes records only: it
  applies rule selection, runs the :class:`ProjectRule` packs over a
  shared :class:`ProjectContext` (memoized call graph + trace
  vocabulary), applies suppression pragmas and checks pragma hygiene:

  - ``NL001`` (error): a ``disable`` pragma with no ``-- reason`` string;
  - ``NL002`` (error): a pragma naming an unknown rule id;
  - ``NL003`` (warning): a pragma that suppressed nothing (stale after a
    refactor — delete it so real violations cannot hide behind it);
  - ``NL004`` (error): a file that does not parse at all.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.check.framework import (
    FACT_EXTRACTORS,
    FileRecord,
    REGISTRY,
    ProjectRule,
    Severity,
    SourceFile,
    Violation,
)

@dataclass
class CheckResult:
    """Outcome of one engine run."""

    violations: List[Violation] = field(default_factory=list)
    suppressed: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    #: incremental-driver accounting (0/0 for plain in-memory runs)
    files_reused: int = 0
    files_analyzed: int = 0

    @property
    def errors(self) -> int:
        return sum(
            1 for v in self.violations if v.severity == Severity.ERROR
        )

    @property
    def warnings(self) -> int:
        return sum(
            1 for v in self.violations if v.severity == Severity.WARNING
        )

    @property
    def failed(self) -> bool:
        """INFO findings never fail a run; warnings and errors do."""
        return self.errors > 0 or self.warnings > 0


class ProjectContext:
    """Everything the project phase shares across rules, built lazily.

    ``records`` excludes nothing; ``parsed`` drops files with parse
    errors (project rules only see valid facts).  The call graph and the
    trace vocabulary are each built at most once per run.
    """

    def __init__(self, records: Sequence[FileRecord]) -> None:
        self.records: List[FileRecord] = list(records)
        self.parsed: List[FileRecord] = [
            r for r in self.records if r.parse_error is None
        ]
        self._graph = None
        self._vocab = None

    @property
    def graph(self):
        if self._graph is None:
            from repro.check.callgraph import CallGraph

            self._graph = CallGraph(
                r.facts["callgraph"] for r in self.parsed
                if "callgraph" in r.facts
            )
        return self._graph

    @property
    def vocab(self):
        if self._vocab is None:
            from repro.check.schema import load_vocabulary

            self._vocab = load_vocabulary(self.parsed)
        return self._vocab


def discover_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d not in ("__pycache__", ".git")
                )
                for name in sorted(names):
                    if name.endswith(".py"):
                        found.append(os.path.join(root, name))
        else:
            raise FileNotFoundError(path)
    return sorted(dict.fromkeys(found))


def analyze_source(src: SourceFile) -> FileRecord:
    """The per-file phase: rules + facts for one parsed source file."""
    record = FileRecord(
        path=src.path, modpath=src.modpath, pragmas=src.pragmas
    )
    if src.parse_error is not None:
        record.parse_error = {
            "line": src.parse_error.lineno or 1,
            "col": (src.parse_error.offset or 1) - 1,
            "msg": src.parse_error.msg,
        }
        return record
    for rule in REGISTRY:
        if isinstance(rule, ProjectRule):
            continue
        if rule.applies_to(src):
            record.violations.extend(rule.check(src))
    record.violations.sort(key=lambda v: (v.line, v.rule, v.col))
    for name, extract in sorted(FACT_EXTRACTORS.items()):
        record.facts[name] = extract(src)
    return record


def run_project(
    records: Sequence[FileRecord],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> CheckResult:
    """The project phase: selection, project rules, suppression, hygiene."""
    selected = {r.upper() for r in select} if select else None
    ignored = {r.upper() for r in ignore} if ignore else set()
    result = CheckResult(files_checked=len(records))

    def wanted(rule_id: str) -> bool:
        return (
            selected is None or rule_id in selected
        ) and rule_id not in ignored

    raw: List[Violation] = []
    for record in records:
        if record.parse_error is not None:
            raw.append(Violation(
                rule="NL004",
                severity=Severity.ERROR,
                path=record.path,
                line=record.parse_error["line"],
                col=record.parse_error["col"],
                message=(
                    f"file does not parse: {record.parse_error['msg']}"
                ),
                hint="noiselint needs valid Python to check contracts",
            ))
            continue
        raw.extend(v for v in record.violations if wanted(v.rule))

    ctx = ProjectContext(records)
    for rule in REGISTRY:
        if isinstance(rule, ProjectRule) and wanted(rule.id):
            raw.extend(rule.check_records(ctx))

    # Suppression pass: a violation survives unless a justified pragma on
    # its line (or a file-level pragma) names its rule.
    by_path = {r.path: r for r in records}
    for violation in raw:
        record = by_path.get(violation.path)
        if record is not None and record.suppresses(violation) is not None:
            result.suppressed.append(violation)
        else:
            result.violations.append(violation)

    # Pragma hygiene (never suppressible — these are about the pragmas).
    for record in records:
        for pragma in record.pragmas:
            if not pragma.reason:
                result.violations.append(Violation(
                    rule="NL001",
                    severity=Severity.ERROR,
                    path=record.path,
                    line=pragma.line,
                    col=0,
                    message=f"suppression without a reason: {pragma.raw!r}",
                    hint="append ' -- <why this is safe>' to the pragma",
                ))
            for rule_id in pragma.rules:
                if rule_id != "ALL" and rule_id not in REGISTRY:
                    result.violations.append(Violation(
                        rule="NL002",
                        severity=Severity.ERROR,
                        path=record.path,
                        line=pragma.line,
                        col=0,
                        message=f"pragma names unknown rule {rule_id}",
                        hint="see `lttng-noise check --list-rules`",
                    ))
            if (pragma.reason and not pragma.used
                    and selected is None and not ignored):
                # With a restricted rule set, "unused" is meaningless —
                # the suppressed rule may simply not have run.
                result.violations.append(Violation(
                    rule="NL003",
                    severity=Severity.WARNING,
                    path=record.path,
                    line=pragma.line,
                    col=0,
                    message=(
                        "stale suppression: pragma matched no violation "
                        f"({', '.join(pragma.rules)})"
                    ),
                    hint="delete the pragma; the code is clean without it",
                ))

    result.violations.sort(key=lambda v: (v.path, v.line, v.rule))
    result.suppressed.sort(key=lambda v: (v.path, v.line, v.rule))
    return result

