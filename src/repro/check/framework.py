"""Core types of the noiselint framework.

A *rule* inspects one parsed source file (or, for :class:`ProjectRule`, the
whole file set at once) and yields :class:`Violation` instances.  Rules are
registered into a module-level :data:`REGISTRY` by the rule packs at import
time; the engine drives every registered rule whose :meth:`Rule.applies_to`
accepts the file.

Suppression follows the kernel-checker convention of *justified* pragmas —
a suppression without a stated reason is itself a violation::

    frobnicate(time.time())  # noiselint: disable=DET001 -- host wall clock feeds obs only

``disable=all`` suppresses every rule on the line.  A file-level pragma
(``# noiselint: disable-file=RULE -- reason``) on one of the first lines of
the module suppresses a rule for the whole file.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from enum import IntEnum
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)


class Severity(IntEnum):
    """How bad a violation is.  INFO never fails a check run."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Violation:
    """One finding: rule id, location, message and a concrete fix hint."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def key(self) -> Tuple[str, int, str]:
        return (self.path, self.line, self.rule)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": int(self.severity),
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Violation":
        return cls(
            rule=data["rule"],
            severity=Severity(data["severity"]),
            path=data["path"],
            line=data["line"],
            col=data["col"],
            message=data["message"],
            hint=data.get("hint", ""),
        )


#: Pragmas must be real comments (docstrings don't count) and must start
#: the comment, e.g. ``x = f()  # noiselint: disable=DET001 -- reason``.
_PRAGMA_RE = re.compile(
    r"^#\s*noiselint:\s*(?P<kind>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\s]+?)"
    r"(?:\s*--\s*(?P<reason>.*))?$"
)

#: ``# noiselint-fixture: repro/simkernel/fake.py`` — lets test fixtures
#: outside the package tree claim a virtual module path for scope matching.
_FIXTURE_RE = re.compile(r"^#\s*noiselint-fixture:\s*(?P<modpath>\S+)")

#: How many leading lines may carry a ``disable-file`` pragma.
_FILE_PRAGMA_WINDOW = 5


@dataclass
class Pragma:
    """One parsed suppression comment."""

    line: int
    kind: str                      # "disable" | "disable-file"
    rules: Tuple[str, ...]         # upper-cased ids, or ("ALL",)
    reason: str
    raw: str
    used: bool = False

    def to_dict(self) -> Dict[str, Any]:
        # `used` is per-run state, not a property of the source file
        return {
            "line": self.line,
            "kind": self.kind,
            "rules": list(self.rules),
            "reason": self.reason,
            "raw": self.raw,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Pragma":
        return cls(
            line=data["line"],
            kind=data["kind"],
            rules=tuple(data["rules"]),
            reason=data["reason"],
            raw=data["raw"],
        )


class SourceFile:
    """A parsed source file plus everything rules need to inspect it."""

    def __init__(self, path: str, text: str, modpath: Optional[str] = None):
        self.path = path
        self.text = text
        self.lines: List[str] = text.splitlines()
        #: Package-relative path like ``repro/simkernel/engine.py`` used for
        #: rule scoping; falls back to the plain path outside the package.
        self.modpath = modpath if modpath is not None else _modpath(path)
        self.tree: Optional[ast.AST] = None
        self.parse_error: Optional[SyntaxError] = None
        self.pragmas: List[Pragma] = []
        try:
            self.tree = ast.parse(text, filename=path)
        except SyntaxError as exc:
            self.parse_error = exc
        self._scan_pragmas()

    # ------------------------------------------------------------------
    def _scan_pragmas(self) -> None:
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(self.text).readline)
            )
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            comment = tok.string
            lineno = tok.start[0]
            fixture = _FIXTURE_RE.match(comment)
            if fixture and lineno <= _FILE_PRAGMA_WINDOW:
                self.modpath = fixture.group("modpath")
                continue
            match = _PRAGMA_RE.match(comment)
            if match is None:
                continue
            rules = tuple(
                part.strip().upper()
                for part in match.group("rules").split(",")
                if part.strip()
            )
            self.pragmas.append(
                Pragma(
                    line=lineno,
                    kind=match.group("kind"),
                    rules=rules,
                    reason=(match.group("reason") or "").strip(),
                    raw=comment.strip(),
                )
            )

    # ------------------------------------------------------------------
    def suppresses(self, violation: Violation) -> Optional[Pragma]:
        """The pragma suppressing ``violation``, if any (marks it used)."""
        return find_suppression(self.pragmas, violation)

    def walk(self) -> Iterator[ast.AST]:
        if self.tree is None:
            return iter(())
        return ast.walk(self.tree)


def find_suppression(
    pragmas: Iterable[Pragma], violation: Violation
) -> Optional[Pragma]:
    """The pragma suppressing ``violation``, if any (marks it used)."""
    for pragma in pragmas:
        if not pragma.reason:
            continue  # bare pragmas never suppress; NL001 flags them
        hit = (
            pragma.kind == "disable" and pragma.line == violation.line
        ) or (
            pragma.kind == "disable-file"
            and pragma.line <= _FILE_PRAGMA_WINDOW
        )
        if hit and (
            "ALL" in pragma.rules or violation.rule in pragma.rules
        ):
            pragma.used = True
            return pragma
    return None


def _modpath(path: str) -> str:
    """Path relative to the innermost ``repro`` package root, if any."""
    parts = path.replace("\\", "/").split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return "/".join(parts)


# ----------------------------------------------------------------------
# Per-file analysis records and fact extractors
# ----------------------------------------------------------------------

#: Named extractors run once per file during the per-file phase; their
#: output lands in ``FileRecord.facts[name]`` and must be plain JSON data
#: (the incremental cache serializes records wholesale).  Project rules
#: consume facts instead of re-parsing sources — that is what makes warm
#: runs cheap.
FACT_EXTRACTORS: Dict[str, Callable[[SourceFile], Dict[str, Any]]] = {}


def fact_extractor(
    name: str,
) -> Callable[[Callable[[SourceFile], Dict[str, Any]]],
              Callable[[SourceFile], Dict[str, Any]]]:
    """Register a per-file fact extractor under ``name``."""

    def register(
        fn: Callable[[SourceFile], Dict[str, Any]]
    ) -> Callable[[SourceFile], Dict[str, Any]]:
        if name in FACT_EXTRACTORS:
            raise ValueError(f"duplicate fact extractor {name}")
        FACT_EXTRACTORS[name] = fn
        return fn

    return register


@dataclass
class FileRecord:
    """Everything the project phase needs to know about one file.

    Records are the unit of caching: serializable, independent of the
    ``--select``/``--ignore`` filters (those apply later), and carrying
    both the per-file rule verdicts and the extracted facts."""

    path: str
    modpath: str
    sha: str = ""
    parse_error: Optional[Dict[str, Any]] = None  # {line, col, msg}
    pragmas: List[Pragma] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    facts: Dict[str, Any] = field(default_factory=dict)
    #: intra-project modpaths this file imports (for cache invalidation)
    imports: List[str] = field(default_factory=list)

    def suppresses(self, violation: Violation) -> Optional[Pragma]:
        return find_suppression(self.pragmas, violation)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "modpath": self.modpath,
            "sha": self.sha,
            "parse_error": self.parse_error,
            "pragmas": [p.to_dict() for p in self.pragmas],
            "violations": [v.to_dict() for v in self.violations],
            "facts": self.facts,
            "imports": list(self.imports),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FileRecord":
        return cls(
            path=data["path"],
            modpath=data["modpath"],
            sha=data.get("sha", ""),
            parse_error=data.get("parse_error"),
            pragmas=[Pragma.from_dict(p) for p in data.get("pragmas", [])],
            violations=[
                Violation.from_dict(v) for v in data.get("violations", [])
            ],
            facts=data.get("facts", {}),
            imports=list(data.get("imports", [])),
        )


# ----------------------------------------------------------------------
# Rules and the registry
# ----------------------------------------------------------------------

class Rule:
    """A per-file check.  Subclasses set the class attributes and implement
    :meth:`check`; ``scope`` is a tuple of modpath prefixes the rule applies
    to (empty = every file)."""

    id: str = ""
    name: str = ""
    severity: Severity = Severity.ERROR
    hint: str = ""
    #: modpath prefixes, e.g. ``("repro/simkernel/", "repro/core/")``.
    scope: Tuple[str, ...] = ()
    #: modpaths never checked by this rule (takes precedence over scope).
    exclude: Tuple[str, ...] = ()
    #: one-line contract statement for ``--list-rules`` and the docs.
    rationale: str = ""

    def applies_to(self, src: SourceFile) -> bool:
        if any(src.modpath.startswith(e) or src.modpath == e
               for e in self.exclude):
            return False
        if not self.scope:
            return True
        return any(src.modpath.startswith(s) for s in self.scope)

    def check(self, src: SourceFile) -> Iterable[Violation]:
        raise NotImplementedError

    def violation(
        self,
        src: SourceFile,
        node: ast.AST,
        message: str,
        hint: Optional[str] = None,
        severity: Optional[Severity] = None,
    ) -> Violation:
        return self.violation_at(
            src.path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            message,
            hint=hint,
            severity=severity,
        )

    def violation_at(
        self,
        path: str,
        line: int,
        col: int,
        message: str,
        hint: Optional[str] = None,
        severity: Optional[Severity] = None,
    ) -> Violation:
        """Build a violation from a plain location (fact-based rules)."""
        return Violation(
            rule=self.id,
            severity=self.severity if severity is None else severity,
            path=path,
            line=line,
            col=col,
            message=message,
            hint=self.hint if hint is None else hint,
        )


class ProjectRule(Rule):
    """A whole-project check (cross-file consistency).

    ``check_records`` receives a project context over every scanned
    file's :class:`FileRecord` (``ctx.records``, plus memoized views such
    as ``ctx.graph`` and ``ctx.vocab`` — see ``engine.ProjectContext``).
    Project rules consume extracted facts only; they run fresh on every
    check while the per-file phase behind the facts is cached."""

    def check(self, src: SourceFile) -> Iterable[Violation]:
        return ()

    def check_records(self, ctx: Any) -> Iterable[Violation]:
        raise NotImplementedError


@dataclass
class Registry:
    """All registered rules, keyed by id."""

    rules: Dict[str, Rule] = field(default_factory=dict)

    def register(self, cls: type) -> type:
        rule = cls()
        if not rule.id:
            raise ValueError(f"rule {cls.__name__} has no id")
        if rule.id in self.rules:
            raise ValueError(f"duplicate rule id {rule.id}")
        self.rules[rule.id] = rule
        return cls

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules.values())

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self.rules

    def get(self, rule_id: str) -> Optional[Rule]:
        return self.rules.get(rule_id)


REGISTRY = Registry()


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id (stable for docs and tests)."""
    return sorted(REGISTRY, key=lambda r: r.id)


# ----------------------------------------------------------------------
# Small AST helpers shared by the rule packs
# ----------------------------------------------------------------------

def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, else an empty string."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def call_name(node: ast.Call) -> str:
    """Dotted name of a call's callee (empty for computed callees)."""
    return dotted_name(node.func)
