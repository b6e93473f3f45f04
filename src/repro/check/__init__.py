"""noiselint: repo-contract static analysis for the lttng-noise reproduction.

The paper's methodology rests on invariants the type system cannot see:
simulations must be bit-deterministic, ``*_ns`` arithmetic must stay in
exact int64, the columnar hot paths must stay columnar, and the trace
vocabulary must stay consistent across the tracer, the classifier and the
docs.  This package enforces those contracts mechanically, the way sparse
and coccinelle semantic patches guard the kernel's own invariants.

It is dependency-free (stdlib ``ast`` + ``tokenize`` only) and exposed as
``lttng-noise check`` and ``make check``.

Layout:

* :mod:`repro.check.framework` — rule registry, violations, suppression
  pragmas (``# noiselint: disable=RULE -- reason``), source-file model;
* :mod:`repro.check.engine` — file discovery, rule driving, pragma
  accounting (bare/unknown/unused pragmas are themselves violations);
* :mod:`repro.check.report` — text and JSON reporters;
* :mod:`repro.check.determinism` — DET rules: no wall clock, no global
  RNG, no unordered-set iteration in deterministic code;
* :mod:`repro.check.ns_exact` — NSX rules: float arithmetic must not
  contaminate ``*_ns`` values or ActivityTable time columns;
* :mod:`repro.check.hotloop` — HOT rules: no per-row Python loops over
  columnar tables, no obs calls inside ``# hot`` loops;
* :mod:`repro.check.schema` — SCH rules: cross-file trace-vocabulary
  consistency (events.py vs. emit sites vs. classify's category LUT);
* :mod:`repro.check.callgraph` — per-file function summaries linked
  into a project call graph (contexts, locks, blocking, roots);
* :mod:`repro.check.concurrency` — CON rules: unlocked shared state,
  bare acquire/release, AB/BA lock order, signal/atexit reentrancy;
* :mod:`repro.check.asyncrules` — ASY rules: blocking calls on the
  event loop, un-awaited coroutines, loop-confinement violations;
* :mod:`repro.check.incremental` — the one entry point
  (:func:`~repro.check.incremental.lint_paths`): per-file content-hash
  cache + ``--jobs`` parallel front-end.
"""

from __future__ import annotations

from repro.check.engine import CheckResult
from repro.check.framework import (
    REGISTRY,
    ProjectRule,
    Rule,
    Severity,
    SourceFile,
    Violation,
    all_rules,
)
from repro.check.report import render_json, render_text

# Importing the rule packs registers their rules.
from repro.check import asyncrules as _asyncrules  # noqa: F401
from repro.check import concurrency as _concurrency  # noqa: F401
from repro.check import determinism as _determinism  # noqa: F401
from repro.check import hotloop as _hotloop  # noqa: F401
from repro.check import ns_exact as _ns_exact  # noqa: F401
from repro.check import schema as _schema  # noqa: F401

__all__ = [
    "CheckResult",
    "ProjectRule",
    "REGISTRY",
    "Rule",
    "Severity",
    "SourceFile",
    "Violation",
    "all_rules",
    "render_json",
    "render_text",
]
