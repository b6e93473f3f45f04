"""Incremental + parallel front-end for noiselint.

Whole-project analysis (call graph, CON/ASY packs) made linting
super-linear in repo size, so the per-file phase — parsing, per-file
rules, fact extraction; ~95% of a cold run's wall time — no longer
reruns for files that have not changed:

* every file's :class:`~repro.check.framework.FileRecord` is cached in
  a :class:`LintStore` (the :class:`~repro.exec.store.ShardedBlobStore`
  machinery from the run cache: hash-prefix shards, atomic writes,
  LRU budget);
* a record is a pure function of one file's path and text plus the
  linter's own sources, so the cache key hashes exactly those three:
  editing a module re-analyzes that module alone, and editing a rule
  or the extractor (any ``repro/check/*.py``) invalidates everything;
* cold misses can be farmed out to worker processes (``--jobs N``);
  records are merged back in path order, so parallel output is
  byte-identical to serial.

The project phase (rule selection, call-graph and vocabulary linking,
CON/ASY/SCH packs, suppression) is cheap and always runs fresh over
every record, so facts that cross files never come from a stale link.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.check.engine import (
    CheckResult,
    discover_files,
    run_project,
)
from repro.check.framework import FileRecord, SourceFile
from repro.exec.store import ShardedBlobStore, default_cache_dir

#: Default size budget for the lint cache: ~an order of magnitude more
#: than one full repo state, so switching branches stays warm.
DEFAULT_LINT_CACHE_BYTES = 64 * 1024 * 1024


class LintStore(ShardedBlobStore):
    """Sharded cache of serialized FileRecords."""

    suffixes = (".lint.json",)

    def get_record(self, key: str) -> Optional[Dict[str, object]]:
        paths = self.locate(key)
        if paths is None:
            self._count_miss()
            return None
        try:
            with open(paths[0], encoding="utf-8") as fp:
                data = json.load(fp)
        except (OSError, ValueError):
            self.evict_token(key)
            self._count_miss()
            return None
        self._count_hit()
        self._touch(paths[0])
        return data if isinstance(data, dict) else None

    def put_record(self, key: str, record: Dict[str, object]) -> None:
        path = self.token_paths(key)[0]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self._write_atomic(
            path, json.dumps(record, sort_keys=True).encode("utf-8")
        )
        if self.max_bytes is not None:
            self._enforce_budget(keep=key)


def default_lint_cache_dir() -> str:
    return os.path.join(default_cache_dir(), "lint")


_rules_fingerprint: Optional[str] = None


def rules_fingerprint() -> str:
    """Hash of the linter's own sources: edit a rule, lose the cache."""
    global _rules_fingerprint
    if _rules_fingerprint is None:
        digest = hashlib.sha256()
        pkg_dir = os.path.dirname(__file__)
        for name in sorted(os.listdir(pkg_dir)):
            if not name.endswith(".py"):
                continue
            digest.update(name.encode("utf-8"))
            with open(os.path.join(pkg_dir, name), "rb") as fp:
                digest.update(fp.read())
        _rules_fingerprint = digest.hexdigest()
    return _rules_fingerprint


def cache_key(path: str, text: str) -> str:
    """A record's key: the linter's own sources, the path, the text."""
    digest = hashlib.sha256()
    digest.update(rules_fingerprint().encode("utf-8"))
    digest.update(b"\0")
    digest.update(path.encode("utf-8"))
    digest.update(b"\0")
    digest.update(hashlib.sha256(text.encode("utf-8")).digest())
    return digest.hexdigest()


def _analyze_text(args: Tuple[str, str]) -> Dict[str, object]:
    """Worker: per-file phase for one (path, text); returns a dict so
    the result crosses the process boundary as plain data."""
    from repro.check.engine import analyze_source

    path, text = args
    return analyze_source(SourceFile(path, text)).to_dict()


def lint_paths(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    *,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
) -> CheckResult:
    """noiselint's one entry point: cached, optionally parallel.

    ``jobs=None`` or ``1`` analyzes serially in-process; ``jobs=N``
    fans cold files out to N worker processes; ``jobs=0`` means one
    per CPU.  Output is identical in all cases.
    """
    file_list = discover_files(paths)
    texts: Dict[str, str] = {}
    for path in file_list:
        with open(path, encoding="utf-8") as fp:
            texts[path] = fp.read()

    store: Optional[LintStore] = None
    if not no_cache:
        store = LintStore(
            cache_dir or default_lint_cache_dir(),
            max_bytes=DEFAULT_LINT_CACHE_BYTES,
        )

    records: Dict[str, FileRecord] = {}
    cold: List[Tuple[str, str]] = []
    for path, text in texts.items():
        data = (
            store.get_record(cache_key(path, text))
            if store is not None else None
        )
        if data is not None:
            records[path] = FileRecord.from_dict(data)
        else:
            cold.append((path, text))

    for (path, text), record in zip(cold, _analyze_cold(cold, jobs)):
        records[path] = record
        if store is not None:
            store.put_record(cache_key(path, text), record.to_dict())

    ordered = [records[path] for path in file_list]
    result = run_project(ordered, select=select, ignore=ignore)
    result.files_reused = len(file_list) - len(cold)
    result.files_analyzed = len(cold)
    return result


def _analyze_cold(
    cold: Sequence[Tuple[str, str]], jobs: Optional[int]
) -> List[FileRecord]:
    """Run the per-file phase over cold files, maybe in parallel."""
    from repro.check.engine import analyze_source

    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs is None or jobs <= 1 or len(cold) < 2:
        return [
            analyze_source(SourceFile(path, text)) for path, text in cold
        ]
    from concurrent.futures import ProcessPoolExecutor

    workers = min(jobs, len(cold))
    chunk = max(1, len(cold) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        dicts = list(pool.map(_analyze_text, cold, chunksize=chunk))
    return [FileRecord.from_dict(d) for d in dicts]
