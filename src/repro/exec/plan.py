"""Sweep planning: expand thousands of runs into shards that survive ^C.

A noise study at the paper's scale is not eight seeds on one box — it is
thousands of (config x seed x app) runs that take hours and *will* be
interrupted.  :class:`SweepPlan` turns a flat list of
:class:`~repro.exec.spec.RunSpec`\\ s into a campaign that can be killed
at any instant and resumed without rework:

* **dedup** — identical specs collapse to one planned run (fan-in gives
  every requesting position the shared result);
* **deterministic content-hash shards** — each unique spec is assigned to
  shard ``int(token[:8], 16) % shards`` and ordered by token within its
  shard, so the execution order is a pure function of the spec set (not
  of submission order, host, or dict iteration) and lines up with the
  :class:`~repro.exec.store.ShardedStore`'s hash-prefix layout;
* **journal** — per-spec state transitions land in a JSON-lines
  :class:`~repro.exec.journal.Journal` next to the plan, so a resumed
  invocation knows exactly what completed;
* **resume** — re-running the same plan re-dispatches only what the
  journal does not show ``done``; completed work is served from the
  result store as cache hits, making the re-run's reuse ratio the
  interruption-survival metric CI gates on.

:meth:`SweepPlan.execute` is the only way a batch of specs executes: an
unplanned sweep is a one-shard plan without a directory, which journals
nothing and writes no file.  The plan persists as ``plan.json`` +
``journal.jsonl`` in a directory of the caller's choice
(``lttng-noise sweep --plan DIR``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

import repro
from repro import obs
from repro.exec.backend import DispatchBackend, dispatch_with_retry
from repro.exec.journal import Journal
from repro.exec.spec import RunSpec
from repro.exec.store import ShardedStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.analysis import NoiseAnalysis
    from repro.core.model import TraceMeta
    from repro.tracing.ctf import Trace

PLAN_FILENAME = "plan.json"
JOURNAL_FILENAME = "journal.jsonl"
PLAN_FORMAT = 1

#: progress callback: (done, total, spec, cached, elapsed_seconds), with
#: done/total counting unique specs plan-wide.
PlanProgressFn = Callable[[int, int, RunSpec, bool, float], None]


@dataclass
class RunResult:
    """One completed run: the spec plus its trace, meta and provenance."""

    spec: RunSpec
    trace: "Trace"
    meta: "TraceMeta"
    cached: bool
    elapsed_s: float

    def analysis(self) -> "NoiseAnalysis":
        from repro.core.analysis import NoiseAnalysis

        return NoiseAnalysis(self.trace, meta=self.meta)


@dataclass(frozen=True)
class PlanShard:
    """One shard: its index and its token-ordered specs."""

    index: int
    specs: Tuple[RunSpec, ...]
    tokens: Tuple[str, ...]


class SweepPlan:
    """A deduplicated, sharded, journaled batch of RunSpecs."""

    def __init__(
        self,
        specs: Sequence[RunSpec],
        *,
        shards: int = 1,
        version: Optional[str] = None,
        plan_dir: Optional[str] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if not specs:
            raise ValueError("a sweep plan needs at least one spec")
        self.version = version or repro.__version__
        self.nshards = shards
        self.plan_dir = plan_dir
        # Dedup preserving first-occurrence order: the fan-in order.
        seen: Dict[RunSpec, None] = {}
        for spec in specs:
            seen.setdefault(spec)
        self.specs: Tuple[RunSpec, ...] = tuple(seen)
        self.duplicates = len(specs) - len(self.specs)
        self._tokens: Dict[RunSpec, str] = {
            spec: spec.cache_token(self.version) for spec in self.specs
        }
        self.shards: Tuple[PlanShard, ...] = self._build_shards()
        #: What the last :meth:`execute` did; empty until one finishes.
        self.last_stats: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Construction details
    # ------------------------------------------------------------------
    def shard_index(self, token: str) -> int:
        """Content-defined shard assignment, stable across runs/hosts."""
        return int(token[:8], 16) % self.nshards

    def _build_shards(self) -> Tuple[PlanShard, ...]:
        buckets: List[List[Tuple[str, RunSpec]]] = [
            [] for _ in range(self.nshards)
        ]
        for spec, token in self._tokens.items():
            buckets[self.shard_index(token)].append((token, spec))
        shards = []
        for index, bucket in enumerate(buckets):
            bucket.sort(key=lambda pair: pair[0])
            shards.append(PlanShard(
                index=index,
                specs=tuple(spec for _, spec in bucket),
                tokens=tuple(token for token, _ in bucket),
            ))
        return tuple(shards)

    @property
    def tokens(self) -> Tuple[str, ...]:
        """Every planned token, in fan-in (first-occurrence) order."""
        return tuple(self._tokens[spec] for spec in self.specs)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": PLAN_FORMAT,
            "version": self.version,
            "shards": self.nshards,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    def save(self, plan_dir: Optional[str] = None) -> str:
        """Write ``plan.json`` under the plan directory; returns its path."""
        directory = plan_dir or self.plan_dir
        if directory is None:
            raise ValueError("no plan directory given")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, PLAN_FILENAME)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fp:
            json.dump(self.to_dict(), fp, indent=2, sort_keys=True)
            fp.write("\n")
        os.replace(tmp, path)
        self.plan_dir = directory
        return path

    @classmethod
    def load(cls, plan_dir: str) -> "SweepPlan":
        path = os.path.join(plan_dir, PLAN_FILENAME)
        with open(path, "r", encoding="utf-8") as fp:
            data = json.load(fp)
        if data.get("format") != PLAN_FORMAT:
            raise ValueError(
                f"{path}: unsupported plan format {data.get('format')!r}"
            )
        specs = [RunSpec.from_dict(d) for d in data.get("specs", [])]
        return cls(
            specs,
            shards=int(data.get("shards", 1)),
            version=str(data.get("version", "")) or None,
            plan_dir=plan_dir,
        )

    @staticmethod
    def exists(plan_dir: str) -> bool:
        return os.path.exists(os.path.join(plan_dir, PLAN_FILENAME))

    def matches(self, specs: Sequence[RunSpec]) -> bool:
        """True when ``specs`` dedups to exactly this plan's spec set."""
        seen: Dict[RunSpec, None] = {}
        for spec in specs:
            seen.setdefault(spec)
        return set(seen) == set(self.specs)

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def journal(self) -> Journal:
        if self.plan_dir is None:
            raise ValueError("plan has no directory; save() it first")
        return Journal(os.path.join(self.plan_dir, JOURNAL_FILENAME))

    def states(self) -> Dict[str, str]:
        """Last journaled state per planned token (pending if unseen)."""
        recorded = self.journal().replay() if self.plan_dir else {}
        return {
            token: recorded.get(token, "pending") for token in self.tokens
        }

    def verify_journal(self) -> List[str]:
        """Consistency issues between the journal and the plan (CI gate)."""
        issues = []
        planned = set(self.tokens)
        recorded = self.journal().replay()
        for token in recorded:
            if token not in planned:
                issues.append(f"journaled token not in plan: {token[:12]}")
        for token, state in self.states().items():
            if state == "running":
                issues.append(f"token left running: {token[:12]}")
        return issues

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        backend: DispatchBackend,
        store: Optional[ShardedStore] = None,
        progress: Optional[PlanProgressFn] = None,
    ) -> List[RunResult]:
        """Run the plan shard by shard; results in fan-in (spec) order.

        Each unique spec costs one ``store.get``; a shard's misses go to
        the backend through :func:`dispatch_with_retry` (worker death is
        retried, then degraded to serial) and every result is put back.
        A resumed campaign's ``done`` work is served from the store as
        cache hits, which is what makes it resume without rework.  With a
        plan directory, transitions are journaled per spec; on an
        ordinary exception unfinished specs are marked ``failed``, on
        KeyboardInterrupt they stay ``running`` so a later ``--resume``
        retries them.  :attr:`last_stats` records what the call did.
        """
        wall0 = time.perf_counter()
        self.last_stats = {}
        journal = self.journal() if self.plan_dir is not None else None
        prior = journal.replay() if journal is not None else {}
        total = len(self.specs)
        if obs.enabled():
            already_done = sum(
                1 for token in self.tokens if prior.get(token) == "done"
            )
            obs.counter("plan.specs").inc(total)
            obs.counter("plan.duplicates").inc(self.duplicates)
            obs.counter("plan.resumed_done").inc(already_done)
            obs.gauge("plan.shards").set(self.nshards)
            obs.gauge("plan.total").set(total)
            obs.gauge("plan.done").set(already_done)
        by_spec: Dict[RunSpec, RunResult] = {}
        simulated = 0
        busy_s = 0.0
        used_processes = False

        # A re-run of a campaign the journal has all done changes no
        # state: its store hits are not journaled again.  A resumed
        # campaign does journal the done specs it reuses (`obs tail`
        # counts them as cached).
        finished = all(prior.get(token) == "done" for token in self.tokens)

        def finish(result: RunResult) -> None:
            by_spec[result.spec] = result
            token = self._tokens[result.spec]
            if journal is not None and not (finished and result.cached):
                journal.record(
                    token, "done",
                    cached=result.cached,
                    elapsed_s=round(result.elapsed_s, 6),
                )
            if obs.enabled():
                obs.gauge("plan.done").set(len(by_spec))
            if progress is not None:
                progress(len(by_spec), total, result.spec, result.cached,
                         result.elapsed_s)

        started: List[RunSpec] = []
        try:
            for shard in self.shards:
                if not shard.specs:
                    continue
                started = [
                    spec for spec in shard.specs
                    if prior.get(self._tokens[spec]) != "done"
                ]
                if journal is not None:
                    for spec in started:
                        journal.record(self._tokens[spec], "running",
                                       shard=shard.index)
                with obs.span("shard", index=shard.index,
                              specs=len(shard.specs)):
                    misses: List[RunSpec] = []
                    for spec in shard.specs:
                        hit = store.get(spec) if store is not None else None
                        if hit is None:
                            misses.append(spec)
                        else:
                            finish(RunResult(spec, hit[0], hit[1], True, 0.0))
                    simulated += len(misses)
                    for spec, trace, meta, elapsed in dispatch_with_retry(
                        backend, misses
                    ):
                        used_processes |= backend.used_processes
                        if store is not None:
                            store.put(spec, trace, meta)
                        busy_s += elapsed
                        finish(RunResult(spec, trace, meta, False, elapsed))
        except Exception as exc:
            # KeyboardInterrupt is not caught: interrupted specs keep
            # `running`, so --resume retries exactly these.
            if journal is not None:
                for spec in started:
                    if spec not in by_spec:
                        journal.record(self._tokens[spec], "failed",
                                       error=str(exc)[:200])
            raise
        finally:
            if journal is not None:
                journal.close()
        missing = [s for s in self.specs if s not in by_spec]
        if missing:
            raise RuntimeError(
                f"plan execution lost {len(missing)} specs "
                f"(first: {missing[0].describe()})"
            )
        wall_s = time.perf_counter() - wall0
        workers = (
            min(backend.max_workers, max(1, simulated))
            if used_processes else 1
        )
        self.last_stats = {
            "runs": total,
            "cached": total - simulated,
            "simulated": simulated,
            "duplicates": self.duplicates,
            "shards": self.nshards,
            "wall_s": round(wall_s, 6),
            "busy_s": round(busy_s, 6),
            "workers": workers,
            "backend": backend.describe(),
            "used_processes": used_processes,
        }
        if obs.enabled():
            obs.counter("runner.runs").inc(total)
            obs.counter("runner.cached").inc(total - simulated)
            obs.counter("runner.simulated").inc(simulated)
            obs.gauge("runner.workers").set(workers)
            if wall_s > 0 and simulated:
                obs.gauge("runner.worker_utilization").set(
                    min(1.0, busy_s / (wall_s * workers))
                )
        return [by_spec[spec] for spec in self.specs]

    # ------------------------------------------------------------------
    def describe(self) -> str:
        occupied = sum(1 for shard in self.shards if shard.specs)
        dups = f", {self.duplicates} duplicates" if self.duplicates else ""
        return (
            f"plan: {len(self.specs)} unique specs in {occupied}/"
            f"{self.nshards} shards{dups} (version {self.version})"
        )

