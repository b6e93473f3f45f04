"""Run-execution layer: planner, dispatch backends, sharded result store.

Independent seeded runs dominate the repo's wall time (sweeps, the Sequoia
case study, scalability extrapolations).  This package makes them cheap
and — at campaign scale — interruptible (see
``docs/sweep-orchestration.md``):

* :class:`RunSpec` — a hashable, serializable description of one run;
* :class:`SweepPlan` / :class:`Journal` — dedup specs into deterministic
  content-hash-ordered shards; :meth:`SweepPlan.execute` is the one path
  every batch of specs takes (store lookups, dispatch, fan-in, one stats
  record), journaling per-spec state when the plan has a directory so an
  interrupted campaign resumes without rework;
* :class:`DispatchBackend` — where specs execute:
  :class:`LocalPoolBackend` process fan-out, :class:`SerialBackend`
  in-process, :class:`FlakyBackend` fault injection for tests; worker
  death is retried with backoff, then degraded to bit-identical serial
  execution;
* :class:`ShardedStore` — hash-prefix-sharded on-disk (trace, meta) store
  keyed by a content hash of the spec + package version, with size
  budgets and mtime-LRU eviction.
"""

from repro.exec.backend import (
    BackendFailure,
    DispatchBackend,
    FlakyBackend,
    LocalPoolBackend,
    SerialBackend,
    dispatch_with_retry,
    execute_spec_serialized,
    execute_spec_streaming,
)
from repro.exec.journal import Journal
from repro.exec.plan import PlanShard, RunResult, SweepPlan
from repro.exec.spec import RunSpec, register_workload, resolve_factory
from repro.exec.store import (
    CACHE_ENV,
    ShardedStore,
    StoreEntry,
    default_cache_dir,
)

__all__ = [
    "BackendFailure",
    "CACHE_ENV",
    "DispatchBackend",
    "FlakyBackend",
    "Journal",
    "LocalPoolBackend",
    "PlanShard",
    "RunResult",
    "RunSpec",
    "SerialBackend",
    "ShardedStore",
    "StoreEntry",
    "SweepPlan",
    "default_cache_dir",
    "dispatch_with_retry",
    "execute_spec_serialized",
    "execute_spec_streaming",
    "register_workload",
    "resolve_factory",
]
