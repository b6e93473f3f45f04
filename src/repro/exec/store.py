"""Sharded on-disk blob stores keyed by content hashes.

Generalizes the flat result-cache directory into a store that scales to
10k-run sweep campaigns:

* **content-hash-prefix sharding** — every entry lives under a
  subdirectory named by the first :data:`SHARD_PREFIX_LEN` hex digits
  of its token, so one campaign never piles tens of thousands of files
  into a single directory (and a remote/object-store backend can map
  shards to buckets later);
* **size budgets with mtime-LRU eviction** — ``max_bytes`` caps the
  store's footprint; when a put pushes it over, the least-recently-used
  entries (oldest mtime; hits refresh it) are evicted until under budget;
* **durable atomic writes** — data is fsynced in a temp file, published
  with ``os.replace``, and the shard directory is fsynced, so neither a
  crashed run nor a crashed *machine* leaves a half-written entry that a
  resumed sweep would trust.

The generic machinery lives in :class:`ShardedBlobStore` (tokens,
shards, atomic writes, enumeration, the LRU budget, and thread-safe
hit/miss/eviction counters — instances are shared across the service's
pool workers, so the counters take a lock).  :class:`ShardedStore`
specializes it to simulation results; ``repro.check.incremental`` reuses
the same base for its lint-record cache.

Each simulation entry is three files named by the spec's
:meth:`~repro.exec.spec.RunSpec.cache_token`::

    <shard>/<token>.lttnz      the binary trace (compressed packets)
    <shard>/<token>.meta.json  the TraceMeta sidecar
    <shard>/<token>.spec.json  the spec itself, for debugging/inspection

The token mixes in the package version, so upgrading the simulator
invalidates every stale entry without any cleanup pass.  Only shard
directories hold entries: a file directly under the root is never read,
so a run stored there is a miss and is simulated again.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

import repro
from repro import obs
from repro.exec.spec import RunSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.model import TraceMeta
    from repro.tracing.ctf import Trace

#: Environment override for the default cache location.
CACHE_ENV = "LTTNG_NOISE_CACHE"

#: The three files that make up one stored run, in `_paths` order.
_SUFFIXES = (".lttnz", ".meta.json", ".spec.json")

#: Hex digits of a token that name its shard directory (256 shards).
SHARD_PREFIX_LEN = 2


def default_cache_dir() -> str:
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "lttng-noise")


@dataclass(frozen=True)
class StoreEntry:
    """One stored entry: its token, on-disk size and recency."""

    token: str
    nbytes: int
    mtime_ns: int
    paths: Tuple[str, ...]


class ShardedBlobStore:
    """Hash-prefix-sharded directory of multi-file entries.

    Subclasses set ``suffixes`` (the files one entry consists of, first
    one defining what gets counted by :meth:`clear`) and, when only a
    prefix of them is needed for an entry to be servable,
    ``required_suffixes``.
    """

    #: The files making up one entry, in :meth:`token_paths` order.
    suffixes: Tuple[str, ...] = (".blob",)
    #: The subset without which an entry is incomplete (default: all).
    required_suffixes: Optional[Tuple[str, ...]] = None

    def __init__(
        self,
        root: str,
        *,
        max_bytes: Optional[int] = None,
        durable: bool = False,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.root = root
        self.max_bytes = max_bytes
        self.durable = durable
        self.hits = 0
        self.misses = 0
        self.evicted_lru = 0
        #: One store instance serves every pool worker; the counters
        #: above are only ever mutated under this lock.
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Stats (thread-safe: instances are shared across pool workers)
    # ------------------------------------------------------------------
    def _count_hit(self) -> None:
        with self._stats_lock:
            self.hits += 1

    def _count_miss(self) -> None:
        with self._stats_lock:
            self.misses += 1

    def _count_evicted(self, n: int) -> None:
        with self._stats_lock:
            self.evicted_lru += n

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def shard_of(self, token: str) -> str:
        """Shard directory name for a token (its hex-digest prefix)."""
        return token[:SHARD_PREFIX_LEN]

    def token_paths(self, token: str) -> Tuple[str, ...]:
        shard = os.path.join(self.root, self.shard_of(token))
        return tuple(
            os.path.join(shard, token + suffix) for suffix in self.suffixes
        )

    def _required(self) -> Tuple[str, ...]:
        return self.required_suffixes or self.suffixes

    def locate(self, token: str) -> Optional[Tuple[str, ...]]:
        """Paths of an existing entry, or None."""
        paths = self.token_paths(token)
        if all(os.path.exists(p) for p in paths[: len(self._required())]):
            return paths
        return None

    # ------------------------------------------------------------------
    # Durable writes
    # ------------------------------------------------------------------
    def _write_atomic(self, path: str, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fp:
                fp.write(data)
                if self.durable:
                    fp.flush()
                    os.fsync(fp.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @staticmethod
    def _fsync_dir(path: str) -> None:
        """Make a rename durable; best-effort where dirs can't be opened."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    @staticmethod
    def _touch(path: str) -> None:
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry raced away
            pass

    # ------------------------------------------------------------------
    # Enumeration + budget
    # ------------------------------------------------------------------
    def _entry_dirs(self) -> Iterator[str]:
        """Every shard directory."""
        if not os.path.isdir(self.root):
            return
        with os.scandir(self.root) as it:
            for child in it:
                if child.is_dir():
                    yield child.path

    def entries(self) -> List[StoreEntry]:
        """Every complete stored entry, with size and recency."""
        found: Dict[str, Dict[str, Tuple[str, os.stat_result]]] = {}
        for directory in self._entry_dirs():
            with os.scandir(directory) as it:
                for child in it:
                    name = child.name
                    for suffix in self.suffixes:
                        if name.endswith(suffix):
                            token = name[: -len(suffix)]
                            try:
                                stat = child.stat()
                            except OSError:  # pragma: no cover - raced
                                continue
                            found.setdefault(token, {})[suffix] = (
                                child.path, stat,
                            )
                            break
        out = []
        for token, parts in sorted(found.items()):
            if any(s not in parts for s in self._required()):
                continue  # incomplete entry: not servable, not counted
            nbytes = sum(stat.st_size for _, stat in parts.values())
            mtime_ns = parts[self.suffixes[0]][1].st_mtime_ns
            paths = tuple(
                parts[s][0] for s in self.suffixes if s in parts
            )
            out.append(StoreEntry(token, nbytes, mtime_ns, paths))
        return out

    def total_bytes(self) -> int:
        return sum(entry.nbytes for entry in self.entries())

    def _observe_total(self, total: int) -> None:
        """Hook: called with the store size before budget enforcement."""

    def _observe_evicted(self, evicted: int, total: int) -> None:
        """Hook: called after eviction with the count and the new size."""

    def _enforce_budget(self, keep: Optional[str] = None) -> int:
        """Evict oldest-mtime entries until within ``max_bytes``.

        The entry named by ``keep`` (the one just written) survives even
        if it alone exceeds the budget — evicting the result the caller is
        about to rely on would turn every oversized put into a livelock.
        Returns the number of entries evicted.
        """
        assert self.max_bytes is not None
        entries = self.entries()
        total = sum(e.nbytes for e in entries)
        self._observe_total(total)
        if total <= self.max_bytes:
            return 0
        evicted = 0
        for entry in sorted(entries, key=lambda e: (e.mtime_ns, e.token)):
            if total <= self.max_bytes:
                break
            if entry.token == keep:
                continue
            for path in entry.paths:
                try:
                    os.unlink(path)
                except OSError:  # pragma: no cover - raced away
                    pass
            total -= entry.nbytes
            evicted += 1
        self._count_evicted(evicted)
        self._observe_evicted(evicted, total)
        return evicted

    # ------------------------------------------------------------------
    # Removal
    # ------------------------------------------------------------------
    @staticmethod
    def _unlink_quiet(path: str) -> bool:
        """Remove a file that may have raced away; True when we removed
        it.  exists-then-unlink would TOCTOU against a concurrent
        evictor/clearer deleting the same entry."""
        try:
            os.unlink(path)
            return True
        except FileNotFoundError:
            return False

    def evict_token(self, token: str) -> None:
        for path in self.token_paths(token):
            self._unlink_quiet(path)

    def clear(self) -> int:
        """Remove every entry (all shards); returns the entries removed."""
        removed = 0
        primary = self.suffixes[0]
        for directory in list(self._entry_dirs()):
            try:
                names = os.listdir(directory)
            except FileNotFoundError:  # raced with another clear()
                continue
            for name in names:
                path = os.path.join(directory, name)
                if not os.path.isfile(path):
                    continue
                if name.endswith(self.suffixes + (".tmp",)):
                    if self._unlink_quiet(path) and name.endswith(primary):
                        removed += 1
            try:
                os.rmdir(directory)  # fails (kept) unless empty
            except OSError:
                pass
        return removed


class ShardedStore(ShardedBlobStore):
    """Hash-prefix-sharded directory of (trace, meta) results."""

    suffixes = _SUFFIXES
    #: the spec sidecar is debugging aid only — an entry serves without it
    required_suffixes = _SUFFIXES[:2]

    def __init__(
        self,
        root: Optional[str] = None,
        version: Optional[str] = None,
        *,
        max_bytes: Optional[int] = None,
        durable: bool = False,
    ) -> None:
        super().__init__(
            root or default_cache_dir(),
            max_bytes=max_bytes,
            durable=durable,
        )
        self.version = version or repro.__version__

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def token(self, spec: RunSpec) -> str:
        return spec.cache_token(self.version)

    def _paths(self, spec: RunSpec) -> Tuple[str, ...]:
        return self.token_paths(self.token(spec))

    def contains(self, spec: RunSpec) -> bool:
        return self.locate(self.token(spec)) is not None

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def get(self, spec: RunSpec) -> Optional[Tuple["Trace", "TraceMeta"]]:
        """Stored ``(trace, meta)`` for the spec, or None on a miss.

        A corrupt entry (truncated write, wrong format) counts as a miss
        and is evicted, so the caller re-simulates instead of crashing.
        A hit refreshes the entry's mtime — recency for the LRU budget.
        """
        from repro.core.model import TraceMeta
        from repro.tracing.ctf import Trace, TraceFormatError

        paths = self.locate(self.token(spec))
        if paths is None:
            self._miss()
            return None
        trace_path, meta_path = paths[0], paths[1]
        try:
            trace = Trace.from_file(trace_path)
            meta = TraceMeta.from_file(meta_path)
        except (TraceFormatError, OSError, ValueError, KeyError):
            self.evict(spec)
            self._miss()
            return None
        self._count_hit()
        self._touch(trace_path)
        if obs.enabled():
            obs.counter("cache.hit").inc()
        return trace, meta

    def _miss(self) -> None:
        self._count_miss()
        if obs.enabled():
            obs.counter("cache.miss").inc()

    def put(self, spec: RunSpec, trace: "Trace", meta: "TraceMeta") -> None:
        if obs.enabled():
            obs.counter("cache.put").inc()
        trace_path, meta_path, spec_path = self._paths(spec)
        shard_dir = os.path.dirname(trace_path)
        os.makedirs(shard_dir, exist_ok=True)
        trace_bytes = trace.to_bytes(compress=True)
        meta_bytes = meta.to_json().encode("utf-8")
        sidecar = dict(spec.to_dict(), version=self.version)
        spec_bytes = json.dumps(sidecar, indent=2).encode("utf-8")
        self._write_atomic(trace_path, trace_bytes)
        self._write_atomic(meta_path, meta_bytes)
        self._write_atomic(spec_path, spec_bytes)
        if obs.enabled():
            # Cheap running total (no directory scan): what this process
            # wrote, charted over time by the sampler.
            obs.counter("store.put_bytes").inc(
                len(trace_bytes) + len(meta_bytes) + len(spec_bytes)
            )
        if self.durable:
            self._fsync_dir(shard_dir)
        if self.max_bytes is not None:
            self._enforce_budget(keep=self.token(spec))

    # ------------------------------------------------------------------
    # Budget observability + removal
    # ------------------------------------------------------------------
    def _observe_total(self, total: int) -> None:
        if obs.enabled():
            obs.gauge("store.bytes").set(total)

    def _observe_evicted(self, evicted: int, total: int) -> None:
        if obs.enabled():
            obs.counter("store.evict_lru").inc(evicted)
            obs.gauge("store.bytes").set(total)

    def evict(self, spec: RunSpec) -> None:
        if obs.enabled():
            obs.counter("cache.evict").inc()
        self.evict_token(self.token(spec))

    def describe(self) -> str:
        budget = (
            f", budget {self.max_bytes} bytes" if self.max_bytes else ""
        )
        return (
            f"cache {self.root}: {self.hits} hits, {self.misses} misses "
            f"(version {self.version}{budget})"
        )
