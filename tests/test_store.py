"""Tests for the sharded on-disk result store (repro.exec.store).

Covers: hash-prefix shard layout (files flat in the root are a miss), size
budgets with mtime-LRU eviction, durable atomic writes, and enumeration/
clearing across shards.  The hit/miss/corruption contract shared with the
old flat cache stays covered by tests/test_exec.py's TestResultStore.
"""

import os

import pytest

from repro.exec import RunSpec, ShardedStore
from repro.util.units import MSEC

SHORT = 60 * MSEC


def spec(seed=0, **kw):
    return RunSpec.make("FTQ", SHORT, seed, 2, **kw)


@pytest.fixture(scope="module")
def executed():
    """One executed spec shared by the read/write tests."""
    s = spec(0)
    trace, meta = s.execute()
    return s, trace, meta


class TestShardLayout:
    def test_entries_land_in_token_prefix_shards(self, tmp_path, executed):
        s, trace, meta = executed
        store = ShardedStore(str(tmp_path))
        store.put(s, trace, meta)
        token = store.token(s)
        shard_dir = tmp_path / token[:2]
        assert shard_dir.is_dir()
        assert (shard_dir / f"{token}.lttnz").exists()
        assert (shard_dir / f"{token}.meta.json").exists()
        assert (shard_dir / f"{token}.spec.json").exists()
        # Nothing piles up flat in the root.
        assert not any(p.is_file() for p in tmp_path.iterdir())

    def test_flat_root_files_are_a_miss(self, tmp_path, executed):
        """Only shard directories hold entries: a run stored flat in the
        root is never read, so it is simulated and stored again."""
        s, trace, meta = executed
        store = ShardedStore(str(tmp_path))
        token = store.token(s)
        trace.to_file(str(tmp_path / f"{token}.lttnz"), compress=True)
        meta.to_file(str(tmp_path / f"{token}.meta.json"))
        assert not store.contains(s)
        assert store.get(s) is None and store.misses == 1
        assert store.entries() == []
        store.put(s, *s.execute())
        hit = store.get(s)
        assert hit is not None
        assert hit[0].to_bytes() == trace.to_bytes()


class TestBudgetEviction:
    def _fill(self, store, seeds):
        by_seed = {}
        for seed in seeds:
            s = spec(seed)
            trace, meta = s.execute()
            store.put(s, trace, meta)
            by_seed[seed] = s
        return by_seed

    def test_put_past_budget_evicts_lru(self, tmp_path, executed):
        s0, trace, meta = executed
        probe = ShardedStore(str(tmp_path / "probe"))
        probe.put(s0, trace, meta)
        entry_bytes = probe.total_bytes()

        store = ShardedStore(str(tmp_path / "s"),
                             max_bytes=int(entry_bytes * 2.5))
        specs = self._fill(store, [0, 1])
        assert store.evicted_lru == 0
        # Refresh seed 0's recency: seed 1 becomes the LRU victim.
        assert store.get(specs[0]) is not None
        os.utime(store._paths(specs[1])[0],
                 ns=(1_000_000_000, 1_000_000_000))
        self._fill(store, [2])
        assert store.evicted_lru == 1
        assert store.contains(specs[0])
        assert not store.contains(specs[1])
        assert store.total_bytes() <= store.max_bytes

    def test_oversized_entry_survives_its_own_put(self, tmp_path, executed):
        s, trace, meta = executed
        store = ShardedStore(str(tmp_path), max_bytes=1)
        store.put(s, trace, meta)
        assert store.contains(s)  # never evict what was just written

    def test_unbudgeted_store_never_evicts(self, tmp_path):
        store = ShardedStore(str(tmp_path))
        self._fill(store, range(3))
        assert store.evicted_lru == 0
        assert len(store.entries()) == 3


class TestDurability:
    def test_durable_put_roundtrips(self, tmp_path, executed):
        s, trace, meta = executed
        store = ShardedStore(str(tmp_path), durable=True)
        store.put(s, trace, meta)
        hit = store.get(s)
        assert hit is not None
        assert hit[0].to_bytes() == trace.to_bytes()

    def test_no_tmp_litter_after_put(self, tmp_path, executed):
        s, trace, meta = executed
        store = ShardedStore(str(tmp_path))
        store.put(s, trace, meta)
        leftovers = [
            p for p in tmp_path.rglob("*.tmp")
        ]
        assert leftovers == []

    def test_failed_write_leaves_no_partial_entry(self, tmp_path, executed):
        s, trace, meta = executed
        store = ShardedStore(str(tmp_path))

        class Boom(Exception):
            pass

        class BadTrace:
            def to_bytes(self, compress=False):
                raise Boom()

        with pytest.raises(Boom):
            store.put(s, BadTrace(), meta)
        assert not store.contains(s)
        assert list(tmp_path.rglob("*.tmp")) == []


class TestEnumeration:
    def test_entries_span_shards(self, tmp_path):
        store = ShardedStore(str(tmp_path))
        tokens = set()
        for seed in range(3):
            s = spec(seed)
            store.put(s, *s.execute())
            tokens.add(store.token(s))
        entries = store.entries()
        assert {e.token for e in entries} == tokens
        assert all(e.nbytes > 0 for e in entries)
        assert store.total_bytes() == sum(e.nbytes for e in entries)

    def test_clear_removes_all_shards(self, tmp_path):
        store = ShardedStore(str(tmp_path))
        for seed in range(3):
            s = spec(seed)
            store.put(s, *s.execute())
        assert store.clear() == 3
        assert store.entries() == []
        assert store.get(spec(0)) is None


class TestConcurrency:
    """Races the service exposes: many requests share one store, so
    same-key writers, evict-vs-put and budget enforcement all run
    concurrently from worker threads."""

    def _race(self, nthreads, fn):
        """Run fn(i) on nthreads threads through a start barrier;
        re-raises the first worker exception."""
        import threading

        barrier = threading.Barrier(nthreads)
        errors = []

        def body(i):
            try:
                barrier.wait()
                fn(i)
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=body, args=(i,))
            for i in range(nthreads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return errors

    def test_concurrent_same_key_puts_converge(self, tmp_path, executed):
        """Atomic rename means same-key racers are last-wins with
        *identical* content: the entry is always complete and readable,
        and no temp litter survives."""
        s, trace, meta = executed
        store = ShardedStore(str(tmp_path))
        errors = self._race(8, lambda i: store.put(s, trace, meta))
        assert errors == []
        hit = store.get(s)
        assert hit is not None
        assert hit[0].to_bytes() == trace.to_bytes()
        assert list(tmp_path.rglob("*.tmp")) == []
        assert len(store.entries()) == 1

    def test_concurrent_evict_and_put_never_raise(self, tmp_path, executed):
        """evict() used exists-then-unlink, which raced against a
        concurrent evictor (FileNotFoundError between check and unlink).
        Mixed put/get/evict storms must never escape an exception."""
        s, trace, meta = executed
        store = ShardedStore(str(tmp_path))

        def body(i):
            for _ in range(10):
                if i % 3 == 0:
                    store.put(s, trace, meta)
                elif i % 3 == 1:
                    store.evict(s)
                else:
                    store.get(s)

        errors = self._race(6, body)
        assert errors == []

    def test_concurrent_clear_never_raises(self, tmp_path, executed):
        s, trace, meta = executed
        store = ShardedStore(str(tmp_path))
        for seed in range(4):
            store.put(spec(seed), trace, meta)
        errors = self._race(4, lambda i: store.clear())
        assert errors == []
        assert store.entries() == []

    def test_budget_holds_under_concurrent_writers(self, tmp_path,
                                                   executed):
        """Racing budgeted puts may each enforce against a directory the
        other is still writing; once all writers finish, the budget must
        hold and every surviving entry must be complete."""
        s0, trace, meta = executed
        probe = ShardedStore(str(tmp_path / "probe"))
        probe.put(s0, trace, meta)
        entry_bytes = probe.total_bytes()

        store = ShardedStore(str(tmp_path / "s"),
                             max_bytes=int(entry_bytes * 3.5))
        errors = self._race(
            8, lambda i: store.put(spec(i), trace, meta)
        )
        assert errors == []
        # A last sequential put observes the settled directory and
        # enforces the final budget.
        store.put(s0, trace, meta)
        assert store.total_bytes() <= store.max_bytes
        for entry in store.entries():
            assert len(entry.paths) == 3
        assert list((tmp_path / "s").rglob("*.tmp")) == []
