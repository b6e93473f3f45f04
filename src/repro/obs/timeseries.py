"""Time-series samples: the pipeline's own metrics, watched over time.

The paper's method is longitudinal — a system is explained by watching
its behavior evolve, not by one end-of-run snapshot.  This module gives
the obs layer the same treatment: a *sample* is one timestamped reading
of every scalar series in a :class:`~repro.obs.metrics.MetricsRegistry`
(see :meth:`~repro.obs.metrics.MetricsRegistry.scalar_values`), and a
:class:`SampleRing` holds a bounded window of them in memory while
optionally spilling every sample to an append-only JSON-lines file.

Sample schema (version 1), one JSON object per line::

    {"type": "sample-meta", "schema": 1, "pid": 4242,
     "period_ms": 100, "label": "sweep"}          # first line, per file
    {"seq": 0, "mono_ns": 81234567890, "pid": 4242,
     "metrics": {"cache.hit": 3, "store.bytes": 1048576, ...}}

* ``mono_ns`` is ``time.monotonic_ns()`` — on Linux, CLOCK_MONOTONIC is
  shared by every process since boot, so per-worker sample files merge
  into one global timeline by plain timestamp order;
* ``seq`` increments per sampler, so gaps within one worker are visible
  (a dead worker's file simply stops; flush-per-line means nothing that
  was sampled is ever lost);
* ``metrics`` maps :func:`~repro.obs.metrics.series_key` to the scalar
  value at sample time — counters/gauges directly, histograms as
  ``key:count`` / ``key:sum``.

Spill files are the cross-process half of the protocol: each process
(the parent and every pool worker) writes ``samples-<pid>.jsonl`` into a
shared directory, and :func:`load_sample_dir` merges them back in global
timestamp order — the time-series analogue of how worker span buffers
merge into the parent registry.
"""

from __future__ import annotations

import heapq
import json
import os
from collections import deque
from typing import Any, Dict, IO, Iterable, List, Optional

#: Version stamp carried by every spill file's leading meta line.
SAMPLE_SCHEMA = 1

#: Spill file naming: one file per sampling process.
SAMPLE_FILE_PREFIX = "samples-"
SAMPLE_FILE_SUFFIX = ".jsonl"

Sample = Dict[str, Any]


def sample_file_path(directory: str, pid: Optional[int] = None) -> str:
    """The per-process spill file for ``pid`` under ``directory``."""
    who = pid if pid is not None else os.getpid()
    return os.path.join(
        directory, f"{SAMPLE_FILE_PREFIX}{who}{SAMPLE_FILE_SUFFIX}"
    )


class SampleRing:
    """Bounded in-memory sample window with optional JSON-lines spill.

    The ring keeps the most recent ``maxlen`` samples for live
    consumers (the ``obs tail`` dashboard, the sweep summary); when a
    ``spill_path`` is given every appended sample is *also* written out
    and flushed immediately, so the on-disk record is complete even if
    the process dies between samples.  Without a spill path, samples
    that fall off the ring are counted in :attr:`dropped` — bounded
    memory is honest about what it forgot.
    """

    def __init__(self, maxlen: int = 4096,
                 spill_path: Optional[str] = None,
                 meta: Optional[Dict[str, Any]] = None) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self.maxlen = maxlen
        self._ring: "deque[Sample]" = deque(maxlen=maxlen)
        self.spill_path = spill_path
        self._fp: Optional[IO[str]] = None
        self._meta = dict(meta or {})
        self.appended = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    def _file(self) -> IO[str]:
        if self._fp is None or self._fp.closed:
            directory = os.path.dirname(self.spill_path or "")
            if directory:
                os.makedirs(directory, exist_ok=True)
            assert self.spill_path is not None
            fresh = not os.path.exists(self.spill_path)
            self._fp = open(self.spill_path, "a", encoding="utf-8")  # noiselint: disable=CON001 -- ring is sampler-thread confined; stop() joins before main touches it
            if fresh:
                header = {
                    "type": "sample-meta",
                    "schema": SAMPLE_SCHEMA,
                    "pid": os.getpid(),
                }
                header.update(self._meta)
                self._fp.write(json.dumps(header, sort_keys=True) + "\n")
                self._fp.flush()
        return self._fp

    def append(self, sample: Sample) -> None:
        """Ring-append; spills and flushes when a spill path is set."""
        if (self.spill_path is None
                and len(self._ring) == self.maxlen):
            self.dropped += 1  # noiselint: disable=CON001 -- ring is sampler-thread confined; stop() joins before main touches it
        self._ring.append(sample)
        self.appended += 1  # noiselint: disable=CON001 -- ring is sampler-thread confined; stop() joins before main touches it
        if self.spill_path is not None:
            fp = self._file()
            fp.write(json.dumps(sample, sort_keys=True) + "\n")
            fp.flush()

    def samples(self) -> List[Sample]:
        """The in-memory window, oldest first."""
        return list(self._ring)

    def last(self) -> Optional[Sample]:
        return self._ring[-1] if self._ring else None

    def __len__(self) -> int:
        return len(self._ring)

    def close(self) -> None:
        if self._fp is not None and not self._fp.closed:
            self._fp.close()

    def __enter__(self) -> "SampleRing":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Reading spill files back
# ----------------------------------------------------------------------

def load_sample_file(path: str) -> List[Sample]:
    """Samples of one spill file, in write (= per-worker time) order.

    Meta lines are skipped; a corrupt *final* line is the signature of a
    process killed mid-write and is dropped silently (the same torn-write
    tolerance as the sweep journal); corruption elsewhere raises.
    """
    with open(path, "r", encoding="utf-8") as fp:
        raw = fp.read().split("\n")
    last_content = len(raw) - 1
    while last_content >= 0 and not raw[last_content].strip():
        last_content -= 1
    out: List[Sample] = []
    for lineno, line in enumerate(raw[: last_content + 1], start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except ValueError as exc:
            if lineno == last_content + 1:
                continue  # torn final write: lose one sample, not the file
            raise ValueError(
                f"{path}:{lineno}: corrupt sample line"
            ) from exc
        if not isinstance(entry, dict) or entry.get("type") == "sample-meta":
            continue
        if "mono_ns" not in entry:
            raise ValueError(f"{path}:{lineno}: sample has no mono_ns")
        out.append(entry)
    return out


def merge_samples(*streams: Iterable[Sample]) -> List[Sample]:
    """Merge per-worker sample streams into one global timeline.

    Each stream must already be time-ordered (a sampler writes
    monotonically by construction); the merge is stable on
    ``(mono_ns, pid, seq)`` so equal timestamps keep a deterministic
    order across hosts and runs.
    """
    def key(sample: Sample):
        return (sample["mono_ns"], sample.get("pid", 0),
                sample.get("seq", 0))

    return list(heapq.merge(*streams, key=key))


def sample_files_in(directory: str) -> List[str]:
    """Every per-process spill file under ``directory``, name-sorted."""
    if not os.path.isdir(directory):
        return []
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.startswith(SAMPLE_FILE_PREFIX)
        and name.endswith(SAMPLE_FILE_SUFFIX)
    )


def load_sample_dir(directory: str) -> List[Sample]:
    """All workers' samples merged into one global timeline."""
    return merge_samples(
        *(load_sample_file(path) for path in sample_files_in(directory))
    )
