"""Background sampler: periodic time-series snapshots of the registry.

One :class:`Sampler` per process turns the end-of-run metrics registry
into a longitudinal record: a daemon thread wakes every ``period_s``,
reads every scalar series
(:meth:`~repro.obs.metrics.MetricsRegistry.scalar_values`) and appends a
timestamped sample to a bounded :class:`~repro.obs.timeseries.SampleRing`
— optionally spilling JSON lines into a shared directory so ``obs tail``
can follow a running sweep and per-worker files merge back into one
timeline afterwards.

Overhead discipline mirrors the registry's: sampling is O(live series),
happens on its own thread (never inside instrumented code), and nothing
in the hot paths knows the sampler exists — it reads the same counters
the boundary code already publishes.  ``tests/test_obs.py`` gates the
100 ms sampler at <2 % wall overhead on a 1 s FTQ pipeline.

Cross-process protocol
----------------------
:meth:`Sampler.start` with ``export_env=True`` publishes the sampling
period and spill directory through the environment (next to
:data:`~repro.obs.metrics.OBS_ENV`), so process-pool workers inherit the
sampling mode exactly like they inherit obs mode.  The worker entry point
(:func:`repro.exec.backend.execute_spec_serialized`) calls
:func:`maybe_start_worker_sampler` once per process: each worker then
writes its own ``samples-<pid>.jsonl`` beside the parent's, flushed per
sample, so a worker killed mid-interval loses nothing already sampled.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Optional

from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.timeseries import (
    Sample,
    SampleRing,
    sample_file_path,
)

#: Environment: sampling period in ms; presence means "sample here too".
OBS_SAMPLE_ENV = "LTTNG_NOISE_OBS_SAMPLE_MS"
#: Environment: shared spill directory for per-process sample files.
OBS_SPILL_ENV = "LTTNG_NOISE_OBS_SPILL"

#: Default sampling period (the paper-style low-overhead cadence).
DEFAULT_PERIOD_S = 0.1
#: Default bounded ring size (~7 min of samples at 100 ms).
DEFAULT_MAXLEN = 4096


class Sampler:
    """Daemon-thread periodic sampler over one metrics registry."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        period_s: float = DEFAULT_PERIOD_S,
        maxlen: int = DEFAULT_MAXLEN,
        spill_dir: Optional[str] = None,
        label: str = "main",
    ) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.registry = registry if registry is not None else REGISTRY
        self.period_s = period_s
        self.spill_dir = spill_dir
        self.label = label
        self.ring = SampleRing(
            maxlen=maxlen,
            spill_path=(
                sample_file_path(spill_dir) if spill_dir is not None
                else None
            ),
            meta={"period_ms": int(period_s * 1000), "label": label},
        )
        self._seq = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: Serializes start/stop: a service shutting down calls stop()
        #: from both its atexit hook and its SIGTERM path, possibly on
        #: two threads at once — exactly one of them may emit the
        #: closing sample.
        self._lifecycle = threading.Lock()
        self._exported_env = False
        self._last_mono_ns: Optional[int] = None
        #: Overhead/cadence accounting, embedded in sweep summaries.
        self.sample_cost_ns = 0
        self.max_sample_cost_ns = 0
        self.max_gap_ns = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self, export_env: bool = False) -> "Sampler":
        """Begin periodic sampling (idempotent).

        ``export_env=True`` publishes the period (and spill directory,
        when set) through the environment so worker processes spawned
        after this point sample themselves too.
        """
        with self._lifecycle:
            if self.running:
                return self
            if export_env:
                os.environ[OBS_SAMPLE_ENV] = str(int(self.period_s * 1000))
                if self.spill_dir is not None:
                    os.environ[OBS_SPILL_ENV] = self.spill_dir
                self._exported_env = True
            self._stop.clear()
            # t=0 baseline so every capture has >=1 sample.
            self.sample_now()
            self._thread = threading.Thread(
                target=self._loop, name=f"obs-sampler-{self.label}",
                daemon=True,
            )
            self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.period_s):
            self.sample_now()

    def stop(self) -> List[Sample]:
        """Stop the thread, take a final sample, close the spill file.

        Returns the in-memory sample window.  Idempotent — including
        under *concurrent* callers: a process shutting down may reach
        here from its atexit hook and a SIGTERM handler at once, and
        exactly one of them takes the closing sample (the loser sees the
        thread already claimed and just returns the window).
        """
        with self._lifecycle:
            thread, self._thread = self._thread, None
            if thread is not None:
                self._stop.set()
                thread.join(timeout=max(1.0, 10 * self.period_s))
                self.sample_now()  # closing reading: the end-of-run state
            if self._exported_env:
                os.environ.pop(OBS_SAMPLE_ENV, None)
                os.environ.pop(OBS_SPILL_ENV, None)
                self._exported_env = False
            self.ring.close()
            return self.ring.samples()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_now(self) -> Sample:
        """Take one sample immediately (also usable without the thread)."""
        t0 = time.monotonic_ns()
        metrics = self.registry.scalar_values()
        sample: Sample = {
            "seq": self._seq,
            "mono_ns": t0,
            "pid": os.getpid(),
            "metrics": metrics,
        }
        self._seq += 1  # noiselint: disable=CON001 -- worker-thread only; stop() joins before the closing sample
        if self._last_mono_ns is not None:
            gap = t0 - self._last_mono_ns
            if gap > self.max_gap_ns:
                self.max_gap_ns = gap  # noiselint: disable=CON001 -- worker-thread only; stop() joins before the closing sample
        self._last_mono_ns = t0  # noiselint: disable=CON001 -- worker-thread only; stop() joins before the closing sample
        self.ring.append(sample)
        cost = time.monotonic_ns() - t0
        self.sample_cost_ns += cost  # noiselint: disable=CON001 -- worker-thread only; stop() joins before the closing sample
        if cost > self.max_sample_cost_ns:
            self.max_sample_cost_ns = cost  # noiselint: disable=CON001 -- worker-thread only; stop() joins before the closing sample
        return sample

    def samples(self) -> List[Sample]:
        return self.ring.samples()

    def stats(self) -> Dict[str, Any]:
        """Sampler self-accounting for summaries and CI artifacts."""
        return {
            "period_ms": int(self.period_s * 1000),
            "samples": self.ring.appended,
            "dropped": self.ring.dropped,
            "spill": self.ring.spill_path,
            "sample_cost_ms_total": round(self.sample_cost_ns / 1e6, 3),
            "sample_cost_ms_max": round(self.max_sample_cost_ns / 1e6, 3),
            "max_gap_ms": round(self.max_gap_ns / 1e6, 3),
        }


# ----------------------------------------------------------------------
# Worker-side autostart (the OBS_ENV-style inheritance)
# ----------------------------------------------------------------------

_worker_sampler: Optional[Sampler] = None


def maybe_start_worker_sampler(
    registry: Optional[MetricsRegistry] = None,
) -> Optional[Sampler]:
    """Start this process's sampler if a parent asked for sampling.

    Called from worker entry points (cheap when sampling is off: one
    environment lookup).  The sampler is process-global and keeps
    running for the worker's lifetime, spilling to its own
    ``samples-<pid>.jsonl``; the daemon thread dies with the process and
    flush-per-line guarantees every taken sample is on disk.
    """
    global _worker_sampler
    period_ms = os.environ.get(OBS_SAMPLE_ENV)
    if not period_ms:
        return None
    if _worker_sampler is not None and _worker_sampler.running:
        return _worker_sampler
    reg = registry if registry is not None else REGISTRY
    if not reg.enabled:
        return None
    try:
        period_s = max(1, int(period_ms)) / 1000.0
    except ValueError:
        return None
    spill_dir = os.environ.get(OBS_SPILL_ENV) or None
    _worker_sampler = Sampler(
        registry=reg, period_s=period_s, spill_dir=spill_dir,
        label=f"worker-{os.getpid()}",
    )
    _worker_sampler.start(export_env=False)
    return _worker_sampler


def stop_worker_sampler() -> None:
    """Tear down the process-global worker sampler (tests, reuse)."""
    global _worker_sampler
    if _worker_sampler is not None:
        _worker_sampler.stop()
        _worker_sampler = None
