"""Self-observability for the sim→trace→analyze pipeline.

The paper's whole point is quantitative visibility into a system's
internals; this package gives the reproduction the same visibility into
*itself*: a process-local metrics registry (:mod:`repro.obs.metrics`),
nestable pipeline spans (:mod:`repro.obs.spans`), JSON-lines / Chrome-trace
exporters (:mod:`repro.obs.export`) and heartbeat progress reporting
(:mod:`repro.obs.progress`).

Disabled (the default) it costs one branch per instrumentation site::

    from repro import obs

    if obs.enabled():
        obs.counter("cache.hit").inc()

    with obs.span("analysis"):      # no-op when disabled
        ...

Enable with :func:`enable` (the CLI's ``--obs`` flag and the ``selftrace``
subcommand do), export with :func:`write_chrome_trace` /
:func:`write_jsonl`, and open the chrome export in ui.perfetto.dev.  See
``docs/observability.md`` for the metric catalog and span hierarchy.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NOOP,
    OBS_ENV,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
)
from repro.obs.spans import SpanRecord, current_depth, span
from repro.obs.export import (
    aggregate,
    chrome_events,
    prometheus_text,
    snapshot,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.progress import Heartbeat
from repro.obs.sampler import (
    OBS_SAMPLE_ENV,
    OBS_SPILL_ENV,
    Sampler,
    maybe_start_worker_sampler,
    stop_worker_sampler,
)
from repro.obs.timeseries import (
    SampleRing,
    load_sample_dir,
    load_sample_file,
    merge_samples,
    sample_file_path,
    sample_files_in,
)

__all__ = [
    "Counter", "Gauge", "Histogram", "Heartbeat", "MetricsRegistry",
    "REGISTRY", "Sampler", "SampleRing", "SpanRecord", "aggregate",
    "chrome_events", "counter", "current_depth", "disable",
    "drain_snapshot", "enable", "enabled", "gauge", "histogram",
    "load_sample_dir", "load_sample_file", "maybe_start_worker_sampler",
    "merge_samples", "merge_snapshot", "prometheus_text", "reset",
    "sample_file_path", "sample_files_in", "snapshot", "span",
    "stop_worker_sampler", "write_chrome_trace", "write_jsonl",
    "DEFAULT_BUCKETS", "NOOP", "OBS_ENV", "OBS_SAMPLE_ENV", "OBS_SPILL_ENV",
]


def enabled() -> bool:
    """Is the global registry collecting?  The one-branch guard."""
    return REGISTRY.enabled


def enable(memory: bool = False) -> None:
    REGISTRY.enable(memory=memory)


def disable() -> None:
    REGISTRY.disable()


def reset() -> None:
    REGISTRY.reset()


def counter(name: str, **labels: Any) -> Counter:
    return REGISTRY.counter(name, **labels)


def gauge(name: str, **labels: Any) -> Gauge:
    return REGISTRY.gauge(name, **labels)


def histogram(name: str, buckets=None, **labels: Any) -> Histogram:
    return REGISTRY.histogram(name, buckets=buckets, **labels)


def drain_snapshot():
    return REGISTRY.drain_snapshot()


def merge_snapshot(snap) -> None:
    REGISTRY.merge_snapshot(snap)
