"""Measurement plumbing for the end-to-end benchmark.

Spans are recorded by the benchmark around its calls into the program's
public functions, never inside the program: each span has a name, the
layer (``repro`` subpackage) it is charged to, start and end times, its
parent span and the id of the operation it belongs to.  Self time is a
span's duration minus the time its children cover, so the layers' self
times add up to the wall time of the operations that contain them.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import threading
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Sequence

#: Layers in pipeline order; ``harness`` is the benchmark's own time.
LAYERS = (
    "simkernel", "tracing", "ctf", "core", "stream", "exec", "service",
    "harness",
)

_NULL = nullcontext()


class _Span:
    __slots__ = ("rec", "name", "layer", "op", "index")

    def __init__(self, rec: "SpanRecorder", name: str, layer: str,
                 op: Optional[int]) -> None:
        self.rec = rec
        self.name = name
        self.layer = layer
        self.op = op

    def __enter__(self) -> "_Span":
        stack = self.rec._stack()
        parent = stack[-1] if stack else -1
        op = self.op
        if op is None and parent >= 0:
            op = self.rec.spans[parent][5]
        entry = [self.name, self.layer, time.perf_counter_ns(), 0, parent,
                 op, threading.get_ident()]
        with self.rec._lock:
            self.index = len(self.rec.spans)
            self.rec.spans.append(entry)
        stack.append(self.index)
        return self

    def __exit__(self, *exc: object) -> None:
        self.rec.spans[self.index][3] = time.perf_counter_ns()
        self.rec._stack().pop()


class SpanRecorder:
    """In-memory span buffer; a disabled recorder costs one branch."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: [name, layer, start_ns, end_ns, parent_index, op_id, thread]
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._tls = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def span(self, name: str, layer: str, op: Optional[int] = None):
        if not self.enabled:
            return _NULL
        return _Span(self, name, layer, op)

    # ------------------------------------------------------------------
    def self_times(self) -> List[int]:
        """Per-span self time: duration minus the children's durations."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        return own

    def op_ns(self) -> int:
        """Total duration of the op spans (top-level spans with an op id)."""
        return sum(s[3] - s[2] for s in self.spans
                   if s[4] < 0 and s[5] is not None)

    def self_by_layer(self) -> Dict[str, int]:
        """Self time per layer of the spans inside ops; checks and
        calibration runs between ops are not part of any op."""
        out = {layer: 0 for layer in LAYERS}
        for s, own in zip(self.spans, self.self_times()):
            if s[5] is not None:
                out[s[1]] += own
        return out

    def self_by_name(self, layer: str) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for s, own in zip(self.spans, self.self_times()):
            if s[1] == layer:
                out[s[0]] = out.get(s[0], 0) + own
        return out

    def durations(self, name: str) -> List[int]:
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def write_chrome(self, path: str) -> None:
        """Trace Event Format (open in ui.perfetto.dev)."""
        if not self.spans:
            return
        origin = min(s[2] for s in self.spans)
        events = [
            {
                "name": s[0], "cat": s[1], "ph": "X", "pid": os.getpid(),
                "tid": s[6], "ts": (s[2] - origin) / 1e3,
                "dur": (s[3] - s[2]) / 1e3,
                "args": {"op": s[5], "parent": s[4]},
            }
            for s in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events}, fh)


# ----------------------------------------------------------------------
# Calibration (harness floor, machine speed)
# ----------------------------------------------------------------------

def span_floor_ns(batches: int = 5, n: int = 5000) -> float:
    """Cost of one recorded span around a no-op call (median of batches)."""
    per = []
    for _ in range(batches):
        rec = SpanRecorder(True)
        t0 = time.perf_counter_ns()
        for _ in range(n):
            with rec.span("noop", "harness"):
                pass
        traced = time.perf_counter_ns() - t0
        t0 = time.perf_counter_ns()
        for _ in range(n):
            pass
        bare = time.perf_counter_ns() - t0
        per.append((traced - bare) / n)
    return statistics.median(per)


#: Speed of the reference host: iterations per second of the calibration
#: loop.  Every end-to-end time is reported in seconds of this host.
REF_CALIB_PER_S = 1.0e7
#: One calibration sample takes about 6 ms at the reference speed.
CALIB_N = 60_000


def calibration_sample(n: int = CALIB_N) -> float:
    """Iterations per second of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += (i * i) % 7
    return n / (time.perf_counter() - t0)


class RefClock:
    """Converts wall time to seconds of the reference host.

    A shared host runs the same code at speeds that differ by a quarter
    from one second to the next.  The calibration loop is timed between
    operations; an operation's wall time times the host speed around it
    (the mean of the samples before and after), over the reference speed,
    is its time on the reference host.  A change to the program moves
    that time; a change of the host's speed does not.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = self._sample()

    def _sample(self) -> float:
        rate = calibration_sample()
        self.samples.append(rate)
        return rate

    def scale(self) -> float:
        """Reference seconds per wall second since the previous call."""
        rate = self._sample()
        out = (self._last + rate) / 2.0 / REF_CALIB_PER_S
        self._last = rate
        return out

    def median(self) -> float:
        return statistics.median(self.samples)


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so the calibration
    loop measures the processor the program runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# ----------------------------------------------------------------------
# Small statistics + process facts
# ----------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in 0..100); 0.0 when empty."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM of a process (this one by default), in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    try:
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is not None:
        return 0.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def class_mean(by_class: Dict[Any, List[float]], q: float) -> float:
    """Geometric mean over op classes of each class's q-th percentile.

    Ops of different classes (applications, op kinds) have different
    costs; pooling them would put a percentile between two classes,
    where the share of each class a seed happens to draw moves it.
    """
    return _geomean([percentile(values, q) for values in by_class.values()])


def class_rate(by_class: Dict[Any, List[float]]) -> float:
    """Geometric mean over op classes of each class's rate, from its
    ``[units, seconds]`` summed over the run.

    A rate over the whole run moves less than a median of per-op rates:
    a slow second weighs in by its length and cannot tip it.
    """
    return _geomean([u / s if s > 0 else 0.0 for u, s in by_class.values()])


def _geomean(points: List[float]) -> float:
    if not points or min(points) <= 0:
        return 0.0
    return math.exp(sum(math.log(p) for p in points) / len(points))
