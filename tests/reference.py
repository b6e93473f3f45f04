"""Reference object-path implementation of the analysis core — the
frozen oracle of the differential tests.

This module preserves the original per-object pipeline — Python loops over
:class:`~repro.core.model.Activity` dataclasses — exactly as it was before
the columnar :class:`~repro.core.model.ActivityTable` refactor.  It exists
for two purposes:

* the differential property tests (``tests/test_columnar.py``,
  ``tests/test_timeline.py``, ``tests/test_stream.py``) check that the
  columnar pipeline's outputs are **exactly** equal to this
  implementation on randomized record streams and moments folds;
* ``benchmarks/bench_perf_pipeline.py`` measures the columnar analyze
  phase against this baseline (the ≥5× acceptance bar).

Do not "optimize" this file: its value is being the slow, obviously-correct
original.
"""

from __future__ import annotations

import bisect
import math
from operator import mul
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.model import (
    Activity,
    BREAKDOWN_CATEGORIES,
    EVENT_CATEGORY,
    Interruption,
    NoiseCategory,
    PREEMPT_EVENT,
    TRACER_PREEMPT_EVENT,
    TraceMeta,
)
from repro.core.timeline import StateInterval
from repro.simkernel.task import TaskKind, TaskState
from repro.tracing.ctf import Trace
from repro.tracing.events import (
    Ev,
    Flag,
    NAME_TO_EVENT,
    RECORD_DTYPE,
    decode_switch,
    decode_task_state,
    event_name,
    is_paired,
)
from repro.util.stats import DurationStats
from repro.util.units import SEC

PREEMPT_NAME = "preemption"


class Moments:
    """Python-int moments of one population, kept apart from the
    production fold: count, sum, minimum, maximum, sum of squares."""

    __slots__ = ("count", "total", "mn", "mx", "sq")

    def __init__(self) -> None:
        self.count = self.total = self.mn = self.mx = self.sq = 0

    def fold(self, count: int, total: int, mn: int, mx: int, sq: int) -> None:
        if count == 0:
            return
        self.mn = mn if self.count == 0 else min(self.mn, mn)
        self.mx = mx if self.count == 0 else max(self.mx, mx)
        self.count += count
        self.total += total
        self.sq += sq


def describe_ref(values, span_ns: int, cpus: int = 1) -> DurationStats:
    """One table row from Python ints, one value at a time: exact sums,
    and the textbook population deviation
    ``sqrt(n * sum(x**2) - sum(x)**2) / n``."""
    if span_ns <= 0 or cpus <= 0:
        raise ValueError("span_ns and cpus must be positive")
    values = [int(v) for v in values]
    if not values:
        return DurationStats.empty()
    n = len(values)
    total = sum(values)
    squares = sum(v * v for v in values)
    return DurationStats(
        count=n,
        freq=n / (span_ns / SEC) / cpus,
        avg=total / n,
        max=max(values),
        min=min(values),
        std=math.sqrt(n * squares - total * total) / n,
        total=total,
    )


class _Open:
    __slots__ = ("event", "start", "pid", "arg", "nested")

    def __init__(self, event: int, start: int, pid: int, arg: int) -> None:
        self.event = event
        self.start = start
        self.pid = pid
        self.arg = arg
        self.nested = 0


def build_activities_ref(
    records: np.ndarray,
    end_ts: Optional[int] = None,
    strict: bool = False,
) -> List[Activity]:
    """Original object-path activity reconstruction."""
    stacks: Dict[int, List[_Open]] = {}
    activities: List[Activity] = []

    times = records["time"]
    events = records["event"]
    cpus = records["cpu"]
    flags = records["flag"]
    pids = records["pid"]
    args = records["arg"]

    for i in range(len(records)):
        event = int(events[i])
        if not is_paired(event):
            continue
        cpu = int(cpus[i])
        t = int(times[i])
        flag = int(flags[i])
        stack = stacks.setdefault(cpu, [])
        if flag == Flag.ENTRY:
            stack.append(_Open(event, t, int(pids[i]), int(args[i])))
        elif flag == Flag.EXIT:
            if not stack or stack[-1].event != event:
                if strict:
                    raise ValueError(
                        f"unmatched EXIT for {event_name(event)} "
                        f"on cpu{cpu} at t={t}"
                    )
                continue
            frame = stack.pop()
            total = t - frame.start
            self_ns = total - frame.nested
            if stack:
                stack[-1].nested += total
            activities.append(
                Activity(
                    event=frame.event,
                    name=event_name(frame.event),
                    cpu=cpu,
                    pid=frame.pid,
                    start=frame.start,
                    end=t,
                    total_ns=total,
                    self_ns=max(0, self_ns),
                    depth=len(stack),
                    arg=frame.arg,
                )
            )

    if end_ts is None and len(records):
        end_ts = int(times.max())
    for cpu, stack in stacks.items():
        depth = 0
        for frame in stack:
            total = max(0, int(end_ts) - frame.start)
            # The truncated frame directly above is not this frame's time.
            above = (
                max(0, int(end_ts) - stack[depth + 1].start)
                if depth + 1 < len(stack) else 0
            )
            activities.append(
                Activity(
                    event=frame.event,
                    name=event_name(frame.event),
                    cpu=cpu,
                    pid=frame.pid,
                    start=frame.start,
                    end=int(end_ts),
                    total_ns=total,
                    self_ns=max(0, total - frame.nested - above),
                    depth=depth,
                    arg=frame.arg,
                    truncated=True,
                )
            )
            depth += 1

    activities.sort(key=lambda a: (a.start, a.cpu, a.depth))
    return activities


def build_preemptions_ref(
    records: np.ndarray,
    meta: TraceMeta,
    end_ts: Optional[int] = None,
    kact_activities: Optional[List[Activity]] = None,
) -> List[Activity]:
    """Original object-path preemption-window derivation."""
    times = records["time"]
    events = records["event"]
    cpus = records["cpu"]
    args = records["arg"]

    order = np.argsort(times, kind="stable")

    state: Dict[int, int] = {}
    open_seg: Dict[int, Tuple[int, int]] = {}
    displaced: Dict[int, Optional[int]] = {}
    out: List[Activity] = []
    if end_ts is None and len(records):
        end_ts = int(times.max())

    def close_segment(cpu: int, t: int, truncated: bool = False) -> None:
        seg = open_seg.pop(cpu, None)
        if seg is None:
            return
        daemon_pid, start = seg
        disp = displaced.get(cpu)
        if disp is None:
            return
        total = t - start
        if total <= 0:
            return
        event = (
            TRACER_PREEMPT_EVENT
            if meta.kind_of(daemon_pid) == TaskKind.TRACERD
            else PREEMPT_EVENT
        )
        out.append(
            Activity(
                event=event,
                name=f"preempt:{meta.name_of(daemon_pid)}",
                cpu=cpu,
                pid=daemon_pid,
                start=start,
                end=t,
                total_ns=total,
                self_ns=total,
                displaced_pid=disp,
                truncated=truncated,
            )
        )

    for i in order:
        event = int(events[i])
        if event == Ev.TASK_STATE:
            pid, st = decode_task_state(int(args[i]))
            state[pid] = st
        elif event == Ev.SCHED_SWITCH:
            cpu = int(cpus[i])
            t = int(times[i])
            prev_pid, next_pid = decode_switch(int(args[i]))
            close_segment(cpu, t)
            prev_kind = meta.kind_of(prev_pid)
            next_kind = meta.kind_of(next_pid)
            if (
                prev_kind == TaskKind.RANK
                and state.get(prev_pid) == TaskState.RUNNABLE
            ):
                displaced[cpu] = prev_pid
            if next_kind in (
                TaskKind.KDAEMON,
                TaskKind.UDAEMON,
                TaskKind.TRACERD,
            ):
                open_seg[cpu] = (next_pid, t)
            else:
                displaced[cpu] = None

    for cpu in list(open_seg):
        close_segment(cpu, int(end_ts), truncated=True)

    if kact_activities:
        _subtract_nested_ref(out, kact_activities)

    out.sort(key=lambda a: (a.start, a.cpu))
    return out


def _subtract_nested_ref(
    preemptions: List[Activity], kacts: List[Activity]
) -> None:
    by_cpu: Dict[int, List[Activity]] = {}
    for act in kacts:
        if act.depth == 0:
            by_cpu.setdefault(act.cpu, []).append(act)
    for acts in by_cpu.values():
        acts.sort(key=lambda a: a.start)
    for window in preemptions:
        acts = by_cpu.get(window.cpu)
        if not acts:
            continue
        nested = 0
        starts = [a.start for a in acts]
        idx = bisect.bisect_left(starts, window.start)
        while idx < len(acts) and acts[idx].start < window.end:
            nested += acts[idx].overlap(window.start, window.end)
            idx += 1
        window.self_ns = max(0, window.total_ns - nested)


def classify_activities_ref(
    kacts: List[Activity],
    preemptions: List[Activity],
    meta: TraceMeta,
) -> List[Activity]:
    """Original object-path classification."""
    windows = _preemption_index_ref(preemptions)

    for act in kacts:
        act.category = EVENT_CATEGORY.get(act.event, NoiseCategory.OTHER)
        act.is_noise = _kact_is_noise_ref(act, meta, windows)

    for window in preemptions:
        window.category = EVENT_CATEGORY.get(
            window.event, NoiseCategory.OTHER
        )
        window.is_noise = (
            window.event == PREEMPT_EVENT
            and window.displaced_pid is not None
        )

    merged = kacts + preemptions
    merged.sort(key=lambda a: (a.start, a.cpu, a.depth))
    return merged


def _preemption_index_ref(
    preemptions: List[Activity],
) -> Dict[int, Tuple[List[int], List[Activity]]]:
    by_cpu: Dict[int, List[Activity]] = {}
    for window in preemptions:
        if window.event in (PREEMPT_EVENT, TRACER_PREEMPT_EVENT):
            by_cpu.setdefault(window.cpu, []).append(window)
    index: Dict[int, Tuple[List[int], List[Activity]]] = {}
    for cpu, windows in by_cpu.items():
        windows.sort(key=lambda w: w.start)
        index[cpu] = ([w.start for w in windows], windows)
    return index


def _kact_is_noise_ref(
    act: Activity,
    meta: TraceMeta,
    windows: Dict[int, Tuple[List[int], List[Activity]]],
) -> bool:
    category = act.category
    if category in (NoiseCategory.SERVICE, NoiseCategory.TRACER):
        return False
    kind = meta.kind_of(act.pid)
    if kind == TaskKind.RANK:
        return True
    if kind == TaskKind.IDLE:
        return False
    entry = windows.get(act.cpu)
    if entry is None:
        return False
    starts, cpu_windows = entry
    idx = bisect.bisect_right(starts, act.start) - 1
    if idx < 0:
        return False
    window = cpu_windows[idx]
    return window.end > act.start and window.displaced_pid is not None


class ReferenceAnalysis:
    """Original loop-based :class:`~repro.core.analysis.NoiseAnalysis`.

    Keeps the pre-refactor semantics throughout, including the historical
    quirk the satellite fix removed: ``total_noise_ns`` / ``breakdown_ns``
    sum activities on *all* CPUs while ``per_cpu_noise_ns`` drops
    ``cpu >= ncpus``.  Differential tests generate traces whose CPUs are
    all in range, where the two pipelines agree exactly.
    """

    def __init__(
        self,
        trace: Union[Trace, np.ndarray],
        meta: Optional[TraceMeta] = None,
        span_ns: Optional[int] = None,
        ncpus: Optional[int] = None,
    ) -> None:
        if isinstance(trace, Trace):
            records = trace.records()
            self.ncpus = ncpus if ncpus is not None else trace.ncpus
            self.start_ts = trace.start_ts
            self.end_ts = trace.end_ts
        else:
            records = np.asarray(trace, dtype=RECORD_DTYPE)
            self.ncpus = ncpus if ncpus is not None else (
                int(records["cpu"].max()) + 1 if len(records) else 1
            )
            self.start_ts = int(records["time"].min()) if len(records) else 0
            self.end_ts = int(records["time"].max()) if len(records) else 0
        if span_ns is not None:
            self.end_ts = self.start_ts + span_ns
        self.span_ns = max(1, self.end_ts - self.start_ts)
        self.records = records
        self.meta = meta if meta is not None else TraceMeta()

        kacts = build_activities_ref(records, end_ts=self.end_ts)
        preemptions = build_preemptions_ref(
            records, self.meta, end_ts=self.end_ts, kact_activities=kacts
        )
        self.activities: List[Activity] = classify_activities_ref(
            kacts, preemptions, self.meta
        )

    # -- selection ------------------------------------------------------
    def select(
        self,
        event: Union[int, str, None] = None,
        category: Optional[NoiseCategory] = None,
        cpu: Optional[int] = None,
        noise_only: bool = False,
        include_truncated: bool = False,
    ) -> List[Activity]:
        event_id = _resolve_event_ref(event)
        out = []
        for act in self.activities:
            if event_id is not None and act.event != event_id:
                continue
            if category is not None and act.category != category:
                continue
            if cpu is not None and act.cpu != cpu:
                continue
            if noise_only and not act.is_noise:
                continue
            if not include_truncated and act.truncated:
                continue
            out.append(act)
        return out

    def durations(
        self,
        event: Union[int, str],
        cpu: Optional[int] = None,
        noise_only: bool = False,
    ) -> np.ndarray:
        acts = self.select(event=event, cpu=cpu, noise_only=noise_only)
        return np.array([a.self_ns for a in acts], dtype=np.int64)

    # -- tables ---------------------------------------------------------
    def stats(
        self, event: Union[int, str], noise_only: bool = False
    ) -> DurationStats:
        durations = self.durations(event, noise_only=noise_only)
        return describe_ref(durations, self.span_ns, cpus=self.ncpus)

    def stats_by_event(
        self, noise_only: bool = True
    ) -> Dict[str, DurationStats]:
        groups: Dict[str, List[int]] = {}
        for act in self.activities:
            if act.truncated:
                continue
            if noise_only and not act.is_noise:
                continue
            groups.setdefault(act.name, []).append(act.self_ns)
        return {
            name: describe_ref(values, self.span_ns, cpus=self.ncpus)
            for name, values in sorted(groups.items())
        }

    # -- breakdown ------------------------------------------------------
    def breakdown_ns(self) -> Dict[NoiseCategory, int]:
        totals: Dict[NoiseCategory, int] = {
            c: 0 for c in BREAKDOWN_CATEGORIES
        }
        for act in self.activities:
            if act.is_noise:
                totals[act.category] = (
                    totals.get(act.category, 0) + act.self_ns
                )
        return totals

    def total_noise_ns(self) -> int:
        return sum(a.self_ns for a in self.activities if a.is_noise)

    def noise_fraction(self) -> float:
        return self.total_noise_ns() / (self.span_ns * self.ncpus)

    def per_cpu_noise_ns(self) -> np.ndarray:
        out = np.zeros(self.ncpus, dtype=np.int64)
        for act in self.activities:
            if act.is_noise and act.cpu < self.ncpus:
                out[act.cpu] += act.self_ns
        return out

    def per_cpu_breakdown(self) -> "Dict[int, Dict[NoiseCategory, int]]":
        out: Dict[int, Dict[NoiseCategory, int]] = {
            cpu: {c: 0 for c in BREAKDOWN_CATEGORIES}
            for cpu in range(self.ncpus)
        }
        for act in self.activities:
            if act.is_noise and act.cpu < self.ncpus:
                per_cpu = out[act.cpu]
                per_cpu[act.category] = (
                    per_cpu.get(act.category, 0) + act.self_ns
                )
        return out

    # -- timelines ------------------------------------------------------
    def noise_timeline(
        self,
        quantum_ns: int,
        cpu: Optional[int] = None,
        t0: Optional[int] = None,
        t1: Optional[int] = None,
    ) -> np.ndarray:
        if quantum_ns <= 0:
            raise ValueError("quantum must be positive")
        t0 = self.start_ts if t0 is None else t0
        t1 = self.end_ts if t1 is None else t1
        n = max(1, -(-(t1 - t0) // quantum_ns))
        out = np.zeros(n, dtype=np.float64)
        for act in self.activities:
            if not act.is_noise or act.end <= t0 or act.start >= t1:
                continue
            if cpu is not None and act.cpu != cpu:
                continue
            total = act.total_ns if act.total_ns > 0 else 1
            density = act.self_ns / total
            first = max(0, (act.start - t0) // quantum_ns)
            last = min(n - 1, (act.end - 1 - t0) // quantum_ns)
            for q in range(first, last + 1):
                q_begin = t0 + q * quantum_ns
                q_end = q_begin + quantum_ns
                out[q] += act.overlap(q_begin, q_end) * density
        return out

    def user_time_cumulative(
        self, cpu: int, t0: int, t1: int
    ) -> "np.ndarray":
        marks: List[tuple] = []
        for act in self.activities:
            if act.cpu != cpu or act.depth != 0:
                continue
            if act.end <= t0 or act.start >= t1:
                continue
            marks.append((max(act.start, t0), min(act.end, t1)))
        marks.sort()
        merged: List[tuple] = []
        for begin, end in marks:
            if merged and begin <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((begin, end))
        rows = [(t0, 0)]
        user = 0
        cursor = t0
        for begin, end in merged:
            if begin > cursor:
                user += begin - cursor
                cursor = begin
            rows.append((begin, user))
            if end > cursor:
                cursor = end
            rows.append((cursor, user))
        if cursor < t1:
            user += t1 - cursor
        rows.append((t1, user))
        return np.array(rows, dtype=np.int64)


def _resolve_event_ref(event: Union[int, str, None]) -> Optional[int]:
    if event is None:
        return None
    if isinstance(event, str):
        if event == PREEMPT_NAME:
            return PREEMPT_EVENT
        try:
            return NAME_TO_EVENT[event]
        except KeyError:
            raise ValueError(f"unknown event name: {event!r}") from None
    return int(event)


class ReferenceTimeline:
    """Original :class:`~repro.core.timeline.TaskTimeline`: one
    :class:`StateInterval` object per interval, summaries by Python loops
    over them."""

    def __init__(
        self,
        records: np.ndarray,
        meta: Optional[TraceMeta] = None,
        end_ts: Optional[int] = None,
    ) -> None:
        self.meta = meta if meta is not None else TraceMeta()
        if end_ts is None:
            end_ts = int(records["time"].max()) if len(records) else 0
        self.end_ts = int(end_ts)

        # Columnar pairing: keep task_state records in stable time order,
        # regroup by pid, and zip each pid's consecutive events into
        # intervals.  A final open interval extends to end_ts.
        sel = records[records["event"] == int(Ev.TASK_STATE)]
        order = np.argsort(sel["time"], kind="stable")
        times = sel["time"][order].astype(np.int64)
        args = sel["arg"][order]
        pids = (args >> np.uint64(8)).astype(np.int64)
        states = (args & np.uint64(0xFF)).astype(np.int64)

        intervals: Dict[int, List[StateInterval]] = {}
        if len(times):
            porder = np.argsort(pids, kind="stable")
            sp = pids[porder]
            st = times[porder]
            ss = states[porder]
            same_pid = sp[1:] == sp[:-1]
            pair = np.flatnonzero(same_pid & (st[1:] > st[:-1]))
            last = np.append(np.flatnonzero(~same_pid), len(sp) - 1)
            for i in pair.tolist():
                pid = int(sp[i])
                intervals.setdefault(pid, []).append(
                    StateInterval(
                        pid, TaskState(int(ss[i])), int(st[i]), int(st[i + 1])
                    )
                )
            for i in last.tolist():
                pid = int(sp[i])
                if self.end_ts > st[i]:
                    intervals.setdefault(pid, []).append(
                        StateInterval(
                            pid,
                            TaskState(int(ss[i])),
                            int(st[i]),
                            self.end_ts,
                        )
                    )
        self._intervals = intervals
        self._starts: Dict[int, List[int]] = {
            pid: [iv.start for iv in ivs] for pid, ivs in intervals.items()
        }

    # ------------------------------------------------------------------
    def pids(self) -> List[int]:
        return sorted(self._intervals)

    def intervals(
        self, pid: int, state: Optional[TaskState] = None
    ) -> List[StateInterval]:
        """All (or one state's) intervals of a task, time-ordered."""
        out = self._intervals.get(pid, [])
        if state is None:
            return list(out)
        return [iv for iv in out if iv.state == state]

    def state_at(self, pid: int, time_ns: int) -> Optional[TaskState]:
        """The task's state at an instant (None before its first event)."""
        starts = self._starts.get(pid)
        if not starts:
            return None
        idx = bisect.bisect_right(starts, time_ns) - 1
        if idx < 0:
            return None
        interval = self._intervals[pid][idx]
        if interval.start <= time_ns < interval.end:
            return interval.state
        # Past the last interval: the last known state persists.
        if time_ns >= interval.end and interval is self._intervals[pid][-1]:
            return interval.state
        return None

    def time_in_state(self, pid: int, state: TaskState) -> int:
        """Total nanoseconds the task spent in a state."""
        return sum(iv.duration_ns for iv in self.intervals(pid, state))

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def occupancy(self, pid: int) -> Dict[TaskState, float]:
        """Fraction of the observed window per state."""
        total = sum(iv.duration_ns for iv in self._intervals.get(pid, []))
        if total == 0:
            return {}
        out: Dict[TaskState, float] = {}
        for iv in self._intervals[pid]:
            out[iv.state] = out.get(iv.state, 0.0) + iv.duration_ns / total
        return out

    def wait_times(self, pid: int) -> np.ndarray:
        """Durations of RUNNABLE episodes: how long the task waited for a
        CPU after being displaced or woken (scheduler-latency view)."""
        return np.array(
            [iv.duration_ns for iv in self.intervals(pid, TaskState.RUNNABLE)],
            dtype=np.int64,
        )

    def blocked_times(self, pid: int) -> np.ndarray:
        """Durations of BLOCKED episodes (I/O and communication waits)."""
        return np.array(
            [iv.duration_ns for iv in self.intervals(pid, TaskState.BLOCKED)],
            dtype=np.int64,
        )

    def summary(self) -> Dict[int, Dict[str, float]]:
        """Per-application-task digest used by reports.

        Occupancy fractions are floats; episode counts and nanosecond
        sums stay int64-exact (NSX rules) — ``mean_wait_ns`` is the floor
        of the exact integer quotient, never a lossy float mean.
        """
        out: Dict[int, Dict[str, float]] = {}
        for pid in self.pids():
            if not self.meta.is_application(pid):
                continue
            occ = self.occupancy(pid)
            waits = self.wait_times(pid)
            total_wait = int(waits.sum())
            out[pid] = {
                "running": occ.get(TaskState.RUNNING, 0.0),
                "runnable": occ.get(TaskState.RUNNABLE, 0.0),
                "blocked": occ.get(TaskState.BLOCKED, 0.0),
                "wait_episodes": int(waits.size),
                "total_wait_ns": total_wait,
                "mean_wait_ns": total_wait // int(waits.size)
                if waits.size
                else 0,
            }
        return out


def fold_moments_ref(
    all_moments: Dict[Tuple[int, int], Moments],
    noise_moments: Dict[Tuple[int, int], Moments],
    events: np.ndarray,
    pids: np.ndarray,
    noise: np.ndarray,
    values: np.ndarray,
) -> None:
    """The moments fold as first written, the oracle of
    :func:`repro.core.analysis.fold_moments`: a stable three-key sort,
    and every group's sum of squares taken in Python ints, one value at
    a time."""
    order = np.lexsort((noise, pids, events))
    events = events[order]
    pids = pids[order]
    noise = noise[order]
    values = values[order]
    new = np.empty(len(values), dtype=bool)
    new[0] = True
    new[1:] = (
        (events[1:] != events[:-1]) | (pids[1:] != pids[:-1])
        | (noise[1:] != noise[:-1])
    )
    heads = np.flatnonzero(new)
    ends = np.append(heads[1:], len(values)).tolist()
    totals = np.add.reduceat(values, heads).tolist()
    mins = np.minimum.reduceat(values, heads).tolist()
    maxs = np.maximum.reduceat(values, heads).tolist()
    flat = values.tolist()
    for i, (head, event, pid, is_noise) in enumerate(zip(
        heads.tolist(), events[heads].tolist(), pids[heads].tolist(),
        noise[heads].tolist(),
    )):
        part = flat[head:ends[i]]
        moments = (
            len(part), totals[i], mins[i], maxs[i], sum(map(mul, part, part))
        )
        tables = (all_moments, noise_moments) if is_noise else (all_moments,)
        for table in tables:
            acc = table.get((event, pid))
            if acc is None:
                acc = table[(event, pid)] = Moments()
            acc.fold(*moments)


#: Display character per category value, as the ASCII trace legend has it.
ASCII_CHAR_REF = {
    "periodic": "t", "page fault": "F", "scheduling": "s", "preemption": "P",
    "io": "n", "service": ".", "tracer": "~", "other": "?",
}


def ascii_trace_ref(
    activities: List[Activity], t0: int, t1: int, ncpus: int, width: int
) -> str:
    """The ASCII trace as first specified, the oracle of
    :func:`repro.core.report.render_ascii_trace`: for every cell
    ``[t0 + span*c//width, t0 + span*(c+1)//width)`` of every CPU, loop
    over the activities in table order, add each positive exact overlap
    to a dict keyed by category (insertion order), and show the first
    key with the most ns."""
    span = t1 - t0
    lines = []
    for cpu in range(ncpus):
        on_cpu = [act for act in activities if act.cpu == cpu]
        chars = []
        for cell in range(width):
            begin = t0 + span * cell // width
            end = t0 + span * (cell + 1) // width
            bucket: Dict[str, int] = {}
            for act in on_cpu:
                overlap = min(act.end, end) - max(act.start, begin)
                if overlap > 0:
                    key = act.category.value
                    bucket[key] = bucket.get(key, 0) + overlap
            chars.append(
                ASCII_CHAR_REF[max(bucket, key=bucket.get)] if bucket else " "
            )
        lines.append(f"cpu{cpu}: |{''.join(chars)}|")
    legend = "  ".join(f"{c}={name}" for name, c in ASCII_CHAR_REF.items())
    lines.append(f"legend: {legend}  (space = user computation)")
    return "\n".join(lines)


def interruptions_ref(
    activities: List[Activity],
    merge_gap_ns: int = 300,
    cpu: Optional[int] = None,
    noise_only: bool = True,
) -> List[Interruption]:
    """Interruptions by a per-CPU merge over ``Activity`` lists, the
    oracle of :func:`repro.core.chart.build_interruptions`: each CPU's
    activities in ``(start, depth)`` order (table order on ties) join the
    open group while they start within ``merge_gap_ns`` of its end."""
    chosen = [
        a for a in activities
        if (a.is_noise or not noise_only) and (cpu is None or a.cpu == cpu)
    ]
    out: List[Interruption] = []
    for c in sorted({a.cpu for a in chosen}):
        group: Optional[Interruption] = None
        for act in sorted(
            (a for a in chosen if a.cpu == c), key=lambda a: (a.start, a.depth)
        ):
            if group is not None and act.start <= group.end + merge_gap_ns:
                group.activities.append(act)
                group.end = max(group.end, act.end)
            else:
                group = Interruption(
                    cpu=c, start=act.start, end=act.end, activities=[act]
                )
                out.append(group)
    out.sort(key=lambda g: (g.start, g.cpu))
    return out


class ReferenceChart:
    """The synthetic noise chart's queries as first written, over an
    :func:`interruptions_ref` list: the oracle of
    :class:`repro.core.chart.SyntheticNoiseChart` as
    :func:`repro.core.report.render_chart` reads it."""

    def __init__(
        self, analysis, groups: List[Interruption], cpu: Optional[int] = None
    ) -> None:
        self.analysis = analysis
        self.groups = groups
        self.cpu = cpu

    def __len__(self) -> int:
        return len(self.groups)

    def largest(self, n: int) -> List[Interruption]:
        return sorted(self.groups, key=lambda g: g.noise_ns, reverse=True)[:n]

    def window(
        self, t0: int, t1: int, limit: Optional[int] = None
    ) -> List[Interruption]:
        """Every group starting in ``[t0, t1)``, whatever ``limit``
        says: the chart's window took no limit, and ``render_chart``'s
        ``...`` line is checked against the whole window."""
        return [g for g in self.groups if t0 <= g.start < t1]

    def at(self, time_ns: int, slack_ns: int = 0) -> Optional[Interruption]:
        best, best_gap = None, 0
        for g in self.groups:
            if g.start - slack_ns <= time_ns <= g.end + slack_ns:
                gap = 0 if g.start <= time_ns <= g.end else min(
                    abs(g.start - time_ns), abs(g.end - time_ns)
                )
                if best is None or gap < best_gap:
                    best, best_gap = g, gap
        return best
