"""Data model of the offline noise analysis.

An :class:`Activity` is one reconstructed kernel activity instance — a timer
interrupt, one ``run_timer_softirq`` execution, a page fault, or a pseudo
activity derived from scheduler events (a daemon preempting a rank).  The
paper's key accounting subtlety lives here: activities *nest* (an interrupt
during an exception handler), so each activity has both a **total** duration
(wall time from entry to exit) and a **self** duration (total minus nested
children).  Statistics use self time so nothing is double counted.

The analysis pipeline stores activities columnar: :class:`ActivityTable` is
one numpy structured array built once per trace and queried with masks.
Every consumer of reconstructed activities takes the table.  The
:class:`Activity` dataclass is its object view, materialized lazily via
:meth:`ActivityTable.rows` for the few callers that want one object per
row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simkernel.task import TaskKind
from repro.tracing.events import Ev, event_name

#: Pseudo event id for scheduler-derived preemption activities.
PREEMPT_EVENT = 100
#: Pseudo event id for preemptions by the tracer's own daemon (excluded
#: from noise totals, following the paper's footnote 4).
TRACER_PREEMPT_EVENT = 101


def activity_name(event: int, pid: int, meta: "TraceMeta") -> str:
    """Display name of an activity: the kernel event name, or
    ``preempt:<daemon name>`` for the preemption pseudo-events."""
    if event == PREEMPT_EVENT or event == TRACER_PREEMPT_EVENT:
        return f"preempt:{meta.name_of(pid)}"
    return event_name(event)


class NoiseCategory(Enum):
    """The paper's five noise categories (Section IV-A) plus bookkeeping."""

    PERIODIC = "periodic"        # timer interrupt + run_timer_softirq
    PAGE_FAULT = "page fault"    # page fault exception handler
    SCHEDULING = "scheduling"    # schedule() + rcu + run_rebalance_domains
    PREEMPTION = "preemption"    # daemons displacing application processes
    IO = "io"                    # net irq handler + rx/tx tasklets
    SERVICE = "service"          # requested by the app (syscalls): not noise
    TRACER = "tracer"            # lttng-noise's own daemon: excluded
    OTHER = "other"


#: Category of each paired kernel event.
EVENT_CATEGORY: Dict[int, NoiseCategory] = {
    Ev.IRQ_TIMER: NoiseCategory.PERIODIC,
    Ev.SOFTIRQ_TIMER: NoiseCategory.PERIODIC,
    Ev.EXC_PAGE_FAULT: NoiseCategory.PAGE_FAULT,
    Ev.SCHED_CALL: NoiseCategory.SCHEDULING,
    Ev.SOFTIRQ_RCU: NoiseCategory.SCHEDULING,
    Ev.SOFTIRQ_SCHED: NoiseCategory.SCHEDULING,
    Ev.IRQ_NET: NoiseCategory.IO,
    Ev.TASKLET_NET_RX: NoiseCategory.IO,
    Ev.TASKLET_NET_TX: NoiseCategory.IO,
    Ev.SYSCALL: NoiseCategory.SERVICE,
    Ev.TRACER_FLUSH: NoiseCategory.TRACER,
    Ev.INJECTED: NoiseCategory.OTHER,
    PREEMPT_EVENT: NoiseCategory.PREEMPTION,
    TRACER_PREEMPT_EVENT: NoiseCategory.TRACER,
}

#: The five categories shown in Figure 3, in the paper's order.
BREAKDOWN_CATEGORIES: Tuple[NoiseCategory, ...] = (
    NoiseCategory.PERIODIC,
    NoiseCategory.PAGE_FAULT,
    NoiseCategory.SCHEDULING,
    NoiseCategory.PREEMPTION,
    NoiseCategory.IO,
)

#: Stable integer codes for the ``category`` column of an ActivityTable.
CATEGORY_ORDER: Tuple[NoiseCategory, ...] = tuple(NoiseCategory)
CATEGORY_CODE: Dict[NoiseCategory, int] = {
    c: i for i, c in enumerate(CATEGORY_ORDER)
}

#: Column layout of the columnar activity store.  ``displaced_pid`` uses -1
#: as the "not a preemption window" sentinel (the dataclass shows None).
ACTIVITY_DTYPE = np.dtype(
    [
        ("event", "<i4"),
        ("cpu", "<i4"),
        ("pid", "<i4"),
        ("start", "<i8"),
        ("end", "<i8"),
        ("total_ns", "<i8"),
        ("self_ns", "<i8"),
        ("depth", "<i4"),
        ("arg", "<u8"),
        ("category", "i1"),
        ("is_noise", "?"),
        ("truncated", "?"),
        ("displaced_pid", "<i8"),
    ]
)


def concat_rows(parts: Sequence[np.ndarray]) -> np.ndarray:
    """``np.concatenate`` for structured arrays of one dtype, without
    numpy's per-call field promotion (a Python-level step that costs more
    than the copy on small blocks).  A lone non-empty part is returned
    as is, not copied."""
    if len(parts) > 1:
        parts = [part for part in parts if len(part)] or parts[:1]
    if len(parts) == 1:
        return parts[0]
    dtype = parts[0].dtype
    raw = np.dtype((np.void, dtype.itemsize))
    return np.concatenate([part.view(raw) for part in parts]).view(dtype)


def take_rows(arr: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``arr[index]`` (integer indices or a boolean mask) for a structured
    array.  ``take``/``compress`` move whole rows as bytes; fancy
    indexing copies a structured array field by field, at about ten
    times the cost."""
    if index.dtype == np.bool_:
        return arr.compress(index)
    return arr.take(index)


def cpu_time_keys(
    *pairs: Tuple[np.ndarray, np.ndarray]
) -> List[np.ndarray]:
    """One int64 key per ``(cpu, time)`` element of each ``(cpus, times)``
    pair, ordered like the pairs themselves (CPU-major), so one sorted
    key array and ``searchsorted`` serve every CPU at once.  Times enter
    as their dense rank, so keys cannot overflow."""
    uniq, rank = np.unique(
        np.concatenate([times for _, times in pairs]), return_inverse=True
    )
    keys = (
        np.concatenate([cpus for cpus, _ in pairs]).astype(np.int64)
        * len(uniq) + rank
    )
    bounds = np.cumsum([len(times) for _, times in pairs]).tolist()
    return [keys[lo:hi] for lo, hi in zip([0] + bounds, bounds)]


class PidKinds:
    """The :class:`TaskKind` code of every pid seen, asking
    ``meta.kind_of`` once per distinct pid.  Each pid gets a dense slot
    when first seen, so ``kind[slots(pids)]`` is one gather and
    ``(slot, position)`` keys stay small."""

    __slots__ = ("_meta", "kind", "_sorted", "_slot")

    def __init__(self, meta: "TraceMeta") -> None:
        self._meta = meta
        #: Kind code per slot; registering pids replaces the array, so
        #: index it after :meth:`slots` has returned.
        self.kind = np.zeros(0, dtype=np.int8)
        # Known pids ascending, and the slot of each.
        self._sorted = np.zeros(0, dtype=np.int64)
        self._slot = np.zeros(0, dtype=np.int64)

    def slots(self, pids: np.ndarray) -> np.ndarray:
        """Slot of each pid (int64 array), registering new pids."""
        at = self._sorted.searchsorted(pids)
        if len(pids) and (not len(self._sorted) or not (
            self._sorted.take(at, mode="clip") == pids
        ).all()):
            self._register(pids)
            at = self._sorted.searchsorted(pids)
        return self._slot[at]

    def _register(self, pids: np.ndarray) -> None:
        new = np.sort(pids)
        new = new[np.append(True, new[1:] != new[:-1])]
        if len(self._sorted):
            at = self._sorted.searchsorted(new)
            new = new[self._sorted.take(at, mode="clip") != new]
        kind_of = self._meta.kind_of
        self.kind = np.concatenate((
            self.kind,
            np.array([kind_of(pid) for pid in new.tolist()], dtype=np.int8),
        ))
        pids = np.concatenate((self._sorted, new))
        slots = np.concatenate(
            (self._slot, np.arange(len(self._slot), len(pids)))
        )
        order = pids.argsort()
        self._sorted = pids[order]
        self._slot = slots[order]


@dataclass
class Activity:
    """One reconstructed kernel activity instance."""

    event: int
    name: str
    cpu: int
    #: Context pid: whose execution this activity sat on top of.
    pid: int
    start: int
    end: int
    #: Wall duration (end - start).
    total_ns: int
    #: Duration minus nested children (what this activity itself consumed).
    self_ns: int
    #: Nesting depth (0 = directly above the context frame).
    depth: int = 0
    arg: int = 0
    #: For preemption pseudo-activities: the displaced application pid.
    displaced_pid: Optional[int] = None
    #: True when the trace ended before the activity's EXIT record.
    truncated: bool = False
    category: NoiseCategory = NoiseCategory.OTHER
    #: Does this activity count as OS noise (classify.py decides)?
    is_noise: bool = False

    def overlap(self, begin: int, end: int) -> int:
        """Wall-clock overlap of this activity with a window, in ns."""
        return max(0, min(self.end, end) - max(self.start, begin))


class ActivityTable:
    """Columnar store of reconstructed activities: one structured array.

    The analysis pipeline builds the table once per trace and answers every
    query with column masks (``np.bincount`` / ``searchsorted`` /
    ``np.add.at``) instead of iterating Python objects.  ``rows()`` is
    the object view: it materializes (a masked subset of) the table as
    :class:`Activity` instances.

    ``meta`` is kept so preemption pseudo-activities can resolve their
    ``preempt:<daemon>`` display names.
    """

    __slots__ = ("data", "meta", "_names")

    def __init__(
        self, data: np.ndarray, meta: Optional["TraceMeta"] = None
    ) -> None:
        self.data = np.asarray(data, dtype=ACTIVITY_DTYPE)
        self.meta = meta
        self._names: Optional[np.ndarray] = None

    # -- construction ---------------------------------------------------
    @classmethod
    def empty(cls, meta: Optional["TraceMeta"] = None) -> "ActivityTable":
        return cls(np.zeros(0, dtype=ACTIVITY_DTYPE), meta=meta)

    @classmethod
    def from_columns(
        cls, n: int, meta: Optional["TraceMeta"] = None, **columns
    ) -> "ActivityTable":
        """Build a table from per-column sequences (missing columns get
        their neutral defaults: category OTHER, displaced_pid -1)."""
        data = np.zeros(n, dtype=ACTIVITY_DTYPE)
        data["category"] = CATEGORY_CODE[NoiseCategory.OTHER]
        data["displaced_pid"] = -1
        for name, values in columns.items():
            data[name] = values
        return cls(data, meta=meta)

    # -- column access ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.data)

    def __getattr__(self, name: str) -> np.ndarray:
        # Column views: table.start, table.self_ns, table.is_noise, ...
        try:
            return self.data[name]
        except (KeyError, ValueError):
            raise AttributeError(name) from None

    def take(self, index: np.ndarray) -> "ActivityTable":
        """Sub-table of the given indices or boolean mask."""
        return ActivityTable(
            take_rows(self.data, np.asarray(index)), meta=self.meta
        )

    def mask(
        self,
        event: Optional[int] = None,
        category: Optional[NoiseCategory] = None,
        cpu: Optional[int] = None,
        noise_only: bool = False,
        include_truncated: bool = True,
    ) -> np.ndarray:
        """Boolean row mask for the standard selection axes."""
        m = np.ones(len(self.data), dtype=bool)
        if event is not None:
            m &= self.data["event"] == event
        if category is not None:
            m &= self.data["category"] == CATEGORY_CODE[category]
        if cpu is not None:
            m &= self.data["cpu"] == cpu
        if noise_only:
            m &= self.data["is_noise"]
        if not include_truncated:
            m &= ~self.data["truncated"]
        return m

    # -- row views -------------------------------------------------------
    def names(self) -> np.ndarray:
        """Display name per row (object array, cached).

        Paired kernel activities map through :func:`event_name`;
        preemption pseudo-activities render as ``preempt:<daemon name>``
        using the attached :class:`TraceMeta`.  Rows are grouped on one
        int64 key — the event id, plus the pid for preemption
        pseudo-events — so a name is resolved once per distinct key,
        never per row.
        """
        if self._names is None:
            events = self.data["event"]
            pids = self.data["pid"]
            keys = events.astype(np.int64) << 32
            preempt = (
                (events == PREEMPT_EVENT) | (events == TRACER_PREEMPT_EVENT)
            )
            keys[preempt] |= pids[preempt].astype(np.int64) & 0xFFFFFFFF
            _, first, inv = np.unique(
                keys, return_index=True, return_inverse=True
            )
            meta = self.meta if self.meta is not None else TraceMeta()
            names = [
                activity_name(event, pid, meta)
                for event, pid in zip(
                    events[first].tolist(), pids[first].tolist()
                )
            ]
            self._names = np.array(names, dtype=object)[inv]
        return self._names

    def rows(self, mask: Optional[np.ndarray] = None) -> List[Activity]:
        """Materialize (a masked subset of) the table as Activity objects."""
        data = self.data if mask is None else self.data[mask]
        names = self.names() if mask is None else self.names()[mask]
        cats = CATEGORY_ORDER
        out: List[Activity] = []
        for i, (
            event, cpu, pid, start, end, total, self_ns, depth, arg,
            code, is_noise, truncated, displaced,
        ) in enumerate(data.tolist()):
            out.append(
                Activity(
                    event=event,
                    name=names[i],
                    cpu=cpu,
                    pid=pid,
                    start=start,
                    end=end,
                    total_ns=total,
                    self_ns=self_ns,
                    depth=depth,
                    arg=arg,
                    displaced_pid=None if displaced < 0 else displaced,
                    truncated=truncated,
                    category=cats[code],
                    is_noise=is_noise,
                )
            )
        return out


@dataclass
class Interruption:
    """A maximal group of temporally-adjacent noise activities on one CPU.

    This is what the synthetic OS noise chart plots: FTQ perceives one
    "spike", the trace decomposes it into components (Figure 1b/1d).
    """

    cpu: int
    start: int
    end: int
    activities: List[Activity] = field(default_factory=list)

    @property
    def noise_ns(self) -> int:
        """Total noise of the interruption (sum of component self-times)."""
        return sum(a.self_ns for a in self.activities)

    @property
    def span_ns(self) -> int:
        return self.end - self.start

    def signature(self) -> Tuple[str, ...]:
        """Ordered component names — the interruption's *composition*.

        Two interruptions with equal durations but different signatures are
        exactly what Section V disambiguates.
        """
        return tuple(a.name for a in sorted(self.activities, key=lambda a: a.start))

    def describe(self) -> str:
        parts = ", ".join(
            f"{a.name} ({a.self_ns} ns)"
            for a in sorted(self.activities, key=lambda a: a.start)
        )
        return f"[{self.start}-{self.end}] cpu{self.cpu}: {parts}"


@dataclass(frozen=True)
class TaskInfo:
    pid: int
    name: str
    kind: TaskKind


class TraceMeta:
    """Sidecar metadata: pid -> task identity.

    Trace records carry pids only; names and kinds (rank vs. kernel daemon
    vs. the tracer daemon) come from this table.  When absent, the analyzer
    falls back to the node's pid-allocation convention (ranks >= 1000,
    daemons 100-999, idle 0).
    """

    def __init__(self, tasks: Optional[Dict[int, TaskInfo]] = None) -> None:
        self.tasks: Dict[int, TaskInfo] = dict(tasks or {})

    @staticmethod
    def from_node(node) -> "TraceMeta":
        tasks = {
            t.pid: TaskInfo(t.pid, t.name, t.kind) for t in node.tasks.values()
        }
        for idle in node.idle_tasks:
            tasks.setdefault(idle.pid, TaskInfo(idle.pid, idle.name, idle.kind))
        return TraceMeta(tasks)

    # ------------------------------------------------------------------
    # Serialization (the sidecar file next to a binary trace)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "tasks": [
                    {"pid": t.pid, "name": t.name, "kind": int(t.kind)}
                    for t in sorted(self.tasks.values(), key=lambda t: t.pid)
                ]
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "TraceMeta":
        import json

        data = json.loads(text)
        tasks = {}
        for entry in data.get("tasks", []):
            info = TaskInfo(
                int(entry["pid"]), str(entry["name"]), TaskKind(int(entry["kind"]))
            )
            tasks[info.pid] = info
        return TraceMeta(tasks)

    def to_file(self, path: str) -> None:
        with open(path, "w") as fp:
            fp.write(self.to_json())

    @staticmethod
    def from_file(path: str) -> "TraceMeta":
        with open(path) as fp:
            return TraceMeta.from_json(fp.read())

    # ------------------------------------------------------------------
    def kind_of(self, pid: int) -> TaskKind:
        info = self.tasks.get(pid)
        if info is not None:
            return info.kind
        if pid == 0:
            return TaskKind.IDLE
        if pid >= 1000:
            return TaskKind.RANK
        return TaskKind.KDAEMON

    def name_of(self, pid: int) -> str:
        info = self.tasks.get(pid)
        if info is not None:
            return info.name
        if pid == 0:
            return "swapper"
        return f"pid{pid}"

    def is_application(self, pid: int) -> bool:
        return self.kind_of(pid) == TaskKind.RANK

