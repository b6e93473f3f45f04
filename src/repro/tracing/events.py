"""Kernel trace-event vocabulary.

The paper instruments *all* kernel entry and exit points (interrupts,
exceptions, system calls) plus the main kernel activities (scheduler,
softirqs, memory management).  This module defines that vocabulary for the
simulated node: numeric event IDs, entry/exit/point flags, kernel-style
names, and the fixed binary record layout shared by the ring buffers and the
CTF codec.
"""

from __future__ import annotations

import struct
from enum import IntEnum
from typing import Dict, List, Tuple

import numpy as np


class Ev(IntEnum):
    """Trace event identifiers.

    IDs below :data:`FIRST_POINT_EVENT` are *paired* activities: every ENTRY
    record is matched by an EXIT record on the same CPU, and pairs may nest
    (an interrupt arriving during an exception handler).  IDs at or above it
    are instantaneous *point* events.
    """

    # --- paired kernel activities -------------------------------------
    IRQ_TIMER = 1          # local APIC timer interrupt (top half)
    IRQ_NET = 2            # network device interrupt (top half)
    SOFTIRQ_TIMER = 3      # run_timer_softirq (the paper's "bottom half")
    SOFTIRQ_RCU = 4        # rcu_process_callbacks
    SOFTIRQ_SCHED = 5      # run_rebalance_domains
    TASKLET_NET_RX = 6     # net_rx_action (serialized tasklet)
    TASKLET_NET_TX = 7     # net_tx_action (serialized tasklet)
    EXC_PAGE_FAULT = 8     # page fault exception handler
    SYSCALL = 9            # system call entry/exit
    SCHED_CALL = 10        # the schedule() function itself
    TRACER_FLUSH = 11      # the lttng-noise collection daemon's own activity
    INJECTED = 12          # synthetic noise from the injection framework

    # --- point events ---------------------------------------------------
    SCHED_SWITCH = 32      # context switch: arg = prev_pid << 32 | next_pid
    SCHED_WAKEUP = 33      # task wakeup: arg = pid
    SCHED_MIGRATE = 34     # task migration: arg = pid << 8 | dest_cpu
    TASK_STATE = 35        # task state change: arg = pid << 8 | TaskState
    TIMER_EXPIRE = 36      # software timer fired: arg = timer id
    MARKER = 37            # workload marker (phase change, FTQ quantum, ...)


#: Event IDs >= this value are point events (no EXIT record).
FIRST_POINT_EVENT = 32


class Flag(IntEnum):
    """Record flag: activity boundary kind."""

    ENTRY = 0
    EXIT = 1
    POINT = 2


#: Kernel-style display names, matching the paper's terminology.
EVENT_NAMES: Dict[int, str] = {
    Ev.IRQ_TIMER: "timer_interrupt",
    Ev.IRQ_NET: "net_interrupt",
    Ev.SOFTIRQ_TIMER: "run_timer_softirq",
    Ev.SOFTIRQ_RCU: "rcu_process_callbacks",
    Ev.SOFTIRQ_SCHED: "run_rebalance_domains",
    Ev.TASKLET_NET_RX: "net_rx_action",
    Ev.TASKLET_NET_TX: "net_tx_action",
    Ev.EXC_PAGE_FAULT: "page_fault",
    Ev.SYSCALL: "syscall",
    Ev.SCHED_CALL: "schedule",
    Ev.TRACER_FLUSH: "tracer_flush",
    Ev.INJECTED: "injected_noise",
    Ev.SCHED_SWITCH: "sched_switch",
    Ev.SCHED_WAKEUP: "sched_wakeup",
    Ev.SCHED_MIGRATE: "sched_migrate",
    Ev.TASK_STATE: "task_state",
    Ev.TIMER_EXPIRE: "timer_expire",
    Ev.MARKER: "marker",
}

NAME_TO_EVENT: Dict[str, int] = {name: ev for ev, name in EVENT_NAMES.items()}


def is_paired(event: int) -> bool:
    """True if the event has ENTRY/EXIT records (a kernel activity)."""
    return event < FIRST_POINT_EVENT


def event_name(event: int) -> str:
    """Kernel-style name for an event ID (``event_<n>`` if unknown)."""
    return EVENT_NAMES.get(event, f"event_{event}")


# ----------------------------------------------------------------------
# Binary record layout (shared by ring buffers and the CTF codec)
# ----------------------------------------------------------------------

#: struct format of one record: time u64, event u16, cpu u8, flag u8,
#: pid i32, arg u64 — 24 bytes, little endian, no padding.
RECORD_STRUCT = struct.Struct("<QHBBiQ")

#: Size of one serialized record in bytes.
RECORD_SIZE = RECORD_STRUCT.size

#: numpy dtype matching :data:`RECORD_STRUCT`, for bulk decoding.
RECORD_DTYPE = np.dtype(
    [
        ("time", "<u8"),
        ("event", "<u2"),
        ("cpu", "u1"),
        ("flag", "u1"),
        ("pid", "<i4"),
        ("arg", "<u8"),
    ]
)

assert RECORD_DTYPE.itemsize == RECORD_SIZE, "record dtype must be packed"


# ----------------------------------------------------------------------
# Argument encoding helpers for point events
# ----------------------------------------------------------------------

def encode_switch(prev_pid: int, next_pid: int) -> int:
    """Pack a context-switch argument."""
    if not (0 <= prev_pid < 2**31 and 0 <= next_pid < 2**31):
        raise ValueError("pids must fit in 31 bits")
    return (prev_pid << 32) | next_pid


def decode_switch(arg: int) -> "Tuple[int, int]":
    """Unpack a context-switch argument into ``(prev_pid, next_pid)``."""
    return (int(arg) >> 32, int(arg) & 0xFFFFFFFF)


def encode_task_state(pid: int, state: int) -> int:
    """Pack a task-state-change argument."""
    if not 0 <= state < 256:
        raise ValueError("state must fit in 8 bits")
    return (pid << 8) | state


def decode_task_state(arg: int) -> "Tuple[int, int]":
    """Unpack a task-state-change argument into ``(pid, state)``."""
    return (int(arg) >> 8, int(arg) & 0xFF)


def encode_migrate(pid: int, dest_cpu: int) -> int:
    """Pack a migration argument."""
    if not 0 <= dest_cpu < 256:
        raise ValueError("dest_cpu must fit in 8 bits")
    return (pid << 8) | dest_cpu


class TraceSink:
    """Destination for tracepoint records.

    The simulated kernel calls :meth:`emit` at every instrumentation point.
    ``record_overhead_ns`` is the cost of writing one record; the kernel adds
    it to the duration of the enclosing activity so that enabling tracing
    *perturbs the simulation itself*, exactly as real instrumentation does
    (this is what the paper's 0.28 % overhead figure measures).
    """

    #: Simulated cost of writing a single record, in nanoseconds.
    record_overhead_ns: int = 0

    def emit(
        self, time: int, event: int, cpu: int, flag: int, pid: int, arg: int
    ) -> None:
        raise NotImplementedError

    def cost_ns(self, event: int) -> int:
        """Write cost for one record of this event type.

        Sinks that filter events return 0 for disabled ones — a compiled-in
        but disabled tracepoint costs (almost) nothing, which is exactly why
        LTTng-style static instrumentation is viable."""
        return self.record_overhead_ns


class NullSink(TraceSink):
    """Discard all records (tracing disabled)."""

    record_overhead_ns = 0

    def emit(
        self, time: int, event: int, cpu: int, flag: int, pid: int, arg: int
    ) -> None:
        pass


class ListSink(TraceSink):
    """Collect records into a Python list — handy for unit tests."""

    def __init__(self, record_overhead_ns: int = 0) -> None:
        self.records: List[Tuple[int, int, int, int, int, int]] = []
        self.record_overhead_ns = record_overhead_ns

    def emit(
        self, time: int, event: int, cpu: int, flag: int, pid: int, arg: int
    ) -> None:
        self.records.append((time, event, cpu, flag, pid, arg))

    def as_array(self) -> np.ndarray:
        """Return collected records as a numpy structured array."""
        arr = np.zeros(len(self.records), dtype=RECORD_DTYPE)
        for i, (t, e, c, f, p, a) in enumerate(self.records):
            arr[i] = (t, e, c, f, p, a)
        return arr
