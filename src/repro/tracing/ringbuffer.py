"""Per-CPU ring buffers, after LTTng's design.

LTTng achieves its low overhead with per-CPU, lock-less ring buffers split
into *sub-buffers*: the tracer writes into the current sub-buffer and flips
to the next when full; the consumer daemon takes completed sub-buffers.  If
the consumer falls behind, either new events are *discarded* or the oldest
unconsumed sub-buffer is *overwritten* (flight-recorder mode) — both modes
count what was lost, because honest lost-event accounting is part of trace
correctness.

The simulation is single-threaded so no actual locking is needed; what this
module preserves is the *semantics*: bounded memory, sub-buffer granularity,
per-mode loss behaviour and loss accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List

from repro.tracing.events import RECORD_SIZE, RECORD_STRUCT

_pack = RECORD_STRUCT.pack

#: Largest sub-buffer, and so the largest packet payload a reader
#: accepts: 256x the tracer's default sub-buffer.
MAX_SUBBUF_BYTES = 64 << 20


class Mode(Enum):
    """What to do when the buffer is full."""

    DISCARD = "discard"      # drop new events
    OVERWRITE = "overwrite"  # drop the oldest unconsumed sub-buffer


@dataclass
class SubBuffer:
    """One sub-buffer: a bounded byte area plus packet metadata."""

    capacity_bytes: int
    data: bytearray = field(default_factory=bytearray)
    begin_ts: int = 0
    end_ts: int = 0
    n_records: int = 0
    #: Events lost (discarded or overwritten) before this sub-buffer.
    lost_before: int = 0


class RingBuffer:
    """One CPU's ring of sub-buffers."""

    def __init__(
        self,
        cpu: int,
        subbuf_size: int = 64 * 1024,
        n_subbufs: int = 4,
        mode: Mode = Mode.DISCARD,
    ) -> None:
        if subbuf_size < RECORD_SIZE:
            raise ValueError("sub-buffer must hold at least one record")
        if subbuf_size > MAX_SUBBUF_BYTES:
            raise ValueError(
                f"sub-buffer must be at most {MAX_SUBBUF_BYTES} bytes"
            )
        if n_subbufs < 2:
            raise ValueError("need at least two sub-buffers")
        self.cpu = cpu
        self.subbuf_size = subbuf_size
        self.n_subbufs = n_subbufs
        self.mode = mode
        self._current = SubBuffer(subbuf_size)
        #: A sub-buffer holding more bytes than this has no room for one
        #: more record.
        self._last_offset = subbuf_size - RECORD_SIZE
        #: Completed, unconsumed sub-buffers (oldest first).
        self._full: List[SubBuffer] = []
        self.records_written = 0
        self.records_lost = 0
        self.overwritten_subbufs = 0
        self.subbuf_switches = 0
        self._lost_since_switch = 0
        self._last_loss_ts = 0

    # ------------------------------------------------------------------
    def write(
        self, time: int, event: int, cpu: int, flag: int, pid: int, arg: int
    ) -> bool:
        """Append one record.  Returns False if it was lost.

        The record is packed straight onto the current sub-buffer's bytes:
        this runs once per trace record."""
        current = self._current
        if len(current.data) > self._last_offset:
            if not self._switch():
                # DISCARD mode with all sub-buffers full: lose the event.
                self.records_lost += 1
                self._lost_since_switch += 1
                self._last_loss_ts = time
                return False
            current = self._current
        if current.n_records == 0:
            current.begin_ts = time
        current.data += _pack(time, event, cpu, flag, pid, arg)
        current.end_ts = time
        current.n_records += 1
        self.records_written += 1
        return True

    def _switch(self) -> bool:
        """Retire the current sub-buffer and open a fresh one."""
        if len(self._full) >= self.n_subbufs - 1:
            if self.mode == Mode.DISCARD:
                return False
            # OVERWRITE: drop the oldest unconsumed sub-buffer.  Its
            # records are reclassified written -> lost, so that
            # ``records_written`` always counts records still retrievable
            # and written + lost == events emitted in every mode.  The
            # victim's own ``lost_before`` (already counted in
            # ``records_lost``) must be carried forward, not destroyed
            # with it, or those losses vanish from the consumed stream.
            victim = self._full.pop(0)
            self.records_lost += victim.n_records
            self.records_written -= victim.n_records
            self._lost_since_switch += victim.n_records + victim.lost_before
            self._last_loss_ts = victim.end_ts
            self.overwritten_subbufs += 1
        self._full.append(self._current)
        self._current = SubBuffer(self.subbuf_size)
        self._current.lost_before = self._lost_since_switch
        self._lost_since_switch = 0
        self.subbuf_switches += 1
        return True

    # ------------------------------------------------------------------
    def consume(self) -> List[SubBuffer]:
        """Take all completed sub-buffers (the consumer daemon's read)."""
        taken, self._full = self._full, []
        return taken

    def flush(self) -> List[SubBuffer]:
        """Finalize: retire the current sub-buffer too and take everything.

        Losses that happened after the last switch would otherwise never
        surface in any consumed sub-buffer's ``lost_before`` (they were
        parked to be reported by the *next* sub-buffer, which will never
        exist) — so flush emits a final, possibly empty, sub-buffer that
        carries the residual count.  This keeps the accounting invariant
        ``consumed + sum(lost_before) == records_written + records_lost``
        exact at end of trace in both modes.
        """
        if self._current.n_records > 0:
            self._full.append(self._current)
            self._current = SubBuffer(self.subbuf_size)
        if self._lost_since_switch > 0:
            tail = SubBuffer(self.subbuf_size)
            tail.lost_before = self._lost_since_switch
            tail.begin_ts = tail.end_ts = self._last_loss_ts
            self._full.append(tail)
            self._lost_since_switch = 0
        return self.consume()

    def unconsumed_bytes(self) -> int:
        return sum(len(sb.data) for sb in self._full) + len(self._current.data)

    def occupancy(self) -> float:
        """Unconsumed bytes as a fraction of total ring capacity."""
        return self.unconsumed_bytes() / (self.subbuf_size * self.n_subbufs)
