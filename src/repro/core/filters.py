"""Composable activity filters (paper Section III-A: "developers concerned
about specific areas can use our infrastructure to drill down into any
particular area of interest by simply applying different filters").

A :class:`Filter` is a boolean column over an
:class:`~repro.core.model.ActivityTable`; filters combine with ``&``, ``|``
and ``~`` into chains that stay vectorized, and :func:`apply` returns the
matching rows.  The same filters drive the Paraver exporter's masking
(Figures 5 and 7 show traces with everything but one event type filtered
out).
"""

from __future__ import annotations

from typing import Callable, List, Union

import numpy as np

from repro.core.model import (
    Activity,
    ActivityTable,
    CATEGORY_CODE,
    NoiseCategory,
)
from repro.tracing.events import NAME_TO_EVENT

MaskFn = Callable[[ActivityTable], np.ndarray]


class Filter:
    """A composable predicate over an :class:`ActivityTable`.

    ``mask_fn`` answers the question for a whole table at once with a
    boolean column; the combinators compose masks.
    """

    def __init__(self, mask_fn: MaskFn, label: str = "") -> None:
        self.mask_fn = mask_fn
        self.label = label or getattr(mask_fn, "__name__", "filter")

    def mask(self, table: ActivityTable) -> np.ndarray:
        """Boolean row mask of the filter over a table."""
        return np.asarray(self.mask_fn(table), dtype=bool)

    def __and__(self, other: "Filter") -> "Filter":
        return Filter(
            lambda t: self.mask(t) & other.mask(t),
            f"({self.label} & {other.label})",
        )

    def __or__(self, other: "Filter") -> "Filter":
        return Filter(
            lambda t: self.mask(t) | other.mask(t),
            f"({self.label} | {other.label})",
        )

    def __invert__(self) -> "Filter":
        return Filter(lambda t: ~self.mask(t), f"~{self.label}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Filter {self.label}>"


def by_event(*names_or_ids: Union[str, int]) -> Filter:
    """Keep activities of the given event types."""
    ids = set()
    for item in names_or_ids:
        if isinstance(item, str):
            if item == "preemption":
                from repro.core.model import PREEMPT_EVENT

                ids.add(PREEMPT_EVENT)
            elif item in NAME_TO_EVENT:
                ids.add(NAME_TO_EVENT[item])
            else:
                raise ValueError(f"unknown event name: {item!r}")
        else:
            ids.add(int(item))
    label = f"event in {sorted(ids)}"
    id_arr = np.array(sorted(ids), dtype=np.int64)
    return Filter(lambda t: np.isin(t.event, id_arr), label)


def by_category(*categories: NoiseCategory) -> Filter:
    cats = set(categories)
    codes = np.array(sorted(CATEGORY_CODE[c] for c in cats), dtype=np.int8)
    return Filter(
        lambda t: np.isin(t.category, codes),
        f"category in {sorted(c.value for c in cats)}",
    )


def by_cpu(*cpus: int) -> Filter:
    cpu_set = set(cpus)
    cpu_arr = np.array(sorted(cpu_set), dtype=np.int64)
    return Filter(
        lambda t: np.isin(t.cpu, cpu_arr), f"cpu in {sorted(cpu_set)}"
    )


def by_pid(*pids: int) -> Filter:
    pid_set = set(pids)
    pid_arr = np.array(sorted(pid_set), dtype=np.int64)
    return Filter(
        lambda t: np.isin(t.pid, pid_arr), f"pid in {sorted(pid_set)}"
    )


def by_window(t0: int, t1: int) -> Filter:
    """Keep activities overlapping the window (Paraver-style zoom)."""
    return Filter(
        lambda t: (t.end > t0) & (t.start < t1), f"window [{t0},{t1})"
    )


def noise_only() -> Filter:
    return Filter(lambda t: t.is_noise.copy(), "noise")


def min_duration(ns: int) -> Filter:
    return Filter(lambda t: t.self_ns >= ns, f"self >= {ns}ns")


def combined_mask(table: ActivityTable, *filters: Filter) -> np.ndarray:
    """Conjunctive boolean mask of all filters over a table."""
    m = np.ones(len(table), dtype=bool)
    for f in filters:
        m &= f.mask(table)
    return m


def apply(table: ActivityTable, *filters: Filter) -> List[Activity]:
    """Apply all filters conjunctively; returns the matching rows."""
    return table.rows(combined_mask(table, *filters))
