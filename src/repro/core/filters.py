"""Composable activity filters (paper Section III-A: "developers concerned
about specific areas can use our infrastructure to drill down into any
particular area of interest by simply applying different filters").

Filters are callables ``Activity -> bool`` combinable with ``&``, ``|``
and ``~``; :func:`apply` runs them over an activity list **or** an
:class:`~repro.core.model.ActivityTable`.  Every builtin filter carries a
vectorized ``mask_fn`` evaluated column-wise on tables; hand-rolled
predicate filters fall back to evaluating the predicate over the
materialized rows.  The same filters drive the Paraver exporter's masking
(Figures 5 and 7 show traces with everything but one event type filtered
out).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Union

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
    """A composable predicate over activities.

    ``fn`` decides row by row; ``mask_fn`` (when given) answers the same
    question for a whole :class:`ActivityTable` at once with a boolean
    column.  Combinators compose both forms, so chains of builtin filters
    stay fully vectorized.
    """

    def __init__(
        self,
        fn: Callable[[Activity], bool],
        label: str = "",
        mask_fn: Optional[MaskFn] = None,
    ) -> None:
        self.fn = fn
        self.label = label or getattr(fn, "__name__", "filter")
        self.mask_fn = mask_fn

    def __call__(self, act: Activity) -> bool:
        return self.fn(act)

    def mask(self, table: ActivityTable) -> np.ndarray:
        """Boolean row mask of the filter over a table."""
        if self.mask_fn is not None:
            return np.asarray(self.mask_fn(table), dtype=bool)
        return np.fromiter(
            (bool(self.fn(a)) for a in table.rows()),
            dtype=bool,
            count=len(table),
        )

    def __and__(self, other: "Filter") -> "Filter":
        return Filter(
            lambda a: self(a) and other(a),
            f"({self.label} & {other.label})",
            mask_fn=lambda t: self.mask(t) & other.mask(t),
        )

    def __or__(self, other: "Filter") -> "Filter":
        return Filter(
            lambda a: self(a) or other(a),
            f"({self.label} | {other.label})",
            mask_fn=lambda t: self.mask(t) | other.mask(t),
        )

    def __invert__(self) -> "Filter":
        return Filter(
            lambda a: not self(a), f"~{self.label}", mask_fn=lambda t: ~self.mask(t)
        )

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
    return Filter(
        lambda a: a.event in ids,
        label,
        mask_fn=lambda t: np.isin(t.event, id_arr),
    )


def by_category(*categories: NoiseCategory) -> Filter:
    cats = set(categories)
    codes = np.array(sorted(CATEGORY_CODE[c] for c in cats), dtype=np.int8)
    return Filter(
        lambda a: a.category in cats,
        f"category in {sorted(c.value for c in cats)}",
        mask_fn=lambda t: np.isin(t.category, codes),
    )


def by_cpu(*cpus: int) -> Filter:
    cpu_set = set(cpus)
    cpu_arr = np.array(sorted(cpu_set), dtype=np.int64)
    return Filter(
        lambda a: a.cpu in cpu_set,
        f"cpu in {sorted(cpu_set)}",
        mask_fn=lambda t: np.isin(t.cpu, cpu_arr),
    )


def by_pid(*pids: int) -> Filter:
    pid_set = set(pids)
    pid_arr = np.array(sorted(pid_set), dtype=np.int64)
    return Filter(
        lambda a: a.pid in pid_set,
        f"pid in {sorted(pid_set)}",
        mask_fn=lambda t: np.isin(t.pid, pid_arr),
    )


def by_window(t0: int, t1: int) -> Filter:
    """Keep activities overlapping the window (Paraver-style zoom)."""
    return Filter(
        lambda a: a.end > t0 and a.start < t1,
        f"window [{t0},{t1})",
        mask_fn=lambda t: (t.end > t0) & (t.start < t1),
    )


def noise_only() -> Filter:
    return Filter(
        lambda a: a.is_noise, "noise", mask_fn=lambda t: t.is_noise.copy()
    )


def min_duration(ns: int) -> Filter:
    return Filter(
        lambda a: a.self_ns >= ns,
        f"self >= {ns}ns",
        mask_fn=lambda t: t.self_ns >= ns,
    )


def combined_mask(table: ActivityTable, *filters: Filter) -> np.ndarray:
    """Conjunctive boolean mask of all filters over a table."""
    m = np.ones(len(table), dtype=bool)
    for f in filters:
        m &= f.mask(table)
    return m


def apply(
    activities: Union[ActivityTable, Iterable[Activity]], *filters: Filter
) -> List[Activity]:
    """Apply all filters conjunctively; returns the matching activities."""
    if isinstance(activities, ActivityTable):
        return activities.rows(combined_mask(activities, *filters))
    out = []
    for act in activities:
        if all(f(act) for f in filters):
            out.append(act)
    return out
