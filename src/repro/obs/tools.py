"""Operator tools over telemetry: the ``lttng-noise obs`` family.

Three verbs, all file-based so they work on live runs and archived
artifacts alike:

* :func:`tail` — a curses-free TTY dashboard following a running sweep's
  plan directory: the journal gives done/failed/running counts, arrival
  deltas give a rate and ETA, and the ``samples/`` spill files give one
  lane per sampling process (parent + every pool worker).  Pure ANSI
  (clear + home), degrades to plain frame dumps when stdout is not a
  TTY, and ``once=True`` renders a single frame for scripts and CI.
* :func:`load_metrics_file` + :func:`diff_metrics` — the ``obs diff``
  engine: both a ``--obs`` JSON-lines capture and a benchmark trajectory
  JSON flatten to ``{metric: scalar}``, baselines may declare per-metric
  *gates* (direction + relative tolerance), and a regression is an exit
  code, not a judgment call.  See ``docs/observability.md`` for the
  threshold policy.

The dashboard reads the same files the sweep writes anyway (plan.json,
journal.jsonl, samples-*.jsonl) — there is no side channel to a running
process, which is exactly why an interrupted sweep can be tailed, and a
finished one replayed.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, IO, List, Optional, Tuple

from repro.obs.export import aggregate, read_jsonl
from repro.obs.timeseries import load_sample_file, sample_files_in

#: Default relative threshold for ungated ``obs diff`` comparisons.
DEFAULT_DIFF_THRESHOLD = 0.2

#: Sub-directory of a plan dir where samplers spill their files.
SAMPLES_DIRNAME = "samples"


# ----------------------------------------------------------------------
# obs tail: plan-directory progress
# ----------------------------------------------------------------------

def read_plan_progress(plan_dir: str) -> Dict[str, Any]:
    """Current campaign state from a plan directory's on-disk record."""
    from repro.exec.journal import Journal
    from repro.exec.plan import JOURNAL_FILENAME, PLAN_FILENAME

    plan_path = os.path.join(plan_dir, PLAN_FILENAME)
    with open(plan_path, "r", encoding="utf-8") as fp:
        plan = json.load(fp)
    total = len(plan.get("specs", []))
    journal = Journal(os.path.join(plan_dir, JOURNAL_FILENAME))
    states: Dict[str, str] = {}
    # A resumed campaign journals every done spec it reuses again, so
    # only each spec's last ``done`` line says whether it was cached.
    cached: Dict[str, bool] = {}
    elapsed_s = 0.0
    for _, entry in journal._lines():
        token = str(entry["token"])
        state = str(entry.get("state", ""))
        states[token] = state
        if state == "done":
            cached[token] = bool(entry.get("cached"))
            elapsed_s += float(entry.get("elapsed_s", 0.0))
    done = sum(1 for s in states.values() if s == "done")
    return {
        "total": total,
        "done": done,
        "failed": sum(1 for s in states.values() if s == "failed"),
        "running": sum(1 for s in states.values() if s == "running"),
        "cached": sum(
            1 for token, hit in cached.items()
            if hit and states[token] == "done"
        ),
        "busy_s": elapsed_s,
        "shards": int(plan.get("shards", 1)),
        "version": str(plan.get("version", "?")),
    }


def worker_lanes(plan_dir: str) -> List[Dict[str, Any]]:
    """One row per sampling process, from the spill files' last samples."""
    samples_dir = os.path.join(plan_dir, SAMPLES_DIRNAME)
    lanes = []
    for path in sample_files_in(samples_dir):
        try:
            samples = load_sample_file(path)
        except (OSError, ValueError):
            continue
        if not samples:
            continue
        last = samples[-1]
        metrics = last.get("metrics", {})
        lanes.append({
            "pid": last.get("pid"),
            "samples": len(samples),
            "mono_ns": int(last["mono_ns"]),
            "runs": metrics.get("runner.runs", 0),
            "cache_hits": metrics.get("cache.hit", 0),
        })
    if lanes:
        newest = max(lane["mono_ns"] for lane in lanes)
        for lane in lanes:
            lane["age_s"] = (newest - lane["mono_ns"]) / 1e9
    return lanes


def _bar(done: int, total: int, width: int = 30) -> str:
    filled = int(width * done / total) if total else 0
    return "[" + "#" * filled + "." * (width - filled) + "]"


class TailSession:
    """Stateful frame renderer: remembers arrivals to derive rate/ETA."""

    def __init__(self, plan_dir: str) -> None:
        self.plan_dir = plan_dir
        self._prev_done: Optional[int] = None
        self._prev_t: Optional[float] = None
        self.rate: Optional[float] = None

    def frame(self) -> Tuple[str, Dict[str, Any]]:
        progress = read_plan_progress(self.plan_dir)
        now = time.monotonic()
        done = progress["done"]
        if self._prev_done is not None and self._prev_t is not None:
            dt = now - self._prev_t
            if dt > 0 and done >= self._prev_done:
                inst = (done - self._prev_done) / dt
                # EWMA keeps the ETA readable between bursty arrivals.
                self.rate = (
                    inst if self.rate is None
                    else 0.5 * self.rate + 0.5 * inst
                )
        self._prev_done, self._prev_t = done, now

        total = progress["total"]
        remaining = max(0, total - done - progress["failed"])
        lines = [
            f"sweep {os.path.abspath(self.plan_dir)}  "
            f"(version {progress['version']}, "
            f"{progress['shards']} shards)",
            f"  {_bar(done, total)} {done}/{total} done"
            + (f", {progress['failed']} failed" if progress["failed"]
               else "")
            + (f", {progress['running']} running"
               if progress["running"] else ""),
        ]
        ratio = (progress["cached"] / done) if done else 0.0
        line = (
            f"  cached {progress['cached']}/{done}"
            f" ({100 * ratio:.0f}%)  busy {progress['busy_s']:.1f}s"
        )
        if self.rate is not None and self.rate > 0:
            eta = remaining / self.rate
            line += f"  rate {self.rate:.1f}/s  eta {eta:.0f}s"
        lines.append(line)
        lanes = worker_lanes(self.plan_dir)
        if lanes:
            lines.append(f"  {len(lanes)} sampler lane(s):")
            for lane in sorted(lanes, key=lambda d: d["pid"] or 0):
                lines.append(
                    f"    pid {lane['pid']:>7}  {lane['samples']:>5} samples"
                    f"  runs {int(lane['runs']):>5}"
                    f"  hits {int(lane['cache_hits']):>5}"
                    f"  ({lane['age_s']:.1f}s behind)"
                )
        state = dict(progress, lanes=len(lanes))
        return "\n".join(lines), state


def tail(
    plan_dir: str,
    *,
    once: bool = False,
    interval_s: float = 0.5,
    out: Optional[IO[str]] = None,
    max_frames: Optional[int] = None,
) -> int:
    """Follow a sweep's plan directory until the campaign finishes.

    Returns 0 when every planned spec ended ``done``, 1 when any ended
    ``failed``.  ``once=True`` renders a single frame (scripts / CI);
    ``max_frames`` bounds the loop for tests.
    """
    stream = out if out is not None else sys.stdout
    session = TailSession(plan_dir)
    is_tty = hasattr(stream, "isatty") and stream.isatty()
    frames = 0
    while True:
        frame, state = session.frame()
        if is_tty and frames:
            stream.write("\x1b[2J\x1b[H")  # clear + home: the dashboard
        stream.write(frame + "\n")
        stream.flush()
        frames += 1
        finished = (
            state["total"] > 0
            and state["done"] + state["failed"] >= state["total"]
        )
        if once or finished:
            return 1 if state["failed"] else 0
        if max_frames is not None and frames >= max_frames:
            return 1 if state["failed"] else 0
        time.sleep(interval_s)


# ----------------------------------------------------------------------
# obs diff: regression gating between two telemetry files
# ----------------------------------------------------------------------

def flatten_aggregate(agg: Dict[str, Any]) -> Dict[str, float]:
    """An :func:`~repro.obs.export.aggregate` dict as one flat scalar map."""
    out: Dict[str, float] = {}
    for key, value in agg.get("counters", {}).items():
        out[key] = float(value)
    for key, value in agg.get("gauges", {}).items():
        out[key] = float(value)
    for key, entry in agg.get("histograms", {}).items():
        out[key + ":count"] = float(entry["count"])
        out[key + ":sum"] = float(entry["sum"])
    for name, entry in agg.get("spans", {}).items():
        out[f"span.{name}.count"] = float(entry["count"])
        out[f"span.{name}.total_ms"] = float(entry["total_ms"])
    return out


def _flatten_numeric(data: Any, prefix: str = "") -> Dict[str, float]:
    out: Dict[str, float] = {}
    if isinstance(data, dict):
        for key, value in data.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(_flatten_numeric(value, path))
    elif isinstance(data, bool):
        pass  # bools are flags, not metrics
    elif isinstance(data, (int, float)):
        out[prefix] = float(data)
    return out


def load_metrics_file(
    path: str,
) -> Tuple[Dict[str, float], Dict[str, Dict[str, Any]]]:
    """A telemetry file as ``(metrics, gates)``.

    Accepts either a ``--obs`` JSON-lines capture (flattened through
    :func:`~repro.obs.export.aggregate`) or a plain JSON document — a
    benchmark trajectory with a ``metrics`` section (whose sibling
    ``gates`` section, if present, declares per-metric comparison
    policy), or any JSON object, whose numeric leaves become dotted
    metric names.
    """
    with open(path, "r", encoding="utf-8") as fp:
        head = fp.read(1)
    if path.endswith(".jsonl"):
        return flatten_aggregate(aggregate(read_jsonl(path))), {}
    if head != "{":
        raise ValueError(f"{path}: not a telemetry JSON/JSONL file")
    with open(path, "r", encoding="utf-8") as fp:
        first_line = fp.readline()
        rest = fp.readline()
    if rest.strip():  # multiple JSON objects: a JSON-lines capture
        try:
            parsed = json.loads(first_line)
        except ValueError:
            parsed = None
        if isinstance(parsed, dict) and "type" in parsed:
            return flatten_aggregate(aggregate(read_jsonl(path))), {}
    with open(path, "r", encoding="utf-8") as fp:
        data = json.load(fp)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: telemetry JSON must be an object")
    gates = data.get("gates")
    if isinstance(data.get("metrics"), dict):
        metrics = _flatten_numeric(data["metrics"])
    else:
        metrics = _flatten_numeric(
            {k: v for k, v in data.items() if k != "gates"}
        )
    return metrics, dict(gates) if isinstance(gates, dict) else {}


def diff_metrics(
    base: Dict[str, float],
    cand: Dict[str, float],
    gates: Optional[Dict[str, Dict[str, Any]]] = None,
    threshold: float = DEFAULT_DIFF_THRESHOLD,
) -> List[Dict[str, Any]]:
    """Compare candidate metrics against a baseline.

    With *gates* (a baseline's ``gates`` section), only gated metrics can
    regress: each gate names a direction (``higher``/``lower`` is better)
    and a relative tolerance, and a missing non-``optional`` metric is
    itself a regression.  Without gates, every shared metric is compared
    lower-is-better at the uniform ``threshold``.  Returns one row per
    compared metric, regressions first.
    """
    rows: List[Dict[str, Any]] = []

    def rel_change(b: float, c: float) -> float:
        if b == 0:
            return 0.0 if c == 0 else float("inf") * (1 if c > 0 else -1)
        return (c - b) / abs(b)

    if gates:
        for metric in sorted(gates):
            gate = gates[metric]
            direction = str(gate.get("direction", "lower"))
            tol = float(gate.get("rel_tol", threshold))
            optional = bool(gate.get("optional", False))
            b, c = base.get(metric), cand.get(metric)
            if b is None or c is None:
                rows.append({
                    "metric": metric, "base": b, "cand": c,
                    "rel": None, "gated": True,
                    "regressed": not optional,
                    "note": "missing" + (" (optional)" if optional
                                         else ""),
                })
                continue
            rel = rel_change(b, c)
            if direction == "higher":
                regressed = c < b * (1 - tol)
            else:
                regressed = c > b * (1 + tol)
            rows.append({
                "metric": metric, "base": b, "cand": c, "rel": rel,
                "gated": True, "regressed": regressed,
                "note": f"{direction}-is-better, tol {tol:.0%}",
            })
        for metric in sorted(set(base) & set(cand) - set(gates)):
            rows.append({
                "metric": metric, "base": base[metric],
                "cand": cand[metric],
                "rel": rel_change(base[metric], cand[metric]),
                "gated": False, "regressed": False, "note": "ungated",
            })
    else:
        for metric in sorted(set(base) & set(cand)):
            b, c = base[metric], cand[metric]
            rel = rel_change(b, c)
            rows.append({
                "metric": metric, "base": b, "cand": c, "rel": rel,
                "gated": False,
                "regressed": c > b * (1 + threshold) if b > 0
                else (b == 0 and c > 0),
                "note": f"lower-is-better, tol {threshold:.0%}",
            })
        for metric in sorted(set(base) - set(cand)):
            rows.append({
                "metric": metric, "base": base[metric], "cand": None,
                "rel": None, "gated": False, "regressed": False,
                "note": "missing in candidate",
            })
    rows.sort(key=lambda row: (not row["regressed"], row["metric"]))
    return rows


def format_diff(rows: List[Dict[str, Any]]) -> str:
    """Human-readable diff table, regressions flagged with ``!``."""
    def num(value: Optional[float]) -> str:
        if value is None:
            return "-"
        return f"{value:.4g}"

    lines = [
        f"{'':2}{'metric':<40} {'base':>12} {'cand':>12} {'change':>9}"
    ]
    for row in rows:
        rel = row["rel"]
        change = (
            "-" if rel is None
            else ("inf" if rel == float("inf") else f"{rel:+.1%}")
        )
        flag = "! " if row["regressed"] else "  "
        lines.append(
            f"{flag}{row['metric']:<40} {num(row['base']):>12} "
            f"{num(row['cand']):>12} {change:>9}  {row['note']}"
        )
    regressed = [row for row in rows if row["regressed"]]
    lines.append(
        f"{len(rows)} metric(s) compared, {len(regressed)} regression(s)"
    )
    return "\n".join(lines)


def diff_files(
    base_path: str,
    cand_path: str,
    threshold: float = DEFAULT_DIFF_THRESHOLD,
) -> Tuple[List[Dict[str, Any]], int]:
    """``obs diff`` driver: rows plus the process exit code (1 = regressed).

    The baseline's ``gates`` section, when present, defines the
    comparison policy; the candidate's gates are ignored (the committed
    baseline is the contract).
    """
    base, gates = load_metrics_file(base_path)
    cand, _ = load_metrics_file(cand_path)
    rows = diff_metrics(base, cand, gates=gates, threshold=threshold)
    return rows, (1 if any(row["regressed"] for row in rows) else 0)
