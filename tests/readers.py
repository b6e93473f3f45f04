"""Readers that load exported files back, for tests to check them.

The library only writes these formats; reading them back is a test's job.
"""

import csv
import json
from typing import List


def read_chrome_trace(path: str) -> List[dict]:
    """The ``traceEvents`` of a Chrome trace-event JSON file."""
    with open(path) as fp:
        data = json.load(fp)
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ValueError("not a Chrome trace-event file")
    return data["traceEvents"]


def read_activities_csv(path: str) -> List[dict]:
    """The rows of an activities CSV, typed as the writer wrote them."""
    with open(path, newline="") as fp:
        reader = csv.DictReader(fp)
        rows = []
        for row in reader:
            rows.append(
                {
                    "start": int(row["start"]),
                    "end": int(row["end"]),
                    "cpu": int(row["cpu"]),
                    "pid": int(row["pid"]),
                    "event": int(row["event"]),
                    "name": row["name"],
                    "category": row["category"],
                    "total_ns": int(row["total_ns"]),
                    "self_ns": int(row["self_ns"]),
                    "depth": int(row["depth"]),
                    "is_noise": bool(int(row["is_noise"])),
                    "truncated": bool(int(row["truncated"])),
                }
            )
        return rows
