"""Shared utilities: time units, descriptive statistics, RNG handling."""

from repro.util.units import (
    NSEC,
    USEC,
    MSEC,
    SEC,
    fmt_ns,
    parse_duration,
)
from repro.util.stats import DurationStats, describe_durations
from repro.util.rng import make_rng, spawn_rngs

__all__ = [
    "NSEC",
    "USEC",
    "MSEC",
    "SEC",
    "fmt_ns",
    "parse_duration",
    "DurationStats",
    "describe_durations",
    "make_rng",
    "spawn_rngs",
]
