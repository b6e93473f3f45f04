"""Trace exporters: Paraver, Chrome trace-event, Matlab-style numeric data."""

from repro.io.chrometrace import (
    activities_to_events,
    export_chrome_trace,
)
from repro.io.matlabfmt import (
    activities_to_csv,
    activity_arrays,
    export_npz,
)
from repro.io.paraver import ParaverWriter, PrvRecord, parse_prv

__all__ = [
    "activities_to_events",
    "export_chrome_trace",
    "activities_to_csv",
    "activity_arrays",
    "export_npz",
    "ParaverWriter",
    "PrvRecord",
    "parse_prv",
]
