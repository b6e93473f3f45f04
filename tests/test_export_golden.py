"""Golden hashes of the exporters' output: the offline module's byte contract.

Each case analyzes one traced run (100 ms, 8 CPUs) and pins the sha256 of
what the paper's offline outputs write for it: the Paraver bundle, the
activities CSV, the Chrome trace-event JSON, the arrays of the NPZ bundle,
the synthetic noise chart's interruptions and three filter chains.  The
trace bytes themselves are pinned by ``tests/test_golden.py``; these
constants pin everything downstream of the analysis.  They are never
regenerated to make a change pass: a moved hash is a behaviour change.
"""

import hashlib

import numpy as np
import pytest

from repro.core import NoiseAnalysis, NoiseCategory, SyntheticNoiseChart
from repro.core.filters import (
    apply,
    by_category,
    by_cpu,
    by_event,
    by_window,
    min_duration,
    noise_only,
)
from repro.core.timeline import TaskTimeline
from repro.exec.spec import RunSpec
from repro.io import (
    ParaverWriter,
    activities_to_csv,
    export_chrome_trace,
    export_npz,
)
from repro.util.units import MSEC

DURATION_NS = 100 * MSEC
NCPUS = 8

OUTPUTS = ("paraver", "csv", "chrome", "npz", "chart", "filters")

#: (app, seed) -> sha256 per output, in OUTPUTS order.
GOLDEN = {
    ("AMG", 1): (
        "142b1ca957ec4e27a62b5d0bb0b48311b04f7a2c4a8b8588d6ca4c351c4eaa83",
        "a0e428c04c04c761d100f96e829019021ea8a6fda6d96f6cf865c5ac237a830e",
        "5874352145ca7be8f90f1e6fcf5b89eba52b48379709faffe548b7e3002321c0",
        "e2ab621f9f54897b354ceb98775108c23e094894a34760fb6d7d5a32c3e65a43",
        "b1a6fac067e1c63e291ffd48c431162e2723dbd08f1c0faa987d93caceab0c62",
        "c277e6edbe6c773a5b58d6707e935e77123d5eb4a0e62d745ea57a9b3a7baf77",
    ),
    ("LAMMPS", 1): (
        "3c74d38c13a6f23400a1109c61eaed61dda138ff9214bcf6366e232e79784d39",
        "64b21ccb89d648ba43d553c42b2b26c636ca420bedad1f82f1c2a34e1fbc6b71",
        "59e2a0ce165c141d8825373d4c18079c8815e14094ce3dce851fb100e47a1a81",
        "ff21038954eca9c9415e136018f8a5a9ad921b4b0a18c577ca8567269604ab8f",
        "671e76f35be2371164eff61ce3d8bbf3496b80552745b0e604dfedd5e5fb38d0",
        "edbc6768d31a183d3dea31811905a6f1e294fffe3556602cdaa4e89a2c104f0f",
    ),
}


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _file_sha(*paths) -> str:
    chunks = []
    for path in paths:
        with open(path, "rb") as fh:
            chunks.append(fh.read())
    return _sha(*chunks)


def _rows_sha(rows) -> str:
    return _sha(repr(rows).encode())


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(app, seed):
        if (app, seed) not in cache:
            trace, meta = RunSpec.make(app, DURATION_NS, seed, NCPUS).execute()
            an = NoiseAnalysis(trace, meta=meta)
            timeline = TaskTimeline(an.records, meta=meta, end_ts=an.end_ts)
            cache[(app, seed)] = an, meta, timeline
        return cache[(app, seed)]

    return get


def export_digests(an, meta, timeline, tmp_path):
    table = an.table
    writer = ParaverWriter(meta, an.ncpus, an.end_ts)
    paraver = _file_sha(
        *writer.export(str(tmp_path / "run"), table, timeline=timeline)
    )

    csv_path = tmp_path / "run.csv"
    activities_to_csv(str(csv_path), table)

    chrome_path = tmp_path / "run.json"
    export_chrome_trace(
        str(chrome_path), table, meta, timeline=timeline, ncpus=an.ncpus
    )

    npz_path = tmp_path / "run.npz"
    export_npz(str(npz_path), an)
    with np.load(str(npz_path)) as npz:
        npz_chunks = []
        for name in sorted(npz.files):
            arr = npz[name]
            npz_chunks += [
                name.encode(), arr.dtype.str.encode(), arr.tobytes()
            ]

    chart = SyntheticNoiseChart(an)
    groups = [
        (g.cpu, g.start, g.end, g.signature(), g.noise_ns)
        for g in chart.interruptions
    ]

    mid = an.start_ts + DURATION_NS // 2
    chains = [
        apply(table, by_event("page_fault") & by_cpu(0, 1, 2)),
        apply(table, noise_only(), min_duration(2_000)),
        apply(
            table,
            ~by_category(NoiseCategory.PERIODIC)
            | by_window(an.start_ts, mid),
            by_cpu(3, 4, 5, 6, 7),
        ),
    ]
    return (
        paraver,
        _file_sha(csv_path),
        _file_sha(chrome_path),
        _sha(*npz_chunks),
        _rows_sha(groups),
        _sha(*(_rows_sha(rows).encode() for rows in chains)),
    )


@pytest.mark.parametrize(
    "app,seed", sorted(GOLDEN), ids=[f"{a}-{s}" for a, s in sorted(GOLDEN)]
)
def test_export_golden(app, seed, runs, tmp_path):
    got = dict(zip(OUTPUTS, export_digests(*runs(app, seed), tmp_path)))
    assert got == dict(zip(OUTPUTS, GOLDEN[(app, seed)]))
