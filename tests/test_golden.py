"""Golden hashes of simulated runs: the simulator's bit-identity contract.

Each case pins four values of one traced run: the sha256 of the trace
bytes, the ``RunSpec`` store token, the engine's executed-event count and
the tracer's lost-record count.  A change to the simulator, the tracer or
the ring buffers that moves any of them changes what every cached store
entry means, so these constants are never regenerated to make a change
pass: a moved hash is a behaviour change, not a test to update.

The token is salted with ``repro.__version__``; pinning it also pins the
version, so existing store entries stay valid hits.
"""

import hashlib

import pytest

from repro.exec.spec import RunSpec
from repro.tracing.ringbuffer import Mode
from repro.tracing.tracer import Tracer
from repro.util.units import MSEC

DURATION_NS = 100 * MSEC
NCPUS = 8

#: (app, seed) -> (trace sha256, cache token, events executed, records lost)
GOLDEN = {
    ("AMG", 1): (
        "f85c29aac65184e7dc3ff21ba000fd7988a26c086e9f388262e51a2b18fd5da8",
        "0969bcacad615e28e66fb97066479b866194c90c1e17b2277062a441894d2cea",
        3823, 0,
    ),
    ("AMG", 2): (
        "eabcc3d5a28800261d394b4b272fea731f8a4913d3787dfd83d2cfe6bb93285b",
        "35fcdc015de47135b16e1d360082327ca650b699480f4f4e0faa05b6c144e36f",
        3933, 0,
    ),
    ("IRS", 1): (
        "2f7fb444d5bcb61008cba4a09e5dbda1c056eecc6a9dd804e59c5619e6e51456",
        "8918d3bab78a92149fd1b7747a776b4885a26dd96306a03c7d546adc554b1790",
        3247, 0,
    ),
    ("IRS", 2): (
        "e4a8bf0901632280bdf7c843aedc33d90083ec5b70f5ef3748e1536abe601aac",
        "50e7652bce6170ac7ca9eaab5a9ff3793cb7ddf238e587520e60ed49bf0a3a50",
        3231, 0,
    ),
    ("LAMMPS", 1): (
        "25ca272d4b911216ffa51795fc19f86ce1ff891ef4f4160e3095e1ef0fab7011",
        "a5c1f9dc96b1d080420771cf1611ef096ba05fb1f19ee92433b79fafa8dd26ad",
        1047, 0,
    ),
    ("LAMMPS", 2): (
        "aa07c6ed1fd9b67ebd21cee45ef60da115772a6ef2fb05e0c7e0e1132250ee51",
        "a4284c0e5df8e34b6ae58402f8e353ecabb35244d97c56cce1885b852ad953de",
        1018, 0,
    ),
    ("SPHOT", 1): (
        "3e52f49d61bf0065a451baf5eeb9136c220ab1b6fae739daa2498ade9f8e2dd4",
        "3f1e4694281964140a94755df98ceb51771ff5e81162851d96e1bca2322c048c",
        671, 0,
    ),
    ("SPHOT", 2): (
        "e3fed19fefaf79fd2fcd879a490c2214d2bfde1bdbfecd4c90fb5768ae6ecdfe",
        "9045db9a8bf3143a6f954de5cef6bcbbc235e77d90732ce27ecc48088850e804",
        727, 0,
    ),
    ("UMT", 1): (
        "c764f48b011bd39af01b5a0a094a9a4679ba8d4c1ebfd6ec43c6dd2c50ec4e12",
        "f615f6be2f54fde20808f8b9d590df9012c8cf8d63bde08bbdaccba0a6aa3707",
        6801, 0,
    ),
    ("UMT", 2): (
        "13d3ea20e6415f21e30033e3d536db43e98a974d9608454f666a4491c42ff981",
        "3ca652d5e1007e13b0bf7b9190593dcbefd77a3a3c2809e73d165e6c0abf68ab",
        6515, 0,
    ),
    ("FTQ", 1): (
        "a3d9ffae4fb524c3fd7cdee3b9ac80e0ee9cf0bc29cf273ddfea08d43dbad64a",
        "f84d84599cf873c33ee1cdc0238138c218d1da1787e58d008e57524f256b7d95",
        334, 0,
    ),
    ("FTQ", 2): (
        "eefca0478b287918bacaa0b36303c1cdb88e0a3dd876467e677456e4396bec11",
        "ae6d3860984164def8502514ab63db6360f6c0ceca6c3d45b7e62044858aecf1",
        327, 0,
    ),
}

#: AMG seed 1 on a two-sub-buffer ring of 64 records per CPU: the ring
#: fills between drains, so these pin the loss accounting of each mode.
GOLDEN_LOSSY = {
    Mode.DISCARD: (
        "f7159def75bfd950c210008e856426ba8eafff53d3a939f1699064d6c4f42c84",
        "0969bcacad615e28e66fb97066479b866194c90c1e17b2277062a441894d2cea",
        3823, 3277,
    ),
    Mode.OVERWRITE: (
        "c884fa29865fedd1c918d478c7c35784c45e39385f2ed22928f1fcfee408ef0e",
        "0969bcacad615e28e66fb97066479b866194c90c1e17b2277062a441894d2cea",
        3823, 3456,
    ),
}


def fingerprint(app, seed, **tracer_kwargs):
    """Run ``app`` the way ``Workload.run_traced`` does, keeping the tracer
    so its loss count can be read."""
    spec = RunSpec.make(app, DURATION_NS, seed, NCPUS)
    workload = spec.build_workload()
    node = workload.build_node(seed=seed, ncpus=NCPUS)
    tracer = Tracer(node, **tracer_kwargs).attach()
    workload.install(node)
    node.run(spec.duration_ns)
    trace = tracer.finish()
    return (
        hashlib.sha256(trace.to_bytes()).hexdigest(),
        spec.cache_token(),
        node.engine.events_executed,
        tracer.records_lost,
    )


@pytest.mark.parametrize(
    "app,seed", sorted(GOLDEN), ids=[f"{a}-{s}" for a, s in sorted(GOLDEN)]
)
def test_golden_run(app, seed):
    assert fingerprint(app, seed) == GOLDEN[(app, seed)]


@pytest.mark.parametrize("mode", list(GOLDEN_LOSSY), ids=lambda m: m.value)
def test_golden_lossy_ring(mode):
    got = fingerprint(
        "AMG", 1, subbuf_size=24 * 64, n_subbufs=2, mode=mode
    )
    assert got[3] > 0
    assert got == GOLDEN_LOSSY[mode]
