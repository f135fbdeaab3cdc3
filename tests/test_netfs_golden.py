"""Golden regression test for the netfs discrete-event simulator.

``test_determinism`` in ``test_netfs.py`` only shows that two runs of the
same code agree.  These digests were captured from the heap-of-handles
event loop with every trace item pre-scheduled and the client/server
caches driven through ``BlockCacheSimulator.run([item])``; any later
engine must reproduce every field of every ``NetfsResult`` bit for bit
— counts, latency percentiles, utilizations, consistency traffic and
both cache levels.

The runs cover both consistency protocols, ``load_scale`` 1 and 3 with
a short server queue (so queue drops, timeouts and retries all occur),
the library defaults, and a run with injected faults (dropped and
duplicated request frames, disk stalls).  All use the shared
``small_trace`` fixture (A5, seed 42, 1200 s).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.fuzz.faults import NetfsFaults
from repro.netfs import simulate_netfs

# case -> (requests, rpcs, retries, queue_drops, frames, sha256(repr(result)))
GOLDEN = {
    ("callbacks", 1, 64, False): (
        2145, 1848, 7, 0, 12484,
        "64aa38c677a86434787e1c2fb881d63f10b09e6da5485687ee278aea592df0e7",
    ),
    ("ownership", 1, 64, False): (
        2145, 1175, 9, 0, 9169,
        "99824baeda29e056c62e9f3611c7077dbac70c1823db26ae4c6e1b029090a4bf",
    ),
    ("callbacks", 1, 4, False): (
        2145, 1848, 13, 8, 12499,
        "b1eea24e637e4ada119b29684ac8b4e522fbfebaff918f0c8de0ee79b04bcaf2",
    ),
    ("ownership", 1, 4, False): (
        2145, 1175, 10, 3, 9170,
        "ab209ff5c2c134fea3338eb1c1bbc71fb376387fd097b02fc46c7bdf1c77d2d6",
    ),
    ("callbacks", 3, 4, False): (
        6435, 5544, 236, 203, 37868,
        "980e6a6f25149f13e66ddad15fdbf261b1209591b932464c59179b8fefb745ae",
    ),
    ("ownership", 3, 4, False): (
        6435, 3525, 190, 146, 27705,
        "f1f6dad1f079f36d2f757c7acc3db0d7efb0a2aef6455ec301260cfab0f09c79",
    ),
    ("ownership", 1, 64, True): (
        2145, 1175, 340, 0, 9651,
        "5329e21b03ae59344f15cded4e4227263a280c4551fcf9d164a1bcd1e2b8f22a",
    ),
}


def _digest(result) -> tuple:
    return (
        result.requests,
        result.rpcs,
        result.retries,
        result.queue_drops,
        result.frames,
        hashlib.sha256(repr(result).encode()).hexdigest(),
    )


@pytest.mark.parametrize(
    "protocol, load_scale, queue_limit, faulty",
    list(GOLDEN),
    ids=[
        f"{p}-x{scale}-q{limit}{'-faults' if faulty else ''}"
        for p, scale, limit, faulty in GOLDEN
    ],
)
def test_netfs_result_matches_golden(
    small_trace, protocol, load_scale, queue_limit, faulty
):
    result = simulate_netfs(
        small_trace,
        protocol=protocol,
        load_scale=load_scale,
        server_queue_limit=queue_limit,
        seed=5,
        faults=NetfsFaults(seed=3) if faulty else None,
    )
    assert _digest(result) == GOLDEN[(protocol, load_scale, queue_limit, faulty)]
