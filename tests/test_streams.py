"""Index-addressable random streams: position p of stream (seed, r) is output
p of numpy's own Philox4x64-10 keyed by (seed, r), read from counter 0."""

import numpy as np
import pytest

from wllnlab.streams import Positions

KEYS = [(0, 0), (7, 3), (2**64 - 1, 2**32 + 17)]


def reference(seed, r, p):
    # a generator at counter c encrypts c + 1 first: the block holding
    # positions 4c .. 4c + 3 of the stream read from counter 0
    key = np.array([seed, r], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=p // 4))
    return gen.random(p % 4 + 1)[-1]


@pytest.mark.parametrize("p", [0, 1, 3, 4, 5, 10**12, 10**15 - 1])
def test_position_matches_numpy_philox(p):
    for seed, r in KEYS:
        assert Positions([p]).uniforms(seed, r, r + 1)[0, 0] == reference(seed, r, p)


def test_prefix_is_the_sequential_stream():
    ref = np.random.Generator(np.random.Philox(key=[5, 2])).random(40)
    assert np.array_equal(Positions(np.arange(40)).uniforms(5, 2, 3)[0], ref)


@pytest.mark.parametrize("positions", [
    [2, 3, 4, 5], [3, 4], [7, 8, 9], [4], [1, 6, 11], [0, 299, 300, 301],
    [0, 300, 1000, 1001, 10**12 + 3, 10**12 + 4],
], ids=["across-boundary", "last-first", "mid-block", "block-start",
        "sparse-small-gaps", "gap-past-merge", "mixed-runs"])
def test_block_boundaries_and_runs(positions):
    for seed, r in KEYS:
        got = Positions(positions).uniforms(seed, r, r + 1)[0]
        assert got.tolist() == [reference(seed, r, p) for p in positions]


def test_rows_are_replications():
    pos = Positions([0, 5, 6, 700])
    block = pos.uniforms(9, 4, 8)
    for i, r in enumerate(range(4, 8)):
        assert np.array_equal(block[i], pos.uniforms(9, r, r + 1)[0])


def test_rejects_bad_positions_and_keys():
    for bad in ([], [3, 3], [4, 2], [-1, 2]):
        with pytest.raises(ValueError):
            Positions(bad)
    with pytest.raises(ValueError):
        Positions([1]).uniforms(2**64, 0, 1)
    with pytest.raises(ValueError):
        Positions([1]).uniforms(0, -1, 1)

