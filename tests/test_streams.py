"""Index-addressable random streams: position p of stream (seed, r) is output
p of numpy's own PCG64DXSM started from the state and increment that the
``streams`` docstring derives from (seed, r)."""

import numpy as np
import pytest

from wllnlab.streams import _MERGE_GAP, Positions, _stream_keys

KEYS = [(0, 0), (7, 3), (2**64 - 1, 2**32 + 17), (7, 2**63 + 5)]


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) % 2**64
    x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 % 2**64
    x = (x ^ x >> 27) * 0x94D049BB133111EB % 2**64
    return x ^ x >> 31


def documented_state(seed, r):
    w = [seed, r]
    for i in range(2, 8):
        w.append(w[i - 2] ^ splitmix64(w[i - 1]))
    return w[4] * 2**64 + w[5], (w[6] * 2**64 + w[7]) | 1


def generator(seed, r):
    state, inc = documented_state(seed, r)
    bitgen = np.random.PCG64DXSM()
    bitgen.state = {"bit_generator": "PCG64DXSM",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bitgen)


def reference(seed, r, p):
    gen = generator(seed, r)
    gen.bit_generator.advance(p)
    return gen.random()


@pytest.mark.parametrize("p", [0, 1, 3, 4, 5, 10**12, 10**15 - 1])
def test_position_matches_numpy_pcg64dxsm(p):
    for seed, r in KEYS:
        assert Positions([p]).uniforms(seed, r, r + 1)[0, 0] == reference(seed, r, p)


def test_prefix_is_the_sequential_stream():
    ref = generator(5, 2).random(40)
    assert np.array_equal(Positions(np.arange(40)).uniforms(5, 2, 3)[0], ref)


def test_states_are_distinct_and_documented():
    keys = [(s, r) for s in (0, 1, 2, 7, 2**63, 2**64 - 1)
            for r in (0, 1, 2, 3, 2**32 + 17, 2**63, 2**63 + 5, 2**64 - 1)]
    got = [documented_state(s, r) for s, r in keys]
    assert len(set(got)) == len(keys)
    assert len({state for state, _ in got}) == len(keys)
    for (s, r), (state, inc) in zip(keys, got):
        w4, w5, w6, w7 = _stream_keys(s, r, r + 1)[0].tolist()
        assert (w4 << 64 | w5, w6 << 64 | w7 | 1) == (state, inc)


@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
@pytest.mark.parametrize("r0", [0, 2**32 + 17, 2**63, 2**64 - 40])
def test_vectorised_chain_is_the_scalar_chain(seed, r0):
    # one uint64 array pass per call gives every row the state and
    # increment of the documented chain, bit for bit
    got = _stream_keys(seed, r0, r0 + 39)
    assert got.shape == (39, 4) and got.dtype == np.uint64
    for i, (w4, w5, w6, w7) in enumerate(got.tolist()):
        assert (w4 << 64 | w5, w6 << 64 | w7 | 1) == \
            documented_state(seed, r0 + i)
    assert _stream_keys(seed, r0, r0).shape == (0, 4)


G = _MERGE_GAP


@pytest.mark.parametrize("positions", [
    [2, 3, 4, 5], [3, 4], [7, 8, 9], [4], [1, 6, 11], [0, G + 43, G + 44, G + 45],
    [0, 300, 1000, 1001, 10**12 + 3, 10**12 + 4], [0, G, G + 1], [5, G + 6],
], ids=["across-boundary", "last-first", "mid-block", "block-start",
        "sparse-small-gaps", "gap-past-merge", "mixed-runs", "gap-at-merge",
        "one-past-merge"])
def test_block_boundaries_and_runs(positions):
    for seed, r in KEYS:
        got = Positions(positions).uniforms(seed, r, r + 1)[0]
        assert got.tolist() == [reference(seed, r, p) for p in positions]


def test_merge_gap_splits_runs():
    assert len(Positions([0, G, G + 1])._runs) == 1
    assert len(Positions([5, G + 6])._runs) == 2


@pytest.mark.parametrize("coords", [
    [1, 2, 3], [5, G + 6], [G, G + 1], [G + 43, G + 44],
    [3, 10**12, 10**12 + 1],
], ids=["prefix", "two-runs", "first-at-merge-gap", "first-past-merge-gap",
        "sparse"])
def test_factor_is_position_zero_in_the_same_pass(coords):
    want = Positions([0, *coords]).uniforms(9, 4, 8)
    factor = np.empty(4)
    got = Positions(coords).draw(_stream_keys(9, 4, 8), factor=factor)
    assert np.array_equal(factor, want[:, 0])
    assert np.array_equal(got, want[:, 1:])
    with pytest.raises(ValueError):
        Positions([0, *coords]).draw(_stream_keys(9, 4, 8), factor=factor)


def test_rows_are_replications():
    pos = Positions([0, 5, 6, 700])
    for r0 in (4, 2**63 + 4):
        block = pos.uniforms(9, r0, r0 + 4)
        for i, r in enumerate(range(r0, r0 + 4)):
            assert np.array_equal(block[i], pos.uniforms(9, r, r + 1)[0])


def test_rejects_bad_positions_and_keys():
    for bad in ([], [3, 3], [4, 2], [-1, 2]):
        with pytest.raises(ValueError):
            Positions(bad)
    with pytest.raises(ValueError):
        Positions([1]).uniforms(2**64, 0, 1)
    with pytest.raises(ValueError):
        Positions([1]).uniforms(0, -1, 1)
