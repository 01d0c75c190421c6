"""Index-addressable counter-based random streams.

Replication r of master seed s owns the Philox4x64-10 stream keyed by
(s, r): numpy's ``np.random.Philox`` (Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3", SC'11).  Position p is output p, from 0, of
``np.random.Philox(key=[s, r])`` read from counter 0, as a double in [0, 1)
the way ``Generator.random`` makes it.  Models read a path's factor at
position 0 and coordinate k at position k, so f_k on replication r is a
pure function of (s, r, k): every index set, grouping of replications and
thinning sees the same numbers.

Philox makes four outputs per counter value.  Moving the generator to a
position by setting its state costs about 2 us, drawing about 5 ns a value,
so positions closer than ``_MERGE_GAP`` are drawn through: the cost follows
the number of positions, not their span.
"""

from __future__ import annotations

import numpy as np

# a re-position costs about as much as drawing this many values
_MERGE_GAP = 256


class Positions:
    """Strictly increasing stream positions, split once into runs that are
    each drawn after one re-position, so that the same positions can be
    read cheaply on any number of replications."""

    def __init__(self, positions):
        pos = np.asarray(positions, dtype=np.int64)
        gaps = pos[1:] - pos[:-1]
        if pos.size == 0 or pos[0] < 0 or (gaps <= 0).any():
            raise ValueError("positions must be non-empty, strictly "
                             "increasing and >= 0")
        self.size = len(pos)
        cuts = ((gaps > _MERGE_GAP).nonzero()[0] + 1).tolist()
        # (first column, end column, Philox block of the first position,
        # values to draw from the start of that block, which of them to
        # keep); a contiguous run keeps a slice, which copies at a small
        # fraction of the cost of drawing, where a gather costs as much
        self._runs = []
        for a, b in zip([0] + cuts, cuts + [len(pos)]):
            rel = pos[a:b] - pos[a] // 4 * 4
            span = int(rel[-1]) + 1
            keep = slice(int(rel[0]), span) if span - rel[0] == b - a else rel
            self._runs.append((a, b, int(pos[a]) // 4, span, keep))

    def uniforms(self, seed: int, r0: int, r1: int) -> np.ndarray:
        """(r1 - r0, size) doubles: row i holds the stream of replication
        r0 + i at these positions."""
        if not 0 <= int(seed) < 2 ** 64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not 0 <= r0 <= r1 < 2 ** 64:
            raise ValueError("replications must be nonnegative")
        out = np.empty((r1 - r0, self.size))
        counter = np.zeros(4, dtype=np.uint64)
        key = np.array([seed, 0], dtype=np.uint64)
        state = {"bit_generator": "Philox",
                 "state": {"counter": counter, "key": key},
                 "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        gen = np.random.Generator(np.random.Philox(0))
        bitgen = gen.bit_generator
        for row, r in enumerate(range(r0, r1)):
            key[1] = r
            for a, b, block, span, keep in self._runs:
                # an empty buffer makes the next draw encrypt counter + 1,
                # the block holding positions 4 * counter .. 4 * counter + 3
                counter[0] = block
                bitgen.state = state
                out[row, a:b] = gen.random(span)[keep]
        return out
