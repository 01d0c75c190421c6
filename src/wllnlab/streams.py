"""Index-addressable random streams.

Replication r of master seed s owns a numpy ``PCG64DXSM`` generator
(O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", 2014).  With mix the splitmix64
output function, w0 = s, w1 = r and w_i = w_{i-2} xor mix(w_{i-1}), its
state is w4 * 2^64 + w5 and its increment w6 * 2^64 + w7, made odd; the
steps are Feistel rounds, so distinct (s, r) get distinct states.  Position
p is output p, reached with ``advance(p)``, as a ``Generator.random`` double.
Models read a path's factor at position 0 and f_k at position k, so f_k on
replication r is a pure function of (s, r, k).  ``_stream_keys`` runs
the chain for a range of replications in one uint64 array pass: 0.14 ms
for 500 rows, against 4.0 ms for the state dicts one row at a time in
Python.  Setting a row's state costs about 6 us, an ``advance`` up to
10^15 1.0-1.3 us and a value 3-4.5 ns (2 vCPU, numpy 2.4), so gaps up to
``_MERGE_GAP`` are drawn through.

``Positions.draw`` fills the values without the GIL and takes it once per
row, so a sampling loop may draw its next chunk on a thread of its own
while it reduces the current one (see ``SequenceModel.sample_blocks``).
A ``Positions`` draws on one thread at a time: its one generator holds
the state of the row being drawn.
"""

from __future__ import annotations

import numpy as np

# a re-position and its draw call cost about as much as drawing this many
_MERGE_GAP = 512


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's output function on uint64 arrays (arithmetic mod 2^64)."""
    x = x + 0x9E3779B97F4A7C15
    x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9
    x = (x ^ x >> 27) * 0x94D049BB133111EB
    return x ^ x >> 31


def _stream_keys(seed: int, r0: int, r1: int) -> np.ndarray:
    """w4, w5, w6, w7 of streams (seed, r0), ..., (seed, r1 - 1) as an
    (r1 - r0, 4) uint64 array: the chain of every row in one array pass."""
    seed = int(seed)
    if not (0 <= seed < 2**64 and 0 <= r0 < 2**64 and r0 <= r1 <= 2**64):
        raise ValueError("need 0 <= seed, r0 < 2^64 and r0 <= r1 <= 2^64")
    w = [np.full(r1 - r0, seed, dtype=np.uint64),
         np.uint64(r0) + np.arange(r1 - r0, dtype=np.uint64)]
    for i in range(2, 8):
        w.append(w[i - 2] ^ _mix(w[i - 1]))
    return np.stack(w[4:], axis=1)


class Positions:
    """Strictly increasing stream positions, split once into runs that are
    each drawn after one re-position, for any number of replications."""

    def __init__(self, positions):
        pos = np.asarray(positions, dtype=np.int64)
        gaps = pos[1:] - pos[:-1]
        if pos.size == 0 or pos[0] < 0 or (gaps <= 0).any():
            raise ValueError("positions must be non-empty, strictly "
                             "increasing and >= 0")
        self.size = len(pos)
        cuts = ((gaps > _MERGE_GAP).nonzero()[0] + 1).tolist()
        # (first column, end column, values to skip after the last run,
        # values to draw, the drawn values to keep or None for all)
        self._runs, end = [], 0
        for a, b in zip([0] + cuts, cuts + [len(pos)]):
            rel = pos[a:b] - pos[a]
            span = int(rel[-1]) + 1
            self._runs.append((a, b, int(pos[a]) - end, span,
                               None if span == b - a else rel))
            end = int(pos[a]) + span
        # every row's state is set before it is drawn, so one generator
        # serves every draw: building one seeds a SeedSequence, about 24 us
        self._gen = np.random.Generator(np.random.PCG64DXSM(0))

    def uniforms(self, seed: int, r0: int, r1: int) -> np.ndarray:
        """(r1 - r0, size) doubles: row i holds the stream of replication
        r0 + i at these positions."""
        return self.draw(_stream_keys(seed, r0, r1))

    def draw(self, keys: np.ndarray, out: np.ndarray | None = None,
             factor: np.ndarray | None = None) -> np.ndarray:
        """(len(keys), size) doubles: row i holds the stream of the row
        ``keys[i]`` of ``_stream_keys`` at these positions; written into
        ``out`` when given.  With ``factor``, position 0 of row i goes to
        ``factor[i]`` in the same pass, which needs positions past 0."""
        if out is None:
            out = np.empty((len(keys), self.size))
        runs = self._runs
        if factor is not None:
            # position 0 is drawn first, so the first run skips one less
            (a, b, skip, span, keep), *rest = runs
            if not skip:
                raise ValueError("position 0 is the factor's")
            runs = [(a, b, skip - 1, span, keep), *rest]
        gen = self._gen
        bitgen = gen.bit_generator
        for row, (w4, w5, w6, w7) in enumerate(keys.tolist()):
            bitgen.state = {"bit_generator": "PCG64DXSM", "has_uint32": 0,
                            "uinteger": 0, "state": {
                                "state": w4 << 64 | w5,
                                "inc": w6 << 64 | w7 | 1}}
            if factor is not None:
                factor[row] = gen.random()
            for a, b, skip, span, keep in runs:
                if skip:
                    bitgen.advance(skip)
                if keep is None:
                    gen.random(out=out[row, a:b])
                else:
                    out[row, a:b] = gen.random(span)[keep]
        return out
