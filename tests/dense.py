"""Dense blocks of any model, for the tests that read sampled values.

``SequenceModel.sample_blocks`` yields the chunks of the laws whose paths
are mostly zeros (the single draw and example41) as ``Entries``; here
they are written over zeros, as the sample bank writes them.
``column_reference`` realizes a model with independent coordinates one
column at a time, each from its own law."""

import numpy as np

from wllnlab.models import Entries
from wllnlab.streams import Positions


def dense(chunk, width: int) -> np.ndarray:
    """``chunk`` as a (len(chunk), width) block: ``Entries`` are written
    over zeros into a fresh array, and a block is returned as it is."""
    if not isinstance(chunk, Entries):
        return chunk
    block = np.zeros((len(chunk), width))
    block[chunk.row, chunk.col] = chunk.val
    return block


def dense_blocks(model, indices, seed: int, R: int, first: int = 0):
    """``model.sample_blocks(indices, seed, R, first)`` with each chunk a
    dense block."""
    for chunk, factors in model.sample_blocks(indices, seed, R, first):
        yield dense(chunk, len(indices)), factors


def column_reference(model, indices, seed: int, R: int) -> np.ndarray:
    """Replications 0, ..., R - 1 of a model with independent coordinates
    as one (R, len(indices)) block: column c is the quantile of
    ``marginal_dist(indices[c])`` at position indices[c] of each stream,
    one ``quantile_array`` call per column."""
    u = Positions(indices).uniforms(seed, 0, R)
    return np.column_stack([model.marginal_dist(int(i)).quantile_array(
        np.ascontiguousarray(u[:, c])) for c, i in enumerate(indices)])
