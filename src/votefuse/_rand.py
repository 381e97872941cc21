"""Deterministic chunked sampling shared by every Monte Carlo estimator.

Trials are always processed in fixed-size chunks, and each chunk gets its own
generator seeded by (seed, chunk_index). The stream a trial sees therefore
depends only on the seed and the trial's position in the budget, never on
scheduling: serial runs, restarts, and any parallel split of the chunks
produce bit-identical estimates.

:func:`chunk_sums` is the one loop over chunks and the rows inside them.
Each chunk draws its trials in row blocks of at most
:data:`._exact.OUTCOME_BLOCK` elements, so sampling memory follows that block
and not the chunk times the players. The stream is unchanged: ``random``,
``integers`` and ``permuted(axis=1)`` give the same values however the rows
of one generator are split, and the blocks take them in row order. An
estimator passes the statistic of one block, which holds only exact numbers
(integer counts, as ints or in float64 or int64), so no split into chunks or
blocks can change a sum; it then applies its own closing formula for the
estimate and its standard error. A budget is at most 2^53 trials, past
which float64 sums of counts are not exact.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from . import _exact

CHUNK = 1 << 16


def chunk_sizes(trials: int) -> Iterator[int]:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > 1 << 53:
        raise ValueError(f"trials must be <= 2^53, got {trials}")
    return (min(CHUNK, trials - lo) for lo in range(0, trials, CHUNK))


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, chunk_index])


def chunk_sums(
    trials: int, seed: int, width: int, block: Callable[[np.random.Generator, int], tuple]
) -> tuple:
    """Elementwise sum of ``block(rng, rows)`` over every row block of every chunk.

    Chunk i draws from ``chunk_rng(seed, i)``, its rows in order, in blocks of
    :func:`._exact.block_rows` of ``width`` (read at call time), the elements
    ``block`` holds at once for one trial. ``block`` returns one tuple of
    exact counts (ints, or float64 or int64 arrays of integers) for its
    ``rows`` trials; the first tuple is taken as it is, and the sums are
    exact whatever the chunk and block sizes.
    """
    sums = None
    step = _exact.block_rows(width)
    for chunk_index, size in enumerate(chunk_sizes(trials)):
        rng = chunk_rng(seed, chunk_index)
        for lo in range(0, size, step):
            part = block(rng, min(step, size - lo))
            sums = part if sums is None else tuple(a + b for a, b in zip(sums, part))
    return sums
