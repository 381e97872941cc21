"""Deterministic chunked sampling shared by every Monte Carlo estimator.

Trials are always processed in fixed-size chunks, and each chunk gets its own
generator seeded by (seed, chunk_index). The stream a trial sees therefore
depends only on the seed and the trial's position in the budget, never on
scheduling: serial runs, restarts, and any parallel split of the chunks
produce bit-identical estimates.

:func:`chunk_sums` is the one driver: an estimator passes the statistic of
one chunk and gets back the running sums over the whole budget, then applies
its own closing formula for the estimate and its standard error.

Inside a chunk, :func:`row_blocks` draws the trials in row blocks of at most
:data:`._exact.OUTCOME_BLOCK` elements, so sampling memory follows that block
and not the chunk times the players. The stream is unchanged: ``random``,
``integers`` and ``permuted(axis=1)`` give the same values however the rows
of one generator are split, and the blocks take them in row order.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from . import _exact

CHUNK = 1 << 16


def chunk_sizes(trials: int) -> list[int]:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    full, rest = divmod(trials, CHUNK)
    return [CHUNK] * full + ([rest] if rest else [])


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, chunk_index])


def chunk_sums(
    trials: int, seed: int, draw: Callable[[np.random.Generator, int], tuple]
) -> tuple:
    """Elementwise sum over all chunks of ``draw(chunk_rng(seed, i), size)``.

    ``draw`` returns one tuple of sums (floats, ints or arrays) per chunk of
    ``size`` trials; the chunks run in order. The first chunk's tuple is
    taken as it is, so a sum equals a loop that starts from zero and adds
    each chunk in turn, to the bit.
    """
    sums = None
    for chunk_index, size in enumerate(chunk_sizes(trials)):
        part = draw(chunk_rng(seed, chunk_index), size)
        sums = part if sums is None else tuple(a + b for a, b in zip(sums, part))
    return sums


def row_blocks(
    rng: np.random.Generator, size: int, width: int, block: Callable[..., object]
) -> Iterator:
    """``block(rng, rows)`` over consecutive row blocks of one chunk's ``size`` trials.

    ``width`` is the elements ``block`` holds at once for one trial; each
    block takes the most rows that keep it to :data:`._exact.OUTCOME_BLOCK`
    elements (read at call time), and at least one. The results come lazily,
    in row order, each drawn from the chunk's own generator ``rng`` when it
    is asked for, so ``block`` draws exactly what one draw of the whole chunk
    would.
    """
    step = _exact.block_rows(width)
    for lo in range(0, size, step):
        yield block(rng, min(step, size - lo))
