"""Deterministic chunked sampling shared by every Monte Carlo estimator.

Trials are always processed in fixed-size chunks, and each chunk gets its own
generator seeded by (seed, chunk_index). The stream a trial sees therefore
depends only on the seed and the trial's position in the budget, never on
scheduling: serial runs, restarts, and any parallel split of the chunks
produce bit-identical estimates.

:func:`chunk_sums` is the one loop over chunks and the rows inside them. It
runs the chunks on the available CPUs and adds their totals in chunk order.
The chunks running at once share one row block of
:data:`._exact.OUTCOME_BLOCK` elements, so sampling memory follows that block
and not the chunk times the players. The stream is unchanged: ``random``,
``integers`` and ``permuted(axis=1)`` give the same values however the rows
of one generator are split, and the blocks take them in row order. An
estimator passes the statistic of one block, which holds only exact numbers
(integer counts, as ints or in float64 or int64), so no split into chunks,
blocks or threads can change a sum; it then applies its own closing formula
for the estimate and its standard error. A budget is at most 2^53 trials,
past which float64 sums of counts are not exact.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from . import _exact

CHUNK = 1 << 16


def check_trials(trials: int) -> None:
    """Refuse a trial budget below 1 or above 2^53 before any work is done."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > 1 << 53:
        raise ValueError(f"trials must be <= 2^53, got {trials}")


def chunk_sizes(trials: int) -> Iterator[int]:
    check_trials(trials)
    return (min(CHUNK, trials - lo) for lo in range(0, trials, CHUNK))


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, chunk_index])


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _add(sums: tuple | None, part: tuple) -> tuple:
    return part if sums is None else tuple(a + b for a, b in zip(sums, part))


def chunk_sums(
    trials: int, seed: int, width: int, block: Callable[[np.random.Generator, int], tuple]
) -> tuple:
    """Elementwise sum of ``block(rng, rows)`` over every row block of every chunk.

    Chunk i draws from ``chunk_rng(seed, i)``, its rows in order. The chunks
    run in windows of ``workers`` (the available CPUs, or the chunks if
    fewer): the calling thread runs a window's first chunk, a pool of
    ``workers - 1`` threads the others, and the chunk totals are added in
    chunk order; one CPU or one chunk starts no thread. The workers share one
    block budget, so a chunk's rows come in blocks of
    :func:`._exact.block_rows` of ``width * workers`` (read at call time),
    ``width`` being the elements ``block`` holds at once for one trial.
    ``block`` returns one tuple of exact counts (ints, or float64 or int64
    arrays of integers) for its ``rows`` trials and shares no state between
    calls; the first tuple is taken as it is, and the sums are exact whatever
    the chunk and block sizes and the threads.
    """
    chunks = enumerate(chunk_sizes(trials))
    workers = min(_available_cpus(), -(-trials // CHUNK))
    step = _exact.block_rows(width * workers)

    def chunk_total(chunk_index: int, size: int) -> tuple:
        rng = chunk_rng(seed, chunk_index)
        total = None
        for lo in range(0, size, step):
            total = _add(total, block(rng, min(step, size - lo)))
        return total

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(workers - 1)
    else:
        pool = nullcontext()  # windows of one chunk submit nothing
    sums = None
    with pool:
        # windows keep a budget of 2^37 chunks lazy
        while window := list(islice(chunks, workers)):
            later = [pool.submit(chunk_total, *chunk) for chunk in window[1:]]
            for total in [chunk_total(*window[0])] + [f.result() for f in later]:
                sums = _add(sums, total)
    return sums
