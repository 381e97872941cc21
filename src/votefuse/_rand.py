"""Deterministic chunked sampling shared by every Monte Carlo estimator.

Trials are always processed in fixed-size chunks, and each chunk gets its own
generator seeded by (seed, chunk_index). The stream a trial sees therefore
depends only on the seed and the trial's position in the budget, never on
scheduling: serial runs, restarts, and any parallel split of the chunks
produce bit-identical estimates.

:func:`chunk_sums` is the one driver: an estimator passes the statistic of
one chunk and gets back the running sums over the whole budget, then applies
its own closing formula for the estimate and its standard error.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

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
