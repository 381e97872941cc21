"""Core types for weighted voting: games, coalitions, skills, vote profiles.

Weights and quotas are stored as exact :class:`fractions.Fraction` values so
that winningness is decided without rounding; every numeric question about a
coalition ("is its weight strictly above the quota?") has an exact answer.
Coalitions are bit masks over player indices, which keeps set algebra cheap
and gives every coalition a canonical integer form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, lcm
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DimensionError, InvalidCoalitionError, WeightScaleError

#: Coalitions are stored in a single Python int used as a bit mask; 63 keeps
#: every mask inside one machine word with room to spare. Games have no such
#: limit: their exact kernels are priced in work and sampling uses no masks.
MAX_PLAYERS = 63

WeightLike = Union[int, float, str, Fraction]


def as_fraction(value: WeightLike) -> Fraction:
    """Coerce ints, floats, Fractions, numpy scalars or strings like ``"3/4"`` to a Fraction.

    A float that is not finite is a :class:`ValueError` naming it.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value.strip())
    value = value.item() if isinstance(value, np.generic) else value
    if isinstance(value, float) and not isfinite(value):
        raise ValueError(f"not a finite number: {value!r}")
    return Fraction(value)


class Coalition:
    """An unordered set of player indices, stored as a bit mask.

    Construct from an iterable of indices, or from a raw mask via
    :meth:`from_mask`. Instances are immutable and hashable.
    """

    __slots__ = ("mask",)

    def __init__(self, members: Iterable[int] = ()):
        mask = 0
        for m in members:
            idx = int(m)
            if idx < 0 or idx >= MAX_PLAYERS:
                raise InvalidCoalitionError(f"player index {idx} out of range 0..{MAX_PLAYERS - 1}")
            mask |= 1 << idx
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_mask(cls, mask: int) -> "Coalition":
        if mask < 0 or mask >= 1 << MAX_PLAYERS:
            raise InvalidCoalitionError(f"mask {mask} out of range")
        c = cls.__new__(cls)
        object.__setattr__(c, "mask", mask)
        return c

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.mask.bit_length()) if self.mask >> i & 1)

    def __contains__(self, player: int) -> bool:
        return 0 <= player < MAX_PLAYERS and bool(self.mask >> player & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self):
        return iter(self.members)

    def __eq__(self, other) -> bool:
        return isinstance(other, Coalition) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(("Coalition", self.mask))

    def __or__(self, other: "Coalition") -> "Coalition":
        return Coalition.from_mask(self.mask | other.mask)

    def __and__(self, other: "Coalition") -> "Coalition":
        return Coalition.from_mask(self.mask & other.mask)

    def __sub__(self, other: "Coalition") -> "Coalition":
        return Coalition.from_mask(self.mask & ~other.mask)

    def __setattr__(self, name, value):
        raise AttributeError("Coalition is immutable")

    def __repr__(self) -> str:
        return f"Coalition({{{', '.join(map(str, self.members))}}})"


CoalitionLike = Union[Coalition, Iterable[int], int]


def _coerce_coalition(value: CoalitionLike, n: int) -> Coalition:
    """A Coalition, a mask or members as a Coalition, refused if a member is not among n players."""
    if not isinstance(value, Coalition):
        value = Coalition.from_mask(value) if isinstance(value, int) else Coalition(value)
    if value.mask >> n:
        raise InvalidCoalitionError(
            f"coalition {sorted(value.members)} has members outside a {n}-player game"
        )
    return value


@dataclass(frozen=True)
class VotingGame:
    """A weighted majority game: non-negative player weights and a quota.

    A coalition wins iff its weight is *strictly* greater than the quota.
    When ``quota`` is omitted it defaults to half the total weight, i.e. the
    simple-majority rule "more than half of all weight".
    """

    weights: tuple[Fraction, ...]
    quota: Fraction = None  # type: ignore[assignment]  # None -> half the total

    def __post_init__(self):
        ws = tuple(as_fraction(w) for w in self.weights)
        if not ws:
            raise DimensionError("a game needs at least one player")
        for i, w in enumerate(ws):
            if w < 0:
                raise ValueError(f"weight of player {i} is negative: {w}")
        if all(w.denominator == 1 for w in ws):  # integers add without Fraction arithmetic
            total = Fraction(sum(w.numerator for w in ws))
        else:
            total = sum(ws)
        q = total / 2 if self.quota is None else as_fraction(self.quota)
        if not 0 <= q <= total:
            raise ValueError(f"quota {q} outside [0, {total}]")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "quota", q)

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def __repr__(self) -> str:
        ws = ", ".join(str(w) for w in self.weights)
        return f"VotingGame(weights=({ws}), quota={self.quota})"


def coalition_weight(game: VotingGame, coalition: CoalitionLike) -> Fraction:
    """Exact total weight of the coalition's members."""
    c = _coerce_coalition(coalition, game.n)
    return sum((game.weights[i] for i in c), Fraction(0))


def is_winning(game: VotingGame, coalition: CoalitionLike) -> bool:
    """True iff the coalition's weight strictly exceeds the quota."""
    return coalition_weight(game, coalition) > game.quota


def integer_form(game: VotingGame) -> tuple[np.ndarray, int]:
    """Rescale weights and quota by a common denominator to integers.

    Returns ``(weights, quota)`` with int64 weights; the winning condition
    ``sum > quota`` is preserved exactly. Raises :class:`WeightScaleError`
    (a :class:`DataError`, and also an :class:`OverflowError`) if the scaled
    total would not fit in a signed 64-bit word, naming the weight or the
    total at fault when they are past that range before any scaling.
    """
    denoms = [w.denominator for w in game.weights] + [game.quota.denominator]
    scale = lcm(*denoms)
    ws = [w.numerator * (scale // w.denominator) for w in game.weights]
    q = game.quota.numerator * (scale // game.quota.denominator)
    limit = 1 << 62
    if sum(ws) + abs(q) >= limit:
        big = [i for i, w in enumerate(game.weights) if w >= limit]
        if big:
            message = f"the weight of player {big[0]} is past the 64-bit range"
        elif sum(game.weights) + game.quota >= limit:
            message = "the total weight and the quota add up past the 64-bit range"
        else:
            message = (
                f"weights and quota scaled to their common denominator {scale} exceed "
                f"the 64-bit range; reduce denominators"
            )
        raise WeightScaleError(message)
    return np.array(ws, dtype=np.int64), q


@dataclass(frozen=True)
class SkillProfile:
    """Per-player probabilities of a correct vote, each in [0, 1] (see :func:`skill_array`)."""

    p: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(skill_array(self.p).tolist()))

    @property
    def n(self) -> int:
        return len(self.p)


SkillsLike = Union[SkillProfile, Sequence[float], np.ndarray]


def skill_array(skills: SkillsLike) -> np.ndarray:
    """The (n,) float64 skills of a :class:`SkillProfile` or of the given values.

    Values that are not one per player are a :class:`DimensionError`; the
    first one outside [0, 1], NaN included, is a :class:`ValueError` naming
    its player.
    """
    p = np.asarray(skills.p if isinstance(skills, SkillProfile) else skills, dtype=np.float64)
    if p.ndim != 1:
        raise DimensionError(f"skills must be one value per player, got shape {p.shape}")
    bad = ~((p >= 0.0) & (p <= 1.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"skill of player {i} is {float(p[i])}, outside [0, 1]")
    return p


@dataclass(frozen=True)
class DecisionProfile:
    """One yes/no vote per player, encoded as +1 (for A) or -1 (for B).

    Profiles map to table indices: player ``i`` votes +1 exactly when bit
    ``i`` of :attr:`index` is set.
    """

    votes: tuple[int, ...]

    def __post_init__(self):
        vs = tuple(int(v) for v in self.votes)
        if any(v not in (1, -1) for v in vs):
            raise ValueError("votes must be +1 or -1")
        object.__setattr__(self, "votes", vs)

    @property
    def n(self) -> int:
        return len(self.votes)

    @property
    def index(self) -> int:
        m = 0
        for i, v in enumerate(self.votes):
            if v == 1:
                m |= 1 << i
        return m

    @classmethod
    def from_index(cls, index: int, n: int) -> "DecisionProfile":
        if not 0 <= index < 1 << n:
            raise ValueError(f"index {index} out of range for n={n}")
        return cls(tuple(1 if index >> i & 1 else -1 for i in range(n)))
