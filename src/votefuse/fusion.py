"""Combining classifier outputs: fixed rules, accuracy-weighted votes, local skill.

Classifier outputs come in three shapes: a single predicted label per sample
(hard), a full preference ranking over labels (rank), or a probability row
per sample (proba). All three embed into per-class score vectors, which the
fixed fusion rules (sum, product, order statistics, majority) reduce across
classifiers. Accuracy-weighted majority voting maps validation accuracies to
log-odds weights; the adaptive variant re-estimates each classifier's
accuracy in the neighborhood of the query before weighting.

A :class:`PredictionSet` codes its labels once, when it is validated: the
hard vote of every classifier as an (N, K) array of label indices (top of a
ranking, argmax of a proba row), the true labels as (N,) indices with -1 for
a gap, and the (N, K, M) score tensor. Accuracies, confusion counts and
every weighted vote read these codes. :func:`.io.load_predictions` keeps
each validated set and returns it for every later load of the same bytes, so
a prediction file's labels are coded once per distinct bytes per process.

All weighted votes (two-label, one-vs-rest, local skill) go through one
kernel, :func:`_weighted_votes`. It adds +w for a classifier voting for the
class and -w otherwise, over the classifiers in index order, starting from
0.0. That order is the stalemate contract: each term is exact, so a score
equals a sequential dot product of the weights with the +-1 votes bit for
bit, and :func:`._exact.outcome`, which decides every weighted vote of the
package, finds a stalemate (an ``ND`` decision) where that sum meets the
bias, whatever the number of rows. The adaptive rule finds the
neighbors of all queries in one batched search: a matrix product per block
of queries ranks every validation sample up to a rounding band, and only
the samples inside it get the exact distance that decides
(:meth:`ValidationIndex.neighbors`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    ConfigurationWarning,
    DataError,
    DimensionError,
    EvidenceError,
    SampleError,
)
from ._exact import block_rows, outcome
from .jury import optimal_weights

FIXED_RULES = ("sum", "product", "min", "max", "median", "majority", "trimmed-mean")

_TRANSFORM_KINDS = ("likelihood", "log-likelihood", "sigmoid")
_DIRECTIONS = ("given-true", "given-predicted")


def _check_labels(labels) -> tuple[str, ...]:
    labs = tuple(str(x) for x in labels)
    if len(labs) < 2:
        raise DimensionError("at least two labels are required")
    if len(set(labs)) != len(labs):
        raise ValueError(f"labels repeat: {labs}")
    if any(not x for x in labs):
        raise ValueError("labels must be non-empty strings")
    return labs


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only view of a read-only owner.

    numpy lets an array that owns its memory be made writable again, but
    refuses ``setflags(write=True)`` on a view of a read-only owner; so no
    holder of the view can write to it. An ``a`` that owns no memory is
    copied first.
    """
    owner = a if a.base is None else a.copy()
    owner.setflags(write=False)
    return owner.view()


def _square_by_labels(matrix, field_name: str, dtype) -> np.ndarray:
    """Check the labels and the (m, m) array field of a frozen matrix; store both read-only."""
    labs = _check_labels(matrix.labels)
    a = np.asarray(getattr(matrix, field_name), dtype=dtype).copy()
    m = len(labs)
    if a.shape != (m, m):
        raise DimensionError(f"{field_name} must be {m}x{m} for {m} labels, got {a.shape}")
    a = _read_only(a)
    object.__setattr__(matrix, "labels", labs)
    object.__setattr__(matrix, field_name, a)
    return a


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Counts of (true label, predicted label) pairs; rows are true labels."""

    labels: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        given = np.asarray(self.counts)
        if given.dtype.kind not in "biu":  # a count that is no int64 reads as -1, cast with no warning
            with np.errstate(invalid="ignore"):
                f = given.astype(np.float64)
                whole = (f >= 0) & (f < 2.0**63) & (f % 1 == 0)
            object.__setattr__(self, "counts", np.where(whole, f, -1))
        c = _square_by_labels(self, "counts", np.int64)
        if (c < 0).any():
            raise ValueError("confusion counts must be finite non-negative integers")
        if sum(c.ravel().tolist()) >= 2**63:  # the exact total: an int64 sum would wrap
            raise ValueError("confusion counts must total at most 2**63 - 1, the int64 limit")
        if c.sum() == 0:
            raise EvidenceError("confusion matrix is empty")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.total


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Gain (positive) or loss (negative) of predicting column given row is true."""

    labels: tuple[str, ...]
    gains: np.ndarray

    def __post_init__(self):
        if not np.isfinite(_square_by_labels(self, "gains", np.float64)).all():
            raise ValueError("gains must be finite")


@dataclass(frozen=True, eq=False)
class ClassifierOutput:
    """One classifier's predictions for every sample, in one of three shapes.

    Hard votes and rankings are kept factorized: ``values`` holds each
    distinct label (``kind="hard"``) or ranking (``kind="rank"``) once, and
    ``rows`` (N,) the index into ``values`` of every sample's prediction.
    ``hard`` and ``ranks`` are per-sample views built from the two. A
    ``kind="proba"`` output keeps its (N, M) rows in ``proba``.
    """

    kind: str
    values: tuple = ()
    rows: Optional[np.ndarray] = None
    proba: Optional[np.ndarray] = None

    @classmethod
    def _factorized(cls, kind: str, items) -> "ClassifierOutput":
        codes: dict = {}
        rows = np.fromiter((codes.setdefault(x, len(codes)) for x in items), np.intp)
        return cls(kind, tuple(codes), _read_only(rows))

    @classmethod
    def from_hard(cls, predictions: Sequence[str]) -> "ClassifierOutput":
        return cls._factorized("hard", (str(x) for x in predictions))

    @classmethod
    def from_ranks(cls, rankings: Sequence[Sequence[str]]) -> "ClassifierOutput":
        return cls._factorized("rank", (tuple(str(x) for x in r) for r in rankings))

    @classmethod
    def from_proba(cls, matrix) -> "ClassifierOutput":
        return cls("proba", proba=_read_only(np.asarray(matrix, dtype=np.float64).copy()))

    @property
    def n_samples(self) -> int:
        return self.proba.shape[0] if self.kind == "proba" else len(self.rows)

    @property
    def hard(self) -> Optional[tuple[str, ...]]:
        """The predicted label of every sample; None unless ``kind="hard"``."""
        return self._per_sample(self.values) if self.kind == "hard" else None

    @property
    def ranks(self) -> Optional[tuple[tuple[str, ...], ...]]:
        """The ranking of every sample; None unless ``kind="rank"``."""
        return self._per_sample(self.values) if self.kind == "rank" else None

    @property
    def rankings(self) -> tuple[tuple[str, ...], ...]:
        """Each distinct value as a ranking: a hard vote is the ranking of its one label."""
        return tuple((v,) for v in self.values) if self.kind == "hard" else self.values

    def _per_sample(self, values: Sequence) -> tuple:
        return tuple(map(values.__getitem__, self.rows.tolist()))

    def _encode(self, labels: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Hard-vote label codes (n,) and per-class scores (n, m).

        A hard or rank output is checked, coded and scored once per distinct
        value, as a ranking (a hard vote ranks one label): place ``pos`` earns
        m - 1 - pos points over the ranking's sum, so a hard vote scores 1.
        The samples' codes and scores are then gathered by ``rows``. A bad
        value raises :class:`SampleError` at its first row. Proba rows must be
        non-negative, finite and sum to one.
        """
        if self.kind == "proba":
            p = self.proba
            bad = ((p < 0) | ~np.isfinite(p)).any(axis=1)
            if bad.any():
                raise SampleError(
                    "has negative or non-finite probabilities", sample=int(np.argmax(bad))
                )
            bad = np.abs(p.sum(axis=1) - 1.0) > 1e-9
            if bad.any():
                raise SampleError("probability row does not sum to 1", sample=int(np.argmax(bad)))
            return np.argmax(p, axis=1), p
        rows = np.asarray(self.rows, dtype=np.intp)
        if rows.size and (rows.min() < 0 or rows.max() >= len(self.values)):
            raise ValueError("rows must index the distinct values")
        m = len(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        if self.kind == "hard":
            width, message = 1, "predicts unknown label {!r}"
        else:
            width, message = m, "ranking {} is not a permutation of the labels"
        denom = sum(range(m - width, m))
        tops = np.zeros(len(self.values), dtype=np.intp)
        points = np.zeros((len(self.values), m))
        bad = []
        for d, ranking in enumerate(self.rankings):
            if len(ranking) != width or len(index.keys() & ranking) != width:
                bad.append(d)
                continue
            tops[d] = index[ranking[0]]
            for pos, lab in enumerate(ranking):
                points[d, index[lab]] = (m - 1 - pos) / denom
        if bad and np.isin(rows, bad).any():
            sample = int(np.argmax(np.isin(rows, bad)))
            raise SampleError(message.format(self.values[rows[sample]]), sample=sample)
        return tops[rows], points[rows]


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Predictions of K classifiers on N samples, plus optional truth and features.

    Labels are an ordered universe; every hard vote, ranking, and proba row is
    validated against it (proba rows must be non-negative and sum to one).
    ``true_labels`` may be missing entirely or hold per-sample gaps.

    Validation also codes the labels once: ``vote_codes`` (N, K) holds the
    label index of each classifier's hard vote, ``truth_codes`` (N,) the
    index of each true label or -1 for a gap, and :meth:`score_tensor` the
    (N, K, M) per-class scores. These and ``features``, like the arrays of
    outputs that :class:`ClassifierOutput`'s constructors and
    :func:`.io.parse_predictions` build, are read-only views of read-only
    owners, which no holder can make writable: a validated set never changes,
    so one set serves every load of the same bytes.
    """

    labels: tuple[str, ...]
    sample_ids: tuple[str, ...]
    outputs: tuple[ClassifierOutput, ...]
    classifier_names: tuple[str, ...]
    true_labels: Optional[tuple[Optional[str], ...]] = None
    features: Optional[np.ndarray] = None
    vote_codes: np.ndarray = field(init=False, repr=False)
    truth_codes: np.ndarray = field(init=False, repr=False)
    _scores: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        labs = _check_labels(self.labels)
        ids = tuple(map(str, self.sample_ids))
        if not ids:
            raise DimensionError("a prediction set needs at least one sample")
        outs = tuple(self.outputs)
        names = tuple(str(x) for x in self.classifier_names)
        if not outs:
            raise DimensionError("a prediction set needs at least one classifier")
        if len(names) != len(outs):
            raise DimensionError(f"{len(names)} names for {len(outs)} classifiers")
        n, m = len(ids), len(labs)
        codes = np.empty((n, len(outs)), dtype=np.intp)
        scores = np.empty((n, len(outs), m))
        for j, (name, out) in enumerate(zip(names, outs)):
            if out.kind not in ("hard", "rank", "proba"):
                raise ValueError(f"unknown output kind {out.kind!r}")
            if out.n_samples != n:
                raise DimensionError(
                    f"classifier {name} has {out.n_samples} predictions for {n} samples"
                )
            if out.kind == "proba" and out.proba.shape != (n, m):
                raise DimensionError(
                    f"classifier {name} proba shape {out.proba.shape} != ({n}, {m})"
                )
            try:
                codes[:, j], scores[:, j] = out._encode(labs)
            except SampleError as exc:
                raise SampleError(
                    f"classifier {name} {exc}", sample=exc.sample, classifier=j
                ) from None
        truth = self.true_labels
        truth_codes = np.full(n, -1, dtype=np.intp)
        if truth is not None:
            as_str = {x: None if x is None else str(x) for x in dict.fromkeys(truth)}
            truth = tuple(map(as_str.__getitem__, truth))
            if len(truth) != n:
                raise DimensionError(f"{len(truth)} true labels for {n} samples")
            index = {lab: i for i, lab in enumerate(labs)}
            for lab in as_str.values():
                if lab is not None and lab not in index:
                    raise SampleError(f"unknown true label {lab!r}", sample=truth.index(lab))
            index[None] = -1
            truth_codes = np.fromiter(map(index.__getitem__, truth), np.intp, n)
        feats = self.features
        if feats is not None:
            feats = np.asarray(feats, dtype=np.float64).copy()
            if feats.ndim != 2 or feats.shape[0] != n:
                raise DimensionError(f"features must be (n, d), got {feats.shape}")
            if not np.isfinite(feats).all():
                raise DataError("features must be finite")
            feats = _read_only(feats)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "outputs", outs)
        object.__setattr__(self, "classifier_names", names)
        object.__setattr__(self, "true_labels", truth)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "vote_codes", _read_only(codes))
        object.__setattr__(self, "truth_codes", _read_only(truth_codes))
        object.__setattr__(self, "_scores", _read_only(scores))

    @property
    def n_samples(self) -> int:
        return len(self.sample_ids)

    @property
    def n_classifiers(self) -> int:
        return len(self.outputs)

    def hard_votes(self, classifier: int) -> tuple[str, ...]:
        return tuple(_decode(self.vote_codes[:, classifier], self.labels))

    def score_tensor(self) -> np.ndarray:
        """(n_samples, n_classifiers, n_labels) per-class scores of every classifier."""
        return self._scores

    def labelled_indices(self) -> list[int]:
        return np.flatnonzero(self.truth_codes >= 0).tolist()

    def accuracy(self, classifier: int) -> float:
        counts = _tally(self.truth_codes, self.vote_codes[:, classifier], len(self.labels))
        if not counts.any():
            raise EvidenceError("no samples carry a true label")
        return int(np.trace(counts)) / int(counts.sum())


def _decode(codes: np.ndarray, labels: tuple[str, ...]) -> list[Optional[str]]:
    """Labels of label codes, None for -1."""
    return np.array(labels + (None,), dtype=object)[codes].tolist()


def _tally(truth: np.ndarray, votes: np.ndarray, m: int) -> np.ndarray:
    """(m, m) counts of (true, voted) code pairs over rows where both are >= 0."""
    keep = (truth >= 0) & (votes >= 0)
    return np.bincount(truth[keep] * m + votes[keep], minlength=m * m).reshape(m, m)


def confusion_from_predictions(pred: PredictionSet, classifier: int) -> ConfusionMatrix:
    """Tally the (true, predicted) counts of one classifier over labelled samples."""
    if not (pred.truth_codes >= 0).any():
        raise EvidenceError("no samples carry a true label")
    counts = _tally(pred.truth_codes, pred.vote_codes[:, classifier], len(pred.labels))
    return ConfusionMatrix(pred.labels, counts)


def confidence_transform(
    cm: ConfusionMatrix,
    kind: str = "log-likelihood",
    direction: str = "given-true",
    smoothing: float = 1.0,
) -> np.ndarray:
    """Turn confusion counts into per-cell confidences.

    With ``direction="given-true"`` cell (t, p) estimates P(predict p | true t)
    (rows sum to 1 after smoothing); ``"given-predicted"`` estimates
    P(true t | predict p) by normalizing columns. ``kind`` maps the estimate
    q to q itself, ln q, or the sigmoid Mq / (Mq + 1), which sends the
    uninformative value q = 1/M to 1/2. ``smoothing`` is the additive count
    alpha; with alpha = 0, cells whose marginal is empty come out as 0
    (and ln 0 = -inf).
    """
    if kind not in _TRANSFORM_KINDS:
        raise ValueError(f"kind must be one of {_TRANSFORM_KINDS}, got {kind!r}")
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    alpha = float(smoothing)
    if not np.isfinite(alpha) or alpha < 0:
        raise ValueError(f"smoothing must be finite and >= 0, got {alpha}")
    m = len(cm.labels)
    c = cm.counts.astype(np.float64)
    axis = 1 if direction == "given-true" else 0
    marginal = c.sum(axis=axis, keepdims=True)
    denom = marginal + alpha * m
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (c + alpha) / denom
    q = np.nan_to_num(q, nan=0.0, posinf=0.0, neginf=0.0)
    if kind == "likelihood":
        return q
    if kind == "log-likelihood":
        with np.errstate(divide="ignore"):
            return np.log(q)
    return m * q / (m * q + 1.0)


@dataclass(frozen=True, eq=False)
class FusedScores:
    """Fused per-class scores and the winning class index (ties to lowest index)."""

    scores: np.ndarray
    winner: Union[int, np.ndarray]


def _weights_or_warn(rule: str, weights, k: int) -> Optional[np.ndarray]:
    """The checked weights, or None and a warning where ``rule`` ignores them.

    The warning names the line that called :func:`fuse_fixed` or :func:`fuse_dataset`.
    """
    if weights is None:
        return None
    w = np.asarray(list(weights), dtype=np.float64)
    if w.size != k:
        raise DimensionError(f"{w.size} classifier weights for {k} classifiers")
    with np.errstate(over="ignore"):  # a weight sum past the float range is refused, not warned of
        total = w.sum()
    if (w < 0).any() or not 0 < total < np.inf:  # a NaN or an infinite weight fails the sum
        raise ValueError("classifier weights must be finite and non-negative with a positive, finite sum")
    if rule not in ("sum", "majority"):
        warnings.warn(
            f"rule {rule!r} ignores classifier weights", ConfigurationWarning, stacklevel=3
        )
        return None
    return w


def fuse_fixed(
    scores,
    rule: str,
    classifier_weights: Optional[Sequence[float]] = None,
    trim: float = 0.1,
) -> FusedScores:
    """Reduce per-classifier score vectors to one fused vector per sample.

    ``scores`` is (K, M) for one sample or (N, K, M) for a batch. Rules:
    ``sum`` (weighted mean), ``product``, ``min``, ``max``, ``median``,
    ``majority`` (weighted count of per-classifier argmax votes, as
    fractions), and ``trimmed-mean`` (drop floor(trim*K) highest and lowest
    per class). Only sum and majority consume classifier weights; passing
    weights with any other rule earns a ConfigurationWarning and is ignored.
    A NaN score is refused; -inf is a score, the ln 0 of
    :func:`confidence_transform`.
    """
    a = np.asarray(scores, dtype=np.float64)
    single = a.ndim == 2
    if single:
        a = a[None, :, :]
    if a.ndim != 3:
        raise DimensionError(f"scores must be (K, M) or (N, K, M), got shape {a.shape}")
    _, k, m = a.shape
    if m < 2 or k < 1:
        raise DimensionError(f"need K >= 1 classifiers over M >= 2 classes, got K={k}, M={m}")
    if rule not in FIXED_RULES:
        raise ValueError(f"rule must be one of {FIXED_RULES}, got {rule!r}")
    if np.isnan(a).any():
        raise DataError("scores must not be NaN")
    w = _weights_or_warn(rule, classifier_weights, k)
    if rule == "sum":
        if w is None:
            fused = a.mean(axis=1)
        else:
            if not w.all():  # a weight of 0 takes no part, and 0 * -inf would be NaN
                a = np.where(w[:, None] == 0, 0.0, a)
            fused = np.einsum("nkm,k->nm", a, w) / w.sum()
    elif rule == "product":
        fused = a.prod(axis=1)
    elif rule == "min":
        fused = a.min(axis=1)
    elif rule == "max":
        fused = a.max(axis=1)
    elif rule == "median":
        fused = np.median(a, axis=1)
    elif rule == "trimmed-mean":
        if not 0.0 <= trim < 0.5:
            raise ValueError(f"trim must be in [0, 0.5), got {trim}")
        g = int(np.floor(trim * k))
        ordered = np.sort(a, axis=1)
        kept = ordered[:, g : k - g, :]
        fused = kept.mean(axis=1)
    else:  # majority
        votes = np.argmax(a, axis=2)
        onehot = np.zeros_like(a)
        n_idx = np.arange(a.shape[0])[:, None]
        k_idx = np.arange(k)[None, :]
        onehot[n_idx, k_idx, votes] = 1.0
        if w is None:
            fused = onehot.mean(axis=1)
        else:
            fused = np.einsum("nkm,k->nm", onehot, w) / w.sum()
    winner = np.argmax(fused, axis=1)
    if single:
        return FusedScores(fused[0], int(winner[0]))
    return FusedScores(fused, winner)


def _weighted_votes(codes: np.ndarray, weights: np.ndarray, m: int) -> np.ndarray:
    """Weighted vote scores (N, M) of label codes (N, K): the fusion kernel.

    Score (n, c) is the sum over classifiers j of +w if classifier j votes
    for class c in row n, and -w otherwise. ``weights`` broadcasts to
    (N, K, M): pass (1, K, 1) for one weight per classifier, (N, K, 1) for
    weights that change from row to row, or (1, K, M) for weights per class.

    The sum runs over the classifiers in index order, starting from 0.0.
    Every term is exact (the signs are +-1), so a row's score equals, bit for
    bit, a sequential dot product of the weights with the +-1 votes, the
    order OpenBLAS ``ddot`` uses below 16 classifiers (from 16 on it keeps
    vector accumulators and can differ in the last ulp). Stalemates, and so
    ``ND`` decisions, depend on this order and on nothing else.
    """
    w = np.asarray(weights, dtype=np.float64)
    scores = np.zeros((codes.shape[0], m))
    classes = np.arange(m)
    for j in range(codes.shape[1]):
        scores += np.where(codes[:, j, None] == classes, w[:, j], -w[:, j])
    return scores


def _two_label_decisions(codes: np.ndarray, weights: np.ndarray, bias: float) -> np.ndarray:
    """Code 0 where the first label's score beats ``bias``, 1 below it, -1 on a stalemate."""
    if not np.isfinite(bias):
        raise ValueError(f"bias must be finite, got {bias}")
    return np.array((-1, 0, 1))[outcome(_weighted_votes(codes, weights, 2)[:, 0], bias)]


def _one_vs_rest_weights(class_accuracies: np.ndarray, clip: float) -> np.ndarray:
    """(K, M) log-odds weights, one :func:`optimal_weights` call per class column."""
    return np.column_stack([optimal_weights(acc, clip=clip) for acc in class_accuracies.T])


def _vote_codes(votes: Sequence[str], labels: tuple[str, ...]) -> np.ndarray:
    """(1, K) label codes of one sample's votes."""
    index = {lab: i for i, lab in enumerate(labels)}
    try:
        return np.array([[index[str(v)] for v in votes]], dtype=np.intp)
    except KeyError as exc:
        raise DataError(f"vote {exc.args[0]!r} is not one of the labels {labels}") from None


def fuse_wmr(
    votes: Sequence[str],
    accuracies: Sequence[float],
    bias: float = 0.0,
    clip: float = 1e-6,
    labels: Sequence[str] = ("A", "B"),
) -> Optional[str]:
    """Accuracy-weighted majority vote between two labels.

    Each classifier's vote carries weight ln(a / (1 - a)); the first label
    wins when the signed weight sum exceeds ``bias``, the second when it
    falls short, and None is returned on an exact stalemate. Only defined
    for two labels: for more classes fuse each as one-vs-rest via
    :func:`fuse_wmr_one_vs_rest`.
    """
    labs = _check_labels(labels)
    if len(labs) != 2:
        raise DataError(
            f"fuse_wmr is a two-label rule, got {len(labs)} labels; "
            f"use fuse_wmr_one_vs_rest for multiclass fusion"
        )
    vs, acc = list(votes), list(accuracies)
    if len(vs) != len(acc):
        raise DimensionError(f"{len(vs)} votes for {len(acc)} accuracies")
    codes = _vote_codes(vs, labs)
    w = optimal_weights(acc, clip=clip)
    return _decode(_two_label_decisions(codes, w[None, :, None], bias), labs)[0]


def fuse_wmr_one_vs_rest(
    votes: Sequence[str],
    class_accuracies,
    labels: Sequence[str],
    clip: float = 1e-6,
) -> str:
    """Multiclass accuracy-weighted voting: one binary duel per class.

    ``class_accuracies[k, c]`` is classifier k's accuracy on the binary task
    "label c versus the rest". Each class c scores the weighted sum of +1/-1
    indicators of classifiers voting for c, with log-odds weights from its
    own column; the highest score wins, ties to the lowest label index.
    """
    labs = _check_labels(labels)
    acc = np.asarray(class_accuracies, dtype=np.float64)
    vs = list(votes)
    if acc.shape != (len(vs), len(labs)):
        raise DimensionError(
            f"class_accuracies must be ({len(vs)}, {len(labs)}), got {acc.shape}"
        )
    codes = _vote_codes(vs, labs)
    scores = _weighted_votes(codes, _one_vs_rest_weights(acc, clip)[None], len(labs))
    return labs[int(np.argmax(scores[0]))]


def _band(d: int) -> float:
    """The rounding bound of :meth:`ValidationIndex.neighbors` per unit of R: 2 (3d + 16) u."""
    return 2 * (3 * d + 16) * 2.0**-53


class ValidationIndex:
    """Nearest-neighbor lookup over a validation set with correctness flags.

    ``features`` is (N, d); ``correct`` is (N, K) booleans, one column per
    classifier. The distance is Euclidean after standardizing each
    feature by its validation-set mean and spread (constant features are
    dropped). Neighbor ties are broken by validation-set order.
    """

    def __init__(self, features, correct):
        x = np.asarray(features, dtype=np.float64)
        c = np.asarray(correct, dtype=bool)
        if x.ndim != 2 or x.shape[0] < 1:
            raise DimensionError(f"features must be (N, d) with N >= 1, got {x.shape}")
        if not np.isfinite(x).all():
            raise DataError("features must be finite")
        if c.ndim != 2 or c.shape[0] != x.shape[0]:
            raise DimensionError(
                f"correct flags must be (N, K) with N={x.shape[0]}, got {c.shape}"
            )
        self.features = x
        self.correct = c
        spread = x.std(axis=0)
        kept = spread > 0
        self._kept = kept
        self._spread = spread[kept]
        self._kept_features = x[:, kept]
        # the columns [-2 y, |y|^2] of the search's product, y the centred and
        # standardized features (see neighbors); an overflow there only
        # widens the search, so it is not warned of
        with np.errstate(over="ignore", invalid="ignore"):
            self._centre = x.mean(axis=0)[kept]
            y = (self._kept_features - self._centre) / self._spread
            norms = (y * y).sum(axis=1)
            self._product = np.vstack([-2.0 * y.T, norms])
            self._reach = np.sqrt(norms.max())
        self._magnitude = np.abs(self._kept_features).max(initial=0.0)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_classifiers(self) -> int:
        return self.correct.shape[1]

    def neighbors(self, query, k: int) -> np.ndarray:
        """Indices of the k nearest validation samples, nearest first.

        ``query`` is one point (d,), giving (k',), or a batch (B, d), giving
        (B, k'), where k' = min(k, N). Each row is the head of the stable
        argsort of the distances D_j = sqrt(sum_i ((x_ji - q_i) / s_i)^2)
        over the kept features, each term and the sum computed in float as
        written; so ties go to the lower validation index. A single query
        passed as (1, d) is a batch of one; :func:`fuse_adaptive_wmr` takes
        one query of any shape. A query that is not finite is refused, as the
        index's own features are.

        A batch is searched in blocks of :func:`._exact.block_rows` queries,
        so that no temporary passes (block, N) or (block, d + 1); there is
        no (block, N, d) one. Each block takes a matrix product: with
        y_j = (x_j - c) / s and p = (q - c) / s for the feature means c, the
        row [p, 1] times the column [-2 y_j, |y_j|^2] is a_j = |y_j|^2 -
        2 y_j.p, the squared distance less |p|^2, a constant of the row.
        ``np.partition`` finds the row's k'-th smallest a, t, in place. The
        candidates are the j with a_j <= t + 2 bound in the product taken
        again, so that a block holds one (block, N) table of floats at a
        time; the bound holds for each product on its own, so the two need
        not agree to the bit. The candidates are taken in index order; only
        they get D_j, and one stable ``np.lexsort`` by row, then by D_j,
        orders them; a row's first k' are its neighbours. ``lexsort`` puts
        NaN last, as the argsort does, and every row has at least k'
        candidates: every j with D_j <= D*, below.

        Why the candidates hold the answer. Let d' count the kept features,
        u = 2^-53, gamma_n = nu / (1 - nu) (Higham, *Accuracy and Stability
        of Numerical Algorithms*, 2002, 3.1), S_j = |y_j - p|^2 and A_j =
        S_j - |p|^2 in exact arithmetic, and R = (sqrt(M) + |p|)^2 with M the
        largest |y_j|^2, so that S_j <= R and |A_j| <= R.

        - The product. A coordinate of y or p carries a relative error of at
          most gamma_2, and |y_j|^2 one of gamma_{d'+4}. The d' + 1 terms of
          a_j add in whatever order BLAS takes, with FMA or without, so
          |a_j - A_j| <= gamma_{2d'+5} R.
        - The distances. A term ((x - q) / s)^2 takes three roundings, and
          the sum of the non-negative terms at most d' - 1 more, so the float
          sum is S_j (1 + theta) with |theta| <= gamma_{d'+4}. The root is
          correctly rounded, but equal roots can come from unequal sums:
          D_j <= D_i only bounds the float sum of j by (1 + u)^2 / (1 - u)^2
          <= 1 + gamma_4 times that of i. So D_j <= D_i implies S_j <= S_i
          (1 + gamma_{3d'+16}), and A_j <= A_i + gamma_{3d'+16} R.
        - Let D* be the k'-th smallest D. Among the k' indices of the
          smallest a in the first product, some i has D_i >= D*, and
          a_i <= t. So every j with D_j <= D* has, in the second product,
          a_j <= A_j + gamma_{2d'+5} R <= A_i + (gamma_{2d'+5} +
          gamma_{3d'+16}) R <= t + (2 gamma_{2d'+5} + gamma_{3d'+16}) R,
          about t + (7d' + 26) u R.

        :func:`_band` sets bound = 2 (3d' + 16) u R from the computed M and
        |p|, so 2 bound = (12d' + 64) u R; the slack covers the rounding of
        M, |p|, R and t + 2 bound. Underflow adds at most 2^-1075 an
        operation, which the slack covers too: a kept feature has some
        (x - c)^2 of at least 2^-1074 that its spread cannot pass by much,
        so M is at least about 1/4. Nothing overflows while R <= 2^1000 and
        |x| + |q| <= 2^1000; a row past either takes every index as a
        candidate. So the candidates of a row hold every j with D_j <= D*,
        and the row is the head of the stable argsort, bit for bit.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        q = np.asarray(query, dtype=np.float64)
        if not np.isfinite(q).all():
            raise DataError("query features must be finite")
        single = q.ndim < 2
        q = q.reshape(1, -1) if single else q
        if q.shape[1] != self.features.shape[1]:
            raise DimensionError(
                f"query has {q.shape[1]} features, index has {self.features.shape[1]}"
            )
        count = min(k, self.n_samples)
        step = block_rows(self.n_samples + self._product.shape[0])
        out = np.empty((q.shape[0], count), dtype=np.intp)
        for start in range(0, q.shape[0], step):
            out[start : start + step] = self._nearest(q[start : start + step, self._kept], count)
        return out[0] if single else out

    def _nearest(self, q: np.ndarray, count: int) -> np.ndarray:
        """The ``count`` nearest samples of a block of queries (B, d') on the kept features."""
        b, d = q.shape
        with np.errstate(over="ignore", invalid="ignore"):
            p = np.ones((b, d + 1))
            p[:, :d] = (q - self._centre) / self._spread
            scale = (self._reach + np.sqrt((p[:, :d] ** 2).sum(axis=1))) ** 2
            a = p @ self._product
            a.partition(count - 1, axis=1)
            cut = a[:, count - 1] + 2 * _band(d) * scale
            del a  # taken again below, not kept whole beside a partitioned copy
            keep = p @ self._product <= cut[:, None]
        big = np.abs(q).max(axis=1, initial=0.0) > 2.0**1000 - self._magnitude
        keep[big | ~(scale <= 2.0**1000)] = True  # no bound holds there: every index
        rows, cols = divmod(np.flatnonzero(keep), self.n_samples)
        dist = np.zeros(rows.size)
        step = block_rows(max(1, d))
        for lo in range(0, rows.size, step):
            z = self._kept_features[cols[lo : lo + step]] - q[rows[lo : lo + step]]
            z /= self._spread
            z *= z
            for term in z.T:  # in feature order, which numpy's own sum does not promise
                dist[lo : lo + step] += term
        np.sqrt(dist, out=dist)
        order = np.lexsort((dist, rows))  # stable, NaN last: each row's argsort, row by row
        first = np.searchsorted(rows, np.arange(b))
        return cols[order[first[:, None] + np.arange(count)]]

    def skills(self, query, k: int) -> np.ndarray:
        """Smoothed accuracy of every classifier among the k nearest samples.

        (hits + 1) / (k' + 2) with k' = min(k, N), which stays strictly inside
        (0, 1) so log-odds weights remain finite: (K,) for one query, (B, K)
        for a batch of B queries.
        """
        nb = self.neighbors(query, k)
        hits = self.correct[nb].sum(axis=-2)
        return (hits + 1) / (nb.shape[-1] + 2)


def fuse_adaptive_wmr(
    query,
    votes: Sequence[str],
    index: ValidationIndex,
    k: int,
    clip: float = 1e-6,
    labels: Sequence[str] = ("A", "B"),
) -> Optional[str]:
    """Weighted vote using each classifier's skill near the query point.

    The signed weight sum is compared with 0 (``fuse_dataset`` takes a bias).
    """
    vs = list(votes)
    if len(vs) != index.n_classifiers:
        raise DimensionError(f"{len(vs)} votes for {index.n_classifiers} indexed classifiers")
    skills = index.skills(np.ravel(query), k)
    return fuse_wmr(vs, skills, bias=0.0, clip=clip, labels=labels)


def binary_accuracies(cm: ConfusionMatrix) -> np.ndarray:
    """Per-label one-vs-rest accuracy of the classifier behind a confusion matrix."""
    c = cm.counts.astype(np.float64)
    total = c.sum()
    row = c.sum(axis=1)
    col = c.sum(axis=0)
    diag = np.diag(c)
    # correct on the c-vs-rest task: true positives plus true negatives
    return (diag + total - row - col + diag) / total


def expected_risk(
    cm: ConfusionMatrix, cost: CostMatrix, class_priors: Optional[Sequence[float]] = None
) -> float:
    """Expected gain per decision: sum over P(true) P(predicted | true) gain.

    Priors default to the confusion matrix's row marginals. A label with a
    positive prior but no observations is refused (EvidenceError) rather than
    silently scored.
    """
    if cm.labels != cost.labels:
        raise DimensionError(
            f"confusion labels {cm.labels} do not match cost labels {cost.labels}"
        )
    c = cm.counts.astype(np.float64)
    row = c.sum(axis=1)
    if class_priors is None:
        priors = row / c.sum()
    else:
        priors = np.asarray(list(class_priors), dtype=np.float64)
        if priors.size != len(cm.labels):
            raise DimensionError(f"{priors.size} priors for {len(cm.labels)} labels")
        if not np.isfinite(priors).all() or (priors < 0).any() or priors.sum() <= 0:
            raise ValueError("priors must be finite and non-negative with positive sum")
        priors = priors / priors.sum()
    value = 0.0
    for t in range(len(cm.labels)):
        if row[t] == 0:
            if priors[t] > 0:
                raise EvidenceError(
                    f"label {cm.labels[t]!r} has positive prior but no observations"
                )
            continue
        value += float(priors[t]) * float((c[t] / row[t]) @ cost.gains[t])
    return value


def fuse_dataset(
    pred: PredictionSet,
    rule: str,
    validation: Optional[PredictionSet] = None,
    classifier_weights: Optional[Sequence[float]] = None,
    trim: float = 0.1,
    k: int = 5,
    bias: float = 0.0,
    clip: float = 1e-6,
) -> list[Optional[str]]:
    """Fuse every sample of a prediction set, returning one label (or None) each.

    Fixed rules reduce the score tensor directly. ``rule="wmr"`` weighs hard
    votes by accuracies estimated on ``validation`` (or on ``pred`` itself if
    it carries true labels): log-odds weighting for two labels, one-vs-rest
    for more. ``validation`` must have the labels of ``pred`` and its
    classifiers, named in the same order. ``rule="adaptive-wmr"``
    additionally needs features on both sets and re-estimates accuracies
    among the k nearest validation samples of each query; it is defined for
    two labels. Only the two-label rules read ``bias``; giving a non-zero
    bias to any other rule earns a ConfigurationWarning, and a non-finite one
    is refused for every rule. ``classifier_weights`` are treated alike: only
    sum and majority read them.
    """
    labels = pred.labels
    if not np.isfinite(bias):
        raise ValueError(f"bias must be finite, got {bias}")
    if bias and (rule in FIXED_RULES or (rule == "wmr" and len(labels) > 2)):
        where = f" on {len(labels)} labels" if rule == "wmr" else ""
        warnings.warn(f"rule {rule!r} ignores the bias{where}", ConfigurationWarning, stacklevel=2)
    if rule not in FIXED_RULES and rule not in ("wmr", "adaptive-wmr"):
        raise ValueError(f"unknown rule {rule!r}")
    weights = _weights_or_warn(rule, classifier_weights, pred.n_classifiers)
    if rule in FIXED_RULES:
        fused = fuse_fixed(pred.score_tensor(), rule, classifier_weights=weights, trim=trim)
        return _decode(np.atleast_1d(fused.winner), labels)
    source = validation if validation is not None else pred
    if source.labels != labels:
        raise DimensionError(
            f"validation labels {source.labels} do not match prediction labels {labels}"
        )
    if source.classifier_names != pred.classifier_names:
        raise DimensionError(
            f"validation classifiers {list(source.classifier_names)} do not match prediction "
            f"classifiers {list(pred.classifier_names)}"
        )
    if rule == "wmr":
        if len(labels) == 2:
            acc = [source.accuracy(j) for j in range(source.n_classifiers)]
            w = optimal_weights(acc, clip=clip)
            codes = _two_label_decisions(pred.vote_codes, w[None, :, None], bias)
        else:
            class_acc = np.stack(
                [
                    binary_accuracies(confusion_from_predictions(source, j))
                    for j in range(source.n_classifiers)
                ]
            )
            w = _one_vs_rest_weights(class_acc, clip)
            codes = np.argmax(_weighted_votes(pred.vote_codes, w[None], len(labels)), axis=1)
    else:
        if len(labels) != 2:
            raise DataError("adaptive-wmr is a two-label rule; fuse one-vs-rest instead")
        if pred.features is None or source.features is None:
            raise DataError("adaptive-wmr needs features on both prediction and validation sets")
        labelled = source.truth_codes >= 0
        if not labelled.any():
            raise EvidenceError("validation set carries no true labels")
        truth = source.truth_codes[labelled]
        index = ValidationIndex(
            source.features[labelled], source.vote_codes[labelled] == truth[:, None]
        )
        skills = index.skills(pred.features, k)
        w = optimal_weights(skills.ravel(), clip=clip).reshape(skills.shape)
        codes = _two_label_decisions(pred.vote_codes, w[:, :, None], bias)
    return _decode(codes, labels)
