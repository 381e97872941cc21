import itertools
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votefuse import _exact, fusion
from votefuse.errors import (
    ConfigurationWarning,
    DataError,
    DimensionError,
    EvidenceError,
    SampleError,
)
from votefuse.fusion import (
    FIXED_RULES,
    ClassifierOutput,
    ConfusionMatrix,
    CostMatrix,
    PredictionSet,
    ValidationIndex,
    binary_accuracies,
    confidence_transform,
    confusion_from_predictions,
    expected_risk,
    fuse_adaptive_wmr,
    fuse_dataset,
    fuse_fixed,
    fuse_wmr,
    fuse_wmr_one_vs_rest,
)
from votefuse.jury import optimal_weights

from oracles import neighbors_argsort, output_scores_brute, wmr_brute, wmr_one_vs_rest_brute


class TestConfusionMatrix:
    def test_totals_and_accuracy(self):
        cm = ConfusionMatrix(("a", "b"), [[8, 2], [1, 9]])
        assert cm.total == 20
        assert cm.accuracy == 17 / 20

    def test_validation(self):
        with pytest.raises(DimensionError):
            ConfusionMatrix(("a", "b"), [[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            ConfusionMatrix(("a", "b"), [[1, -1], [0, 0]])
        with pytest.raises(EvidenceError):
            ConfusionMatrix(("a", "b"), [[0, 0], [0, 0]])
        with pytest.raises(ValueError):
            ConfusionMatrix(("a", "a"), [[1, 0], [0, 1]])

    @pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf"), 1e30, -1.0])
    def test_a_count_that_is_not_a_whole_number_is_refused_without_a_cast_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite non-negative integers"):
                ConfusionMatrix(("a", "b"), [[bad, 0.7], [0, 1]])
            with pytest.raises(ValueError, match="finite non-negative integers"):
                ConfusionMatrix(("a", "b"), np.array([[1.0, bad], [0.0, 1.0]]))

    def test_whole_float_counts_read_as_integer_counts(self):
        cm = ConfusionMatrix(("a", "b"), [[3.0, 1.0], [0.0, 1.0]])
        assert cm.counts.dtype == np.int64 and cm.counts.tolist() == [[3, 1], [0, 1]]
        assert cm.accuracy == 0.8

    @pytest.mark.parametrize("counts", [[[2**62] * 2] * 2, [[2**62, 2**62], [0, 1]]])
    def test_counts_whose_total_passes_the_int64_range_are_refused(self, counts):
        with pytest.raises(ValueError, match=re.escape("total at most 2**63 - 1")):
            ConfusionMatrix(("a", "b"), counts)

    def test_counts_totalling_the_int64_maximum_are_kept(self):
        cm = ConfusionMatrix(("a", "b"), [[2**63 - 1, 0], [0, 0]])
        assert cm.total == 2**63 - 1 and cm.accuracy == 1.0


class TestReadOnlyArrays:
    def test_no_array_a_set_or_matrix_holds_can_be_made_writable(self):
        pred = PredictionSet(
            labels=("a", "b"),
            sample_ids=("s0", "s1"),
            outputs=(
                ClassifierOutput.from_hard(["a", "b"]),
                ClassifierOutput.from_ranks([("b", "a"), ("a", "b")]),
                ClassifierOutput.from_proba([[0.25, 0.75], [1.0, 0.0]]),
            ),
            classifier_names=("h", "r", "p"),
            true_labels=("a", None),
            features=[[1.0], [2.0]],
        )
        outputs = [a for o in pred.outputs for a in (o.rows, o.proba) if a is not None]
        arrays = [
            pred.vote_codes, pred.truth_codes, pred.score_tensor(), pred.features, *outputs,
            ConfusionMatrix(("a", "b"), [[1, 0], [0, 1]]).counts,
            CostMatrix(("a", "b"), [[1.0, 0.0], [0.0, 1.0]]).gains,
        ]
        assert len(arrays) == 9
        for array in arrays:
            with pytest.raises(ValueError, match="WRITEABLE"):
                array.setflags(write=True)
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0

    @pytest.mark.parametrize("kind", ["rows", "proba"])
    def test_a_later_write_to_the_callers_array_changes_nothing_kept(self, kind):
        if kind == "rows":
            given = np.array([0, 1])
            out = ClassifierOutput("hard", (("a",), ("b",)), given)
        else:
            given = np.array([[1.0, 0.0], [0.0, 1.0]])
            out = ClassifierOutput("proba", proba=given)
        pred = PredictionSet(("a", "b"), ("s0", "s1"), (out,), ("c",))
        given[0] = given[1]
        assert given.flags.writeable
        assert pred.hard_votes(0) == ("a", "b") and pred.vote_codes.tolist() == [[0], [1]]
        assert pred.score_tensor()[:, 0].tolist() == [[1.0, 0.0], [0.0, 1.0]]
        if kind == "rows":
            assert out.rows.tolist() == [0, 1] and out.hard == ("a", "b")
        else:
            assert out.proba.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_an_array_that_owns_no_memory_is_copied_first(self):
        base = np.arange(6.0)
        view = fusion._read_only(base[::2])
        base[0] = 9.0
        assert view.tolist() == [0.0, 2.0, 4.0] and base.flags.writeable


class TestCostMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            CostMatrix(("a", "b"), [[1.0, float("inf")], [0.0, 1.0]])
        with pytest.raises(DimensionError):
            CostMatrix(("a", "b"), [[1.0, 0.0]])


def one_set(*outputs, labels=("a", "b", "c")):
    """A prediction set holding ``outputs``, one classifier each."""
    return PredictionSet(
        labels=labels,
        sample_ids=tuple(f"s{i}" for i in range(outputs[0].n_samples)),
        outputs=outputs,
        classifier_names=tuple(f"c{j}" for j in range(len(outputs))),
    )


class TestClassifierOutput:
    def test_hard_labels_for_each_kind(self):
        pred = one_set(
            ClassifierOutput.from_hard(("b", "a")),
            ClassifierOutput.from_ranks((("c", "a", "b"), ("a", "b", "c"))),
            ClassifierOutput.from_proba([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]),
        )
        assert [pred.hard_votes(j) for j in range(3)] == [("b", "a"), ("c", "a"), ("b", "a")]
        assert pred.vote_codes.tolist() == [[1, 2, 1], [0, 0, 0]]

    def test_a_hard_vote_is_kept_as_the_ranking_of_its_one_label(self):
        out = ClassifierOutput.from_hard(["a", "b", "a"])
        assert out.values == (("a",), ("b",)) and out.rows.tolist() == [0, 1, 0]
        assert out.hard == ("a", "b", "a") and out.ranks is None

    def test_an_unknown_kind_and_rows_past_the_values_are_refused_when_built(self):
        with pytest.raises(ValueError, match="unknown output kind 'vote'"):
            ClassifierOutput("vote", (("a",),), np.array([0]))
        for rows in ([0, 1], [-1]):
            with pytest.raises(ValueError, match="rows must index the distinct values"):
                ClassifierOutput("hard", (("a",),), np.array(rows))

    @pytest.mark.parametrize(
        "kind, values", [("hard", ("a", "b")), ("rank", ("ab",)), ("hard", (("a", "b"),))]
    )
    def test_a_value_that_is_not_a_tuple_of_labels_is_refused_by_its_form(self, kind, values):
        with pytest.raises(TypeError, match=re.escape("such as ('a',)")):
            ClassifierOutput(kind, values, np.zeros(1, dtype=np.intp))

    def test_score_embeddings(self):
        rows = [[0.2, 0.5, 0.3]]
        scores = one_set(
            ClassifierOutput.from_hard(("b",)),
            ClassifierOutput.from_ranks((("c", "a", "b"),)),
            ClassifierOutput.from_proba(rows),
        ).score_tensor()[0]
        assert scores[0].tolist() == [0.0, 1.0, 0.0]
        # positions get m-1, m-2, ..., 0 points, normalized to sum 1
        assert np.allclose(scores[1], [1 / 3, 0.0, 2 / 3])
        assert scores[2].tolist() == rows[0]

    def test_rank_scores_always_sum_to_one(self):
        for m in (2, 3, 5):
            labels = tuple("abcdef"[:m])
            pred = one_set(ClassifierOutput.from_ranks((labels,)), labels=labels)
            assert abs(pred.score_tensor().sum() - 1.0) < 1e-12

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_codes_and_scores_match_an_oracle_that_scores_each_sample(self, data):
        m = data.draw(st.integers(2, 6), label="m")
        labels = tuple(f"l{i}" for i in range(m))
        n = data.draw(st.integers(1, 8), label="n")
        kinds = data.draw(st.lists(st.sampled_from(tuple(KINDS)), min_size=1, max_size=4), label="kinds")
        outputs, results = [], []
        for kind in kinds:
            # a few distinct values, each repeated over the samples
            pool = [draw_output_value(data, kind, labels) for _ in range(data.draw(st.integers(1, 3)))]
            picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
            values = [pool[i] for i in picks]
            outputs.append(KINDS[kind](values))
            results.append(output_scores_brute(kind, values, labels))
        fault = next(((j, *r) for j, r in enumerate(results) if isinstance(r[1], str)), None)
        if fault is not None:
            j, sample, message = fault
            with pytest.raises(SampleError) as err:
                one_set(*outputs, labels=labels)
            assert (str(err.value), err.value.sample, err.value.classifier) == (
                f"classifier c{j} {message}", sample, j
            )
            return
        pred = one_set(*outputs, labels=labels)
        assert pred.vote_codes.tolist() == [list(c) for c in zip(*(r[0] for r in results))]
        assert pred.score_tensor().tolist() == [list(s) for s in zip(*(r[1] for r in results))]


#: Each output kind and the constructor of an output from one value per sample.
KINDS = {
    "hard": ClassifierOutput.from_hard,
    "rank": ClassifierOutput.from_ranks,
    "proba": ClassifierOutput.from_proba,
}


def draw_output_value(data, kind, labels):
    """One sample's output of ``kind`` over ``labels``; one in five is bad."""
    m, valid = len(labels), data.draw(st.integers(0, 4)) > 0
    if kind == "hard":
        return data.draw(st.sampled_from(labels if valid else ("zz", "", "L0")))
    if kind == "rank":
        ranking = data.draw(st.permutations(labels))
        if not valid:
            top, rest = ranking[:1], ranking[:-1]
            faulty = (rest, rest + top, rest + ["zz"], ranking + ["zz"], top)
            ranking = data.draw(st.sampled_from(faulty))
        return tuple(ranking)
    weights = data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m).filter(any))
    row = [w / sum(weights) for w in weights]
    if not valid:
        fault = data.draw(st.sampled_from((-0.25, math.nan, math.inf, None)))
        if fault is None:  # a row of valid entries that sums to 1.5
            return [x * 1.5 for x in row]
        row[data.draw(st.integers(0, m - 1))] = fault
    return row


def small_predictions(**overrides):
    fields = dict(
        labels=("n", "y"),
        sample_ids=("s1", "s2", "s3", "s4"),
        outputs=(
            ClassifierOutput.from_hard(("y", "n", "y", "n")),
            ClassifierOutput.from_hard(("y", "y", "n", "n")),
            ClassifierOutput.from_proba([[0.3, 0.7], [0.8, 0.2], [0.4, 0.6], [0.9, 0.1]]),
        ),
        classifier_names=("c1", "c2", "c3"),
        true_labels=("y", "n", "y", "n"),
    )
    fields.update(overrides)
    return PredictionSet(**fields)


class TestPredictionSet:
    def test_shape_and_accuracy(self):
        pred = small_predictions()
        assert pred.n_samples == 4 and pred.n_classifiers == 3
        assert pred.accuracy(0) == 1.0
        assert pred.accuracy(1) == 0.5
        assert pred.accuracy(2) == 1.0  # argmax of each proba row
        assert pred.score_tensor().shape == (4, 3, 2)

    def test_truth_gaps_shrink_the_labelled_set(self):
        pred = small_predictions(true_labels=("y", None, "y", None))
        assert pred.labelled_indices() == [0, 2]
        assert pred.accuracy(1) == 0.5

    def test_unlabelled_accuracy_is_refused(self):
        pred = small_predictions(true_labels=None)
        assert pred.labelled_indices() == []
        with pytest.raises(EvidenceError):
            pred.accuracy(0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DataError):
            small_predictions(outputs=(ClassifierOutput.from_hard(("y", "n", "x", "n")),),
                              classifier_names=("c1",))
        with pytest.raises(DataError):
            small_predictions(
                outputs=(ClassifierOutput.from_ranks(
                    (("y", "n"), ("y", "y"), ("n", "y"), ("y", "n"))),),
                classifier_names=("c1",),
            )
        bad_rows = [[0.5, 0.4], [0.8, 0.2], [0.4, 0.6], [0.9, 0.1]]
        with pytest.raises(DataError):
            small_predictions(outputs=(ClassifierOutput.from_proba(bad_rows),),
                              classifier_names=("c1",))
        with pytest.raises(DataError):
            small_predictions(true_labels=("y", "n", "maybe", "n"))
        with pytest.raises(DimensionError):
            small_predictions(features=[[1.0], [2.0]])
        with pytest.raises(DimensionError):
            small_predictions(classifier_names=("c1",))

    def test_confusion_from_predictions(self):
        cm = confusion_from_predictions(small_predictions(), 1)
        # truth order: y n y n; votes: y y n n
        assert cm.labels == ("n", "y")
        assert cm.counts.tolist() == [[1, 1], [1, 1]]
        assert confusion_from_predictions(small_predictions(), 0).accuracy == 1.0

    @pytest.mark.parametrize("truth", [None, (None,) * 4])
    def test_an_unlabelled_set_has_no_confusion(self, truth):
        with pytest.raises(EvidenceError, match="no samples carry a true label"):
            confusion_from_predictions(small_predictions(true_labels=truth), 0)


class TestConfidenceTransform:
    cm = ConfusionMatrix(("a", "b"), [[6, 2], [1, 3]])

    def test_likelihood_rows_are_smoothed_row_distributions(self):
        q = confidence_transform(self.cm, kind="likelihood")
        assert np.allclose(q.sum(axis=1), 1.0)
        assert np.allclose(q[0], [(6 + 1) / 10, (2 + 1) / 10])

    def test_column_direction_normalizes_columns(self):
        q = confidence_transform(self.cm, kind="likelihood", direction="given-predicted")
        assert np.allclose(q.sum(axis=0), 1.0)
        assert np.allclose(q[:, 0], [(6 + 1) / 9, (1 + 1) / 9])

    def test_log_likelihood_is_the_log_of_likelihood(self):
        q = confidence_transform(self.cm, kind="likelihood")
        lq = confidence_transform(self.cm, kind="log-likelihood")
        assert np.allclose(lq, np.log(q))

    def test_sigmoid_sends_the_uninformative_cell_to_one_half(self):
        flat = ConfusionMatrix(("a", "b"), [[5, 5], [5, 5]])
        s = confidence_transform(flat, kind="sigmoid", smoothing=0.0)
        assert np.allclose(s, 0.5)

    def test_zero_smoothing_keeps_empty_rows_at_zero(self):
        cm = ConfusionMatrix(("a", "b"), [[4, 0], [0, 0]])
        q = confidence_transform(cm, kind="likelihood", smoothing=0.0)
        assert q[1].tolist() == [0.0, 0.0]
        lq = confidence_transform(cm, kind="log-likelihood", smoothing=0.0)
        assert np.isneginf(lq[0, 1]) and np.isneginf(lq[1, 0])

    def test_validation(self):
        with pytest.raises(ValueError):
            confidence_transform(self.cm, kind="odds")
        with pytest.raises(ValueError):
            confidence_transform(self.cm, direction="sideways")
        with pytest.raises(ValueError):
            confidence_transform(self.cm, smoothing=-1.0)
        for smoothing in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                confidence_transform(self.cm, smoothing=smoothing)


class TestFuseFixed:
    scores = [[0.6, 0.4], [0.7, 0.3], [0.1, 0.9]]

    def test_each_rule_on_a_worked_example(self):
        cases = {
            "sum": ([1.4 / 3, 1.6 / 3], 1),
            "product": ([0.6 * 0.7 * 0.1, 0.4 * 0.3 * 0.9], 1),
            "min": ([0.1, 0.3], 1),
            "max": ([0.7, 0.9], 1),
            "median": ([0.6, 0.4], 0),
            "majority": ([2 / 3, 1 / 3], 0),
        }
        for rule, (want, winner) in cases.items():
            got = fuse_fixed(self.scores, rule)
            assert np.allclose(got.scores, want), rule
            assert got.winner == winner, rule

    def test_trimmed_mean_drops_the_extremes(self):
        got = fuse_fixed(self.scores, "trimmed-mean", trim=0.34)
        # floor(0.34 * 3) = 1 from each end leaves the median
        assert np.allclose(got.scores, [0.6, 0.4])
        assert got.winner == 0

    def test_trim_zero_is_the_plain_mean(self):
        a = fuse_fixed(self.scores, "trimmed-mean", trim=0.0)
        b = fuse_fixed(self.scores, "sum")
        assert np.allclose(a.scores, b.scores)

    def test_single_classifier_collapses_every_rule(self):
        one = [[0.2, 0.5, 0.3]]
        for rule in ("sum", "product", "min", "max", "median", "majority", "trimmed-mean"):
            got = fuse_fixed(one, rule)
            want = [0.0, 1.0, 0.0] if rule == "majority" else one[0]
            assert np.allclose(got.scores, want), rule
            assert got.winner == 1

    def test_batch_input_fuses_every_sample(self):
        batch = np.array([self.scores, self.scores[::-1]])
        got = fuse_fixed(batch, "sum")
        assert got.scores.shape == (2, 2)
        assert np.allclose(got.scores[0], got.scores[1])
        assert got.winner.tolist() == [1, 1]

    def test_weights_steer_sum_and_majority(self):
        got = fuse_fixed(self.scores, "sum", classifier_weights=(0, 0, 1))
        assert np.allclose(got.scores, [0.1, 0.9])
        got = fuse_fixed(self.scores, "majority", classifier_weights=(1, 1, 3))
        assert np.allclose(got.scores, [0.4, 0.6])
        assert got.winner == 1

    def test_a_zero_weight_takes_no_part_even_at_minus_infinity(self):
        scores = [[-1.0, 0.0, -math.inf], [-math.inf, 0.0, 0.0]]
        got = fuse_fixed(scores, "sum", classifier_weights=(1, 0))
        alone = fuse_fixed(scores[:1], "sum")
        assert got.scores.tolist() == alone.scores.tolist() == [-1.0, 0.0, -math.inf]
        assert got.winner == alone.winner == 1

    def test_other_rules_warn_and_ignore_weights(self):
        with pytest.warns(ConfigurationWarning):
            got = fuse_fixed(self.scores, "median", classifier_weights=(0, 0, 1))
        assert np.allclose(got.scores, [0.6, 0.4])

    def test_the_ignored_weights_warning_names_the_callers_line(self):
        with pytest.warns(ConfigurationWarning) as caught:
            fuse_fixed(self.scores, "product", classifier_weights=(1, 1, 1))
        assert [w.filename for w in caught] == [__file__]
        pred = small_predictions(features=[[0.0], [1.0], [2.0], [3.0]])
        for rule in FIXED_RULES + ("wmr", "adaptive-wmr"):
            if rule in ("sum", "majority"):
                continue
            with pytest.warns(ConfigurationWarning, match="ignores classifier weights") as caught:
                fuse_dataset(pred, rule, classifier_weights=(1, 2, 3))
            assert [w.filename for w in caught] == [__file__], rule

    def test_product_rule_lets_one_veto_annihilate(self):
        scores = [[0.0, 1.0], [0.9, 0.1], [0.9, 0.1]]
        got = fuse_fixed(scores, "product")
        assert got.scores[0] == 0.0 and got.winner == 1
        # the same votes under sum elect class 0
        assert fuse_fixed(scores, "sum").winner == 0

    def test_sum_dampens_a_single_adversary(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.random((5, 3))
            b = a.copy()
            j = rng.integers(5)
            b[j] = rng.random(3)
            delta = np.abs(fuse_fixed(a, "sum").scores - fuse_fixed(b, "sum").scores)
            assert np.allclose(delta, np.abs(a[j] - b[j]) / 5)

    def test_tied_fused_scores_go_to_the_lowest_index(self):
        got = fuse_fixed([[0.5, 0.5]], "sum")
        assert got.winner == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            fuse_fixed(self.scores, "average")
        with pytest.raises(DimensionError):
            fuse_fixed(np.zeros((2, 2, 2, 2)), "sum")
        with pytest.raises(DimensionError):
            fuse_fixed([[0.4], [0.6]], "sum")
        with pytest.raises(ValueError):
            fuse_fixed(self.scores, "trimmed-mean", trim=0.5)
        with pytest.raises(DimensionError):
            fuse_fixed(self.scores, "sum", classifier_weights=(1, 1))
        with pytest.raises(ValueError):
            fuse_fixed(self.scores, "sum", classifier_weights=(0, 0, 0))
        for rule, bad in (("sum", math.nan), ("majority", math.inf)):
            with pytest.raises(ValueError, match="finite"):
                fuse_fixed(self.scores, rule, classifier_weights=(bad, 1, 1))

    @pytest.mark.parametrize("rule", FIXED_RULES)
    def test_a_nan_score_is_refused_and_minus_infinity_is_a_score(self, rule):
        with pytest.raises(DataError, match="NaN"):
            fuse_fixed([[math.nan, 0.4], [0.7, 0.3], [0.1, 0.9]], rule)
        # ln 0 of a log-likelihood confidence
        got = fuse_fixed([[-math.inf, 0.0], [-0.5, -1.0], [-2.0, -0.1]], rule)
        assert got.winner == 1


class TestFuseWmr:
    def test_two_fair_votes_outweigh_one_good_one(self):
        got = fuse_wmr(("A", "A", "B"), (0.8, 0.8, 0.9))
        # 2 ln 4 = ln 16 beats ln 9
        assert got == "A"

    def test_one_expert_outweighs_two_fair_votes(self):
        assert fuse_wmr(("A", "A", "B"), (0.6, 0.6, 0.9)) == "B"

    def test_exact_stalemate_returns_none(self):
        assert fuse_wmr(("A", "B"), (0.7, 0.7)) is None

    def test_bias_breaks_toward_the_second_label(self):
        assert fuse_wmr(("A",), (0.8,), bias=math.log(4) + 0.1) == "B"

    def test_poor_judges_count_against_their_vote(self):
        assert fuse_wmr(("A", "B"), (0.2, 0.5)) == "B"

    def test_equal_accuracies_reduce_to_simple_majority(self):
        for k in (3, 5, 7):
            for votes in itertools.product("AB", repeat=k):
                got = fuse_wmr(votes, (0.7,) * k)
                want = "A" if votes.count("A") * 2 > k else "B"
                assert got == want

    def test_custom_labels(self):
        assert fuse_wmr(("spam", "ham"), (0.9, 0.6), labels=("spam", "ham")) == "spam"

    def test_validation(self):
        with pytest.raises(DataError, match="fuse_wmr_one_vs_rest"):
            fuse_wmr(("a", "b"), (0.6, 0.6), labels=("a", "b", "c"))
        with pytest.raises(DataError):
            fuse_wmr(("A", "C"), (0.6, 0.6))
        with pytest.raises(DimensionError):
            fuse_wmr(("A", "B"), (0.6,))
        with pytest.raises(ValueError, match="finite"):
            fuse_wmr(("A", "B"), (0.6, 0.7), bias=math.nan)


class TestFuseWmrOneVsRest:
    def test_per_class_accuracies_pick_the_winner(self):
        labels = ("a", "b", "c")
        # classifier 0 is superb on class a, the others are coin flips
        acc = [[0.95, 0.5, 0.5], [0.55, 0.5, 0.5], [0.55, 0.5, 0.5]]
        got = fuse_wmr_one_vs_rest(("a", "b", "c"), acc, labels)
        assert got == "a"

    def test_unanimous_vote_wins_regardless(self):
        labels = ("a", "b", "c")
        acc = np.full((3, 3), 0.7)
        assert fuse_wmr_one_vs_rest(("b", "b", "b"), acc, labels) == "b"

    def test_all_coin_flips_tie_to_the_lowest_label(self):
        labels = ("a", "b")
        acc = np.full((2, 2), 0.5)
        assert fuse_wmr_one_vs_rest(("b", "b"), acc, labels) == "a"

    def test_validation(self):
        with pytest.raises(DimensionError):
            fuse_wmr_one_vs_rest(("a", "b"), np.full((3, 2), 0.6), ("a", "b"))
        with pytest.raises(DataError):
            fuse_wmr_one_vs_rest(("a", "x"), np.full((2, 2), 0.6), ("a", "b"))


class TestValidationIndex:
    def test_standardized_distances_ignore_constant_features(self):
        x = [[0.0, 7.0], [2.0, 7.0], [4.0, 7.0]]
        idx = ValidationIndex(x, np.ones((3, 1), dtype=bool))
        # the constant feature is dropped, so the query's 100.0 there weighs nothing
        assert idx.neighbors([2.0, 100.0], k=3).tolist() == [1, 0, 2]
        assert neighbors_argsort(x, [[2.0, 100.0]], 3).tolist() == [[1, 0, 2]]

    def test_neighbor_ties_break_by_validation_order(self):
        x = [[1.0], [1.0], [1.0], [3.0]]
        idx = ValidationIndex(x, np.ones((4, 2), dtype=bool))
        assert idx.neighbors([1.0], k=3).tolist() == [0, 1, 2]

    def test_query_dimension_is_checked(self):
        idx = ValidationIndex([[0.0, 1.0]], np.ones((1, 1), dtype=bool))
        with pytest.raises(DimensionError):
            idx.neighbors([0.0], k=1)
        with pytest.raises(DimensionError):
            idx.neighbors([[0.0, 1.0, 2.0]], k=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_query_that_is_not_finite_is_refused(self, bad):
        idx = region_index()
        for query in ([bad], [[0.5], [bad]]):
            with pytest.raises(DataError, match="finite"):
                idx.neighbors(query, k=2)
            with pytest.raises(DataError, match="finite"):
                idx.skills(query, k=2)
        with pytest.raises(DataError, match="finite"):
            fuse_adaptive_wmr([bad], ("A", "B"), idx, k=4)

    def test_local_skill_is_smoothed_and_clamped(self):
        x = [[float(i)] for i in range(4)]
        correct = np.array([[True], [True], [False], [False]])
        idx = ValidationIndex(x, correct)
        assert idx.skills([0.0], k=2)[0] == (2 + 1) / (2 + 2)
        # k beyond the validation size clamps to all four samples
        assert idx.skills([0.0], k=50)[0] == (2 + 1) / (4 + 2)
        # one skill per indexed classifier, and no more
        with pytest.raises(IndexError):
            idx.skills([0.0], k=2)[3]
        with pytest.raises(ValueError):
            idx.neighbors([0.0], k=0)


def region_index():
    # classifier 0 is right on the left half, classifier 1 on the right half
    feats = [[-2.0], [-1.5], [-1.0], [-0.5], [0.5], [1.0], [1.5], [2.0]]
    correct = np.array([[x[0] < 0, x[0] > 0] for x in feats])
    return ValidationIndex(feats, correct)


class TestAdaptiveWmr:
    def test_local_skill_flips_the_winner_by_region(self):
        idx = region_index()
        votes = ("A", "B")  # the two classifiers always disagree
        assert fuse_adaptive_wmr([-1.2], votes, idx, k=4) == "A"
        assert fuse_adaptive_wmr([1.2], votes, idx, k=4) == "B"

    def test_vote_count_must_match_the_index(self):
        with pytest.raises(DimensionError):
            fuse_adaptive_wmr([0.0], ("A",), region_index(), k=3)

    def test_a_row_slice_is_one_query(self):
        idx = region_index()
        rows = np.array([[-1.2], [1.2]])
        assert fuse_adaptive_wmr(rows[1:2], ("A", "B"), idx, k=4) == "B"
        np.testing.assert_array_equal(idx.skills(rows[1:2], k=4), idx.skills(rows[1], k=4)[None])
        assert idx.neighbors(rows[1:2], k=4).shape == (1, 4)


class TestBinaryAccuracies:
    def test_two_by_two(self):
        cm = ConfusionMatrix(("a", "b"), [[8, 2], [1, 9]])
        acc = binary_accuracies(cm)
        assert np.allclose(acc, [0.85, 0.85])

    def test_three_by_three_by_hand(self):
        counts = [[5, 1, 0], [0, 4, 2], [1, 0, 7]]
        cm = ConfusionMatrix(("a", "b", "c"), counts)
        acc = binary_accuracies(cm)
        # label a: TP=5, misses=1, false alarms=1 -> 18/20
        assert np.allclose(acc, [18 / 20, 17 / 20, 17 / 20])


class TestExpectedRisk:
    cm = ConfusionMatrix(("a", "b"), [[8, 2], [1, 9]])

    def test_identity_gain_recovers_accuracy(self):
        cost = CostMatrix(("a", "b"), np.eye(2))
        assert abs(expected_risk(self.cm, cost) - self.cm.accuracy) < 1e-12

    def test_asymmetric_gains_by_hand(self):
        cost = CostMatrix(("a", "b"), [[1.0, -5.0], [0.0, 1.0]])
        # P(a)=.5: row a -> .8*1 + .2*(-5) = -0.2 ; row b -> .9*1 = 0.9
        assert abs(expected_risk(self.cm, cost) - (0.5 * -0.2 + 0.5 * 0.9)) < 1e-12

    def test_priors_override_the_marginals(self):
        cost = CostMatrix(("a", "b"), np.eye(2))
        got = expected_risk(self.cm, cost, class_priors=(1.0, 0.0))
        assert abs(got - 0.8) < 1e-12

    def test_positive_prior_on_an_empty_row_is_refused(self):
        cm = ConfusionMatrix(("a", "b"), [[4, 1], [0, 0]])
        cost = CostMatrix(("a", "b"), np.eye(2))
        with pytest.raises(EvidenceError):
            expected_risk(cm, cost, class_priors=(0.5, 0.5))
        # default priors are the row marginals, so the empty row is skipped
        assert abs(expected_risk(cm, cost) - 0.8) < 1e-12

    def test_label_mismatch_and_bad_priors(self):
        cost = CostMatrix(("a", "c"), np.eye(2))
        with pytest.raises(DimensionError):
            expected_risk(self.cm, cost)
        good = CostMatrix(("a", "b"), np.eye(2))
        with pytest.raises(ValueError):
            expected_risk(self.cm, good, class_priors=(0.0, 0.0))
        with pytest.raises(DimensionError):
            expected_risk(self.cm, good, class_priors=(1.0,))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                expected_risk(self.cm, good, class_priors=(bad, 1.0))


class TestFuseDataset:
    def test_fixed_rule_over_the_tensor(self):
        got = fuse_dataset(small_predictions(), "majority")
        # per sample votes (c1, c2, c3): yyy nyn yny nnn
        assert got == ["y", "n", "y", "n"]

    def test_wmr_follows_the_accurate_classifier(self):
        pred = small_predictions()
        got = fuse_dataset(pred, "wmr")
        # c1 and c3 are perfect on the labelled data, c2 is a coin flip
        assert got == ["y", "n", "y", "n"]

    def test_wmr_with_a_separate_validation_set(self):
        validation = small_predictions()
        test = small_predictions(true_labels=None)
        assert fuse_dataset(test, "wmr", validation=validation) == ["y", "n", "y", "n"]

    def test_wmr_multiclass_goes_one_vs_rest(self):
        pred = PredictionSet(
            labels=("a", "b", "c"),
            sample_ids=("s1", "s2", "s3"),
            outputs=(
                ClassifierOutput.from_hard(("a", "b", "c")),
                ClassifierOutput.from_hard(("a", "c", "c")),
            ),
            classifier_names=("c1", "c2"),
            true_labels=("a", "b", "c"),
        )
        got = fuse_dataset(pred, "wmr")
        assert got[0] == "a" and got[2] == "c"

    def test_adaptive_wmr_uses_the_query_neighborhood(self):
        feats = [[-2.0], [-1.5], [-1.0], [-0.5], [0.5], [1.0], [1.5], [2.0]]
        truth = ("A",) * 8
        validation = PredictionSet(
            labels=("A", "B"),
            sample_ids=tuple(f"v{i}" for i in range(8)),
            outputs=(
                ClassifierOutput.from_hard(tuple("A" if f[0] < 0 else "B" for f in feats)),
                ClassifierOutput.from_hard(tuple("B" if f[0] < 0 else "A" for f in feats)),
            ),
            classifier_names=("left", "right"),
            true_labels=truth,
            features=feats,
        )
        test = PredictionSet(
            labels=("A", "B"),
            sample_ids=("q1", "q2"),
            outputs=(
                ClassifierOutput.from_hard(("A", "A")),
                ClassifierOutput.from_hard(("B", "B")),
            ),
            classifier_names=("left", "right"),
            features=[[-1.2], [1.2]],
        )
        got = fuse_dataset(test, "adaptive-wmr", validation=validation, k=4)
        assert got == ["A", "B"]

    def test_adaptive_needs_two_labels_and_features(self):
        pred = small_predictions(features=[[0.0], [1.0], [2.0], [3.0]])
        three = PredictionSet(
            labels=("a", "b", "c"),
            sample_ids=("s1",),
            outputs=(ClassifierOutput.from_hard(("a",)),),
            classifier_names=("c1",),
            true_labels=("a",),
            features=[[0.0]],
        )
        with pytest.raises(DataError):
            fuse_dataset(three, "adaptive-wmr")
        with pytest.raises(DataError):
            fuse_dataset(small_predictions(), "adaptive-wmr")
        with pytest.raises(EvidenceError):
            fuse_dataset(pred, "adaptive-wmr",
                         validation=small_predictions(
                             true_labels=None,
                             features=[[0.0], [1.0], [2.0], [3.0]]))

    def test_mismatched_validation_is_rejected(self):
        other_labels = PredictionSet(
            labels=("a", "b"),
            sample_ids=("s1",),
            outputs=(ClassifierOutput.from_hard(("a",)),) * 3,
            classifier_names=("c1", "c2", "c3"),
            true_labels=("a",),
        )
        with pytest.raises(DimensionError):
            fuse_dataset(small_predictions(), "wmr", validation=other_labels)
        fewer = small_predictions(
            outputs=(ClassifierOutput.from_hard(("y", "n", "y", "n")),),
            classifier_names=("c1",),
        )
        with pytest.raises(DimensionError):
            fuse_dataset(small_predictions(), "wmr", validation=fewer)

    def test_validation_classifiers_are_matched_by_name_not_position(self):
        pred = small_predictions()
        reordered = small_predictions(
            outputs=pred.outputs[1:] + pred.outputs[:1], classifier_names=("c2", "c3", "c1")
        )
        for rule in ("wmr", "adaptive-wmr"):
            with pytest.raises(DimensionError, match=re.escape(
                "validation classifiers ['c2', 'c3', 'c1'] do not match prediction "
                "classifiers ['c1', 'c2', 'c3']"
            )):
                fuse_dataset(pred, rule, validation=reordered)

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            fuse_dataset(small_predictions(), "vote-twice")

    def test_bias_is_refused_if_not_finite_and_warned_where_ignored(self):
        three = PredictionSet(
            labels=("a", "b", "c"),
            sample_ids=("s1", "s2", "s3"),
            outputs=(
                ClassifierOutput.from_hard(("a", "b", "c")),
                ClassifierOutput.from_hard(("a", "c", "c")),
            ),
            classifier_names=("c1", "c2"),
            true_labels=("a", "b", "c"),
        )
        for pred, rule in [(three, "wmr"), (small_predictions(), "wmr")] + [
            (small_predictions(), r) for r in FIXED_RULES
        ]:
            with pytest.raises(ValueError, match="bias must be finite"):
                fuse_dataset(pred, rule, bias=float("nan"))
        for pred, rule in [(three, "wmr"), (small_predictions(), "sum")]:
            with pytest.warns(ConfigurationWarning, match="ignores the bias"):
                got = fuse_dataset(pred, rule, bias=5.0)
            assert got == fuse_dataset(pred, rule)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # two-label wmr reads the bias: every signed sum is now below it
            assert fuse_dataset(small_predictions(), "wmr", bias=1e9) == ["y"] * 4


# ------------------------------------------------------------ the coded kernel

TIE_SKILLS = (0.55, 0.6, 0.85)


def _labels(m):
    return tuple("abcd"[:m])


def _coded_set(rng, labels, n, k, skills=None, truth=True, features=None):
    """A hard-vote prediction set: random votes, or votes right at the given skills."""
    m = len(labels)
    t = rng.integers(0, m, size=n)
    votes = rng.integers(0, m, size=(n, k))
    if skills is not None:
        # classifier j is right on exactly round(skills[j] * n) rows
        ranks = np.argsort(rng.random((n, k)), axis=0)
        right = ranks < np.round(np.asarray(skills) * n)
        wrong = (t[:, None] + rng.integers(1, m, size=(n, k))) % m
        votes = np.where(right, t[:, None], wrong)
    return PredictionSet(
        labels=labels,
        sample_ids=tuple(f"s{i}" for i in range(n)),
        outputs=tuple(ClassifierOutput.from_hard([labels[v] for v in votes[:, j]])
                      for j in range(k)),
        classifier_names=tuple(f"c{j}" for j in range(k)),
        true_labels=tuple(labels[x] for x in t) if truth else None,
        features=features,
    )


def _truth_and_votes(pred):
    rows = [i for i, t in enumerate(pred.true_labels) if t is not None]
    votes = [pred.outputs[j].hard for j in range(pred.n_classifiers)]
    return rows, votes


class TestWeightedVoteKernel:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.sampled_from((2, 3, 4)))
    def test_wmr_equals_the_per_row_reference(self, seed, k, m):
        rng = np.random.default_rng(seed)
        labels = _labels(m)
        skills = rng.choice(TIE_SKILLS, size=k)
        validation = _coded_set(rng, labels, 20, k, skills)
        test = _coded_set(rng, labels, int(rng.integers(1, 30)), k, truth=False)
        rows, votes = _truth_and_votes(validation)
        truth = validation.true_labels
        got = fuse_dataset(test, "wmr", validation=validation)
        queries = [[test.outputs[j].hard[i] for j in range(k)] for i in range(test.n_samples)]
        if m == 2:
            acc = [sum(votes[j][i] == truth[i] for i in rows) / len(rows) for j in range(k)]
            w = optimal_weights(acc)
            want = [wmr_brute(q, labels, w) for q in queries]
        else:
            # accuracy of classifier j on the task "label c versus the rest"
            class_w = [
                optimal_weights([
                    sum((votes[j][i] == c) == (truth[i] == c) for i in rows) / len(rows)
                    for j in range(k)
                ])
                for c in labels
            ]
            want = [wmr_one_vs_rest_brute(q, labels, class_w) for q in queries]
        assert got == want

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.sampled_from((1, 3)),
           st.integers(1, 3))
    def test_adaptive_wmr_equals_the_per_row_reference(self, seed, k, kn, d):
        rng = np.random.default_rng(seed)
        labels = ("A", "B")
        n_val, n_query = int(rng.integers(4, 30)), int(rng.integers(1, 20))
        # features on a small grid, so distances tie often
        validation = _coded_set(rng, labels, n_val, k, rng.choice(TIE_SKILLS, size=k),
                                features=rng.integers(0, 3, size=(n_val, d)))
        test = _coded_set(rng, labels, n_query, k, truth=False,
                          features=rng.integers(0, 3, size=(n_query, d)))
        bias = float(rng.choice((0.0, 0.4, -1.1, 2.0)))
        got = fuse_dataset(test, "adaptive-wmr", validation=validation, k=kn, bias=bias)
        rows, votes = _truth_and_votes(validation)
        correct = [[votes[j][i] == validation.true_labels[i] for j in range(k)] for i in rows]
        index = ValidationIndex(validation.features[rows], correct)
        want = []
        for i in range(n_query):
            skills = index.skills(test.features[i], kn)
            q = [test.outputs[j].hard[i] for j in range(k)]
            want.append(wmr_brute(q, labels, optimal_weights(skills), bias))
        assert got == want

    def test_decisions_do_not_depend_on_the_row_count(self):
        # six equal weights and every 3-3 split: the sequential sum decides, as
        # fuse_wmr does for one sample, however many rows are fused at once
        splits = [v for v in itertools.product("AB", repeat=6) if v.count("A") == 3]
        names = tuple(f"c{j}" for j in range(6))
        same_votes = ClassifierOutput.from_hard(("A", "A", "A", "B", "B"))
        validation = PredictionSet(("A", "B"), tuple("vwxyz"), (same_votes,) * 6, names,
                                   true_labels=("A",) * 5)

        def fused(rows):
            outs = tuple(ClassifierOutput.from_hard([r[j] for r in rows]) for j in range(6))
            test = PredictionSet(("A", "B"), tuple(f"s{i}" for i in range(len(rows))), outs,
                                 names)
            return fuse_dataset(test, "wmr", validation=validation)

        together = fused(splits)
        assert together == [fused([row])[0] for row in splits]
        assert together == [fuse_wmr(row, (0.6,) * 6) for row in splits]

    def test_kernel_sums_in_classifier_order(self):
        # 1 + 1e16 rounds to 1e16, so index order reaches an exact stalemate;
        # the reverse order would end at 1.0
        codes = np.array([[0, 0, 1]])
        w = np.array([1.0, 1e16, 1e16])
        got = fusion._weighted_votes(codes, w[None, :, None], 2)
        assert got.tolist() == [[0.0, 0.0]]
        per_class = np.column_stack([w, np.ones(3)])
        got = fusion._weighted_votes(codes, per_class[None], 2)
        assert got.tolist() == [[0.0, -1.0]]

    @pytest.mark.parametrize("budget", [1, 7, 97])
    def test_neighbor_blocks_match_the_per_query_search(self, monkeypatch, budget):
        rng = np.random.default_rng(budget)
        x = rng.integers(0, 4, size=(40, 3)).astype(float)
        x[:, 2] = 5.0  # a constant feature, dropped
        queries = rng.integers(0, 4, size=(23, 3)).astype(float)
        idx = ValidationIndex(x, rng.random((40, 4)) < 0.6)
        whole = idx.neighbors(queries, 7)
        monkeypatch.setattr(_exact, "OUTCOME_BLOCK", budget)
        blocked = idx.neighbors(queries, 7)
        kept = x.std(axis=0) > 0
        for q, row in zip(queries, blocked):
            z = (x[:, kept] - q[kept]) / x.std(axis=0)[kept]
            d = np.sqrt((z * z).sum(axis=1))
            assert row.tolist() == np.argsort(d, kind="stable")[:7].tolist()
        assert np.array_equal(whole, blocked)
        assert np.array_equal(idx.skills(queries, 7)[5], idx.skills(queries[5], 7))

    @settings(deadline=None, max_examples=80)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 24), st.integers(1, 9),
           st.sampled_from((1, 5, 64, 1 << 16)))
    def test_neighbors_are_the_head_of_the_stable_argsort(self, seed, n, b, budget):
        # ties from rounded features through the index, every k from 1 to
        # N + 1, with blocks of queries that end ragged
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 3, size=(n, 2)).astype(float)
        queries = rng.integers(0, 3, size=(b, 2)).astype(float)
        idx = ValidationIndex(x, np.ones((n, 1), dtype=bool))
        with mock.patch.object(_exact, "OUTCOME_BLOCK", budget):
            for k in range(1, n + 2):
                want = neighbors_argsort(x, queries, k)
                assert np.array_equal(idx.neighbors(queries, k), want)
                assert np.array_equal(idx.neighbors(queries[0], k), want[0])

    @settings(deadline=None, max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 10), st.integers(1, 12),
           st.sampled_from((1, 5, 64, 1 << 17)))
    def test_neighbors_equal_a_full_stable_argsort(self, seed, n, d, b, budget):
        # grid features tie often, copied rows tie exactly, a constant feature
        # is dropped, and each feature is scaled by 2^-40, 1 or 2^40, some
        # shifted far from 0; queries are validation rows, grid points or
        # normal draws, at every k from 1 to N + 2
        rng = np.random.default_rng(seed)
        grid = rng.random() < 0.5
        x = rng.integers(0, 3, size=(n, d)) if grid else rng.normal(size=(n, d))
        x = x.astype(float)
        copies = rng.integers(0, n, size=(2, n // 3))
        x[copies[0]] = x[copies[1]]
        if d > 1 and rng.random() < 0.5:
            x[:, rng.integers(d)] = 7.0
        queries = np.concatenate([
            x[rng.integers(0, n, size=b)],
            rng.integers(-1, 4, size=(b, d)),
            rng.normal(size=(b, d)) * 3,
        ])[rng.permutation(3 * b)[:b]]
        scale = 2.0 ** rng.choice((-40, 0, 40), size=d)
        shift = rng.choice((0.0, 0.0, 2.0**20, -(2.0**45)), size=d) * scale
        x, queries = x * scale + shift, queries * scale + shift
        idx = ValidationIndex(x, np.ones((n, 1), dtype=bool))
        with mock.patch.object(_exact, "OUTCOME_BLOCK", budget):
            for k in range(1, n + 3):
                want = neighbors_argsort(x, queries, k)
                assert np.array_equal(idx.neighbors(queries, k), want)
                assert np.array_equal(idx.neighbors(queries[0], k), want[0])

    def test_a_band_past_every_index_gives_the_same_neighbors(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.normal(size=(150, 3)), rng.integers(0, 3, size=(50, 3))])
        queries = np.concatenate([rng.normal(size=(20, 3)), x[:10], [[1.0, 1.0, 1.0]]])
        idx = ValidationIndex(x, np.ones((200, 1), dtype=bool))
        widths = []  # the widest row of candidates of each search

        def spy(keys):
            widths.append(int(np.bincount(keys[1]).max()))
            return lexsort(keys)

        lexsort = np.lexsort
        with mock.patch.object(np, "lexsort", spy):
            for k in (1, 5, 9, 200, 300):
                narrow = idx.neighbors(queries, k)
                with mock.patch.object(fusion, "_band", lambda d: 1e300):
                    wide = idx.neighbors(queries, k)
                assert np.array_equal(narrow, wide)
                assert np.array_equal(narrow, neighbors_argsort(x, queries, k))
        # the band holds the k' nearest and their near ties, not every
        # index; a band past every index makes every index a candidate
        assert max(widths[0:6:2]) < 20 and widths[6::2] == [200, 200]
        assert widths[1::2] == [200] * 5

    def test_distances_past_the_float_range_take_every_index(self):
        # (x - q) overflows to inf for the far rows, and an inf spread makes
        # NaN: the row takes every index, and NaN sorts last, as in the argsort
        x = np.array([[-1e308, 0.0], [1e308, 1.0], [0.0, 2.0], [1.0, 3.0], [5e307, 4.0]])
        queries = np.array([[-1e308, 0.0], [1e308, 4.0], [0.5, 2.0], [0.0, 1e300]])
        with np.errstate(over="ignore", invalid="ignore"):
            idx = ValidationIndex(x, np.ones((5, 1), dtype=bool))
            for k in range(1, 6):
                want = neighbors_argsort(x, queries, k)
                assert np.array_equal(idx.neighbors(queries, k), want)


class TestCodes:
    def test_codes_agree_with_the_string_paths(self):
        rng = np.random.default_rng(3)
        labels = ("a", "b", "c")
        n = 12
        proba = rng.random((n, 3))
        ranks = [tuple(labels[i] for i in rng.permutation(3)) for _ in range(n)]
        pred = PredictionSet(
            labels=labels,
            sample_ids=tuple(f"s{i}" for i in range(n)),
            outputs=(
                ClassifierOutput.from_hard([labels[i] for i in rng.integers(0, 3, n)]),
                ClassifierOutput.from_ranks(ranks),
                ClassifierOutput.from_proba(proba / proba.sum(axis=1, keepdims=True)),
            ),
            classifier_names=("h", "r", "p"),
            true_labels=tuple(None if i % 4 == 0 else labels[i % 3] for i in range(n)),
        )
        def points(ranking):  # m-1, m-2, ..., 0 points by position, normalized
            m = len(ranking)
            return [(m - 1 - ranking.index(lab)) / (m * (m - 1) / 2) for lab in labels]

        votes = pred.outputs[0].hard
        proba = pred.outputs[2].proba
        strings = (
            (votes, [[float(lab == v) for lab in labels] for v in votes]),
            (tuple(r[0] for r in ranks), [points(r) for r in ranks]),
            (tuple(labels[i] for i in np.argmax(proba, axis=1)), proba),
        )
        for j, (hard, scores) in enumerate(strings):
            assert [labels[c] for c in pred.vote_codes[:, j]] == list(hard)
            assert pred.hard_votes(j) == hard
            assert np.allclose(pred.score_tensor()[:, j], scores)
            rows = pred.labelled_indices()
            hits = sum(hard[i] == pred.true_labels[i] for i in rows)
            assert pred.accuracy(j) == hits / len(rows)
            counts = np.zeros((3, 3), dtype=np.int64)
            for i in rows:
                counts[labels.index(pred.true_labels[i]), labels.index(hard[i])] += 1
            assert confusion_from_predictions(pred, j).counts.tolist() == counts.tolist()
        assert [None if c < 0 else labels[c] for c in pred.truth_codes] == list(pred.true_labels)
        assert pred.labelled_indices() == [i for i in range(n) if i % 4]
        assert not pred.vote_codes.flags.writeable and not pred.score_tensor().flags.writeable

    def test_bad_values_name_their_row_and_classifier(self):
        with pytest.raises(SampleError) as err:
            small_predictions(outputs=(
                ClassifierOutput.from_hard(("y", "n", "y", "n")),
                ClassifierOutput.from_ranks((("y", "n"),) * 2 + (("y", "y"),) * 2),
            ), classifier_names=("c1", "c2"))
        assert (err.value.sample, err.value.classifier) == (2, 1)
        with pytest.raises(SampleError) as err:
            small_predictions(true_labels=("y", "n", "n", "maybe"))
        assert (err.value.sample, err.value.classifier) == (3, None)
