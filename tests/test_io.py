import csv
import hashlib
import os
import re
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import votefuse.io as vio
from votefuse.cli import main
from votefuse.errors import DataError, ParseError
from votefuse.fusion import ClassifierOutput, CostMatrix, PredictionSet
from votefuse.io import (
    Report,
    dump_cost_matrix,
    dump_game,
    dump_predictions,
    load_cost_matrix,
    load_game,
    load_predictions,
    load_team_structure,
    parse_ballots,
    parse_cost_matrix,
    parse_game,
    parse_predictions,
    parse_report,
    parse_team_structure,
    read_report,
)
from votefuse.model import VotingGame

from oracles import _csv_rows_rowwise, predictions_rowwise, report_rowwise


class TestGameFiles:
    def test_parse_with_fractions_and_comments(self):
        game = parse_game("# committee\nweights = 2 1 1/2\nquota = 7/4\n")
        assert game.weights == (Fraction(2), Fraction(1), Fraction(1, 2))
        assert game.quota == Fraction(7, 4)

    def test_commas_work_too(self):
        game = parse_game("weights = 3, 2, 1\n")
        assert game.weights == (Fraction(3), Fraction(2), Fraction(1))

    def test_majority_keyword_and_default_agree(self):
        a = parse_game("weights = 2 1 1\nquota = majority\n")
        b = parse_game("weights = 2 1 1\n")
        assert a.quota == b.quota == Fraction(2)

    def test_round_trip_is_exact(self, tmp_path):
        game = VotingGame(("7/3", 1, "1/2"), quota="5/4")
        p = tmp_path / "game.txt"
        p.write_text(dump_game(game), encoding="utf-8")
        back = load_game(p)
        assert back.weights == game.weights and back.quota == game.quota
        assert dump_game(back) == dump_game(game)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.fractions(min_value=0), min_size=1, max_size=6), st.fractions(0, 1))
    def test_a_dump_parses_back_equal(self, weights, share):
        game = VotingGame(tuple(weights), share * sum(weights))
        assert parse_game(dump_game(game)) == game

    def test_bad_token_reports_line_and_column(self):
        with pytest.raises(ParseError) as err:
            parse_game("weights = 2 x 1\n", source="game.txt")
        assert err.value.line == 1
        assert err.value.column == 13
        assert "game.txt:1:13" in str(err.value)

    @pytest.mark.parametrize(
        "line, token, column",
        [
            ("weights = 2 1_000 1", "1_000", 13),  # a digit-group underscore
            ("weights = 2 \u0661 \u0662", "\u0661", 13),  # Arabic-Indic digits
            ("weights = 2 1\u00a0 1", "1\u00a0", 13),  # a no-break space is no separator
            ("weights = 2 1\nquota = 1_0", "1_0", 9),
        ],
    )
    def test_a_token_not_in_ascii_digits_is_not_a_number(self, line, token, column):
        with pytest.raises(ParseError, match=re.escape(f"not a number: {token!r}")) as err:
            parse_game(line + "\n", source="game.txt")
        assert err.value.column == column


    def test_integer_tokens_read_as_the_fraction_parser_reads_them(self):
        game = parse_game("weights = 007 12 0 3/1\nquota = 0010\n")
        assert game == VotingGame((Fraction(7), Fraction(12), Fraction(0), Fraction(3)), Fraction(10))
        assert {type(w) for w in game.weights + (game.quota,)} == {Fraction}
        assert parse_game("weights = 4 2\n").quota == 3
    def test_structural_errors(self):
        with pytest.raises(ParseError, match="missing weights"):
            parse_game("quota = 2\n")
        with pytest.raises(ParseError, match="duplicate weights"):
            parse_game("weights = 1\nweights = 2\n")
        with pytest.raises(ParseError, match="key = value"):
            parse_game("weights: 1 2\n")
        with pytest.raises(ParseError, match="unknown key"):
            parse_game("weighs = 1 2\n")
        with pytest.raises(ParseError, match="single value"):
            parse_game("weights = 1 2\nquota = 1 2\n")
        # semantic failure (negative weight) still lands as a ParseError
        with pytest.raises(ParseError):
            parse_game("weights = -1 2\n")

    @pytest.mark.parametrize(
        "text, message, where",
        [
            ("weights = 1 2\nquota = 1\nquota = 2\n", "duplicate quota line", (3, 1)),
            ("# a game\nweights = \n", "weights line is empty", (2, 10)),
            ("weights = 1 2\nquota = -1\n", "quota -1 outside [0, 3]", (2, 9)),
            ("weights = 1 -2\n", "weight of player 1 is negative: -2", (1, 13)),
            ("# a game\nquota = 1\nweights = 1, -2, -3\n", "weight of player 1", (3, 14)),
        ],
    )
    def test_value_errors_are_located_at_their_token(self, text, message, where):
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse_game(text, source="g.txt")
        assert (err.value.line, err.value.column) == where
        assert f"g.txt:{where[0]}:{where[1]}: " in str(err.value)


class TestTeamFiles:
    def test_parse_teams_and_bias(self):
        s = parse_team_structure("team = 0 1 2\nteam = 3 4\ntop_bias = 1/2\n")
        assert s.teams == ((0, 1, 2), (3, 4))
        assert s.top_bias == 0.5

    def test_errors(self):
        with pytest.raises(ParseError, match="no team lines"):
            parse_team_structure("top_bias = 0\n")
        with pytest.raises(ParseError) as err:
            parse_team_structure("team = 0 one\n", source="teams.txt")
        assert err.value.column == 10
        with pytest.raises(ParseError):
            parse_team_structure("team = 0 0\n")  # duplicate member

    @pytest.mark.parametrize(
        "text, message, where",
        [
            ("team = 0 1\nteam =\n", "team line is empty", (2, 7)),
            ("team = 0 1\nbias = 1\n", "unknown key 'bias'", (2, 1)),
        ],
    )
    def test_structural_errors_are_located_at_their_line(self, text, message, where):
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse_team_structure(text, source="teams.txt")
        assert (err.value.line, err.value.column) == where

    @pytest.mark.parametrize(
        "text, message, where",
        [
            ("team = 0 1\nteam = 2 2\n", "team 1 lists a player twice", (2, 10)),
            ("team = -1 2\n", "team 0 has a negative player index", (1, 8)),
            ("team = 0\nteam = 1, -1, 3, 1\n", "team 1 lists a player twice", (2, 18)),
            ("team = 0 -1\nteam = 1 1\n", "team 0 has a negative player index", (1, 10)),
        ],
    )
    def test_value_errors_are_located_at_their_token(self, text, message, where):
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse_team_structure(text, source="teams.txt")
        assert (err.value.line, err.value.column) == where
        assert f"teams.txt:{where[0]}:{where[1]}: " in str(err.value)

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "--1", "+-1", "1.0", "1e1"])
    def test_a_member_not_in_ascii_digits_is_not_a_player_index(self, token):
        with pytest.raises(ParseError, match=re.escape(f"not a player index: {token!r}")) as err:
            parse_team_structure(f"team = 0 {token}\n", source="teams.txt")
        assert err.value.column == 10

    def test_a_bias_too_close_to_zero_for_a_float_is_an_error_at_its_token(self):
        with pytest.raises(ParseError, match="too close to 0 for a float: '1e-400'") as err:
            parse_team_structure("team = 0 1\ntop_bias = 1e-400\n", source="teams.txt")
        assert (err.value.line, err.value.column) == (2, 12)
        assert parse_team_structure("team = 0\ntop_bias = -5e-324\n").top_bias == -5e-324

    def test_a_bias_past_the_float_range_is_an_error_at_its_token(self):
        with pytest.raises(ParseError, match="past the float range: '1e400'") as err:
            parse_team_structure("team = 0 1\ntop_bias =  1e400\n", source="teams.txt")
        assert (err.value.path, err.value.line, err.value.column) == ("teams.txt", 2, 13)


class TestBallotFiles:
    @pytest.mark.parametrize("label", ['"x, y"', "x y"])
    def test_rows_of_any_width_parse_as_the_csv_reader_reads_them(self, label):
        # a quote sends every row through the reader; without one rows split at commas
        text = f"{label},b,c\nc,,{label},b\n\n# note\nb , c,{label}, ,\n"
        rows = [row for row in csv.reader(text.splitlines()) if row and row[0] != "# note"]
        want = [tuple(c.strip() for c in row if c.strip()) for row in rows]
        assert [b.ranking for b in parse_ballots(text)] == want
        x = next(csv.reader([label]))[0]
        assert want == [(x, "b", "c"), ("c", x, "b"), ("b", "c", x)]

    def test_parse_rows(self):
        ballots = parse_ballots("a,b,c\nb,a,c\n# a comment\nc,b,a\n")
        assert [b.ranking for b in ballots] == [
            ("a", "b", "c"), ("b", "a", "c"), ("c", "b", "a"),
        ]

    def test_errors_carry_the_line(self):
        with pytest.raises(ParseError) as err:
            parse_ballots("a,b\nb,b\n", source="votes.csv")
        assert err.value.line == 2
        with pytest.raises(ParseError):
            parse_ballots("")


PREDICTIONS_CSV = """\
# generated for a test
sample_id,true_label,feat_0,feat_1,c_hard,c_rank,c_proba:hi,c_proba:lo
s1,hi,0.25,1.0,hi,hi>lo,0.9,0.1
s2,lo,0.5,-1.0,lo,lo>hi,0.2,0.8
s3,,0.75,0.0,hi,hi>lo,0.7,0.3
"""


class TestPredictionFiles:
    def test_parse_all_three_classifier_shapes(self):
        pred = parse_predictions(PREDICTIONS_CSV)
        assert pred.labels == ("hi", "lo")
        assert pred.sample_ids == ("s1", "s2", "s3")
        assert pred.classifier_names == ("c_hard", "c_rank", "c_proba")
        assert [o.kind for o in pred.outputs] == ["hard", "rank", "proba"]
        assert pred.true_labels == ("hi", "lo", None)
        assert pred.features.tolist() == [[0.25, 1.0], [0.5, -1.0], [0.75, 0.0]]
        assert pred.outputs[2].proba.tolist() == [[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]]

    def test_minimal_file_without_truth_or_features(self):
        pred = parse_predictions("sample_id,c1\ns1,a\ns2,b\n")
        assert pred.true_labels is None and pred.features is None
        assert pred.hard_votes(0) == ("a", "b")

    def test_dump_and_reparse_is_lossless(self):
        pred = parse_predictions(PREDICTIONS_CSV)
        text = dump_predictions(pred)
        again = parse_predictions(text)
        assert again.labels == pred.labels
        assert again.sample_ids == pred.sample_ids
        assert again.true_labels == pred.true_labels
        assert np.array_equal(again.features, pred.features)
        for a, b in zip(again.outputs, pred.outputs):
            assert a.kind == b.kind
        assert dump_predictions(again) == text

    def test_header_must_start_with_sample_id(self):
        with pytest.raises(ParseError, match="sample_id"):
            parse_predictions("id,c1\ns1,a\ns2,b\n")

    def test_ragged_row_is_located(self):
        with pytest.raises(ParseError) as err:
            parse_predictions("sample_id,c1\ns1,a\ns2\n", source="p.csv")
        assert err.value.line == 3

    def test_mixed_plain_and_ranked_cells_are_refused(self):
        text = "sample_id,c1\ns1,a>b\ns2,a\n"
        with pytest.raises(ParseError, match="mixes"):
            parse_predictions(text)

    def test_proba_group_must_cover_the_universe(self):
        text = "sample_id,true_label,c:a\ns1,a,1.0\ns2,b,0.0\n"
        with pytest.raises(ParseError, match="covers"):
            parse_predictions(text)

    def test_proba_rows_must_sum_to_one(self):
        text = "sample_id,c:a,c:b\ns1,0.9,0.2\n"
        with pytest.raises(ParseError, match="sum"):
            parse_predictions(text)

    def test_bad_feature_value_is_located(self):
        text = "sample_id,feat_0,c1\ns1,0.5,a\ns2,wide,b\n"
        with pytest.raises(ParseError) as err:
            parse_predictions(text)
        assert err.value.line == 3 and err.value.column == 2

    def test_duplicate_classifier_column_is_refused(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_predictions("sample_id,c1,c1\ns1,a,b\n")

    @pytest.mark.parametrize("header, column", [
        ("sample_id,true_label,c1,true_label", 4),
        ("sample_id,c1,sample_id,c2", 3),
        ("sample_id,feat_0,feat_0,c1", 3),
        ("sample_id,c:a,c:b,c:a", 4),
    ])
    def test_duplicate_special_columns_are_refused(self, header, column):
        text = header + "\ns1,a,b,a\ns2,b,a,b\n"
        if "feat" in header:
            text = header + "\ns1,1,2,a\ns2,3,4,b\n"
        if "c:a" in header:
            text = header + "\ns1,0.5,0.5,0.5\n"
        with pytest.raises(ParseError, match="duplicate column") as err:
            parse_predictions(text, source="p.csv")
        assert (err.value.line, err.value.column) == (1, column)

    def test_bad_ranking_is_located_at_its_row_and_column(self):
        text = "sample_id,true_label,a\ns1,z,x>y>z\ns2,y,x>y\n"
        with pytest.raises(ParseError, match="not a permutation") as err:
            parse_predictions(text, source="p.csv")
        assert (err.value.line, err.value.column) == (3, 3)
        assert str(err.value).startswith("p.csv:3:3: ")

    def test_bad_proba_row_is_located_at_its_group(self):
        text = "sample_id,v,c:a,c:b\ns1,a,0.5,0.5\n# note\ns2,b,0.9,0.2\n"
        with pytest.raises(ParseError, match="sum") as err:
            parse_predictions(text, source="p.csv")
        assert (err.value.line, err.value.column) == (4, 3)
        with pytest.raises(ParseError, match="negative") as err:
            parse_predictions(text.replace("0.5,0.5", "-0.5,1.5"), source="p.csv")
        assert (err.value.line, err.value.column) == (2, 3)

    def test_bad_proba_number_is_located(self):
        text = "sample_id,c:a,c:b\ns1,0.5,0.5\ns2,0.5,half\n"
        with pytest.raises(ParseError, match="not a number") as err:
            parse_predictions(text)
        assert (err.value.line, err.value.column) == (3, 3)

    @pytest.mark.parametrize(
        "text, cell, where",
        [
            ("sample_id,feat_0,c\ns1,0.5,a\ns2,nan,b\n", "nan", (3, 2)),
            ("sample_id,c:a,c:b\ns1,0.5,0.5\n# note\ns2,0.5,inf\n", "inf", (4, 3)),
        ],
    )
    def test_non_finite_numbers_are_located_at_their_cell(self, text, cell, where):
        with pytest.raises(ParseError, match=f"not a finite number: '{cell}'") as err:
            parse_predictions(text, source="p.csv")
        assert (err.value.line, err.value.column) == where

    @pytest.mark.parametrize(
        "text, cell, where",
        [
            ("sample_id,feat_0,c\ns1,0.5,a\ns2,1_0,b\n", "1_0", (3, 2)),
            ("sample_id,c:a,c:b\ns1,0.5,0.5\n# note\ns2,0.5,\u0660.5\n", "\u0660.5", (4, 3)),
            ("sample_id,c:a,c:b\ns1,0.5,0.5\ns2,0.5 ,0.5\u00a0\n", "0.5\u00a0", (3, 3)),
        ],
    )
    def test_numbers_are_ascii_without_digit_groups(self, text, cell, where):
        with pytest.raises(ParseError, match=re.escape(f"not a number: {cell!r}")) as err:
            parse_predictions(text, source="p.csv")
        assert (err.value.line, err.value.column) == where

    def test_an_underscore_outside_the_numbers_is_no_error(self):
        pred = parse_predictions("sample_id,feat_0,v\ns_1,0.5,x_y\ns_2,1.5,z\n")
        assert pred.labels == ("x_y", "z") and pred.features.ravel().tolist() == [0.5, 1.5]

    def test_quoted_cells_round_trip_for_every_kind(self):
        labels = ("a,b", "plain", 'q"x')
        pred = PredictionSet(
            labels=labels,
            sample_ids=("s,1", 's"2', "s3"),
            outputs=(
                ClassifierOutput.from_hard(('q"x', "a,b", "plain")),
                ClassifierOutput.from_ranks(
                    (("a,b", "plain", 'q"x'), ('q"x', "a,b", "plain"), ("plain", 'q"x', "a,b"))
                ),
                ClassifierOutput.from_proba([[0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.1, 0.2, 0.7]]),
            ),
            classifier_names=("hard,1", 'rank"2', "proba 3"),
            true_labels=("a,b", None, 'q"x'),
            features=[[1.5], [-2.0], [0.0]],
        )
        text = dump_predictions(pred)
        again = parse_predictions(text)
        assert again.labels == labels
        assert again.sample_ids == pred.sample_ids
        assert again.classifier_names == pred.classifier_names
        assert again.true_labels == pred.true_labels
        assert [o.kind for o in again.outputs] == ["hard", "rank", "proba"]
        assert again.outputs[0].hard == pred.outputs[0].hard
        assert again.outputs[1].ranks == pred.outputs[1].ranks
        assert np.array_equal(again.outputs[2].proba, pred.outputs[2].proba)
        assert np.array_equal(again.vote_codes, pred.vote_codes)
        assert dump_predictions(again) == text

    def test_an_open_quote_does_not_swallow_the_next_line(self):
        # each line is one row: the open quote on line 2 ends with its line
        with pytest.raises(ParseError, match="1 cells") as err:
            parse_report('a,b\n"x,1\n2,3\n')
        assert err.value.line == 2

    def test_a_bad_csv_line_is_located(self):
        too_long = "x" * (csv.field_size_limit() + 1)
        with pytest.raises(ParseError, match="bad CSV row") as err:
            parse_report(f"a,b\n1,2\n3,{too_long}\n")
        assert err.value.line == 3

    def test_a_nul_is_refused_at_its_line_on_every_python(self):
        # the CSV reader of Python 3.10 refuses it, later ones read it as text
        text = "sample_id,true_label,c1\ns1,a,b\ns2,b,a\0\n"
        with pytest.raises(ParseError, match="bad CSV row: line contains NUL") as err:
            parse_predictions(text, source="p.csv")
        assert str(err.value).startswith("p.csv:3:1: ")
        assert _outcome(predictions_rowwise, text) == _outcome(parse_predictions, text)

    def test_empty_vote_and_single_label_are_refused(self):
        with pytest.raises(ParseError, match="empty vote"):
            parse_predictions("sample_id,c1,c2\ns1,,a\ns2,b,a\n")
        with pytest.raises(ParseError, match="at least 2"):
            parse_predictions("sample_id,c1\ns1,a\ns2,a\n")

    def test_no_rows_no_classifiers(self):
        with pytest.raises(ParseError, match="no data rows"):
            parse_predictions("sample_id,c1\n")
        with pytest.raises(ParseError, match="no classifier columns"):
            parse_predictions("sample_id,true_label\ns1,a\ns2,b\n")


def _hard_set(labels, votes, ids=None, names=("c",), truth=None, **fields):
    ids = ids or tuple(f"s{i}" for i in range(len(votes)))
    outputs = tuple(ClassifierOutput.from_hard(votes) for _ in names)
    return PredictionSet(labels, ids, outputs, names, true_labels=truth, **fields)


#: Text that a dump must quote, or refuse, to stay equal when parsed back, among
#: it line breaks that ``str.splitlines`` knows and the CSV writer does not quote.
AWKWARD = ("#f", " c", "d>e", "g,h", 'i"j', "k\nl", "m:n", "o ", "true_label", "feat_1", "", "p\0q",
           "r\rs", "t\x0bu", "v\x0cw", "x\x1cy", "z\x85", "\u2028")

#: A piece of AWKWARD, or a few awkward characters in any order.
AWKWARD_TEXT = st.one_of(
    st.sampled_from(AWKWARD),
    st.text(st.sampled_from('a #,">:\t\u00a0\n\r\x0b\x0c\x1c\x85\u2028\0'), max_size=4),
)

#: Cells of the writers' round-trip properties: plain text, or awkward text.
CELL_TEXT = st.one_of(st.text("ab1 ", max_size=3), AWKWARD_TEXT)


class TestDumpParsesBackEqual:
    def test_an_id_starting_with_a_hash_is_quoted(self):
        pred = _hard_set(("a", "b"), ("a", "b", "a"), ids=("s0", "#1", "s2"))
        text = dump_predictions(pred)
        assert '\n"#1",' in text
        again = parse_predictions(text)
        assert again.sample_ids == ("s0", "#1", "s2")
        assert again.hard_votes(0) == pred.hard_votes(0)
        assert dump_predictions(again) == text

    @pytest.mark.parametrize("pred, match", [
        (lambda: _hard_set(("a", "b>c"), ("a", "b>c", "a")), "sample 1: classifier 'c' votes"),
        (lambda: _hard_set((" a", "b"), (" a", "b")), "label ' a'"),
        (lambda: _hard_set(("a", "b"), ("a", "b"), ids=("s0", "s1 ")), "sample 1 "),
        (lambda: _hard_set(("a", "b"), ("a", "b"), ids=("", "s1")), "sample 0 "),
        (lambda: _hard_set(("a", "b"), ("a", "b"), ids=("s\r0", "s1")), "sample 0 "),
        (lambda: _hard_set(("a", "b"), ("a", "b"), ids=("s0", "s\0")), "sample 1 "),
        (lambda: _hard_set(("a", "b\0"), ("a", "b\0")), r"label 'b\\x00' has .* a NUL"),
        (lambda: _hard_set(("a", "b"), ("a", "b"), names=("c\0",)), r"'c\\x00'"),
        (lambda: _hard_set(("b", "a"), ("a", "b")), "not sorted"),
        (lambda: _hard_set(("a", "b", "c"), ("a", "b")), r"\['c'\] appear in no cell"),
        (lambda: _hard_set(("a", "b"), ("a", "b"), names=("true_label",)), "'true_label'"),
        (lambda: _hard_set(("a", "b"), ("a", "b"), names=("c:1",)), "'c:1'"),
        (lambda: _hard_set(("a", "b"), ("a", "b"), names=("c", "c")), "repeat"),
        (lambda: _hard_set(("a", "b"), ("a", "b"), features=np.zeros((2, 0))), "no columns"),
    ])
    def test_a_set_no_text_parses_back_to_is_refused(self, pred, match):
        with pytest.raises(DataError, match=match):
            dump_predictions(pred())

    @settings(deadline=None, max_examples=150)
    @given(st.integers(0, 2**32 - 1))
    def test_a_dump_parses_back_equal_or_is_refused(self, seed):
        rng = np.random.default_rng(seed)

        def text(plain: str) -> str:
            return str(rng.choice(AWKWARD)) if rng.random() < 0.15 else plain

        m = int(rng.integers(2, 4))
        labels = tuple(dict.fromkeys([text(f"l{i}") or f"l{i}" for i in range(m)] + ["l8", "l9"]))
        labels = labels[: max(m, 2)]
        if rng.random() < 0.8:
            labels = tuple(sorted(labels))
        m, n = len(labels), int(rng.integers(1, 6))
        outputs = []
        for _ in range(int(rng.integers(1, 4))):
            kind = rng.choice(["hard", "rank", "proba"])
            if kind == "hard":
                outputs.append(ClassifierOutput.from_hard(rng.choice(labels, n)))
            elif kind == "rank":
                outputs.append(ClassifierOutput.from_ranks(
                    [rng.permutation(labels) for _ in range(n)]))
            else:
                counts = rng.integers(1, 5, size=(n, m))
                outputs.append(ClassifierOutput.from_proba(counts / counts.sum(1, keepdims=True)))
        pred = PredictionSet(
            labels,
            tuple(text(f"s{i}") for i in range(n)),
            tuple(outputs),
            tuple(text(f"c{j}") for j in range(len(outputs))),
            true_labels=(None if rng.random() < 0.3 else
                         tuple(None if rng.random() < 0.2 else str(rng.choice(labels))
                               for _ in range(n))),
            features=None if rng.random() < 0.5 else rng.normal(size=(n, int(rng.integers(1, 3)))),
        )
        try:
            dumped = dump_predictions(pred)
        except DataError:
            return
        again = parse_predictions(dumped)
        assert again.labels == pred.labels
        assert again.sample_ids == pred.sample_ids
        assert again.classifier_names == pred.classifier_names
        assert again.true_labels == pred.true_labels
        assert [o.kind for o in again.outputs] == [o.kind for o in pred.outputs]
        assert np.array_equal(again.vote_codes, pred.vote_codes)
        assert np.array_equal(again.score_tensor(), pred.score_tensor())
        if pred.features is None:
            assert again.features is None
        else:
            assert np.array_equal(again.features, pred.features)
        assert dump_predictions(again) == dumped


class TestCostFiles:
    def test_labels_are_reordered_to_sorted(self):
        text = ",b,a\nb,1.0,-2.0\na,-3.0,4.0\n"
        cost = parse_cost_matrix(text)
        assert cost.labels == ("a", "b")
        assert cost.gains.tolist() == [[4.0, -3.0], [-2.0, 1.0]]

    def test_round_trip(self):
        text = ",a,b\na,1.0,0.0\nb,-1.0,1.0\n"
        cost = parse_cost_matrix(text)
        assert dump_cost_matrix(cost) == text

    def test_errors(self):
        with pytest.raises(ParseError, match="do not match"):
            parse_cost_matrix(",a,b\na,1,0\nc,0,1\n")
        with pytest.raises(ParseError, match="not a number"):
            parse_cost_matrix(",a,b\na,1,zero\nb,0,1\n")
        with pytest.raises(ParseError):
            parse_cost_matrix(",a,b\na,1,0\n")
        with pytest.raises(ParseError, match="duplicate row"):
            parse_cost_matrix(",a,b\na,1,0\na,0,1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            (",a,b\n", "cost matrix needs a header and one row per label"),
            ("# gains\n,a,b\n", "cost matrix needs a header and one row per label"),
            (",a,\na,1,0\nb,0,1\n", "header must list predicted labels"),
            (",\na,1\n", "header must list predicted labels"),
        ],
    )
    def test_a_table_without_a_body_or_a_full_header_is_refused(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse_cost_matrix(text, source="c.csv")
        assert str(err.value).startswith("c.csv:")

    @pytest.mark.parametrize(
        "text, where",
        [
            (",a,b\n", "c.csv:1:1: "),
            ("# gains\n,a,b\n", "c.csv:2:1: "),
            ("# gains\n\n \t\n,a,b\n# no rows\n", "c.csv:4:1: "),
        ],
    )
    def test_a_header_without_rows_is_refused_at_its_line(self, text, where):
        with pytest.raises(ParseError, match="needs a header and one row per label") as err:
            parse_cost_matrix(text, source="c.csv")
        assert str(err.value).startswith(where)

    @pytest.mark.parametrize("text", ["", "# gains\n", "\n# gains\n\n"])
    def test_a_text_with_no_row_is_refused_at_its_start(self, text):
        with pytest.raises(ParseError, match="needs a header and one row per label") as err:
            parse_cost_matrix(text, source="c.csv")
        assert str(err.value).startswith("c.csv:1:1: ")

    @pytest.mark.parametrize("cell", ["1_000", "\u0661", "-\u0661.5"])
    def test_gains_are_ascii_without_digit_groups(self, cell):
        with pytest.raises(ParseError, match=re.escape(f"not a number: {cell!r}")) as err:
            parse_cost_matrix(f",a,b\na,1,0\nb,{cell},1\n", source="c.csv")
        assert str(err.value).startswith("c.csv:3:2: ")

    def test_a_nul_is_refused_at_its_line(self):
        with pytest.raises(ParseError, match="bad CSV row: line contains NUL") as err:
            parse_cost_matrix(',a,b\n"a\0",1,0\nb,0,1\n', source="c.csv")
        assert str(err.value).startswith("c.csv:2:1: ")

    def test_non_finite_gains_are_located_at_their_cell(self):
        with pytest.raises(ParseError, match="not a finite number: 'nan'") as err:
            parse_cost_matrix(",a,b\na,1,0\nb,nan,1\n", source="c.csv")
        assert str(err.value).startswith("c.csv:3:2: ")

    @pytest.mark.parametrize("label", [" a", "a\nb", "a\0", "a\u2028b"])
    def test_a_label_that_does_not_parse_back_is_refused(self, label):
        with pytest.raises(DataError, match="does not parse back") as exc:
            dump_cost_matrix(CostMatrix((label, "b"), [[1.0, 0.0], [0.0, 1.0]]))
        assert repr(label) in str(exc.value)

    @settings(deadline=None, max_examples=300)
    @given(st.lists(CELL_TEXT.filter(bool), min_size=2, max_size=4, unique=True), st.data())
    def test_a_dump_parses_back_to_the_same_gains_or_is_refused(self, labels, data):
        m = len(labels)
        gains = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                   min_size=m * m, max_size=m * m))
        cost = CostMatrix(tuple(labels), np.reshape(gains, (m, m)))
        try:
            text = dump_cost_matrix(cost)
        except DataError as exc:
            assert any(repr(lab) in str(exc) for lab in labels)
            return
        back = parse_cost_matrix(text)
        assert back.labels == tuple(sorted(labels))
        at = [back.labels.index(lab) for lab in labels]  # the parser sorts the labels
        assert back.gains[np.ix_(at, at)].tolist() == cost.gains.tolist()


@pytest.mark.parametrize(
    "load, text",
    [
        (load_game, "weights = 2 1 1\nquota = 2\n"),
        (load_team_structure, "team = 0 1\nteam = 2\n"),
        (load_predictions, "sample_id,true_label,c1\ns1,y,y\ns2,n,y\n"),
        (load_cost_matrix, ",n,y\nn,1.0,0.0\ny,0.0,1.0\n"),
        (read_report, "# note\na,b\n1,2\n"),
    ],
)
def test_a_leading_byte_order_mark_is_dropped_by_every_loader(tmp_path, load, text):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert repr(load(marked)) == repr(load(plain))


@st.composite
def _reports(draw):
    """A report of plain and awkward text whose rows now and then differ in width."""
    width = draw(st.integers(0, 3))
    comments = draw(st.lists(CELL_TEXT, max_size=3))
    header = draw(st.lists(CELL_TEXT, min_size=width, max_size=width))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.sampled_from([width] * 6 + [max(width - 1, 0), width + 1]))
        rows.append(tuple(draw(st.lists(CELL_TEXT, min_size=n, max_size=n))))
    return Report(tuple(comments), tuple(header), tuple(rows))


class TestReports:
    def test_round_trip_preserves_comments_and_rows(self):
        rep = Report(
            comments=("command=power", "seed=0"),
            header=("kind", "player", "value"),
            rows=(("banzhaf", "0", "0.6"), ("banzhaf", "1", "0.2")),
        )
        text = rep.to_text()
        assert text.startswith("# command=power\n# seed=0\n")
        again = parse_report(text)
        assert again == rep

    def test_read_report_from_disk(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("# note\na,b\n1,2\n", encoding="utf-8")
        rep = read_report(p)
        assert rep.comments == ("note",)
        assert rep.header == ("a", "b")
        assert rep.rows == (("1", "2"),)

    def test_a_first_cell_starting_with_a_hash_is_quoted(self):
        rep = Report(("note",), ("#key", "value"), (("#1", "x"), ("2", "#y")))
        text = rep.to_text()
        assert text == '# note\n"#key","value"\n"#1","x"\n2,#y\n'
        assert parse_report(text) == rep

    @pytest.mark.parametrize(
        "report, culprit",
        [
            (Report(("a\nb",), ("h",), ()), "a\nb"),
            (Report(("note", "a\r"), ("h",), ()), "a\r"),
            (Report(("a\x0bb",), ("h",), ()), "a\x0bb"),
            (Report(("a\u2028b",), ("h",), ()), "a\u2028b"),
            (Report((" a",), ("h",), ()), " a"),
            (Report(("\ta",), ("h",), ()), "\ta"),
            (Report(("note",), ("h\nk",), ()), "h\nk"),
            (Report(("note",), ("h",), (("x\ny",),)), "x\ny"),
            (Report((), ("h", "k"), (("1", "2"), ("3", "y\x85"))), "y\x85"),
            (Report((), ("h", "k"), (("1", "y\r"),)), "y\r"),
            (Report(("c",), ("h",), (("  ",),)), ("  ",)),
            (Report(("c",), ("h",), (("x",), ())), ()),
            (Report((), ("h",), (("1",), ("\t",), ("2",))), ("\t",)),
            (Report(("c",), (), ()), ()),
            (Report(("c",), ("h\0",), ()), "h\0"),
            (Report((), ("h", "k"), (("1", "2"), ("3", "y\0"))), "y\0"),
        ],
    )
    def test_text_that_would_not_parse_back_is_refused(self, report, culprit):
        with pytest.raises(DataError, match="does not parse back") as exc:
            report.to_text()
        assert repr(culprit) in str(exc.value)

    def test_quoted_cells_survive(self):
        rep = Report((), ("name", "value"), (("a,b", "x\"y"),))
        assert parse_report(rep.to_text()) == rep
        rep = Report(("c",), ("h",), (("",), ("x",)))  # an empty cell is quoted, not blank
        assert parse_report(rep.to_text()) == rep

    def test_a_nul_is_refused_in_a_row_and_kept_in_a_comment(self):
        with pytest.raises(ParseError, match="bad CSV row: line contains NUL") as err:
            parse_report("# note\na,b\n1,2\n\0,3\n", source="r.csv")
        assert str(err.value).startswith("r.csv:4:1: ")
        rep = parse_report("# a\0b\nh\n1\n")
        assert rep == Report(("a\0b",), ("h",), (("1",),))
        assert parse_report(rep.to_text()) == rep

    def test_a_nul_the_writer_refuses_is_named_as_on_python_3_10(self, monkeypatch):
        # the CSV writer of Python 3.10 raises on a NUL, later ones write it
        writer = csv.writer

        class Refusing:
            def __init__(self, *args, **kwargs):
                self.inner = writer(*args, **kwargs)

            def writerow(self, row):
                if any("\0" in c for c in row):
                    raise csv.Error("need to escape, but no escapechar set")
                self.inner.writerow(row)

            def writerows(self, rows):
                for row in rows:
                    self.writerow(row)

        monkeypatch.setattr(csv, "writer", Refusing)
        for rep, culprit in [
            (Report(("c\0",), ("h", "k"), (("1", "2"), ("3", "y\0"))), "y\0"),
            (Report((), ("#h\0", "k"), ()), "#h\0"),
        ]:
            with pytest.raises(DataError, match="has a NUL: it does not parse back") as exc:
                rep.to_text()
            assert repr(culprit) in str(exc.value)
        rep = Report(("c\0",), ("h",), (("1",), ("#2",)))
        assert parse_report(rep.to_text()) == rep

    @settings(deadline=None, max_examples=300)
    @given(_reports())
    def test_a_report_parses_back_equal_or_is_refused(self, rep):
        try:
            text = rep.to_text()
        except DataError as exc:
            assert "does not parse back" in str(exc)
            return
        assert parse_report(text) == rep

    def test_ragged_report_is_refused(self):
        with pytest.raises(ParseError):
            parse_report("a,b\n1\n")
        with pytest.raises(ParseError, match="no header"):
            parse_report("# only comments\n")


#: Labels that hold blanks inside, or start with '#' off the start of a
#: line, and two that need quoting.
LABEL_POOL = ("a", "b", "hi", "lo", "c 3", "#h", "x,y", 'q"t')


def _quoted(cell: str, force: bool) -> str:
    if force or "," in cell or '"' in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _prediction_grid(rng, quotes: bool):
    """A valid predictions header and body as cells, and where each kind of cell sits.

    Without ``quotes`` no cell needs quoting, so the parser splits every row at its commas.
    """
    m = int(rng.integers(2, 5))
    pool = LABEL_POOL if quotes else LABEL_POOL[:-2]
    labels = [str(x) for x in rng.choice(pool, m, replace=False)]
    n = m + int(rng.integers(0, 8))
    kinds = [str(rng.choice(["hard", "rank", "proba"])) for _ in range(rng.integers(1, 4))]
    header = ["sample_id"]
    spots = {"number": [], "hard": [], "rank": [], "proba_head": []}
    if rng.random() < 0.7:
        header.append("true_label")
    for j in range(int(rng.integers(0, 3))):
        spots["number"].append(len(header))
        header.append(f"feat_{j}")
    for k, kind in enumerate(kinds):
        if kind == "proba":
            spots["proba_head"].append(len(header))
            spots["number"] += range(len(header), len(header) + m)
            header += [f"c{k}:{lab}" for lab in labels]
        else:
            spots[kind].append(len(header))
            header.append(f"c{k}")
    rows = [[("#s" if quotes and rng.random() < 0.2 else "s") + str(i)] for i in range(n)]
    if "true_label" in header:
        for row in rows:
            row.append("" if rng.random() < 0.2 else str(rng.choice(labels)))
    for i, row in enumerate(rows):
        for c in range(len(row), len(header)):
            if c in spots["hard"]:
                lab = labels[i] if i < m else str(rng.choice(labels))
                row.append(" " + lab if rng.random() < 0.1 else lab)
            elif c in spots["rank"]:
                row.append(">".join(rng.permutation(labels)))
            elif c in spots["proba_head"]:
                counts = rng.integers(1, 9, size=m)
                row += [repr(float(x)) for x in counts / counts.sum()]
            elif header[c].startswith("feat_"):
                row.append(repr(float(np.round(rng.normal(), 1))))
    return header, rows, labels, spots


def _predictions_text(rng, quotes: bool, header, rows) -> str:
    """The grid as CSV text, with comment and blank lines and maybe CRLF line ends."""
    lines = []
    for cells in [header] + rows:
        while rng.random() < 0.15:
            lines.append(str(rng.choice(["# a note", "", "   ", "#"])))
        force = [quotes and rng.random() < 0.15 for _ in cells]
        force[0] = cells[0].startswith("#") or (quotes and cells is header)
        lines.append(",".join(_quoted(c, f) for c, f in zip(cells, force)))
    end = "\r\n" if rng.random() < 0.3 else "\n"
    return end.join(lines) + end


def _mutated(rng, header, rows, labels, spots):
    """A copy of the grid with one defect the parser must report."""
    header, rows = list(header), [list(r) for r in rows]
    r = int(rng.integers(0, len(rows)))
    votes = spots["hard"] + spots["rank"]
    kinds = ["short", "long", "number", "nan", "inf", "mixed", "empty", "group", "duplicate"]
    kind = str(rng.choice(kinds))
    if kind in ("number", "nan", "inf") and spots["number"]:
        rows[r][int(rng.choice(spots["number"]))] = {"number": "abc"}.get(kind, kind)
    elif kind in ("mixed", "empty") and votes:
        c = int(rng.choice(votes))
        plain = ">".join(labels) if c in spots["hard"] else labels[0]
        rows[r][c] = plain if kind == "mixed" else ""
    elif kind == "group" and spots["proba_head"]:
        c = int(rng.choice(spots["proba_head"]))
        header[c] = "cz:" + header[c].split(":", 1)[1]  # a group of one label
    elif kind == "duplicate":
        c = int(rng.integers(1, len(header)))
        header[c] = header[int(rng.integers(0, c))]
    elif kind == "short":
        rows[r].pop()
    else:
        rows[r].append("x")
    return header, rows


def _outcome(parse, text):
    """What a parser makes of a text: its error, or the values of the set."""
    try:
        pred = parse(text, "p.csv")
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.column
    return (
        pred.labels,
        pred.sample_ids,
        pred.true_labels,
        pred.classifier_names,
        [o.kind for o in pred.outputs],
        pred.vote_codes.tolist(),
        pred.truth_codes.tolist(),
        pred.score_tensor().tolist(),
        None if pred.features is None else pred.features.tolist(),
    )


#: Cells for the CSV reader property test: commas, quotes, blanks and '#',
#: and now and then a NUL or a cell at or past a field size limit of 12.
CSV_CELLS = st.integers(0, 39).flatmap(
    lambda rare: st.just(["x" * 12, "y" * 13, "n\0"][rare]) if rare < 3
    else st.text(st.sampled_from('ab #,"\t'), max_size=5)
)


@st.composite
def _csv_texts(draw):
    """CSV text: rows of mostly one width, each quoted where it needs to be or
    joined raw, between comment, blank and all-blank lines, ending in LF or CRLF."""
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["quoted", "quoted", "raw", "comment", "blank"]))
        if kind == "comment":
            lines.append("#" + draw(CSV_CELLS))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", " \t"])))
        else:
            n = width + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1]))
            cells = draw(st.lists(CSV_CELLS, min_size=max(n, 1), max_size=max(n, 1)))
            forced = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
            if kind == "raw":
                lines.append(",".join(cells))
            else:
                lines.append(",".join(map(_quoted, cells, forced)))
    ends = draw(st.sampled_from(["\n", "\r\n"]))
    return ends.join(lines) + draw(st.sampled_from(["", ends]))


def _report_outcome(parse, text):
    """What a report parser makes of a text: its error, or the report."""
    try:
        return parse(text, "r.csv")
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.column


class TestCsvRowsAgainstTheRowwiseReader:
    @settings(deadline=None, max_examples=300)
    @given(_csv_texts())
    def test_a_report_reads_as_the_csv_reader_reads_its_lines(self, text):
        limit = csv.field_size_limit(12)
        try:
            got = _report_outcome(parse_report, text)
            assert got == _report_outcome(report_rowwise, text)
            if isinstance(got, Report):
                rows = _csv_rows_rowwise(text, "r.csv")
                assert vio._CsvText(text, "r.csv").numbers == [lineno for lineno, _ in rows]
        finally:
            csv.field_size_limit(limit)


class TestPredictionsAgainstTheRowwiseOracle:
    @settings(deadline=None, max_examples=150)
    @given(st.integers(0, 2**32 - 1))
    def test_columnar_parse_equals_the_rowwise_parse(self, seed):
        rng = np.random.default_rng(seed)
        quotes = bool(rng.random() < 0.5)
        header, rows, labels, spots = _prediction_grid(rng, quotes)
        text = _predictions_text(rng, quotes, header, rows)
        assert ('"' in text) == quotes
        got = _outcome(parse_predictions, text)
        assert got[0] != "error", got
        assert got == _outcome(predictions_rowwise, text)
        bad = _predictions_text(rng, quotes, *_mutated(rng, header, rows, labels, spots))
        got = _outcome(parse_predictions, bad)
        assert got[0] == "error"
        assert got == _outcome(predictions_rowwise, bad)


@pytest.fixture
def parses(monkeypatch):
    """The sources ``load_predictions`` parses, with no parse kept to start with."""
    monkeypatch.setattr(vio, "_kept_predictions", {})
    monkeypatch.setattr(vio, "_kept_bytes", 0)
    sources = []

    def counted(text, source="<string>"):
        sources.append(source)
        return parse_predictions(text, source)

    monkeypatch.setattr(vio, "parse_predictions", counted)
    return sources


def _every_field(pred: PredictionSet):
    """The values of a set: its constructor fields, outputs in full, and what validation codes."""
    outputs = [
        (o.kind, o.values, None if o.rows is None else o.rows.tolist(),
         None if o.proba is None else o.proba.tolist())
        for o in pred.outputs
    ]
    return (
        pred.labels, pred.sample_ids, outputs, pred.classifier_names, pred.true_labels,
        None if pred.features is None else pred.features.tolist(),
        pred.vote_codes.tolist(), pred.truth_codes.tolist(), pred.score_tensor().tolist(),
    )


def _arrays(pred: PredictionSet):
    outputs = [a for o in pred.outputs for a in (o.rows, o.proba) if a is not None]
    return [pred.vote_codes, pred.truth_codes, pred.score_tensor(), pred.features, *outputs]


def _entry_bytes(text: str) -> int:
    """What a kept parse of ``text`` counts against the budget: its bytes and its arrays'."""
    held = [a for a in _arrays(parse_predictions(text)) if a is not None]
    return len(text.encode()) + sum(a.nbytes for a in held)


@pytest.fixture
def validations(monkeypatch):
    """The sets whose validation runs, in order."""
    calls = []
    validate = PredictionSet.__post_init__

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(PredictionSet, "__post_init__", counted)
    return calls


class TestPredictionParsesAreReused:
    def test_a_second_load_of_the_same_bytes_builds_an_equal_set_unparsed(
        self, tmp_path, parses, monkeypatch, capsys
    ):
        path = tmp_path / "p.csv"
        path.write_text(PREDICTIONS_CSV, encoding="utf-8")
        first = load_predictions(path)
        again = load_predictions(path)
        assert parses == [str(path)]
        assert _every_field(again) == _every_field(first)
        assert _every_field(again) == _every_field(parse_predictions(PREDICTIONS_CSV))
        for argv in (["fuse", "--rule", "wmr"], ["report", "--k", "2"]):
            vio._kept_predictions.clear()
            monkeypatch.setattr(vio, "_kept_bytes", 0)
            parses.clear()
            outs = []
            for _ in range(2):
                assert main([*argv, "--predictions", str(path)]) == 0
                outs.append(capsys.readouterr())
            assert parses == [str(path)]
            assert outs[1] == outs[0]

    def test_other_bytes_at_the_same_path_are_parsed_again(self, tmp_path, parses):
        path = tmp_path / "p.csv"
        path.write_text(PREDICTIONS_CSV, encoding="utf-8")
        before = load_predictions(path)
        stat = path.stat()
        path.write_text(PREDICTIONS_CSV.replace("0.9,0.1", "0.6,0.4"), encoding="utf-8")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
        after = load_predictions(path)
        assert parses == [str(path)] * 2
        assert before.outputs[2].proba[0].tolist() == [0.9, 0.1]
        assert after.outputs[2].proba[0].tolist() == [0.6, 0.4]

    def test_the_same_bytes_at_another_path_reuse_the_parse(self, tmp_path, parses):
        a, b = tmp_path / "a.csv", tmp_path / "sub" / "b.csv"
        b.parent.mkdir()
        for path in (a, b):
            path.write_text(PREDICTIONS_CSV, encoding="utf-8")
        first = load_predictions(a)
        assert _every_field(load_predictions(b)) == _every_field(first)
        assert parses == [str(a)]

    def test_a_broken_file_fails_at_its_cell_each_time_and_is_not_kept(self, tmp_path, parses):
        path = tmp_path / "p.csv"
        path.write_text(PREDICTIONS_CSV.replace("0.5,-1.0", "0.5,x"), encoding="utf-8")
        for _ in range(2):
            with pytest.raises(ParseError, match="not a number: 'x'") as err:
                load_predictions(path)
            assert str(err.value).startswith(f"{path}:4:4: ")
        assert parses == [str(path)] * 2
        assert vio._kept_predictions == {} and vio._kept_bytes == 0

    def test_crlf_and_a_byte_order_mark_read_as_read_text_reads_them(self, tmp_path, parses):
        path = tmp_path / "p.csv"
        lines = PREDICTIONS_CSV.splitlines(keepends=True)
        text = "".join(lines[:2]).replace("\n", "\r\n") + lines[2].replace("\n", "\r")
        path.write_bytes(b"\xef\xbb\xbf" + (text + "".join(lines[3:])).encode())
        want = _every_field(parse_predictions(path.read_text(encoding="utf-8-sig")))
        assert _every_field(load_predictions(path)) == want  # parsed
        assert _every_field(load_predictions(path)) == want  # reused
        assert parses == [str(path)]

    @pytest.mark.parametrize("data", [
        b"a\r\nb\rc\n", b"\xef\xbb\xbfa\r", b"\r\n\r\r\n", b"a\xc3\xa9\r", b"a\xffb", b"",
    ])
    def test_every_loader_reads_bytes_as_read_text_reads_them(self, tmp_path, data):
        path = tmp_path / "f"
        path.write_bytes(data)
        try:
            want = path.read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            with pytest.raises(UnicodeDecodeError, match=re.escape(str(exc))):
                vio._read_text(path)
        else:
            assert vio._read_text(path) == want

    def test_the_oldest_parse_leaves_first_and_a_file_past_the_budget_is_not_kept(
        self, tmp_path, parses, monkeypatch
    ):
        texts = [PREDICTIONS_CSV.replace("s1", f"t{i}") for i in range(3)]
        size = _entry_bytes(texts[0])
        assert size > 2 * len(texts[0].encode())  # the arrays outweigh the text
        monkeypatch.setattr(vio, "_KEPT_PREDICTION_BYTES", 2 * size + 1)
        paths = []
        for i, text in enumerate(texts):
            paths.append(tmp_path / f"p{i}.csv")
            paths[-1].write_text(text, encoding="utf-8")
            load_predictions(paths[-1])
        keys = [hashlib.sha256(p.read_bytes()).digest() for p in paths]
        assert list(vio._kept_predictions) == keys[1:]
        assert vio._kept_bytes == 2 * size
        load_predictions(paths[1])
        load_predictions(paths[2])
        assert parses == list(map(str, paths))
        big = tmp_path / "big.csv"
        big.write_text(PREDICTIONS_CSV + "# " + "x" * 2 * size + "\n", encoding="utf-8")
        load_predictions(big)
        load_predictions(big)
        assert parses[3:] == [str(big)] * 2
        assert list(vio._kept_predictions) == keys[1:]
        load_predictions(paths[0])
        assert list(vio._kept_predictions) == keys[2:] + keys[:1]

    def test_threads_loading_often_keep_the_byte_count_of_what_they_keep(
        self, tmp_path, parses, monkeypatch
    ):
        texts = [PREDICTIONS_CSV.replace("s1", f"t{i}") for i in range(5)]
        size = _entry_bytes(texts[0])
        monkeypatch.setattr(vio, "_KEPT_PREDICTION_BYTES", 3 * size)
        paths = [tmp_path / f"p{i}.csv" for i in range(len(texts))]
        for path, text in zip(paths, texts):
            path.write_text(text, encoding="utf-8")
        want = [_every_field(parse_predictions(text)) for text in texts]
        faults = []

        def load(offset):
            for i in range(40):
                j = (offset + i) % len(paths)
                if _every_field(load_predictions(paths[j])) != want[j]:
                    faults.append(j)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=load, args=(k,)) for k in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(worker.is_alive() for worker in workers) and faults == []
        kept = vio._kept_predictions
        assert [counted for counted, _ in kept.values()] == [size] * 3
        assert vio._kept_bytes == 3 * size

    def test_a_load_validates_once_per_distinct_bytes(self, tmp_path, parses, validations):
        for i, text in enumerate((PREDICTIONS_CSV, PREDICTIONS_CSV.replace("s1", '"s,1"'))):
            path = tmp_path / f"p{i}.csv"
            path.write_text(text, encoding="utf-8")
            validations.clear()
            pred = load_predictions(path)
            assert validations == [pred]
            validations.clear()
            assert load_predictions(path) is pred
            assert validations == []
        assert len(parses) == 2

    def test_a_load_of_kept_bytes_returns_the_kept_set_of_read_only_arrays(
        self, tmp_path, parses
    ):
        path = tmp_path / "p.csv"
        path.write_text(PREDICTIONS_CSV, encoding="utf-8")
        first, again = load_predictions(path), load_predictions(path)
        assert parses == [str(path)] and again is first
        assert list(vio._kept_predictions.values()) == [(_entry_bytes(PREDICTIONS_CSV), first)]
        for array in _arrays(first):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="WRITEABLE"):
                array.setflags(write=True)
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0

    def test_a_file_that_fails_validation_fails_each_time_and_is_not_kept(
        self, tmp_path, parses, validations
    ):
        path = tmp_path / "p.csv"
        path.write_text(PREDICTIONS_CSV.replace("0.9,0.1", "0.9,0.2"), encoding="utf-8")
        for i in range(1, 3):
            with pytest.raises(ParseError, match="probability row does not sum to 1") as err:
                load_predictions(path)
            assert str(err.value).startswith(f"{path}:3:7: ")
            assert len(validations) == i
        assert parses == [str(path)] * 2
        assert vio._kept_predictions == {} and vio._kept_bytes == 0

    def test_a_file_whose_arrays_pass_the_budget_is_parsed_each_time(
        self, tmp_path, parses, monkeypatch
    ):
        labels = [f"label{i:02d}" for i in range(40)]  # hard votes, scored over 40 labels
        rows = [f"s{i},{labels[i % 40]},{labels[(i * 7) % 40]}" for i in range(60)]
        text = "sample_id,c0,c1\n" + "\n".join(rows) + "\n"
        size = len(text.encode())
        monkeypatch.setattr(vio, "_KEPT_PREDICTION_BYTES", 4 * size)
        assert _entry_bytes(text) > 4 * size
        path = tmp_path / "p.csv"
        path.write_text(text, encoding="utf-8")
        first, again = load_predictions(path), load_predictions(path)
        assert parses == [str(path)] * 2 and again is not first
        assert _every_field(again) == _every_field(first)
        assert vio._kept_predictions == {} and vio._kept_bytes == 0
