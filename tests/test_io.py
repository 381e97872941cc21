import csv
from fractions import Fraction

import numpy as np
import pytest

from votefuse.errors import ParseError
from votefuse.fusion import ClassifierOutput, PredictionSet
from votefuse.io import (
    Report,
    dump_cost_matrix,
    dump_game,
    dump_predictions,
    load_game,
    parse_ballots,
    parse_cost_matrix,
    parse_game,
    parse_predictions,
    parse_report,
    parse_team_structure,
    read_report,
    save_game,
)
from votefuse.model import VotingGame


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
        save_game(game, p)
        back = load_game(p)
        assert back.weights == game.weights and back.quota == game.quota
        assert dump_game(back) == dump_game(game)

    def test_bad_token_reports_line_and_column(self):
        with pytest.raises(ParseError) as err:
            parse_game("weights = 2 x 1\n", source="game.txt")
        assert err.value.line == 1
        assert err.value.column == 13
        assert "game.txt:1:13" in str(err.value)

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


class TestBallotFiles:
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

    def test_quoted_cells_survive(self):
        rep = Report((), ("name", "value"), (("a,b", "x\"y"),))
        assert parse_report(rep.to_text()) == rep

    def test_ragged_report_is_refused(self):
        with pytest.raises(ParseError):
            parse_report("a,b\n1\n")
        with pytest.raises(ParseError, match="no header"):
            parse_report("# only comments\n")
