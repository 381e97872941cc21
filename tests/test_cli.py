import contextlib
import io
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votefuse.cli import main
from votefuse.io import parse_report
from votefuse.jury import jury_exact

from oracles import unique_wmr_brute


@pytest.fixture
def game_file(tmp_path):
    p = tmp_path / "game.txt"
    p.write_text("weights = 2 1 1\nquota = 2\n", encoding="utf-8")
    return str(p)


@pytest.fixture
def predictions_file(tmp_path):
    p = tmp_path / "preds.csv"
    p.write_text(
        "sample_id,true_label,c1,c2\n"
        "s1,y,y,y\n"
        "s2,n,n,n\n"
        "s3,y,y,n\n"
        "s4,y,n,y\n",
        encoding="utf-8",
    )
    return str(p)


@pytest.fixture
def cost_file(tmp_path):
    p = tmp_path / "cost.csv"
    p.write_text(",n,y\nn,1.0,0.0\ny,0.0,1.0\n", encoding="utf-8")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPowerCommand:
    def test_exact_report(self, capsys, game_file):
        code, out, _ = run(capsys, "power", "--game", game_file, "--kind", "banzhaf")
        assert code == 0
        assert "# command=power" in out
        assert "# seed=0" in out
        assert "kind,player,raw,normalized,stderr" in out
        assert "banzhaf,0,3,0.6,\n" in out
        assert "banzhaf,1,1,0.2,\n" in out

    def test_both_kinds_emit_six_rows(self, capsys, game_file):
        code, out, _ = run(capsys, "power", "--game", game_file)
        rep = parse_report(out)
        assert code == 0 and len(rep.rows) == 6
        assert {r[0] for r in rep.rows} == {"banzhaf", "shapley"}

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from(["0", "1", "2", "7", "39", "1/2", "5/3", "11/6"]),
                 min_size=1, max_size=14),
        st.integers(0, 24),
    )
    def test_both_kinds_are_the_rows_of_each_kind(self, weights, share):
        total = sum(map(Fraction, weights))
        rows = []
        with tempfile.TemporaryDirectory() as tmp:
            game = Path(tmp, "game.txt")
            game.write_text(f"weights = {' '.join(weights)}\nquota = {total * share / 24}\n")
            for kind in ("both", "banzhaf", "shapley"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(["power", "--game", str(game), "--kind", kind]) == 0
                rows.append(parse_report(out.getvalue()).rows)
        assert rows[0] == rows[1] + rows[2]

    def test_a_game_both_kinds_refuse_is_refused_as_banzhaf(self, capsys, tmp_path):
        game = tmp_path / "game.txt"
        game.write_text(f"weights = {' '.join(str(10**9 + i) for i in range(30))}\n")
        both = run(capsys, "power", "--game", str(game), "--kind", "both")
        banzhaf = run(capsys, "power", "--game", str(game), "--kind", "banzhaf")
        assert both == banzhaf and both[0] == 4 and both[1] == ""
        assert "exact Banzhaf needs" in both[2]

    def test_monte_carlo_rows_carry_stderr(self, capsys, game_file):
        code, out, _ = run(
            capsys, "power", "--game", game_file, "--kind", "banzhaf",
            "--method", "monte-carlo", "--trials", "4000", "--seed", "5",
        )
        rep = parse_report(out)
        assert code == 0
        assert "trials=4000" in rep.comments
        assert all(r[4] != "" for r in rep.rows)


@pytest.mark.parametrize("argv", [
    ("power", "--game", "GAME", "--method", "monte-carlo"),
    ("jury", "--skills", "0.6,0.7,0.8", "--method", "monte-carlo"),
    ("efficiency", "-m", "3", "--voters", "5", "--scoring", "borda", "--method", "monte-carlo"),
])
def test_a_trial_budget_past_2_53_exits_three(capsys, game_file, argv):
    argv = [game_file if a == "GAME" else a for a in argv]
    code, out, err = run(capsys, *argv, "--trials", "100000000000000000000")
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "trials must be <= 2^53" in err


class TestWmrEnumCommand:
    def test_four_voter_enumeration(self, capsys):
        code, out, _ = run(capsys, "wmr", "enum", "--n", "4")
        rep = parse_report(out)
        assert code == 0
        assert "count=3" in rep.comments
        assert "bound_stable=true" in rep.comments
        assert [r[0] for r in rep.rows] == ["1 0 0 0", "1 1 1 0", "2 1 1 1"]
        assert all(set(r[1]) <= {"A", "B"} and len(r[1]) == 16 for r in rep.rows)

    def test_bound_stability_takes_no_extra_scan(self, capsys, monkeypatch):
        import votefuse.cli as cli

        bounds = []
        scan = cli.enumerate_unique_wmr

        def counted(n, max_weight=None):
            bounds.append(max_weight)
            return scan(n, max_weight)

        monkeypatch.setattr(cli, "enumerate_unique_wmr", counted)
        # stability is a lookup, so every bound takes its one scan alone
        for argv, stable in (([], "true"), (["--max-weight", "1"], "false"),
                             (["--max-weight", "3"], "true")):
            bounds.clear()
            code, out, _ = run(capsys, "wmr", "enum", "--n", "4", *argv)
            assert code == 0 and bounds == [int(argv[1]) if argv else None]
            assert f"bound_stable={stable}" in parse_report(out).comments

    def test_bounds_past_the_default_answer_at_once_with_its_rows(self, capsys):
        _, default, _ = run(capsys, "wmr", "enum", "--n", "7")
        for bound in ("18", "40"):
            start = time.perf_counter()
            code, out, _ = run(capsys, "wmr", "enum", "--n", "7", "--max-weight", bound)
            assert time.perf_counter() - start < 1.0
            rep = parse_report(out)
            assert code == 0 and rep.rows == parse_report(default).rows
            assert "count=135" in rep.comments and "bound_stable=true" in rep.comments
            assert f"max_weight={bound}" in rep.comments
        code, out, err = run(capsys, "wmr", "enum", "--n", "8")
        assert code == 4 and out == "" and "no bound is known" in err

    def test_the_largest_answered_bound(self, capsys):
        code, out, _ = run(capsys, "wmr", "enum", "--n", "7", "--max-weight", "17")
        rep = parse_report(out)
        assert code == 0
        assert "count=135" in rep.comments and "bound_stable=true" in rep.comments

    @pytest.mark.parametrize("n", ["8"])
    def test_voter_counts_outside_one_to_seven_exit_four(self, capsys, n):
        code, out, err = run(capsys, "wmr", "enum", "--n", n, "--max-weight", "3")
        assert code == 4 and out == "" and "no bound is known" in err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_voter_counts_below_one_exit_three(self, capsys, n):
        # bad input, not a scan over capacity
        for bound in ([], ["--max-weight", "3"]):
            code, out, err = run(capsys, "wmr", "enum", "--n", n, *bound)
            assert code == 3 and out == ""
            assert err == "error: at least one voter is required\n"

    def test_a_bound_that_is_not_stable_is_reported(self, capsys):
        code, out, _ = run(capsys, "wmr", "enum", "--n", "7", "--max-weight", "5")
        rep = parse_report(out)
        assert code == 0
        assert "bound_stable=false" in rep.comments
        want = unique_wmr_brute(7, 5)
        assert f"count={len(want)}" in rep.comments
        assert [r[0] for r in rep.rows] == [" ".join(map(str, w)) for w in want]


class TestJuryCommand:
    def test_exact_competence_and_decisiveness(self, capsys):
        code, out, _ = run(capsys, "jury", "--skills", "0.6,0.6,0.6")
        rep = parse_report(out)
        assert code == 0
        by_metric = {}
        for metric, player, value, _ in rep.rows:
            by_metric.setdefault(metric, []).append((player, value))
        assert float(by_metric["competence"][0][1]) == pytest.approx(0.648)
        assert len(by_metric["decisiveness"]) == 3
        assert len(by_metric["optimal_weight"]) == 3

    def test_team_file_adds_indirect_competence(self, capsys, tmp_path):
        teams = tmp_path / "teams.txt"
        teams.write_text("team = 0 1 2\nteam = 3 4 5\nteam = 6 7 8\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "jury", "--skills", "0.6 0.6 0.6 0.6 0.6 0.6 0.6 0.6 0.6",
            "--teams", str(teams),
        )
        rep = parse_report(out)
        assert code == 0
        row = next(r for r in rep.rows if r[0] == "indirect_competence")
        assert float(row[2]) == pytest.approx(0.715516416)

    @pytest.mark.parametrize("method", ["exact", "monte-carlo"])
    def test_one_team_of_25_is_answered_as_the_25_judge_jury(self, capsys, tmp_path, method):
        teams = tmp_path / "teams.txt"
        teams.write_text("team = " + " ".join(map(str, range(25))) + "\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "jury", "--skills", ",".join(["0.6"] * 25), "--method", method,
            "--trials", "1000", "--teams", str(teams),
        )
        assert code == 0
        row = next(r for r in parse_report(out).rows if r[0] == "indirect_competence")
        assert row[2] == repr(jury_exact((1,) * 25, 0.0, (0.6,) * 25).competence)

    def test_lists_split_at_commas_spaces_and_tabs_only(self, capsys):
        # as in a game file, a no-break or em space is part of its token
        code, out, _ = run(capsys, "jury", "--skills", "0.6 0.7,0.8\t0.9")
        assert code == 0
        assert len([r for r in parse_report(out).rows if r[0] == "decisiveness"]) == 4
        for space in ("\u00a0", "\u2003"):
            code, out, err = run(capsys, "jury", "--skills", space.join(["0.6", "0.7", "0.8"]))
            assert (code, out) == (2, "")
            assert "error: argument --skills: " in err

    def test_monte_carlo_row(self, capsys):
        code, out, _ = run(
            capsys, "jury", "--skills", "0.6,0.6,0.6", "--method", "monte-carlo",
            "--trials", "2000",
        )
        rep = parse_report(out)
        assert code == 0
        row = next(r for r in rep.rows if r[0] == "competence")
        assert row[3] != ""

    def test_rescaled_weights_are_answered_like_the_originals(self, capsys):
        rows = []
        for scale in (1, 10**6):
            weights = ",".join(str(scale * w) for w in range(1, 31))
            code, out, _ = run(capsys, "jury", "--skills", ",".join(["0.6"] * 30),
                               "--weights", weights)
            assert code == 0
            rows.append(parse_report(out).rows)
        assert rows[0] == rows[1] and rows[0][0][2] == "0.833297877800418"

    @pytest.mark.parametrize("extra", [
        ("--weights", "nan,1,1"),
        ("--weights", "1,inf,1"),
        ("--bias", "nan"),
        ("--bias", "inf", "--method", "monte-carlo", "--trials", "100"),
    ])
    def test_non_finite_weights_and_bias_exit_three(self, capsys, extra):
        code, out, err = run(capsys, "jury", "--skills", "0.6,0.6,0.6", *extra)
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "finite" in err

class TestEfficiencyCommand:
    def test_exact_fraction_appears_verbatim(self, capsys):
        code, out, _ = run(
            capsys, "efficiency", "--candidates", "3", "--voters", "3",
            "--scoring", "plurality",
        )
        rep = parse_report(out)
        assert code == 0
        row = rep.rows[0]
        assert row[1] == "14/17"
        assert row[2] == "204"
        assert row[7] == "exact"

    def test_custom_vector_equals_borda(self, capsys):
        _, out_borda, _ = run(
            capsys, "efficiency", "--candidates", "3", "--voters", "3",
            "--scoring", "borda",
        )
        _, out_custom, _ = run(
            capsys, "efficiency", "--candidates", "3", "--voters", "3",
            "--scoring", "4,2,0",
        )
        assert parse_report(out_borda).rows[0][1] == "31/34"
        assert parse_report(out_custom).rows[0][1] == "31/34"

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_a_non_finite_score_exits_three(self, capsys, bad):
        code, out, err = run(capsys, "efficiency", "-m", "3", "--voters", "3", "--scoring", f"{bad},1,0")
        assert (code, out, err) == (3, "", f"error: not a finite number: {bad}\n")

    @pytest.mark.parametrize("bad", ["2,x,0", "3/2,1,0", "", ","])
    def test_a_score_list_that_is_not_numbers_is_a_usage_error(self, capsys, bad):
        code, out, err = run(capsys, "efficiency", "-m", "3", "--voters", "3", "--scoring", bad)
        assert (code, out) == (2, "")
        assert "error: argument --scoring:" in err

    def test_monte_carlo_past_ten_candidates_exits_four_before_any_table(self, capsys, monkeypatch):
        from votefuse import scoring

        monkeypatch.setattr(scoring, "_ranking_tables", lambda *a: pytest.fail("tables built"))
        code, out, err = run(capsys, "efficiency", "-m", "12", "--voters", "5", "--scoring",
                             "borda", "--method", "monte-carlo")
        assert (code, out) == (4, "")
        assert err.startswith("error: exact ranking table of method='monte-carlo' Condorcet")
        assert "m!*m^2 for 479,001,600 rankings" in err

    def test_a_score_list_is_echoed_as_given(self, capsys):
        code, out, _ = run(capsys, "efficiency", "-m", "3", "--voters", "3", "--scoring", "4, 2,0")
        assert code == 0 and "# scoring=4, 2,0\n" in out


class TestFuseCommand:
    def test_wmr_reports_stalemates_as_nd(self, capsys, predictions_file):
        code, out, _ = run(
            capsys, "fuse", "--predictions", predictions_file, "--rule", "wmr",
        )
        rep = parse_report(out)
        assert code == 0
        decisions = dict(rep.rows)
        # equally accurate classifiers cancel when they disagree
        assert decisions == {"s1": "y", "s2": "n", "s3": "ND", "s4": "ND"}
        assert "fused_accuracy=0.5" in rep.comments
        assert "undecided=2" in rep.comments

    def test_majority_rule_and_cost_comment(self, capsys, predictions_file, cost_file):
        code, out, _ = run(
            capsys, "fuse", "--predictions", predictions_file, "--rule", "sum",
            "--cost", cost_file,
        )
        rep = parse_report(out)
        assert code == 0
        assert any(c.startswith("expected_risk=") for c in rep.comments)

    def test_output_file_and_reruns_are_byte_identical(
        self, capsys, tmp_path, predictions_file
    ):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code = main([
                "fuse", "--predictions", predictions_file, "--rule", "wmr",
                "-o", str(target),
            ])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_adaptive_wmr_honours_the_bias(self, capsys, tmp_path):
        # with k=2 each query sees both samples, one right and one wrong, so the
        # local skill is 1/2, the weight 0 and the signed sum exactly 0
        p = tmp_path / "preds.csv"
        p.write_text(
            "sample_id,true_label,feat_0,c1\nv1,A,-1.0,A\nv2,B,1.0,A\n", encoding="utf-8"
        )
        decisions = {}
        for bias in ("0", "0.4", "-0.4"):
            code, out, _ = run(
                capsys, "fuse", "--predictions", str(p), "--rule", "adaptive-wmr",
                "--k", "2", "--bias", bias,
            )
            assert code == 0
            decisions[bias] = [r[1] for r in parse_report(out).rows]
        assert decisions == {"0": ["ND", "ND"], "0.4": ["B", "B"], "-0.4": ["A", "A"]}


    def test_bias_a_rule_ignores_warns_and_a_non_finite_one_exits_three(
        self, capsys, tmp_path
    ):
        p = tmp_path / "three.csv"
        p.write_text(
            "sample_id,true_label,c1,c2\ns1,a,a,a\ns2,b,b,c\ns3,c,c,c\n", encoding="utf-8"
        )
        for rule in ("wmr", "product"):
            code, out, err = run(
                capsys, "fuse", "--predictions", str(p), "--rule", rule, "--bias", "nan"
            )
            assert code == 3 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            _, plain, _ = run(capsys, "fuse", "--predictions", str(p), "--rule", rule)
            code, out, err = run(
                capsys, "fuse", "--predictions", str(p), "--rule", rule, "--bias", "5"
            )
            assert code == 0 and out == plain
            where = " on 3 labels" if rule == "wmr" else ""
            assert err == f"warning: rule {rule!r} ignores the bias{where}\n"

    def test_a_validation_file_with_its_classifiers_reordered_exits_three(
        self, capsys, tmp_path, predictions_file
    ):
        val = tmp_path / "val.csv"
        val.write_text("sample_id,true_label,c2,c1\nv1,y,y,n\nv2,n,n,n\n", encoding="utf-8")
        for command, rule in (("fuse", ("--rule", "wmr")), ("report", ())):
            code, out, err = run(
                capsys, command, "--predictions", predictions_file, "--validation", str(val),
                *rule,
            )
            assert code == 3 and out == ""
            assert err == (
                "error: validation classifiers ['c2', 'c1'] do not match prediction "
                "classifiers ['c1', 'c2']\n"
            )

    @pytest.mark.parametrize("extra", [
        ("--rule", "sum", "--weights", "nan,1"),
        ("--rule", "majority", "--weights", "inf,1"),
        ("--rule", "wmr", "--bias", "nan"),
        ("--rule", "sum", "--weights", "1e308,1e308"),  # a sum past the float range
        ("--rule", "majority", "--weights", "1e308,1e308"),
    ])
    def test_non_finite_weights_and_bias_exit_three(self, capsys, predictions_file, extra):
        code, out, err = run(capsys, "fuse", "--predictions", predictions_file, *extra)
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "finite" in err

    @pytest.mark.parametrize("rule", ["wmr", "product"])
    def test_a_rule_that_ignores_the_weights_says_so_in_one_line(
        self, capsys, predictions_file, rule
    ):
        _, plain, _ = run(capsys, "fuse", "--predictions", predictions_file, "--rule", rule)
        code, out, err = run(
            capsys, "fuse", "--predictions", predictions_file, "--rule", rule, "--weights", "1,2"
        )
        assert (code, out, err) == (0, plain, f"warning: rule {rule!r} ignores classifier weights\n")

    @pytest.mark.parametrize("rule", ["sum", "product", "wmr", "adaptive-wmr"])
    @pytest.mark.parametrize("weights", ["-1,2", "1,2,3", "nan,1"])
    def test_invalid_weights_exit_three_for_every_rule(self, capsys, tmp_path, rule, weights):
        p = tmp_path / "preds.csv"
        p.write_text("sample_id,true_label,feat_0,c1,c2\ns1,y,0.5,y,n\ns2,n,1.5,n,n\n",
                     encoding="utf-8")
        code, out, err = run(
            capsys, "fuse", "--predictions", str(p), "--rule", rule, f"--weights={weights}"
        )
        assert (code, out) == (3, "")
        assert err.startswith("error:") and err.count("\n") == 1 and "weight" in err

    def test_risk_with_every_labelled_sample_undecided_exits_three(self, capsys, tmp_path, cost_file):
        # one classifier right half the time weighs 0, so every wmr decision is ND
        p = tmp_path / "preds.csv"
        p.write_text("sample_id,true_label,c1\ns1,y,y\ns2,n,y\n", encoding="utf-8")
        code, out, _ = run(capsys, "fuse", "--predictions", str(p), "--rule", "wmr")
        assert code == 0 and "# undecided=2" in out
        code, out, err = run(
            capsys, "fuse", "--predictions", str(p), "--rule", "wmr", "--cost", cost_file
        )
        assert (code, out, err) == (3, "", "error: cannot score risk: no labelled, decided samples\n")


class TestReportCommand:
    def test_sections_and_adaptive_inclusion(self, capsys, tmp_path):
        p = tmp_path / "preds.csv"
        p.write_text(
            "sample_id,true_label,feat_0,c1,c2\n"
            "v1,A,-2.0,A,B\n"
            "v2,A,-1.0,A,B\n"
            "v3,A,1.0,B,A\n"
            "v4,A,2.0,B,A\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "report", "--predictions", str(p), "--k", "2")
        rep = parse_report(out)
        assert code == 0
        sections = {r[0] for r in rep.rows}
        assert {"classifier_accuracy", "optimal_weight", "fused_accuracy"} <= sections
        fused_rules = {r[1] for r in rep.rows if r[0] == "fused_accuracy"}
        assert "adaptive-wmr" in fused_rules and "wmr" in fused_rules

    def test_no_features_means_no_adaptive_row(self, capsys, predictions_file):
        code, out, _ = run(capsys, "report", "--predictions", predictions_file)
        rep = parse_report(out)
        assert code == 0
        fused_rules = {r[1] for r in rep.rows if r[0] == "fused_accuracy"}
        assert "adaptive-wmr" not in fused_rules

    def test_cost_adds_risk_sections(self, capsys, predictions_file, cost_file):
        code, out, _ = run(
            capsys, "report", "--predictions", predictions_file, "--cost", cost_file,
        )
        rep = parse_report(out)
        assert code == 0
        sections = {r[0] for r in rep.rows}
        assert {"classifier_risk", "fused_risk"} <= sections

    def test_a_file_with_no_true_labels_exits_three(self, capsys, tmp_path):
        p = tmp_path / "preds.csv"
        p.write_text("sample_id,c1,c2\ns1,y,n\ns2,n,n\n", encoding="utf-8")
        code, out, err = run(capsys, "report", "--predictions", str(p))
        assert (code, out) == (3, "")
        assert err == "error: the report needs true labels on the prediction set\n"


class TestParser:
    def test_one_parser_serves_every_call(self, capsys, game_file):
        import votefuse.cli as cli

        cli.build_parser.cache_clear()
        argv = ("power", "--game", game_file, "--kind", "banzhaf")
        first = run(capsys, *argv)
        again = run(capsys, "power", "--game", game_file, "--kind", "shapley")
        reused = run(capsys, *argv)
        assert cli.build_parser.cache_info().misses == 1
        assert cli.build_parser.cache_info().hits == 2
        cli.build_parser.cache_clear()
        fresh = run(capsys, *argv)
        assert first == reused == fresh and first[0] == 0
        assert again[1] != first[1]


class TestDeterminism:
    def test_monte_carlo_reruns_match_bytes(self, capsys, tmp_path, game_file):
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        argv = ["power", "--game", game_file, "--method", "monte-carlo",
                "--trials", "5000"]
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["-o", str(b)]) == 0
        assert main(argv + ["--seed", "1", "-o", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_non_reproducible_mode_adds_provenance_comments(self, capsys, game_file):
        _, out_repro, _ = run(capsys, "power", "--game", game_file)
        _, out_loose, _ = run(capsys, "power", "--game", game_file, "--no-reproducible")
        assert not any(
            c.startswith(("version=", "generated="))
            for c in parse_report(out_repro).comments
        )
        loose = parse_report(out_loose).comments
        assert any(c.startswith("version=") for c in loose)
        assert any(c.startswith("generated=") for c in loose)

    def test_report_text_parses_back(self, capsys, game_file):
        _, out, _ = run(capsys, "power", "--game", game_file)
        rep = parse_report(out)
        assert rep.to_text() == out


class TestExitCodes:
    def test_usage_errors_exit_two(self, capsys, game_file):
        assert run(capsys, "power", "--game", game_file, "--kind", "banzhaff")[0] == 2
        assert run(capsys, "power")[0] == 2
        assert run(capsys)[0] == 2

    @pytest.mark.parametrize(
        "argv, option, token",
        [
            (["jury", "--skills", "0.6,0.7", "--bias", "1_000"], "--bias", "1_000"),
            (["jury", "--skills", "0.6,0.7", "--clip", "\u0661e-6"], "--clip", "\u0661e-6"),
            (["jury", "--skills", "0.6,0_7"], "--skills", "0_7"),
            (["jury", "--skills", "0.6,0.7", "--weights", "1 \u0662"], "--weights", "\u0662"),
            (["fuse", "--rule", "sum", "--trim", "0.1_0"], "--trim", "0.1_0"),
            (["fuse", "--rule", "sum", "--bias", "\u0660"], "--bias", "\u0660"),
            (["fuse", "--rule", "sum", "--weights", "1_0,1"], "--weights", "1_0"),
            (["efficiency", "-m", "3", "--voters", "3", "--scoring", "2,1_0,0"], "--scoring", "1_0"),
        ],
    )
    def test_numbers_in_options_are_ascii_without_digit_groups(
        self, capsys, predictions_file, argv, option, token
    ):
        if argv[0] == "fuse":
            argv = argv + ["--predictions", predictions_file]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"error: argument {option}: " in err and f"{token!r}\n" in err

    @pytest.mark.parametrize("option, value", [("--bias", "x"), ("--clip", "")])
    def test_an_option_that_is_no_float_keeps_its_message(self, capsys, option, value):
        code, out, err = run(capsys, "jury", "--skills", "0.6,0.7,0.8", option, value)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {option}: invalid float value: {value!r}\n")

    def test_a_predictions_cell_with_a_digit_group_exits_three_at_its_cell(self, capsys, tmp_path):
        preds = tmp_path / "preds.csv"
        preds.write_text("sample_id,c:a,c:b\ns1,0.5,0.5\ns2,1_0,0\n", encoding="utf-8")
        code, out, err = run(capsys, "fuse", "--rule", "sum", "--predictions", str(preds))
        assert (code, out, err) == (3, "", f"error: {preds}:3:2: not a number: '1_0'\n")

    def test_missing_file_exits_three(self, capsys, tmp_path):
        code, _, err = run(capsys, "power", "--game", str(tmp_path / "nope.txt"))
        assert code == 3 and "error:" in err

    def test_parse_errors_exit_three_with_location(self, capsys, tmp_path):
        bad = tmp_path / "game.txt"
        bad.write_text("weights = 2 x 1\n", encoding="utf-8")
        code, _, err = run(capsys, "power", "--game", str(bad))
        assert code == 3
        assert f"{bad}:1:13" in err

    @pytest.mark.parametrize("token", ["1/0", "1e"])
    def test_a_game_token_that_reads_as_no_fraction_exits_three_at_its_column(
        self, capsys, tmp_path, token
    ):
        game = tmp_path / "game.txt"
        game.write_text(f"weights = 2 {token} 1\n", encoding="utf-8")
        code, out, err = run(capsys, "power", "--game", str(game))
        assert (code, out) == (3, "")
        assert err == f"error: {game}:1:13: not a number: {token!r}\n"

    def test_a_team_bias_past_the_float_range_exits_three_at_its_token(self, capsys, tmp_path):
        teams = tmp_path / "teams.txt"
        teams.write_text("team = 0 1\nteam = 2\ntop_bias = 1e400\n", encoding="utf-8")
        code, out, err = run(capsys, "jury", "--skills", "0.6,0.7,0.8", "--teams", str(teams))
        assert (code, out) == (3, "")
        assert err == f"error: {teams}:3:12: top_bias is past the float range: '1e400'\n"

    @pytest.mark.parametrize("bias, answered", [("-1e-400", False), ("-1e-300", True)])
    def test_a_team_bias_too_close_to_zero_for_a_float_exits_three_at_its_token(
        self, capsys, tmp_path, bias, answered
    ):
        # -1e-400 would be read as 0.0, a tie broken the other way than -1e-300
        teams = tmp_path / "teams.txt"
        teams.write_text(f"team = 0 1\nteam = 1\ntop_bias = {bias}\n", encoding="utf-8")
        code, out, err = run(capsys, "jury", "--skills", "0.6,0.7", "--teams", str(teams))
        if answered:
            assert (code, err) == (0, "") and "indirect_competence" in out
        else:
            assert (code, out) == (3, "")
            assert err == f"error: {teams}:3:12: top_bias is too close to 0 for a float: '{bias}'\n"

    @pytest.mark.parametrize(
        "flag, text, where",
        [
            ("--cost", ",n,y\nn,1.0,0.0\ny,nan,1.0\n", ":3:2: not a finite number: 'nan'"),
            ("--predictions", "sample_id,feat_0,c1\ns1,nan,y\ns2,0,n\n", ":2:2: "),
            ("--predictions", "sample_id,c:n,c:y\ns1,0.5,0.5\ns2,0.5,inf\n", ":3:3: "),
        ],
    )
    def test_non_finite_cells_exit_three_at_their_cell(
        self, capsys, tmp_path, predictions_file, flag, text, where
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        files = {"--predictions": predictions_file, flag: str(bad)}
        code, out, err = run(capsys, "report", *(x for kv in files.items() for x in kv))
        assert code == 3 and out == ""
        assert f"{bad}{where}" in err and "not a finite number" in err

    def test_capacity_exits_four(self, capsys, tmp_path):
        big = tmp_path / "big.txt"
        weights = " ".join(str(10**9 + i) for i in range(30))
        big.write_text(f"weights = {weights}\n", encoding="utf-8")
        code, _, err = run(capsys, "power", "--game", str(big), "--method", "exact")
        assert code == 4
        assert "power_monte_carlo" in err

    def test_float_juries_are_exact_up_to_24_judges(self, capsys):
        def jury(n):
            weights = ",".join(str(0.5 + i) for i in range(n))
            skills = ",".join(["0.6"] * n)
            return run(capsys, "jury", "--method", "exact", "--skills", skills, "--weights", weights)

        assert jury(24)[0] == 0
        code, out, err = jury(25)
        assert code == 4 and out == ""
        assert "838,860,800 work units" in err and "competence_monte_carlo" in err

    def test_a_rescaled_game_is_answered_like_the_original(self, capsys, tmp_path):
        rows = []
        for scale in (1, 10**6):
            game = tmp_path / f"game{scale}.txt"
            weights = " ".join(str(scale * w) for w in range(1, 27))
            game.write_text(f"weights = {weights}\n", encoding="utf-8")
            code, out, _ = run(capsys, "power", "--game", str(game), "--kind", "both")
            assert code == 0
            rows.append(parse_report(out).rows)
        assert rows[0] == rows[1] and len(rows[0]) == 52

    def test_weights_too_fine_to_scale_exit_three(self, capsys, tmp_path):
        fine = tmp_path / "fine.txt"
        fine.write_text("weights = 1/1000000007 1/1000000009 1/998244353 5\n", encoding="utf-8")
        code, out, err = run(capsys, "power", "--game", str(fine))
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "reduce denominators" in err

    @pytest.mark.parametrize(
        "weights, fault",
        [
            ("1e400 1", "the weight of player 0 is past the 64-bit range"),
            ("1 4611686018427387904", "the weight of player 1 is past the 64-bit range"),
            ("4611686018427387903 1", "the total weight and the quota add up past the 64-bit range"),
        ],
    )
    def test_weights_past_the_range_unscaled_are_named(self, capsys, tmp_path, weights, fault):
        game = tmp_path / "game.txt"
        game.write_text(f"weights = {weights}\n", encoding="utf-8")
        code, out, err = run(capsys, "power", "--game", str(game))
        assert (code, out, err) == (3, "", f"error: {fault}\n")

    def test_scores_too_fine_for_64_bit_totals_exit_three(self, capsys):
        code, out, err = run(
            capsys, "efficiency", "--candidates", "3", "--voters", "3",
            "--scoring", "1,1e-300,0",
        )
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "fewer significant digits" in err

    def test_a_game_path_with_a_line_break_exits_three(self, capsys, tmp_path):
        # the path goes into a report comment, which must stay one line
        game = tmp_path / "g\nx.txt"
        game.write_text("weights = 2 1 1\n", encoding="utf-8")
        code, out, err = run(capsys, "power", "--game", str(game))
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "line break" in err and repr("game=g\nx.txt") in err

    def test_bad_data_in_predictions_exits_three(self, capsys, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("sample_id,c1\ns1,a\ns2\n", encoding="utf-8")
        code, _, err = run(capsys, "fuse", "--predictions", str(p), "--rule", "sum")
        assert code == 3 and ":3:" in err
