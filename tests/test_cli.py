import time

import pytest

from votefuse.cli import main
from votefuse.errors import ConfigurationWarning
from votefuse.io import parse_report

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

    def test_monte_carlo_rows_carry_stderr(self, capsys, game_file):
        code, out, _ = run(
            capsys, "power", "--game", game_file, "--kind", "banzhaf",
            "--method", "monte-carlo", "--trials", "4000", "--seed", "5",
        )
        rep = parse_report(out)
        assert code == 0
        assert "trials=4000" in rep.comments
        assert all(r[4] != "" for r in rep.rows)


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

    @pytest.mark.parametrize("n", ["0", "8"])
    def test_voter_counts_outside_one_to_seven_exit_four(self, capsys, n):
        code, out, err = run(capsys, "wmr", "enum", "--n", n, "--max-weight", "3")
        assert code == 4 and out == "" and "no bound is known" in err

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
            with pytest.warns(ConfigurationWarning, match="ignores the bias"):
                code, out, _ = run(
                    capsys, "fuse", "--predictions", str(p), "--rule", rule, "--bias", "5"
                )
            assert code == 0 and out == plain

    @pytest.mark.parametrize("extra", [
        ("--rule", "sum", "--weights", "nan,1"),
        ("--rule", "majority", "--weights", "inf,1"),
        ("--rule", "wmr", "--bias", "nan"),
    ])
    def test_non_finite_weights_and_bias_exit_three(self, capsys, predictions_file, extra):
        code, out, err = run(capsys, "fuse", "--predictions", predictions_file, *extra)
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "finite" in err

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

    def test_missing_file_exits_three(self, capsys, tmp_path):
        code, _, err = run(capsys, "power", "--game", str(tmp_path / "nope.txt"))
        assert code == 3 and "error:" in err

    def test_parse_errors_exit_three_with_location(self, capsys, tmp_path):
        bad = tmp_path / "game.txt"
        bad.write_text("weights = 2 x 1\n", encoding="utf-8")
        code, _, err = run(capsys, "power", "--game", str(bad))
        assert code == 3
        assert f"{bad}:1:13" in err

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
