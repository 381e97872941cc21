import ast
import math
import pathlib
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votefuse import _exact, scoring
from votefuse._exact import exact_in_float32
from votefuse.errors import (
    BallotError,
    CapacityError,
    DataError,
    DimensionError,
)
from votefuse.scoring import (
    RankedBallot,
    ScoringVector,
    _ranking_tables,
    _score_profiles,
    condorcet_efficiency,
    condorcet_winner,
    pairwise_matrix,
    score_profile,
)

from oracles import ballots_brute, decide_reduction, efficiency_brute, score_profiles_gather


def ballots(*rankings):
    return [RankedBallot(tuple(r)) for r in rankings]


class TestRankedBallot:
    def test_rejects_repeats_and_empty(self):
        with pytest.raises(BallotError):
            RankedBallot(("a", "a"))
        with pytest.raises(BallotError):
            RankedBallot(())


class TestScoringVector:
    def test_borda_and_plurality_shapes(self):
        assert ScoringVector.borda(4).s == (
            Fraction(3), Fraction(2), Fraction(1), Fraction(0),
        )
        assert ScoringVector.plurality(3).s == (
            Fraction(1), Fraction(0), Fraction(0),
        )

    def test_fractional_entries_get_an_integer_form(self):
        sv = ScoringVector(("1", "2/3", "0"))
        assert sv.integer_form() == (3, 2, 0)

    def test_must_be_non_increasing_and_non_constant(self):
        with pytest.raises(ValueError):
            ScoringVector((0, 1))
        with pytest.raises(ValueError):
            ScoringVector((1, 1))
        with pytest.raises(DimensionError):
            ScoringVector((1,))


class TestScoreProfile:
    def test_borda_totals_by_hand(self):
        bs = ballots("abc", "bca", "cab", "abc")
        res = score_profile(bs, ScoringVector.borda(3))
        # a: 2+0+1+2, b: 1+2+0+1, c: 0+1+2+0
        assert res.totals == {"a": 5.0, "b": 4.0, "c": 3.0}
        assert res.ranking == ("a", "b", "c")
        assert res.winner == "a" and not res.tied_top

    def test_plurality_counts_first_places(self):
        bs = ballots("abc", "bac", "bca")
        res = score_profile(bs, ScoringVector.plurality(3))
        assert res.totals == {"a": 1.0, "b": 2.0, "c": 0.0}
        assert res.winner == "b"

    def test_ties_break_lexicographically_and_are_flagged(self):
        bs = ballots("ab", "ba")
        res = score_profile(bs, ScoringVector.borda(2))
        assert res.ranking == ("a", "b") and res.tied_top

    def test_voter_weights_scale_ballots(self):
        bs = ballots("ab", "ba")
        res = score_profile(bs, ScoringVector.borda(2), voter_weights=(1, 3))
        assert res.winner == "b"
        with pytest.raises(ValueError):
            score_profile(bs, ScoringVector.borda(2), voter_weights=(1, -1))

    def test_label_set_and_vector_length_are_checked(self):
        with pytest.raises(BallotError):
            score_profile(ballots("ab", "cd"), ScoringVector.borda(2))
        with pytest.raises(DimensionError):
            score_profile(ballots("abc"), ScoringVector.borda(2))
        with pytest.raises(BallotError):
            score_profile([], ScoringVector.borda(2))


class TestPairwise:
    def test_matrix_counts_preferences(self):
        bs = ballots("abc", "bca", "cab")
        pw = pairwise_matrix(bs)
        i = {lab: k for k, lab in enumerate(pw.labels)}
        assert pw.matrix[i["a"], i["b"]] == 2.0
        assert pw.matrix[i["b"], i["a"]] == 1.0
        # every head-to-head splits the full voter weight
        off = pw.matrix + pw.matrix.T
        assert np.allclose(off[~np.eye(3, dtype=bool)], 3.0)

    def test_condorcet_winner_found(self):
        bs = ballots("abc", "acb", "bca")
        assert condorcet_winner(bs) == "a"

    def test_cycle_has_no_winner(self):
        bs = ballots("abc", "bca", "cab")
        assert condorcet_winner(bs) is None

    def test_exact_pairwise_tie_has_no_winner(self):
        bs = ballots("ab", "ba")
        assert condorcet_winner(bs) is None

    def test_unanimous_favorite_wins(self):
        bs = ballots("cab", "cba", "cab")
        assert condorcet_winner(bs) == "c"

    def test_voter_weights_can_flip_the_winner(self):
        bs = ballots("abc", "bca")
        assert condorcet_winner(bs, voter_weights=(1, 2)) == "b"


@st.composite
def weighted_profiles(draw, weights=st.fractions(0, 5, max_denominator=12)):
    """(rankings, scoring entries, voter weights) over 2 to 4 labels and 1 to 7 ballots."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 7))
    rankings = [draw(st.permutations("abcd"[:m])) for _ in range(n)]
    points = sorted(draw(st.lists(st.fractions(0, 3, max_denominator=4), min_size=m,
                                  max_size=m)), reverse=True)
    if points[0] == points[-1]:
        points[0] += 1
    return rankings, points, draw(st.lists(weights, min_size=n, max_size=n))


def decisions(rankings, points, weights):
    """Winner, ranking, shared top and Condorcet winner of weighted ballots."""
    res = score_profile(ballots(*rankings), ScoringVector(points), weights)
    return res.winner, res.ranking, res.tied_top, condorcet_winner(ballots(*rankings), weights)


class TestExactBallots:
    """Ballot totals and tallies are exact, whatever form the weights take."""

    TIE = ("ab", "ab", "ba")  # plurality: a scores w1 + w2, b scores w3

    @pytest.mark.parametrize(
        "weights",
        [(1, 2, 3), (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10)), ("0.1", "0.2", "0.3")],
    )
    def test_rational_ties_are_ties(self, weights):
        res = score_profile(ballots(*self.TIE), ScoringVector.plurality(2), weights)
        assert res.tied_top and res.ranking == ("a", "b")
        assert condorcet_winner(ballots(*self.TIE), weights) is None
        pw = pairwise_matrix(ballots(*self.TIE), weights)
        assert pw.matrix[0, 1] == pw.matrix[1, 0]

    def test_float_weights_count_as_their_binary_values(self):
        # 0.1 + 0.2 exceeds 0.3 as binary values: no tie
        assert decisions(self.TIE, (1, 0), (0.1, 0.2, 0.3)) == ("a", ("a", "b"), False, "a")
        assert decisions(self.TIE, (1, 0), (0.1, 1e-10, 0.0)) == ("a", ("a", "b"), False, "a")
        res = score_profile(ballots(*self.TIE), ScoringVector.plurality(2), (0.1, 0.2, 0.3))
        assert res.totals == {"a": float(Fraction(0.1) + Fraction(0.2)), "b": 0.3}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_are_refused(self, bad):
        cycle = ballots("abc", "bca", "cab")
        with pytest.raises(ValueError, match="finite"):
            score_profile(cycle, ScoringVector.borda(3), (bad, 1, 1))
        with pytest.raises(ValueError, match="finite"):
            condorcet_winner(cycle, (bad, 1, 1))
        with pytest.raises(ValueError, match="finite"):
            pairwise_matrix(cycle, (1, 1, bad))

    def test_weight_count_is_checked(self):
        with pytest.raises(DimensionError):
            condorcet_winner(ballots("ab", "ba"), (1, 2, 3))
        with pytest.raises(DimensionError):
            score_profile(ballots("ab", "ba"), ScoringVector.borda(2), ())

    def test_numpy_weights_are_read_exactly(self):
        w = np.array([0.5, 0.25, 0.75], dtype=np.float32)
        assert decisions(self.TIE, (1, 0), w) == decisions(self.TIE, (1, 0), ("1/2", "1/4", "3/4"))

    @settings(deadline=None, max_examples=150)
    @given(weighted_profiles())
    def test_matches_the_fraction_oracle(self, case):
        rankings, points, weights = case
        totals, pairs, ranking, tied_top, champion = ballots_brute(rankings, points, weights)
        res = score_profile(ballots(*rankings), ScoringVector(points), weights)
        assert res.totals == {a: float(t) for a, t in totals.items()}
        assert (res.ranking, res.tied_top) == (ranking, tied_top)
        pw = pairwise_matrix(ballots(*rankings), weights)
        want = [[float(pairs[a, b]) for b in pw.labels] for a in pw.labels]
        assert pw.matrix.dtype == np.float64 and pw.matrix.tolist() == want
        assert condorcet_winner(ballots(*rankings), weights) == champion

    @settings(deadline=None, max_examples=100)
    @given(weighted_profiles(), st.fractions(Fraction(1, 1000), 1000).filter(lambda c: c > 0))
    def test_scaling_the_weights_changes_no_decision(self, case, c):
        rankings, points, weights = case
        scaled = [c * w for w in weights]
        assert decisions(rankings, points, scaled) == decisions(rankings, points, weights)

    @settings(deadline=None, max_examples=100)
    @given(weighted_profiles(), st.randoms(use_true_random=False))
    def test_permuting_ballots_changes_nothing(self, case, rnd):
        rankings, points, weights = case
        order = list(range(len(rankings)))
        rnd.shuffle(order)
        moved = [rankings[i] for i in order], points, [weights[i] for i in order]
        assert decisions(*moved) == decisions(rankings, points, weights)
        a = score_profile(ballots(*rankings), ScoringVector(points), weights)
        assert score_profile(ballots(*moved[0]), ScoringVector(points), moved[2]) == a
        pw = pairwise_matrix(ballots(*moved[0]), moved[2]).matrix
        assert np.array_equal(pw, pairwise_matrix(ballots(*rankings), weights).matrix)

    @settings(deadline=None, max_examples=100)
    @given(weighted_profiles(weights=st.integers(0, 400)), st.integers(1, 3))
    def test_ints_fractions_and_decimal_strings_agree(self, case, digits):
        rankings, points, ints = case
        fractions = [Fraction(k, 10**digits) for k in ints]
        strings = [f"{k // 10**digits}.{k % 10**digits:0{digits}d}" for k in ints]
        assert [Fraction(x) for x in strings] == fractions
        by_fraction = score_profile(ballots(*rankings), ScoringVector(points), fractions)
        assert score_profile(ballots(*rankings), ScoringVector(points), strings) == by_fraction
        assert decisions(rankings, points, ints) == decisions(rankings, points, fractions)
        assert decisions(rankings, points, strings) == decisions(rankings, points, fractions)


class TestOneDecision:
    """Only ``scoring._decide`` compares pairwise tallies with a total weight."""

    TREE = ast.parse(pathlib.Path(scoring.__file__).read_text())

    def functions(self):
        return {n.name: n for n in ast.walk(self.TREE) if isinstance(n, ast.FunctionDef)}

    def test_no_function_but_decide_compares_tallies_or_totals(self):
        inside = {id(n) for n in ast.walk(self.functions()["_decide"])}
        tallies = {"pairs", "matrix", "totals", "weight"}
        found = []
        for node in ast.walk(self.TREE):
            if isinstance(node, ast.Compare) and id(node) not in inside:
                names = {x.id for x in ast.walk(node) if isinstance(x, ast.Name)}
                names |= {x.attr for x in ast.walk(node) if isinstance(x, ast.Attribute)}
                if names & tallies:
                    found.append(f"scoring.py:{node.lineno}")
        assert found == []

    def test_every_ballot_question_and_the_kernel_call_decide(self):
        callers = {
            name
            for name, fn in self.functions().items()
            for call in ast.walk(fn)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_decide"
        }
        assert callers == {"score_profile", "condorcet_winner", "_score_profiles"}

    def test_no_ballot_question_loops_over_ballots(self):
        fns = self.functions()
        for name in ("score_profile", "pairwise_matrix", "condorcet_winner"):
            assert not any(isinstance(n, (ast.For, ast.While)) for n in ast.walk(fns[name]))


@st.composite
def tallies(draw):
    """Pairwise tallies, totals and a weight, all int, float32 or Fraction.

    As in a profile, the diagonal is zero and pairs[a, b] + pairs[b, a] is at
    most the weight, so at most one candidate beats all others. Small ranges
    make majorities of exactly half and top ties common; the leading shape is
    () or (r,).
    """
    m = draw(st.integers(1, 6))
    lead = draw(st.sampled_from([(), (draw(st.integers(1, 6)),)]))
    kind = draw(st.sampled_from(["int", "float32", "fraction"]))
    weight = draw(st.integers(0, 4))
    size = math.prod(lead)
    pairs = np.array(draw(st.lists(st.integers(0, weight), min_size=size * m * m,
                                   max_size=size * m * m))).reshape(lead + (m, m))
    upper = np.triu(pairs, 1)
    pairs = upper + np.tril(np.minimum(pairs, weight - np.swapaxes(upper, -1, -2)), -1)
    totals = np.array(draw(st.lists(st.integers(-2, 2), min_size=size * m,
                                    max_size=size * m))).reshape(lead + (m,))
    if kind == "float32":
        return pairs.astype(np.float32) / 2, totals.astype(np.float32) / 4, weight / 2
    if kind == "fraction":
        third = np.vectorize(lambda x: Fraction(int(x), 3), otypes=[object])
        return third(pairs), third(totals), Fraction(weight, 3)
    return pairs, totals, weight


class TestColumnDecision:
    @settings(max_examples=300)
    @given(tallies())
    def test_decide_equals_its_reduction_form(self, case):
        pairs, totals, weight = case
        got = scoring._decide(pairs, totals, weight)
        want = decide_reduction(pairs, totals, weight)
        for a, b in zip(got, want):
            assert np.shape(a) == np.shape(b) and np.array_equal(a, b)


class TestEfficiencyExact:
    @settings(max_examples=200)
    @given(st.integers(1, 8), st.integers(1, 5), st.sampled_from([1, 2, 3, 7, 64]),
           st.integers(1, 4))
    def test_sorted_rows_are_the_multisets_in_order(self, k, n, block, width):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_exact, "OUTCOME_BLOCK", block)
            rows = scoring.block_rows(width)
            blocks = list(scoring._sorted_rows(k, n, rows))
        assert all(0 < len(b) <= rows and b.shape[1] == n for b in blocks)
        got = [tuple(row) for b in blocks for row in b.tolist()]
        assert got == list(combinations_with_replacement(range(k), n))

    def test_plurality_three_by_three(self):
        res = condorcet_efficiency(ScoringVector.plurality(3), m=3, n_voters=3)
        assert res.exact == Fraction(14, 17)
        assert res.value == float(Fraction(14, 17))
        assert res.method == "exact"

    def test_borda_three_by_three(self):
        res = condorcet_efficiency(ScoringVector.borda(3), m=3, n_voters=3)
        assert res.exact == Fraction(31, 34)

    def test_profile_count_with_winner(self):
        res = condorcet_efficiency(ScoringVector.borda(3), m=3, n_voters=3)
        assert res.profiles_with_winner == 204  # of 6^3 = 216 profiles

    def test_matches_the_full_profile_walk(self):
        for sv in (ScoringVector.plurality(3), ScoringVector.borda(3), ScoringVector((2, 1, 0))):
            for n in (2, 3, 4):
                res = condorcet_efficiency(sv, m=3, n_voters=n)
                want, with_cw = efficiency_brute([int(x) for x in sv.integer_form()], 3, n)
                assert res.exact == want
                assert res.profiles_with_winner == with_cw

    def test_split_credit_is_kinder_to_plurality(self):
        fail = condorcet_efficiency(ScoringVector.plurality(3), 3, 3)
        split = condorcet_efficiency(
            ScoringVector.plurality(3), 3, 3, tie_policy="split-credit"
        )
        assert split.exact == Fraction(15, 17)
        assert split.exact > fail.exact
        brute, _ = efficiency_brute([1, 0, 0], 3, 3, tie_policy="split-credit")
        assert split.exact == brute

    def test_borda_beats_plurality_here(self):
        p = condorcet_efficiency(ScoringVector.plurality(3), 3, 5)
        b = condorcet_efficiency(ScoringVector.borda(3), 3, 5)
        assert b.exact > p.exact

    def test_two_candidates_are_a_settled_case(self):
        res = condorcet_efficiency(ScoringVector.borda(2), m=2, n_voters=5)
        assert res.exact == Fraction(1)

    def test_affine_rescaling_changes_nothing(self):
        a = condorcet_efficiency(ScoringVector.borda(3), 3, 4)
        b = condorcet_efficiency(ScoringVector((4, 2, 0)), 3, 4)
        c = condorcet_efficiency(ScoringVector((1, "1/2", 0)), 3, 4)
        assert a.exact == b.exact == c.exact

    @settings(deadline=None, max_examples=40)
    @given(
        size=st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                              (3, 4), (4, 1), (4, 2)]),
        entries=st.lists(
            st.one_of(st.integers(0, 9), st.fractions(0, 3, max_denominator=5)),
            min_size=4, max_size=4,
        ),
        tie_policy=st.sampled_from(["fail", "split-credit"]),
    )
    def test_matches_the_full_profile_walk_for_any_vector(self, size, entries, tie_policy):
        m, n = size
        points = sorted(entries[:m], reverse=True)
        if points[0] == points[-1]:
            points[0] += 1
        res = condorcet_efficiency(ScoringVector(points), m, n, tie_policy=tie_policy)
        want, with_cw = efficiency_brute(points, m, n, tie_policy=tie_policy)
        assert res.exact == want
        assert res.profiles_with_winner == with_cw

    @pytest.mark.parametrize("m, n, block", [(3, 5, 7), (4, 3, 97)])
    def test_many_leaf_blocks_give_the_same_fraction(self, monkeypatch, m, n, block):
        sv = ScoringVector((3,) + (1,) * (m - 2) + (0,))
        whole = [condorcet_efficiency(sv, m, n, tie_policy=t) for t in ("fail", "split-credit")]
        monkeypatch.setattr(_exact, "OUTCOME_BLOCK", block)
        assert math.comb(n + math.factorial(m) - 1, n) > 3 * block
        blocks = [condorcet_efficiency(sv, m, n, tie_policy=t) for t in ("fail", "split-credit")]
        assert blocks == whole

    def test_scores_past_64_bits_are_reduced_first(self):
        huge = ScoringVector((2**62, 2**61, 0))  # borda, rescaled
        res = condorcet_efficiency(huge, 3, 3)
        assert res.exact == efficiency_brute([2, 1, 0], 3, 3)[0] == Fraction(31, 34)
        sampled = [
            condorcet_efficiency(sv, 3, 3, method="monte-carlo", trials=5_000, seed=4)
            for sv in (huge, ScoringVector.borda(3))
        ]
        assert sampled[0] == sampled[1]

    def test_totals_that_cannot_fit_64_bits_are_a_data_error(self):
        with pytest.raises(DataError, match="64 bits"):
            condorcet_efficiency(ScoringVector((2**62, 1, 0)), 3, 3)
        with pytest.raises(DataError, match="64 bits"):
            condorcet_efficiency(ScoringVector((1, 1e-300, 0)), 3, 3, method="monte-carlo")

    def test_ranking_tables_are_narrow(self):
        score_rows, pair_rows = _ranking_tables(ScoringVector.borda(4), 5)
        assert score_rows.dtype == np.int8 and pair_rows.dtype == np.int8
        assert score_rows.shape == (24, 4) and pair_rows.shape == (24, 4, 4)
        assert _ranking_tables(ScoringVector((1000, 1, 0)), 5)[0].dtype == np.int16
        # (7, 5, 1) reduces to (3, 2, 0)
        assert _ranking_tables(ScoringVector((7, 5, 1)), 5)[0].max() == 3

    def test_capacity_gate_names_the_monte_carlo_route(self):
        with pytest.raises(CapacityError, match="monte-carlo"):
            condorcet_efficiency(ScoringVector.borda(4), m=4, n_voters=20)

    def test_argument_validation(self):
        with pytest.raises(DimensionError):
            condorcet_efficiency(ScoringVector.borda(3), m=2, n_voters=3)
        with pytest.raises(DimensionError):
            condorcet_efficiency(ScoringVector.borda(3), m=3, n_voters=0)
        with pytest.raises(ValueError):
            condorcet_efficiency(ScoringVector.borda(3), 3, 3, tie_policy="ignore")
        with pytest.raises(ValueError):
            condorcet_efficiency(ScoringVector.borda(3), 3, 3, method="guess")


class TestEfficiencyMonteCarlo:
    def test_same_seed_means_identical_result(self):
        a = condorcet_efficiency(
            ScoringVector.borda(4), 4, 15, method="monte-carlo", trials=50_000, seed=2
        )
        b = condorcet_efficiency(
            ScoringVector.borda(4), 4, 15, method="monte-carlo", trials=50_000, seed=2
        )
        assert a == b

    def test_estimate_brackets_the_exact_value(self):
        exact = condorcet_efficiency(ScoringVector.plurality(3), 3, 5)
        est = condorcet_efficiency(
            ScoringVector.plurality(3), 3, 5, method="monte-carlo",
            trials=200_000, seed=7,
        )
        assert abs(est.value - float(exact.exact)) < 3 * est.stderr + 1e-9
        lo, hi = est.ci95
        assert lo <= est.value <= hi

    def test_winner_counting_is_conditional(self):
        est = condorcet_efficiency(
            ScoringVector.borda(3), 3, 3, method="monte-carlo", trials=10_000, seed=0
        )
        assert 0 < est.profiles_with_winner <= 10_000
        assert est.trials == 10_000 and est.seed == 0


def _vector(kind: str, m: int) -> ScoringVector:
    """Plurality, Borda, or a custom vector whose top score is 2^21 or 2^55 wide."""
    if kind in ("plurality", "borda"):
        return getattr(ScoringVector, kind)(m)
    top = {"wide": 2**21, "wider": 2**55}[kind]
    return ScoringVector((top,) + tuple(range(m - 2, -1, -1)))


def _assert_matches_gather(idx, score_rows, pair_rows, tie_policy):
    got = _score_profiles(idx, score_rows, pair_rows, tie_policy)
    want = score_profiles_gather(idx, score_rows, pair_rows, tie_policy)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


class TestScoreKernel:
    """The scoring kernel, on either route, against the int64 gather it began as.

    Up to m = 5 and 12 voters, both routes run: m! <= 16n takes the ranking
    counts (m = 4 from 2 voters, m = 5 from 8). Borda and plurality totals
    there are float32 products; the 2^21 vector passes 2^24 from 8 voters and
    the 2^55 vector always, and both then gather their totals.
    """

    @settings(deadline=None, max_examples=120)
    @given(
        st.integers(2, 5),
        st.integers(1, 12),
        st.integers(1, 1500),
        st.sampled_from(("fail", "split-credit")),
        st.sampled_from(("plurality", "borda", "wide", "wider")),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_gather_oracle(self, m, n_voters, rows, tie_policy, kind, seed):
        score_rows, pair_rows = _ranking_tables(_vector(kind, m), n_voters)
        idx = np.random.default_rng(seed).integers(
            0, math.factorial(m), size=(rows, n_voters)
        )
        _assert_matches_gather(idx, score_rows, pair_rows, tie_policy)

    @pytest.mark.parametrize(
        "m, n_voters, counts",
        [(6, 44, False), (6, 45, True), (7, 11, False), (9, 1, False)],
    )
    def test_many_rankings_take_the_gather(self, m, n_voters, counts):
        assert scoring._tallies_counts(math.factorial(m), n_voters) is counts
        score_rows, pair_rows = _ranking_tables(ScoringVector.borda(m), n_voters)
        idx = np.random.default_rng(m).integers(0, math.factorial(m), size=(300, n_voters))
        _assert_matches_gather(idx, score_rows, pair_rows, "split-credit")

    def test_the_gather_price_bounds_the_count_route(self):
        # a leaf is priced n*m^2; the count route writes m! counts and at
        # most n*m gathered scores. k + n*m <= n*m^2 is k <= n*m*(m-1), which
        # holds for every n from k / (m*(m-1)) up, so only the voter counts
        # below that threshold need the route's own answer
        for m in range(2, 10):
            k = math.factorial(m)
            for n_voters in range(1, -(-k // (m * (m - 1)))):
                if scoring._tallies_counts(k, n_voters):
                    assert k + n_voters * m <= n_voters * m * m

    @pytest.mark.parametrize("m", [8, 9])
    def test_one_voter_over_many_candidates_is_exact(self, m):
        res = condorcet_efficiency(ScoringVector.borda(m), m, 1)
        assert res.exact == 1 and res.profiles_with_winner == math.factorial(m)

    def test_gather_blocks_are_sized_by_the_gather(self, monkeypatch):
        # the gather holds n*m^2 = 64 pair entries per profile, so 2^17 // 64
        # rows go in one call: 20 calls for 8! leaves, where blocks sized by
        # the m! = 40,320 counts the gather does not hold take 13,440
        calls = []
        kernel = scoring._score_profiles

        def counted(idx, *args):
            calls.append(idx.shape[0])
            return kernel(idx, *args)

        monkeypatch.setattr(scoring, "_score_profiles", counted)
        res = condorcet_efficiency(ScoringVector.borda(8), 8, 1)
        assert res.exact == 1 and sum(calls) == math.factorial(8)
        assert len(calls) <= 40

    def test_monte_carlo_over_seven_candidates(self):
        est = condorcet_efficiency(ScoringVector.borda(7), 7, 11, "monte-carlo", trials=2000)
        assert 0 < est.profiles_with_winner <= 2000 and 0 < est.value <= 1

    def test_exact_in_float32_at_its_edge(self):
        assert exact_in_float32(2**24 - 1) and not exact_in_float32(2**24)
        chosen = np.array(list(product((False, True), repeat=3)))
        # weights of a given total: every subset sum is a partial sum under it,
        # and float32 first rounds at 2^24 + 1
        for total, exact in ((2**24 - 1, True), (2**24 + 1, False)):
            w = np.array([total - 3, 2, 1], dtype=np.int64)
            want = np.where(chosen, w, 0).sum(axis=1)
            got = chosen.astype(np.float32) @ w.astype(np.float32)
            assert ([int(x) for x in got] == want.tolist()) is exact
