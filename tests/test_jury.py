import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votefuse import _exact
from votefuse.errors import CapacityError, DimensionError
from votefuse.jury import (
    CompetenceEstimate,
    TeamStructure,
    competence_monte_carlo,
    decisiveness_probability,
    group_competence,
    indirect_competence,
    jury_exact,
    optimal_weights,
)
from votefuse.power import banzhaf_exact
from votefuse.model import SkillProfile, VotingGame

from oracles import (
    competence_brute,
    decisiveness_brute,
    indirect_brute,
    majority_competence_binomial,
    team_vote_competence,
)


class TestGroupCompetence:
    def test_three_judges_at_point_six(self):
        got = group_competence((1, 1, 1), 0.0, (0.6, 0.6, 0.6))
        assert abs(got - 0.648) < 1e-15

    def test_nine_judges_match_the_binomial_formula(self):
        got = group_competence((1,) * 9, 0.0, (0.6,) * 9)
        assert abs(got - majority_competence_binomial(9, 0.6)) < 1e-12

    def test_coin_skills_give_exactly_one_half(self):
        for n in (1, 3, 5, 7):
            assert group_competence((1,) * n, 0.0, (0.5,) * n) == 0.5

    def test_certain_judges_give_exactly_one(self):
        assert group_competence((1, 1, 1), 0.0, (1.0, 1.0, 1.0)) == 1.0

    def test_single_judge_is_their_own_skill(self):
        assert group_competence((1,), 0.0, (0.73,)) == 0.73

    def test_stalemate_policies_differ_for_even_juries(self):
        lost = group_competence((1, 1), 0.0, (0.6, 0.6))
        split = group_competence((1, 1), 0.0, (0.6, 0.6), nd_policy="coin-flip")
        assert abs(lost - 0.36) < 1e-12
        assert abs(split - 0.6) < 1e-12

    def test_matches_brute_force_on_random_inputs(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 7)
            w = [rng.randint(0, 4) for _ in range(n)]
            b = float(rng.randint(-2, 2))
            p = [round(rng.random(), 3) for _ in range(n)]
            for policy, credit in (("incorrect", 0.0), ("coin-flip", 0.5)):
                got = group_competence(w, b, p, nd_policy=policy)
                want = competence_brute(w, b, p, nd_credit=credit)
                assert abs(got - want) < 1e-12

    def test_larger_odd_majorities_amplify_good_judges(self):
        values = [
            group_competence((1,) * n, 0.0, (0.6,) * n) for n in range(1, 16, 2)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_larger_odd_majorities_sink_bad_judges(self):
        values = [
            group_competence((1,) * n, 0.0, (0.4,) * n) for n in range(1, 16, 2)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_rejects_mismatched_lengths_and_bad_policy(self):
        with pytest.raises(DimensionError):
            group_competence((1, 1), 0.0, (0.6,))
        with pytest.raises(ValueError):
            group_competence((1,), 0.0, (0.6,), nd_policy="retry")
        for weights, bias in (((math.nan, 1), 0.0), ((1, math.inf), 0.0), ((1, 1), math.nan)):
            with pytest.raises(ValueError, match="finite"):
                group_competence(weights, bias, (0.6, 0.6))
            with pytest.raises(ValueError, match="finite"):
                competence_monte_carlo(weights, bias, (0.6, 0.6), trials=10)

    def test_capacity_gate_names_the_monte_carlo_route(self):
        weights = [10**9 + i for i in range(30)]  # integer DP and 2^30 patterns both too big
        with pytest.raises(CapacityError, match="competence_monte_carlo"):
            group_competence(weights, 0.0, (0.6,) * 30)

    def test_rescaled_integer_weights_are_priced_and_counted_like_the_originals(self):
        w = range(1, 31)
        got = [group_competence([c * x for x in w], 0, [0.6] * 30) for c in (1, 10**6)]
        assert got == [0.833297877800418] * 2

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=7),
        st.integers(-16, 16),
        st.integers(2, 10**6),
        st.sampled_from(("incorrect", "coin-flip")),
        st.data(),
    )
    def test_scaling_integer_weights_and_bias_changes_no_report(self, w, b, c, nd_policy, data):
        p = data.draw(st.lists(st.floats(0.05, 0.95), min_size=len(w), max_size=len(w)))
        scaled = [c * x for x in w]
        bias = b / 2  # a stalemate only where the bias over the weights' gcd is an integer
        want = jury_exact(w, bias, p, nd_policy)
        assert jury_exact(scaled, c * bias, p, nd_policy) == want
        nd = _exact.nd_credit(nd_policy)
        for route in ("dp", "halves"):
            got = _exact.jury_values(np.array(scaled, float), np.array(p), c * bias, nd,
                                     range(len(w)), route)
            base = _exact.jury_values(np.array(w, float), np.array(p), bias, nd,
                                      range(len(w)), route)
            assert got == base


class TestDecisiveness:
    def test_weighted_example_at_even_skills(self):
        got = decisiveness_probability((2, 1, 1), 0.0, (0.5, 0.5, 0.5), 0)
        assert got == 0.75

    def test_equals_the_banzhaf_share_at_even_skills(self):
        weights = (3, 2, 1, 1)
        bias = 1.0
        total = sum(weights)
        game = VotingGame(weights, quota=f"{total + int(bias)}/2")
        raw = banzhaf_exact(game).raw
        for i in range(len(weights)):
            got = decisiveness_probability(weights, bias, (0.5,) * 4, i)
            assert abs(got - raw[i] / 2 ** (len(weights) - 1)) < 1e-12

    def test_matches_brute_force(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(1, 6)
            w = [rng.randint(0, 3) for _ in range(n)]
            p = [round(rng.random(), 3) for _ in range(n)]
            i = rng.randrange(n)
            for policy, credit in (("incorrect", 0.0), ("coin-flip", 0.5)):
                got = decisiveness_probability(w, 0.0, p, i, nd_policy=policy)
                want = decisiveness_brute(w, 0.0, p, i, nd_credit=credit)
                assert abs(got - want) < 1e-12

    def test_is_the_derivative_of_group_competence(self):
        w = (2.0, 1.0, 1.5)
        p = [0.7, 0.55, 0.8]
        h = 1e-6
        for i in range(3):
            up = list(p)
            down = list(p)
            up[i] += h
            down[i] -= h
            fd = (group_competence(w, 0.5, up) - group_competence(w, 0.5, down)) / (2 * h)
            got = decisiveness_probability(w, 0.5, p, i)
            assert abs(got - fd) < 1e-6

    def test_dummy_judge_is_never_decisive(self):
        got = decisiveness_probability((2, 1, 0), 1.0, (0.6, 0.7, 0.9), 2)
        assert got == 0.0

    def test_player_index_is_validated(self):
        with pytest.raises(DimensionError):
            decisiveness_probability((1, 1), 0.0, (0.6, 0.6), 2)


class TestMonteCarlo:
    def test_same_seed_means_identical_estimate(self):
        a = competence_monte_carlo((1,) * 5, 0.0, (0.6,) * 5, trials=80_000, seed=3)
        b = competence_monte_carlo((1,) * 5, 0.0, (0.6,) * 5, trials=80_000, seed=3)
        assert a == b

    def test_certain_judges_score_exactly_one(self):
        est = competence_monte_carlo((1, 1, 1), 0.0, (1.0,) * 3, trials=5_000, seed=0)
        assert est.value == 1.0 and est.stderr == 0.0

    def test_estimate_lands_near_the_exact_value(self):
        exact = group_competence((2, 1, 1, 1, 1), 0.0, (0.7, 0.6, 0.6, 0.55, 0.8))
        est = competence_monte_carlo(
            (2, 1, 1, 1, 1), 0.0, (0.7, 0.6, 0.6, 0.55, 0.8), trials=200_000, seed=5
        )
        assert abs(est.value - exact) < 4 * est.stderr + 1e-9

    def test_coin_flip_policy_is_supported(self):
        est = competence_monte_carlo(
            (1, 1), 0.0, (0.6, 0.6), trials=150_000, seed=1, nd_policy="coin-flip"
        )
        assert abs(est.value - 0.6) < 4 * est.stderr + 1e-9

    def test_estimate_carries_its_provenance(self):
        est = competence_monte_carlo((1,), 0.0, (0.6,), trials=1_000, seed=9)
        assert isinstance(est, CompetenceEstimate)
        assert est.trials == 1_000 and est.seed == 9


class TestOptimalWeights:
    def test_log_odds_values(self):
        w = optimal_weights((0.5, 0.75, 1.0))
        assert w[0] == 0.0
        assert abs(w[1] - math.log(3)) < 1e-15
        assert abs(w[2] - math.log((1 - 1e-6) / 1e-6)) < 1e-9

    def test_poor_judges_get_negative_weight(self):
        w = optimal_weights((0.25,))
        assert abs(w[0] + math.log(3)) < 1e-15

    def test_nonnegative_mode_zeroes_poor_judges(self):
        w = optimal_weights((0.25, 0.75), nonnegative=True)
        assert w[0] == 0.0 and w[1] > 0

    def test_log_odds_weighting_beats_equal_weighting(self):
        skills = (0.9, 0.6, 0.6, 0.6, 0.55)
        lw = optimal_weights(skills)
        assert group_competence(lw, 0.0, skills) >= group_competence(
            (1,) * 5, 0.0, skills
        )

    def test_clip_is_validated(self):
        with pytest.raises(ValueError):
            optimal_weights((0.6,), clip=0.0)
        with pytest.raises(ValueError):
            optimal_weights((0.6,), clip=0.5)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, -1e-30, math.nan, math.inf, -math.inf])
    def test_an_array_of_skills_is_refused_as_a_profile_refuses_it(self, bad):
        skills = np.array([0.5, 1.0, bad, 0.0, bad])
        for given in (skills, skills.tolist(), skills.astype(np.float32)):
            with pytest.raises(ValueError) as want:
                SkillProfile(tuple(given))
            with pytest.raises(ValueError) as got:
                optimal_weights(given)
            assert str(got.value) == str(want.value)
        assert str(got.value).startswith("skill of player 2 is ")
        with pytest.raises(ValueError, match=re.escape(f"skill of player 2 is {bad}, outside")):
            optimal_weights(skills)

    def test_an_array_of_skills_weighs_as_a_tuple_does(self):
        skills = np.random.default_rng(4).random(60)
        skills[:4] = 0.0, 1.0, 0.5, -0.0
        for given in (skills, skills.astype(np.float32), np.array([0, 1, 1, 0])):
            want = optimal_weights(tuple(given.tolist()), nonnegative=True)
            np.testing.assert_array_equal(optimal_weights(given, nonnegative=True), want)
            np.testing.assert_array_equal(optimal_weights(given), optimal_weights(tuple(given.tolist())))


class TestTeamStructure:
    def test_defaults_are_materialized(self):
        s = TeamStructure(teams=((0, 1), (2, 3, 4)))
        assert s.member_weights == ((1.0, 1.0), (1.0, 1.0, 1.0))
        assert s.team_biases == (0.0, 0.0)
        assert s.top_weights == (1.0, 1.0)
        assert s.distinct_players == (0, 1, 2, 3, 4)

    def test_shared_players_are_listed_once(self):
        s = TeamStructure(teams=((0, 1, 2), (2, 3, 4)))
        assert s.distinct_players == (0, 1, 2, 3, 4)

    def test_validation(self):
        with pytest.raises(DimensionError):
            TeamStructure(teams=())
        with pytest.raises(DimensionError):
            TeamStructure(teams=((0, 1), ()))
        with pytest.raises(ValueError):
            TeamStructure(teams=((0, 0),))
        with pytest.raises(ValueError):
            TeamStructure(teams=((-1, 0),))
        with pytest.raises(DimensionError):
            TeamStructure(teams=((0, 1),), member_weights=((1.0,),))
        with pytest.raises(DimensionError):
            TeamStructure(teams=((0, 1),), team_biases=(0.0, 0.0))
        for field in (
            {"member_weights": ((1.0, math.nan),)},
            {"team_biases": (math.inf,)},
            {"top_weights": (math.nan,)},
            {"top_bias": -math.inf},
        ):
            with pytest.raises(ValueError, match="finite"):
                TeamStructure(teams=((0, 1),), **field)


class TestIndirectCompetence:
    def test_three_teams_of_three(self):
        s = TeamStructure(teams=((0, 1, 2), (3, 4, 5), (6, 7, 8)))
        got = indirect_competence(s, (0.6,) * 9)
        assert abs(got - 0.715516416) < 1e-12

    def test_singleton_teams_reduce_to_the_direct_vote(self):
        s = TeamStructure(teams=((0,), (1,), (2,)))
        skills = (0.7, 0.6, 0.8)
        direct = group_competence((1, 1, 1), 0.0, skills)
        assert abs(indirect_competence(s, skills) - direct) < 1e-12

    def test_one_team_reduces_to_the_direct_vote(self):
        s = TeamStructure(teams=((0, 1, 2, 3, 4),))
        skills = (0.7, 0.6, 0.8, 0.55, 0.65)
        direct = group_competence((1,) * 5, 0.0, skills)
        assert abs(indirect_competence(s, skills) - direct) < 1e-12

    def test_stalemates_drag_down_even_teams(self):
        small = TeamStructure(teams=tuple((2 * t, 2 * t + 1) for t in range(6)))
        large = TeamStructure(teams=(tuple(range(6)), tuple(range(6, 12))))
        skills = (0.6,) * 12
        got_small = indirect_competence(small, skills)
        got_large = indirect_competence(large, skills)
        assert abs(got_small - 0.12859140096) < 1e-12
        assert abs(got_large - 0.2962842624) < 1e-12
        # losing every stalemate punishes many small teams hardest
        assert got_small < got_large

    def test_coin_flips_make_the_two_tiered_splits_coincide(self):
        small = TeamStructure(teams=tuple((2 * t, 2 * t + 1) for t in range(6)))
        large = TeamStructure(teams=(tuple(range(6)), tuple(range(6, 12))))
        flat = TeamStructure(teams=(tuple(range(12)),))
        skills = (0.6,) * 12
        got_small, got_large, got_flat = (
            indirect_competence(s, skills, nd_policy="coin-flip")
            for s in (small, large, flat)
        )
        assert abs(got_small - 0.68256) < 1e-12
        assert abs(got_large - 0.68256) < 1e-12
        want = team_vote_competence(6, team_vote_competence(2, 0.6, True), True)
        assert abs(got_small - want) < 1e-12
        # tiering discards information: the undivided vote does strictly better
        assert abs(got_flat - team_vote_competence(12, 0.6, True)) < 1e-12
        assert got_flat > got_small

    def test_overlapping_teams_match_brute_force(self):
        teams = ((0, 1, 2), (2, 3, 4), (0, 4, 5))
        skills = (0.7, 0.55, 0.6, 0.65, 0.8, 0.52)
        for policy, credit in (("incorrect", 0.0), ("coin-flip", 0.5)):
            got = indirect_competence(TeamStructure(teams=teams), skills, nd_policy=policy)
            want = indirect_brute(teams, skills, nd_credit=credit)
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("block", [1, 7, 97])
    def test_blocks_give_the_same_floats(self, monkeypatch, block):
        rng = random.Random(block)
        teams = ((0, 1, 2, 3), (2, 3, 4), (0, 4, 5, 6, 7), (1, 6), (5, 7, 8))
        skills = tuple(rng.uniform(0.4, 0.8) for _ in range(9))
        weighted = TeamStructure(
            teams=teams,
            member_weights=tuple(tuple(rng.uniform(0.5, 2.0) for _ in t) for t in teams),
            team_biases=(0.0, 0.25, 0.0, 0.0, -0.1),
            top_weights=tuple(rng.uniform(0.5, 2.0) for _ in teams),
        )
        # teams of shared players only, each with its own outcome table
        pooled = TeamStructure(
            teams=((0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 3)), team_biases=(0.0, 1.0, 0.5)
        )
        cases = [(s, policy) for s in (TeamStructure(teams=teams), weighted, pooled)
                 for policy in ("incorrect", "coin-flip")]
        whole = [indirect_competence(s, skills, nd_policy=policy) for s, policy in cases]
        monkeypatch.setattr(_exact, "OUTCOME_BLOCK", block)
        blocked = [indirect_competence(s, skills, nd_policy=policy) for s, policy in cases]
        assert blocked == whole
        for policy, credit, got in (("incorrect", 0.0, blocked[0]), ("coin-flip", 0.5, blocked[1])):
            assert abs(got - indirect_brute(teams, skills, nd_credit=credit)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_overlapping_structures_match_brute_force(self, data):
        # odd and even teams, so that coins occur, with players shared at random
        n = data.draw(st.integers(1, 9))
        team = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
        teams = tuple(tuple(sorted(t)) for t in data.draw(st.lists(team, min_size=1, max_size=6)))
        skills = data.draw(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n))
        s = TeamStructure(teams=teams)
        for policy, credit in (("incorrect", 0.0), ("coin-flip", 0.5)):
            got = []
            for block in (1, 7, 97):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(_exact, "OUTCOME_BLOCK", block)
                    got.append(indirect_competence(s, skills, nd_policy=policy))
            assert got == [got[0]] * 3
            assert abs(got[0] - indirect_brute(teams, skills, nd_credit=credit)) < 1e-12

    @pytest.mark.parametrize("policy", ["incorrect", "coin-flip"])
    def test_memory_is_held_per_pattern_not_per_coin(self, policy):
        # 20 players in six four-player teams, each of which can tie: only the
        # 4 players of the last team are shared, so the 16 others are summed
        # out inside their teams' 2^4 tables, and coins are never enumerated
        teams = tuple(tuple(range(4 * t, 4 * t + 4)) for t in range(5)) + ((0, 5, 10, 15),)
        s, skills = TeamStructure(teams=teams), tuple(np.linspace(0.55, 0.75, 20))
        indirect_competence(TeamStructure(teams=((0, 1), (1, 2))), (0.6,) * 3, policy)
        tracemalloc.start()
        try:
            got = indirect_competence(s, skills, nd_policy=policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < got < 1.0
        assert peak < 64 << 10

    @pytest.mark.parametrize(
        "teams",
        [
            tuple(tuple(sorted({(2 * i + j) % 20 for j in range(4)})) for i in range(10)),
            tuple(tuple(sorted((i, (i + 1) % 20))) for i in range(20)),
        ],
        ids=["10-teams-of-4", "20-teams-of-2"],
    )
    def test_every_player_shared_holds_no_table_per_pattern(self, teams):
        # every player sits on two teams, so all 2^20 patterns are shared ones;
        # each team's vote is fixed by them, and no array has one entry per
        # pattern (8 MiB for float64): sums run over fixed runs of 2^16
        s, skills = TeamStructure(teams=teams), tuple(np.linspace(0.55, 0.75, 20))
        indirect_competence(TeamStructure(teams=((0, 1), (1, 2))), (0.6,) * 3)
        tracemalloc.start()
        try:
            got = indirect_competence(s, skills)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < got < 1.0
        assert peak < 4 << 20

    def test_member_weights_and_biases_are_honored(self):
        # a dominant member turns their team into a proxy for themselves
        s = TeamStructure(teams=((0, 1, 2),), member_weights=((5.0, 1.0, 1.0),))
        skills = (0.9, 0.5, 0.5)
        assert abs(indirect_competence(s, skills) - 0.9) < 1e-12

    def test_missing_skills_are_a_dimension_error(self):
        s = TeamStructure(teams=((0, 5),))
        with pytest.raises(DimensionError):
            indirect_competence(s, (0.6, 0.6))

    def test_capacity_gate_counts_distinct_players(self):
        # 30 players in a ring of 30 two-member teams: 2^30 shared patterns
        # times 31 units of top level each, over the exact work cap
        s = TeamStructure(teams=tuple(tuple(sorted((i, (i + 1) % 30))) for i in range(30)))
        with pytest.raises(CapacityError):
            indirect_competence(s, (0.6,) * 30)

    @pytest.mark.parametrize("policy", ["incorrect", "coin-flip"])
    def test_one_team_of_25_is_the_25_judge_jury(self, policy):
        # no member is shared, so the team is a jury: the DP answers it
        skills = tuple(np.linspace(0.45, 0.8, 25))
        s = TeamStructure(teams=(tuple(range(25)),))
        want = jury_exact((1,) * 25, 0.0, skills, policy).competence
        assert indirect_competence(s, skills, nd_policy=policy) == want

    def test_coin_flips_over_sixteen_tieable_teams_are_answered(self):
        # 20 players in 16 two-member teams, 7 of them shared, every team able to tie
        teams = tuple((2 * i, 2 * i + 1) for i in range(10)) + tuple(
            (2 * i, 2 * i + 2) for i in range(6)
        )
        s, skills = TeamStructure(teams=teams), np.linspace(0.55, 0.75, 20)
        # an enumeration of all 2^20 patterns gives 0.22469184549396154
        assert abs(indirect_competence(s, tuple(skills)) - 0.22469184549396154) < 1e-12
        got = indirect_competence(s, tuple(skills), nd_policy="coin-flip")
        # a seeded simulation of every vote and coin, 2^18 trials
        rng, trials = np.random.default_rng(0), 1 << 18
        right = np.where(rng.random((trials, 20)) < skills, 1, -1)
        coins = np.where(rng.random((trials, len(teams))) < 0.5, 1, -1)
        top = sum(
            np.where(right[:, a] == right[:, b], right[:, a], coins[:, t])
            for t, (a, b) in enumerate(teams)
        )
        earned = np.where(top > 0, 1.0, np.where(top == 0, 0.5, 0.0))
        assert abs(got - earned.mean()) < 4 * earned.std() / math.sqrt(trials)

    def test_a_large_team_sums_its_own_members_accurately(self):
        # one shared player and 21 of its own: each of the team's two rows sums
        # 2^21 member patterns; both teams are right iff players 0 and 22 are,
        # and 11 of the other 21
        s = TeamStructure(teams=(tuple(range(22)), (0, 22)))
        p = Fraction(0.6)
        want = p * p * sum(math.comb(21, j) * p**j * (1 - p) ** (21 - j) for j in range(11, 22))
        assert abs(indirect_competence(s, (0.6,) * 23) - float(want)) < 1e-15

    def test_a_ring_of_three_member_teams_is_answered_under_coin_flip(self):
        # 21 players in teams (i, i+1, i+2) mod 21: no team of three can tie, nor
        # can 21 teams, so no coin is tossed, and the price counts no team as
        # voting at random, as it would if any team of shared players might tie
        ring = tuple(tuple(sorted({i, (i + 1) % 21, (i + 2) % 21})) for i in range(21))
        s, skills = TeamStructure(teams=ring), tuple(np.linspace(0.55, 0.75, 21))
        got = indirect_competence(s, skills, nd_policy="coin-flip")
        assert got == indirect_competence(s, skills)
        # an enumeration of all 2^21 patterns gives 0.9135773983569873
        assert abs(got - 0.9135773983569873) < 1e-12

    def test_teams_over_the_same_players_keep_the_price_of_one_table(self, monkeypatch):
        # three teams of the same 23 players vote alike, so the top level is the
        # 23-judge jury; each team keeps its own outcome table, but the three are
        # priced as one table over the 23 players (23*2^23), since 3*23*2^23 with
        # the top level would pass the cap
        shapes = []

        def spy(w, bias):
            shapes.append(np.shape(w))
            return _exact.pattern_outcomes(w, bias)

        monkeypatch.setattr("votefuse.jury.pattern_outcomes", spy)
        s = TeamStructure(teams=(tuple(range(23)),) * 3)
        skills = tuple(np.linspace(0.45, 0.8, 23))
        want = jury_exact((1,) * 23, 0.0, skills).competence
        assert abs(indirect_competence(s, skills) - want) < 1e-12
        assert shapes == [(23,)] * 3

    def test_many_teams_of_24_players_are_refused(self):
        # 8 teams of the same 24 players: one 24-player table (24*2^24) and a
        # top level of 8 fixed votes (9 units) in each of the 2^24 patterns. An
        # enumeration of all players' patterns was priced 24*2^24 + 8*2^24 and
        # answered it at the cap itself; this route's estimate is one unit per
        # pattern above it
        s = TeamStructure(teams=(tuple(range(24)),) * 8)
        with pytest.raises(CapacityError) as info:
            indirect_competence(s, (0.6,) * 24)
        assert str(info.value) == (
            "exact indirect competence needs an estimated 553,648,128 work units (team tables "
            "402,653,184 + 2^s*9, s=24 shared players, k=8 teams), over the limit of 536,870,912."
        )
        assert f"{33 << 24:,}" in str(info.value)

    def test_a_team_with_no_shared_member_is_priced_as_its_jury(self):
        # 25 float weights: the jury meets in the middle at 25*2^25 units, and the
        # one-member team costs 2 by its DP; the top level of 2 fixed votes is 3
        s = TeamStructure(
            teams=(tuple(range(25)), (25,)),
            member_weights=(tuple(0.5 + i for i in range(25)), (1.0,)),
        )
        with pytest.raises(CapacityError) as info:
            indirect_competence(s, (0.6,) * 26)
        assert str(info.value) == (
            "exact indirect competence needs an estimated 838,860,805 work units (team tables "
            "838,860,802 + 2^s*3, s=0 shared players, k=2 teams), over the limit of 536,870,912."
        )

    @pytest.mark.parametrize("policy", ["incorrect", "coin-flip"])
    def test_one_team_or_singleton_teams_are_the_jury(self, policy):
        rng = random.Random(3)
        skills = tuple(rng.uniform(0.3, 0.9) for _ in range(7))
        for w in ((3.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0), tuple(optimal_weights(skills))):
            want = jury_exact(w, 2.0, skills, policy).competence
            one = TeamStructure(teams=(tuple(range(7)),), member_weights=(w,), team_biases=(2.0,))
            assert indirect_competence(one, skills, nd_policy=policy) == want
            singles = TeamStructure(
                teams=tuple((i,) for i in range(7)), top_weights=w, top_bias=2.0
            )
            assert abs(indirect_competence(singles, skills, nd_policy=policy) - want) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_weighted_structures_match_the_exact_oracle(self, data):
        # quarter weights and biases sum exactly in floats, so each float
        # decision is the oracle's exact one, ties included
        quarter = st.integers(-8, 8).map(lambda x: x / 4)
        n = data.draw(st.integers(1, 10))
        if data.draw(st.booleans()):  # disjoint teams, members in any order
            order = data.draw(st.permutations(range(n)))
            cuts = sorted(data.draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=5)) - {n})
            teams = tuple(tuple(order[a:b]) for a, b in zip([0] + cuts, cuts + [n]))
        else:
            team = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
            teams = tuple(map(tuple, data.draw(st.lists(team, min_size=1, max_size=6))))
        k = len(teams)
        weights = tuple(tuple(data.draw(st.lists(quarter, min_size=len(t), max_size=len(t))))
                        for t in teams)
        biases = tuple(data.draw(st.lists(quarter, min_size=k, max_size=k)))
        top = st.one_of(st.integers(-2, 3).map(float), quarter)  # integers take the DP
        top_weights = tuple(data.draw(st.lists(top, min_size=k, max_size=k)))
        top_bias = data.draw(quarter)
        skill = st.one_of(st.floats(0.05, 0.95), st.sampled_from([0.0, 1.0]))
        skills = data.draw(st.lists(skill, min_size=n, max_size=n))
        s = TeamStructure(teams, weights, biases, top_weights, top_bias)
        for policy, credit in (("incorrect", 0.0), ("coin-flip", 0.5)):
            want = indirect_brute(teams, skills, credit, weights, biases, top_weights, top_bias)
            assert abs(indirect_competence(s, skills, nd_policy=policy) - want) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_float_weights_and_biases_match_the_exact_oracle(self, data):
        # float top weights take the top level's enumeration route; weights and
        # biases drawn uniformly leave no sum within rounding of its bias, so
        # each float decision is the oracle's exact one
        n = data.draw(st.integers(1, 8))
        team = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
        teams = tuple(map(tuple, data.draw(st.lists(team, min_size=1, max_size=6))))
        k = len(teams)
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        weights = tuple(tuple(rng.uniform(-0.5, 2.0) for _ in t) for t in teams)
        biases = tuple(rng.uniform(-1.0, 1.0) for _ in teams)
        top_weights = tuple(rng.uniform(-0.5, 2.0) for _ in teams)
        top_bias = rng.uniform(-1.0, 1.0)
        skill = st.one_of(st.floats(0.05, 0.95), st.sampled_from([0.0, 1.0]))
        skills = data.draw(st.lists(skill, min_size=n, max_size=n))
        s = TeamStructure(teams, weights, biases, top_weights, top_bias)
        for policy, credit in (("incorrect", 0.0), ("coin-flip", 0.5)):
            want = indirect_brute(teams, skills, credit, weights, biases, top_weights, top_bias)
            assert abs(indirect_competence(s, skills, nd_policy=policy) - want) < 1e-12

    def test_shared_player_does_not_inflate_the_count(self):
        teams = tuple((i, 19) for i in range(19))
        s = TeamStructure(teams=teams)
        got = indirect_competence(s, (0.6,) * 20)  # d = 20, within the cap
        assert 0.0 <= got <= 1.0
