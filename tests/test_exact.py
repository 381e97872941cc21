"""The shared exact kernel: both routes against the brute-force oracles."""

import ast
import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votefuse import _exact, scoring
from votefuse._exact import Route
from votefuse.errors import CapacityError
from votefuse.jury import (
    TeamStructure,
    group_competence,
    indirect_competence,
    jury_exact,
    optimal_weights,
)
from votefuse.model import VotingGame, integer_form
from votefuse.power import banzhaf_exact, shapley_shubik_exact
from votefuse.scoring import ScoringVector, condorcet_efficiency
from votefuse.wmr import CanonicalWMR, enumerate_unique_wmr, nearest_simple_rule, rule_from_game

from oracles import (
    banzhaf_brute,
    competence_brute,
    decisiveness_brute,
    majority_competence_binomial,
    random_rational_game,
    rule_table_brute,
    shapley_brute,
)

POWER_ROUTES = ("dp", "enumeration")
JURY_ROUTES = ("dp", "halves")


def integer_games():
    """Integer weights (zeros included) with a quota anywhere in [0, total]."""
    return st.lists(st.integers(0, 12), min_size=1, max_size=7).flatmap(
        lambda ws: st.tuples(st.just(ws), st.integers(0, sum(ws)))
    )


def banzhaf_counts(ws, q, route=None):
    return _exact.power_counts(ws, q, route, ("banzhaf",))[0]


def shapley_counts(ws, q, route=None):
    return _exact.power_counts(ws, q, route, ("shapley",))[0]


def check_power_routes(ws, q):
    """Both routes give the oracle counts; returns the Banzhaf and Shapley-Shubik counts."""
    want_b = banzhaf_brute(ws, q)
    want_s = [x * math.factorial(len(ws)) for x in shapley_brute(ws, q)]
    for route in POWER_ROUTES:
        alone = [banzhaf_counts(ws, q, route), shapley_counts(ws, q, route)]
        both = _exact.power_counts(ws, q, route)  # from one table
        assert alone == both == [want_b, want_s]
        # Python ints, which reports print as plain numbers
        assert {type(x) for counts in alone + both for x in counts} == {int}
    return want_b, want_s


class TestPowerRoutes:
    @given(integer_games())
    def test_both_routes_count_exactly_as_the_oracles(self, game):
        check_power_routes(*game)

    @given(integer_games(), st.sampled_from([1, 7, 97]))
    def test_dp_updates_in_column_blocks_count_as_the_oracles(self, game, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_exact, "OUTCOME_BLOCK", block)
            check_power_routes(*game)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 7))
    def test_rational_games_through_their_integer_form(self, seed, n):
        weights, quota = random_rational_game(random.Random(seed), n)
        ws, q = integer_form(VotingGame(tuple(weights), quota))
        check_power_routes(ws.tolist(), q)

    @pytest.mark.parametrize("q", [0, 9])
    def test_quota_at_either_end(self, q):
        # quota 0: any positive weight wins alone; quota = total: nobody wins
        check_power_routes([4, 0, 3, 2], q)

    @pytest.mark.parametrize("kinds", [("banzhaf",), ("shapley",), ("banzhaf", "shapley")])
    def test_enumeration_peaks_near_its_int8_outcomes(self, kinds):
        # 20 players with weights near 10^9: the int8 outcomes of the 2^20
        # coalitions and their sizes take 1 MiB each, where int64 sums took 8
        rng = random.Random(20)
        ws = [rng.randrange(10**9, 2 * 10**9) for _ in range(20)]
        _exact.power_counts(ws[:3], sum(ws[:3]) // 2, "enumeration", kinds)
        tracemalloc.start()
        try:
            _exact.power_counts(ws, sum(ws) // 2, "enumeration", kinds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20

    def test_counts_past_int64_use_python_ints(self):
        # 63 players: 2^63 coalitions do not fit a signed 64-bit count
        ws = [1] * 63
        assert banzhaf_counts(ws, 62) == [1] * 63
        assert shapley_counts(ws, 62) == [math.factorial(62)] * 63
        assert banzhaf_counts(ws, 63) == [0] * 63

    def test_games_past_the_old_player_caps_are_exact_now(self):
        rep = banzhaf_exact(VotingGame((1,) * 30))  # quota 15
        assert rep.raw == (math.comb(29, 15),) * 30
        rep = shapley_shubik_exact(VotingGame(tuple(range(1, 31))))
        assert sum(rep.raw) == math.factorial(30)


class TestReducedGame:
    """Counts are taken on the lowest integer weights and the smaller side of the quota."""

    @given(integer_games(), st.integers(2, 6), st.integers(0, 5))
    def test_scaled_and_dual_games_count_as_the_original(self, game, c, r):
        ws, q = game
        want = check_power_routes(ws, q)
        scaled = [c * w for w in ws], c * q + r % c  # the same game
        variants = [scaled]
        if q < sum(ws):  # W-1-q is a quota in [0, W) too
            variants += [(ws, sum(ws) - 1 - q), (scaled[0], sum(scaled[0]) - 1 - scaled[1])]
        for variant in variants:
            assert check_power_routes(*variant) == want

    @pytest.mark.parametrize(
        "ws, q",
        [
            ([0, 0, 0], 0),  # nobody wins: the reduced quota is below 0
            ([6, 0, 9, 3], 0),
            ([6, 0, 9, 3], 18),  # quota = total: nobody wins
            ([0, 5, 5, 0, 5], 4),
            ([0, 5, 5, 0, 5], 5),
            ([0, 5, 5, 0, 5], 10),
            ([0, 5, 5, 0, 5], 14),
        ],
    )
    def test_edge_games(self, ws, q):
        check_power_routes(ws, q)

    @pytest.mark.parametrize("n", [30, 31, 33])
    def test_counts_cross_the_int32_boundary(self, n):
        assert _exact._count_dtype(n) == (np.int32 if n <= 30 else np.int64)
        q = n // 2
        side = min(q, n - 1 - q)
        assert banzhaf_counts([1] * n, q) == [math.comb(n - 1, side)] * n
        assert shapley_counts([1] * n, q) == [math.factorial(n - 1)] * n
        # n - 3 dummies of weight 0 double every count: past 2^31 in one cell at n = 33
        ws = [0] * (n - 3) + [1, 1, 1]
        dummies = [0] * (n - 3)
        assert banzhaf_counts(ws, 1) == dummies + [2 << (n - 3)] * 3
        assert shapley_counts(ws, 1) == dummies + [math.factorial(n) // 3] * 3

    @pytest.mark.parametrize("block", [1, 5, None])
    def test_gathered_swings_of_a_dummy_and_of_weights_past_the_quota(self, block):
        # the reduced quota is 7: the weights 9 and 12 take one term of the
        # Banzhaf gather and one window by size, the dummy one term and no
        # swing; blocks of 1 and 5 split the gather between weights
        ws, q = [0, 9, 12, 2, 3, 3, 1, 0], 7
        with pytest.MonkeyPatch.context() as patch:
            if block:
                patch.setattr(_exact, "OUTCOME_BLOCK", block)
            want_b, want_s = check_power_routes(ws, q)
        assert want_b[0] == want_b[-1] == want_s[0] == 0 and want_b[1] == want_b[2] > 0

    def test_int64_totals_whose_sums_wrap_count_exactly(self, monkeypatch):
        # 62 players: the int64 sum of the window ends of the weight-1 player
        # passes 2^63 and wraps; Python-int counts are the reference
        ws, q = [1] + [5] * 61, 152
        assert _exact._count_dtype(len(ws)) == np.int64
        got = banzhaf_counts(ws, q), shapley_counts(ws, q)
        monkeypatch.setattr(_exact, "_count_dtype", lambda n: object)
        assert (banzhaf_counts(ws, q), shapley_counts(ws, q)) == got


def judges():
    """Integer jury weights, negative and zero included, skills and a bias."""
    return st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-4, 6), min_size=n, max_size=n),
            st.lists(
                st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
                min_size=n,
                max_size=n,
            ),
            st.sampled_from([0.0, 0.5, -1.0, 2.0, 3.5]),
        )
    )


def check_jury_routes(w, p, bias, routes=JURY_ROUTES):
    n = len(w)
    for nd in (0.0, 0.5):
        want_c = competence_brute(w, bias, p, nd)
        want_d = [decisiveness_brute(w, bias, p, i, nd) for i in range(n)]
        for route in routes:
            got_c, got_d = _exact.jury_values(
                np.asarray(w, float), np.asarray(p), bias, nd, range(n), route
            )
            assert abs(got_c - want_c) < 1e-12
            assert np.allclose(got_d, want_d, rtol=0.0, atol=1e-12)
            # one judge alone, and judges asked for out of order
            one = _exact.jury_values(np.asarray(w, float), np.asarray(p), bias, nd, [n - 1], route)
            assert abs(one[1][0] - want_d[n - 1]) < 1e-12
            pair = _exact.jury_values(np.asarray(w, float), np.asarray(p), bias, nd, [n - 1, 0], route)
            assert np.allclose(pair[1], [want_d[n - 1], want_d[0]], rtol=0.0, atol=1e-12)


class TestJuryRoutes:
    @settings(deadline=None)
    @given(judges())
    def test_both_routes_match_the_oracles(self, case):
        check_jury_routes(*case)

    @settings(deadline=None)
    @given(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=6))
    def test_log_odds_weights_take_the_halves(self, p):
        w = [math.log(x / (1 - x)) for x in p]
        check_jury_routes(w, p, 0.0, routes=("halves",))

    def test_certain_judges_are_not_divided_away(self):
        # skills of exactly 0 and 1: a division by p or 1-p would fail here
        check_jury_routes([2, 1, 1, 3], [1.0, 0.0, 0.7, 1.0], 0.0)

    def test_the_cli_triple_agrees_with_the_wrappers(self):
        w, p = (3, 1, 2, 2, 1), (0.7, 0.6, 0.55, 0.8, 0.65)
        rep = jury_exact(w, 0.0, p, nd_policy="coin-flip")
        assert rep.competence == group_competence(w, 0.0, p, nd_policy="coin-flip")
        assert len(rep.decisiveness) == 5

    def test_juries_past_the_old_cap_are_exact_now(self):
        got = group_competence((1,) * 25, 0.0, (0.6,) * 25)
        assert abs(got - majority_competence_binomial(25, 0.6)) < 1e-12


@st.composite
def float_juries(draw):
    """Float weights that tie often, all 0.1, or log-odds, with skills that
    give every vote pattern enough mass for one changed decision to show."""
    n = draw(st.integers(1, 14))
    kind = draw(st.sampled_from(("decimal", "tenths", "log-odds")))
    skill = st.one_of(st.sampled_from([0.5, 0.3, 0.65]), st.floats(0.2, 0.8))
    p = draw(st.lists(skill, min_size=n, max_size=n))
    if kind == "decimal":
        w = draw(st.lists(st.sampled_from([0.1, 0.2, 0.25, 0.3, -0.3]), min_size=n, max_size=n))
    else:
        w = [0.1] * n if kind == "tenths" else [math.log(x / (1 - x)) for x in p]
    bias = draw(st.sampled_from([0.0, 0.1, 0.30000000000000004]))
    nd = draw(st.sampled_from([0.0, 0.5]))
    # one judge, or two asked for out of order
    players = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2))
    if len(players) == 2:
        players.sort(reverse=True)
    return w, p, bias, nd, players


class TestFloatJury:
    """Float weights meet in the middle and keep every decision of the player-order sum."""

    BLOCKS = (1, 7, 97)

    @settings(max_examples=60, deadline=None)
    @given(float_juries())
    def test_every_decision_is_the_player_order_sum(self, case):
        # the oracles sum each pattern in player order, so they encode the
        # decisions; the smallest pattern mass, 0.2^14, is far above 1e-12
        w, p, bias, nd, players = case
        want_c = competence_brute(w, bias, p, nd)
        want_d = [decisiveness_brute(w, bias, p, i, nd) for i in players]
        for block in self.BLOCKS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_exact, "OUTCOME_BLOCK", block)
                got_c, got_d = _exact.jury_values(
                    np.array(w), np.array(p), bias, nd, players, "halves"
                )
            assert abs(got_c - want_c) < 1e-12
            assert np.allclose(got_d, want_d, rtol=0.0, atol=1e-12)

    def test_decimal_ties_are_decided_as_binary_floats(self):
        # fl(0.1) + fl(0.2) - fl(0.3) = 2^-55, so the decimal stalemate is a win
        # in binary; ROADMAP item 2 will change this on purpose to 0.375
        assert jury_exact((0.1, 0.2, 0.3), 0, (0.5,) * 3).competence == 0.5

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_sums_that_may_overflow_are_decided_in_player_order(self):
        w, p = [1e308, 1e308, -1e308, 0.5], [0.6, 0.7, 0.55, 0.8]
        got_c, got_d = _exact.jury_values(np.array(w), np.array(p), 0.0, 0.0, range(4))
        assert abs(got_c - competence_brute(w, 0.0, p)) < 1e-12
        want_d = [decisiveness_brute(w, 0.0, p, i) for i in range(4)]
        assert np.allclose(got_d, want_d, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["log-odds", "tenths"])
    def test_24_judges_peak_near_the_half_tables(self, kind, monkeypatch):
        # the halves hold O(2^12) values and the band one block of pairs;
        # one 2^24 float64 table alone would take 128 MiB
        p = np.random.default_rng(24).uniform(0.55, 0.9, 24)
        w = optimal_weights(p) if kind == "log-odds" else np.full(24, 0.1)
        monkeypatch.setattr(_exact, "OUTCOME_BLOCK", 1 << 12)
        jury_exact((0.5, 0.25, 0.125), 0.0, (0.6,) * 3)  # first-call allocations
        tracemalloc.start()
        try:
            jury_exact(w, 0.0, p, nd_policy="coin-flip")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (64 * (1 << 12) + 16 * _exact.OUTCOME_BLOCK)

    def test_24_float_judges_are_answered_and_25_refused(self):
        assert 0.0 < group_competence([0.5 + i for i in range(24)], 0.0, (0.6,) * 24) < 1.0
        with pytest.raises(CapacityError) as info:
            group_competence([0.5 + i for i in range(25)], 0.0, (0.6,) * 25)
        assert str(info.value) == (
            "exact jury competence needs an estimated 838,860,800 work units (no counting DP "
            "(weights are not integers), meet in the middle n*2^n = 838,860,800), over the "
            "limit of 536,870,912. Use competence_monte_carlo instead."
        )


class TestWorkCap:
    def test_the_route_with_the_fewest_units_is_chosen(self):
        dp, every = Route("dp", 30 * 31), Route("enumeration", 30 << 30)
        assert _exact.choose("Banzhaf", [dp, every], "x") == "dp"
        assert _exact.choose("Banzhaf", [every, dp], "x") == "dp"
        small = [Route("dp", 10**6), Route("enumeration", 4 << 4)]
        assert _exact.choose("Banzhaf", small, "x") == "enumeration"

    def test_the_dp_wins_a_tie(self):
        tie = [Route("dp", 64), Route("enumeration", 64)]
        assert _exact.choose("Banzhaf", tie, "x") == _exact.cheapest(tie).name == "dp"

    def test_a_route_that_cannot_run_is_never_picked(self):
        routes = [Route("dp", None), Route("halves", 20 << 20)]
        assert _exact.choose("jury competence", routes, "x") == "halves"
        assert _exact.cheapest(routes).name == "halves"
        with pytest.raises(ValueError, match="exact jury competence has no route 'dp'"):
            _exact.choose("jury competence", routes, "x", "dp")

    def test_a_forced_route_that_can_run_skips_the_cap(self):
        over = [Route("dp", 10**12), Route("enumeration", 40 << 40)]
        assert _exact.choose("Banzhaf", over, "x", "enumeration") == "enumeration"
        assert _exact.choose("Banzhaf", over, "x", "dp") == "dp"
        with pytest.raises(ValueError, match="exact Banzhaf has no route 'halves'"):
            _exact.choose("Banzhaf", over, "x", "halves")

    def test_refusal_states_the_estimate_the_limit_and_the_sampler(self):
        over = [Route("dp", 10**12, "counting DP"), Route("enumeration", 40 << 40, "n*2^n")]
        with pytest.raises(CapacityError) as info:
            _exact.choose("Banzhaf", over, "power_monte_carlo")
        assert str(info.value) == (
            f"exact Banzhaf needs an estimated {10**12:,} work units (counting DP, n*2^n), "
            f"over the limit of {_exact.EXACT_WORK_MAX:,}. Use power_monte_carlo instead."
        )

    def test_forced_routes_that_cannot_run_are_refused_by_both_kernels(self):
        w, p = np.array([0.5, 1.5]), np.array([0.6, 0.7])
        for route in ("dp", "bogus"):
            with pytest.raises(ValueError, match=f"exact jury competence has no route '{route}'"):
                _exact.jury_values(w, p, 0.0, 0.0, [], route=route)
        assert _exact.jury_values(w, p, 0.0, 0.0, [], route="halves")[0] == pytest.approx(0.7)
        for route in ("halves", "bogus"):
            with pytest.raises(ValueError, match=f"exact Banzhaf has no route '{route}'"):
                _exact.power_counts([1, 2, 3], 3, route=route)

    def test_a_route_is_named_only_where_one_exists(self):
        _exact.check_work("rule table", _exact.EXACT_WORK_MAX)  # at the cap: accepted
        with pytest.raises(CapacityError) as info:
            _exact.check_work("rule table", _exact.EXACT_WORK_MAX + 1, how="n*2^n outcomes")
        assert str(info.value) == (
            f"exact rule table needs an estimated {_exact.EXACT_WORK_MAX + 1:,} work units "
            f"(n*2^n outcomes), over the limit of {_exact.EXACT_WORK_MAX:,}."
        )

    def test_non_integer_weights_over_the_cap_are_refused(self):
        weights = [0.5 + i for i in range(30)]
        with pytest.raises(CapacityError, match="competence_monte_carlo"):
            group_competence(weights, 0.0, (0.6,) * 30)


def test_enumerate_patterns_reads_bit_i_as_player_i():
    sums = _exact.enumerate_patterns([0, 0, 0], [1, 2, 4], np.int64(0))
    assert sums.tolist() == list(range(8))
    probs = _exact.enumerate_patterns([0.25, 0.75], [0.75, 0.25], np.float64(1.0), np.multiply)
    want = [(0.75 if j & 1 else 0.25) * (0.25 if j & 2 else 0.75) for j in range(4)]
    assert probs.tolist() == want
    table = _exact.enumerate_patterns(
        [np.array([[-1], [0]]), np.array([[0], [-2]])],
        [np.array([[1], [0]]), np.array([[0], [2]])],
        np.zeros(2, dtype=np.int64),
    )
    assert table.shape == (2, 4)
    for j, (a, b) in enumerate(product((-1, 1), repeat=2)):
        assert table[:, j].tolist() == [b, 2 * a]


@pytest.mark.parametrize("seed", range(5))
def test_the_dp_step_on_columns_is_each_column_run_alone(seed):
    # the team top level adds its random teams with one chance per column, the
    # jury one scalar chance per judge; each column must take the jury's steps
    rng = np.random.default_rng(seed)
    w = [3, -2, 0, 1, -1, 0, 4]
    width = sum(map(abs, w)) + 1
    chances = rng.random((len(w), 6))
    chances[:, 0] = 0.0
    chances[:, 1] = 1.0
    start = np.zeros((width, chances.shape[1]))
    start[0] = 1.0
    dist = _exact.add_judges(start, w, chances)
    for c in range(chances.shape[1]):
        alone = _exact.add_judges(start[:, c].copy(), w, list(chances[:, c]))
        assert dist[:, c].tobytes() == alone.tobytes()
    assert np.allclose(dist.sum(axis=0), 1.0)
    # a negative weight counts when its judge is wrong: all wrong weigh 3, all right 8
    assert np.flatnonzero(dist[:, 0]).tolist() == [3] and dist[3, 0] == 1.0
    assert np.flatnonzero(dist[:, 1]).tolist() == [8] and dist[8, 1] == 1.0


def test_rescaled_rational_game_keeps_exact_counts():
    game = VotingGame((Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)), quota=Fraction(3, 4))
    assert list(banzhaf_exact(game).raw) == banzhaf_brute(game.weights, game.quota)


def assert_refused(call, units, route=None):
    """``call`` raises one CapacityError stating the estimate, the limit and the route."""
    with pytest.raises(CapacityError) as info:
        call()
    message = str(info.value)
    assert f"needs an estimated {units:,} work units" in message
    assert f"{_exact.EXACT_WORK_MAX:,}" in message
    assert route is None or f"Use {route} instead." in message
    return message


class TestCapacityBoundaries:
    """The largest accepted and the smallest refused instance of each priced entry point."""

    def test_rule_tables_fit_up_to_24_players(self):
        assert 24 << 24 <= _exact.EXACT_WORK_MAX < 25 << 25
        table = rule_from_game(VotingGame((1,) * 24)).table
        assert table.shape == (1 << 24,) and table[-1] == 1 and table[0] == -1
        assert_refused(lambda: rule_from_game(VotingGame((1,) * 25)), 25 << 25)

    def test_nearest_rules_are_priced_like_rule_tables(self):
        assert nearest_simple_rule([1.0] * 3).disagreements == 0
        target, candidate = [1.0] * 25, CanonicalWMR((1,) * 25)
        assert_refused(lambda: nearest_simple_rule(target, [candidate]), 25 << 25)

    def test_coin_flips_over_many_tieable_teams_are_refused_up_front(self):
        # 21 players in a ring of 21 two-member teams: every player is shared,
        # and under coin-flip each team may tie, so all 21 enter the top-level
        # DP (21 + 22*22 units) in each of the 2^21 shared patterns
        ring = TeamStructure(teams=tuple(tuple(sorted((i, (i + 1) % 21))) for i in range(21)))
        assert len(ring.distinct_players) == 21
        start = time.perf_counter()
        assert_refused(
            lambda: indirect_competence(ring, (0.6,) * 21, nd_policy="coin-flip"),
            21 * 8 + ((21 + 22 * 22) << 21),
        )
        assert time.perf_counter() - start < 10.0  # the 2^21 patterns are never visited
        assert 0.0 <= indirect_competence(ring, (0.6,) * 21) <= 1.0  # no coins: fixed votes fit

    def test_team_structures_are_priced_before_any_outcome_table(self, monkeypatch):
        for table in ("enumerate_patterns", "jury_values", "pattern_outcomes"):
            monkeypatch.setattr(
                f"votefuse.jury.{table}", lambda *a: pytest.fail("outcome table built")
            )
        # 30 players in a ring of 30 two-member teams: 2^30 shared patterns
        ring = TeamStructure(teams=tuple(tuple(sorted((i, (i + 1) % 30))) for i in range(30)))
        assert_refused(lambda: indirect_competence(ring, (0.6,) * 30), 30 * 8 + (31 << 30))

    @pytest.mark.parametrize(
        "kind, exact, price",
        [
            ("Banzhaf", banzhaf_exact, lambda n, q: n * (q + 1)),
            ("Shapley-Shubik", shapley_shubik_exact, lambda n, q: n * (n + 1) * (q + 1)),
        ],
    )
    def test_power_is_priced_on_the_reduced_game(self, kind, exact, price):
        # 30 players, so only the DP can fit: weights 1000*a and 1000*(a+1),
        # reduced by their gcd 1000, with a quota below half of the reduced total
        n, g = 30, 1000
        largest = _exact.EXACT_WORK_MAX // price(n, 0) - 1
        a = largest // 12
        reduced = [a] * 15 + [a + 1] * 15
        assert price(n, largest) <= _exact.EXACT_WORK_MAX < price(n, largest + 1)
        assert 2 * (largest + 1) < sum(reduced)
        rep = exact(VotingGame(tuple(g * w for w in reduced), g * largest + g - 1))
        assert min(rep.raw) > 0
        smallest = VotingGame(tuple(g * w for w in reduced), g * (largest + 1))
        message = assert_refused(lambda: exact(smallest), price(n, largest + 1))
        assert f"exact {kind} needs" in message
        assert f"counting DP {price(n, largest + 1):,} cells" in message

    @pytest.mark.parametrize(
        "exact, price, rows",
        [
            (banzhaf_exact, lambda n, q: n * (q + 1), 1),
            (shapley_shubik_exact, lambda n, q: n * (n + 1) * (q + 1), 31),
        ],
    )
    def test_power_dp_peaks_near_its_int32_table(self, exact, price, rows):
        # the largest game above: its int32 table of rows x (q + 1) counts takes
        # its running totals in place, and each DP update copies at most one block
        n, g = 30, 1000
        largest = _exact.EXACT_WORK_MAX // price(n, 0) - 1
        a = largest // 12
        game = VotingGame(tuple(g * w for w in [a] * 15 + [a + 1] * 15), g * largest + g - 1)
        tracemalloc.start()
        try:
            exact(game)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * rows * (largest + 1) * np.dtype(np.int32).itemsize

    def test_efficiency_with_few_leaves_is_exact(self):
        # 3 candidates, 9 voters: 2,002 ranking-count multisets
        res = condorcet_efficiency(ScoringVector.borda(3), 3, 9)
        assert res.exact == Fraction(674489, 774323)

    def test_one_voter_over_ten_candidates_is_refused_before_the_tables(self, monkeypatch):
        monkeypatch.setattr(scoring, "_ranking_tables", lambda *a: pytest.fail("tables built"))
        rankings = math.factorial(10)
        units = rankings * 1 * 100 + rankings * 100  # every ranking is a leaf
        message = assert_refused(
            lambda: condorcet_efficiency(ScoringVector.borda(10), 10, 1), units,
            "method='monte-carlo'",
        )
        assert f"{rankings:,} leaves" in message

    @pytest.mark.parametrize("m", [11, 12])
    def test_monte_carlo_efficiency_prices_its_ranking_table_first(self, monkeypatch, m):
        monkeypatch.setattr(scoring, "_ranking_tables", lambda *a: pytest.fail("tables built"))
        message = assert_refused(
            lambda: condorcet_efficiency(
                ScoringVector.borda(m), m, 5, method="monte-carlo", trials=100
            ),
            math.factorial(m) * m * m,
        )
        assert "ranking table of method='monte-carlo'" in message
        assert f"m!*m^2 for {math.factorial(m):,} rankings" in message

    def test_monte_carlo_efficiency_builds_the_table_of_ten_candidates(self, monkeypatch):
        # 10! * 10^2 = 362,880,000 units, within the cap
        class Built(Exception):
            pass

        def tables(*args):
            raise Built

        monkeypatch.setattr(scoring, "_ranking_tables", tables)
        with pytest.raises(Built):
            condorcet_efficiency(ScoringVector.borda(10), 10, 5, method="monte-carlo", trials=100)

    def test_two_candidates_up_to_the_int64_range(self):
        # (m!)^n * max(lcm(1..m), n) = 2^n * n must stay below 2^63
        largest = max(n for n in range(1, 70) if 2**n * max(2, n) < 2**63)
        assert largest == 57
        for n in (largest - 1, largest):
            res = condorcet_efficiency(ScoringVector.borda(2), 2, n)
            assert res.exact == 1
            ties = math.comb(n, n // 2) if n % 2 == 0 else 0
            assert res.profiles_with_winner == 2**n - ties
        n = largest + 1
        message = assert_refused(
            lambda: condorcet_efficiency(ScoringVector.borda(2), 2, n),
            (n + 1) * n * 4 + 2 * 4,
            "method='monte-carlo'",
        )
        assert "2^63" in message


class TestOneCapacityPolicy:
    """Size refusals come from ``_exact.check_work``, not from caps kept per module."""

    SOURCES = sorted((Path(_exact.__file__).parent).glob("*.py"))

    @staticmethod
    def capacity_error_scopes(tree):
        """Qualified name of the function around each ``CapacityError(...)`` call."""
        found = set()

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}" if scope else node.name
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "CapacityError"
            ):
                found.add(scope)
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, "")
        return found

    def test_capacity_errors_are_built_in_two_places_only(self):
        # winning families are Python sets searched in plain Python, so they
        # keep a cap in players; every other size refusal is priced in work
        allowed = {
            ("_exact.py", "check_work"),
            ("wmr.py", "WinningFamily._check_size"),
        }
        built = {
            (path.name, scope)
            for path in self.SOURCES
            for scope in self.capacity_error_scopes(ast.parse(path.read_text()))
        }
        assert built == allowed

    @classmethod
    def module_constants(cls, suffix):
        """``module.NAME`` for each module-level assignment to a name ending in ``suffix``."""
        found = set()
        for path in cls.SOURCES:
            for node in ast.parse(path.read_text()).body:
                targets = node.targets if isinstance(node, ast.Assign) else (
                    [node.target] if isinstance(node, ast.AnnAssign) else []
                )
                found |= {
                    f"{path.stem}.{t.id}"
                    for t in targets
                    if isinstance(t, ast.Name) and t.id.endswith(suffix)
                }
        return found

    def test_no_module_keeps_a_cap_of_its_own(self):
        assert self.module_constants("_MAX") == {"_exact.EXACT_WORK_MAX", "wmr.TRADE_ROBUST_MAX"}

    def test_no_module_keeps_a_block_of_its_own(self):
        # every block of temporaries is sized by _exact.block_rows
        assert self.module_constants("_BLOCK") == {"_exact.OUTCOME_BLOCK"}


class TestOneDecision:
    """Only ``_exact`` turns signed sums into outcomes."""

    BLOCKS = (1, 7, 97, 1 << 17)

    def test_no_module_but_exact_compares_with_a_bias_or_takes_signs(self):
        names, attrs = {"bias", "biases", "top_bias"}, {"top_bias", "team_biases"}
        found = []
        for path in TestOneCapacityPolicy.SOURCES:
            if path.name == "_exact.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                # a decision compares by value; `is None` checks are not decisions
                if isinstance(node, ast.Compare) and not all(
                    isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
                ):
                    found += [
                        f"{path.name}:{node.lineno}"
                        for x in (node.left, *node.comparators)
                        if isinstance(x, ast.Name) and x.id in names
                        or isinstance(x, ast.Attribute) and x.attr in attrs
                    ]
                elif isinstance(node, ast.Attribute) and node.attr == "sign":
                    if isinstance(node.value, ast.Name) and node.value.id == "np":
                        found.append(f"{path.name}:{node.lineno} np.sign")
        assert found == []

    @staticmethod
    @st.composite
    def weighted_votes(draw):
        """(n,) or (k, n) weights and a scalar or (k,) bias: int64, dyadic or any floats."""
        kind = draw(st.sampled_from(("int", "dyadic", "float")))
        k = draw(st.sampled_from((None, 1, 3)))
        n = draw(st.integers(1, 9))
        values = st.floats(-4, 4) if kind == "float" else st.integers(-16, 16)
        shape = (n,) if k is None else (k, n)
        w = np.array(draw(st.lists(values, min_size=n * (k or 1), max_size=n * (k or 1))))
        b = np.array(draw(st.lists(values, min_size=k or 1, max_size=k or 1)))
        if k is None or draw(st.booleans()):
            b = b[0]
        w = w.reshape(shape)
        if kind == "int":
            return w.astype(np.int64), b.astype(np.int64), kind
        return (w / 8, b / 8, kind) if kind == "dyadic" else (w, b, kind)

    def blocked(self, call):
        """``call()`` under each block size."""
        out = []
        for block in self.BLOCKS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_exact, "OUTCOME_BLOCK", block)
                out.append(call())
        return out

    @settings(max_examples=200, deadline=None)
    @given(weighted_votes())
    def test_pattern_outcomes_are_the_signs_of_the_pattern_sums(self, case):
        w, bias, kind = case
        tables = self.blocked(lambda: _exact.pattern_outcomes(w, bias))
        rows = np.atleast_2d(w)
        biases = np.broadcast_to(bias, rows.shape[:1])
        want = [
            np.sign(_exact.enumerate_patterns(-r, r, np.zeros((), r.dtype)) - b)
            for r, b in zip(rows, biases)
        ]
        for table in tables:
            assert table.dtype == np.int8 and table.shape == w.shape[:-1] + (1 << w.shape[-1],)
            assert np.array_equal(np.atleast_2d(table), want)
        if kind != "float":
            brute = [rule_table_brute(r.tolist(), b.item()) for r, b in zip(rows, biases)]
            assert np.atleast_2d(tables[0]).tolist() == brute

    def test_blocks_change_no_jury_value_and_no_target_table(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(0.55, 0.9, 11)
        # log-odds weights, and dyadic ones that tie on many patterns
        for w, bias in ((optimal_weights(p), 0.1), (np.arange(1, 12) / 2, 1.5)):
            reports = self.blocked(lambda: jury_exact(w, bias, p, nd_policy="coin-flip"))
            assert all(r == reports[0] for r in reports)
        cands = [CanonicalWMR((1,) * 7), CanonicalWMR((3, 2, 2, 1, 1, 1, 1))]
        for w in (np.linspace(-1, 2, 7), np.arange(1, 8) / 4):
            dists = self.blocked(lambda: [nearest_simple_rule(w, [c], bias=0.5) for c in cands])
            assert all(d == dists[0] for d in dists)
        # the rule scan reads the block size at call time too: one vector per
        # block at size 1, several at 97, all at 2^17
        scans = self.blocked(lambda: [c.weights for c in enumerate_unique_wmr(5, 4)])
        assert all(s == scans[0] for s in scans) and len(scans[0]) == 7
