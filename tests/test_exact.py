"""The shared exact kernel: both routes against the brute-force oracles."""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votefuse import _exact
from votefuse.errors import CapacityError
from votefuse.jury import group_competence, jury_exact
from votefuse.model import VotingGame, integer_form
from votefuse.power import banzhaf_exact, shapley_shubik_exact

from oracles import (
    banzhaf_brute,
    competence_brute,
    decisiveness_brute,
    majority_competence_binomial,
    random_rational_game,
    shapley_brute,
)

ROUTES = ("dp", "enumeration")


def integer_games():
    """Integer weights (zeros included) with a quota anywhere in [0, total]."""
    return st.lists(st.integers(0, 12), min_size=1, max_size=7).flatmap(
        lambda ws: st.tuples(st.just(ws), st.integers(0, sum(ws)))
    )


def check_power_routes(ws, q):
    want_b = banzhaf_brute(ws, q)
    want_s = [x * math.factorial(len(ws)) for x in shapley_brute(ws, q)]
    for route in ROUTES:
        assert _exact.banzhaf_counts(ws, q, route) == want_b
        assert _exact.shapley_counts(ws, q, route) == want_s


class TestPowerRoutes:
    @given(integer_games())
    def test_both_routes_count_exactly_as_the_oracles(self, game):
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

    def test_counts_past_int64_use_python_ints(self):
        # 63 players: 2^63 coalitions do not fit a signed 64-bit count
        ws = [1] * 63
        assert _exact.banzhaf_counts(ws, 62) == [1] * 63
        assert _exact.shapley_counts(ws, 62) == [math.factorial(62)] * 63
        assert _exact.banzhaf_counts(ws, 63) == [0] * 63

    def test_games_past_the_old_player_caps_are_exact_now(self):
        rep = banzhaf_exact(VotingGame((1,) * 30))  # quota 15
        assert rep.raw == (math.comb(29, 15),) * 30
        rep = shapley_shubik_exact(VotingGame(tuple(range(1, 31))))
        assert sum(rep.raw) == math.factorial(30)


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


def check_jury_routes(w, p, bias, routes=ROUTES):
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
    def test_log_odds_weights_take_the_enumeration(self, p):
        w = [math.log(x / (1 - x)) for x in p]
        check_jury_routes(w, p, 0.0, routes=("enumeration",))

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


class TestWorkCap:
    def test_the_cheaper_route_is_chosen(self):
        assert _exact._choose_route(30, 30 * 31, "Banzhaf", "x") == "dp"
        assert _exact._choose_route(4, 10**6, "Banzhaf", "x") == "enumeration"
        assert _exact._choose_route(20, None, "jury competence", "x") == "enumeration"

    def test_refusal_states_the_estimate_the_limit_and_the_sampler(self):
        with pytest.raises(CapacityError) as info:
            _exact._choose_route(40, 10**12, "Banzhaf", "power_monte_carlo")
        message = str(info.value)
        assert f"{10**12:,}" in message
        assert f"{_exact.EXACT_WORK_MAX:,}" in message
        assert "power_monte_carlo" in message

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


def test_rescaled_rational_game_keeps_exact_counts():
    game = VotingGame((Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)), quota=Fraction(3, 4))
    assert list(banzhaf_exact(game).raw) == banzhaf_brute(game.weights, game.quota)
