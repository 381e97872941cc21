import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votefuse import _exact
from votefuse.errors import CapacityError
from votefuse.model import VotingGame, integer_form
from votefuse.power import banzhaf_exact, power_exact, power_monte_carlo, shapley_shubik_exact

from oracles import banzhaf_brute, random_rational_game, shapley_brute

#: 30 large distinct weights: both the counting DP (over a quota near 1.5e10)
#: and the 2^30 enumeration are far over the exact work cap.
OVER_THE_WORK_CAP = VotingGame(tuple(10**9 + i for i in range(30)))


class TestBanzhafExact:
    def test_worked_example(self):
        rep = banzhaf_exact(VotingGame((2, 1, 1), quota=2))
        assert rep.raw == (3, 1, 1)
        assert rep.normalized == (0.6, 0.2, 0.2)
        assert rep.method == "exact" and rep.stderr is None

    def test_symmetric_players_share_power_equally(self):
        rep = banzhaf_exact(VotingGame((1,) * 5))
        assert len(set(rep.raw)) == 1
        assert rep.normalized == (0.2,) * 5

    def test_dummy_player_scores_zero(self):
        rep = banzhaf_exact(VotingGame((2, 1, 0), quota="3/2"))
        assert rep.raw[2] == 0

    def test_dictator_takes_everything(self):
        rep = banzhaf_exact(VotingGame((3, 1, 1), quota="5/2"))
        assert rep.normalized == (1.0, 0.0, 0.0)

    def test_no_winning_coalition_means_no_power(self):
        g = VotingGame((1, 1), quota=2)
        assert banzhaf_exact(g).normalized == (0.0, 0.0)

    def test_rescaling_the_game_changes_nothing(self):
        a = banzhaf_exact(VotingGame((2, 1, 1), quota=2))
        b = banzhaf_exact(VotingGame((1, "1/2", "1/2"), quota=1))
        assert a.raw == b.raw

    def test_matches_brute_force_on_random_games(self):
        rng = random.Random(20240817)
        for _ in range(25):
            n = rng.randint(1, 8)
            weights, quota = random_rational_game(rng, n)
            rep = banzhaf_exact(VotingGame(tuple(weights), quota))
            assert list(rep.raw) == banzhaf_brute(weights, quota)

    def test_capacity_error_names_the_monte_carlo_route(self):
        with pytest.raises(CapacityError, match="power_monte_carlo"):
            banzhaf_exact(OVER_THE_WORK_CAP)


class TestShapleyShubikExact:
    def test_worked_example(self):
        rep = shapley_shubik_exact(VotingGame((2, 1, 1), quota=2))
        assert rep.normalized == (
            float(Fraction(2, 3)),
            float(Fraction(1, 6)),
            float(Fraction(1, 6)),
        )

    def test_raw_pivot_counts_sum_to_n_factorial(self):
        rep = shapley_shubik_exact(VotingGame((3, 2, 1, 1)))
        assert sum(rep.raw) == math.factorial(4)

    def test_symmetric_majority_splits_evenly(self):
        rep = shapley_shubik_exact(VotingGame((1, 1, 1), quota="3/2"))
        assert rep.normalized == (float(Fraction(1, 3)),) * 3

    def test_dictator_takes_everything(self):
        rep = shapley_shubik_exact(VotingGame((1, 0, 0), quota="1/2"))
        assert rep.normalized == (1.0, 0.0, 0.0)

    def test_no_winning_coalition_means_no_power(self):
        g = VotingGame((1, 1), quota=2)
        rep = shapley_shubik_exact(g)
        assert rep.raw == (0, 0) and rep.normalized == (0.0, 0.0)

    def test_matches_permutation_walk_on_random_games(self):
        rng = random.Random(99)
        for _ in range(20):
            n = rng.randint(1, 6)
            weights, quota = random_rational_game(rng, n)
            rep = shapley_shubik_exact(VotingGame(tuple(weights), quota))
            brute = shapley_brute(weights, quota)
            assert rep.normalized == tuple(float(x) for x in brute)

    def test_capacity_error_names_the_monte_carlo_route(self):
        with pytest.raises(CapacityError, match="power_monte_carlo"):
            shapley_shubik_exact(OVER_THE_WORK_CAP)


@st.composite
def games(draw):
    """Up to 14 players, integer or fraction weights, and a quota anywhere in [0, total]."""
    n = draw(st.integers(1, 14))
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    else:
        fraction = st.builds(Fraction, st.integers(0, 12), st.integers(1, 6))
        weights = draw(st.lists(fraction, min_size=n, max_size=n))
    total = sum(weights, Fraction(0))
    return VotingGame(tuple(weights), total * draw(st.integers(0, 24)) / 24)


class TestBothIndices:
    """``power_exact`` reads both indices off the one table Shapley-Shubik builds."""

    @settings(max_examples=60, deadline=None)
    @given(games())
    def test_banzhaf_from_the_shared_table_on_each_route(self, game):
        ws, q = integer_form(game)
        want = _exact.power_counts(ws.tolist(), q, kinds=("banzhaf",))[0]
        if game.n <= 9:  # the brute force takes seconds past that
            assert want == banzhaf_brute(list(game.weights), game.quota)
        for route in ("dp", "enumeration"):
            both = _exact.power_counts(ws.tolist(), q, route)
            assert both[0] == _exact.power_counts(ws.tolist(), q, route, ("banzhaf",))[0] == want
            assert both[1] == _exact.power_counts(ws.tolist(), q, route, ("shapley",))[0]
        assert power_exact(game) == (banzhaf_exact(game), shapley_shubik_exact(game))

    def test_a_game_both_refuse_is_refused_as_banzhaf(self):
        with pytest.raises(CapacityError) as both:
            power_exact(OVER_THE_WORK_CAP)
        with pytest.raises(CapacityError) as alone:
            banzhaf_exact(OVER_THE_WORK_CAP)
        assert str(both.value) == str(alone.value) == (
            "exact Banzhaf needs an estimated 32,212,254,720 work units (counting DP "
            "450,000,006,540 cells, enumeration n*2^n = 32,212,254,720), over the limit of "
            "536,870,912. Use power_monte_carlo(game, kind='banzhaf') instead."
        )

    def test_a_game_only_banzhaf_answers_is_refused_as_shapley_shubik(self):
        # 25 players: the 2^25 enumeration is over the cap, and so is the
        # Shapley-Shubik DP up to a quota near 10^6, but not the Banzhaf DP
        game = VotingGame(tuple(80_000 + 37 * i for i in range(25)))
        assert min(banzhaf_exact(game).raw) > 0
        with pytest.raises(CapacityError) as both:
            power_exact(game)
        with pytest.raises(CapacityError) as alone:
            shapley_shubik_exact(game)
        assert str(both.value) == str(alone.value)
        assert "exact Shapley-Shubik needs" in str(both.value)


class TestNormalization:
    """Exact counts are normalized by int true division, which CPython rounds correctly."""

    def test_int_division_is_the_rounded_fraction(self):
        rng = random.Random(18)
        for _ in range(20_000):
            total = rng.getrandbits(rng.randint(1, 300)) + 1
            r = rng.randrange(total + 1)
            assert r / total == float(Fraction(r, total))

    @pytest.mark.parametrize("exact", [banzhaf_exact, shapley_shubik_exact])
    def test_reports_normalize_as_the_exact_fraction(self, exact):
        # 26 players: Shapley-Shubik counts near 26!, past any float's integers
        rep = exact(VotingGame(tuple(range(1, 27))))
        total = sum(rep.raw)
        assert rep.normalized == tuple(float(Fraction(r, total)) for r in rep.raw)


class TestRescaledGames:
    """A positive rescaling of the weights changes neither the counts nor whether there are any."""

    def test_a_game_scaled_by_a_million_is_answered_alike(self):
        game = VotingGame(tuple(range(1, 27)))
        scaled = VotingGame(tuple(10**6 * w for w in range(1, 27)))
        for exact in (banzhaf_exact, shapley_shubik_exact):
            assert exact(scaled).raw == exact(game).raw

    def test_a_large_game_with_gcd_one_is_still_refused(self):
        # gcd 1 and an odd total: the reduced quota is the raw one rounded down
        q = int(OVER_THE_WORK_CAP.total_weight) // 2
        for exact, cells in ((banzhaf_exact, 30 * (q + 1)), (shapley_shubik_exact, 30 * 31 * (q + 1))):
            with pytest.raises(CapacityError, match=f"counting DP {cells:,} cells"):
                exact(OVER_THE_WORK_CAP)


class TestHundredPlayers:
    """Games past the 63-player coalition masks: the DP and sampling use no masks."""

    GAME = VotingGame((1,) * 100)  # quota 50

    def test_banzhaf_counts_are_exact(self):
        rep = banzhaf_exact(self.GAME)
        assert rep.raw == (math.comb(99, 50),) * 100
        assert rep.normalized == (0.01,) * 100

    @pytest.mark.parametrize("kind", ["banzhaf", "shapley"])
    def test_monte_carlo_runs(self, kind):
        rep = power_monte_carlo(self.GAME, kind, trials=2_000, seed=3)
        assert len(rep.normalized) == 100
        assert abs(sum(rep.normalized) - 1.0) < 1e-9


class TestPowerMonteCarlo:
    def test_same_seed_means_identical_output(self):
        g = VotingGame((3, 2, 1, 1), quota="7/2")
        a = power_monte_carlo(g, "banzhaf", trials=70_000, seed=11)
        b = power_monte_carlo(g, "banzhaf", trials=70_000, seed=11)
        assert a == b
        c = power_monte_carlo(g, "banzhaf", trials=70_000, seed=12)
        assert a.normalized != c.normalized

    def test_trial_budget_crossing_a_chunk_boundary_is_fine(self):
        g = VotingGame((2, 1, 1), quota=2)
        rep = power_monte_carlo(g, "banzhaf", trials=(1 << 16) + 17, seed=0)
        assert abs(sum(rep.normalized) - 1.0) < 1e-12

    @pytest.mark.parametrize("kind", ["banzhaf", "shapley"])
    def test_estimates_land_near_the_exact_index(self, kind):
        g = VotingGame((3, 2, 1, 1), quota="7/2")
        exact = banzhaf_exact(g) if kind == "banzhaf" else shapley_shubik_exact(g)
        rep = power_monte_carlo(g, kind, trials=200_000, seed=4)
        for est, ref, se in zip(rep.normalized, exact.normalized, rep.stderr):
            assert abs(est - ref) <= 4 * se + 1e-9

    def test_coalition_weights_past_two_to_the_53_stay_exact(self):
        # float64 rounds 2**53 + 2**52 + 2 down onto the quota, which handed
        # the dummy (weight 1) swings
        g = VotingGame((2**53, 2**52 + 1, 3, 1), 2**53 + 1)
        exact = banzhaf_exact(g)
        rep = power_monte_carlo(g, "banzhaf", trials=20_000, seed=1)
        assert exact.normalized[3] == 0.0 and rep.normalized[3] == 0.0
        for est, ref, se in zip(rep.normalized[:3], exact.normalized, rep.stderr):
            assert abs(est - ref) <= 4 * se

    def test_stderr_shrinks_with_more_trials(self):
        g = VotingGame((3, 2, 1, 1), quota="7/2")
        small = power_monte_carlo(g, "banzhaf", trials=1_000, seed=1)
        big = power_monte_carlo(g, "banzhaf", trials=64_000, seed=1)
        assert max(big.stderr) < max(small.stderr)

    def test_shapley_estimates_sum_to_one(self):
        g = VotingGame((3, 2, 1, 1), quota="7/2")
        rep = power_monte_carlo(g, "shapley", trials=10_000, seed=2)
        assert abs(sum(rep.normalized) - 1.0) < 1e-12

    def test_no_winning_coalition_means_zero_estimates(self):
        g = VotingGame((1, 1), quota=2)
        rep = power_monte_carlo(g, "shapley", trials=1_000, seed=0)
        assert rep.normalized == (0.0, 0.0)

    def test_rejects_unknown_kind_and_bad_trials(self):
        g = VotingGame((1, 1))
        with pytest.raises(ValueError):
            power_monte_carlo(g, "other")
        with pytest.raises(ValueError):
            power_monte_carlo(g, "banzhaf", trials=0)
