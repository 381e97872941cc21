from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from votefuse.errors import DataError, DimensionError, InvalidCoalitionError, WeightScaleError
from votefuse.model import (
    MAX_PLAYERS,
    Coalition,
    DecisionProfile,
    SkillProfile,
    VotingGame,
    as_fraction,
    coalition_weight,
    integer_form,
    is_winning,
)


class TestVotingGame:
    def test_quota_defaults_to_half_the_total(self):
        g = VotingGame((2, 1, 1))
        assert g.quota == Fraction(2)
        assert g.total_weight == Fraction(4)

    def test_weights_are_coerced_to_exact_fractions(self):
        g = VotingGame(("1/3", 0.5, 2), quota="4/3")
        assert g.weights == (Fraction(1, 3), Fraction(1, 2), Fraction(2))
        assert g.quota == Fraction(4, 3)

    def test_exactly_the_quota_is_losing(self):
        g = VotingGame((1, 1), quota=1)
        assert not is_winning(g, [0])
        assert is_winning(g, [0, 1])

    def test_rational_weights_never_suffer_rounding(self):
        # 1/10 + 2/10 equals 3/10 exactly, which is not strictly above it
        g = VotingGame(("1/10", "2/10"), quota="3/10")
        assert not is_winning(g, [0, 1])
        g2 = VotingGame(("1/10", "2/10"), quota="29/100")
        assert is_winning(g2, [0, 1])

    def test_rejects_negative_weight_and_bad_quota(self):
        with pytest.raises(ValueError):
            VotingGame((1, -1))
        with pytest.raises(ValueError):
            VotingGame((1, 1), quota=3)
        with pytest.raises(DimensionError):
            VotingGame(())

    def test_games_may_outgrow_the_coalition_masks(self):
        assert VotingGame((1,) * (MAX_PLAYERS + 1)).n == MAX_PLAYERS + 1


class TestCoalition:
    def test_membership_and_size(self):
        c = Coalition([0, 2, 5])
        assert 2 in c and 1 not in c
        assert len(c) == 3
        assert c.members == (0, 2, 5)
        assert list(c) == [0, 2, 5]

    def test_set_algebra(self):
        a, b = Coalition([0, 1]), Coalition([1, 2])
        assert (a | b).members == (0, 1, 2)
        assert (a & b).members == (1,)
        assert (a - b).members == (0,)

    def test_mask_round_trip(self):
        c = Coalition([1, 3])
        assert Coalition.from_mask(c.mask) == c
        assert hash(Coalition([1, 3])) == hash(c)

    def test_rejects_out_of_range_members(self):
        with pytest.raises(InvalidCoalitionError):
            Coalition([-1])
        with pytest.raises(InvalidCoalitionError):
            Coalition([MAX_PLAYERS])

    def test_members_outside_the_game_are_rejected(self):
        g = VotingGame((1, 1))
        with pytest.raises(InvalidCoalitionError):
            coalition_weight(g, [2])


class TestCoalitionWeight:
    def test_weight_is_exact(self):
        g = VotingGame(("1/3", "1/3", "1/3"))
        assert coalition_weight(g, [0, 1]) == Fraction(2, 3)
        assert coalition_weight(g, []) == 0

    @given(st.integers(1, 8), st.data())
    def test_complement_weight_adds_to_total(self, n, data):
        weights = data.draw(
            st.lists(st.fractions(0, 5, max_denominator=4), min_size=n, max_size=n)
        )
        g = VotingGame(tuple(weights))
        mask = data.draw(st.integers(0, (1 << n) - 1))
        c = Coalition.from_mask(mask)
        comp = Coalition.from_mask(((1 << n) - 1) ^ mask)
        assert coalition_weight(g, c) + coalition_weight(g, comp) == g.total_weight

    @given(st.integers(1, 8), st.data())
    def test_weight_is_monotone_under_inclusion(self, n, data):
        weights = data.draw(
            st.lists(st.fractions(0, 5, max_denominator=4), min_size=n, max_size=n)
        )
        g = VotingGame(tuple(weights))
        small = data.draw(st.integers(0, (1 << n) - 1))
        extra = data.draw(st.integers(0, (1 << n) - 1))
        big = small | extra
        assert coalition_weight(g, Coalition.from_mask(big)) >= coalition_weight(
            g, Coalition.from_mask(small)
        )
        if is_winning(g, Coalition.from_mask(small)):
            assert is_winning(g, Coalition.from_mask(big))


class TestIntegerForm:
    def test_rescaling_preserves_winning_exactly(self):
        g = VotingGame(("1/3", "1/2", "2/3"), quota="3/4")
        ws, quota = integer_form(g)
        for mask in range(1 << g.n):
            scaled = sum(int(w) for i, w in enumerate(ws) if mask >> i & 1)
            assert (scaled > quota) == is_winning(g, Coalition.from_mask(mask))

    @given(
        st.one_of(  # all integers, or fractions: both paths of the total
            st.lists(st.integers(0, 50).map(Fraction), min_size=1, max_size=8),
            st.lists(st.fractions(0, 50, max_denominator=12), min_size=1, max_size=8),
        ),
        st.fractions(min_value=0, max_value=1, max_denominator=7),
    )
    def test_scaling_is_the_fraction_product(self, weights, share):
        g = VotingGame(tuple(weights), sum(weights) * share)
        assert g.total_weight == sum(weights) and g.quota == sum(weights) * share
        scale = np.lcm.reduce([w.denominator for w in g.weights] + [g.quota.denominator])
        ws, quota = integer_form(g)
        assert ws.tolist() == [int(w * int(scale)) for w in g.weights]
        assert quota == int(g.quota * int(scale)) and type(quota) is int

    def test_scale_past_64_bits_is_a_data_error(self):
        g = VotingGame(("1/1000000007", "1/1000000009", "1/998244353", 5))
        with pytest.raises(WeightScaleError, match="reduce denominators") as info:
            integer_form(g)
        assert isinstance(info.value, DataError) and isinstance(info.value, OverflowError)


class TestSkillProfile:
    def test_bounds_are_enforced(self):
        SkillProfile((0.0, 0.5, 1.0))
        with pytest.raises(ValueError):
            SkillProfile((1.2,))
        with pytest.raises(ValueError):
            SkillProfile((-0.1,))

    def test_skills_not_one_per_player_are_refused(self):
        for given_ in ([[0.5, 0.6]], np.full((2, 2), 0.5), 0.5):
            with pytest.raises(DimensionError, match="one value per player"):
                SkillProfile(given_)


class TestDecisionProfile:
    def test_votes_map_to_index_bits(self):
        p = DecisionProfile((1, -1, 1))
        assert p.index == 0b101
        assert DecisionProfile.from_index(5, 3) == p

    @given(st.integers(1, 10), st.data())
    def test_index_round_trip(self, n, data):
        m = data.draw(st.integers(0, (1 << n) - 1))
        assert DecisionProfile.from_index(m, n).index == m

    def test_rejects_non_unit_votes(self):
        with pytest.raises(ValueError):
            DecisionProfile((1, 0))


def test_as_fraction_accepts_common_forms():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction(2) == 2
    assert as_fraction(0.25) == Fraction(1, 4)


@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan"), np.float32("inf")])
def test_as_fraction_refuses_a_non_finite_float_by_name(bad):
    with pytest.raises(ValueError, match=f"^not a finite number: {float(bad)!r}$"):
        as_fraction(bad)
