import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votefuse import _exact, wmr
from votefuse._exact import pattern_outcomes
from votefuse.errors import CapacityError, DimensionError, InvalidCoalitionError
from votefuse.model import Coalition, DecisionProfile, VotingGame
from votefuse.wmr import (
    DEFAULT_MAX_WEIGHT,
    OUTCOME_A,
    OUTCOME_B,
    OUTCOME_ND,
    CanonicalWMR,
    DecisionRule,
    WinningFamily,
    enumerate_unique_wmr,
    enumeration_is_bound_stable,
    is_trade_robust,
    nearest_simple_rule,
    rule_distance,
    rule_from_game,
    rules_equivalent,
    wmr_network,
)

from oracles import random_rational_game, rule_table_brute, unique_wmr_brute


def muroga_bound(n):
    """Muroga's bound on the integer weights of a threshold function, floored."""
    # (n+1)^((n+1)/2) / 2^n (Muroga, Threshold Logic and Its Applications, 1971)
    return math.isqrt((n + 1) ** (n + 1)) >> n


def checked_bound(n):
    """The largest bound checked against the oracle, past the default by at least one.

    Muroga's bound for n <= 6; for n = 7 it is 32, where the oracle would
    take minutes, so 12 (1.5 s).
    """
    return max(DEFAULT_MAX_WEIGHT[n] + 1, muroga_bound(n) if n <= 6 else 12)


@functools.lru_cache(maxsize=None)
def brute(n, bound):
    return unique_wmr_brute(n, bound)


def traced_peak(call):
    """The result of ``call()`` and the peak of memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rule_table_matches_brute_force_on_random_weights():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 6)
        weights = [rng.randint(0, 5) for _ in range(n)]
        bias = rng.randint(-sum(weights), sum(weights))
        rule = rule_from_game(VotingGame(weights, quota=0), bias=bias)
        assert rule.table.tolist() == rule_table_brute(weights, bias)


class TestDecisionRule:
    def test_majority_of_three_table(self):
        rule = CanonicalWMR((1, 1, 1)).rule()
        assert rule.evaluate(DecisionProfile((-1, -1, -1))) == OUTCOME_B
        assert rule.evaluate(DecisionProfile((1, 1, -1))) == OUTCOME_A
        assert rule.evaluate(DecisionProfile((1, -1, -1))) == OUTCOME_B
        assert rule.is_decisive() and rule.is_monotone()

    def test_profile_index_and_profile_object_agree(self):
        rule = CanonicalWMR((2, 1, 1)).rule()
        for m in range(8):
            assert rule.evaluate(m) == rule.evaluate(DecisionProfile.from_index(m, 3))

    def test_even_split_is_no_decision(self):
        rule = CanonicalWMR((1, 1)).rule()
        assert rule.evaluate(DecisionProfile((1, -1))) == OUTCOME_ND
        assert not rule.is_decisive()

    def test_bias_shifts_the_threshold(self):
        lean_b = rule_from_game(VotingGame((1, 1, 1), quota=0), bias=2)
        assert lean_b.evaluate(DecisionProfile((1, 1, -1))) == OUTCOME_B
        assert lean_b.evaluate(DecisionProfile((1, 1, 1))) == OUTCOME_A

    def test_fractional_bias_is_exact(self):
        rule = rule_from_game(VotingGame(("1/3", "1/3", "1/3"), quota=0), bias="1/3")
        assert rule.evaluate(DecisionProfile((1, 1, -1))) == OUTCOME_ND

    def test_bias_beyond_total_weight_is_rejected(self):
        with pytest.raises(ValueError):
            rule_from_game(VotingGame((1, 1), quota=0), bias=3)

    def test_table_is_read_only(self):
        rule = CanonicalWMR((1, 1, 1)).rule()
        with pytest.raises(ValueError):
            rule.table[0] = OUTCOME_A

    def test_equality_is_by_table_and_the_repr_shows_small_tables(self):
        rule = CanonicalWMR((1, 1, 1)).rule()
        assert rule == DecisionRule(3, rule.table.tolist())
        assert rule != DecisionRule(3, -rule.table) and rule != rule.table
        assert rule != DecisionRule(2, [-1, -1, 1, 1])
        with pytest.raises(TypeError):
            hash(rule)
        assert repr(rule) == "DecisionRule(n=3, table=BBBABAAA)"
        assert repr(CanonicalWMR((1, 1)).rule()) == "DecisionRule(n=2, table=B..A)"
        assert repr(CanonicalWMR((1,) * 7).rule()) == "DecisionRule(n=7, 2^7 entries)"

    def test_wrong_vote_count_is_a_dimension_error(self):
        rule = CanonicalWMR((1, 1, 1)).rule()
        with pytest.raises(DimensionError):
            rule.evaluate(DecisionProfile((1, -1)))

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_neutrality_flipping_every_vote_flips_the_outcome(self, weights):
        rule = CanonicalWMR(tuple(weights)).rule()
        table = rule.table
        flipped = table[::-1]  # profile ~m reverses the index order
        assert np.array_equal(flipped, -table)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=6),
           st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_every_weighted_rule_is_monotone(self, weights, bias):
        bias = max(-sum(weights), min(sum(weights), bias))
        rule = rule_from_game(VotingGame(weights, quota=0), bias=bias)
        assert rule.is_monotone()


class TestEquivalence:
    def test_scaling_weights_gives_the_same_rule(self):
        assert rules_equivalent(CanonicalWMR((1, 1, 1)).rule(),
                                CanonicalWMR((2, 2, 2)).rule())

    def test_distinct_rules_differ_on_a_profile(self):
        a = CanonicalWMR((2, 1, 1, 1)).rule()
        b = CanonicalWMR((3, 1, 1, 1)).rule()
        assert not rules_equivalent(a, b)
        assert rule_distance(a, b) == 2

    def test_distance_requires_matching_sizes(self):
        with pytest.raises(DimensionError):
            rule_distance(CanonicalWMR((1, 1)).rule(), CanonicalWMR((1, 1, 1)).rule())


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 3), (5, 7)])
    def test_unique_decisive_rule_counts(self, n, count):
        assert len(enumerate_unique_wmr(n)) == count

    def test_number_of_players_six(self):
        assert len(enumerate_unique_wmr(6)) == 21

    def test_canonical_weight_vectors_for_four_players(self):
        rules = enumerate_unique_wmr(4)
        assert [r.weights for r in rules] == [
            (1, 0, 0, 0),
            (1, 1, 1, 0),
            (2, 1, 1, 1),
        ]

    def test_canonical_weight_vectors_for_five_players(self):
        rules = enumerate_unique_wmr(5)
        assert [r.weights for r in rules] == [
            (1, 0, 0, 0, 0),
            (1, 1, 1, 0, 0),
            (1, 1, 1, 1, 1),
            (2, 1, 1, 1, 0),
            (2, 2, 1, 1, 1),
            (3, 1, 1, 1, 1),
            (3, 2, 2, 1, 1),
        ]

    def test_representatives_are_pairwise_distinct(self):
        rules = enumerate_unique_wmr(5)
        for a, b in itertools.combinations(rules, 2):
            assert not rules_equivalent(a.rule(), b.rule())

    def test_every_representative_is_decisive_and_monotone(self):
        # an odd total also keeps every earlier vector inside the default scan
        for wmr in itertools.chain.from_iterable(map(enumerate_unique_wmr, range(1, 8))):
            rule = wmr.rule()
            assert rule.is_decisive() and rule.is_monotone()
            assert sum(wmr.weights) % 2 == 1

    def test_default_bound_is_stable(self):
        # a lookup; test_stability_is_what_the_next_bound_finds checks it
        for n in range(1, 8):
            assert enumeration_is_bound_stable(n)

    def test_too_small_a_bound_misses_rules(self):
        assert len(enumerate_unique_wmr(5, max_weight=2)) < 7

    def test_max_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            enumerate_unique_wmr(3, max_weight=0)

    def test_capacity_gate(self):
        with pytest.raises(CapacityError):
            enumerate_unique_wmr(25)

    @pytest.mark.parametrize("n", [8])
    def test_stability_outside_one_to_seven_is_a_capacity_error(self, n):
        with pytest.raises(CapacityError, match="no bound is known"):
            enumeration_is_bound_stable(n)

    @pytest.mark.parametrize("n", [0, -1])
    def test_voter_counts_below_one_are_a_dimension_error(self, n):
        for call in (enumerate_unique_wmr, enumeration_is_bound_stable):
            with pytest.raises(DimensionError, match="at least one voter is required"):
                call(n)
            with pytest.raises(DimensionError, match="at least one voter is required"):
                call(n, 3)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_an_even_total_decides_as_its_odd_twin(self, n):
        # the odd twin lowers the last positive entry by one: non-increasing,
        # within the bound, earlier in lexicographic order
        twins = 0
        for bound in range(1, DEFAULT_MAX_WEIGHT[n] + 1):
            ascending = itertools.combinations_with_replacement(range(bound + 1), n)
            vectors = [v[::-1] for v in ascending]
            tables = dict(zip(vectors, pattern_outcomes(np.array(vectors), 0)))
            for v, table in tables.items():
                if sum(v) % 2 == 0 and table.all():
                    last = max(i for i, w in enumerate(v) if w)
                    twin = v[:last] + (v[last] - 1,) + v[last + 1 :]
                    assert twin < v and np.array_equal(tables[twin], table), (v, twin)
                    twins += 1
        # bound 1 has no decisive even total: its sums are sums of +-1
        assert twins > 0 or DEFAULT_MAX_WEIGHT[n] == 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_an_odd_total_rule_is_self_dual(self, n):
        vectors = [v for v in itertools.combinations_with_replacement(range(10), n)
                   if sum(v) % 2 == 1]
        tables = pattern_outcomes(np.array(vectors), 0)
        assert tables.all() and np.array_equal(tables[:, ::-1], -tables)

    def test_bounds_past_the_default_reuse_its_scan(self):
        # no bound is priced or refused: C(10^6 + 7, 7) vectors could not be scanned
        default = enumerate_unique_wmr(7)
        for bound in (18, 40, 10**6):
            assert enumerate_unique_wmr(7, bound) == default
        # and stability is a lookup, with no scan at any bound
        scan = mock.patch.object(wmr, "enumerate_unique_wmr", side_effect=AssertionError("scan"))
        with scan:
            assert enumeration_is_bound_stable(7, 18) and enumeration_is_bound_stable(7, 10**6)
            assert not enumeration_is_bound_stable(7, 8)

    def test_a_huge_bound_holds_no_more_than_the_default_scan(self):
        # at 2^22 the whole weight-vector column took 132 MiB traced
        rules, peak = traced_peak(lambda: enumerate_unique_wmr(1, 2**28 - 1))
        assert [r.weights for r in rules] == [(1,)]
        assert peak < 1 << 20

    def test_the_scan_holds_one_block_of_sums_at_a_time(self, monkeypatch):
        # C(16, 7) = 11,440 weight vectors at the default bound 9, which bound
        # 12 scans: their whole (vectors, 2^7) float64 sum matrix alone would
        # take 11 MiB; blocks of 2^14 sums split the scan into 90 blocks
        monkeypatch.setattr(_exact, "OUTCOME_BLOCK", 1 << 14)
        rules, peak = traced_peak(lambda: enumerate_unique_wmr(7, 12))
        assert peak < 4 << 20
        assert len(rules) == 135

    def test_default_bounds_exist_for_small_sizes(self):
        assert DEFAULT_MAX_WEIGHT[7] == 9

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_a_dict_dedup_reference_at_every_bound(self, n):
        # past the default bound the scan stops there, so this also checks
        # that no larger bound up to checked_bound(n) finds other vectors
        for bound in range(1, checked_bound(n) + 1):
            got = [c.weights for c in enumerate_unique_wmr(n, bound)]
            assert got == brute(n, bound), bound

    @pytest.mark.parametrize("n", range(1, 8))
    def test_stability_is_what_the_next_bound_finds(self, n):
        # the oracle's count rises at every bound below the default, and not after
        for bound in range(1, checked_bound(n)):
            stable = len(brute(n, bound)) == len(brute(n, bound + 1))
            assert enumeration_is_bound_stable(n, bound) == stable, bound
            assert stable == (bound >= DEFAULT_MAX_WEIGHT[n])


class TestNetwork:
    def test_disagreement_counts_for_four_players(self):
        rules = enumerate_unique_wmr(4)
        dist = wmr_network(rules)
        assert dist.shape == (3, 3)
        assert dist[0, 0] == 0
        assert dist[1, 2] == 2
        assert np.array_equal(dist, dist.T)

    def test_empty_input_yields_an_empty_matrix(self):
        assert wmr_network([]).shape == (0, 0)

    def test_mixed_sizes_are_rejected(self):
        with pytest.raises(DimensionError):
            wmr_network([CanonicalWMR((1, 1, 1)), CanonicalWMR((1, 1, 1, 1, 1))])

    def test_temporaries_hold_one_rule_against_all(self):
        rng = random.Random(5)
        rules = [
            rule_from_game(VotingGame([rng.randint(1, 9) for _ in range(16)])) for _ in range(30)
        ]
        dist, peak = traced_peak(lambda: wmr_network(rules))
        assert peak < 4 * len(rules) << 16
        assert dist[3, 7] == dist[7, 3] == rule_distance(rules[3], rules[7])


class TestNearestSimpleRule:
    def test_dominant_expert_maps_to_a_dictatorship(self):
        # 3.0 outweighs the other three combined, so the expert decides alone
        res = nearest_simple_rule((3.0, 0.7, 0.7, 0.7))
        assert res.candidate.weights == (1, 0, 0, 0)
        assert res.disagreements == 0

    def test_log_odds_of_one_strong_judge_maps_to_a_dictatorship(self):
        from votefuse.jury import optimal_weights

        target = optimal_weights((0.9, 0.6, 0.6, 0.6))
        res = nearest_simple_rule(target)
        assert res.candidate.weights == (1, 0, 0, 0)
        assert res.disagreements == 0

    def test_near_tied_weights_land_on_the_closest_table(self):
        res = nearest_simple_rule((2.0, 0.7, 0.7, 0.7))
        assert res.candidate.weights == (2, 1, 1, 1)
        assert res.disagreements == 0

    def test_equal_weights_map_to_simple_majority(self):
        res = nearest_simple_rule((1.0, 1.0, 1.0, 1.0, 1.0))
        assert res.candidate.weights == (1, 1, 1, 1, 1)
        assert res.disagreements == 0

    def test_competence_breaks_distance_ties(self):
        # an all-zero target agrees with nobody; skills pick the winner
        res = nearest_simple_rule((0.0, 0.0, 0.0), skills=(0.9, 0.6, 0.6))
        assert res.competence is not None
        best = max(
            enumerate_unique_wmr(3),
            key=lambda w: _competence_of(w.weights, (0.9, 0.6, 0.6)),
        )
        assert res.candidate.weights == best.weights

    def test_a_full_tie_keeps_the_first_candidate(self):
        # an all-zero target disagrees with every decisive rule everywhere
        pair = [CanonicalWMR((1, 1, 1)), CanonicalWMR((1, 0, 0))]
        for cands in (pair, pair[::-1]):
            res = nearest_simple_rule((0.0, 0.0, 0.0), candidates=cands)
            assert res.candidate.weights == cands[0].weights and res.disagreements == 8

    def test_explicit_candidates_are_respected(self):
        only = [CanonicalWMR((1, 1, 1))]
        res = nearest_simple_rule((5.0, 1.0, 1.0), candidates=only)
        assert res.candidate.weights == (1, 1, 1)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_the_target_is_the_exact_table_of_its_weights(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        # integer-valued weights, or dyadic ones whose float sums are all exact
        top = data.draw(st.sampled_from([0, 20]), label="largest exponent")
        ks = st.integers(0, top)
        weights = [m * 2.0**-k for m, k in data.draw(
            st.lists(st.tuples(st.integers(-1024, 1024), ks), min_size=n, max_size=n))]
        # the signed sum of one profile, so that profile ties, or a step past it
        profile = data.draw(st.integers(0, (1 << n) - 1), label="tied profile")
        step = data.draw(st.sampled_from([0, 0, 1, -1]), label="step") * 2.0**-top
        bias = sum((w if profile >> i & 1 else -w for i, w in enumerate(weights)), step)
        targets = []
        distance = wmr.rule_distance

        def spy(a, b):
            targets.append(a)
            return distance(a, b)

        dictator = CanonicalWMR((1,) + (0,) * (n - 1))
        with mock.patch.object(wmr, "rule_distance", spy):
            nearest_simple_rule(weights, candidates=[dictator], bias=bias)
        assert targets[0].table.tolist() == rule_table_brute(weights, bias)

    def test_twenty_voters_stay_small(self):
        weights = np.linspace(-1.0, 2.0, 20)
        candidate = CanonicalWMR((1,) * 19 + (0,))
        res, peak = traced_peak(lambda: nearest_simple_rule(weights, candidates=[candidate]))
        assert peak < 64 << 20
        assert 0 < res.disagreements < 1 << 20


    def test_twenty_four_voters_hold_no_float_sums(self):
        # 2^24 float64 sums alone would take 128 MiB
        weights = np.linspace(-1.0, 2.0, 24)
        candidate = CanonicalWMR((1,) * 23 + (0,))
        res, peak = traced_peak(lambda: nearest_simple_rule(weights, candidates=[candidate]))
        assert peak < 96 << 20
        assert 0 < res.disagreements < 1 << 24


def _competence_of(weights, skills):
    from votefuse.jury import group_competence

    return group_competence(weights, 0.0, skills)


class TestWinningFamily:
    def test_from_game_collects_winning_coalitions(self):
        fam = WinningFamily.from_game(VotingGame((2, 1, 1), quota=2))
        assert fam.is_winning({0, 1})
        assert fam.is_winning(Coalition({0, 2}))
        assert not fam.is_winning({1, 2})
        assert not fam.is_winning({0})

    def test_from_game_matches_exact_sums_on_rational_games(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 8)
            weights, quota = random_rational_game(rng, n)
            fam = WinningFamily.from_game(VotingGame(weights, quota=quota))
            want = {
                m for m in range(1 << n)
                if sum((w for i, w in enumerate(weights) if m >> i & 1), Fraction(0)) > quota
            }
            assert fam.winning == want

    def test_minimal_winning_coalitions(self):
        fam = WinningFamily.from_game(VotingGame((2, 1, 1), quota=2))
        # masks: {0,1} -> 0b011, {0,2} -> 0b101
        assert fam.minimal_winning() == [0b011, 0b101]

    def test_upward_closure_is_enforced(self):
        with pytest.raises(ValueError):
            WinningFamily(3, frozenset({0b001}))  # superset 0b011 is missing

    @pytest.mark.parametrize("masks", [{-1}, {0b111, -8}, {0b1000}, {0b111, 1 << 70}])
    def test_masks_outside_the_players_are_refused(self, masks):
        with pytest.raises(ValueError, match=r"pass 0\.\.7"):
            WinningFamily(3, frozenset(masks))

    def test_from_minimal_builds_the_closure(self):
        fam = WinningFamily.from_minimal(3, [{0, 1}])
        assert fam.winning == frozenset({0b011, 0b111})
        assert fam.minimal_winning() == [0b011]

    def test_construction_is_capped(self):
        with pytest.raises(CapacityError):
            WinningFamily.from_minimal(13, [{0}])

    def test_a_coalition_past_the_players_is_refused_by_name(self):
        for minimal, named in (([(5,)], r"\[5\]"), ([(0, 1), (0, 5)], r"\[0, 5\]")):
            with pytest.raises(InvalidCoalitionError, match=named + " has members outside a 3-player"):
                WinningFamily.from_minimal(3, minimal)
        fam = WinningFamily.from_minimal(3, [(0, 1)])
        assert fam.is_winning(0b011) and not fam.is_winning(0b001)
        for coalition, named in ((0b1011, r"\[0, 1, 3\]"), ((0, 1, 4), r"\[0, 1, 4\]")):
            with pytest.raises(InvalidCoalitionError, match=named):
                fam.is_winning(coalition)
        with pytest.raises(InvalidCoalitionError):
            fam.is_winning(-1)


class TestTradeRobustness:
    def test_weighted_games_admit_no_witness(self):
        for weights, quota in [((2, 1, 1), 2), ((3, 2, 1, 1), "7/2"), ((1, 1, 1), None)]:
            fam = WinningFamily.from_game(VotingGame(weights, quota=quota))
            res = is_trade_robust(fam)
            assert res.robust and res.witness is None

    def test_dictatorship_is_trivially_robust(self):
        fam = WinningFamily.from_minimal(4, [{0}])
        assert is_trade_robust(fam).robust

    def test_projective_style_family_fails_with_a_verified_witness(self):
        # Fano-plane lines: a single swap can leave both traded sets losing.
        lines = [
            {0, 1, 2}, {0, 3, 4}, {0, 5, 6},
            {1, 3, 5}, {1, 4, 6}, {2, 3, 6}, {2, 4, 5},
        ]
        fam = WinningFamily.from_minimal(7, lines)
        res = is_trade_robust(fam)
        assert not res.robust
        w = res.witness
        assert all(fam.is_winning(c) for c in w.start)
        assert not any(fam.is_winning(c) for c in w.end)
        assert 1 <= len(w.trades) <= 3
        sizes = sorted(len(c) for c in w.start)
        assert sizes == sorted(len(c) for c in w.end)

    def test_the_fano_witness_is_pinned(self):
        lines = [{0, 1, 2}, {0, 3, 4}, {0, 5, 6}, {1, 3, 5}, {1, 4, 6}, {2, 3, 6}, {2, 4, 5}]
        w = is_trade_robust(WinningFamily.from_minimal(7, lines)).witness
        assert w.start == (Coalition({0, 1, 2}), Coalition({0, 3, 4}))
        assert w.trades == ((1, 3),)
        assert w.end == (Coalition({0, 2, 3}), Coalition({0, 1, 4}))

    def test_witnesses_of_seeded_families_are_pinned(self):
        # seed -> (start masks, trades); every other seed's family is robust
        pinned = {
            0: ((14, 25), ((1, 0),)), 10: ((27, 78), ((0, 2),)), 27: ((114, 169), ((1, 0),)),
            35: ((12, 81), ((2, 0),)), 38: ((15, 49), ((1, 4),)), 40: ((24, 36), ((3, 2),)),
            41: ((10, 33), ((1, 0),)),
        }
        for seed in range(50):
            rng = random.Random(seed)
            n = rng.randint(3, 8)
            mins = [rng.sample(range(n), rng.randint(1, n - 1)) for _ in range(rng.randint(2, 8))]
            fam = WinningFamily.from_minimal(n, mins)
            w = is_trade_robust(fam, rng.randint(1, 3)).witness
            got = None if w is None else (tuple(c.mask for c in w.start), w.trades)
            assert got == pinned.get(seed), seed
            if w is not None:
                assert not any(fam.is_winning(c) for c in w.end)

    def test_two_disjoint_pairs_fail_in_one_trade(self):
        fam = WinningFamily.from_minimal(4, [{0, 1}, {2, 3}])
        res = is_trade_robust(fam)
        assert not res.robust
        assert len(res.witness.trades) == 1

    def test_trade_cap_must_be_positive(self):
        fam = WinningFamily.from_minimal(4, [{0, 1}])
        with pytest.raises(ValueError):
            is_trade_robust(fam, trade_size_cap=0)

    def test_capacity_gate(self):
        with pytest.raises(CapacityError):
            is_trade_robust(VotingGame((1,) * 13))
