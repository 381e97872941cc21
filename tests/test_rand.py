"""The chunked Monte Carlo contract of ``votefuse._rand``.

Every estimator draws through one driver, so a seed fixes its result to the
last bit. The pinned values below span more than one chunk; any change to the
streams, the chunking or the order of the running sums shows up here as a
changed ``repr``.
"""

import re
from pathlib import Path

import pytest

from votefuse import (
    ScoringVector,
    VotingGame,
    competence_monte_carlo,
    condorcet_efficiency,
    power_monte_carlo,
)
from votefuse._rand import CHUNK

SRC = Path(__file__).resolve().parents[1] / "src" / "votefuse"
TRIALS = CHUNK + 17
GAME = VotingGame((5, 3, 3, 2, 1, 1), 7)
LOSING = VotingGame((2, 1, 1), 4)  # quota = total weight: even the grand coalition loses


PINNED = [
    (
        lambda: power_monte_carlo(GAME, "banzhaf", TRIALS, 3),
        "PowerReport(kind='banzhaf', method='monte-carlo', raw=(22.002593321434563, "
        "9.888548197641603, 10.065260171159215, 5.931566823791436, 2.0214482937470444, "
        "2.014125974402392), normalized=(0.42374984722705356, 0.1904444047495934, "
        "0.19384771592693226, 0.11423655833106135, 0.038931247473370505, "
        "0.03879022629198906), stderr=(0.001463070264460999, 0.0009254861071202442, "
        "0.0009279494138307062, 0.0008108976694399465, 0.0005462987260601688, "
        "0.0005454843389163203))",
    ),
    (
        lambda: power_monte_carlo(GAME, "shapley", TRIALS, 3),
        "PowerReport(kind='shapley', method='monte-carlo', raw=(0.434549143441185, "
        "0.2014095464738456, 0.19771787713758332, 0.10190227754641283, 0.0328436532271597, "
        "0.031577502173813554), normalized=(0.434549143441185, 0.2014095464738456, "
        "0.19771787713758332, 0.10190227754641283, 0.0328436532271597, "
        "0.031577502173813554), stderr=(0.0019360679532833722, 0.0015664112624165537, "
        "0.0015555724431695005, 0.0011815645621530044, 0.0006961098614276014, "
        "0.0006830068134180743))",
    ),
    (
        lambda: power_monte_carlo(LOSING, "banzhaf", TRIALS, 3),
        "PowerReport(kind='banzhaf', method='monte-carlo', raw=(0.0, 0.0, 0.0), "
        "normalized=(0.0, 0.0, 0.0), stderr=(0.0, 0.0, 0.0))",
    ),
    (
        lambda: power_monte_carlo(LOSING, "shapley", TRIALS, 3),
        "PowerReport(kind='shapley', method='monte-carlo', raw=(0.0, 0.0, 0.0), "
        "normalized=(0.0, 0.0, 0.0), stderr=(0.0, 0.0, 0.0))",
    ),
    (
        lambda: competence_monte_carlo(
            (2, 1, 1, 1, 1), 0, (0.7, 0.6, 0.55, 0.5, 0.65), TRIALS, 7, "coin-flip"
        ),
        "CompetenceEstimate(value=0.6961466294448767, stderr=0.0015436882112224528, "
        "trials=65553, seed=7)",
    ),
    (
        lambda: condorcet_efficiency(
            ScoringVector.plurality(4), 4, 6, "monte-carlo", "fail", TRIALS, 11
        ),
        "EfficiencyResult(value=0.8271236396614269, method='monte-carlo', tie_policy='fail', "
        "exact=None, profiles_with_winner=26464, stderr=0.0023245210511349795, "
        "ci95=(0.8225675784012023, 0.8316797009216514), trials=65553, seed=11)",
    ),
    (
        lambda: condorcet_efficiency(
            ScoringVector.plurality(4), 4, 6, "monte-carlo", "split-credit", TRIALS, 11
        ),
        "EfficiencyResult(value=0.8996876259572752, method='monte-carlo', "
        "tie_policy='split-credit', exact=None, profiles_with_winner=26464, "
        "stderr=0.0014007787869721878, ci95=(0.8969420995348097, 0.9024331523797408), "
        "trials=65553, seed=11)",
    ),
]


@pytest.mark.parametrize("run, expected", PINNED)
def test_seeded_estimates_are_pinned_to_the_bit(run, expected):
    assert repr(run()) == expected


def test_only_rand_makes_generators():
    """Every sampler goes through ``_rand``, so none can bypass chunk-stable seeding."""
    offenders = [
        f"{path.name}:{line_no}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "_rand.py"
        for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"\b(default_rng|chunk_rng|chunk_sizes)\b", line)
    ]
    assert not offenders, f"random streams made outside _rand: {offenders}"
