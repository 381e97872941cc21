"""The chunked Monte Carlo contract of ``votefuse._rand``.

Every estimator draws through one driver, so a seed fixes its result to the
last bit. The pinned values below span more than one chunk; any change to the
streams, the chunking or the order of the running sums shows up here as a
changed ``repr``.
"""

import ast
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from votefuse import _exact, _rand, jury, power, scoring
from votefuse import (
    ScoringVector,
    VotingGame,
    competence_monte_carlo,
    condorcet_efficiency,
    optimal_weights,
    power_monte_carlo,
)
from votefuse._rand import CHUNK

from oracles import score_profiles_gather

SRC = Path(__file__).resolve().parents[1] / "src" / "votefuse"
TRIALS = CHUNK + 17
GAME = VotingGame((5, 3, 3, 2, 1, 1), 7)
LOSING = VotingGame((2, 1, 1), 4)  # quota = total weight: even the grand coalition loses
SKILLS = (0.7, 0.6, 0.55, 0.65, 0.8)
GAME30 = VotingGame(tuple(i % 7 + 1 for i in range(30)), 60)


PINNED = [
    pytest.param(
        lambda: power_monte_carlo(GAME, "banzhaf", TRIALS, 3),
        "PowerReport(kind='banzhaf', method='monte-carlo', raw=(22.002593321434563, "
        "9.888548197641603, 10.065260171159215, 5.931566823791436, 2.0214482937470444, "
        "2.014125974402392), normalized=(0.42374984722705356, 0.1904444047495934, "
        "0.19384771592693226, 0.11423655833106135, 0.038931247473370505, "
        "0.03879022629198906), stderr=(0.001463070264460999, 0.0009254861071202442, "
        "0.0009279494138307062, 0.0008108976694399465, 0.0005462987260601688, "
        "0.0005454843389163203))",
        id="banzhaf",
    ),
    pytest.param(
        lambda: power_monte_carlo(GAME, "shapley", TRIALS, 3),
        "PowerReport(kind='shapley', method='monte-carlo', raw=(0.434549143441185, "
        "0.2014095464738456, 0.19771787713758332, 0.10190227754641283, 0.0328436532271597, "
        "0.031577502173813554), normalized=(0.434549143441185, 0.2014095464738456, "
        "0.19771787713758332, 0.10190227754641283, 0.0328436532271597, "
        "0.031577502173813554), stderr=(0.0019360679532833722, 0.0015664112624165537, "
        "0.0015555724431695005, 0.0011815645621530044, 0.0006961098614276014, "
        "0.0006830068134180743))",
        id="shapley",
    ),
    pytest.param(
        lambda: power_monte_carlo(LOSING, "banzhaf", TRIALS, 3),
        "PowerReport(kind='banzhaf', method='monte-carlo', raw=(0.0, 0.0, 0.0), "
        "normalized=(0.0, 0.0, 0.0), stderr=(0.0, 0.0, 0.0))",
        id="banzhaf-losing-game",
    ),
    pytest.param(
        lambda: power_monte_carlo(LOSING, "shapley", TRIALS, 3),
        "PowerReport(kind='shapley', method='monte-carlo', raw=(0.0, 0.0, 0.0), "
        "normalized=(0.0, 0.0, 0.0), stderr=(0.0, 0.0, 0.0))",
        id="shapley-losing-game",
    ),
    pytest.param(
        lambda: competence_monte_carlo(
            (2, 1, 1, 1, 1), 0, (0.7, 0.6, 0.55, 0.5, 0.65), TRIALS, 7, "coin-flip"
        ),
        "CompetenceEstimate(value=0.6961466294448767, stderr=0.0015436882112224528, "
        "trials=65553, seed=7)",
        id="competence-integer-weights",
    ),
    pytest.param(
        lambda: condorcet_efficiency(
            ScoringVector.plurality(4), 4, 6, "monte-carlo", "fail", TRIALS, 11
        ),
        "EfficiencyResult(value=0.8271236396614269, method='monte-carlo', tie_policy='fail', "
        "exact=None, profiles_with_winner=26464, stderr=0.0023245210511349795, "
        "ci95=(0.8225675784012023, 0.8316797009216514), trials=65553, seed=11)",
        id="efficiency-plurality-fail",
    ),
    pytest.param(
        lambda: condorcet_efficiency(
            ScoringVector.plurality(4), 4, 6, "monte-carlo", "split-credit", TRIALS, 11
        ),
        "EfficiencyResult(value=0.8996876259572752, method='monte-carlo', "
        "tie_policy='split-credit', exact=None, profiles_with_winner=26464, "
        "stderr=0.0014007787869721863, ci95=(0.8969420995348097, 0.9024331523797408), "
        "trials=65553, seed=11)",
        id="efficiency-plurality-split-credit",
    ),
    # competence with log-odds weights: the float where-sum route
    pytest.param(
        lambda: competence_monte_carlo(optimal_weights(SKILLS), 0, SKILLS, TRIALS, 7, "coin-flip"),
        "CompetenceEstimate(value=0.8216099949659055, stderr=0.0014952890138969818, "
        "trials=65553, seed=7)",
        id="competence-log-odds-weights",
    ),
    # integer weights with 2*sum|w| >= 2^24 keep the where-sum: a float32
    # product would round 2^25 + 2 and miss the stalemates at the bias
    pytest.param(
        lambda: competence_monte_carlo(
            ((1 << 24) + 1, (1 << 24) - 1, 1, 1, 1), 1, SKILLS, TRIALS, 7, "coin-flip"
        ),
        "CompetenceEstimate(value=0.683980900950376, stderr=0.0016913636890188211, "
        "trials=65553, seed=7)",
        id="competence-wide-integer-weights",
    ),
    # negative integer weights and a non-zero integer bias
    pytest.param(
        lambda: competence_monte_carlo(
            (3, -2, 1, 2, -1, 4), 1, SKILLS + (0.4,), TRIALS, 7, "coin-flip"
        ),
        "CompetenceEstimate(value=0.4289429926929355, stderr=0.0018128705152775546, "
        "trials=65553, seed=7)",
        id="competence-negative-weights-and-bias",
    ),
    pytest.param(
        lambda: power_monte_carlo(GAME30, "banzhaf", TRIALS, 3),
        "PowerReport(kind='banzhaf', method='monte-carlo', raw=(17247877.910576176, "
        "34135401.296904795, 51375089.33192989, 69933347.330679, 87533389.88995165, "
        "105903280.75102589, 123789968.95458637, 17034941.146248072, 34331958.31013073, "
        "51768203.35838177, 69581182.68198252, 87631668.39656462, 105526546.47567616, "
        "125575361.82472198, 17297017.16388266, 34577654.57666316, 51874671.74054582, "
        "69859638.45071927, 86771731.46370113, 105026964.06706025, 124256791.86099797, "
        "17378915.91939347, 34815160.9676445, 51784583.10948393, 69687651.06414656, "
        "87156655.61460193, 105395508.46685888, 124297741.23875338, 16772865.128613489, "
        "34725072.336582616), normalized=(0.008568045989169926, 0.016957082470493948, "
        "0.025521060061758284, 0.03474004971582242, 0.04348303681493265, "
        "0.052608453317168236, 0.06149383434297409, 0.008462267643624618, "
        "0.017054724020228073, 0.025716343161226545, 0.03456510860588209, "
        "0.04353185758979972, 0.05242130701351115, 0.062380745086392436, "
        "0.008592456376603459, 0.01717677595739574, 0.025769232333999196, "
        "0.03470343413467211, 0.043104675809712896, 0.05217313474127024, "
        "0.06172573302359265, 0.008633140355659347, 0.017294759496657812, "
        "0.02572447995703772, 0.03461799777865474, 0.04329589051127557, "
        "0.052356212647021734, 0.06174607501312059, 0.008332078910645777, "
        "0.017250007119696337), stderr=(0.0001698335229284902, 0.0002197269930370557, "
        "0.0002525157186194848, 0.00028038144592646493, 0.00030742589210498115, "
        "0.00034462186192121884, 0.00039141617035404517, 0.0001689988290241288, "
        "0.00022029279829164437, 0.0002528564347335348, 0.00028019181038485373, "
        "0.0003086070468341501, 0.00034490446861569084, 0.00039148740476516506, "
        "0.00017007079819092967, 0.0002206731686913189, 0.0002526975929842581, "
        "0.0002798008879360237, 0.00030724885054687613, 0.0003451424240362437, "
        "0.0003914496898564551, 0.00017035002514594302, 0.0002212250935657249, "
        "0.0002529400048605798, 0.00027968530221177194, 0.0003081312787153449, "
        "0.00034493142090455544, 0.0003918121904451479, 0.00016798953325180738, "
        "0.00022093242495698555))",
        id="banzhaf-30-players",
    ),
    # a weight sum past 2^24: the float64 route
    pytest.param(
        lambda: power_monte_carlo(
            VotingGame((1 << 23, (1 << 22) + 1, 3 << 21, 5, 7), 1 << 24), "banzhaf", TRIALS, 3
        ),
        "PowerReport(kind='banzhaf', method='monte-carlo', raw=(4.015804005918874, "
        "4.008237609262734, 4.012875078181014, 0.0, 0.0), normalized=(0.3336239759915645, "
        "0.3329953767539946, 0.3333806472544407, 0.0, 0.0), stderr=(0.0015009800713251524, "
        "0.0014995640450811783, 0.0015004320900716985, 0.0, 0.0))",
        id="banzhaf-float64-sums",
    ),
    pytest.param(
        lambda: condorcet_efficiency(
            ScoringVector.borda(5), 5, 7, "monte-carlo", "split-credit", TRIALS, 11
        ),
        "EfficiencyResult(value=0.8734549267063971, method='monte-carlo', "
        "tie_policy='split-credit', exact=None, profiles_with_winner=51346, "
        "stderr=0.0013079773100297576, ci95=(0.8708912911787388, 0.8760185622340555), "
        "trials=65553, seed=11)",
        id="efficiency-borda-split-credit",
    ),
    # 5! rankings for 3 voters, more than 16 a voter: the int64 gather route
    pytest.param(
        lambda: condorcet_efficiency(
            ScoringVector.plurality(5), 5, 3, "monte-carlo", "fail", TRIALS, 11
        ),
        "EfficiencyResult(value=0.6202490289323701, method='monte-carlo', tie_policy='fail', "
        "exact=None, profiles_with_winner=55094, stderr=0.0020676845474972587, "
        "ci95=(0.6161963672192755, 0.6243016906454647), trials=65553, seed=11)",
        id="efficiency-gather-route",
    ),
    # integer scores times voters pass 2^24 (and 2^53): totals keep the int64 gather
    pytest.param(
        lambda: condorcet_efficiency(
            ScoringVector((2**55, 1, 0)), 3, 5, "monte-carlo", "fail", TRIALS, 11
        ),
        "EfficiencyResult(value=0.9267007109899673, method='monte-carlo', tie_policy='fail', "
        "exact=None, profiles_with_winner=60901, stderr=0.0010561144452763875, "
        "ci95=(0.9246307266772256, 0.9287706953027091), trials=65553, seed=11)",
        id="efficiency-wide-scores",
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


def test_chunk_sizes_come_one_at_a_time_for_budgets_up_to_2_53():
    assert list(_rand.chunk_sizes(2 * CHUNK + 3)) == [CHUNK, CHUNK, 3]
    assert next(iter(_rand.chunk_sizes(1 << 53))) == CHUNK  # no list of 2^37 sizes
    for trials, message in ((0, "trials must be >= 1"), ((1 << 53) + 1, "trials must be <= 2^53")):
        with pytest.raises(ValueError, match=re.escape(message)):
            _rand.chunk_sizes(trials)


def test_a_budget_is_checked_before_any_work(monkeypatch):
    """A losing Shapley-Shubik game refuses it, and efficiency before its ranking table."""
    with pytest.raises(ValueError, match=re.escape("trials must be <= 2^53")):
        power_monte_carlo(LOSING, "shapley", 10**20, 3)

    def unbuilt(*args):
        raise AssertionError("the ranking table was built for a refused budget")

    monkeypatch.setattr(scoring, "_ranking_tables", unbuilt)
    with pytest.raises(ValueError, match=re.escape("trials must be >= 1")):
        condorcet_efficiency(ScoringVector.borda(9), 9, 3, "monte-carlo", trials=0)


def test_chunk_sums_only_sees_float64_int64_or_python_numbers(monkeypatch):
    """Block statistics may be computed in float32, but are summed only as exact numbers.

    A float32 running sum would stop being exact once it passes 2^24 trials.
    Every part a block returns is an int, or a float64 or int64 array of
    integers; the jury's and the efficiency's parts are ints.
    """
    parts = {}

    def checked(trials, seed, width, block):
        def wrapped(rng, rows):
            part = block(rng, rows)
            parts.setdefault(block.__qualname__, []).extend(part)
            return part

        return _rand.chunk_sums(trials, seed, width, wrapped)

    for module in (jury, power, scoring):
        monkeypatch.setattr(module, "chunk_sums", checked)
    power_monte_carlo(GAME, "banzhaf", TRIALS, 3)
    power_monte_carlo(GAME, "shapley", TRIALS, 3)
    competence_monte_carlo((2, 1, 1, 1, 1), 0, SKILLS, TRIALS, 7)
    competence_monte_carlo(optimal_weights(SKILLS), 0, SKILLS, TRIALS, 7)
    condorcet_efficiency(ScoringVector.borda(4), 4, 6, "monte-carlo", "split-credit", TRIALS, 11)
    assert sorted(parts) == [
        "_banzhaf_mc.<locals>.swings",
        "_efficiency_mc.<locals>.credits",
        "_shapley_mc.<locals>.pivots",
        "competence_monte_carlo.<locals>.wins_and_ties",
    ]
    bad = [
        f"{name}: {type(x).__name__ if not isinstance(x, np.ndarray) else x.dtype}"
        for name, xs in parts.items()
        for x in xs
        if not (
            type(x) is int
            or isinstance(x, np.ndarray)
            and x.dtype in (np.float64, np.int64)
            and np.array_equal(x, np.round(x))
        )
        or name.startswith(("competence", "_efficiency")) and type(x) is not int
    ]
    assert not bad, f"block parts that are not exact numbers: {bad}"


@pytest.mark.parametrize(
    "vector, n_voters", [(ScoringVector.plurality(4), 6), (ScoringVector.borda(5), 7)]
)
def test_split_credit_efficiency_is_the_rounded_ratio_of_its_integer_credits(vector, n_voters):
    """The estimate equals Fraction(hits, lcm * with_winner), from the oracle's scoring.

    The profiles are redrawn from the same chunk streams, whole chunks at a
    time, and scored by the int64 gather the kernel began as.
    """
    m = vector.m
    est = condorcet_efficiency(vector, m, n_voters, "monte-carlo", "split-credit", TRIALS, 11)
    score_rows, pair_rows = scoring._ranking_tables(vector, n_voters)
    lcm = math.lcm(*range(1, m + 1))
    hits = hits_sq = with_winner = 0
    for i, size in enumerate(_rand.chunk_sizes(TRIALS)):
        idx = _rand.chunk_rng(11, i).integers(0, score_rows.shape[0], size=(size, n_voters))
        has_cw, tied, hit = score_profiles_gather(idx, score_rows, pair_rows, "split-credit")
        share = [lcm // int(t) for t in tied[hit]]
        with_winner += int(has_cw.sum())
        hits += sum(share)
        hits_sq += sum(x * x for x in share)
    assert est.profiles_with_winner == with_winner
    value = Fraction(hits, lcm * with_winner)
    assert est.value == float(value)
    var = (Fraction(hits_sq, lcm * lcm * with_winner) - value**2) / (with_winner - 1)
    assert est.stderr == pytest.approx(math.sqrt(var), rel=1e-12)


# ---------------------------------------------------------------- row blocks

SMALL_CHUNK = 301
GAME60 = VotingGame(tuple(i % 9 + 1 for i in range(60)), 150)
UNEVEN = [
    lambda: power_monte_carlo(GAME60, "banzhaf", TRIALS, 5),
    lambda: power_monte_carlo(GAME60, "shapley", TRIALS, 5),
    lambda: competence_monte_carlo((1,) * 59 + (2,), 0, (0.6,) * 60, TRIALS, 5),
    lambda: condorcet_efficiency(
        ScoringVector.borda(5), 5, 41, "monte-carlo", "split-credit", TRIALS, 5
    ),
]


def _three_chunks(monkeypatch) -> list:
    """Every pinned and uneven run, on a budget of three small chunks."""
    monkeypatch.setattr(_rand, "CHUNK", SMALL_CHUNK)
    monkeypatch.setitem(globals(), "TRIALS", 2 * SMALL_CHUNK + 17)
    return [param.values[0] for param in PINNED] + UNEVEN


@pytest.mark.parametrize("block", [1, 7, 97])
def test_row_blocks_keep_every_estimate_to_the_bit(monkeypatch, block):
    """Every pinned estimator, and widths that split a chunk unevenly, in any block size.

    The chunk and the budget are made small so that blocks of one row stay
    fast; the budget still spans three chunks.
    """
    runs = _three_chunks(monkeypatch)
    whole = [repr(run()) for run in runs]
    monkeypatch.setattr(_exact, "OUTCOME_BLOCK", block)
    assert [repr(run()) for run in runs] == whole


# ---------------------------------------------------------------- threads


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_any_number_of_threads_keeps_every_estimate_to_the_bit(monkeypatch, cpus):
    runs = _three_chunks(monkeypatch)
    monkeypatch.setattr(_rand, "_available_cpus", lambda: 1)
    serial = [repr(run()) for run in runs]
    monkeypatch.setattr(_rand, "_available_cpus", lambda: cpus)
    for block in (1, 7, 97, _exact.OUTCOME_BLOCK):
        monkeypatch.setattr(_exact, "OUTCOME_BLOCK", block)
        assert [repr(run()) for run in runs] == serial, f"blocks of {block}"


def test_more_workers_than_cores_switching_often_add_the_same_totals(monkeypatch):
    """Eight workers on 21 chunks of one-row blocks, with a thread switch every microsecond."""
    monkeypatch.setattr(_rand, "CHUNK", 31)
    monkeypatch.setattr(_exact, "OUTCOME_BLOCK", 8)

    def block(rng, rows):
        draws = rng.integers(0, 1 << 20, size=(rows, 8))
        return draws.sum(axis=0), int((draws**2).sum())

    monkeypatch.setattr(_rand, "_available_cpus", lambda: 1)
    serial = _rand.chunk_sums(20 * 31 + 5, 9, 1, block)
    monkeypatch.setattr(_rand, "_available_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _rand.chunk_sums(20 * 31 + 5, 9, 1, block)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(threaded[0], serial[0]) and threaded[1] == serial[1]


def test_a_block_that_raises_in_a_worker_raises_from_chunk_sums(monkeypatch):
    """The third chunk, the only one of 17 rows, runs on a pool thread and raises."""
    monkeypatch.setattr(_rand, "CHUNK", SMALL_CHUNK)
    monkeypatch.setattr(_rand, "_available_cpus", lambda: 3)
    fault = ArithmeticError("chunk 3")

    def block(rng, rows):
        if rows == 17:
            raise fault
        return (rows,)

    with pytest.raises(ArithmeticError) as raised:
        _rand.chunk_sums(2 * SMALL_CHUNK + 17, 0, 1, block)
    assert raised.value is fault


@pytest.mark.parametrize(
    "cpus, trials, threads",
    [(4, SMALL_CHUNK, False), (1, 3 * SMALL_CHUNK, False), (2, 3 * SMALL_CHUNK, True)],
    ids=["one-chunk", "one-cpu", "two-cpus"],
)
def test_threads_start_only_for_more_than_one_chunk_and_cpu(monkeypatch, cpus, trials, threads):
    monkeypatch.setattr(_rand, "CHUNK", SMALL_CHUNK)
    monkeypatch.setattr(_rand, "_available_cpus", lambda: cpus)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
    assert _rand.chunk_sums(trials, 0, 1, lambda rng, rows: (rows,)) == (trials,)
    assert bool(started) is threads


def test_building_the_parser_leaves_the_thread_pool_unimported():
    """The pool is imported when a budget first runs on two threads, not at start-up.

    Nor is ``hashlib``, which only loading a predictions file needs.
    """
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    code = "import sys, votefuse.cli; votefuse.cli.build_parser(); print(*sorted(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    modules = done.stdout.split()
    assert "votefuse.cli" in modules and "concurrent.futures" not in modules
    assert "hashlib" not in modules


@pytest.mark.parametrize(
    "draw",
    [
        lambda rng, rows, w: rng.random((rows, w)),
        lambda rng, rows, w: rng.integers(0, 2, size=(rows, w)),
        lambda rng, rows, w: rng.integers(0, 120, size=(rows, w)),
        lambda rng, rows, w: rng.permuted(np.tile(np.arange(w), (rows, 1)), axis=1),
    ],
    ids=["random", "integers-2", "integers-120", "permuted"],
)
@pytest.mark.parametrize("width", [1, 7, 60])
def test_draws_split_unevenly_into_rows_give_the_same_values(draw, width):
    rows = 1001
    whole = draw(np.random.default_rng([3, 1]), rows, width)
    rng = np.random.default_rng([3, 1])
    cuts = [0, 1, 250, 333, 334, 777, rows]
    parts = [draw(rng, hi - lo, width) for lo, hi in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate(parts), whole)


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _game(n: int) -> VotingGame:
    return VotingGame(tuple(i % 9 + 1 for i in range(n)), 5 * n // 2)


SAMPLERS = {
    "jury": lambda n, trials=CHUNK: competence_monte_carlo((1,) * n, 0, (0.6,) * n, trials, 1),
    "banzhaf": lambda n, trials=CHUNK: power_monte_carlo(_game(n), "banzhaf", trials, 1),
    "shapley": lambda n: power_monte_carlo(_game(n), "shapley", CHUNK, 1),
    "efficiency": lambda n: condorcet_efficiency(
        ScoringVector.borda(5), 5, n, "monte-carlo", "fail", CHUNK, 1
    ),
}


@pytest.mark.parametrize(
    "kind, sizes",
    [("jury", (51, 101)), ("banzhaf", (30, 60)), ("shapley", (60, 200)), ("efficiency", (11, 41))],
)
def test_a_chunk_peaks_within_a_few_blocks_at_any_width(kind, sizes):
    """A chunk of 2^16 trials holds a few blocks, however many players each trial has.

    Each block returns only its sums, so no per-trial vector of the chunk is kept.
    """
    block = _exact.OUTCOME_BLOCK * 8  # bytes of one block of int64 or float64
    small, large = (_traced_peak(lambda: SAMPLERS[kind](n)) for n in sizes)
    assert large < 6 * block
    assert large - small < block


@pytest.mark.parametrize("kind, n", [("jury", 101), ("banzhaf", 60)])
def test_two_workers_on_four_chunks_peak_within_the_same_few_blocks(monkeypatch, kind, n):
    """Two threads share one block budget, so they peak no higher than one.

    tracemalloc counts the allocations of every thread.
    """
    block = _exact.OUTCOME_BLOCK * 8
    peaks = {}
    for cpus in (1, 2):
        monkeypatch.setattr(_rand, "_available_cpus", lambda: cpus)
        peaks[cpus] = _traced_peak(lambda: SAMPLERS[kind](n, 4 * CHUNK))
    assert peaks[2] < 6 * block
    assert peaks[2] - peaks[1] < block / 2


def test_shapley_of_200_players_peaks_under_64_mib():
    assert _traced_peak(lambda: SAMPLERS["shapley"](200)) < 64 << 20


def _draw_sites(tree: ast.AST, draws: set) -> list:
    """(name of the innermost enclosing function, call) for each call of a method in ``draws``."""

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                inner = getattr(child, "name", "a lambda")
            else:
                inner = fn
            if isinstance(child, ast.Call) and getattr(child.func, "attr", None) in draws:
                yield inner, child
            yield from visit(child, inner)

    return list(visit(tree, None))


def test_no_estimator_draws_outside_a_row_block():
    """Generator draws sit only in block functions passed to ``_rand.chunk_sums``.

    So no estimator can draw a whole chunk of trials times players at once.
    """
    draws = {"random", "integers", "permuted", "permutation", "choice", "shuffle"}
    sites = 0
    for module in (power, jury, scoring):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        blocks = {
            arg.id
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "chunk_sums"
            for arg in call.args[3:] + [k.value for k in call.keywords if k.arg == "block"]
            if isinstance(arg, ast.Name)
        }
        for fn, call in _draw_sites(tree, draws):
            assert fn in blocks, f"{module.__name__}: {ast.unparse(call)} drawn in {fn}"
            sites += 1
    assert sites == 4  # one draw in each of the four samplers
