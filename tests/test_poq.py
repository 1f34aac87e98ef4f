"""Consensus simulation: behaviors, defenses, trust, rewards, run loop."""

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

from conftest import sim_config
from mdqs.errors import MissingColumn, SchemaError, SimConfigError
from mdqs.io import ingest
from mdqs.model import (
    CANONICAL_DIMENSIONS,
    DEFAULT_WEIGHTS,
    DimensionVector,
    EvaluatorProfile,
    LoggedSample,
    SimError,
    SimOutcome,
    TaskFamily,
)
from mdqs.poq import (
    ATTACKS,
    DEFENSES,
    SIGNALS,
    AdaptiveTrust,
    AttackStrategy,
    Camouflage,
    Collude,
    CompositeSignal,
    ConsensusBaseline,
    Deflate,
    DefenseConfig,
    Honest,
    Inflate,
    Mean,
    Median,
    QualitySignal,
    RandomNoise,
    SimConfig,
    SimSettings,
    SingleEvaluator,
    TrimmedMean,
    _block_shares,
    _Replay,
    _run_cell,
    attack_label,
    run_experiment,
    run_single,
    sample_evaluators,
    signal_label,
    weighted_median,
)
from mdqs.rng import rng_for
from mdqs.scoring import normalize_batch

RNG = np.random.default_rng(0)


def profiles(n, cost=1.0):
    return tuple(EvaluatorProfile(evaluator_id=f"e{i:02d}", cost=cost) for i in range(n))


# ------------------------------------------------------------- behaviors

def emit(behavior, quality, round_index=0, rng=RNG, producer_id=None):
    """One output's score: emit_column on one-element columns."""
    column = behavior.emit_column(
        np.array([quality]), np.array([round_index]), rng, np.array([producer_id], dtype=object)
    )
    return float(column[0])


def test_honest_noiseless_reports_quality_exactly():
    assert emit(Honest(0.0), 0.37) == 0.37


def test_honest_noise_stays_clipped():
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = emit(Honest(0.5), 0.9, rng=rng)
        assert 0.0 <= v <= 1.0


def test_inflate_and_deflate_clip():
    assert emit(Inflate(0.3), 0.5) == pytest.approx(0.8)
    assert emit(Inflate(0.3), 0.9) == 1.0
    assert emit(Deflate(0.3), 0.5) == pytest.approx(0.2)
    assert emit(Deflate(0.3), 0.1) == 0.0


def test_random_noise_ignores_quality():
    rng = np.random.default_rng(4)
    values = {emit(RandomNoise(), 0.0, rng=rng) for _ in range(50)}
    assert len(values) > 1
    assert all(0.0 <= v <= 1.0 for v in values)


def test_random_noise_draws_what_a_uniform_draw_would():
    rng, uniform = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(10_000):
        assert repr(emit(RandomNoise(), 0.5, rng=rng)) == repr(float(uniform.uniform(0.0, 1.0)))
        assert repr(float(rng.normal(0.0, 0.05))) == repr(float(uniform.normal(0.0, 0.05)))


def test_collude_boosts_target_and_buries_rest():
    behavior = Collude("star", 0.2)
    assert emit(behavior, 0.5, producer_id="star") == pytest.approx(0.7)
    assert emit(behavior, 0.5, producer_id="rival") == pytest.approx(0.3)
    assert emit(behavior, 0.5) == pytest.approx(0.3)


def test_camouflage_switches_after_honest_rounds():
    behavior = Camouflage(honest_rounds=2, then_delta=0.3)
    assert emit(behavior, 0.4, 0) == 0.4
    assert emit(behavior, 0.4, 1) == 0.4
    assert emit(behavior, 0.4, 2) == pytest.approx(0.7)
    assert emit(behavior, 0.4, 99) == pytest.approx(0.7)


def test_behavior_validation():
    with pytest.raises(ValueError):
        Inflate(-0.1)
    with pytest.raises(ValueError):
        Deflate(float("nan"))
    with pytest.raises(ValueError):
        Collude("", 0.1)
    with pytest.raises(ValueError):
        Camouflage(-1, 0.1)
    with pytest.raises(ValueError):
        Honest(-0.5)


def test_attack_labels():
    assert attack_label(None) == "none"
    assert attack_label(Inflate(0.4)) == "inflate(0.4)"
    assert attack_label(Deflate(0.25)) == "deflate(0.25)"
    assert attack_label(RandomNoise()) == "random_noise"
    assert attack_label(Collude("p-b", 0.3)) == "collude(p-b,0.3)"
    assert attack_label(Camouflage(50, 0.4)) == "camouflage(50,0.4)"
    assert set(ATTACKS.values()) == set(get_args(AttackStrategy))
    assert all(ATTACKS[c.type] is c for c in get_args(AttackStrategy))


# -------------------------------------------------------------- defenses

def test_defense_validation_and_labels():
    with pytest.raises(ValueError):
        TrimmedMean(0.5)
    with pytest.raises(ValueError):
        TrimmedMean(-0.1)
    with pytest.raises(ValueError):
        AdaptiveTrust(learning_rate=-1.0)
    with pytest.raises(ValueError):
        AdaptiveTrust(floor=-0.2)
    assert Mean().label() == "mean"
    assert Median().label() == "median"
    assert TrimmedMean(0.2).label() == "trimmed_mean(0.2)"
    assert AdaptiveTrust().label() == "adaptive_trust(lr=1)"
    assert set(DEFENSES.values()) == set(get_args(DefenseConfig))
    assert all(DEFENSES[c.type] is c for c in get_args(DefenseConfig))


def test_weighted_median_uniform_trust():
    trust = [1 / 3, 1 / 3, 1 / 3]
    assert weighted_median([0.0, 0.5, 1.0], trust) == 0.5


def test_weighted_median_follows_trust_mass():
    values = [0.1, 0.5, 0.9]
    assert weighted_median(values, [0.05, 0.05, 0.9]) == 0.9
    assert weighted_median(values, [0.9, 0.05, 0.05]) == 0.1


def test_weighted_median_zero_trust_falls_back_to_uniform():
    values = [0.0, 0.4, 1.0]
    assert weighted_median(values, [0.0, 0.0, 0.0]) == 0.4


def test_weighted_median_even_split_takes_lower_boundary():
    # cumulative hits exactly 0.5 on the first of two values
    assert weighted_median([0.2, 0.8], [0.5, 0.5]) == 0.2


def test_aggregate_mean_is_trust_weighted():
    values = [0.0, 1.0]
    assert Mean().aggregate(values, [0.25, 0.75]) == pytest.approx(0.75)
    assert AdaptiveTrust().aggregate(values, [0.5, 0.5]) == pytest.approx(0.5)


def test_aggregate_trimmed_mean_drops_extremes():
    values = [0.0, 0.5, 1.0]
    trust = [1 / 3, 1 / 3, 1 / 3]
    # k = int(0.34 * 3) = 1: both extremes go, the middle survives
    assert TrimmedMean(0.34).aggregate(values, trust) == 0.5


def test_aggregate_trimmed_mean_small_fraction_keeps_all():
    values = [0.0, 0.5, 1.0]
    trust = [1 / 3, 1 / 3, 1 / 3]
    assert TrimmedMean(0.2).aggregate(values, trust) == pytest.approx(0.5)


def test_aggregate_trimmed_mean_beats_inflators():
    # 4 honest at 0.5, 2 inflated at 1.0; f=0.34 trims k=2 per side
    values = [0.5, 0.5, 0.5, 0.5, 1.0, 1.0]
    trust = [1 / 6] * 6
    assert TrimmedMean(0.34).aggregate(values, trust) == pytest.approx(0.5)


# ----------------------------------------------------------------- trust

def test_update_trust_zero_deviation_keeps_distribution():
    trust = [0.5, 0.3, 0.2]
    step = AdaptiveTrust(learning_rate=1.0, floor=0.001).consensus_step(3, "t")
    # every emission equals the median 0.4, so nobody deviates
    out = step(trust, [0, 1, 2], [0.4, 0.4, 0.4])[1]
    for i in range(3):
        assert out[i] == pytest.approx(trust[i])


def test_update_trust_penalizes_deviation():
    step = AdaptiveTrust(learning_rate=1.0, floor=0.001).consensus_step(2, "t")
    # the median of 0.5 and 1.0 under equal trust is 0.5
    out = step([0.5, 0.5], [0, 1], [0.5, 1.0])[1]
    assert out[0] > out[1]
    assert out[0] == pytest.approx(1.0 / (1.0 + math.exp(-0.5)))


def test_update_trust_stays_on_simplex():
    rng = np.random.default_rng(6)
    step = AdaptiveTrust(learning_rate=1.0, floor=0.0025).consensus_step(4, "t")
    trust = [0.25] * 4
    for r in range(50):
        values = [float(rng.uniform(0, 1)) for _ in range(4)]
        trust = step(trust, [0, 1, 2, 3], values)[1]
        assert math.fsum(trust) == pytest.approx(1.0, abs=1e-9)
        assert all(t >= 0.0 for t in trust)


def test_update_trust_floor_pins_collapsed_evaluators():
    floor = 0.01
    step = AdaptiveTrust(learning_rate=5.0, floor=floor).consensus_step(2, "t")
    out = [0.5, 0.5]
    for _ in range(100):
        # a holds at least half the trust, so the median is a's 0.0
        out = step(out, [0, 1], [0.0, 1.0])[1]
    # b is maximally wrong every time; the raw weight pins at the floor, so
    # the renormalized share can never drop below floor / (1 + floor)
    assert out[1] >= floor / (1.0 + floor) - 1e-12
    assert out[1] < 0.05
    assert math.fsum(out) == pytest.approx(1.0, abs=1e-9)


def test_update_trust_skips_non_participants():
    step = AdaptiveTrust(learning_rate=1.0, floor=0.001).consensus_step(3, "t")
    # a and c emit, b does not; the median is c's 0.0, so only a deviates
    out = step([0.3, 0.4, 0.3], [0, 2], [1.0, 0.0])[1]
    # a is penalized, b's raw weight is untouched, so b's share grows
    assert out[1] > 0.4
    assert out[0] < 0.3


# ------------------------------------------------------------- selection

def chosen_ids(ps, positions):
    return [ps[i].evaluator_id for i in positions]


def test_sample_evaluators_prefers_trust_per_cost():
    ps = (
        EvaluatorProfile(evaluator_id="cheap", cost=1.0),
        EvaluatorProfile(evaluator_id="pricey", cost=4.0),
        EvaluatorProfile(evaluator_id="mid", cost=2.0),
    )
    trust = [0.2, 0.4, 0.4]
    # ratios: cheap .2, pricey .1, mid .2; tie broken by id: cheap then mid
    assert chosen_ids(ps, sample_evaluators(ps, trust, budget=3.0)) == ["cheap", "mid"]


def test_sample_evaluators_stops_at_first_violation():
    ps = (
        EvaluatorProfile(evaluator_id="big", cost=3.0),
        EvaluatorProfile(evaluator_id="late", cost=1.0),
        EvaluatorProfile(evaluator_id="top", cost=1.0),
    )
    trust = [0.9, 0.1, 0.5]
    # order: top (.5), big (.3), late (.1); big busts the budget and the
    # walk stops there, late is never reached
    assert chosen_ids(ps, sample_evaluators(ps, trust, budget=3.0)) == ["top"]


def test_sample_evaluators_zero_cost_always_first():
    ps = (
        EvaluatorProfile(evaluator_id="free", cost=0.0),
        EvaluatorProfile(evaluator_id="paid", cost=1.0),
    )
    trust = [0.01, 0.99]
    assert chosen_ids(ps, sample_evaluators(ps, trust, budget=0.0)) == ["free"]
    assert chosen_ids(ps, sample_evaluators(ps, trust, budget=1.0)) == ["free", "paid"]


def test_sample_evaluators_unlimited_budget_takes_all():
    ps = profiles(5)
    assert sample_evaluators(ps, [0.2] * 5, budget=math.inf) == [0, 1, 2, 3, 4]


def test_sample_evaluators_returns_positions_in_id_order():
    ps = (
        EvaluatorProfile(evaluator_id="z"),
        EvaluatorProfile(evaluator_id="m"),
        EvaluatorProfile(evaluator_id="a"),
    )
    # z has the most trust and is taken first, yet comes back last
    assert sample_evaluators(ps, [0.5, 0.2, 0.3], budget=math.inf) == [2, 1, 0]


# ------------------------------------------------ dict-keyed reference
#
# The defenses and the trust step as they were when trust was a dict keyed by
# evaluator id, kept verbatim as the oracle the list forms must match
# bit for bit.

def _ref_renormalized(weights):
    total = math.fsum(weights.values())
    if total <= 0.0:
        n = len(weights)
        return {e: 1.0 / n for e in weights}
    return {e: w / total for e, w in weights.items()}


def _ref_weighted_median(scores, trust):
    if not scores:
        raise ValueError("cannot take the median of zero scores")
    weights = _ref_renormalized({e: trust.get(e, 0.0) for e in scores})
    ordered = sorted(scores.items(), key=lambda kv: (kv[1], kv[0]))
    cumulative = 0.0
    for evaluator, value in ordered:
        cumulative += weights[evaluator]
        if cumulative >= 0.5:
            return value
    return ordered[-1][1]  # fp slack; cumulative should have reached 1.0


def _ref_weighted_mean(scores, trust):
    weights = _ref_renormalized({e: trust.get(e, 0.0) for e in scores})
    return math.fsum(weights[e] * v for e, v in scores.items())


def _ref_trimmed_mean(trim_fraction, scores, trust):
    k = int(trim_fraction * len(scores))
    ordered = sorted(scores.items(), key=lambda kv: (kv[1], kv[0]))
    kept = ordered[k : len(ordered) - k] if k else ordered
    weights = _ref_renormalized({e: trust.get(e, 0.0) for e, _ in kept})
    return math.fsum(weights[e] * v for e, v in kept)


def _ref_update_trust(trust, scores, reference, learning_rate, floor):
    updated = {}
    for evaluator, t in trust.items():
        if evaluator in scores:
            deviation = abs(scores[evaluator] - reference)
            updated[evaluator] = max(floor, t * math.exp(-learning_rate * deviation))
        else:
            updated[evaluator] = t
    return _ref_renormalized(updated)


TRIM_FRACTIONS = (0.0, 0.2, 0.34, 0.49)  # 0.2 and 0.34 are in use; 0.0 and 0.49 are the ends


def _random_case(rng):
    """Evaluators listed out of id order, trust in listed order (zeros and
    all-zero included), and a non-empty set of emitters with their values
    (ties included) in id order."""
    n = int(rng.integers(1, 9))
    listed = [f"e{i}" for i in rng.permutation(n)]
    trust = [float(t) for t in rng.dirichlet(np.ones(n))]
    zeros = rng.uniform(0, 1, n) < float(rng.choice([0.0, 0.3, 1.0]))
    trust = [0.0 if z else t for t, z in zip(trust, zeros)]
    by_id = sorted(range(n), key=lambda i: listed[i])
    emitters = [i for i in by_id if rng.uniform() < 0.7] or by_id[:1]
    grid = [0.0, 0.25, 0.5, 1.0]  # draws from it repeat values
    values = [
        float(rng.choice(grid)) if rng.uniform() < 0.5 else float(rng.uniform(0, 1))
        for _ in emitters
    ]
    return listed, trust, emitters, values


def test_list_forms_match_the_dict_keyed_reference():
    rng = np.random.default_rng(2018)
    floor_hits = 0
    for _ in range(3000):
        listed, trust, emitters, values = _random_case(rng)
        trust_by_id = dict(zip(listed, trust))
        scores = {listed[i]: v for i, v in zip(emitters, values)}
        emitter_trust = [trust[i] for i in emitters]

        assert weighted_median(values, emitter_trust) == _ref_weighted_median(scores, trust_by_id)
        mean = _ref_weighted_mean(scores, trust_by_id)
        assert Mean().aggregate(values, emitter_trust) == mean
        assert AdaptiveTrust().aggregate(values, emitter_trust) == mean
        for f in TRIM_FRACTIONS:
            expected = _ref_trimmed_mean(f, scores, trust_by_id)
            assert TrimmedMean(f).aggregate(values, emitter_trust) == expected

        n = len(listed)
        learning_rate = float(rng.choice([0.0, 1.0, 5.0, 50.0]))
        floor = float(rng.choice([0.0, 0.01 / n, 1.0 / n]))
        step = AdaptiveTrust(learning_rate=learning_rate, floor=floor).consensus_step(n, "t")
        reference = _ref_weighted_median(scores, trust_by_id)
        expected = _ref_update_trust(trust_by_id, scores, reference, learning_rate, floor)
        updated = step(trust, emitters, values)[1]
        assert dict(zip(listed, updated)) == expected
        assert list(expected) == listed  # the reference keeps listed order too
        floor_hits += any(
            trust[i] * math.exp(-learning_rate * abs(v - reference)) < floor
            for i, v in zip(emitters, values)
        )
    assert floor_hits > 100


def test_consensus_step_matches_the_dict_keyed_reference():
    # one renormalization of the emitters' trust serves the mean and the
    # median: the consensus is the reference mean, and the next trust the
    # reference downdate at the reference median, bit for bit
    rng = np.random.default_rng(2019)
    floor_hits = 0
    for _ in range(600):
        listed, trust, emitters, values = _random_case(rng)
        trust_by_id = dict(zip(listed, trust))
        scores = {listed[i]: v for i, v in zip(emitters, values)}
        mean = _ref_weighted_mean(scores, trust_by_id).hex()
        reference = _ref_weighted_median(scores, trust_by_id)
        given = list(trust)
        n = len(listed)
        for learning_rate in (0.0, 1.0, 5.0, 50.0):
            for floor in (0.0, 0.01 / n, 1.0 / n):
                defense = AdaptiveTrust(learning_rate=learning_rate, floor=floor)
                consensus, updated = defense.consensus_step(n, "t")(trust, emitters, values)
                assert consensus.hex() == mean
                expected = _ref_update_trust(trust_by_id, scores, reference, learning_rate, floor)
                assert [t.hex() for t in updated] == [expected[e].hex() for e in listed]
                assert trust == given  # the step returns a new list
                floor_hits += any(
                    trust[i] * math.exp(-learning_rate * abs(v - reference)) < floor
                    for i, v in zip(emitters, values)
                )
    assert floor_hits > 500


def test_row_forms_match_the_scalar_aggregates():
    # zero and all-zero trust, tied values and -0.0 included
    rng = np.random.default_rng(2012)
    fixed = [Mean(), Median(), *(TrimmedMean(f) for f in TRIM_FRACTIONS)]
    for _ in range(500):
        _, trust, emitters, _ = _random_case(rng)
        emitter_trust = [trust[i] for i in emitters]
        grid = [-0.0, 0.0, 0.25, 0.5, 1.0]
        rows = rng.choice(grid, size=(int(rng.integers(1, 6)), len(emitters)))
        rows = np.where(rng.uniform(size=rows.shape) < 0.5, rows, rng.uniform(size=rows.shape))
        for defense in fixed:
            expected = [repr(defense.aggregate(row, emitter_trust)) for row in rows.tolist()]
            assert [repr(v) for v in defense.aggregate_rows(rows, emitter_trust)] == expected


def test_block_emits_match_one_output_calls_in_order():
    # one call for a block of outputs: the same values, drawn in the same
    # order, as one call per output on the same stream
    quality = [-0.0, 0.0, 0.3, 0.75, 0.9, 1.0]
    producers = ["model-a", "model-b", "model-a", "model-c", "model-a", "model-b"]
    round_index = [0, 1, 2, 3, 4, 5]
    behaviors = [
        Honest(0.0), Honest(0.05), Honest(0.5), Inflate(0.3), Deflate(0.3), Deflate(0.0),
        RandomNoise(), Collude("model-a", 0.3), Camouflage(3, 0.3), Camouflage(0, 0.0),
    ]
    for behavior in behaviors:
        one_rng, block_rng = np.random.default_rng(7), np.random.default_rng(7)
        expected = [
            repr(emit(behavior, q, r, one_rng, p))
            for q, r, p in zip(quality, round_index, producers)
        ]
        block = behavior.emit_column(
            np.array(quality), np.array(round_index), block_rng, np.array(producers, dtype=object)
        )
        assert [repr(v) for v in block.tolist()] == expected, behavior
        assert block_rng.bit_generator.state == one_rng.bit_generator.state, behavior


# --------------------------------------------------------------- rewards

def _contest_shares(scores, budget):
    """One contest's payouts, parallel to its non-empty scores: each output
    earns in proportion to max(score - min score, 0), and a zero spread
    splits the budget equally. This was the run loop's per-round rule; it is
    kept as the oracle for _block_shares."""
    low = min(scores)
    spreads = [max(s - low, 0.0) for s in scores]
    total = math.fsum(spreads)
    if total > 0.0:
        return [budget * (spread / total) for spread in spreads]
    return [budget / len(scores)] * len(scores)


def test_contest_shares_proportional_to_spread():
    shares = _block_shares(np.array([0.2, 0.6, 1.0]), np.array([3]), 1.0).tolist()
    assert shares[0] == 0.0
    assert shares[1] == pytest.approx(1.0 / 3.0)
    assert shares[2] == pytest.approx(2.0 / 3.0)


def test_contest_shares_zero_spread_splits_equally():
    shares = _block_shares(np.array([0.5, 0.5, 0.5]), np.array([3]), 0.9).tolist()
    assert shares == pytest.approx([0.3, 0.3, 0.3])


def _random_contest(rng):
    """1-6 scores drawn from a tie-prone grid with both zeros, or uniform,
    or a mix; often with three or more distinct nonzero spreads."""
    size = int(rng.integers(1, 7))
    grid = np.array([-0.0, 0.0, 0.0, 0.1, 0.25, 0.5, 1.0, 1 / 3])
    kind = int(rng.integers(3))
    tied = rng.choice(grid, size=size)
    free = rng.uniform(size=size) * (10.0 ** -rng.integers(0, 18))
    scores = [tied, free, np.where(rng.uniform(size=size) < 0.5, tied, free)][kind]
    return scores.tolist()


def test_block_shares_match_the_per_contest_reference():
    rng = np.random.default_rng(31)
    fsum_contests = zero_spread = 0
    for _ in range(600):
        contests = [_random_contest(rng) for _ in range(int(rng.integers(1, 40)))]
        budget = float(rng.choice([0.0, 1.0, 0.7, 3.0]))
        # + 0.0 makes both zeros one value: a zero share's sign shows in no reward
        expected = [float.hex(v + 0.0) for c in contests for v in _contest_shares(c, budget)]
        flat = np.array([v for c in contests for v in c])
        sizes = np.array([len(c) for c in contests])
        assert [float.hex(v + 0.0) for v in _block_shares(flat, sizes, budget).tolist()] == expected
        for c in contests:
            spreads = [s - min(c) for s in c]
            fsum_contests += sum(s != 0.0 for s in spreads) > 2
            zero_spread += all(s == 0.0 for s in spreads)
    # every branch ran: the fsum path and equal splits
    assert fsum_contests > 1000 and zero_spread > 500


# ---------------------------------------------------------------- config

def test_sim_config_validation():
    settings = SimSettings(evaluators=profiles(2), rounds=5)
    with pytest.raises(SimConfigError):
        SimConfig(config_id="", settings=settings, defense=Median())
    with pytest.raises(SimConfigError):
        SimConfig(config_id="c", settings=settings, defense=Median(), attack_ratio=1.5)
    # the settings every cell of a grid shares are checked once, on SimSettings
    with pytest.raises(SimConfigError):
        SimSettings(evaluators=(), rounds=5)
    for rounds in (0, 2**70):  # 2**70 rounds would run without end
        with pytest.raises(SimConfigError, match="rounds"):
            SimSettings(evaluators=profiles(2), rounds=rounds)
    with pytest.raises(SimConfigError):
        SimSettings(evaluators=profiles(2), rounds=5, producers={"p": 1.0})
    dup = (EvaluatorProfile(evaluator_id="e"), EvaluatorProfile(evaluator_id="e"))
    with pytest.raises(SimConfigError):
        SimSettings(evaluators=dup, rounds=5)
    # each round pays the whole budget, so 5 rounds of 1e308 overflow the total
    with pytest.raises(SimConfigError, match="reward_budget"):
        SimSettings(evaluators=profiles(2), rounds=5, reward_budget=1e308)
    for beta in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(SimConfigError, match="beta_concentration"):
            SimSettings(evaluators=profiles(2), rounds=5, beta_concentration=beta)


@pytest.mark.parametrize(
    "n, ratio, expected",
    [
        (5, 0.5, 2),
        # 0.58 * 50 and 0.29 * 100 fall just below 29 in binary floating point
        (50, 0.58, 29),
        (100, 0.29, 29),
    ],
)
def test_attacker_count_truncates(n, ratio, expected):
    cfg = sim_config(
        config_id="c",
        evaluators=profiles(n),
        defense=Median(),
        rounds=1,
        attack=Inflate(0.1),
        attack_ratio=ratio,
        producers={"p": 0.5},
    )
    assert cfg.attacker_count() == expected


def test_resolve_behaviors_attack_takes_listed_order():
    cfg = sim_config(
        config_id="c",
        evaluators=profiles(4),
        defense=Median(),
        rounds=1,
        attack=Deflate(0.2),
        attack_ratio=0.5,
        honest_noise_sd=0.05,
        producers={"p": 0.5},
    )
    behaviors = cfg.resolve_behaviors()
    assert behaviors["e00"] == Deflate(0.2)
    assert behaviors["e01"] == Deflate(0.2)
    assert behaviors["e02"] == Honest(0.05)
    assert behaviors["e03"] == Honest(0.05)


def test_resolve_behaviors_without_attack_all_honest():
    cfg = sim_config(
        config_id="c",
        evaluators=profiles(3),
        defense=Median(),
        rounds=1,
        attack_ratio=0.5,
        honest_noise_sd=0.1,
        producers={"p": 0.5},
    )
    assert cfg.attacker_count() == 0
    assert cfg.resolve_behaviors() == {e: Honest(0.1) for e in ("e00", "e01", "e02")}


# ------------------------------------------------------------ run_single

def synth_config(**overrides):
    base = dict(
        config_id="synth",
        evaluators=profiles(10),
        defense=Median(),
        rounds=20,
        reward_budget=1.0,
        producers={"p-a": 0.35, "p-b": 0.55, "p-c": 0.7},
        honest_noise_sd=0.05,
        rng_seed=42,
    )
    base.update(overrides)
    return sim_config(**base)


def test_run_single_synthetic_shape():
    out = run_single(synth_config())
    assert isinstance(out, SimOutcome)
    assert len(out.trust_trajectory) == 20
    assert out.skipped_rounds == 0
    assert set(out.rewards) == {"p-a", "p-b", "p-c"}
    assert len(out.consensus_scores) == 20 * 3
    assert "r0000:p-a" in out.consensus_scores
    assert out.consensus_error is not None
    assert math.fsum(out.rewards.values()) == pytest.approx(20 * 1.0, abs=1e-9)


def test_run_single_is_deterministic():
    a = run_single(synth_config(defense=AdaptiveTrust(), attack=Inflate(0.3), attack_ratio=0.3))
    b = run_single(synth_config(defense=AdaptiveTrust(), attack=Inflate(0.3), attack_ratio=0.3))
    assert a == b


def test_run_single_seed_changes_outcome():
    a = run_single(synth_config())
    b = run_single(synth_config(rng_seed=43))
    assert a.consensus_scores != b.consensus_scores


def test_static_defense_never_moves_trust():
    out = run_single(synth_config(defense=Median()))
    for snapshot in out.trust_trajectory:
        assert snapshot == {f"e{i:02d}": 0.1 for i in range(10)}


def test_fixed_trust_rounds_share_one_snapshot():
    for defense in (Mean(), Median(), TrimmedMean(0.2)):
        out = run_single(synth_config(defense=defense))
        assert len({id(snapshot) for snapshot in out.trust_trajectory}) == 1
    # adaptive trust moves every round, so each round has its own
    out = run_single(synth_config(defense=AdaptiveTrust()))
    assert len({id(snapshot) for snapshot in out.trust_trajectory}) == 20


def test_adaptive_trust_demotes_inflators():
    out = run_single(
        synth_config(
            defense=AdaptiveTrust(),
            attack=Inflate(0.3),
            attack_ratio=0.3,
            rounds=100,
        )
    )
    final = out.final_trust()
    attackers = out.attacker_ids
    assert attackers == {"e00", "e01", "e02"}
    attacker_mean = math.fsum(final[e] for e in attackers) / len(attackers)
    honest = [e for e in final if e not in attackers]
    honest_mean = math.fsum(final[e] for e in honest) / len(honest)
    assert attacker_mean < honest_mean


def test_adaptive_floor_validation():
    with pytest.raises(SimConfigError):
        run_single(synth_config(defense=AdaptiveTrust(floor=0.5)))
    out = run_single(synth_config(defense=AdaptiveTrust(floor=0.05)))
    assert all(t >= 0.05 - 1e-12 for t in out.final_trust().values())


def test_unaffordable_budget_skips_rounds():
    out = run_single(synth_config(budget=0.5, rounds=5))
    assert out.skipped_rounds == 5
    assert out.consensus_scores == {}
    assert out.rewards == {}
    assert out.consensus_error is None
    assert len(out.trust_trajectory) == 5


def test_synthetic_mode_needs_producers():
    with pytest.raises(SimConfigError):
        run_single(synth_config(producers=None))


# ---------------------------------------------------------------- replay

def replay_dataset():
    def sample(sid, query, producer, j, ref):
        dims = DimensionVector({d: j for d in CANONICAL_DIMENSIONS})
        return LoggedSample(
            sample_id=sid,
            task=TaskFamily("qa"),
            producer_id=producer,
            query=query,
            output=f"answer from {producer}",
            evaluator_scores={"j": j},
            reference_score=ref,
            dimension_scores=dims,
        )

    return [
        sample("s0", "q1", "pa", 0.0, 0.1),
        sample("s1", "q1", "pb", 1.0, 0.9),
        sample("s2", "q2", "pa", 0.4, 0.2),
        sample("s3", "q2", "pb", 0.6, 0.8),
    ]


def replay_config(**overrides):
    base = dict(
        config_id="replay",
        evaluators=profiles(3),
        defense=Mean(),
        rounds=4,
        reward_budget=1.0,
        quality_signal=SingleEvaluator("j"),
        rng_seed=9,
    )
    base.update(overrides)
    return sim_config(**base)


def test_replay_consensus_tracks_signal():
    out = run_single(replay_config(), dataset=replay_dataset())
    assert set(out.consensus_scores) == {"s0", "s1", "s2", "s3"}
    assert out.consensus_scores["s0"] == pytest.approx(0.0)
    assert out.consensus_scores["s1"] == pytest.approx(1.0)
    assert out.consensus_scores["s2"] == pytest.approx(0.4)
    assert out.consensus_scores["s3"] == pytest.approx(0.6)


def test_replay_consensus_error_vs_normalized_reference():
    out = run_single(replay_config(), dataset=replay_dataset())
    # refs [.1, .9, .2, .8] normalize to [0, 1, .125, .875]; consensus hits
    # s0 and s1 exactly and misses s2/s3 by .275 on each of two visits
    assert out.consensus_error == pytest.approx((0.275 * 4) / 8, abs=1e-12)


def test_replay_rounds_cycle_query_groups():
    out = run_single(replay_config(rounds=3), dataset=replay_dataset())
    # q1, q2, then q1 again: 2 contests of q1 + 1 of q2
    assert math.fsum(out.rewards.values()) == pytest.approx(3.0, abs=1e-9)
    assert out.rewards["pb"] > out.rewards["pa"]


def test_replay_contest_pays_each_output_of_a_producer():
    # two outputs of m1 on one query: each is its own entry in the contest
    dataset = [
        LoggedSample(
            sample_id=sid,
            task=TaskFamily("qa"),
            producer_id=producer,
            query="q",
            output=f"answer {sid}",
            evaluator_scores={"j": j},
        )
        for sid, producer, j in (("a", "m1", 0.9), ("b", "m1", 0.1), ("c", "m2", 0.5))
    ]
    out = run_single(replay_config(evaluators=profiles(1), rounds=1), dataset=dataset)
    assert out.consensus_scores == {"a": 1.0, "b": 0.0, "c": 0.5}
    # spreads over the minimum 0.0 are a 1.0, b 0.0, c 0.5 of a total 1.5
    assert out.rewards == {"m1": pytest.approx(2 / 3), "m2": pytest.approx(1 / 3)}


def test_replay_refuses_a_repeated_sample_id():
    # p1's output and p2's shared "s1": the cell kept p2's and paid p1 nothing
    dataset = [
        LoggedSample(
            sample_id=sid,
            task=TaskFamily("qa"),
            producer_id=producer,
            query="q",
            output=f"answer {producer}",
            evaluator_scores={"j": j},
        )
        for sid, producer, j in (("s1", "p1", 0.9), ("s1", "p2", 0.1), ("s2", "p3", 0.5))
    ]
    config = replay_config(evaluators=profiles(1), rounds=1)
    for run in (run_single, lambda c, dataset: run_experiment([c], dataset=dataset)):
        with pytest.raises(SchemaError, match="duplicate sample_id 's1'"):
            run(config, dataset=dataset)


def test_seed_outside_64_bits_is_rejected():
    for seed in (2**64 + 1, -1):
        with pytest.raises(ValueError, match="seed"):
            rng_for(seed, "x")
    with pytest.raises(ValueError, match="seed"):
        run_single(synth_config(rng_seed=2**64 + 1))


def test_replay_composite_signal():
    out = run_single(
        replay_config(quality_signal=CompositeSignal("default")), dataset=replay_dataset()
    )
    # every dimension equals the j column, so the composite equals it too
    assert out.consensus_scores["s2"] == pytest.approx(0.4)


def test_replay_baseline_signal():
    out = run_single(
        replay_config(quality_signal=ConsensusBaseline("mean")), dataset=replay_dataset()
    )
    # single evaluator column: its normalized value is the mean
    assert out.consensus_scores["s0"] == pytest.approx(0.0)
    assert out.consensus_scores["s1"] == pytest.approx(1.0)


def test_replay_missing_signal_rejected():
    with pytest.raises(SimConfigError):
        run_single(replay_config(quality_signal=None), dataset=replay_dataset())
    with pytest.raises(SimConfigError):
        run_single(replay_config(), dataset=[])


@dataclass(frozen=True)
class FixedSignal:
    """A replay signal that reports one value for every sample, and `extra`
    more values than there are samples."""

    value: float
    extra: int = 0

    def label(self) -> str:
        return f"fixed:{self.value}"

    def values(self, dataset, base_weights):
        return [self.value] * (len(dataset) + self.extra)


def test_emit_rejects_out_of_range_quality():
    # replay quality is checked once per signal, where it enters the run
    for value in (1.2, -0.1, float("nan"), np.float64(1.2)):
        config = replay_config(quality_signal=FixedSignal(value))
        with pytest.raises(ValueError, match=r"quality of 's0' must be in \[0, 1\]") as error:
            run_single(config, dataset=replay_dataset())
        # named as a Python float, not as np.float64(1.2)
        assert str(error.value).endswith(f"got {float(value)!r}")
        # not a per-cell failure: the error leaves the whole grid
        with pytest.raises(ValueError, match="must be in"):
            run_experiment([config], dataset=replay_dataset())


def test_replay_rejects_a_signal_with_one_value_too_few_or_too_many():
    n = len(replay_dataset())
    for extra in (-1, 1):
        config = replay_config(quality_signal=FixedSignal(0.5, extra))
        message = rf"^fixed:0.5: values gave {n + extra} entries for {n} samples$"
        with pytest.raises(ValueError, match=message):
            run_single(config, dataset=replay_dataset())
        with pytest.raises(ValueError, match=message):
            run_experiment([config], dataset=replay_dataset())


def test_replay_unknown_variant_rejected():
    with pytest.raises(SimConfigError):
        run_single(
            replay_config(quality_signal=CompositeSignal("mystery")),
            dataset=replay_dataset(),
        )


def test_signal_labels():
    assert signal_label(None) == "oracle"
    assert signal_label(SingleEvaluator("e7")) == "evaluator:e7"
    assert signal_label(ConsensusBaseline("mean")) == "baseline:mean"
    assert signal_label(CompositeSignal("calibrated")) == "composite:calibrated"
    assert set(SIGNALS.values()) == set(get_args(QualitySignal))
    assert all(SIGNALS[c.type] is c for c in get_args(QualitySignal))
    with pytest.raises(ValueError):
        ConsensusBaseline("mode")


# ------------------------------------------------------------ experiment

def test_run_experiment_records_failures_and_continues():
    # The cells share one run's signal values, references and query groups;
    # each must still match the same cell run on its own.
    missing = SingleEvaluator("missing")
    grid = [
        replay_config(config_id="composite", quality_signal=CompositeSignal("default")),
        replay_config(config_id="bad-1", quality_signal=missing),
        replay_config(config_id="baseline", quality_signal=ConsensusBaseline("median")),
        replay_config(config_id="judge", quality_signal=SingleEvaluator("j")),
        replay_config(config_id="bad-2", quality_signal=missing, defense=AdaptiveTrust()),
        replay_config(
            config_id="composite-adaptive",
            quality_signal=CompositeSignal("default"),
            defense=AdaptiveTrust(),
            attack=Inflate(0.3),
            attack_ratio=0.34,
            honest_noise_sd=0.05,
        ),
        replay_config(
            config_id="judge-adaptive", defense=AdaptiveTrust(), honest_noise_sd=0.05
        ),
    ]
    results = run_experiment(grid, dataset=replay_dataset())
    assert [r.config_id for r in results] == [c.config_id for c in grid]
    for config, result in zip(grid, results):
        if config.quality_signal == missing:
            with pytest.raises(MissingColumn) as alone:
                run_single(config, dataset=replay_dataset())
            assert isinstance(result, SimError)
            assert result.error_type == "MissingColumn"
            assert result.message == str(alone.value)
            assert "missing" in result.message
        else:
            assert isinstance(result, SimOutcome)
            assert result == run_single(config, dataset=replay_dataset())


def test_trust_floor_error_wins_over_a_signal_or_producer_error():
    # the floor is checked before the mode's own checks and before the
    # replay signal's values are read
    floor = dict(config_id="c", evaluators=profiles(4), defense=AdaptiveTrust(floor=0.5))
    for grid, dataset in (
        ([replay_config(quality_signal=SingleEvaluator("missing"), **floor)], replay_dataset()),
        ([synth_config(producers=None, **floor)], None),
    ):
        [result] = run_experiment(grid, dataset=dataset)
        assert isinstance(result, SimError)
        assert result.error_type == "SimConfigError"
        assert result.message == "c: trust floor 0.5 exceeds 1/4"


def test_run_experiment_computes_each_signal_once(monkeypatch):
    import mdqs.poq

    calls = {"compose_batch": 0, "consensus_baselines": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(mdqs.poq, "compose_batch")
    counted(mdqs.poq, "consensus_baselines")
    composite = [
        replay_config(config_id=f"c{i}", quality_signal=CompositeSignal("default"))
        for i in range(3)
    ]
    baseline = [
        replay_config(config_id=f"b{i}", quality_signal=ConsensusBaseline("median"))
        for i in range(2)
    ]
    results = run_experiment(composite + baseline, dataset=replay_dataset())
    assert all(isinstance(r, SimOutcome) for r in results)
    assert calls == {"compose_batch": 1, "consensus_baselines": 1}


def test_run_experiment_rejects_duplicate_ids():
    with pytest.raises(SimConfigError):
        run_experiment([synth_config(), synth_config()])


@pytest.mark.parametrize("defense", [Median(), AdaptiveTrust()], ids=["median", "adaptive"])
def test_cells_that_differ_only_in_config_id_report_the_same(defense):
    # streams are labelled by purpose and seed, never by config id, so two
    # such cells draw the same qualities, honest noise and random_noise
    fields = dict(
        defense=defense, attack=RandomNoise(), attack_ratio=0.4, honest_noise_sd=0.05, rounds=30
    )
    for config, dataset in (
        (synth_config(config_id="a", **fields), None),
        (replay_config(config_id="a", evaluators=profiles(5), **fields), replay_dataset()),
    ):
        a = run_single(config, dataset=dataset)
        b = run_single(replace(config, config_id="b"), dataset=dataset)
        assert b.config_id == "b"
        assert replace(b, config_id="a") == a
        assert a.attacker_ids and a.consensus_scores  # random_noise drew, and rounds scored


def test_synthetic_grid_defenses_see_the_same_quality_per_output():
    # one honest noiseless evaluator reports each output's quality, so every
    # defense's consensus is that quality, with no error
    defenses = [Mean(), Median(), TrimmedMean(0.2), AdaptiveTrust()]
    grid = [
        synth_config(config_id=d.label(), defense=d, evaluators=profiles(1), honest_noise_sd=0.0)
        for d in defenses
    ]
    results = run_experiment(grid)
    assert all(r.consensus_error == 0.0 for r in results)
    first = results[0].consensus_scores
    assert len(first) == 20 * 3 and len(set(first.values())) == len(first)
    for r in results[1:]:
        assert list(r.consensus_scores.items()) == list(first.items())


# ------------------------------------------------- run loop reference
#
# _run_cell as it was when every cell walked its outputs one by one, with
# the selection and reward helpers it called and each behavior's rule for
# one output, as the oracle that the fixed-trust emission matrix and the
# adaptive walk must match in every float's repr, every key order and every
# error. It draws from the same per-purpose streams, one value at a time:
# each round's qualities whether the round is scored or not, and each
# evaluator's value for every output whether it is picked or not.

def _ref_sample_evaluators(profiles, trust, budget):
    def rank(i: int) -> tuple[float, str]:
        p = profiles[i]
        return (-math.inf if p.cost == 0.0 else -(trust[i] / p.cost)), p.evaluator_id

    chosen: list[int] = []
    spent = 0.0
    for i in sorted(range(len(profiles)), key=rank):
        if spent + profiles[i].cost > budget:
            break
        chosen.append(i)
        spent += profiles[i].cost
    return sorted(chosen, key=lambda i: profiles[i].evaluator_id)


def _ref_clip01(x):
    return min(1.0, max(0.0, x))


def _ref_emit(behavior, quality, round_index, rng, producer):
    if isinstance(behavior, Honest):
        if behavior.noise_sd == 0.0:
            return quality
        return _ref_clip01(quality + rng.normal(0.0, behavior.noise_sd))
    if isinstance(behavior, Inflate):
        return _ref_clip01(quality + behavior.delta)
    if isinstance(behavior, Deflate):
        return _ref_clip01(quality - behavior.delta)
    if isinstance(behavior, RandomNoise):
        return rng.uniform(0.0, 1.0)
    if isinstance(behavior, Collude):
        if producer == behavior.target_producer:
            return _ref_clip01(quality + behavior.delta)
        return _ref_clip01(quality - behavior.delta)
    if round_index < behavior.honest_rounds:  # Camouflage
        return quality
    return _ref_clip01(quality + behavior.then_delta)


def _ref_allocate_rewards(consensus, reward_budget):
    if not consensus:
        return {}
    if not math.isfinite(reward_budget) or reward_budget < 0:
        raise ValueError("reward_budget must be finite and >= 0")
    slice_budget = reward_budget / len(consensus)
    rewards: dict[str, float] = {}
    for _, producer_scores in consensus.items():
        if not producer_scores:
            raise ValueError("a contest must have at least one producer")
        low = min(producer_scores.values())
        spreads = {p: max(s - low, 0.0) for p, s in producer_scores.items()}
        total = math.fsum(spreads.values())
        for producer in producer_scores:
            if total > 0.0:
                share = slice_budget * (spreads[producer] / total)
            else:
                share = slice_budget / len(producer_scores)
            rewards[producer] = rewards.get(producer, 0.0) + share
    return rewards


def _ref_run_cell(config, replay):
    settings = config.settings
    profiles = settings.evaluators
    n = len(profiles)
    ids = [p.evaluator_id for p in profiles]
    behaviors = list(config.resolve_behaviors().values())  # in listed order
    attacker_ids = frozenset(ids[: config.attacker_count()])

    step = config.defense.consensus_step(n, config.config_id)  # None: trust stays put
    trust = [1.0 / n] * n  # in listed order, like profiles
    budget = settings.budget if settings.budget is not None else math.inf
    streams = [rng_for(config.rng_seed, f"sim/evaluator/{e}") for e in ids]

    if replay is None:
        if not settings.producers:
            raise SimConfigError(
                f"{config.config_id}: synthetic mode needs producer mean qualities"
            )
        producers = sorted(settings.producers.items())
        kappa = settings.beta_concentration
        quality_rng = rng_for(config.rng_seed, "sim/quality")

        def outputs(round_index):
            for producer, mean in producers:
                quality = float(quality_rng.beta(mean * kappa, (1.0 - mean) * kappa))
                yield f"r{round_index:04d}:{producer}", producer, quality, quality

    else:
        if not replay.samples:
            raise SimConfigError(f"{config.config_id}: replay dataset is empty")
        if config.quality_signal is None:
            raise SimConfigError(f"{config.config_id}: replay mode needs a quality signal")
        samples = replay.samples
        values = config.quality_signal.values(samples, replay.base_weights)
        signal_values = {s.sample_id: q for s, q in zip(samples, values)}
        referenced = [s for s in samples if s.reference_score is not None]
        normalized_refs = normalize_batch([s.reference_score for s in referenced])
        ref_norm = {s.sample_id: z for s, z in zip(referenced, normalized_refs)}
        by_query: dict[str, list[LoggedSample]] = {}  # in order of first appearance
        for s in samples:
            by_query.setdefault(s.query, []).append(s)
        groups = list(by_query.values())

        def outputs(round_index):
            for s in groups[round_index % len(groups)]:
                sid = s.sample_id
                yield sid, s.producer_id, signal_values[sid], ref_norm.get(sid)

    consensus_scores: dict[str, float] = {}
    rewards: dict[str, float] = {}
    trajectory: list[dict[str, float]] = []
    errors: list[float] = []
    skipped = 0

    for round_index in range(settings.rounds):
        emitters = _ref_sample_evaluators(profiles, trust, budget)  # positions, in id order
        round_outputs = [
            (key, producer, quality, target, [
                _ref_emit(b, quality, round_index, stream, producer)
                for b, stream in zip(behaviors, streams)
            ])
            for key, producer, quality, target in outputs(round_index)
        ]
        if not emitters:
            skipped += 1
            trajectory.append(dict(zip(ids, trust)))
            continue
        contest: dict[str, float] = {}  # output key -> consensus; one contest per round
        producer_of: dict[str, str] = {}
        for key, producer, quality, target, emitted in round_outputs:
            values = [emitted[i] for i in emitters]
            consensus = config.defense.aggregate(values, [trust[i] for i in emitters])
            consensus_scores[key] = consensus
            contest[key] = consensus
            producer_of[key] = producer
            if target is not None:
                errors.append(abs(consensus - target))
            if step is not None:
                trust = step(trust, emitters, values)[1]

        for key, share in _ref_allocate_rewards({"round": contest}, settings.reward_budget).items():
            producer = producer_of[key]
            rewards[producer] = rewards.get(producer, 0.0) + share
        trajectory.append(dict(zip(ids, trust)))

    return SimOutcome(
        config_id=config.config_id,
        consensus_scores=consensus_scores,
        rewards=rewards,
        trust_trajectory=tuple(trajectory),
        consensus_error=(math.fsum(errors) / len(errors)) if errors else None,
        skipped_rounds=skipped,
        attacker_ids=attacker_ids,
    )


def _fingerprint(run):
    """Everything a cell reports, floats as repr (so -0.0 differs from 0.0),
    dicts as item lists (so key order counts); or the error it raised."""
    try:
        out = run()
    except Exception as exc:  # the error itself is what is compared
        return "error", type(exc).__name__, str(exc)
    return (
        "outcome",
        out.config_id,
        [(k, repr(v)) for k, v in out.consensus_scores.items()],
        [(k, repr(v)) for k, v in out.rewards.items()],
        [[(k, repr(v)) for k, v in snapshot.items()] for snapshot in out.trust_trajectory],
        repr(out.consensus_error),
        out.skipped_rounds,
        sorted(out.attacker_ids),
    )


ORACLE_ATTACKS = (
    None,
    Inflate(0.3),
    Deflate(0.3),
    Deflate(0.0),
    RandomNoise(),
    Collude("model-a", 0.3),
    Camouflage(3, 0.3),
    Camouflage(0, 0.0),
)
ORACLE_DEFENSES = (
    Mean(),
    Median(),
    *(TrimmedMean(f) for f in TRIM_FRACTIONS),
    AdaptiveTrust(),
    AdaptiveTrust(learning_rate=5.0),
)
ORACLE_SIGNALS = (
    CompositeSignal("default"),
    ConsensusBaseline("median"),
    SingleEvaluator("sts_paraphrase"),
    SingleEvaluator("missing"),
)


def _oracle_cell(rng, index):
    """One random cell: evaluators listed out of id order with costs 0, 1
    and 2, and every budget, noise level, attack, ratio, defense, signal and
    round count the run loop distinguishes."""
    n = int(rng.integers(1, 9))
    evaluators = tuple(
        EvaluatorProfile(evaluator_id=f"e{i}", cost=float(rng.choice([0.0, 1.0, 2.0])))
        for i in rng.permutation(n)
    )
    budget = [None, 0.0, 1.0, 3.0, 6.0][int(rng.integers(5))]
    return sim_config(
        config_id=f"cell{index}",
        evaluators=evaluators,
        rounds=int(rng.choice([1, 7, 40, 150])),
        budget=budget,
        honest_noise_sd=float(rng.choice([0.0, 0.05, 0.5])),
        producers={"model-a": 0.7, "model-b": 0.4, "model-c": 0.5},
        attack=ORACLE_ATTACKS[int(rng.integers(len(ORACLE_ATTACKS)))],
        attack_ratio=float(rng.choice([0.0, 0.25, 0.5, 1.0])),
        defense=ORACLE_DEFENSES[int(rng.integers(len(ORACLE_DEFENSES)))],
        quality_signal=ORACLE_SIGNALS[int(rng.integers(len(ORACLE_SIGNALS)))],
        rng_seed=int(rng.integers(2**32)),
    )


def _interleaved(samples):
    """The first 30 samples, whose queries come in pairs, reordered so the
    queries interleave (q0, q1, q0, q2, q1, q2, ...): the groups' order is
    not the dataset's. Two samples in three carry a reference score."""
    order = [i + k for i in range(0, 30, 6) for k in (0, 2, 1, 4, 3, 5)]
    return [
        replace(samples[i], reference_score=None if n % 3 == 0 else float(n % 7))
        for n, i in enumerate(order)
    ]


def test_run_cell_matches_the_one_by_one_reference():
    samples = ingest(Path(__file__).parent / "fixtures" / "replay_200.jsonl").samples
    # 3, 10 and 100 query groups of two, so most round counts cycle past them
    replays = [_Replay(samples[:size], DEFAULT_WEIGHTS) for size in (6, 20, 200)]
    interleaved = _Replay(_interleaved(samples), DEFAULT_WEIGHTS)
    assert [s.query for s in interleaved.samples[:6]] == [
        samples[i].query for i in (0, 2, 0, 4, 2, 4)
    ]
    rng = np.random.default_rng(12)
    seen, signals = set(), set()
    for index in range(420):
        config = _oracle_cell(rng, index)
        replay = None if index % 4 == 0 else replays[int(rng.integers(len(replays)))]
        expected = _fingerprint(lambda: _ref_run_cell(config, replay))
        assert _fingerprint(lambda: _run_cell(config, replay)) == expected, config
        if expected[0] == "outcome":
            seen.add((replay is None, attack_label(config.attack), config.defense))
        if index % 4 == 1:  # the same cell on the interleaved queries
            expected = _fingerprint(lambda: _ref_run_cell(config, interleaved))
            assert _fingerprint(lambda: _run_cell(config, interleaved)) == expected, config
            if expected[0] == "outcome":
                signals.add(type(config.quality_signal))
    # both modes, every attack and every defense ran to an outcome
    assert {s[0] for s in seen} == {True, False}
    assert {s[1] for s in seen} == {attack_label(a) for a in ORACLE_ATTACKS}
    assert {s[2] for s in seen} == set(ORACLE_DEFENSES)
    # every kind of signal ran to an outcome on the interleaved queries
    assert signals == set(SIGNALS.values())


def test_run_cell_matches_the_reference_on_wide_groups_past_one_block():
    # query groups of 4 and 5 samples, so most contests have three or more
    # nonzero spreads (the fsum path), over 1,025-1,100 rounds: past the
    # first block of rounds, and cycling through the 40 groups many times
    samples = ingest(Path(__file__).parent / "fixtures" / "replay_200.jsonl").samples[:180]
    queries = [f"wide-{g}" for g, size in enumerate([4, 5] * 20) for _ in range(size)]
    replay = _Replay(
        [replace(s, query=q) for s, q in zip(samples, queries)], DEFAULT_WEIGHTS
    )
    assert sorted(set(replay.columns(ORACLE_SIGNALS[0]).sizes.tolist())) == [4, 5]
    rng = np.random.default_rng(5)
    for index, defense in enumerate([*ORACLE_DEFENSES, Mean(), Median()]):
        cell = _oracle_cell(rng, index)
        settings = replace(cell.settings, rounds=int(rng.choice([1025, 1030, 1100])), budget=None)
        config = replace(cell, settings=settings, defense=defense, quality_signal=ORACLE_SIGNALS[0])
        expected = _fingerprint(lambda: _ref_run_cell(config, replay))
        assert expected[0] == "outcome"
        assert _fingerprint(lambda: _run_cell(config, replay)) == expected, config


def test_synthetic_cells_past_one_block_match_the_reference():
    # the quality and evaluator streams run on across blocks: 1,030 rounds
    # under every noise source, for both kinds of defense
    rng = np.random.default_rng(8)
    for index, defense in enumerate([Mean(), AdaptiveTrust()]):
        cell = _oracle_cell(rng, index)
        settings = replace(cell.settings, rounds=1030, budget=None, honest_noise_sd=0.05)
        config = replace(
            cell, settings=settings, defense=defense, attack=RandomNoise(), attack_ratio=0.5
        )
        expected = _fingerprint(lambda: _ref_run_cell(config, None))
        assert expected[0] == "outcome"
        assert _fingerprint(lambda: _run_cell(config, None)) == expected, config


def test_collude_does_not_match_a_producer_id_with_a_trailing_nul():
    # a fixed-width numpy string drops a trailing NUL, so "m\0" read as "m"
    dataset = [
        LoggedSample(
            sample_id=sid,
            task=TaskFamily("qa"),
            producer_id=producer,
            query="q",
            output=f"answer {sid}",
            evaluator_scores={"j": j, "k": 0.5},
        )
        for sid, producer, j in (("s0", "m", 0.3), ("s1", "m\u0000", 0.6))
    ]
    config = replay_config(
        evaluators=profiles(2), attack=Collude("m", 0.2), attack_ratio=1.0, rounds=2
    )
    expected = _fingerprint(lambda: _ref_run_cell(config, _Replay(dataset, DEFAULT_WEIGHTS)))
    assert _fingerprint(lambda: _run_cell(config, _Replay(dataset, DEFAULT_WEIGHTS))) == expected
    assert run_single(config, dataset=dataset).consensus_scores["s1"] == 0.8


def test_adaptive_replay_on_block_columns_matches_the_reference():
    # sim_grid's shape: eight evaluators listed out of id order, five at
    # cost 1 and three at cost 2, under a budget of 6, so the emitters
    # change from round to round as trust moves; every attack, with and
    # without honest noise
    samples = ingest(Path(__file__).parent / "fixtures" / "replay_200.jsonl").samples
    replay = _Replay(samples, DEFAULT_WEIGHTS)
    evaluators = tuple(
        EvaluatorProfile(evaluator_id=f"e{i}", cost=1.0 if i < 5 else 2.0)
        for i in (3, 7, 0, 5, 1, 6, 4, 2)
    )
    attacks = ORACLE_ATTACKS
    cells = [
        sim_config(
            config_id=f"cell{len(attacks) * k + j}",
            evaluators=evaluators,
            rounds=200,
            budget=6.0,
            honest_noise_sd=sd,
            attack=attack,
            attack_ratio=0.25,
            defense=AdaptiveTrust(learning_rate=lr),
            quality_signal=ORACLE_SIGNALS[k % 2],
            rng_seed=k,
        )
        for k, (lr, sd) in enumerate([(1.0, 0.0), (1.0, 0.05), (5.0, 0.0), (5.0, 0.05)])
        for j, attack in enumerate(attacks)
    ]
    long = cells[-1]
    cells.append(replace(long, config_id="long", settings=replace(long.settings, rounds=1030)))
    # the cost-3 evaluator comes to rank first by trust per cost and cannot
    # afford to emit, so no round after the first is scored (seed 18's first
    # round of noise brings this about)
    runs_out = sim_config(
        config_id="runs-out",
        evaluators=tuple(
            EvaluatorProfile(evaluator_id=e, cost=c)
            for e, c in (("e1", 0.5), ("e3", 0.5), ("e2", 3.0), ("e0", 0.25))
        ),
        rounds=100,
        budget=1.5,
        honest_noise_sd=0.5,
        defense=AdaptiveTrust(learning_rate=50.0, floor=0.0),
        quality_signal=ORACLE_SIGNALS[0],
        rng_seed=18,
    )
    for config in [*cells, runs_out]:
        expected = _fingerprint(lambda: _ref_run_cell(config, replay))
        assert expected[0] == "outcome"
        assert _fingerprint(lambda: _run_cell(config, replay)) == expected, config
        if config is runs_out:
            assert expected[-2] == 99  # skipped rounds
            continue
        # under honest noise, trust moves the emitter set in many rounds
        picks = [
            sample_evaluators(evaluators, list(snapshot.values()), 6.0)
            for snapshot in _run_cell(config, replay).trust_trajectory
        ]
        changed = sum(a != b for a, b in zip(picks, picks[1:]))
        assert changed > 10 or not config.settings.honest_noise_sd, config
