"""Consensus simulation: behaviors, defenses, trust, rewards, run loop."""

import math
from typing import get_args

import numpy as np
import pytest

from mdqs.errors import MissingColumn, SimConfigError
from mdqs.model import (
    CANONICAL_DIMENSIONS,
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
    Malicious,
    Mean,
    Median,
    QualitySignal,
    RandomNoise,
    SimConfig,
    SingleEvaluator,
    TrimmedMean,
    aggregate,
    allocate_rewards,
    attack_label,
    defense_label,
    evaluator_emit,
    run_experiment,
    run_single,
    sample_evaluators,
    signal_label,
    update_trust,
    weighted_median,
)

RNG = np.random.default_rng(0)


def profiles(n, cost=1.0):
    return tuple(EvaluatorProfile(evaluator_id=f"e{i:02d}", cost=cost) for i in range(n))


# ------------------------------------------------------------- behaviors

def test_honest_noiseless_reports_quality_exactly():
    assert evaluator_emit(Honest(0.0), 0.37, 0, RNG) == 0.37


def test_honest_noise_stays_clipped():
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = evaluator_emit(Honest(0.5), 0.9, 0, rng)
        assert 0.0 <= v <= 1.0


def test_inflate_and_deflate_clip():
    assert evaluator_emit(Malicious(Inflate(0.3)), 0.5, 0, RNG) == pytest.approx(0.8)
    assert evaluator_emit(Malicious(Inflate(0.3)), 0.9, 0, RNG) == 1.0
    assert evaluator_emit(Malicious(Deflate(0.3)), 0.5, 0, RNG) == pytest.approx(0.2)
    assert evaluator_emit(Malicious(Deflate(0.3)), 0.1, 0, RNG) == 0.0


def test_random_noise_ignores_quality():
    rng = np.random.default_rng(4)
    values = {evaluator_emit(Malicious(RandomNoise()), 0.0, 0, rng) for _ in range(50)}
    assert len(values) > 1
    assert all(0.0 <= v <= 1.0 for v in values)


def test_collude_boosts_target_and_buries_rest():
    behavior = Malicious(Collude("star", 0.2))
    assert evaluator_emit(behavior, 0.5, 0, RNG, producer_id="star") == pytest.approx(0.7)
    assert evaluator_emit(behavior, 0.5, 0, RNG, producer_id="rival") == pytest.approx(0.3)
    assert evaluator_emit(behavior, 0.5, 0, RNG, producer_id=None) == pytest.approx(0.3)


def test_camouflage_switches_after_honest_rounds():
    behavior = Malicious(Camouflage(honest_rounds=2, then_delta=0.3))
    assert evaluator_emit(behavior, 0.4, 0, RNG) == 0.4
    assert evaluator_emit(behavior, 0.4, 1, RNG) == 0.4
    assert evaluator_emit(behavior, 0.4, 2, RNG) == pytest.approx(0.7)
    assert evaluator_emit(behavior, 0.4, 99, RNG) == pytest.approx(0.7)


def test_emit_rejects_out_of_range_quality():
    with pytest.raises(ValueError):
        evaluator_emit(Honest(0.0), 1.2, 0, RNG)
    with pytest.raises(ValueError):
        evaluator_emit(Honest(0.0), -0.1, 0, RNG)


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
    assert defense_label(Mean()) == "mean"
    assert defense_label(Median()) == "median"
    assert defense_label(TrimmedMean(0.2)) == "trimmed_mean(0.2)"
    assert defense_label(AdaptiveTrust()) == "adaptive_trust(lr=1)"
    assert set(DEFENSES.values()) == set(get_args(DefenseConfig))
    assert all(DEFENSES[c.type] is c for c in get_args(DefenseConfig))


def test_weighted_median_uniform_trust():
    trust = {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}
    assert weighted_median({"a": 0.0, "b": 0.5, "c": 1.0}, trust) == 0.5


def test_weighted_median_follows_trust_mass():
    scores = {"a": 0.1, "b": 0.5, "c": 0.9}
    assert weighted_median(scores, {"a": 0.05, "b": 0.05, "c": 0.9}) == 0.9
    assert weighted_median(scores, {"a": 0.9, "b": 0.05, "c": 0.05}) == 0.1


def test_weighted_median_zero_trust_falls_back_to_uniform():
    scores = {"a": 0.0, "b": 0.4, "c": 1.0}
    assert weighted_median(scores, {"a": 0.0, "b": 0.0, "c": 0.0}) == 0.4


def test_weighted_median_even_split_takes_lower_boundary():
    # cumulative hits exactly 0.5 on the first of two values
    assert weighted_median({"a": 0.2, "b": 0.8}, {"a": 0.5, "b": 0.5}) == 0.2


def test_aggregate_mean_is_trust_weighted():
    scores = {"a": 0.0, "b": 1.0}
    assert aggregate(scores, {"a": 0.25, "b": 0.75}, Mean()) == pytest.approx(0.75)
    assert aggregate(scores, {"a": 0.5, "b": 0.5}, AdaptiveTrust()) == pytest.approx(0.5)


def test_aggregate_trimmed_mean_drops_extremes():
    scores = {"a": 0.0, "b": 0.5, "c": 1.0}
    trust = {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}
    # k = int(0.34 * 3) = 1: both extremes go, the middle survives
    assert aggregate(scores, trust, TrimmedMean(0.34)) == 0.5


def test_aggregate_trimmed_mean_small_fraction_keeps_all():
    scores = {"a": 0.0, "b": 0.5, "c": 1.0}
    trust = {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}
    assert aggregate(scores, trust, TrimmedMean(0.2)) == pytest.approx(0.5)


def test_aggregate_trimmed_mean_beats_inflators():
    # 4 honest at 0.5, 2 inflated at 1.0; f=0.34 trims k=2 per side
    scores = {"h1": 0.5, "h2": 0.5, "h3": 0.5, "h4": 0.5, "m1": 1.0, "m2": 1.0}
    trust = {e: 1 / 6 for e in scores}
    assert aggregate(scores, trust, TrimmedMean(0.34)) == pytest.approx(0.5)


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate({}, {}, Mean())


# ----------------------------------------------------------------- trust

def test_update_trust_zero_deviation_keeps_distribution():
    trust = {"a": 0.5, "b": 0.3, "c": 0.2}
    scores = {"a": 0.4, "b": 0.4, "c": 0.4}
    out = update_trust(trust, scores, reference=0.4, learning_rate=1.0, floor=0.001)
    for e in trust:
        assert out[e] == pytest.approx(trust[e])


def test_update_trust_penalizes_deviation():
    trust = {"a": 0.5, "b": 0.5}
    scores = {"a": 0.5, "b": 1.0}
    out = update_trust(trust, scores, reference=0.5, learning_rate=1.0, floor=0.001)
    assert out["a"] > out["b"]
    assert out["a"] == pytest.approx(1.0 / (1.0 + math.exp(-0.5)))


def test_update_trust_stays_on_simplex():
    rng = np.random.default_rng(6)
    trust = {f"e{i}": 0.25 for i in range(4)}
    for r in range(50):
        scores = {f"e{i}": float(rng.uniform(0, 1)) for i in range(4)}
        trust = update_trust(trust, scores, float(rng.uniform(0, 1)), 1.0, 0.0025)
        assert math.fsum(trust.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(t >= 0.0 for t in trust.values())


def test_update_trust_floor_pins_collapsed_evaluators():
    trust = {"a": 0.5, "b": 0.5}
    floor = 0.01
    out = trust
    for _ in range(100):
        out = update_trust(out, {"a": 0.0, "b": 1.0}, reference=0.0, learning_rate=5.0, floor=floor)
    # b is maximally wrong every time; the raw weight pins at the floor, so
    # the renormalized share can never drop below floor / (1 + floor)
    assert out["b"] >= floor / (1.0 + floor) - 1e-12
    assert out["b"] < 0.05
    assert math.fsum(out.values()) == pytest.approx(1.0, abs=1e-9)


def test_update_trust_skips_non_participants():
    trust = {"a": 0.6, "b": 0.4}
    out = update_trust(trust, {"a": 1.0}, reference=0.0, learning_rate=1.0, floor=0.001)
    # a is penalized, b's raw weight is untouched, so b's share grows
    assert out["b"] > 0.4
    assert out["a"] < 0.6


# ------------------------------------------------------------- selection

def test_sample_evaluators_prefers_trust_per_cost():
    ps = (
        EvaluatorProfile(evaluator_id="cheap", cost=1.0),
        EvaluatorProfile(evaluator_id="pricey", cost=4.0),
        EvaluatorProfile(evaluator_id="mid", cost=2.0),
    )
    trust = {"cheap": 0.2, "pricey": 0.4, "mid": 0.4}
    # ratios: cheap .2, pricey .1, mid .2; tie broken by id: cheap then mid
    assert sample_evaluators(ps, trust, budget=3.0) == {"cheap", "mid"}


def test_sample_evaluators_stops_at_first_violation():
    ps = (
        EvaluatorProfile(evaluator_id="big", cost=3.0),
        EvaluatorProfile(evaluator_id="late", cost=1.0),
        EvaluatorProfile(evaluator_id="top", cost=1.0),
    )
    trust = {"top": 0.5, "big": 0.9, "late": 0.1}
    # order: top (.5), big (.3), late (.1); big busts the budget and the
    # walk stops there, late is never reached
    assert sample_evaluators(ps, trust, budget=3.0) == {"top"}


def test_sample_evaluators_zero_cost_always_first():
    ps = (
        EvaluatorProfile(evaluator_id="free", cost=0.0),
        EvaluatorProfile(evaluator_id="paid", cost=1.0),
    )
    trust = {"free": 0.01, "paid": 0.99}
    assert sample_evaluators(ps, trust, budget=0.0) == {"free"}
    assert sample_evaluators(ps, trust, budget=1.0) == {"free", "paid"}


def test_sample_evaluators_unlimited_budget_takes_all():
    ps = profiles(5)
    trust = {p.evaluator_id: 0.2 for p in ps}
    assert sample_evaluators(ps, trust, budget=math.inf) == {p.evaluator_id for p in ps}


# --------------------------------------------------------------- rewards

def test_allocate_rewards_proportional_to_spread():
    consensus = {"q": {"a": 0.2, "b": 0.6, "c": 1.0}}
    rewards = allocate_rewards(consensus, 1.0)
    assert rewards["a"] == 0.0
    assert rewards["b"] == pytest.approx(1.0 / 3.0)
    assert rewards["c"] == pytest.approx(2.0 / 3.0)


def test_allocate_rewards_zero_spread_splits_equally():
    rewards = allocate_rewards({"q": {"a": 0.5, "b": 0.5, "c": 0.5}}, 0.9)
    assert rewards == pytest.approx({"a": 0.3, "b": 0.3, "c": 0.3})


def test_allocate_rewards_conserves_budget_across_contests():
    rng = np.random.default_rng(7)
    for _ in range(50):
        consensus = {
            f"q{j}": {f"p{i}": float(rng.uniform(0, 1)) for i in range(4)}
            for j in range(int(rng.integers(1, 6)))
        }
        rewards = allocate_rewards(consensus, 2.5)
        assert math.fsum(rewards.values()) == pytest.approx(2.5, abs=1e-9)


def test_allocate_rewards_edge_cases():
    assert allocate_rewards({}, 1.0) == {}
    with pytest.raises(ValueError):
        allocate_rewards({"q": {"a": 0.5}}, -1.0)
    with pytest.raises(ValueError):
        allocate_rewards({"q": {}}, 1.0)


# ---------------------------------------------------------------- config

def test_sim_config_validation():
    with pytest.raises(SimConfigError):
        SimConfig(config_id="", evaluators=profiles(2), defense=Median(), rounds=5)
    with pytest.raises(SimConfigError):
        SimConfig(config_id="c", evaluators=(), defense=Median(), rounds=5)
    with pytest.raises(SimConfigError):
        SimConfig(config_id="c", evaluators=profiles(2), defense=Median(), rounds=0)
    with pytest.raises(SimConfigError):
        SimConfig(
            config_id="c", evaluators=profiles(2), defense=Median(), rounds=5, attack_ratio=1.5
        )
    with pytest.raises(SimConfigError):
        SimConfig(
            config_id="c",
            evaluators=profiles(2),
            defense=Median(),
            rounds=5,
            producers={"p": 1.0},
        )
    dup = (EvaluatorProfile(evaluator_id="e"), EvaluatorProfile(evaluator_id="e"))
    with pytest.raises(SimConfigError):
        SimConfig(config_id="c", evaluators=dup, defense=Median(), rounds=5)


def test_attacker_count_truncates():
    cfg = SimConfig(
        config_id="c",
        evaluators=profiles(5),
        defense=Median(),
        rounds=1,
        attack=Inflate(0.1),
        attack_ratio=0.5,
        producers={"p": 0.5},
    )
    assert cfg.attacker_count() == 2


def test_resolve_behaviors_attack_takes_listed_order():
    cfg = SimConfig(
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
    assert behaviors["e00"] == Malicious(Deflate(0.2))
    assert behaviors["e01"] == Malicious(Deflate(0.2))
    assert behaviors["e02"] == Honest(0.05)
    assert behaviors["e03"] == Honest(0.05)


def test_resolve_behaviors_profile_behaviors_without_attack():
    ps = (
        EvaluatorProfile(evaluator_id="a", behavior=Malicious(RandomNoise())),
        EvaluatorProfile(evaluator_id="b"),
    )
    cfg = SimConfig(
        config_id="c",
        evaluators=ps,
        defense=Median(),
        rounds=1,
        honest_noise_sd=0.1,
        producers={"p": 0.5},
    )
    behaviors = cfg.resolve_behaviors()
    assert behaviors["a"] == Malicious(RandomNoise())
    assert behaviors["b"] == Honest(0.1)


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
    return SimConfig(**base)


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
            task=TaskFamily.QA,
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
    return SimConfig(**base)


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
    good = replay_config(config_id="good")
    bad = replay_config(config_id="bad", quality_signal=SingleEvaluator("missing"))
    results = run_experiment([good, bad], dataset=replay_dataset())
    assert isinstance(results[0], SimOutcome)
    assert isinstance(results[1], SimError)
    assert results[1].error_type == "MissingColumn"
    assert "missing" in results[1].message


def test_run_experiment_rejects_duplicate_ids():
    with pytest.raises(SimConfigError):
        run_experiment([synth_config(), synth_config()])
