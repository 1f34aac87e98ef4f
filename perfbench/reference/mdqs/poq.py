"""Simulated quality consensus with adversarial evaluators.

Each round, a budgeted subset of evaluators scores every output, a defense
aggregates the emissions into one consensus score, trust optionally adapts,
and the round's reward budget is split across producers in proportion to
their score spread. Two modes share the loop:

  synthetic: per-producer latent quality drawn from a Beta distribution each
      round; evaluators observe that latent value.
  replay: rounds walk a logged dataset's query groups (cycling); evaluators
      observe the configured quality signal for each sample, and consensus
      error is measured against the normalized reference score.

Everything is driven by one Generator derived from (rng_seed, config_id),
so a (config, seed) pair replays bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from mdqs.composite import PAPER_PRESET, compose_batch, make_variant
from mdqs.errors import (
    EmptyAfterTrim,
    MdqsError,
    MissingColumn,
    SimConfigError,
)
from mdqs.model import (
    DEFAULT_WEIGHTS,
    EvaluatorProfile,
    LoggedSample,
    SimError,
    SimOutcome,
    WeightConfig,
)
from mdqs.rng import rng_for
from mdqs.scoring import normalize_batch, normalize_evaluator_scores


def _clip01(x: float) -> float:
    return min(1.0, max(0.0, x))


# ---------------------------------------------------------------------------
# behaviors


@dataclass(frozen=True)
class Inflate:
    """Always report delta above the observed quality."""

    delta: float

    def __post_init__(self):
        if not math.isfinite(self.delta) or self.delta < 0:
            raise ValueError("delta must be finite and >= 0")


@dataclass(frozen=True)
class Deflate:
    """Always report delta below the observed quality."""

    delta: float

    def __post_init__(self):
        if not math.isfinite(self.delta) or self.delta < 0:
            raise ValueError("delta must be finite and >= 0")


@dataclass(frozen=True)
class RandomNoise:
    """Ignore quality entirely; emit uniform noise on [0, 1]."""


@dataclass(frozen=True)
class Collude:
    """Boost one producer, depress everyone else."""

    target_producer: str
    delta: float

    def __post_init__(self):
        if not self.target_producer:
            raise ValueError("target_producer must be non-empty")
        if not math.isfinite(self.delta) or self.delta < 0:
            raise ValueError("delta must be finite and >= 0")


@dataclass(frozen=True)
class Camouflage:
    """Behave honestly for a while, then inflate."""

    honest_rounds: int
    then_delta: float

    def __post_init__(self):
        if self.honest_rounds < 0:
            raise ValueError("honest_rounds must be >= 0")
        if not math.isfinite(self.then_delta) or self.then_delta < 0:
            raise ValueError("then_delta must be finite and >= 0")


AttackStrategy = Union[Inflate, Deflate, RandomNoise, Collude, Camouflage]


@dataclass(frozen=True)
class Honest:
    noise_sd: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.noise_sd) or self.noise_sd < 0:
            raise ValueError("noise_sd must be finite and >= 0")


@dataclass(frozen=True)
class Malicious:
    strategy: AttackStrategy


EvaluatorBehavior = Union[Honest, Malicious]


def attack_label(attack: AttackStrategy | None) -> str:
    if attack is None:
        return "none"
    if isinstance(attack, Inflate):
        return f"inflate({attack.delta:g})"
    if isinstance(attack, Deflate):
        return f"deflate({attack.delta:g})"
    if isinstance(attack, RandomNoise):
        return "random_noise"
    if isinstance(attack, Collude):
        return f"collude({attack.target_producer},{attack.delta:g})"
    if isinstance(attack, Camouflage):
        return f"camouflage({attack.honest_rounds},{attack.then_delta:g})"
    raise ValueError(f"unknown attack {attack!r}")


def evaluator_emit(
    behavior: EvaluatorBehavior,
    quality: float,
    round_index: int,
    rng: np.random.Generator,
    producer_id: str | None = None,
) -> float:
    """One evaluator's reported score for one output.

    quality is what the evaluator observes (latent oracle in synthetic
    mode, the configured signal in replay) and must already be in [0, 1].
    """
    if not (0.0 <= quality <= 1.0):
        raise ValueError(f"quality must be in [0, 1], got {quality!r}")
    if isinstance(behavior, Honest):
        if behavior.noise_sd == 0.0:
            return quality
        return _clip01(quality + rng.normal(0.0, behavior.noise_sd))
    strategy = behavior.strategy
    if isinstance(strategy, Inflate):
        return _clip01(quality + strategy.delta)
    if isinstance(strategy, Deflate):
        return _clip01(quality - strategy.delta)
    if isinstance(strategy, RandomNoise):
        return float(rng.uniform(0.0, 1.0))
    if isinstance(strategy, Collude):
        if producer_id is not None and producer_id == strategy.target_producer:
            return _clip01(quality + strategy.delta)
        return _clip01(quality - strategy.delta)
    if isinstance(strategy, Camouflage):
        if round_index < strategy.honest_rounds:
            return quality
        return _clip01(quality + strategy.then_delta)
    raise ValueError(f"unknown behavior {behavior!r}")


# ---------------------------------------------------------------------------
# defenses


@dataclass(frozen=True)
class Mean:
    """Trust-weighted mean; no robustness, the baseline to beat."""


@dataclass(frozen=True)
class Median:
    """Trust-weighted median: smallest value whose cumulative trust
    reaches half. Immune while attackers hold under half the trust."""


@dataclass(frozen=True)
class TrimmedMean:
    """Drop the floor(f*n) lowest and highest emissions, then average."""

    trim_fraction: float = 0.2

    def __post_init__(self):
        if not (0.0 <= self.trim_fraction < 0.5):
            raise ValueError("trim_fraction must be in [0, 0.5)")


@dataclass(frozen=True)
class AdaptiveTrust:
    """Trust-weighted mean plus multiplicative trust downdates.

    floor defaults to 0.01 / n_evaluators at run time; it keeps written-off
    evaluators from being frozen out forever.
    """

    learning_rate: float = 1.0
    floor: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError("learning_rate must be finite and >= 0")
        if self.floor is not None and (not math.isfinite(self.floor) or self.floor < 0):
            raise ValueError("floor must be finite and >= 0")


DefenseConfig = Union[Mean, Median, TrimmedMean, AdaptiveTrust]


def defense_label(defense: DefenseConfig) -> str:
    if isinstance(defense, Mean):
        return "mean"
    if isinstance(defense, Median):
        return "median"
    if isinstance(defense, TrimmedMean):
        return f"trimmed_mean({defense.trim_fraction:g})"
    if isinstance(defense, AdaptiveTrust):
        return f"adaptive_trust(lr={defense.learning_rate:g})"
    raise ValueError(f"unknown defense {defense!r}")


def _renormalized(weights: Mapping[str, float]) -> dict[str, float]:
    total = math.fsum(weights.values())
    if total <= 0.0:
        n = len(weights)
        return {e: 1.0 / n for e in weights}
    return {e: w / total for e, w in weights.items()}


def weighted_median(scores: Mapping[str, float], trust: Mapping[str, float]) -> float:
    """Smallest emitted value whose cumulative (renormalized) trust >= 1/2.

    Ties in value sort by evaluator id, which fixes the walk order but not
    the result; equal values are interchangeable.
    """
    if not scores:
        raise ValueError("cannot take the median of zero scores")
    weights = _renormalized({e: trust.get(e, 0.0) for e in scores})
    ordered = sorted(scores.items(), key=lambda kv: (kv[1], kv[0]))
    cumulative = 0.0
    for evaluator, value in ordered:
        cumulative += weights[evaluator]
        if cumulative >= 0.5:
            return value
    return ordered[-1][1]  # fp slack; cumulative should have reached 1.0


def aggregate(
    scores: Mapping[str, float],
    trust: Mapping[str, float],
    defense: DefenseConfig,
) -> float:
    """Collapse one output's emissions into a consensus score."""
    if not scores:
        raise ValueError("cannot aggregate zero scores")
    if isinstance(defense, Median):
        return weighted_median(scores, trust)
    if isinstance(defense, TrimmedMean):
        k = int(defense.trim_fraction * len(scores))
        ordered = sorted(scores.items(), key=lambda kv: (kv[1], kv[0]))
        kept = ordered[k : len(ordered) - k] if k else ordered
        if not kept:
            raise EmptyAfterTrim(len(scores), k)
        weights = _renormalized({e: trust.get(e, 0.0) for e, _ in kept})
        return math.fsum(weights[e] * v for e, v in kept)
    if isinstance(defense, (Mean, AdaptiveTrust)):
        weights = _renormalized({e: trust.get(e, 0.0) for e in scores})
        return math.fsum(weights[e] * v for e, v in scores.items())
    raise ValueError(f"unknown defense {defense!r}")


def update_trust(
    trust: Mapping[str, float],
    scores: Mapping[str, float],
    reference: float,
    learning_rate: float,
    floor: float,
) -> dict[str, float]:
    """Multiplicative downdate by deviation from the reference, then
    renormalize back onto the simplex. Evaluators who did not score this
    output keep their weight (before renormalization)."""
    updated: dict[str, float] = {}
    for evaluator, t in trust.items():
        if evaluator in scores:
            deviation = abs(scores[evaluator] - reference)
            updated[evaluator] = max(floor, t * math.exp(-learning_rate * deviation))
        else:
            updated[evaluator] = t
    return _renormalized(updated)


def sample_evaluators(
    profiles: Sequence[EvaluatorProfile],
    trust: Mapping[str, float],
    budget: float,
) -> set[str]:
    """Greedy cost-aware selection.

    Evaluators are taken in descending trust/cost (zero cost sorts first),
    ties broken by evaluator id, stopping at the first one the remaining
    budget cannot cover.
    """
    def ratio(p: EvaluatorProfile) -> float:
        if p.cost == 0.0:
            return math.inf
        return trust.get(p.evaluator_id, 0.0) / p.cost

    ordered = sorted(profiles, key=lambda p: (-ratio(p), p.evaluator_id))
    selected: set[str] = set()
    spent = 0.0
    for p in ordered:
        if spent + p.cost > budget:
            break
        selected.add(p.evaluator_id)
        spent += p.cost
    return selected


def allocate_rewards(
    consensus: Mapping[str, Mapping[str, float]],
    reward_budget: float,
) -> dict[str, float]:
    """Split a budget across producers by score spread.

    consensus maps contest key (query or round) -> {producer -> score}.
    Each contest gets an equal slice; within a contest a producer earns in
    proportion to max(score - min score, 0), and a zero spread splits the
    slice equally. Payouts sum to reward_budget exactly up to fp rounding.
    """
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


# ---------------------------------------------------------------------------
# quality signals (replay mode)


@dataclass(frozen=True)
class SingleEvaluator:
    evaluator_id: str


@dataclass(frozen=True)
class ConsensusBaseline:
    stat: str = "median"

    def __post_init__(self):
        if self.stat not in ("mean", "median"):
            raise ValueError("stat must be 'mean' or 'median'")


@dataclass(frozen=True)
class CompositeSignal:
    variant: str = "default"


QualitySignal = Union[SingleEvaluator, ConsensusBaseline, CompositeSignal]


def signal_label(signal: QualitySignal | None) -> str:
    if signal is None:
        return "oracle"
    if isinstance(signal, SingleEvaluator):
        return f"evaluator:{signal.evaluator_id}"
    if isinstance(signal, ConsensusBaseline):
        return f"baseline:{signal.stat}"
    if isinstance(signal, CompositeSignal):
        return f"composite:{signal.variant}"
    raise ValueError(f"unknown signal {signal!r}")


# ---------------------------------------------------------------------------
# configuration and the run loop


@dataclass(frozen=True)
class SimConfig:
    """One cell of a simulation grid.

    With attack set, the first floor(attack_ratio * n) evaluators in listed
    order turn malicious; the rest are honest with honest_noise_sd. With
    attack None, profile behaviors apply as given.
    """

    config_id: str
    evaluators: tuple[EvaluatorProfile, ...]
    defense: DefenseConfig
    rounds: int
    reward_budget: float = 1.0
    attack: AttackStrategy | None = None
    attack_ratio: float = 0.0
    budget: float | None = None
    rng_seed: int = 0
    quality_signal: QualitySignal | None = None
    honest_noise_sd: float = 0.0
    producers: Mapping[str, float] | None = None
    beta_concentration: float = 10.0

    def __post_init__(self):
        if not self.config_id:
            raise SimConfigError("config_id must be non-empty")
        if not self.evaluators:
            raise SimConfigError(f"{self.config_id}: needs at least one evaluator")
        ids = [p.evaluator_id for p in self.evaluators]
        if len(set(ids)) != len(ids):
            raise SimConfigError(f"{self.config_id}: duplicate evaluator ids")
        if self.rounds < 1:
            raise SimConfigError(f"{self.config_id}: rounds must be >= 1")
        if not math.isfinite(self.reward_budget) or self.reward_budget < 0:
            raise SimConfigError(f"{self.config_id}: reward_budget must be finite and >= 0")
        if not (0.0 <= self.attack_ratio <= 1.0):
            raise SimConfigError(f"{self.config_id}: attack_ratio must be in [0, 1]")
        if self.budget is not None and (not math.isfinite(self.budget) or self.budget < 0):
            raise SimConfigError(f"{self.config_id}: budget must be finite and >= 0")
        if not (0.0 <= self.honest_noise_sd) or not math.isfinite(self.honest_noise_sd):
            raise SimConfigError(f"{self.config_id}: honest_noise_sd must be finite and >= 0")
        if self.beta_concentration <= 0:
            raise SimConfigError(f"{self.config_id}: beta_concentration must be > 0")
        if self.producers is not None:
            clean = {}
            for producer, mean in self.producers.items():
                m = float(mean)
                if not (0.0 < m < 1.0):
                    raise SimConfigError(
                        f"{self.config_id}: producer {producer!r} mean quality must be in (0, 1)"
                    )
                clean[str(producer)] = m
            object.__setattr__(self, "producers", clean)
        object.__setattr__(self, "evaluators", tuple(self.evaluators))

    def attacker_count(self) -> int:
        return int(self.attack_ratio * len(self.evaluators))

    def resolve_behaviors(self) -> dict[str, EvaluatorBehavior]:
        behaviors: dict[str, EvaluatorBehavior] = {}
        if self.attack is not None:
            k = self.attacker_count()
            for i, p in enumerate(self.evaluators):
                if i < k:
                    behaviors[p.evaluator_id] = Malicious(self.attack)
                else:
                    behaviors[p.evaluator_id] = Honest(self.honest_noise_sd)
            return behaviors
        for p in self.evaluators:
            behaviors[p.evaluator_id] = p.behavior or Honest(self.honest_noise_sd)
        return behaviors


def _replay_signal_values(
    dataset: Sequence[LoggedSample],
    signal: QualitySignal,
    base_weights: WeightConfig,
) -> dict[str, float]:
    if isinstance(signal, SingleEvaluator):
        normalized = normalize_evaluator_scores(dataset)
        values = {}
        for s in dataset:
            z = normalized[s.sample_id].get(signal.evaluator_id)
            if z is None:
                raise MissingColumn(signal.evaluator_id, s.sample_id)
            values[s.sample_id] = z
        return values
    if isinstance(signal, ConsensusBaseline):
        from mdqs.audit import consensus_baselines  # local import, avoids a cycle

        baselines = consensus_baselines(dataset)
        return {sid: stats[signal.stat] for sid, stats in baselines.items()}
    if isinstance(signal, CompositeSignal):
        known = dict(PAPER_PRESET)
        if signal.variant not in known:
            raise SimConfigError(
                f"unknown composite variant {signal.variant!r} "
                f"(known: {', '.join(known)})"
            )
        weights = make_variant(base_weights, known[signal.variant])
        scores = compose_batch(dataset, weights)
        return {s.sample_id: v for s, v in zip(dataset, scores)}
    raise SimConfigError(f"replay mode needs a quality signal, got {signal!r}")


def run_single(
    config: SimConfig,
    dataset: Sequence[LoggedSample] | None = None,
    base_weights: WeightConfig = DEFAULT_WEIGHTS,
) -> SimOutcome:
    """Run one config to completion. Deterministic in (config, seed)."""
    n = len(config.evaluators)
    profiles = list(config.evaluators)
    behaviors = config.resolve_behaviors()
    attacker_ids = frozenset(e for e, b in behaviors.items() if isinstance(b, Malicious))

    if isinstance(config.defense, AdaptiveTrust):
        floor = config.defense.floor if config.defense.floor is not None else 0.01 / n
        if floor > 1.0 / n:
            raise SimConfigError(
                f"{config.config_id}: trust floor {floor} exceeds 1/{n}"
            )
        learning_rate = config.defense.learning_rate
        adaptive = True
    else:
        floor, learning_rate, adaptive = 0.0, 0.0, False

    trust: dict[str, float] = {p.evaluator_id: 1.0 / n for p in profiles}
    budget = config.budget if config.budget is not None else math.inf
    rng = rng_for(config.rng_seed, config.config_id)

    if dataset is None:
        if not config.producers:
            raise SimConfigError(
                f"{config.config_id}: synthetic mode needs producer mean qualities"
            )
        rounds_plan = None
    else:
        dataset = list(dataset)
        if not dataset:
            raise SimConfigError(f"{config.config_id}: replay dataset is empty")
        if config.quality_signal is None:
            raise SimConfigError(f"{config.config_id}: replay mode needs a quality signal")
        signal_values = _replay_signal_values(dataset, config.quality_signal, base_weights)
        referenced = [s for s in dataset if s.reference_score is not None]
        ref_norm: dict[str, float] = {}
        if referenced:
            normalized_refs = normalize_batch([s.reference_score for s in referenced])
            ref_norm = {s.sample_id: z for s, z in zip(referenced, normalized_refs)}
        groups: list[list[LoggedSample]] = []
        by_query: dict[str, int] = {}
        for s in dataset:
            if s.query not in by_query:
                by_query[s.query] = len(groups)
                groups.append([])
            groups[by_query[s.query]].append(s)
        rounds_plan = groups

    consensus_scores: dict[str, float] = {}
    rewards: dict[str, float] = {}
    trajectory: list[dict[str, float]] = []
    errors: list[float] = []
    skipped = 0

    for round_index in range(config.rounds):
        selected = sample_evaluators(profiles, trust, budget)
        if not selected:
            skipped += 1
            trajectory.append(dict(trust))
            continue
        emitters = sorted(selected)
        contest: dict[str, dict[str, float]] = {}

        if rounds_plan is None:
            contest_key = f"r{round_index:04d}"
            contest[contest_key] = {}
            for producer in sorted(config.producers):
                mean = config.producers[producer]
                kappa = config.beta_concentration
                quality = float(rng.beta(mean * kappa, (1.0 - mean) * kappa))
                scores = {
                    e: evaluator_emit(behaviors[e], quality, round_index, rng, producer)
                    for e in emitters
                }
                consensus = aggregate(scores, trust, config.defense)
                consensus_scores[f"{contest_key}:{producer}"] = consensus
                contest[contest_key][producer] = consensus
                errors.append(abs(consensus - quality))
                if adaptive:
                    reference = weighted_median(scores, trust)
                    trust = update_trust(trust, scores, reference, learning_rate, floor)
        else:
            group = rounds_plan[round_index % len(rounds_plan)]
            contest_key = group[0].query
            contest[contest_key] = {}
            for sample in group:
                quality = signal_values[sample.sample_id]
                scores = {
                    e: evaluator_emit(
                        behaviors[e], quality, round_index, rng, sample.producer_id
                    )
                    for e in emitters
                }
                consensus = aggregate(scores, trust, config.defense)
                consensus_scores[sample.sample_id] = consensus
                contest[contest_key][sample.producer_id] = consensus
                if sample.sample_id in ref_norm:
                    errors.append(abs(consensus - ref_norm[sample.sample_id]))
                if adaptive:
                    reference = weighted_median(scores, trust)
                    trust = update_trust(trust, scores, reference, learning_rate, floor)

        for producer, share in allocate_rewards(contest, config.reward_budget).items():
            rewards[producer] = rewards.get(producer, 0.0) + share
        trajectory.append(dict(trust))

    return SimOutcome(
        config_id=config.config_id,
        consensus_scores=consensus_scores,
        rewards=rewards,
        trust_trajectory=tuple(trajectory),
        consensus_error=(math.fsum(errors) / len(errors)) if errors else None,
        skipped_rounds=skipped,
        attacker_ids=attacker_ids,
    )


def run_experiment(
    grid: Sequence[SimConfig],
    dataset: Sequence[LoggedSample] | None = None,
    base_weights: WeightConfig = DEFAULT_WEIGHTS,
) -> list[SimOutcome | SimError]:
    """Run every config; a failing config becomes a SimError entry instead
    of aborting the rest of the grid."""
    ids = [c.config_id for c in grid]
    if len(set(ids)) != len(ids):
        raise SimConfigError("grid has duplicate config_ids")
    results: list[SimOutcome | SimError] = []
    for config in grid:
        try:
            results.append(run_single(config, dataset=dataset, base_weights=base_weights))
        except MdqsError as exc:
            results.append(
                SimError(
                    config_id=config.config_id,
                    error_type=type(exc).__name__,
                    message=str(exc),
                )
            )
    return results
