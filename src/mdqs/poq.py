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
from typing import Callable, ClassVar, Mapping, Sequence, Union

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
#
# Each strategy family (attacks, defenses, quality signals) is a set of
# frozen dataclasses. A class carries its config `type` name, its label for
# config ids and reports, and its behavior; the family's registry maps the
# `type` name to the class. mdqs.io builds an entry from the class's fields.


@dataclass(frozen=True)
class Inflate:
    """Always report delta above the observed quality."""

    type: ClassVar[str] = "inflate"
    delta: float = 0.2

    def __post_init__(self):
        if not math.isfinite(self.delta) or self.delta < 0:
            raise ValueError("delta must be finite and >= 0")

    def label(self) -> str:
        return f"inflate({self.delta:g})"

    def emit(self, quality, round_index, rng, producer_id) -> float:
        return _clip01(quality + self.delta)


@dataclass(frozen=True)
class Deflate:
    """Always report delta below the observed quality."""

    type: ClassVar[str] = "deflate"
    delta: float = 0.2

    def __post_init__(self):
        if not math.isfinite(self.delta) or self.delta < 0:
            raise ValueError("delta must be finite and >= 0")

    def label(self) -> str:
        return f"deflate({self.delta:g})"

    def emit(self, quality, round_index, rng, producer_id) -> float:
        return _clip01(quality - self.delta)


@dataclass(frozen=True)
class RandomNoise:
    """Ignore quality entirely; emit uniform noise on [0, 1]."""

    type: ClassVar[str] = "random_noise"

    def label(self) -> str:
        return "random_noise"

    def emit(self, quality, round_index, rng, producer_id) -> float:
        return float(rng.uniform(0.0, 1.0))


@dataclass(frozen=True)
class Collude:
    """Boost one producer, depress everyone else."""

    type: ClassVar[str] = "collude"
    target_producer: str
    delta: float = 0.2

    def __post_init__(self):
        if not self.target_producer:
            raise ValueError("target_producer must be non-empty")
        if not math.isfinite(self.delta) or self.delta < 0:
            raise ValueError("delta must be finite and >= 0")

    def label(self) -> str:
        return f"collude({self.target_producer},{self.delta:g})"

    def emit(self, quality, round_index, rng, producer_id) -> float:
        if producer_id is not None and producer_id == self.target_producer:
            return _clip01(quality + self.delta)
        return _clip01(quality - self.delta)


@dataclass(frozen=True)
class Camouflage:
    """Behave honestly for a while, then inflate."""

    type: ClassVar[str] = "camouflage"
    honest_rounds: int = 0
    then_delta: float = 0.2

    def __post_init__(self):
        if self.honest_rounds < 0:
            raise ValueError("honest_rounds must be >= 0")
        if not math.isfinite(self.then_delta) or self.then_delta < 0:
            raise ValueError("then_delta must be finite and >= 0")

    def label(self) -> str:
        return f"camouflage({self.honest_rounds},{self.then_delta:g})"

    def emit(self, quality, round_index, rng, producer_id) -> float:
        if round_index < self.honest_rounds:
            return quality
        return _clip01(quality + self.then_delta)


AttackStrategy = Union[Inflate, Deflate, RandomNoise, Collude, Camouflage]
ATTACKS: dict[str, type] = {
    c.type: c for c in (Inflate, Deflate, RandomNoise, Collude, Camouflage)
}


@dataclass(frozen=True)
class Honest:
    noise_sd: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.noise_sd) or self.noise_sd < 0:
            raise ValueError("noise_sd must be finite and >= 0")

    def emit(self, quality, round_index, rng, producer_id) -> float:
        if self.noise_sd == 0.0:  # draws nothing, so the RNG stream stays put
            return quality
        return _clip01(quality + rng.normal(0.0, self.noise_sd))


@dataclass(frozen=True)
class Malicious:
    strategy: AttackStrategy

    def emit(self, quality, round_index, rng, producer_id) -> float:
        return self.strategy.emit(quality, round_index, rng, producer_id)


EvaluatorBehavior = Union[Honest, Malicious]


def attack_label(attack: AttackStrategy | None) -> str:
    return "none" if attack is None else attack.label()


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
    return behavior.emit(quality, round_index, rng, producer_id)


# ---------------------------------------------------------------------------
# defenses


TrustStep = Callable[[Mapping[str, float], Mapping[str, float]], dict[str, float]]


class _FixedTrust:
    """Defenses under which trust never moves."""

    def trust_step(self, n_evaluators: int, config_id: str) -> TrustStep | None:
        return None


@dataclass(frozen=True)
class Mean(_FixedTrust):
    """Trust-weighted mean; no robustness, the baseline to beat."""

    type: ClassVar[str] = "mean"

    def label(self) -> str:
        return "mean"

    def aggregate(self, scores: Mapping[str, float], trust: Mapping[str, float]) -> float:
        return _weighted_mean(scores, trust)


@dataclass(frozen=True)
class Median(_FixedTrust):
    """Trust-weighted median: smallest value whose cumulative trust
    reaches half. Immune while attackers hold under half the trust."""

    type: ClassVar[str] = "median"

    def label(self) -> str:
        return "median"

    def aggregate(self, scores: Mapping[str, float], trust: Mapping[str, float]) -> float:
        return weighted_median(scores, trust)


@dataclass(frozen=True)
class TrimmedMean(_FixedTrust):
    """Drop the floor(f*n) lowest and highest emissions, then average."""

    type: ClassVar[str] = "trimmed_mean"
    trim_fraction: float = 0.2

    def __post_init__(self):
        if not (0.0 <= self.trim_fraction < 0.5):
            raise ValueError("trim_fraction must be in [0, 0.5)")

    def label(self) -> str:
        return f"trimmed_mean({self.trim_fraction:g})"

    def aggregate(self, scores: Mapping[str, float], trust: Mapping[str, float]) -> float:
        k = int(self.trim_fraction * len(scores))
        ordered = sorted(scores.items(), key=lambda kv: (kv[1], kv[0]))
        kept = ordered[k : len(ordered) - k] if k else ordered
        if not kept:
            raise EmptyAfterTrim(len(scores), k)
        weights = _renormalized({e: trust.get(e, 0.0) for e, _ in kept})
        return math.fsum(weights[e] * v for e, v in kept)


@dataclass(frozen=True)
class AdaptiveTrust:
    """Trust-weighted mean plus multiplicative trust downdates.

    floor defaults to 0.01 / n_evaluators at run time; it keeps written-off
    evaluators from being frozen out forever.
    """

    type: ClassVar[str] = "adaptive_trust"
    learning_rate: float = 1.0
    floor: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError("learning_rate must be finite and >= 0")
        if self.floor is not None and (not math.isfinite(self.floor) or self.floor < 0):
            raise ValueError("floor must be finite and >= 0")

    def label(self) -> str:
        return f"adaptive_trust(lr={self.learning_rate:g})"

    def aggregate(self, scores: Mapping[str, float], trust: Mapping[str, float]) -> float:
        return _weighted_mean(scores, trust)

    def trust_step(self, n_evaluators: int, config_id: str) -> TrustStep:
        """Per-output update: downdate each emitter by its distance from the
        trust-weighted median, never below the floor."""
        n = n_evaluators
        floor = self.floor if self.floor is not None else 0.01 / n
        if floor > 1.0 / n:
            raise SimConfigError(f"{config_id}: trust floor {floor} exceeds 1/{n}")
        learning_rate = self.learning_rate

        def step(trust: Mapping[str, float], scores: Mapping[str, float]) -> dict[str, float]:
            reference = weighted_median(scores, trust)
            return update_trust(trust, scores, reference, learning_rate, floor)

        return step


DefenseConfig = Union[Mean, Median, TrimmedMean, AdaptiveTrust]
DEFENSES: dict[str, type] = {c.type: c for c in (Mean, Median, TrimmedMean, AdaptiveTrust)}


def defense_label(defense: DefenseConfig) -> str:
    return defense.label()


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


def _weighted_mean(scores: Mapping[str, float], trust: Mapping[str, float]) -> float:
    weights = _renormalized({e: trust.get(e, 0.0) for e in scores})
    return math.fsum(weights[e] * v for e, v in scores.items())


def aggregate(
    scores: Mapping[str, float],
    trust: Mapping[str, float],
    defense: DefenseConfig,
) -> float:
    """Collapse one output's emissions into a consensus score."""
    if not scores:
        raise ValueError("cannot aggregate zero scores")
    return defense.aggregate(scores, trust)


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
    """One logged evaluator column, min-max normalized over the dataset."""

    type: ClassVar[str] = "evaluator"
    evaluator_id: str

    def label(self) -> str:
        return f"evaluator:{self.evaluator_id}"

    def values(
        self, dataset: Sequence[LoggedSample], base_weights: WeightConfig
    ) -> dict[str, float]:
        normalized = normalize_evaluator_scores(dataset)
        values = {}
        for s in dataset:
            z = normalized[s.sample_id].get(self.evaluator_id)
            if z is None:
                raise MissingColumn(self.evaluator_id, s.sample_id)
            values[s.sample_id] = z
        return values


@dataclass(frozen=True)
class ConsensusBaseline:
    """Mean or median of the normalized evaluator columns."""

    type: ClassVar[str] = "baseline"
    stat: str = "median"

    def __post_init__(self):
        if self.stat not in ("mean", "median"):
            raise ValueError("stat must be 'mean' or 'median'")

    def label(self) -> str:
        return f"baseline:{self.stat}"

    def values(
        self, dataset: Sequence[LoggedSample], base_weights: WeightConfig
    ) -> dict[str, float]:
        from mdqs.audit import consensus_baselines  # local import, avoids a cycle

        baselines = consensus_baselines(dataset)
        return {sid: stats[self.stat] for sid, stats in baselines.items()}


@dataclass(frozen=True)
class CompositeSignal:
    """The composite under one of the paper preset's weight variants."""

    type: ClassVar[str] = "composite"
    variant: str = "default"

    def __post_init__(self):
        known = dict(PAPER_PRESET)
        if self.variant not in known:
            raise SimConfigError(
                f"unknown composite variant {self.variant!r} (known: {', '.join(known)})"
            )

    def label(self) -> str:
        return f"composite:{self.variant}"

    def values(
        self, dataset: Sequence[LoggedSample], base_weights: WeightConfig
    ) -> dict[str, float]:
        weights = make_variant(base_weights, dict(PAPER_PRESET)[self.variant])
        scores = compose_batch(dataset, weights)
        return {s.sample_id: v for s, v in zip(dataset, scores)}


QualitySignal = Union[SingleEvaluator, ConsensusBaseline, CompositeSignal]
SIGNALS: dict[str, type] = {
    c.type: c for c in (SingleEvaluator, ConsensusBaseline, CompositeSignal)
}


def signal_label(signal: QualitySignal | None) -> str:
    return "oracle" if signal is None else signal.label()


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

    trust_step = config.defense.trust_step(n, config.config_id)  # None: trust stays put
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
        signal_values = config.quality_signal.values(dataset, base_weights)
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
                if trust_step is not None:
                    trust = trust_step(trust, scores)
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
                if trust_step is not None:
                    trust = trust_step(trust, scores)

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
