"""Simulated quality consensus with adversarial evaluators.

Each round, a budgeted subset of evaluators scores every output, a defense
aggregates the emissions into one consensus score, trust optionally adapts,
and the round's reward budget is split across producers in proportion to
their score spread. The first floor(attack_ratio * n) evaluators behave
as the cell's attack strategy itself; the rest are Honest.

Trust is one list in the order the evaluators are listed, and each
trust_trajectory snapshot keeps that order. A round's emitters score in
evaluator-id order, and a defense sees their values and trust as parallel
lists in that order, so the weighted median and trimmed mean break value
ties by evaluator id. One round loop serves both modes, which differ only
in the outputs a round scores:

  synthetic: per-producer latent quality drawn from a Beta distribution each
      round; evaluators observe that latent value, and the error is measured
      against it.
  replay: rounds walk a logged dataset's query groups (cycling); evaluators
      observe the configured quality signal for each sample, and consensus
      error is measured against the normalized reference score. A run
      computes the query groups, the normalized references and each distinct
      signal's values once; every cell of the grid shares them.

Everything is driven by one Generator derived from (rng_seed, config_id),
so a (config, seed) pair replays bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, ClassVar, Iterator, Mapping, Sequence, Union

from mdqs.composite import VARIANTS, compose_batch, variant
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


EvaluatorBehavior = Union[Honest, AttackStrategy]


def attack_label(attack: AttackStrategy | None) -> str:
    return "none" if attack is None else attack.label()


# ---------------------------------------------------------------------------
# defenses
#
# aggregate(values, trust) gets the emitters' values and trust as parallel
# lists in evaluator-id order. A trust step maps (whole trust list, emitter
# positions, their values) to the next trust list.


TrustStep = Callable[[list[float], Sequence[int], Sequence[float]], list[float]]


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

    def aggregate(self, values: Sequence[float], trust: Sequence[float]) -> float:
        return _weighted_mean(values, trust)


@dataclass(frozen=True)
class Median(_FixedTrust):
    """Trust-weighted median: smallest value whose cumulative trust
    reaches half. Immune while attackers hold under half the trust."""

    type: ClassVar[str] = "median"

    def label(self) -> str:
        return "median"

    def aggregate(self, values: Sequence[float], trust: Sequence[float]) -> float:
        return weighted_median(values, trust)


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

    def aggregate(self, values: Sequence[float], trust: Sequence[float]) -> float:
        k = int(self.trim_fraction * len(values))
        ordered = _by_value(values)
        kept = ordered[k : len(ordered) - k] if k else ordered
        if not kept:
            raise EmptyAfterTrim(len(values), k)
        return _weighted_mean([values[i] for i in kept], [trust[i] for i in kept])


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

    def aggregate(self, values: Sequence[float], trust: Sequence[float]) -> float:
        return _weighted_mean(values, trust)

    def trust_step(self, n_evaluators: int, config_id: str) -> TrustStep:
        """Per-output multiplicative downdate: each emitter's weight shrinks
        with its distance from the trust-weighted median, never below the
        floor, and the list is renormalized back onto the simplex. Evaluators
        who did not emit keep their weight (before renormalization)."""
        n = n_evaluators
        floor = self.floor if self.floor is not None else 0.01 / n
        if floor > 1.0 / n:
            raise SimConfigError(f"{config_id}: trust floor {floor} exceeds 1/{n}")
        learning_rate = self.learning_rate

        def step(trust: list[float], emitters: Sequence[int], values: Sequence[float]):
            reference = weighted_median(values, [trust[i] for i in emitters])
            updated = list(trust)
            for i, value in zip(emitters, values):
                deviation = abs(value - reference)
                updated[i] = max(floor, trust[i] * math.exp(-learning_rate * deviation))
            return _renormalized(updated)

        return step


DefenseConfig = Union[Mean, Median, TrimmedMean, AdaptiveTrust]
DEFENSES: dict[str, type] = {c.type: c for c in (Mean, Median, TrimmedMean, AdaptiveTrust)}


def _renormalized(weights: Sequence[float]) -> list[float]:
    total = math.fsum(weights)
    if total <= 0.0:
        return [1.0 / len(weights)] * len(weights)
    return [w / total for w in weights]


def _by_value(values: Sequence[float]) -> list[int]:
    """Positions in ascending value; the stable sort keeps tied values in
    the order given, which is evaluator-id order."""
    return sorted(range(len(values)), key=values.__getitem__)


def weighted_median(values: Sequence[float], trust: Sequence[float]) -> float:
    """Smallest value whose cumulative (renormalized) trust >= 1/2.

    values and trust are parallel, in evaluator-id order. Tied values are
    walked in that order, which fixes the walk but not the result; equal
    values are interchangeable.
    """
    if not values:
        raise ValueError("cannot take the median of zero scores")
    weights = _renormalized(trust)
    ordered = _by_value(values)
    cumulative = 0.0
    for i in ordered:
        cumulative += weights[i]
        if cumulative >= 0.5:
            return values[i]
    return values[ordered[-1]]  # fp slack; cumulative should have reached 1.0


def _weighted_mean(values: Sequence[float], trust: Sequence[float]) -> float:
    return math.fsum(w * v for w, v in zip(_renormalized(trust), values))


def sample_evaluators(
    profiles: Sequence[EvaluatorProfile],
    trust: Sequence[float],
    budget: float,
) -> list[int]:
    """Greedy cost-aware selection; trust is parallel to profiles, and the
    chosen positions come back in evaluator-id order.

    Evaluators are taken in descending trust/cost (zero cost sorts first),
    ties broken by evaluator id, stopping at the first one the remaining
    budget cannot cover.
    """
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
    """The composite under one of the weight variants in VARIANTS."""

    type: ClassVar[str] = "composite"
    variant: str = "default"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise SimConfigError(
                f"unknown composite variant {self.variant!r} (known: {', '.join(VARIANTS)})"
            )

    def label(self) -> str:
        return f"composite:{self.variant}"

    def values(
        self, dataset: Sequence[LoggedSample], base_weights: WeightConfig
    ) -> dict[str, float]:
        scores = compose_batch(dataset, variant(base_weights, self.variant))
        return {s.sample_id: v for s, v in zip(dataset, scores)}


QualitySignal = Union[SingleEvaluator, ConsensusBaseline, CompositeSignal]
SIGNALS: dict[str, type] = {
    c.type: c for c in (SingleEvaluator, ConsensusBaseline, CompositeSignal)
}


def signal_label(signal: QualitySignal | None) -> str:
    return "oracle" if signal is None else signal.label()


# ---------------------------------------------------------------------------
# configuration and the run loop


# Each round adds a trust snapshot to the cell's report, so a cell's work and
# its sim_<id>.json grow with rounds; beyond this a typo, not a study, is likely.
MAX_ROUNDS = 1_000_000


@dataclass(frozen=True)
class SimSettings:
    """What every cell of a simulation grid shares: the evaluators, rounds
    and budgets; producers and beta_concentration drive synthetic mode."""

    evaluators: tuple[EvaluatorProfile, ...]
    rounds: int = 200
    reward_budget: float = 1.0
    budget: float | None = None
    honest_noise_sd: float = 0.0
    producers: Mapping[str, float] | None = None
    beta_concentration: float = 10.0

    def __post_init__(self):
        if not self.evaluators:
            raise SimConfigError("evaluators must list at least one evaluator")
        ids = [p.evaluator_id for p in self.evaluators]
        if len(set(ids)) != len(ids):
            repeated = next(i for n, i in enumerate(ids) if i in ids[:n])
            raise SimConfigError(f"duplicate evaluator id {repeated!r}")
        if not 1 <= self.rounds <= MAX_ROUNDS:
            raise SimConfigError(f"rounds must be in [1, {MAX_ROUNDS}]")
        # every round pays out reward_budget, so the run's total must be finite too
        if not math.isfinite(self.reward_budget * self.rounds) or self.reward_budget < 0:
            raise SimConfigError(
                f"reward_budget must be >= 0 and finite over {self.rounds} rounds"
            )
        if self.budget is not None and (not math.isfinite(self.budget) or self.budget < 0):
            raise SimConfigError("budget must be finite and >= 0")
        if not (0.0 <= self.honest_noise_sd) or not math.isfinite(self.honest_noise_sd):
            raise SimConfigError("honest_noise_sd must be finite and >= 0")
        if not (math.isfinite(self.beta_concentration) and self.beta_concentration > 0):
            raise SimConfigError("beta_concentration must be finite and > 0")
        if self.producers is not None:
            clean = {}
            for producer, mean in self.producers.items():
                m = float(mean)
                if not (0.0 < m < 1.0):
                    raise SimConfigError(f"producer {producer!r} mean quality must be in (0, 1)")
                clean[str(producer)] = m
            object.__setattr__(self, "producers", clean)
        object.__setattr__(self, "evaluators", tuple(self.evaluators))


@dataclass(frozen=True)
class SimConfig:
    """One cell of a simulation grid.

    With attack set, the first floor(attack_ratio * n) evaluators in listed
    order run the attack; every other evaluator is honest with
    settings.honest_noise_sd.
    """

    config_id: str
    settings: SimSettings
    defense: DefenseConfig
    attack: AttackStrategy | None = None
    attack_ratio: float = 0.0
    quality_signal: QualitySignal | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if not self.config_id:
            raise SimConfigError("config_id must be non-empty")
        if not (0.0 <= self.attack_ratio <= 1.0):
            raise SimConfigError(f"{self.config_id}: attack_ratio must be in [0, 1]")

    def attacker_count(self) -> int:
        """How many evaluators run the attack; 0 without one."""
        if self.attack is None:
            return 0
        # floor of the decimal ratio times n: int(0.58 * 50) would give 28
        return int(Fraction(repr(float(self.attack_ratio))) * len(self.settings.evaluators))

    def resolve_behaviors(self) -> dict[str, EvaluatorBehavior]:
        """Evaluator id -> behavior: the attack itself for the first
        attacker_count() evaluators, Honest(honest_noise_sd) for the rest."""
        k = self.attacker_count()
        honest = Honest(self.settings.honest_noise_sd)
        return {
            p.evaluator_id: self.attack if i < k else honest
            for i, p in enumerate(self.settings.evaluators)
        }


class _Replay:
    """A replay dataset's inputs to the round loop, shared by every cell of
    one run. Each is built on first use, in the order a cell reads them, so
    a cell raises the same first error as it would when run alone."""

    def __init__(self, dataset: Sequence[LoggedSample], base_weights: WeightConfig):
        self.samples = list(dataset)
        self.base_weights = base_weights
        self._signal_values: dict[QualitySignal, dict[str, float]] = {}

    def signal_values(self, signal: QualitySignal) -> dict[str, float]:
        """The signal's value per sample id, each checked to lie in [0, 1];
        a failure is not stored, so every cell that asks again raises it
        again."""
        if signal not in self._signal_values:
            values = signal.values(self.samples, self.base_weights)
            for sid, q in values.items():
                if not (0.0 <= q <= 1.0):
                    label = signal.label()
                    raise ValueError(f"{label}: quality of {sid!r} must be in [0, 1], got {q!r}")
            self._signal_values[signal] = values
        return self._signal_values[signal]

    @cached_property
    def ref_norm(self) -> dict[str, float]:
        referenced = [s for s in self.samples if s.reference_score is not None]
        normalized_refs = normalize_batch([s.reference_score for s in referenced])
        return {s.sample_id: z for s, z in zip(referenced, normalized_refs)}

    @cached_property
    def groups(self) -> list[list[LoggedSample]]:
        """The samples of each query, in order of first appearance."""
        by_query: dict[str, list[LoggedSample]] = {}
        for s in self.samples:
            by_query.setdefault(s.query, []).append(s)
        return list(by_query.values())


def run_single(
    config: SimConfig,
    dataset: Sequence[LoggedSample] | None = None,
    base_weights: WeightConfig = DEFAULT_WEIGHTS,
) -> SimOutcome:
    """Run one config to completion. Deterministic in (config, seed).

    In replay mode this builds the signal values, normalized references
    and query groups for this one cell; run_experiment builds them once
    for its whole grid."""
    replay = None if dataset is None else _Replay(dataset, base_weights)
    return _run_cell(config, replay)


def _run_cell(config: SimConfig, replay: _Replay | None) -> SimOutcome:
    settings = config.settings
    profiles = settings.evaluators
    n = len(profiles)
    ids = [p.evaluator_id for p in profiles]
    behaviors = list(config.resolve_behaviors().values())  # in listed order
    attacker_ids = frozenset(ids[: config.attacker_count()])

    trust_step = config.defense.trust_step(n, config.config_id)  # None: trust stays put
    trust = [1.0 / n] * n  # in listed order, like profiles
    budget = settings.budget if settings.budget is not None else math.inf
    rng = rng_for(config.rng_seed, config.config_id)

    # outputs(round_index) yields (key, producer, observed quality, error
    # target or None) in scoring order. It is lazy: a synthetic output's Beta
    # draw follows the previous output's emissions and trust step.
    if replay is None:
        if not settings.producers:
            raise SimConfigError(
                f"{config.config_id}: synthetic mode needs producer mean qualities"
            )
        producers = sorted(settings.producers.items())
        kappa = settings.beta_concentration

        def outputs(round_index: int) -> Iterator[tuple[str, str, float, float | None]]:
            for producer, mean in producers:
                quality = float(rng.beta(mean * kappa, (1.0 - mean) * kappa))
                yield f"r{round_index:04d}:{producer}", producer, quality, quality

    else:
        if not replay.samples:
            raise SimConfigError(f"{config.config_id}: replay dataset is empty")
        if config.quality_signal is None:
            raise SimConfigError(f"{config.config_id}: replay mode needs a quality signal")
        signal_values = replay.signal_values(config.quality_signal)
        ref_norm = replay.ref_norm
        groups = replay.groups

        def outputs(round_index: int) -> Iterator[tuple[str, str, float, float | None]]:
            for s in groups[round_index % len(groups)]:
                sid = s.sample_id
                yield sid, s.producer_id, signal_values[sid], ref_norm.get(sid)

    consensus_scores: dict[str, float] = {}
    rewards: dict[str, float] = {}
    trajectory: list[dict[str, float]] = []
    errors: list[float] = []
    skipped = 0

    for round_index in range(settings.rounds):
        emitters = sample_evaluators(profiles, trust, budget)  # positions, in id order
        if not emitters:
            skipped += 1
            trajectory.append(dict(zip(ids, trust)))
            continue
        emitting = [behaviors[i] for i in emitters]
        contest: dict[str, float] = {}  # output key -> consensus; one contest per round
        producer_of: dict[str, str] = {}
        for key, producer, quality, target in outputs(round_index):
            values = [b.emit(quality, round_index, rng, producer) for b in emitting]
            consensus = config.defense.aggregate(values, [trust[i] for i in emitters])
            consensus_scores[key] = consensus
            contest[key] = consensus
            producer_of[key] = producer
            if target is not None:
                errors.append(abs(consensus - target))
            if trust_step is not None:
                trust = trust_step(trust, emitters, values)

        for key, share in allocate_rewards({"round": contest}, settings.reward_budget).items():
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


def run_experiment(
    grid: Sequence[SimConfig],
    dataset: Sequence[LoggedSample] | None = None,
    base_weights: WeightConfig = DEFAULT_WEIGHTS,
) -> list[SimOutcome | SimError]:
    """Run every config; a failing config becomes a SimError entry instead
    of aborting the rest of the grid.

    In replay mode the signal values (once per distinct signal), normalized
    references and query groups are computed once and shared by every cell."""
    ids = [c.config_id for c in grid]
    if len(set(ids)) != len(ids):
        repeated = next(i for n, i in enumerate(ids) if i in ids[:n])
        raise SimConfigError(f"grid has duplicate config_id {repeated!r}")
    replay = None if dataset is None else _Replay(dataset, base_weights)
    results: list[SimOutcome | SimError] = []
    for config in grid:
        try:
            results.append(_run_cell(config, replay))
        except MdqsError as exc:
            results.append(
                SimError(
                    config_id=config.config_id,
                    error_type=type(exc).__name__,
                    message=str(exc),
                )
            )
    return results
