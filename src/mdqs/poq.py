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
ties by evaluator id.

A cell runs in blocks of up to ROUNDS_PER_MATRIX rounds (see _scorer). A
block gathers its outputs as columns, every evaluator scores all of them
with its behavior, and the defense turns those columns into consensus
scores: at once for a block's (outputs x emitters) matrix under fixed
trust, one output at a time under adaptive trust. The cell books each
block at once: consensus scores, errors, contest shares and rewards. The
two modes differ only in the outputs a round scores:

  synthetic: per-producer latent quality drawn from a Beta distribution each
      round; evaluators observe that latent value, and the error is measured
      against it.
  replay: rounds walk a logged dataset's query groups (cycling); evaluators
      observe the configured quality signal for each sample, and consensus
      error is measured against the normalized reference score. A run lays
      out the query groups as flat columns once, permutes each distinct
      signal's values into them once, and every cell of the grid gathers
      from them.

Randomness comes from streams labelled by purpose, derived from rng_seed
alone: "sim/quality" draws synthetic qualities, a (rounds x producers)
block for every round, scored or not, and "sim/evaluator/<id>" is one
evaluator's, whose k-th draw is for the cell's k-th output, whether or not
the evaluator was picked. So no draw depends on trust, a (config, seed)
pair replays bit-identically, and cells of one seed see the same random
numbers: two defenses are compared on the same qualities and noise.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, ClassVar, Iterator, Mapping, Sequence, Union

import numpy as np

from mdqs.composite import VARIANTS, compose_batch, variant
from mdqs.errors import (
    EmptyAfterTrim,
    MdqsError,
    MissingColumn,
    NoEvaluators,
    SimConfigError,
)
from mdqs.model import (
    DEFAULT_WEIGHTS,
    Batch,
    EvaluatorProfile,
    Record,
    SimError,
    SimOutcome,
    WeightConfig,
    _number,
    _read,
)
from mdqs.rng import rng_for
from mdqs.scoring import consensus_baselines
from mdqs.stats import fsum_rows, normalize_batch


def _clip01(x: np.ndarray) -> np.ndarray:
    """min(1.0, max(0.0, x)) elementwise, to the bit: max(0.0, x) keeps 0.0
    unless x > 0.0 (so -0.0 becomes 0.0), then min(1.0, y) keeps 1.0 unless
    y < 1.0."""
    low = np.where(x > 0.0, x, 0.0)
    return np.where(low < 1.0, low, 1.0)


# ---------------------------------------------------------------------------
# behaviors
#
# Each strategy family (attacks, defenses, quality signals) is a set of records
# (_Strategy). A class carries its config `type` name and its behavior; the
# family's registry maps the `type` name to the class. mdqs.io builds an entry
# from the class's fields, which also make its label for config ids and reports.
#
# An evaluator behavior is emit_column(quality, round_index, rng,
# producer_id): one evaluator's scores for a block of outputs, given as
# parallel columns. rng is that evaluator's own stream; a behavior that
# draws takes one value per output from it, in output order.


class _Strategy(Record):
    """A strategy record. Construction refuses a float field that is not
    finite and >= 0 (a `float | None` field may be None) and an int field
    below 0, compared as an int, so no int is too large to check."""

    def __post_init__(self):
        for name, kind in self._fields.items():
            value = getattr(self, name)
            if kind == "int" and value < 0:
                raise ValueError(f"{name} must be >= 0")
            if kind == "float" or (kind == "float | None" and value is not None):
                if not math.isfinite(value) or value < 0:
                    raise ValueError(f"{name} must be finite and >= 0")

    def label(self) -> str:
        """The type, then the field values in field order, a float field's
        as :g: inflate(0.3), collude(model-a,0.3), mean."""
        shown = [
            format(getattr(self, name), "g" if kind == "float" else "")
            for name, kind in self._fields.items()
        ]
        return f"{self.type}({','.join(shown)})" if shown else self.type


class _Shift(_Strategy):
    """Attacks that report the observed quality plus a shift, clipped to [0, 1]."""

    def emit_column(self, quality, round_index, rng, producer_id) -> np.ndarray:
        return _clip01(quality + self.shift(producer_id))


class Inflate(_Shift):
    """Always report delta above the observed quality."""

    type: ClassVar[str] = "inflate"
    delta: float = 0.2

    def shift(self, producer_id):
        return self.delta


class Deflate(_Shift):
    """Always report delta below the observed quality."""

    type: ClassVar[str] = "deflate"
    delta: float = 0.2

    def shift(self, producer_id):
        return -self.delta


class RandomNoise(_Strategy):
    """Ignore quality entirely; emit uniform noise on [0, 1]."""

    type: ClassVar[str] = "random_noise"

    # rng.random() is rng.uniform(0.0, 1.0) to the bit (0.0 + 1.0 * d is d)
    # and draws the same one word per value, at a third of the call's cost
    def emit_column(self, quality, round_index, rng, producer_id) -> np.ndarray:
        return rng.random(size=quality.shape)


class Collude(_Shift):
    """Boost one producer, depress everyone else."""

    type: ClassVar[str] = "collude"
    target_producer: str
    delta: float = 0.2

    def __post_init__(self):
        if not self.target_producer:
            raise ValueError("target_producer must be non-empty")
        super().__post_init__()

    def shift(self, producer_id):
        return np.where(producer_id == self.target_producer, self.delta, -self.delta)


class Camouflage(_Strategy):
    """Behave honestly for a while, then inflate."""

    type: ClassVar[str] = "camouflage"
    honest_rounds: int = 0
    then_delta: float = 0.2

    def emit_column(self, quality, round_index, rng, producer_id) -> np.ndarray:
        return np.where(
            round_index < self.honest_rounds, quality, _clip01(quality + self.then_delta)
        )


AttackStrategy = Union[Inflate, Deflate, RandomNoise, Collude, Camouflage]
ATTACKS: dict[str, type] = {
    c.type: c for c in (Inflate, Deflate, RandomNoise, Collude, Camouflage)
}


class Honest(_Strategy):
    noise_sd: float = 0.0

    def emit_column(self, quality, round_index, rng, producer_id) -> np.ndarray:
        if self.noise_sd == 0.0:  # draws nothing
            return quality
        return _clip01(quality + rng.normal(0.0, self.noise_sd, size=quality.shape))


EvaluatorBehavior = Union[Honest, AttackStrategy]


def attack_label(attack: AttackStrategy | None) -> str:
    return "none" if attack is None else attack.label()


# ---------------------------------------------------------------------------
# defenses
#
# aggregate(values, trust) gets the emitters' values and trust as parallel
# lists in evaluator-id order. A consensus step maps (whole trust list,
# emitter positions, their values) to (aggregate of the values, next trust
# list). A defense that keeps trust fixed has none, and has
# aggregate_rows(values, trust): aggregate applied to each row of an
# (outputs x emitters) array, with the same results to the bit.


ConsensusStep = Callable[[list[float], Sequence[int], Sequence[float]], tuple[float, list[float]]]


class _FixedTrust(_Strategy):
    """Defenses under which trust never moves."""

    def consensus_step(self, n_evaluators: int, config_id: str) -> ConsensusStep | None:
        return None


class Mean(_FixedTrust):
    """Trust-weighted mean; no robustness, the baseline to beat."""

    type: ClassVar[str] = "mean"

    def aggregate(self, values: Sequence[float], trust: Sequence[float]) -> float:
        return _weighted_mean(values, trust)

    def aggregate_rows(self, values: np.ndarray, trust: Sequence[float]) -> list[float]:
        return fsum_rows(values * np.array(_renormalized(trust)))


class Median(_FixedTrust):
    """Trust-weighted median: smallest value whose cumulative trust
    reaches half. Immune while attackers hold under half the trust."""

    type: ClassVar[str] = "median"

    def aggregate(self, values: Sequence[float], trust: Sequence[float]) -> float:
        return weighted_median(values, trust)

    def aggregate_rows(self, values: np.ndarray, trust: Sequence[float]) -> list[float]:
        """weighted_median of each row: the same stable walk up the sorted
        values, with np.cumsum adding the weights in the loop's order."""
        order = np.argsort(values, axis=1, kind="stable")
        reached = np.cumsum(np.array(_renormalized(trust))[order], axis=1) >= 0.5
        # fp slack: a row that never reaches 1/2 takes its last sorted value
        first = np.where(reached.any(axis=1), reached.argmax(axis=1), values.shape[1] - 1)
        picked = np.take_along_axis(order, first[:, None], axis=1)
        return np.take_along_axis(values, picked, axis=1)[:, 0].tolist()


class TrimmedMean(_FixedTrust):
    """Drop the floor(f*n) lowest and highest emissions, then average."""

    type: ClassVar[str] = "trimmed_mean"
    trim_fraction: float = 0.2

    def __post_init__(self):  # in [0, 0.5) is finite and >= 0
        if not (0.0 <= self.trim_fraction < 0.5):
            raise ValueError("trim_fraction must be in [0, 0.5)")

    def aggregate(self, values: Sequence[float], trust: Sequence[float]) -> float:
        k = int(self.trim_fraction * len(values))
        ordered = _by_value(values)
        kept = ordered[k : len(ordered) - k] if k else ordered
        if not kept:
            raise EmptyAfterTrim(len(values), k)
        return _weighted_mean([values[i] for i in kept], [trust[i] for i in kept])

    def aggregate_rows(self, values: np.ndarray, trust: Sequence[float]) -> list[float]:
        """aggregate of each row: each row keeps its own emitters, so each
        renormalizes its own kept trust (uniform where that sums to 0)."""
        m = values.shape[1]
        k = int(self.trim_fraction * m)
        if m - 2 * k < 1:
            raise EmptyAfterTrim(m, k)
        kept = np.argsort(values, axis=1, kind="stable")[:, k : m - k]
        kept_trust = np.array(trust)[kept]
        totals = np.array(fsum_rows(kept_trust))[:, None]
        weights = np.divide(
            kept_trust, totals, out=np.full(kept.shape, 1.0 / kept.shape[1]), where=totals > 0.0
        )
        return fsum_rows(weights * np.take_along_axis(values, kept, axis=1))


class AdaptiveTrust(_Strategy):
    """Trust-weighted mean plus multiplicative trust downdates.

    floor defaults to 0.01 / n_evaluators at run time; it keeps written-off
    evaluators from being frozen out forever.
    """

    type: ClassVar[str] = "adaptive_trust"
    learning_rate: float = 1.0
    floor: float | None = None

    def label(self) -> str:
        return f"adaptive_trust(lr={self.learning_rate:g})"

    def aggregate(self, values: Sequence[float], trust: Sequence[float]) -> float:
        return _weighted_mean(values, trust)

    def consensus_step(self, n_evaluators: int, config_id: str) -> ConsensusStep:
        """One output's aggregate and trust step, from one renormalization
        of the emitters' trust: the consensus is aggregate(values, emitter
        trust), and each emitter's weight shrinks with its distance from the
        trust-weighted median, never below the floor, before the list is
        renormalized back onto the simplex. Evaluators who did not emit keep
        their weight (before renormalization)."""
        n = n_evaluators
        floor = self.floor if self.floor is not None else 0.01 / n
        if floor > 1.0 / n:
            raise SimConfigError(f"{config_id}: trust floor {floor} exceeds 1/{n}")
        rate = -self.learning_rate
        exp = math.exp

        def step(trust: list[float], emitters: Sequence[int], values: Sequence[float]):
            weights = _renormalized([trust[i] for i in emitters])
            reference = _median_at_half(values, weights)
            updated = list(trust)
            for i, value in zip(emitters, values):
                shrunk = trust[i] * exp(rate * abs(value - reference))
                updated[i] = shrunk if shrunk > floor else floor  # max(floor, shrunk)
            return math.fsum(map(operator.mul, weights, values)), _renormalized(updated)

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
    return _median_at_half(values, _renormalized(trust))


def _median_at_half(values: Sequence[float], weights: Sequence[float]) -> float:
    """weighted_median's walk over weights already on the simplex."""
    ordered = _by_value(values)
    cumulative = 0.0
    for i in ordered:
        cumulative += weights[i]
        if cumulative >= 0.5:
            return values[i]
    return values[ordered[-1]]  # fp slack; cumulative should have reached 1.0


def _weighted_mean(values: Sequence[float], trust: Sequence[float]) -> float:
    return math.fsum(map(operator.mul, _renormalized(trust), values))


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
    rank = [
        (-math.inf if p.cost == 0.0 else -(t / p.cost), p.evaluator_id)
        for p, t in zip(profiles, trust)
    ]
    chosen: list[int] = []
    spent = 0.0
    for i in sorted(range(len(profiles)), key=rank.__getitem__):
        if spent + profiles[i].cost > budget:
            break
        chosen.append(i)
        spent += profiles[i].cost
    return sorted(chosen, key=lambda i: profiles[i].evaluator_id)


def _block_shares(consensus: np.ndarray, sizes: np.ndarray, budget: float) -> np.ndarray:
    """Payouts of consecutive contests of sizes[k] > 0 outputs: each output
    earns in proportion to its spread, max(score - min score, 0), and a zero
    total splits the budget equally. The bits are those of one contest at a
    time through Python's min, max and math.fsum, but for a zero share's
    sign, which a reward summed from +0.0 cannot show:
    - np.minimum and min agree on the minimum but for a zero's sign, and
      score - low is score for a nonzero score, so only zero spreads can
      differ in sign. score - low >= 0, which max(score - low, 0.0) keeps.
    - The minimum's own spread is 0. With at most two nonzero spreads a and
      b (each at most about 1, so nothing overflows), every other term is a
      zero, adding a zero is exact, and so in any order the one rounded step
      is a + b: fl(a + b), the correctly rounded exact sum fsum returns. No
      nonzero spread leaves a zero of either sign, which total > 0.0 reads
      alike. Any other contest is summed by fsum.
    """
    starts = np.cumsum(sizes) - sizes
    contest = np.repeat(np.arange(len(sizes)), sizes)
    low = np.full(len(sizes), np.inf)
    np.minimum.at(low, contest, consensus)
    spreads = consensus - low[contest]
    total = np.bincount(contest, weights=spreads, minlength=len(sizes))
    for k in np.flatnonzero(np.bincount(contest[spreads != 0.0], minlength=len(sizes)) > 2):
        total[k] = math.fsum(spreads[starts[k] : starts[k] + sizes[k]].tolist())
    paying = total > 0.0
    shares = budget * (spreads / np.where(paying, total, 1.0)[contest])
    return np.where(paying[contest], shares, (budget / sizes)[contest])


# ---------------------------------------------------------------------------
# quality signals (replay mode)
#
# values(batch, base_weights) gives one value per sample, in batch order.


class _Signal(_Strategy):
    """A signal of one field, labelled type:value."""

    def label(self) -> str:
        (name,) = self._fields
        return f"{self.type}:{getattr(self, name)}"


class SingleEvaluator(_Signal):
    """One logged evaluator column, min-max normalized over the batch."""

    type: ClassVar[str] = "evaluator"
    evaluator_id: str

    def values(self, batch: Batch, base_weights: WeightConfig) -> list[float]:
        for s in batch.samples:
            if self.evaluator_id not in s.evaluator_scores:
                raise MissingColumn(self.evaluator_id, s.sample_id)
        if not batch.samples:
            return []
        return batch.normalized_scores()[:, batch.evaluator_ids.index(self.evaluator_id)].tolist()


class ConsensusBaseline(_Signal):
    """Mean or median of the normalized evaluator columns."""

    type: ClassVar[str] = "baseline"
    stat: str = "median"

    def __post_init__(self):
        if self.stat not in ("mean", "median"):
            raise ValueError("stat must be 'mean' or 'median'")

    def values(self, batch: Batch, base_weights: WeightConfig) -> list[float]:
        values = consensus_baselines(batch)[self.stat]
        for i in np.flatnonzero(np.isnan(values))[:1]:  # a consensus of nothing is no zero
            raise NoEvaluators(batch.samples[i].sample_id)
        return values


class CompositeSignal(_Signal):
    """The composite under one of the weight variants in VARIANTS."""

    type: ClassVar[str] = "composite"
    variant: str = "default"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise SimConfigError(
                f"unknown composite variant {self.variant!r} (known: {', '.join(VARIANTS)})"
            )

    def values(self, batch: Batch, base_weights: WeightConfig) -> list[float]:
        return compose_batch(batch, variant(base_weights, self.variant))


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


class SimSettings(Record):
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
                m = _read(_number, mean, f"producer {producer!r} mean quality", SimConfigError)
                if not (0.0 < m < 1.0):
                    raise SimConfigError(f"producer {producer!r} mean quality must be in (0, 1)")
                clean[str(producer)] = m
            object.__setattr__(self, "producers", clean)
        object.__setattr__(self, "evaluators", tuple(self.evaluators))


class SimConfig(Record):
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
        # floor of the decimal ratio times n: int(0.58 * 50) would give 28. The
        # ratio's shortest repr, such as 0.58 or 1e-05, is digits * 10**-places
        mantissa, _, exponent = repr(float(self.attack_ratio)).partition("e")
        whole, _, fraction = mantissa.partition(".")
        places = len(fraction) - int(exponent or 0)  # > 0, as the ratio is at most 1.0
        return int(whole + fraction) * len(self.settings.evaluators) // 10**places

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
    """A replay batch's inputs to the round loop, shared by every cell of
    one run: the query groups, laid out once as flat columns in group order
    (ids in object arrays, as a fixed-width numpy string drops a trailing
    NUL), and each signal's quality column in that order, checked on first
    use. A signal that fails is not stored, so every cell that asks for it
    raises the same error, as when run alone. Consensus scores are keyed by
    sample_id, which a Batch holds once."""

    def __init__(self, batch: Batch, base_weights: WeightConfig):
        self.batch, self.base_weights = batch, base_weights
        samples = batch.samples
        queries: dict[str, int] = {}  # query -> group, in order of first appearance
        group = np.array([queries.setdefault(s.query, len(queries)) for s in samples], int)
        self._order = np.argsort(group, kind="stable")  # group by group, in batch order
        rows = [samples[i] for i in self._order.tolist()]
        names: dict[str, int] = {}  # producer -> code, in order of first appearance
        codes = [names.setdefault(s.producer_id, len(names)) for s in rows]
        refs = [s.reference_score for s in rows]
        target = np.full(len(rows), math.nan)  # the normalized reference; NaN: none
        target[[r is not None for r in refs]] = normalize_batch([r for r in refs if r is not None])
        self.keys = np.array([s.sample_id for s in rows], dtype=object)
        self.codes, self.names = np.array(codes, int), np.array(list(names), dtype=object)
        self.target, self.sizes = target, np.bincount(group)
        self.starts = np.cumsum(self.sizes) - self.sizes  # each group's first row
        self._quality: dict[QualitySignal, np.ndarray] = {}

    def rows(self, first: int, sizes: np.ndarray) -> np.ndarray:
        """The rows that the rounds from `first` on score, cycling through the
        groups: sizes[i] is round first + i's group size, or 0 if skipped."""
        groups = (first + np.arange(len(sizes))) % len(self.starts)
        ends = np.cumsum(sizes)
        return np.repeat(self.starts[groups] - (ends - sizes), sizes) + np.arange(ends[-1])

    def quality(self, signal: QualitySignal) -> np.ndarray:
        """The signal's values, in group order."""
        if signal not in self._quality:
            quality = np.array(signal.values(self.batch, self.base_weights), float)
            n, label = len(self.batch), signal.label()
            if len(quality) != n:
                raise ValueError(f"{label}: values gave {len(quality)} entries for {n} samples")
            outside = np.flatnonzero(~((quality >= 0.0) & (quality <= 1.0)))
            if len(outside):
                sid, q = self.batch.samples[outside[0]].sample_id, quality[outside[0]].item()
                raise ValueError(f"{label}: quality of {sid!r} must be in [0, 1], got {q!r}")
            self._quality[signal] = quality[self._order]
        return self._quality[signal]


def run_single(
    config: SimConfig, batch: Batch | None = None, base_weights: WeightConfig = DEFAULT_WEIGHTS
) -> SimOutcome:
    """Run one config to completion. Deterministic in (config, seed).

    In replay mode (given a batch) this lays out the query groups and the
    signal's values for this one cell; iter_experiment lays them out once
    for its whole grid."""
    replay = None if batch is None else _Replay(batch, base_weights)
    return _run_cell(config, replay)


# Rounds per block: bounds the arrays a long cell holds at once.
ROUNDS_PER_MATRIX = 1024


def _run_cell(config: SimConfig, replay: _Replay | None) -> SimOutcome:
    settings = config.settings
    ids = [p.evaluator_id for p in settings.evaluators]
    score = _scorer(config)  # the trust floor and the seed are checked first

    # gather(first, stop) gives the outputs of rounds first to stop - 1,
    # scored or not: each round's output count, and each output's producer
    # code, observed quality, key and error target (NaN: no target).
    if replay is None:
        if not settings.producers:
            raise SimConfigError(
                f"{config.config_id}: synthetic mode needs producer mean qualities"
            )
        means = sorted(settings.producers.items())
        producers = [producer for producer, _ in means]
        names = np.array(producers, dtype=object)
        mean = np.array([m for _, m in means])
        kappa = settings.beta_concentration
        alpha, beta = mean * kappa, (1.0 - mean) * kappa
        quality_rng = rng_for(config.rng_seed, "sim/quality")

        def gather(first: int, stop: int):
            # a round's qualities are one Beta draw per producer, in name order
            quality = quality_rng.beta(alpha, beta, (stop - first, len(mean))).ravel()
            keys = [f"r{r:04d}:{p}" for r in range(first, stop) for p in producers]
            codes = np.tile(np.arange(len(mean)), stop - first)
            sizes = np.full(stop - first, len(mean))
            return sizes, codes, quality, np.array(keys, dtype=object), quality

    else:
        if not replay.batch.samples:
            raise SimConfigError(f"{config.config_id}: replay dataset is empty")
        if config.quality_signal is None:
            raise SimConfigError(f"{config.config_id}: replay mode needs a quality signal")
        column, names = replay.quality(config.quality_signal), replay.names

        def gather(first: int, stop: int):
            sizes = replay.sizes[np.arange(first, stop) % len(replay.sizes)]
            rows = replay.rows(first, sizes)
            return sizes, replay.codes[rows], column[rows], replay.keys[rows], replay.target[rows]

    consensus_scores: dict[str, float] = {}
    paid = np.zeros(len(names))  # rewards by producer code
    payees: dict[int, None] = {}  # producer codes in order of first payout
    trajectory: list[dict[str, float]] = []
    errors: list[float] = []
    skipped = 0
    last = None  # the trust list the latest snapshot was taken of
    for first in range(0, settings.rounds, ROUNDS_PER_MATRIX):
        stop = min(first + ROUNDS_PER_MATRIX, settings.rounds)
        sizes, codes, quality, keys, target = gather(first, stop)
        trusts, scored, consensus = score(first, sizes, quality, names[codes])
        for trust in trusts:  # a new list whenever trust moves
            if trust is not last:
                snapshot, last = dict(zip(ids, trust)), trust
            trajectory.append(snapshot)
        contests = scored[scored > 0]  # one per scored round
        skipped += len(sizes) - len(contests)
        if not len(contests):
            continue
        kept = np.repeat(scored > 0, sizes)
        codes = codes[kept]
        # a round's keys are distinct (sample ids, or round:producer), and a
        # key seen in an earlier round takes the new value
        consensus_scores.update(zip(keys[kept].tolist(), consensus.tolist()))
        error = np.abs(consensus - target[kept])
        errors.extend(error[~np.isnan(error)].tolist())
        # np.add.at adds in index order: each producer's shares in output order
        np.add.at(paid, codes, _block_shares(consensus, contests, settings.reward_budget))
        payees.update(dict.fromkeys(codes.tolist()))
    rewards = paid.tolist()

    return SimOutcome(
        config_id=config.config_id,
        consensus_scores=consensus_scores,
        rewards={names[code]: rewards[code] for code in payees},
        trust_trajectory=tuple(trajectory),
        consensus_error=(math.fsum(errors) / len(errors)) if errors else None,
        skipped_rounds=skipped,
        attacker_ids=frozenset(ids[: config.attacker_count()]),
    )


def _scorer(config: SimConfig) -> Callable[..., tuple[list[list[float]], np.ndarray, np.ndarray]]:
    """A cell's scorer. It owns what only scoring reads: the behaviors, each
    evaluator's stream, the budget, the trust list, the current emitters and
    the trust list they were picked under.

    score(first, sizes, quality, producer_id) scores the outputs of rounds
    from `first` on (sizes[i]: round first + i's output count) with every
    evaluator's behavior, one column each, so every evaluator draws for
    every output whether it is picked or not. Each round picks its emitters
    under the trust the last one left. It returns the trust list after each
    round, each round's scored output count (0: no evaluator could afford
    to emit) and the scored outputs' consensus.

    - Fixed trust picks the emitters once, and the defense aggregates each
      block's (outputs x emitters) matrix at once; no Python runs per round
      or per output.
    - Adaptive trust walks the outputs in order, since each output's trust
      step weighs the next output and picks the next round's emitters: each
      output reads its emitters' values from the columns and takes its
      consensus step."""
    profiles, defense = config.settings.evaluators, config.defense
    n = len(profiles)
    step = defense.consensus_step(n, config.config_id)  # None: trust stays put
    behaviors = list(config.resolve_behaviors().values())  # in listed order
    # each evaluator's own stream, the same in every cell of this seed: its
    # k-th draw is for the cell's k-th output, picked or not
    streams = [rng_for(config.rng_seed, f"sim/evaluator/{p.evaluator_id}") for p in profiles]
    budget = config.settings.budget if config.settings.budget is not None else math.inf
    trust = [1.0 / n] * n  # in listed order, like profiles
    emitters, picked = sample_evaluators(profiles, trust, budget), trust  # positions, in id order

    def score(first: int, sizes: np.ndarray, quality: np.ndarray, producer_id: np.ndarray):
        nonlocal trust, emitters, picked
        round_index = np.repeat(np.arange(first, first + len(sizes)), sizes)
        emitted = [
            behavior.emit_column(quality, round_index, rng, producer_id)
            for behavior, rng in zip(behaviors, streams)
        ]
        if step is None:
            if not emitters:
                return [trust] * len(sizes), 0 * sizes, np.empty(0)
            values = np.column_stack([emitted[i] for i in emitters])
            consensus = defense.aggregate_rows(values, [trust[i] for i in emitters])
            return [trust] * len(sizes), sizes, np.array(consensus)
        by_evaluator = [column.tolist() for column in emitted]
        sources = [by_evaluator[i] for i in emitters]
        trusts, scored, consensus, start = [], [], [], 0
        for size in sizes.tolist():
            if trust is not picked:
                emitters, picked = sample_evaluators(profiles, trust, budget), trust
                sources = [by_evaluator[i] for i in emitters]
            for row in range(start, start + size) if emitters else ():
                c, trust = step(trust, emitters, [s[row] for s in sources])
                consensus.append(c)
            trusts.append(trust)
            scored.append(size if emitters else 0)
            start += size
        return trusts, np.array(scored), np.array(consensus)

    return score


def iter_experiment(
    grid: Sequence[SimConfig],
    batch: Batch | None = None,
    base_weights: WeightConfig = DEFAULT_WEIGHTS,
) -> Iterator[SimOutcome | SimError]:
    """Run the grid one config at a time, in grid order: each step runs one
    cell and yields its outcome, so a caller that writes each outcome as it
    comes holds one cell at a time. A failing config yields a SimError
    instead of aborting the rest of the grid.

    A repeated config_id refuses the whole grid at the call. In replay mode
    (given a batch) the query groups, with their normalized references, are
    laid out once there, each distinct signal's values on first use, and
    every cell shares them."""
    ids = [c.config_id for c in grid]
    if len(set(ids)) != len(ids):
        repeated = next(i for n, i in enumerate(ids) if i in ids[:n])
        raise SimConfigError(f"grid has duplicate config_id {repeated!r}")
    replay = None if batch is None else _Replay(batch, base_weights)
    return map(_outcome, grid, itertools.repeat(replay))


def _outcome(config: SimConfig, replay: _Replay | None) -> SimOutcome | SimError:
    """One cell's outcome, or the SimError its MdqsError becomes."""
    try:
        return _run_cell(config, replay)
    except MdqsError as exc:
        return SimError(config_id=config.config_id, error_type=type(exc).__name__, message=str(exc))


def run_experiment(
    grid: Sequence[SimConfig],
    batch: Batch | None = None,
    base_weights: WeightConfig = DEFAULT_WEIGHTS,
) -> list[SimOutcome | SimError]:
    """Every outcome of iter_experiment, as one list in grid order."""
    return list(iter_experiment(grid, batch, base_weights))
