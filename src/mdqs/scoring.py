"""Per-dimension scorers and batch normalization.

Each scorer returns a raw real number; score_all turns raw columns into
normalized [0, 1] columns with per-batch min-max (or frozen stats) and
attaches a DimensionVector to every sample. The scorers stay usable on
their own for debugging single samples.

Conventions that matter:
  - tokenization is whitespace split, nothing smarter;
  - a zero-range column normalizes to 0.5 everywhere (no information);
  - agreement expects evaluator scores already normalized per evaluator,
    which score_all does internally before measuring dispersion.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from mdqs.errors import (
    EmptyPriorTable,
    MissingColumn,
    MissingReferenceText,
    SchemaError,
    TooFewEvaluators,
)
from mdqs.model import (
    CANONICAL_DIMENSIONS,
    DEFAULT_WEIGHTS,
    DimensionId,
    DimensionVector,
    LoggedSample,
    WeightConfig,
)

# ---------------------------------------------------------------------------
# priors


@dataclass(frozen=True)
class PriorTable:
    """Raw per-producer ratings (model strength, cost efficiency, ...).

    Lookups return the rating min-max normalized over the table. A single
    entry or a zero range carries no ordering information, so every lookup
    returns the 0.5 midpoint. Unknown producers get the table's median
    rating, normalized.
    """

    name: str
    ratings: Mapping[str, float]

    def __post_init__(self):
        clean: dict[str, float] = {}
        for producer, rating in self.ratings.items():
            r = float(rating)
            if not math.isfinite(r):
                raise ValueError(f"prior table {self.name!r}: non-finite rating for {producer!r}")
            clean[str(producer)] = r
        object.__setattr__(self, "ratings", clean)

    def normalized(self, producer_id: str) -> float:
        if not self.ratings:
            raise EmptyPriorTable(f"prior table {self.name!r} is empty")
        rating = self.ratings.get(producer_id)
        if rating is None:
            rating = statistics.median(self.ratings.values())
        lo = min(self.ratings.values())
        hi = max(self.ratings.values())
        if hi == lo:
            return 0.5
        return (rating - lo) / (hi - lo)


# ---------------------------------------------------------------------------
# structure


@dataclass(frozen=True)
class StructurePolicy:
    """Penalty weights and bands for the structure heuristics."""

    min_tokens: int = 10
    max_tokens: int = 1024
    length_weight: float = 0.3
    repetition_weight: float = 0.3
    format_weight: float = 0.2
    degeneration_weight: float = 0.2
    repetition_ngram: int = 2
    degeneration_ngram: int = 4
    degeneration_min_count: int = 3

    def __post_init__(self):
        if self.min_tokens < 0 or self.max_tokens < self.min_tokens:
            raise ValueError("token band must satisfy 0 <= min <= max")
        for w in (
            self.length_weight,
            self.repetition_weight,
            self.format_weight,
            self.degeneration_weight,
        ):
            if not math.isfinite(w) or w < 0.0:
                raise ValueError("penalty weights must be finite and >= 0")


@dataclass(frozen=True)
class StructureFeatures:
    length_tokens: int
    repetition_ratio: float
    format_violations: int
    degeneration: bool


def _ngrams(tokens: Sequence[str], n: int) -> list[tuple[str, ...]]:
    if len(tokens) < n:
        return []
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def _format_violations(text: str) -> int:
    """Cheap well-formedness checks: unbalanced brackets, fences, quotes."""
    violations = 0
    for open_ch, close_ch in ("()", "[]", "{}"):
        if text.count(open_ch) != text.count(close_ch):
            violations += 1
    if text.count("```") % 2 == 1:
        violations += 1
    if text.count('"') % 2 == 1:
        violations += 1
    return violations


def structure_features(text: str, policy: StructurePolicy | None = None) -> StructureFeatures:
    policy = policy or StructurePolicy()
    tokens = text.split()
    bigrams = _ngrams(tokens, policy.repetition_ngram)
    if bigrams:
        counts = Counter(bigrams)
        repeated = sum(1 for g in bigrams if counts[g] >= 2)
        repetition_ratio = repeated / len(bigrams)
    else:
        repetition_ratio = 0.0
    four_grams = Counter(_ngrams(tokens, policy.degeneration_ngram))
    degeneration = bool(four_grams) and max(four_grams.values()) >= policy.degeneration_min_count
    return StructureFeatures(
        length_tokens=len(tokens),
        repetition_ratio=repetition_ratio,
        format_violations=_format_violations(text),
        degeneration=degeneration,
    )


def score_structure(text: str, policy: StructurePolicy | None = None) -> float:
    """Raw structure score in [0, 1]: 1 minus weighted penalties.

    Empty or whitespace-only output scores 0.0 outright; there is nothing
    to grade and the length penalty alone would be too forgiving.
    """
    policy = policy or StructurePolicy()
    feats = structure_features(text, policy)
    if feats.length_tokens == 0:
        return 0.0
    out_of_band = not (policy.min_tokens <= feats.length_tokens <= policy.max_tokens)
    penalty = (
        policy.length_weight * (1.0 if out_of_band else 0.0)
        + policy.repetition_weight * feats.repetition_ratio
        + policy.format_weight * min(feats.format_violations, 3) / 3.0
        + policy.degeneration_weight * (1.0 if feats.degeneration else 0.0)
    )
    return max(0.0, 1.0 - penalty)


# ---------------------------------------------------------------------------
# providers (semantic, alignment)


class ScoreProvider:
    """Something that can produce one raw score for a sample."""

    def provide(self, sample: LoggedSample) -> float:
        raise NotImplementedError


class CharNgramSemanticProvider(ScoreProvider):
    """Reference-based semantic proxy: cosine over character n-gram counts.

    Texts are lowercased and whitespace-collapsed first. Identical texts
    score 1.0, texts sharing no n-grams score 0.0. This is deliberately a
    cheap offline stand-in for an embedding similarity service.
    """

    def __init__(self, ngram: int = 3):
        if ngram < 1:
            raise ValueError("ngram must be >= 1")
        self.ngram = ngram

    @staticmethod
    def _normalize_text(text: str) -> str:
        return " ".join(text.lower().split())

    def _counts(self, text: str) -> Counter:
        n = self.ngram
        return Counter(text[i : i + n] for i in range(len(text) - n + 1))

    def provide(self, sample: LoggedSample) -> float:
        if sample.reference_text is None:
            raise MissingReferenceText(sample.sample_id)
        a = self._counts(self._normalize_text(sample.output))
        b = self._counts(self._normalize_text(sample.reference_text))
        if a == b:
            return 1.0
        if not a or not b:
            return 0.0
        dot = sum(c * b[g] for g, c in a.items())
        norm = math.sqrt(sum(c * c for c in a.values())) * math.sqrt(
            sum(c * c for c in b.values())
        )
        return min(1.0, max(0.0, dot / norm))


class ColumnProvider(ScoreProvider):
    """Reads a pre-logged score column (evaluator_scores first, then extra).

    There is no builtin alignment judge, so the alignment dimension only
    exists when the dataset carries such a column.
    """

    def __init__(self, column: str):
        if not column:
            raise ValueError("column name must be non-empty")
        self.column = column

    def provide(self, sample: LoggedSample) -> float:
        if sample.evaluator_scores and self.column in sample.evaluator_scores:
            return float(sample.evaluator_scores[self.column])
        value = sample.extra.get(self.column)
        if value is None or isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MissingColumn(self.column, sample.sample_id)
        return float(value)


# ---------------------------------------------------------------------------
# agreement


def _agreement_from_values(values: Sequence[float], sample_id: str) -> float:
    if len(values) < 2:
        raise TooFewEvaluators(sample_id, len(values))
    mean = math.fsum(values) / len(values)
    var = math.fsum((v - mean) ** 2 for v in values) / len(values)
    sd = math.sqrt(var)
    # 0.5 is the largest population SD attainable on [0, 1]
    return min(1.0, max(0.0, 1.0 - sd / 0.5))


def score_agreement(sample: LoggedSample) -> float:
    """Inter-evaluator consistency: 1 - 2 * population SD of the scores.

    Expects the per-sample scores to be normalized per evaluator already;
    score_all takes care of that before calling in.
    """
    return _agreement_from_values(list(sample.evaluator_scores.values()), sample.sample_id)


# ---------------------------------------------------------------------------
# normalization


def normalize_batch(values: Sequence[float]) -> list[float]:
    """Min-max normalize one column; a zero range maps everything to 0.5."""
    vals = [float(v) for v in values]
    if not vals:
        return []
    if any(not math.isfinite(v) for v in vals):
        raise ValueError("cannot normalize non-finite values")
    lo = min(vals)
    hi = max(vals)
    if hi == lo:
        return [0.5] * len(vals)
    span = hi - lo
    return [(v - lo) / span for v in vals]


def normalize_with_stats(values: Sequence[float], lo: float, hi: float) -> list[float]:
    """Normalize against frozen stats, clipping anything outside the range."""
    if hi <= lo:
        return [0.5 for _ in values]
    span = hi - lo
    return [min(1.0, max(0.0, (float(v) - lo) / span)) for v in values]


def normalize_evaluator_scores(
    samples: Sequence[LoggedSample],
) -> dict[str, dict[str, float]]:
    """Per-evaluator min-max over the batch.

    Returns sample_id -> {evaluator_id -> normalized score}, covering each
    evaluator only on the samples where it appears. Raw evaluator scales
    are arbitrary (logprobs, Likert, percentages), so each column is mapped
    onto [0, 1] independently before any cross-evaluator arithmetic.
    """
    columns: dict[str, list[tuple[str, float]]] = {}
    for sample in samples:
        for evaluator, score in sample.evaluator_scores.items():
            columns.setdefault(evaluator, []).append((sample.sample_id, score))
    normalized: dict[str, dict[str, float]] = {s.sample_id: {} for s in samples}
    for evaluator, pairs in columns.items():
        scores = normalize_batch([score for _, score in pairs])
        for (sample_id, _), z in zip(pairs, scores):
            normalized[sample_id][evaluator] = z
    return normalized


# ---------------------------------------------------------------------------
# the full scoring pass


@dataclass(frozen=True)
class ScoringConfig:
    """Everything score_all needs besides the samples themselves."""

    weights: WeightConfig = DEFAULT_WEIGHTS
    structure: StructurePolicy = field(default_factory=StructurePolicy)
    model_priors: PriorTable | None = None
    cost_priors: PriorTable | None = None
    semantic_provider: ScoreProvider = field(default_factory=CharNgramSemanticProvider)
    alignment_provider: ScoreProvider | None = None
    frozen_stats: Mapping[DimensionId, tuple[float, float]] | None = None


def _raw_column(
    dim: DimensionId, samples: Sequence[LoggedSample], config: ScoringConfig
) -> list[float]:
    if dim is DimensionId.MODEL_PRIOR:
        if config.model_priors is None:
            raise EmptyPriorTable("model prior table not configured")
        return [config.model_priors.normalized(s.producer_id) for s in samples]
    if dim is DimensionId.COST_PRIOR:
        if config.cost_priors is None:
            raise EmptyPriorTable("cost-efficiency prior table not configured")
        return [config.cost_priors.normalized(s.producer_id) for s in samples]
    if dim is DimensionId.STRUCTURE:
        return [score_structure(s.output, config.structure) for s in samples]
    if dim is DimensionId.SEMANTIC:
        return [config.semantic_provider.provide(s) for s in samples]
    if dim is DimensionId.ALIGNMENT:
        if config.alignment_provider is None:
            raise SchemaError(
                "alignment weight is active but no alignment column is configured"
            )
        return [config.alignment_provider.provide(s) for s in samples]
    if dim is DimensionId.AGREEMENT:
        normalized = normalize_evaluator_scores(samples)
        return [
            _agreement_from_values(
                list(normalized[s.sample_id].values()), s.sample_id
            )
            for s in samples
        ]
    raise ValueError(f"no scorer for dimension {dim!r}")


def score_all(
    samples: Sequence[LoggedSample], config: ScoringConfig | None = None
) -> list[LoggedSample]:
    """Score every active dimension over the batch and attach the vectors.

    Raw columns are computed per dimension, then normalized per batch
    (or against frozen stats when configured). Existing dimension scores
    are replaced, so re-scoring is idempotent. Scorer errors carry the
    offending sample_id and abort the pass.
    """
    config = config or ScoringConfig()
    samples = list(samples)
    if not samples:
        return []
    active = [d for d in CANONICAL_DIMENSIONS if d in config.weights.dimensions()]
    columns: dict[DimensionId, list[float]] = {}
    for dim in active:
        raw = _raw_column(dim, samples, config)
        if config.frozen_stats is not None and dim in config.frozen_stats:
            lo, hi = config.frozen_stats[dim]
            columns[dim] = normalize_with_stats(raw, lo, hi)
        else:
            columns[dim] = normalize_batch(raw)
    scored = []
    for i, sample in enumerate(samples):
        vector = DimensionVector({dim: columns[dim][i] for dim in active})
        scored.append(sample.with_dimensions(vector))
    return scored


def column_stats(
    samples: Sequence[LoggedSample], config: ScoringConfig | None = None
) -> dict[DimensionId, tuple[float, float]]:
    """Raw (min, max) per active dimension; feed back in as frozen_stats."""
    config = config or ScoringConfig()
    samples = list(samples)
    stats: dict[DimensionId, tuple[float, float]] = {}
    if not samples:
        return stats
    for dim in CANONICAL_DIMENSIONS:
        if dim not in config.weights.dimensions():
            continue
        raw = _raw_column(dim, samples, config)
        stats[dim] = (min(raw), max(raw))
    return stats
