"""Per-dimension scorers and batch normalization.

Each scorer returns a raw real number; score_all builds each active raw
column once, normalizes it to [0, 1] with per-batch min-max (or frozen
stats), zips the columns into each sample's DimensionVector row, and
returns each raw column's (min, max) too. Normalization is one routine,
normalize_batch: score_all, the per-evaluator columns and PriorTable all
go through it, and it is the only place that clips to frozen stats. The
scorers stay usable on their own for debugging single samples.
check_config and missing_inputs decide what scoring needs; score_all and
validate_dataset both ask them.

Conventions that matter:
  - tokenization is whitespace split, nothing smarter; structure n-grams
    are runs of n >= 1 tokens, and StructurePolicy refuses a size or a
    degeneration count below 1;
  - the semantic proxy counts character trigrams as int64 codes of three
    code points, so the cosine is taken on exact integer counts with no
    per-trigram string; a text under three characters has no trigram and
    matches only an equal text;
  - a zero-range column normalizes to 0.5 everywhere (no information);
  - evaluator scores form one (n x evaluators) table, normalized per
    column over the samples each evaluator scores; agreement and the
    mean/median consensus baselines are statistics of its rows.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from mdqs.errors import (
    EmptyPriorTable,
    MdqsError,
    MissingColumn,
    MissingReferenceText,
    NoEvaluators,
    SchemaError,
    TooFewEvaluators,
)
from mdqs.model import (
    CANONICAL_DIMENSIONS,
    DEFAULT_WEIGHTS,
    DimensionId,
    DimensionVector,
    LoggedSample,
    ValidationIssue,
    ValidationReport,
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
    rating, normalized. The table is normalized once, at construction.
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
        # read-only, since lookups come from the table normalized here
        object.__setattr__(self, "ratings", MappingProxyType(clean))
        if not clean:
            return  # normalized() refuses an empty table
        ordered = sorted(clean.values())
        mid = len(ordered) // 2
        # an even table's (a + b) / 2 on halves, so it cannot overflow; the
        # median lies inside the table's range, so it moves neither end
        median = ordered[mid] if len(ordered) % 2 else ordered[mid - 1] / 2 + ordered[mid] / 2
        *scores, unknown = normalize_batch([*clean.values(), median])
        object.__setattr__(self, "_scores", dict(zip(clean, scores)))
        object.__setattr__(self, "_unknown", unknown)

    def normalized(self, producer_id: str) -> float:
        if not self.ratings:
            raise EmptyPriorTable(f"prior table {self.name!r} is empty")
        return self._scores.get(producer_id, self._unknown)


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
        for name in ("repetition_ngram", "degeneration_ngram", "degeneration_min_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class StructureFeatures:
    length_tokens: int
    repetition_ratio: float
    format_violations: int
    degeneration: bool


def _ngrams(tokens: Sequence[str], n: int) -> list[tuple[str, ...]]:
    """Every run of n >= 1 consecutive tokens, in order."""
    return list(zip(*(tokens[i:] for i in range(n))))


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
        repeated = sum(c for c in Counter(bigrams).values() if c >= 2)
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
# semantic and alignment


# a trigram's code (c0 * K + c1) * K + c2 stays below K**3 < 2**63
_CODE_POINTS = 0x110000


def _normalized(text: str) -> str:
    return " ".join(text.lower().split())


def _trigram_counts(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct trigram codes of the normalized text, and their
    counts. Lone surrogates pass through as their own code points."""
    codes = np.frombuffer(
        _normalized(text).encode("utf-32-le", "surrogatepass"), np.uint32
    ).astype(np.int64)
    grams = (codes[:-2] * _CODE_POINTS + codes[1:-1]) * _CODE_POINTS + codes[2:]
    return np.unique(grams, return_counts=True)


def score_semantic(sample: LoggedSample) -> float:
    """Built-in reference-based semantic proxy: cosine over character
    trigram counts.

    Texts are lowercased and whitespace-collapsed first, and each trigram
    is counted as one int64 code of its three code points. The dot product
    and both squared norms are exact integers; the score is
    dot / (sqrt(|a|^2) * sqrt(|b|^2)), clipped to [0, 1]. Equal trigram
    counts score 1.0, texts sharing no trigrams score 0.0. A text under
    three characters has no trigram, so when either side has none the
    score is 1.0 for equal normalized texts and 0.0 otherwise. This is
    deliberately a cheap offline stand-in for an embedding similarity
    service.
    """
    if sample.reference_text is None:
        raise MissingReferenceText(sample.sample_id)
    ga, ca = _trigram_counts(sample.output)
    gb, cb = _trigram_counts(sample.reference_text)
    if not ga.size or not gb.size:
        equal = _normalized(sample.output) == _normalized(sample.reference_text)
        return 1.0 if equal else 0.0
    if ga.size == gb.size and (ga == gb).all() and (ca == cb).all():
        return 1.0
    at = np.minimum(np.searchsorted(gb, ga), gb.size - 1)
    hit = gb[at] == ga
    dot = int(ca[hit] @ cb[at[hit]])
    norm = math.sqrt(int(ca @ ca)) * math.sqrt(int(cb @ cb))
    return min(1.0, max(0.0, dot / norm))


def column_value(sample: LoggedSample, column: str) -> float | None:
    """The sample's value in a pre-logged score column (evaluator_scores
    first, then extra); None when it has no finite numeric value there.

    There is no builtin alignment judge, so the alignment dimension only
    exists when the dataset carries such a column.
    """
    if column in sample.evaluator_scores:
        return float(sample.evaluator_scores[column])
    value = sample.extra.get(column)
    if value is None or isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        return None
    return number if math.isfinite(number) else None


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


def normalize_batch(
    values: Sequence[float], stats: tuple[float, float] | None = None
) -> list[float]:
    """Min-max normalize one column over its own range, or over frozen
    stats=(min, max) with anything outside clipped to [0, 1]. A zero range
    maps everything to 0.5; a frozen min above its max is a ValueError."""
    vals = [float(v) for v in values]
    if not vals:
        return []
    if any(not math.isfinite(v) for v in vals):
        raise ValueError("cannot normalize non-finite values")
    lo, hi = (min(vals), max(vals)) if stats is None else stats
    if lo > hi:
        raise ValueError(f"frozen stats need min <= max, got {stats!r}")
    if hi == lo:
        return [0.5] * len(vals)
    # on halves, so a range wider than the largest float cannot overflow;
    # halving is exact short of underflow, so the results keep their bits
    lo, span = lo / 2, hi / 2 - lo / 2
    scores = [(v / 2 - lo) / span for v in vals]
    # only frozen stats clip, so a batch column keeps its exact bits, -0.0 too
    return scores if stats is None else [min(1.0, max(0.0, z)) for z in scores]


def refuse_repeated_ids(samples: Iterable[LoggedSample]) -> None:
    """Raise SchemaError naming the first sample_id that repeats: a map keyed
    by sample_id would silently merge those samples. Without a config,
    validate_dataset reports exactly the repeated ids."""
    issues = validate_dataset(samples).issues
    if issues:
        raise SchemaError(issues[0].message)


def evaluator_table(samples: Sequence[LoggedSample]) -> tuple[list[str], np.ndarray]:
    """Sorted evaluator ids and the raw scores as an (n x evaluators) float64
    array in sample order, NaN where a sample has no score."""
    ids = sorted({e for s in samples for e in s.evaluator_scores})
    rows = [[s.evaluator_scores.get(e, math.nan) for e in ids] for s in samples]
    return ids, np.array(rows, dtype=np.float64).reshape(len(samples), len(ids))


def normalize_evaluator_scores(samples: Sequence[LoggedSample]) -> tuple[list[str], np.ndarray]:
    """evaluator_table, each column min-max normalized over the samples it
    scores: raw evaluator scales are arbitrary (logprobs, Likert,
    percentages), so each is mapped onto [0, 1] on its own before any
    cross-evaluator arithmetic. A repeated sample_id is refused."""
    refuse_repeated_ids(samples)
    ids, table = evaluator_table(samples)
    for column in table.T:
        present = ~np.isnan(column)
        column[present] = normalize_batch(column[present].tolist())
    return ids, table


def consensus_baselines(samples: Sequence[LoggedSample]) -> dict[str, list[float]]:
    """Mean and median of each sample's normalized evaluator scores, as
    {"mean": [...], "median": [...]} in sample order. A sample without
    scores raises NoEvaluators: a consensus of nothing is a config error,
    not a zero. A repeated sample_id is refused."""
    samples = list(samples)
    _, table = normalize_evaluator_scores(samples)
    out: dict[str, list[float]] = {"mean": [], "median": []}
    for sample, row in zip(samples, table.tolist()):
        values = [v for v in row if v == v]
        if not values:
            raise NoEvaluators(sample.sample_id)
        out["mean"].append(math.fsum(values) / len(values))
        out["median"].append(float(statistics.median(values)))
    return out


# ---------------------------------------------------------------------------
# the full scoring pass


@dataclass(frozen=True)
class ScoringConfig:
    """Everything score_all needs besides the samples themselves."""

    weights: WeightConfig = DEFAULT_WEIGHTS
    structure: StructurePolicy = field(default_factory=StructurePolicy)
    model_priors: PriorTable | None = None
    cost_priors: PriorTable | None = None
    semantic_column: str | None = None  # None: the built-in score_semantic
    alignment_column: str | None = None
    frozen_stats: Mapping[DimensionId, tuple[float, float]] | None = None


def check_config(config: ScoringConfig) -> None:
    """Refuse what no sample can supply: a weighted prior dimension without a
    non-empty table (EmptyPriorTable), weighted alignment without a column, or
    frozen stats that miss a weighted dimension or hold a pair that is not
    finite with min <= max (SchemaError)."""
    active = config.weights.dimensions()
    for dim, key, table in (
        (DimensionId.MODEL_PRIOR, "priors.model_rating", config.model_priors),
        (DimensionId.COST_PRIOR, "priors.cost_efficiency", config.cost_priors),
    ):
        if dim in active and (table is None or not table.ratings):
            raise EmptyPriorTable(
                f"{key} must be a non-empty table while {dim.value} is weighted"
            )
    if DimensionId.ALIGNMENT in active and config.alignment_column is None:
        raise SchemaError("providers.alignment must name a column while alignment is weighted")
    if config.frozen_stats is not None and active - config.frozen_stats.keys():
        uncovered = ", ".join(sorted(d.value for d in active - config.frozen_stats.keys()))
        raise SchemaError(f"normalization.stats has no [min, max] for weighted {uncovered}")
    for dim, (lo, hi) in (config.frozen_stats or {}).items():
        if not -math.inf < lo <= hi < math.inf:
            raise SchemaError(
                f"normalization.stats.{dim.value} must be a finite [min, max] pair"
                f" with min <= max, got {[lo, hi]!r}"
            )


def missing_inputs(
    sample: LoggedSample, config: ScoringConfig
) -> list[tuple[str, MdqsError]]:
    """Each input that scoring under `config` needs and `sample` lacks, as
    (field, the error the scoring pass would raise); [] when it has all."""
    active = config.weights.dimensions()
    sid = sample.sample_id
    missing: list[tuple[str, MdqsError]] = []
    semantic = DimensionId.SEMANTIC in active
    if semantic and config.semantic_column is None and sample.reference_text is None:
        missing.append(("reference_text", MissingReferenceText(sid)))
    for column in (
        config.semantic_column if semantic else None,
        config.alignment_column if DimensionId.ALIGNMENT in active else None,
    ):
        if column is not None and column_value(sample, column) is None:
            missing.append((column, MissingColumn(column, sid)))
    count = len(sample.evaluator_scores)
    if DimensionId.AGREEMENT in active and count < 2:
        missing.append(("evaluator_scores", TooFewEvaluators(sid, count)))
    return missing


def _raw_column(
    dim: DimensionId, samples: Sequence[LoggedSample], config: ScoringConfig
) -> list[float]:
    if dim is DimensionId.MODEL_PRIOR:
        return [config.model_priors.normalized(s.producer_id) for s in samples]
    if dim is DimensionId.COST_PRIOR:
        return [config.cost_priors.normalized(s.producer_id) for s in samples]
    if dim is DimensionId.STRUCTURE:
        return [score_structure(s.output, config.structure) for s in samples]
    if dim is DimensionId.SEMANTIC and config.semantic_column is None:
        return [score_semantic(s) for s in samples]
    if dim is DimensionId.SEMANTIC:
        return [column_value(s, config.semantic_column) for s in samples]
    if dim is DimensionId.ALIGNMENT:
        return [column_value(s, config.alignment_column) for s in samples]
    if dim is DimensionId.AGREEMENT:
        _, table = normalize_evaluator_scores(samples)
        return [
            _agreement_from_values([v for v in row if v == v], s.sample_id)
            for s, row in zip(samples, table.tolist())
        ]
    raise ValueError(f"no scorer for dimension {dim!r}")


def score_all(
    samples: Sequence[LoggedSample], config: ScoringConfig | None = None
) -> tuple[list[LoggedSample], dict[DimensionId, tuple[float, float]]]:
    """Score every active dimension over the batch and attach the vectors.

    Before any column is built, the config passes check_config and every
    sample passes missing_inputs; the first problem is raised. Raw columns
    are computed per dimension, then normalized per batch (or against
    frozen stats when configured). Existing dimension scores are replaced,
    so re-scoring is idempotent. Returns the scored samples and each active
    dimension's raw (min, max), which can be fed back in as frozen_stats.
    """
    config = config or ScoringConfig()
    samples = list(samples)
    if not samples:
        return [], {}
    check_config(config)
    for sample in samples:
        for _, error in missing_inputs(sample, config):
            raise error
    active = [d for d in CANONICAL_DIMENSIONS if d in config.weights.dimensions()]
    columns: dict[DimensionId, list[float]] = {}
    raw_ranges: dict[DimensionId, tuple[float, float]] = {}
    for dim in active:
        raw = _raw_column(dim, samples, config)
        raw_ranges[dim] = (min(raw), max(raw))
        columns[dim] = normalize_batch(raw, (config.frozen_stats or {}).get(dim))
    absent = [None] * len(samples)
    rows = zip(*(columns.get(d, absent) for d in CANONICAL_DIMENSIONS))
    return [s.with_dimensions(DimensionVector(row)) for s, row in zip(samples, rows)], raw_ranges


def validate_dataset(
    samples: Iterable[LoggedSample], config: ScoringConfig | None = None
) -> ValidationReport:
    """List every repeated sample id and, given `config`, every input that
    scoring under it would reject, not just the first."""
    issues: list[ValidationIssue] = []
    seen: set[str] = set()
    valid = invalid = 0
    for sample in samples:
        sid = sample.sample_id
        found = [
            ValidationIssue(sid, fieldname, str(error))
            for fieldname, error in (missing_inputs(sample, config) if config is not None else ())
        ]
        if sid in seen:
            found.append(ValidationIssue(sid, "sample_id", f"duplicate sample_id {sid!r}"))
        seen.add(sid)
        if found:
            invalid += 1
            issues.extend(found)
        else:
            valid += 1
    return ValidationReport(valid_count=valid, invalid_count=invalid, issues=tuple(issues))
