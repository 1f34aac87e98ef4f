"""Per-dimension scorers and batch normalization.

Each scorer returns a raw real number; score_all builds each active raw
column once, normalizes it to [0, 1] with per-batch min-max (or frozen
stats) into its column of the batch's (n x 6) dims matrix, and returns each
raw column's (min, max) too. Normalization is one routine,
mdqs.stats.normalize_batch: score_all, the evaluator table and PriorTable
all go through it, and it is the only place that clips to frozen stats. The
scorers stay usable on their own for debugging single samples.
check_config and missing_inputs decide what scoring needs; score_all and
validate_dataset both ask them.

Conventions that matter:
  - tokenization is whitespace split, nothing smarter; structure n-grams
    are runs of n >= 1 tokens, and StructurePolicy refuses a size or a
    degeneration count below 1;
  - the semantic proxy counts character trigrams in one pass per block of
    samples holding at most _BLOCK_CODE_POINTS code points, or of one
    longer sample: the block's code points are ranked densely (A ranks),
    each trigram becomes one int64 key with its sample and side, and one
    sort gives every count, so the cosine is taken on exact integer sums
    with no per-trigram string. Keys stay below 2 * m * A**3 for a block
    of m samples, which the budget keeps below 2**63 by construction.
    score_semantic is the same pass over one sample. A text under three
    characters has no trigram and matches only an equal text;
  - structure counts each n-gram size once per text, and skips the
    degeneration count when the repetition count already rules it out;
  - a zero-range column normalizes to 0.5 everywhere (no information);
  - evaluator scores form one (n x evaluators) table, normalized per
    column over the samples each evaluator scores (Batch.normalized_scores);
    agreement and the mean/median consensus baselines are statistics of its rows.
"""

from __future__ import annotations

import math
from collections import Counter
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from mdqs.errors import (
    EmptyPriorTable,
    MdqsError,
    MissingColumn,
    MissingReferenceText,
    SchemaError,
    TooFewEvaluators,
)
from mdqs.model import (
    CANONICAL_DIMENSIONS,
    DEFAULT_WEIGHTS,
    DIMENSION_COLUMN,
    Batch,
    DimensionId,
    LoggedSample,
    Record,
    ValidationIssue,
    ValidationReport,
    WeightConfig,
)
from mdqs.stats import normalize_batch

# ---------------------------------------------------------------------------
# priors


class PriorTable(Record):
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


class StructurePolicy(Record):
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


class StructureFeatures(Record):
    length_tokens: int
    repetition_ratio: float
    format_violations: int
    degeneration: bool


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


def _ngram_features(tokens: list[str], policy: StructurePolicy) -> tuple[float, bool]:
    """The repetition ratio and the degeneration flag of the tokens, each
    n-gram size counted once. A d-gram occurs at most as often as its
    leading n-gram for d >= n, so when no repetition n-gram reaches
    degeneration_min_count, no degeneration d-gram can and it is not counted.
    No n-gram is longer than the tokens, so at most len(tokens) + 1 slices are built."""
    n, d, least = policy.repetition_ngram, policy.degeneration_ngram, policy.degeneration_min_count
    counts = Counter(zip(*(tokens[i:] for i in range(min(n, len(tokens) + 1)))))
    if counts:
        repetition_ratio = sum(c for c in counts.values() if c >= 2) / (len(tokens) - n + 1)
        most = max(counts.values())
    else:
        repetition_ratio, most = 0.0, 0
    if d >= n and most < least:
        return repetition_ratio, False
    if d != n:
        counts = Counter(zip(*(tokens[i:] for i in range(min(d, len(tokens) + 1)))))
        most = max(counts.values(), default=0)
    return repetition_ratio, most >= least


def structure_features(text: str, policy: StructurePolicy | None = None) -> StructureFeatures:
    policy = policy or StructurePolicy()
    tokens = text.split()
    repetition_ratio, degeneration = _ngram_features(tokens, policy)
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
    tokens = text.split()
    if not tokens:
        return 0.0
    repetition_ratio, degeneration = _ngram_features(tokens, policy)
    out_of_band = not (policy.min_tokens <= len(tokens) <= policy.max_tokens)
    penalty = (
        policy.length_weight * (1.0 if out_of_band else 0.0)
        + policy.repetition_weight * repetition_ratio
        + policy.format_weight * min(_format_violations(text), 3) / 3.0
        + policy.degeneration_weight * (1.0 if degeneration else 0.0)
    )
    return max(0.0, 1.0 - penalty)


# ---------------------------------------------------------------------------
# semantic and alignment


# The code-point budget B of a block of the semantic pass. A sample costs
# len(output) + len(reference_text) + 1; a block takes samples in order while
# their costs fit, and a sample over the budget is a block of its own. So a
# block of several samples keeps its code points, keys and sort in cache, and
# an int64 array of one entry per code point at most about 64 KiB, below
# glibc's 128 KiB mmap threshold, whatever the text lengths. One sort over the whole
# batch is slower than scoring each sample on its own. On 1k synthetic
# samples 8,192 was faster than 4,096 and 16,384.
#
# The budget also bounds the keys, which stay below 2 * m * A**3 for m
# samples and A ranks (_trigram_keys). Lowercasing at most doubles a text
# (only U+0130 lowercases to two code points, and none to more, as a test
# over every code point pins) and collapsing whitespace never lengthens it,
# so a block of m >= 2 samples has m <= B and A <= 2 * B, and its keys are
# below 16 * B**4 = 2**56. A block of one sample has A <= 0x110000, so its
# keys are below 2**62.
_BLOCK_CODE_POINTS = 8192


def _normalized(text: str) -> str:
    return " ".join(text.lower().split())


def _trigram_keys(texts: list[str]) -> tuple[np.ndarray, int]:
    """The sorted trigram keys of a block's texts, output then reference per
    sample, and the number A of distinct code points they rank.

    The texts are encoded as one array of code points, ranked densely in
    code point order. Trigram (r0, r1, r2) of side s (0 output, 1 reference)
    of the block's i-th sample is the key (((i * A + r0) * A + r1) * A + r2)
    * 2 + s, so after the sort a run of equal keys is one trigram count, a
    sample's runs lie together and an output run is followed by the
    reference run of the same trigram. Keys stay below 2 * m * A**3 for m
    samples, which fits int64 for a block cut at _BLOCK_CODE_POINTS. Lone
    surrogates pass through as their own code points.
    """
    codes = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), np.uint32)
    # one sort of (code, position) pairs ranks the code points, so the cost
    # follows the block's size, never the size of a code point
    pairs = np.sort(codes.astype(np.int64) << 32 | np.arange(codes.size))
    ranks = np.empty(codes.size, dtype=np.int64)
    ranks[pairs & 0xFFFFFFFF] = np.cumsum(np.diff(pairs >> 32, prepend=pairs[:1] >> 32) != 0)
    a = int(ranks.max(initial=-1)) + 1
    lengths = [len(text) for text in texts]
    text = np.arange(len(texts), dtype=np.int64)
    keys = ((ranks[:-2] * a + ranks[1:-1]) * a + ranks[2:]) * 2
    keys += np.repeat(text // 2 * (2 * a**3) + text % 2, lengths)[:-2]
    # a trigram starts at least three code points before its text's end
    ends = np.cumsum(lengths)
    last = np.concatenate((ends - 1, ends - 2))
    start = np.ones(keys.size, dtype=bool)
    start[last[(last >= 0) & (last < keys.size)]] = False
    return np.sort(keys[start]), a


def _semantic_blocks(samples: list[LoggedSample]) -> Iterable[list[LoggedSample]]:
    """The samples in order, cut into blocks at _BLOCK_CODE_POINTS."""
    start, budget = 0, _BLOCK_CODE_POINTS
    for i, sample in enumerate(samples):
        cost = len(sample.output) + len(sample.reference_text) + 1
        if cost > budget and i > start:
            yield samples[start:i]
            start, budget = i, _BLOCK_CODE_POINTS
        budget -= cost
    if start < len(samples):
        yield samples[start:]


def _semantic_block(samples: Sequence[LoggedSample]) -> list[float]:
    """score_semantic of each sample, from one sort of the block's trigram
    keys (_trigram_keys).

    Runs of equal keys give the trigram counts. Each sample's exact integer
    |a|^2, |b|^2 and dot are int64 sums over its runs: a run's square goes to
    its side, and the product of an output run and the reference run of the
    same trigram, which follows it, goes to dot.
    """
    m = len(samples)
    texts = [_normalized(t) for s in samples for t in (s.output, s.reference_text)]
    keys, a = _trigram_keys(texts)
    first = np.flatnonzero(np.diff(keys, prepend=-1))  # where each run of equal keys starts
    counts = np.diff(first, append=keys.size)
    keys = keys[first]
    side = keys & 1
    # a zero column ends the last sample's reduceat segment; a sample without
    # runs has no trigram on either side, so the short-text rule below
    # overwrites what reduceat puts in its empty segment
    squares = counts * counts
    sums = np.zeros((3, keys.size + 1), dtype=np.int64)
    np.multiply(squares, 1 - side, out=sums[0, :-1])
    np.multiply(squares, side, out=sums[1, :-1])
    np.multiply(counts[:-1] * counts[1:], (keys[:-1] | 1) == keys[1:], out=sums[2, :-2])
    aa, bb, dot = np.add.reduceat(sums, np.searchsorted(keys, 2 * a**3 * np.arange(m)), axis=1)
    gramless = [i for i in range(m) if min(len(texts[2 * i]), len(texts[2 * i + 1])) < 3]
    norm = np.sqrt(aa) * np.sqrt(bb)
    norm[gramless] = 1.0
    scores = np.minimum(1.0, np.maximum(0.0, dot / norm))
    scores[(dot == aa) & (aa == bb)] = 1.0  # equal trigram counts
    scores = scores.tolist()
    for i in gramless:
        scores[i] = 1.0 if texts[2 * i] == texts[2 * i + 1] else 0.0
    return scores


def score_semantic(sample: LoggedSample) -> float:
    """Built-in reference-based semantic proxy: cosine over character
    trigram counts.

    Texts are lowercased and whitespace-collapsed first, and each trigram
    is counted by its three code points. The dot product and both squared
    norms are exact integers; the score is dot / (sqrt(|a|^2) * sqrt(|b|^2)),
    clipped to [0, 1]. Equal trigram counts score 1.0, texts sharing no
    trigrams score 0.0. A text under three characters has no trigram, so
    when either side has none the score is 1.0 for equal normalized texts
    and 0.0 otherwise. This is deliberately a cheap offline stand-in for an
    embedding similarity service.

    It is the semantic column's block pass over a block of one sample, so
    a call pays a whole block's fixed cost: about 0.12 ms on 300-code-point
    texts, against about 0.04 ms a sample in score_all's blocks of up to
    _BLOCK_CODE_POINTS code points (2-vCPU x86 VM, numpy 2.4). Score a batch
    through score_all.
    """
    if sample.reference_text is None:
        raise MissingReferenceText(sample.sample_id)
    return _semantic_block([sample])[0]


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
# agreement and the consensus baselines


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


def consensus_baselines(batch: Batch) -> dict[str, list[float]]:
    """Mean and median of each sample's normalized evaluator scores, as
    {"mean": [...], "median": [...]} in sample order; NaN for a sample
    without scores, which a consumer that needs a value refuses."""
    out: dict[str, list[float]] = {"mean": [], "median": []}
    for row in batch.normalized_scores().tolist():
        ordered = sorted(v for v in row if v == v) or [math.nan]  # no scores: NaN
        m = len(ordered) // 2  # statistics.median's rule
        out["mean"].append(math.fsum(ordered) / len(ordered))
        out["median"].append(ordered[m] if len(ordered) % 2 else (ordered[m - 1] + ordered[m]) / 2)
    return out


# ---------------------------------------------------------------------------
# the full scoring pass


class ScoringConfig(Record):
    """Everything score_all needs besides the samples themselves."""

    weights: WeightConfig = DEFAULT_WEIGHTS
    structure: StructurePolicy = StructurePolicy()
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


def _raw_column(dim: DimensionId, batch: Batch, config: ScoringConfig) -> list[float]:
    samples = batch.samples
    if dim is DimensionId.MODEL_PRIOR:
        return [config.model_priors.normalized(s.producer_id) for s in samples]
    if dim is DimensionId.COST_PRIOR:
        return [config.cost_priors.normalized(s.producer_id) for s in samples]
    if dim is DimensionId.STRUCTURE:
        return [score_structure(s.output, config.structure) for s in samples]
    if dim is DimensionId.SEMANTIC and config.semantic_column is None:
        return [score for block in _semantic_blocks(samples) for score in _semantic_block(block)]
    if dim is DimensionId.SEMANTIC:
        return [column_value(s, config.semantic_column) for s in samples]
    if dim is DimensionId.ALIGNMENT:
        return [column_value(s, config.alignment_column) for s in samples]
    if dim is DimensionId.AGREEMENT:
        return [
            _agreement_from_values([v for v in row if v == v], s.sample_id)
            for s, row in zip(samples, batch.normalized_scores().tolist())
        ]
    raise ValueError(f"no scorer for dimension {dim!r}")


def score_all(
    batch: Batch, config: ScoringConfig | None = None
) -> tuple[Batch, dict[DimensionId, tuple[float, float]]]:
    """Score every active dimension over the batch.

    Before any column is built, the config passes check_config and every
    sample passes missing_inputs; the first problem is raised. Raw columns
    are computed per dimension, then normalized per batch (or against
    frozen stats when configured). Returns the batch with its new dims, NaN
    in each unweighted column, and each active dimension's raw (min, max),
    which can be fed back in as frozen_stats. `batch` is left as it is.
    """
    config = config or ScoringConfig()
    dims = np.full((len(batch), len(CANONICAL_DIMENSIONS)), math.nan)
    if not batch.samples:
        return batch.with_dims(dims), {}
    check_config(config)
    for sample in batch.samples:
        for _, error in missing_inputs(sample, config):
            raise error
    frozen = config.frozen_stats or {}
    raw_ranges: dict[DimensionId, tuple[float, float]] = {}
    for dim in config.weights.weights:  # in canonical order
        raw = _raw_column(dim, batch, config)
        raw_ranges[dim] = (min(raw), max(raw))
        dims[:, DIMENSION_COLUMN[dim]] = normalize_batch(raw, frozen.get(dim))
    return batch.with_dims(dims), raw_ranges


def validate_dataset(batch: Batch, config: ScoringConfig | None = None) -> ValidationReport:
    """List, given `config`, every input that scoring under it would reject,
    not just the first. A repeated sample_id never gets this far: the Batch
    constructor refuses it, and ingest lists each repeated line."""
    issues: list[ValidationIssue] = []
    invalid = 0
    for sample in batch.samples if config is not None else ():
        found = missing_inputs(sample, config)
        invalid += bool(found)
        issues.extend(ValidationIssue(sample.sample_id, name, str(error)) for name, error in found)
    return ValidationReport(len(batch) - invalid, invalid, tuple(issues))
