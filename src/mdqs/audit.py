"""Reliability audit: correlate every quality signal against the reference.

The audit answers one question per signal: does it rank outputs the way the
trusted reference does? Signals covered: each dimension column, each raw
evaluator column, the mean/median consensus baselines, and any composite
variants. Everything is reported overall and per task family, because a
dimension can help on one task and hurt on another. A run audits once:
calibrate and calibrate_per_task read their gate statistics from audit's
report, and with_composites then appends the composite rows to it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Mapping, Sequence

from mdqs.composite import VariantSpec, compose_batch, make_variant
from mdqs.errors import (
    AllDimensionsRemoved,
    NoEvaluators,
    TooFewReferencedSamples,
)
from mdqs.model import (
    CANONICAL_DIMENSIONS,
    DEFAULT_WEIGHTS,
    DimensionId,
    LoggedSample,
    WeightConfig,
)
from mdqs.scoring import normalize_evaluator_scores
from mdqs.stats import pearson, spearman


@dataclass(frozen=True)
class CorrelationRow:
    """One signal's agreement with the reference on one sample subset."""

    kind: str  # dimension | evaluator | baseline | composite
    name: str
    pearson: float | None
    spearman: float | None
    n: int


@dataclass(frozen=True)
class AuditBlock:
    label: str
    rows: tuple[CorrelationRow, ...]

    def row(self, kind: str, name: str) -> CorrelationRow | None:
        for r in self.rows:
            if r.kind == kind and r.name == name:
                return r
        return None

    def dimensions(self) -> tuple[CorrelationRow, ...]:
        return tuple(r for r in self.rows if r.kind == "dimension")


@dataclass(frozen=True)
class AuditReport:
    overall: AuditBlock
    by_task: Mapping[str, AuditBlock]
    n_referenced: int


def consensus_baselines(samples: Sequence[LoggedSample]) -> dict[str, dict[str, float]]:
    """Mean and median of per-evaluator-normalized scores, per sample.

    Every sample must carry at least one evaluator score; a consensus of
    nothing is a config error, not a zero.
    """
    samples = list(samples)
    normalized = normalize_evaluator_scores(samples)
    out: dict[str, dict[str, float]] = {}
    for sample in samples:
        values = list(normalized[sample.sample_id].values())
        if not values:
            raise NoEvaluators(sample.sample_id)
        out[sample.sample_id] = {
            "mean": math.fsum(values) / len(values),
            "median": float(statistics.median(values)),
        }
    return out


def _correlation_row(kind: str, name: str, pairs: list[tuple[float, float]]) -> CorrelationRow:
    if len(pairs) < 2:
        return CorrelationRow(kind=kind, name=name, pearson=None, spearman=None, n=len(pairs))
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    return CorrelationRow(
        kind=kind, name=name, pearson=pearson(xs, ys), spearman=spearman(xs, ys), n=len(pairs)
    )


def _block(
    label: str,
    samples: list[LoggedSample],
    normalized: dict[str, dict[str, float]],
) -> AuditBlock:
    rows: list[CorrelationRow] = []

    dims_present = [
        d
        for d in CANONICAL_DIMENSIONS
        if any(s.dimension_scores is not None and d in s.dimension_scores for s in samples)
    ]
    for dim in dims_present:
        pairs = [
            (s.dimension_scores[dim], s.reference_score)
            for s in samples
            if s.dimension_scores is not None and dim in s.dimension_scores
        ]
        rows.append(_correlation_row("dimension", dim.value, pairs))

    evaluator_ids = sorted({e for s in samples for e in s.evaluator_scores})
    for evaluator in evaluator_ids:
        pairs = [
            (s.evaluator_scores[evaluator], s.reference_score)
            for s in samples
            if evaluator in s.evaluator_scores
        ]
        rows.append(_correlation_row("evaluator", evaluator, pairs))

    with_scores = [s for s in samples if s.evaluator_scores]
    for stat in ("mean", "median"):
        pairs = []
        for s in with_scores:
            values = list(normalized[s.sample_id].values())
            agg = math.fsum(values) / len(values) if stat == "mean" else float(
                statistics.median(values)
            )
            pairs.append((agg, s.reference_score))
        rows.append(_correlation_row("baseline", stat, pairs))

    return AuditBlock(label=label, rows=tuple(rows))


def audit(samples: Sequence[LoggedSample]) -> AuditReport:
    """Correlate every dimension, evaluator and baseline with the reference,
    overall and per task.

    Only samples carrying a reference score participate. Evaluator columns
    are normalized over the full sample set first; min-max is affine per
    column, so the correlations themselves are unaffected, but the consensus
    baselines need a common scale.
    """
    all_samples = list(samples)
    referenced = [s for s in all_samples if s.reference_score is not None]
    if len(referenced) < 2:
        raise TooFewReferencedSamples(
            f"audit needs >= 2 samples with a reference score, got {len(referenced)}"
        )
    normalized = normalize_evaluator_scores(all_samples)

    overall = _block("overall", referenced, normalized)

    # qa, then summarization, then other tasks in order of first appearance
    first_seen = dict.fromkeys(s.task.label for s in referenced)
    task_order = sorted(first_seen, key=lambda t: {"qa": 0, "summarization": 1}.get(t, 2))
    by_task = {
        label: _block(label, [s for s in referenced if s.task.label == label], normalized)
        for label in task_order
    }
    return AuditReport(overall=overall, by_task=by_task, n_referenced=len(referenced))


def with_composites(
    report: AuditReport,
    samples: Sequence[LoggedSample],
    composites: Mapping[str, WeightConfig],
) -> AuditReport:
    """`report`, audit(samples)'s result, with one composite row per weight
    config appended to every block. A row covers the block's referenced
    samples whose dimension scores include every weighted dimension."""
    referenced = [s for s in samples if s.reference_score is not None]

    def extend(block: AuditBlock, subset: list[LoggedSample]) -> AuditBlock:
        rows = list(block.rows)
        for name, weights in composites.items():
            scorable = [
                s
                for s in subset
                if s.dimension_scores is not None
                and weights.dimensions() <= s.dimension_scores.keys()
            ]
            refs = [s.reference_score for s in scorable]
            pairs = list(zip(compose_batch(scorable, weights), refs))
            rows.append(_correlation_row("composite", name, pairs))
        return AuditBlock(label=block.label, rows=tuple(rows))

    by_task = {
        label: extend(block, [s for s in referenced if s.task.label == label])
        for label, block in report.by_task.items()
    }
    return AuditReport(extend(report.overall, referenced), by_task, report.n_referenced)


@dataclass(frozen=True)
class AblationRow:
    name: str
    pearson: float | None
    spearman: float | None
    n: int


def ablation_grid(
    samples: Sequence[LoggedSample],
    variants: Sequence[tuple[str, VariantSpec]],
    base: WeightConfig = DEFAULT_WEIGHTS,
) -> list[AblationRow]:
    """Overall reference correlation for each weight variant.

    Variants reuse the dimension scores already on the samples; nothing is
    re-scored, so the grid is cheap and rows are exactly comparable.
    """
    referenced = [s for s in samples if s.reference_score is not None]
    if len(referenced) < 2:
        raise TooFewReferencedSamples(
            f"ablation needs >= 2 samples with a reference score, got {len(referenced)}"
        )
    refs = [s.reference_score for s in referenced]
    rows: list[AblationRow] = []
    for name, spec in variants:
        weights = make_variant(base, spec)
        scores = compose_batch(referenced, weights)
        rows.append(
            AblationRow(
                name=name,
                pearson=pearson(scores, refs),
                spearman=spearman(scores, refs),
                n=len(referenced),
            )
        )
    return rows


GATE_CHOICES = ("pearson", "spearman", "taskwise_min")


@dataclass(frozen=True)
class CalibrationResult:
    """What calibration removed and what it did to the composite."""

    removed: frozenset[DimensionId]
    threshold: float
    gate: str
    gate_stats: Mapping[DimensionId, float | None]
    calibrated: WeightConfig
    before: tuple[float | None, float | None]  # (pearson, spearman)
    after: tuple[float | None, float | None]

    @property
    def removed_names(self) -> tuple[str, ...]:
        return tuple(d.value for d in CANONICAL_DIMENSIONS if d in self.removed)


def _gate_stats(
    report: AuditReport, dims: Sequence[DimensionId], gate: str
) -> dict[DimensionId, float | None]:
    stats: dict[DimensionId, float | None] = {}
    for dim in dims:
        if gate == "taskwise_min":
            # the lowest per-task pearson over tasks with >= 2 scored samples;
            # undefined when any of those is undefined
            rows = [block.row("dimension", dim.value) for block in report.by_task.values()]
            per_task = [r.pearson for r in rows if r is not None and r.n >= 2]
            stats[dim] = None if not per_task or None in per_task else min(per_task)
            continue
        row = report.overall.row("dimension", dim.value)
        if row is None:
            stats[dim] = None
        else:
            stats[dim] = row.pearson if gate == "pearson" else row.spearman
    return stats


def calibrate(
    report: AuditReport,
    samples: Sequence[LoggedSample],
    base: WeightConfig = DEFAULT_WEIGHTS,
    threshold: float = 0.0,
    gate: str = "pearson",
) -> CalibrationResult:
    """Drop dimensions whose gate statistic misses the threshold, renormalize.

    Gate statistics come from `report`, audit(samples)'s result. A dimension with an undefined (zero variance) statistic is removed too:
    it carries no ranking signal, and scoring it as 0 would let it slip
    past a negative threshold unnoticed.
    """
    if gate not in GATE_CHOICES:
        raise ValueError(f"gate must be one of {GATE_CHOICES}, got {gate!r}")
    dims = [d for d in CANONICAL_DIMENSIONS if d in base.dimensions()]
    stats = _gate_stats(report, dims, gate)
    removed = frozenset(
        d for d in dims if stats[d] is None or stats[d] < threshold
    )
    if removed == frozenset(dims):
        raise AllDimensionsRemoved(
            f"threshold {threshold} removes every dimension under gate {gate!r}"
        )
    calibrated = make_variant(base, VariantSpec.removing(removed, name="calibrated"))

    referenced = [s for s in samples if s.reference_score is not None]
    refs = [s.reference_score for s in referenced]
    before_scores = compose_batch(referenced, base)
    after_scores = compose_batch(referenced, calibrated)
    return CalibrationResult(
        removed=removed,
        threshold=threshold,
        gate=gate,
        gate_stats=stats,
        calibrated=calibrated,
        before=(pearson(before_scores, refs), spearman(before_scores, refs)),
        after=(pearson(after_scores, refs), spearman(after_scores, refs)),
    )


def dimension_means_by_producer(
    samples: Sequence[LoggedSample],
) -> list[tuple[str, str, float, int]]:
    """Mean normalized score per (producer, dimension); shows which models
    win on which dimension. Rows sorted by producer, then canonical order."""
    sums: dict[tuple[str, DimensionId], list[float]] = {}
    for s in samples:
        if s.dimension_scores is None:
            continue
        for dim, value in s.dimension_scores.as_dict().items():
            sums.setdefault((s.producer_id, dim), []).append(value)
    rows = []
    for producer in sorted({p for p, _ in sums}):
        for dim in CANONICAL_DIMENSIONS:
            values = sums.get((producer, dim))
            if values:
                rows.append(
                    (producer, dim.value, math.fsum(values) / len(values), len(values))
                )
    return rows


def calibrate_per_task(
    report: AuditReport,
    samples: Sequence[LoggedSample],
    base: WeightConfig = DEFAULT_WEIGHTS,
    threshold: float = 0.0,
    gate: str = "pearson",
) -> dict[str, CalibrationResult]:
    """Independent calibration within each task family, in order of first
    appearance; each task's gate statistics come from its block of `report`,
    audit(samples)'s result, as if that task were the whole dataset."""
    referenced = [s for s in samples if s.reference_score is not None]
    labels = list(dict.fromkeys(s.task.label for s in referenced))
    out: dict[str, CalibrationResult] = {}
    for label in labels:
        subset = [s for s in referenced if s.task.label == label]
        if len(subset) < 2:
            raise TooFewReferencedSamples(
                f"task {label!r}: calibration needs >= 2 samples with a reference score, "
                f"got {len(subset)}"
            )
        block = report.by_task[label]
        task_report = AuditReport(block, {label: block}, len(subset))
        out[label] = calibrate(task_report, subset, base=base, threshold=threshold, gate=gate)
    return out
