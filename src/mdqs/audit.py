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
from typing import Iterable, Mapping, Sequence

from mdqs.composite import compose_batch, variant
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


def _correlation_row(
    kind: str, name: str, xs: Sequence[float], samples: Sequence[LoggedSample]
) -> CorrelationRow:
    """xs against the reference scores of `samples`, pair by pair."""
    if len(xs) < 2:
        return CorrelationRow(kind=kind, name=name, pearson=None, spearman=None, n=len(xs))
    ys = [s.reference_score for s in samples]
    return CorrelationRow(
        kind=kind, name=name, pearson=pearson(xs, ys), spearman=spearman(xs, ys), n=len(xs)
    )


def _referenced(samples: Sequence[LoggedSample], what: str) -> list[LoggedSample]:
    """The samples carrying a reference score; at least two are needed."""
    referenced = [s for s in samples if s.reference_score is not None]
    if len(referenced) < 2:
        raise TooFewReferencedSamples(
            f"{what} needs >= 2 samples with a reference score, got {len(referenced)}"
        )
    return referenced


def _block(
    label: str,
    samples: list[LoggedSample],
    baselines: Mapping[str, Mapping[str, float]],
) -> AuditBlock:
    rows: list[CorrelationRow] = []

    for dim in CANONICAL_DIMENSIONS:
        scored = [
            s for s in samples if s.dimension_scores is not None and dim in s.dimension_scores
        ]
        if scored:
            xs = [s.dimension_scores[dim] for s in scored]
            rows.append(_correlation_row("dimension", dim.value, xs, scored))

    for evaluator in sorted({e for s in samples for e in s.evaluator_scores}):
        scored = [s for s in samples if evaluator in s.evaluator_scores]
        xs = [s.evaluator_scores[evaluator] for s in scored]
        rows.append(_correlation_row("evaluator", evaluator, xs, scored))

    with_scores = [s for s in samples if s.evaluator_scores]
    for stat in ("mean", "median"):
        xs = [baselines[s.sample_id][stat] for s in with_scores]
        rows.append(_correlation_row("baseline", stat, xs, with_scores))

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
    referenced = _referenced(all_samples, "audit")
    baselines = consensus_baselines([s for s in all_samples if s.evaluator_scores])

    overall = _block("overall", referenced, baselines)

    # qa, then summarization, then other tasks in order of first appearance
    first_seen = dict.fromkeys(s.task.label for s in referenced)
    task_order = sorted(first_seen, key=lambda t: {"qa": 0, "summarization": 1}.get(t, 2))
    by_task = {
        label: _block(label, [s for s in referenced if s.task.label == label], baselines)
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
    samples whose dimension scores include every weighted dimension; each
    config is composed once and every block takes its part of that column."""
    referenced = [s for s in samples if s.reference_score is not None]
    overall = list(report.overall.rows)
    by_task = {label: list(block.rows) for label, block in report.by_task.items()}
    for name, weights in composites.items():
        wanted = weights.dimensions()
        scorable = [
            s
            for s in referenced
            if s.dimension_scores is not None and s.dimension_scores.values.keys() >= wanted
        ]
        column = compose_batch(scorable, weights)
        overall.append(_correlation_row("composite", name, column, scorable))
        for label, rows in by_task.items():
            in_task = [i for i, s in enumerate(scorable) if s.task.label == label]
            rows.append(
                _correlation_row(
                    "composite", name, [column[i] for i in in_task], [scorable[i] for i in in_task]
                )
            )
    return AuditReport(
        AuditBlock(report.overall.label, tuple(overall)),
        {label: AuditBlock(label, tuple(rows)) for label, rows in by_task.items()},
        report.n_referenced,
    )


def ablation_grid(
    samples: Sequence[LoggedSample],
    names: Iterable[str],
    base: WeightConfig = DEFAULT_WEIGHTS,
) -> list[CorrelationRow]:
    """Overall reference correlation for each named weight variant of
    `base`, one composite row each.

    Variants reuse the dimension scores already on the samples; nothing is
    re-scored, so the grid is cheap and rows are exactly comparable.
    """
    referenced = _referenced(samples, "ablation")
    return [
        _correlation_row(
            "composite", name, compose_batch(referenced, variant(base, name)), referenced
        )
        for name in names
    ]


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

    Gate statistics come from `report`, audit(samples)'s result. A
    dimension with an undefined (zero variance) statistic is removed too:
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
    calibrated = WeightConfig("calibrated", {d: base[d] for d in dims if d not in removed})

    referenced = _referenced(samples, "calibration")
    before, after = (
        _correlation_row("composite", w.name, compose_batch(referenced, w), referenced)
        for w in (base, calibrated)
    )
    return CalibrationResult(
        removed=removed,
        threshold=threshold,
        gate=gate,
        gate_stats=stats,
        calibrated=calibrated,
        before=(before.pearson, before.spearman),
        after=(after.pearson, after.spearman),
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
        subset = _referenced(
            [s for s in referenced if s.task.label == label], f"task {label!r}: calibration"
        )
        block = report.by_task[label]
        task_report = AuditReport(block, {label: block}, len(subset))
        out[label] = calibrate(task_report, subset, base=base, threshold=threshold, gate=gate)
    return out
