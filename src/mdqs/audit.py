"""Reliability audit: correlate every quality signal against the reference.

The audit answers one question per signal: does it rank outputs the way the
trusted reference does? Each signal (a dimension, a raw evaluator column, the
mean/median consensus baseline, a composite variant) is one column over the
referenced samples, NaN where a sample has no value. Each block is a boolean
mask over those samples: overall, then one per task family, because a
dimension can help on one task and hurt on another. One routine makes a
block's rows from the non-NaN entries of every column. A run audits once:
calibrate and calibrate_per_task read their gate statistics from audit's
report, and with_composites then appends the composite rows to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from mdqs.composite import compose_rows, dimension_matrix, refuse_absent, variant
from mdqs.errors import AllDimensionsRemoved, TooFewReferencedSamples
from mdqs.model import (
    CANONICAL_DIMENSIONS,
    DEFAULT_WEIGHTS,
    DimensionId,
    LoggedSample,
    WeightConfig,
)
from mdqs.scoring import consensus_baselines, evaluator_table
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


def _correlation_row(kind: str, name: str, xs: np.ndarray, ys: np.ndarray) -> CorrelationRow:
    """xs against the reference scores ys, pair by pair."""
    if len(xs) < 2:
        return CorrelationRow(kind=kind, name=name, pearson=None, spearman=None, n=len(xs))
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


def _columns(referenced: Sequence[LoggedSample]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The referenced samples' dimension matrix, reference scores and task labels."""
    return (
        dimension_matrix(s.dimension_scores for s in referenced),
        np.array([s.reference_score for s in referenced], dtype=np.float64),
        np.array([s.task.label for s in referenced], dtype=object),
    )


def _block_rows(
    signals: Sequence[tuple[str, str, np.ndarray]], ys: np.ndarray, mask: np.ndarray
) -> tuple[CorrelationRow, ...]:
    """One row per (kind, name, column) signal over its non-NaN entries in
    `mask`; a dimension or evaluator with none gets no row, any other does."""
    rows = []
    for kind, name, column in signals:
        keep = mask & ~np.isnan(column)
        if kind in ("dimension", "evaluator") and not keep.any():
            continue
        rows.append(_correlation_row(kind, name, column[keep], ys[keep]))
    return tuple(rows)


def audit(samples: Sequence[LoggedSample]) -> AuditReport:
    """Correlate every dimension, evaluator and baseline with the reference,
    overall and per task.

    Only samples carrying a reference score participate. Evaluator columns
    are correlated raw: min-max is affine per column, so it would move no
    correlation but its last bits. The consensus baselines are taken over
    every sample carrying evaluator scores, normalized per evaluator.
    """
    all_samples = list(samples)
    referenced = _referenced(all_samples, "audit")
    baselines = consensus_baselines([s for s in all_samples if s.evaluator_scores])
    matrix, ys, labels = _columns(referenced)
    signals = [("dimension", d.value, column) for d, column in zip(CANONICAL_DIMENSIONS, matrix.T)]
    ids, raw = evaluator_table(referenced)
    signals += [("evaluator", evaluator, column) for evaluator, column in zip(ids, raw.T)]
    # each baseline onto the samples carrying scores, NaN elsewhere; then the referenced rows
    has_scores = np.array([bool(s.evaluator_scores) for s in all_samples], dtype=bool)
    is_referenced = np.array([s.reference_score is not None for s in all_samples], dtype=bool)
    for stat, values in baselines.items():
        column = np.full(len(all_samples), math.nan)
        column[has_scores] = values
        signals.append(("baseline", stat, column[is_referenced]))

    # qa, then summarization, then other tasks in order of first appearance
    first_seen = dict.fromkeys(labels.tolist())
    task_order = sorted(first_seen, key=lambda t: {"qa": 0, "summarization": 1}.get(t, 2))
    return AuditReport(
        overall=AuditBlock("overall", _block_rows(signals, ys, np.ones(len(ys), dtype=bool))),
        by_task={
            label: AuditBlock(label, _block_rows(signals, ys, labels == label))
            for label in task_order
        },
        n_referenced=len(referenced),
    )


def with_composites(
    report: AuditReport,
    samples: Sequence[LoggedSample],
    composites: Mapping[str, WeightConfig],
) -> AuditReport:
    """`report`, audit(samples)'s result, with one composite row per weight
    config appended to each of its blocks. A row covers the block's
    referenced samples whose dimension scores include every weighted
    dimension; each config is composed once, over one dimension matrix."""
    matrix, ys, labels = _columns([s for s in samples if s.reference_score is not None])
    signals = [("composite", name, compose_rows(matrix, w)) for name, w in composites.items()]

    def extended(block: AuditBlock, mask: np.ndarray) -> AuditBlock:
        return AuditBlock(block.label, block.rows + _block_rows(signals, ys, mask))

    return AuditReport(
        extended(report.overall, np.ones(len(ys), dtype=bool)),
        {label: extended(block, labels == label) for label, block in report.by_task.items()},
        report.n_referenced,
    )


def _composite_rows(
    samples: Sequence[LoggedSample], configs: Iterable[WeightConfig], what: str
) -> list[CorrelationRow]:
    """One composite row per weight config over every referenced sample; a
    sample the config cannot compose raises as in compose_batch."""
    referenced = _referenced(samples, what)
    matrix, ys, _ = _columns(referenced)
    rows = []
    for weights in configs:
        column = compose_rows(matrix, weights)
        refuse_absent(referenced, column, weights)
        rows.append(_correlation_row("composite", weights.name, column, ys))
    return rows


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
    return _composite_rows(samples, (variant(base, name) for name in names), "ablation")


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
    before, after = _composite_rows(samples, (base, calibrated), "calibration")
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
    matrix = dimension_matrix(s.dimension_scores for s in samples)
    producers = np.array([s.producer_id for s in samples], dtype=object)
    rows = []
    for producer in sorted(set(producers.tolist())):
        for dim, column in zip(CANONICAL_DIMENSIONS, matrix[producers == producer].T):
            values = column[~np.isnan(column)]
            if values.size:
                rows.append((producer, dim.value, math.fsum(values) / values.size, values.size))
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
