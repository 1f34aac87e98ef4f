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
from typing import Iterable, Mapping, Sequence

import numpy as np

from mdqs.composite import compose_rows, refuse_absent, variant
from mdqs.errors import AllDimensionsRemoved, TooFewReferencedSamples
from mdqs.model import (
    CANONICAL_DIMENSIONS,
    DEFAULT_WEIGHTS,
    Batch,
    DimensionId,
    Record,
    WeightConfig,
)
from mdqs.scoring import consensus_baselines
from mdqs.stats import pearson, spearman


class CorrelationRow(Record):
    """One signal's agreement with the reference on one sample subset."""

    kind: str  # dimension | evaluator | baseline | composite
    name: str
    pearson: float | None
    spearman: float | None
    n: int


class AuditBlock(Record):
    label: str
    rows: tuple[CorrelationRow, ...]

    def row(self, kind: str, name: str) -> CorrelationRow | None:
        for r in self.rows:
            if r.kind == kind and r.name == name:
                return r
        return None

    def dimensions(self) -> tuple[CorrelationRow, ...]:
        return tuple(r for r in self.rows if r.kind == "dimension")


class AuditReport(Record):
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


def _referenced(
    batch: Batch, what: str | None = None
) -> tuple[np.ndarray, Batch, np.ndarray, np.ndarray]:
    """batch.referenced(): which samples carry a reference score, their rows
    of the batch, and their reference scores and task labels. Given `what`,
    fewer than two such samples is TooFewReferencedSamples naming it."""
    keep, referenced, ys, labels = batch.referenced()
    if what is not None and len(referenced) < 2:
        raise TooFewReferencedSamples(
            f"{what} needs >= 2 samples with a reference score, got {len(referenced)}"
        )
    return keep, referenced, ys, labels


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


def audit(batch: Batch) -> AuditReport:
    """Correlate every dimension, evaluator and baseline with the reference,
    overall and per task.

    Only samples carrying a reference score participate. Evaluator columns
    are correlated raw: min-max is affine per column, so it would move no
    correlation but its last bits. The consensus baselines are taken over
    every sample carrying evaluator scores, normalized per evaluator.
    """
    keep, referenced, ys, labels = _referenced(batch, "audit")
    dims, raw = referenced.dims.T, referenced.evaluator_scores.T
    signals = [("dimension", d.value, column) for d, column in zip(CANONICAL_DIMENSIONS, dims)]
    # all NaN for an evaluator that scores no referenced sample, which gets no row
    signals += [("evaluator", e, column) for e, column in zip(batch.evaluator_ids, raw)]
    for stat, values in consensus_baselines(batch).items():
        signals.append(("baseline", stat, np.array(values)[keep]))

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
    report: AuditReport, batch: Batch, composites: Mapping[str, WeightConfig]
) -> AuditReport:
    """`report`, audit(batch)'s result, with one composite row per weight
    config appended to each of its blocks. A row covers the block's
    referenced samples whose dimension scores include every weighted
    dimension; each config is composed once, over the referenced rows."""
    _, referenced, ys, labels = _referenced(batch)
    matrix = referenced.dims
    signals = [("composite", name, compose_rows(matrix, w)) for name, w in composites.items()]

    def extended(block: AuditBlock, mask: np.ndarray) -> AuditBlock:
        return AuditBlock(block.label, block.rows + _block_rows(signals, ys, mask))

    return AuditReport(
        extended(report.overall, np.ones(len(ys), dtype=bool)),
        {label: extended(block, labels == label) for label, block in report.by_task.items()},
        report.n_referenced,
    )


def _composite_rows(
    batch: Batch, configs: Iterable[WeightConfig], what: str
) -> list[CorrelationRow]:
    """One composite row per weight config over every referenced sample; a
    sample the config cannot compose raises as in compose_batch."""
    _, referenced, ys, _ = _referenced(batch, what)
    rows = []
    for weights in configs:
        column = compose_rows(referenced.dims, weights)
        refuse_absent(referenced, column, weights)
        rows.append(_correlation_row("composite", weights.name, column, ys))
    return rows


def ablation_grid(
    batch: Batch, names: Iterable[str], base: WeightConfig = DEFAULT_WEIGHTS
) -> list[CorrelationRow]:
    """Overall reference correlation for each named weight variant of
    `base`, one composite row each.

    Variants reuse the batch's dims; nothing is re-scored, so the grid is
    cheap and rows are exactly comparable.
    """
    return _composite_rows(batch, (variant(base, name) for name in names), "ablation")


GATE_CHOICES = ("pearson", "spearman", "taskwise_min")


class CalibrationResult(Record):
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
    report: AuditReport, weighted: Sequence[DimensionId], gate: str
) -> dict[DimensionId, float | None]:
    stats: dict[DimensionId, float | None] = {}
    for dim in weighted:
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
    batch: Batch,
    base: WeightConfig = DEFAULT_WEIGHTS,
    threshold: float = 0.0,
    gate: str = "pearson",
) -> CalibrationResult:
    """Drop dimensions whose gate statistic misses the threshold, renormalize.

    Gate statistics come from `report`, audit(batch)'s result. A
    dimension with an undefined (zero variance) statistic is removed too:
    it carries no ranking signal, and scoring it as 0 would let it slip
    past a negative threshold unnoticed.
    """
    if gate not in GATE_CHOICES:
        raise ValueError(f"gate must be one of {GATE_CHOICES}, got {gate!r}")
    weighted = [d for d in CANONICAL_DIMENSIONS if d in base.dimensions()]
    stats = _gate_stats(report, weighted, gate)
    removed = frozenset(
        d for d in weighted if stats[d] is None or stats[d] < threshold
    )
    if removed == frozenset(weighted):
        raise AllDimensionsRemoved(
            f"threshold {threshold} removes every dimension under gate {gate!r}"
        )
    calibrated = WeightConfig("calibrated", {d: base[d] for d in weighted if d not in removed})
    before, after = _composite_rows(batch, (base, calibrated), "calibration")
    return CalibrationResult(
        removed=removed,
        threshold=threshold,
        gate=gate,
        gate_stats=stats,
        calibrated=calibrated,
        before=(before.pearson, before.spearman),
        after=(after.pearson, after.spearman),
    )


def dimension_means_by_producer(batch: Batch) -> list[tuple[str, str, float, int]]:
    """Mean normalized score per (producer, dimension); shows which models
    win on which dimension. Rows sorted by producer, then canonical order."""
    producers = np.array([s.producer_id for s in batch.samples], dtype=object)
    rows = []
    for producer in sorted(set(producers.tolist())):
        for dim, column in zip(CANONICAL_DIMENSIONS, batch.dims[producers == producer].T):
            values = column[~np.isnan(column)]
            if values.size:
                rows.append((producer, dim.value, math.fsum(values) / values.size, values.size))
    return rows


def calibrate_per_task(
    report: AuditReport,
    batch: Batch,
    base: WeightConfig = DEFAULT_WEIGHTS,
    threshold: float = 0.0,
    gate: str = "pearson",
) -> dict[str, CalibrationResult]:
    """Independent calibration within each task family, in the order of
    `report.by_task`; each task's gate statistics come from its block of
    `report`, audit(batch)'s result, as if that task were the whole dataset."""
    _, referenced, _, labels = _referenced(batch)
    out: dict[str, CalibrationResult] = {}
    for label, block in report.by_task.items():
        subset = referenced.rows(labels == label)  # every row referenced
        _referenced(subset, f"task {label!r}: calibration")  # refuses fewer than two
        task_report = AuditReport(block, {label: block}, len(subset))
        out[label] = calibrate(task_report, subset, base=base, threshold=threshold, gate=gate)
    return out
