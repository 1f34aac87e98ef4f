"""Reliability audit, ablation grid, and threshold calibration."""

import math

import numpy as np
import pytest

from conftest import FIXTURES, make_sample, scored_sample
from mdqs.audit import (
    GATE_CHOICES,
    ablation_grid,
    audit,
    calibrate,
    calibrate_per_task,
    consensus_baselines,
    dimension_means_by_producer,
    with_composites,
)
from mdqs.composite import VARIANTS, variant
from mdqs.errors import (
    AllDimensionsRemoved,
    NoEvaluators,
    TooFewReferencedSamples,
)
from mdqs.io import build_scoring_config, ingest, load_config, resolve_weights
from mdqs.model import DEFAULT_WEIGHTS, DimensionId, WeightConfig
from mdqs.scoring import score_all
from mdqs.stats import pearson, spearman


def planted_batch(n=40, seed=5):
    """Samples whose dimensions track the reference with known polarity.

    semantic and structure follow the reference, alignment and agreement
    anti-follow it, the priors follow weakly.
    """
    rng = np.random.default_rng(seed)
    gt = rng.uniform(0.0, 1.0, size=n)
    samples = []
    for i in range(n):
        g = float(gt[i])
        noise = float(rng.uniform(-0.05, 0.05))
        dims = {
            "model_prior": min(1.0, max(0.0, 0.4 + 0.2 * g + 0.05 * float(rng.normal()))),
            "cost_prior": min(1.0, max(0.0, 0.4 + 0.2 * g + 0.05 * float(rng.normal()))),
            "structure": min(1.0, max(0.0, g + noise)),
            "semantic": g,
            "alignment": 1.0 - g,
            "agreement": min(1.0, max(0.0, 1.0 - g + noise)),
        }
        samples.append(
            scored_sample(i, task="qa" if i % 2 == 0 else "summarization", gt=g, dims=dims)
        )
    return samples


# ----------------------------------------------------------- baselines

def test_consensus_baselines_mean_median():
    samples = [
        make_sample(sample_id="s0", evaluator_scores={"a": 0.0, "b": 10.0, "c": 2.0}),
        make_sample(sample_id="s1", evaluator_scores={"a": 1.0, "b": 20.0, "c": 4.0}),
        make_sample(sample_id="s2", evaluator_scores={"a": 2.0, "b": 30.0, "c": 6.0}),
    ]
    out = consensus_baselines(samples)
    # each column min-max normalizes to [0, .5, 1], so mean == median == position
    assert out["s0"]["mean"] == pytest.approx(0.0)
    assert out["s1"]["mean"] == pytest.approx(0.5)
    assert out["s2"]["median"] == pytest.approx(1.0)


def test_consensus_baselines_need_evaluators():
    with pytest.raises(NoEvaluators):
        consensus_baselines([make_sample(sample_id="s0", evaluator_scores={})])


# --------------------------------------------------------------- audit

def test_audit_requires_two_referenced_samples():
    samples = [make_sample(sample_id="s0", reference_score=0.5)]
    with pytest.raises(TooFewReferencedSamples):
        audit(samples)


def test_audit_recovers_planted_polarity():
    report = audit(planted_batch())
    block = report.overall
    assert block.row("dimension", "semantic").pearson == 1.0
    assert block.row("dimension", "alignment").pearson == -1.0
    assert block.row("dimension", "structure").pearson > 0.9
    assert block.row("dimension", "agreement").pearson < -0.9
    assert 0.0 < block.row("dimension", "model_prior").pearson < 0.95
    # the "judge" column is the reference itself; "anti" is its mirror
    assert block.row("evaluator", "judge").pearson == 1.0
    assert block.row("evaluator", "anti").pearson == -1.0


def test_audit_row_counts_partition_by_task():
    samples = planted_batch(n=30)
    report = audit(samples)
    assert report.n_referenced == 30
    assert set(report.by_task) == {"qa", "summarization"}
    overall_n = report.overall.row("dimension", "semantic").n
    per_task_n = [b.row("dimension", "semantic").n for b in report.by_task.values()]
    assert overall_n == sum(per_task_n) == 30


def test_audit_task_block_order():
    samples = [
        scored_sample(0, task="translation", gt=0.1, dims={"semantic": 0.1}),
        scored_sample(1, task="summarization", gt=0.5, dims={"semantic": 0.5}),
        scored_sample(2, task="qa", gt=0.9, dims={"semantic": 0.9}),
        scored_sample(3, task="translation", gt=0.4, dims={"semantic": 0.4}),
        scored_sample(4, task="qa", gt=0.2, dims={"semantic": 0.2}),
    ]
    report = audit(samples)
    assert list(report.by_task) == ["qa", "summarization", "translation"]


def test_audit_single_sample_task_rows_undefined():
    samples = [
        scored_sample(0, task="qa", gt=0.1, dims={"semantic": 0.2}),
        scored_sample(1, task="qa", gt=0.9, dims={"semantic": 0.8}),
        scored_sample(2, task="translation", gt=0.5, dims={"semantic": 0.5}),
    ]
    report = audit(samples)
    lonely = report.by_task["translation"].row("dimension", "semantic")
    assert lonely.n == 1
    assert lonely.pearson is None
    assert lonely.spearman is None


def test_audit_constant_column_undefined():
    samples = [
        scored_sample(i, gt=i / 9.0, dims={"semantic": 0.5, "structure": i / 9.0})
        for i in range(10)
    ]
    report = audit(samples)
    row = report.overall.row("dimension", "semantic")
    assert row.pearson is None and row.spearman is None and row.n == 10
    assert report.overall.row("dimension", "structure").pearson == 1.0


def test_audit_skips_unreferenced_samples():
    samples = planted_batch(n=10)
    samples.append(make_sample(sample_id="extra", evaluator_scores={"judge": 0.5, "anti": 0.5}))
    report = audit(samples)
    assert report.n_referenced == 10
    assert report.overall.row("dimension", "semantic").n == 10


def test_audit_composite_rows():
    samples = planted_batch()
    report = with_composites(audit(samples), samples, {"default": DEFAULT_WEIGHTS})
    row = report.overall.row("composite", "default")
    assert row is not None
    assert row.n == len(samples)
    assert row.pearson is not None
    for block in (report.overall, *report.by_task.values()):
        assert block.rows[-1] == block.row("composite", "default")


def test_audit_ignores_dimensions_nobody_scored():
    samples = [
        scored_sample(0, gt=0.2, dims={"semantic": 0.1}),
        scored_sample(1, gt=0.8, dims={"semantic": 0.9}),
    ]
    report = audit(samples)
    assert report.overall.row("dimension", "structure") is None
    assert [r.name for r in report.overall.dimensions()] == ["semantic"]


# ------------------------------------------------------------- ablation

def test_ablation_grid_covers_requested_variants():
    samples = planted_batch()
    rows = ablation_grid(samples, VARIANTS)
    assert [r.name for r in rows] == list(VARIANTS)
    for r in rows:
        assert r.n == len(samples)


def test_ablation_semantic_only_matches_dimension_row():
    samples = planted_batch()
    report = audit(samples)
    rows = {r.name: r for r in ablation_grid(samples, VARIANTS)}
    dim_row = report.overall.row("dimension", "semantic")
    # identical input columns, so identical statistics, bit for bit
    assert rows["semantic_only"].pearson == dim_row.pearson
    assert rows["semantic_only"].spearman == dim_row.spearman


def test_ablation_matches_direct_computation():
    samples = planted_batch()
    refs = [s.reference_score for s in samples]
    weights = variant(DEFAULT_WEIGHTS, "no_priors")
    scores = [
        math.fsum(weights[d] * s.dimension_scores[d] for d in weights.dimensions())
        for s in samples
    ]
    rows = {r.name: r for r in ablation_grid(samples, ["no_priors"])}
    assert rows["no_priors"].pearson == pytest.approx(pearson(scores, refs), abs=1e-12)
    assert rows["no_priors"].spearman == pytest.approx(spearman(scores, refs), abs=1e-12)


def test_ablation_needs_references():
    with pytest.raises(TooFewReferencedSamples):
        ablation_grid([make_sample(sample_id="s0")], VARIANTS)


def test_composite_row_is_the_same_from_ablation_calibrate_and_audit():
    config = load_config(f"{FIXTURES}/replay_config.yaml")
    base = resolve_weights(config)
    raw = ingest(f"{FIXTURES}/replay_200.jsonl").samples
    samples, _ = score_all(raw, build_scoring_config(config, base))
    report = audit(samples)
    (grid,) = ablation_grid(samples, ["default"], base=base)
    before = calibrate(report, samples, base=base).before
    overall = with_composites(report, samples, {base.name: base}).overall.row("composite", base.name)
    assert grid.pearson is not None and grid.spearman is not None
    assert (grid.pearson, grid.spearman, grid.n) == (*before, report.n_referenced)
    assert (grid.pearson, grid.spearman, grid.n) == (overall.pearson, overall.spearman, overall.n)


# ------------------------------------------------------------ calibrate

def test_calibrate_removes_negative_dimensions():
    samples = planted_batch()
    result = calibrate(audit(samples), samples, threshold=0.0)
    assert result.removed == frozenset({DimensionId.ALIGNMENT, DimensionId.AGREEMENT})
    assert result.removed_names == ("alignment", "agreement")
    assert result.calibrated.dimensions() == frozenset(
        {
            DimensionId.MODEL_PRIOR,
            DimensionId.COST_PRIOR,
            DimensionId.STRUCTURE,
            DimensionId.SEMANTIC,
        }
    )


def test_calibrate_improves_composite_on_planted_data():
    samples = planted_batch()
    result = calibrate(audit(samples), samples, threshold=0.0)
    assert result.after[0] > result.before[0]


def test_calibrate_gate_stats_recorded():
    samples = planted_batch()
    result = calibrate(audit(samples), samples, threshold=0.0, gate="pearson")
    assert result.gate == "pearson"
    assert result.threshold == 0.0
    assert result.gate_stats[DimensionId.SEMANTIC] == 1.0
    assert result.gate_stats[DimensionId.ALIGNMENT] == -1.0


def test_calibrate_threshold_is_strict_less_than():
    # semantic sits exactly at pearson 1.0; threshold 1.0 must keep it
    samples = planted_batch()
    result = calibrate(audit(samples), samples, threshold=1.0)
    assert DimensionId.SEMANTIC not in result.removed
    assert DimensionId.STRUCTURE in result.removed


def test_calibrate_undefined_stat_removed():
    samples = [
        scored_sample(
            i,
            gt=i / 9.0,
            dims={"semantic": i / 9.0, "structure": 0.5},
        )
        for i in range(10)
    ]
    base = WeightConfig("pair", {DimensionId.SEMANTIC: 0.6, DimensionId.STRUCTURE: 0.4})
    result = calibrate(audit(samples), samples, base=base, threshold=-1.0)
    assert DimensionId.STRUCTURE in result.removed
    assert DimensionId.SEMANTIC not in result.removed


def test_calibrate_all_removed_raises():
    samples = planted_batch()
    with pytest.raises(AllDimensionsRemoved):
        calibrate(audit(samples), samples, threshold=2.0)


def test_calibrate_rejects_unknown_gate():
    assert GATE_CHOICES == ("pearson", "spearman", "taskwise_min")
    samples = planted_batch()
    with pytest.raises(ValueError):
        calibrate(audit(samples), samples, gate="kendall")


def test_calibrate_spearman_gate():
    samples = planted_batch()
    result = calibrate(audit(samples), samples, threshold=0.0, gate="spearman")
    assert result.removed == frozenset({DimensionId.ALIGNMENT, DimensionId.AGREEMENT})


def test_calibrate_taskwise_min_gate():
    # structure helps strongly on qa but tracks mildly negative on
    # summarization; taskwise_min removes it, the overall gate keeps it
    rng = np.random.default_rng(11)
    samples = []
    for i in range(40):
        g = float(rng.uniform(0, 1))
        task = "qa" if i % 2 == 0 else "summarization"
        structure = g if task == "qa" else 0.5 - 0.1 * (g - 0.5)
        dims = {"semantic": g, "structure": structure}
        samples.append(scored_sample(i, task=task, gt=g, dims=dims))
    base = WeightConfig("pair", {DimensionId.SEMANTIC: 0.6, DimensionId.STRUCTURE: 0.4})
    overall = calibrate(audit(samples), samples, base=base, threshold=0.0, gate="pearson")
    assert DimensionId.STRUCTURE not in overall.removed
    taskwise = calibrate(audit(samples), samples, base=base, threshold=0.0, gate="taskwise_min")
    assert DimensionId.STRUCTURE in taskwise.removed
    assert taskwise.gate_stats[DimensionId.STRUCTURE] == -1.0


def test_calibrate_idempotent_on_calibrated_weights():
    samples = planted_batch()
    first = calibrate(audit(samples), samples, threshold=0.0)
    second = calibrate(audit(samples), samples, base=first.calibrated, threshold=0.0)
    assert second.removed == frozenset()
    assert second.calibrated.weights == pytest.approx(first.calibrated.weights)


def test_calibrate_per_task_splits_independently():
    rng = np.random.default_rng(12)
    samples = []
    for i in range(40):
        g = float(rng.uniform(0, 1))
        task = "qa" if i % 2 == 0 else "summarization"
        structure = g if task == "qa" else 1.0 - g
        dims = {"semantic": g, "structure": structure}
        samples.append(scored_sample(i, task=task, gt=g, dims=dims))
    base = WeightConfig("pair", {DimensionId.SEMANTIC: 0.6, DimensionId.STRUCTURE: 0.4})
    per_task = calibrate_per_task(audit(samples), samples, base=base, threshold=0.0)
    assert set(per_task) == {"qa", "summarization"}
    assert DimensionId.STRUCTURE not in per_task["qa"].removed
    assert DimensionId.STRUCTURE in per_task["summarization"].removed


# ------------------------------------------------- producer breakdown

def test_dimension_means_by_producer():
    samples = [
        scored_sample(0, gt=0.5, dims={"semantic": 0.2, "structure": 0.4}, producer="m-b"),
        scored_sample(1, gt=0.5, dims={"semantic": 0.4, "structure": 0.6}, producer="m-b"),
        scored_sample(2, gt=0.5, dims={"semantic": 0.9}, producer="m-a"),
    ]
    rows = dimension_means_by_producer(samples)
    # sorted by producer, dimensions in canonical order within producer
    assert rows[0] == ("m-a", "semantic", pytest.approx(0.9), 1)
    assert rows[1] == ("m-b", "structure", pytest.approx(0.5), 2)
    assert rows[2] == ("m-b", "semantic", pytest.approx(0.3), 2)


def test_dimension_means_skips_unscored():
    rows = dimension_means_by_producer([make_sample(sample_id="s0")])
    assert rows == []
