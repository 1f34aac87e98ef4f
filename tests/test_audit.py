"""Reliability audit, ablation grid, and threshold calibration."""

import math
import statistics

import numpy as np
import pytest

from conftest import FIXTURES, batch, dim_matrix, make_sample, scored_sample
from mdqs.audit import (
    GATE_CHOICES,
    AuditBlock,
    AuditReport,
    CalibrationResult,
    CorrelationRow,
    ablation_grid,
    audit,
    calibrate,
    calibrate_per_task,
    consensus_baselines,
    dimension_means_by_producer,
    with_composites,
)
from mdqs.composite import VARIANTS, compose, compose_batch, variant
from mdqs.errors import (
    AllDimensionsRemoved,
    DimensionMismatch,
    MdqsError,
    NoEvaluators,
    SchemaError,
    TooFewEvaluators,
    TooFewReferencedSamples,
)
from mdqs.io import build_scoring_config, ingest, load_config, resolve_weights
from mdqs.model import (
    CANONICAL_DIMENSIONS,
    DEFAULT_WEIGHTS,
    DIMENSION_COLUMN,
    Batch,
    DimensionId,
    WeightConfig,
)
from mdqs.poq import ConsensusBaseline
from mdqs.scoring import ScoringConfig, _raw_column, score_all
from mdqs.stats import pearson, spearman


def planted_batch(n=40, seed=5):
    """Samples whose dimensions track the reference with known polarity.

    semantic and structure follow the reference, alignment and agreement
    anti-follow it, the priors follow weakly.
    """
    rng = np.random.default_rng(seed)
    gt = rng.uniform(0.0, 1.0, size=n)
    pairs = []
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
        pairs.append(
            scored_sample(i, task="qa" if i % 2 == 0 else "summarization", gt=g, dims=dims)
        )
    return batch(pairs)


# ----------------------------------------------------------- baselines

def test_consensus_baselines_mean_median():
    samples = [
        make_sample(sample_id="s0", evaluator_scores={"a": 0.0, "b": 10.0, "c": 2.0}),
        make_sample(sample_id="s1", evaluator_scores={"a": 1.0, "b": 20.0, "c": 4.0}),
        make_sample(sample_id="s2", evaluator_scores={"a": 2.0, "b": 30.0, "c": 6.0}),
    ]
    out = consensus_baselines(Batch(samples))
    # each column min-max normalizes to [0, .5, 1], so mean == median == position
    assert out["mean"][0] == pytest.approx(0.0)
    assert out["mean"][1] == pytest.approx(0.5)
    assert out["median"][2] == pytest.approx(1.0)


def test_consensus_baselines_need_evaluators():
    # a sample without scores has no baseline; the replay signal refuses it
    lone = Batch([make_sample(sample_id="s0", evaluator_scores={})])
    assert math.isnan(consensus_baselines(lone)["mean"][0])
    with pytest.raises(NoEvaluators):
        ConsensusBaseline("mean").values(lone, DEFAULT_WEIGHTS)


# --------------------------------------------------------------- audit

def test_audit_requires_two_referenced_samples():
    samples = [make_sample(sample_id="s0", reference_score=0.5)]
    with pytest.raises(TooFewReferencedSamples):
        audit(Batch(samples, dim_matrix([None])))


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
    report = audit(planted_batch(n=30))
    assert report.n_referenced == 30
    assert set(report.by_task) == {"qa", "summarization"}
    overall_n = report.overall.row("dimension", "semantic").n
    per_task_n = [b.row("dimension", "semantic").n for b in report.by_task.values()]
    assert overall_n == sum(per_task_n) == 30


def test_audit_task_block_order():
    scored = batch([
        scored_sample(0, task="translation", gt=0.1, dims={"semantic": 0.1}),
        scored_sample(1, task="summarization", gt=0.5, dims={"semantic": 0.5}),
        scored_sample(2, task="qa", gt=0.9, dims={"semantic": 0.9}),
        scored_sample(3, task="translation", gt=0.4, dims={"semantic": 0.4}),
        scored_sample(4, task="qa", gt=0.2, dims={"semantic": 0.2}),
    ])
    report = audit(scored)
    assert list(report.by_task) == ["qa", "summarization", "translation"]


def test_audit_single_sample_task_rows_undefined():
    scored = batch([
        scored_sample(0, task="qa", gt=0.1, dims={"semantic": 0.2}),
        scored_sample(1, task="qa", gt=0.9, dims={"semantic": 0.8}),
        scored_sample(2, task="translation", gt=0.5, dims={"semantic": 0.5}),
    ])
    report = audit(scored)
    lonely = report.by_task["translation"].row("dimension", "semantic")
    assert lonely.n == 1
    assert lonely.pearson is None
    assert lonely.spearman is None


def test_audit_constant_column_undefined():
    scored = batch(
        scored_sample(i, gt=i / 9.0, dims={"semantic": 0.5, "structure": i / 9.0})
        for i in range(10)
    )
    report = audit(scored)
    row = report.overall.row("dimension", "semantic")
    assert row.pearson is None and row.spearman is None and row.n == 10
    assert report.overall.row("dimension", "structure").pearson == 1.0


def test_audit_skips_unreferenced_samples():
    scored = planted_batch(n=10)
    extra = make_sample(sample_id="extra", evaluator_scores={"judge": 0.5, "anti": 0.5})
    report = audit(Batch([*scored.samples, extra], np.vstack([scored.dims, dim_matrix([None])])))
    assert report.n_referenced == 10
    assert report.overall.row("dimension", "semantic").n == 10


def test_audit_refuses_a_repeated_sample_id():
    scored = planted_batch(n=6)
    with pytest.raises(SchemaError, match="duplicate sample_id 's0000'"):
        repeated = [*scored.samples, scored.samples[0]]
        audit(Batch(repeated, np.vstack([scored.dims, scored.dims[:1]])))


def test_audit_composite_rows():
    scored = planted_batch()
    report = with_composites(audit(scored), scored, {"default": DEFAULT_WEIGHTS})
    row = report.overall.row("composite", "default")
    assert row is not None
    assert row.n == len(scored)
    assert row.pearson is not None
    for block in (report.overall, *report.by_task.values()):
        assert block.rows[-1] == block.row("composite", "default")


def test_audit_ignores_dimensions_nobody_scored():
    report = audit(batch([
        scored_sample(0, gt=0.2, dims={"semantic": 0.1}),
        scored_sample(1, gt=0.8, dims={"semantic": 0.9}),
    ]))
    assert report.overall.row("dimension", "structure") is None
    assert [r.name for r in report.overall.dimensions()] == ["semantic"]


# ------------------------------------------------------------- ablation

def test_ablation_grid_covers_requested_variants():
    scored = planted_batch()
    rows = ablation_grid(scored, VARIANTS)
    assert [r.name for r in rows] == list(VARIANTS)
    for r in rows:
        assert r.n == len(scored)


def test_ablation_semantic_only_matches_dimension_row():
    scored = planted_batch()
    report = audit(scored)
    rows = {r.name: r for r in ablation_grid(scored, VARIANTS)}
    dim_row = report.overall.row("dimension", "semantic")
    # identical input columns, so identical statistics, bit for bit
    assert rows["semantic_only"].pearson == dim_row.pearson
    assert rows["semantic_only"].spearman == dim_row.spearman


def test_ablation_matches_direct_computation():
    scored = planted_batch()
    refs = [s.reference_score for s in scored.samples]
    weights = variant(DEFAULT_WEIGHTS, "no_priors")
    scores = [
        math.fsum(weights[d] * row[DIMENSION_COLUMN[d]] for d in weights.dimensions())
        for row in scored.dims
    ]
    rows = {r.name: r for r in ablation_grid(scored, ["no_priors"])}
    assert rows["no_priors"].pearson == pytest.approx(pearson(scores, refs), abs=1e-12)
    assert rows["no_priors"].spearman == pytest.approx(spearman(scores, refs), abs=1e-12)


def test_ablation_needs_references():
    with pytest.raises(TooFewReferencedSamples):
        ablation_grid(Batch([make_sample(sample_id="s0")]), VARIANTS)


def test_composite_row_is_the_same_from_ablation_calibrate_and_audit():
    config = load_config(f"{FIXTURES}/replay_config.yaml")
    base = resolve_weights(config)
    logged = ingest(f"{FIXTURES}/replay_200.jsonl").samples
    scored, _ = score_all(logged, build_scoring_config(config, base))
    report = audit(scored)
    (grid,) = ablation_grid(scored, ["default"], base=base)
    before = calibrate(report, scored, base=base).before
    composites = with_composites(report, scored, {base.name: base})
    overall = composites.overall.row("composite", base.name)
    assert grid.pearson is not None and grid.spearman is not None
    assert (grid.pearson, grid.spearman, grid.n) == (*before, report.n_referenced)
    assert (grid.pearson, grid.spearman, grid.n) == (overall.pearson, overall.spearman, overall.n)


# ------------------------------------------------------------ calibrate

def test_calibrate_removes_negative_dimensions():
    scored = planted_batch()
    result = calibrate(audit(scored), scored, threshold=0.0)
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
    scored = planted_batch()
    result = calibrate(audit(scored), scored, threshold=0.0)
    assert result.after[0] > result.before[0]


def test_calibrate_gate_stats_recorded():
    scored = planted_batch()
    result = calibrate(audit(scored), scored, threshold=0.0, gate="pearson")
    assert result.gate == "pearson"
    assert result.threshold == 0.0
    assert result.gate_stats[DimensionId.SEMANTIC] == 1.0
    assert result.gate_stats[DimensionId.ALIGNMENT] == -1.0


def test_calibrate_threshold_is_strict_less_than():
    # semantic sits exactly at pearson 1.0; threshold 1.0 must keep it
    scored = planted_batch()
    result = calibrate(audit(scored), scored, threshold=1.0)
    assert DimensionId.SEMANTIC not in result.removed
    assert DimensionId.STRUCTURE in result.removed


def test_calibrate_undefined_stat_removed():
    scored = batch(
        scored_sample(
            i,
            gt=i / 9.0,
            dims={"semantic": i / 9.0, "structure": 0.5},
        )
        for i in range(10)
    )
    base = WeightConfig("pair", {DimensionId.SEMANTIC: 0.6, DimensionId.STRUCTURE: 0.4})
    result = calibrate(audit(scored), scored, base=base, threshold=-1.0)
    assert DimensionId.STRUCTURE in result.removed
    assert DimensionId.SEMANTIC not in result.removed


def test_calibrate_all_removed_raises():
    scored = planted_batch()
    with pytest.raises(AllDimensionsRemoved):
        calibrate(audit(scored), scored, threshold=2.0)


def test_calibrate_rejects_unknown_gate():
    assert GATE_CHOICES == ("pearson", "spearman", "taskwise_min")
    scored = planted_batch()
    with pytest.raises(ValueError):
        calibrate(audit(scored), scored, gate="kendall")


def test_calibrate_spearman_gate():
    scored = planted_batch()
    result = calibrate(audit(scored), scored, threshold=0.0, gate="spearman")
    assert result.removed == frozenset({DimensionId.ALIGNMENT, DimensionId.AGREEMENT})


def test_calibrate_taskwise_min_gate():
    # structure helps strongly on qa but tracks mildly negative on
    # summarization; taskwise_min removes it, the overall gate keeps it
    rng = np.random.default_rng(11)
    pairs = []
    for i in range(40):
        g = float(rng.uniform(0, 1))
        task = "qa" if i % 2 == 0 else "summarization"
        structure = g if task == "qa" else 0.5 - 0.1 * (g - 0.5)
        dims = {"semantic": g, "structure": structure}
        pairs.append(scored_sample(i, task=task, gt=g, dims=dims))
    scored = batch(pairs)
    base = WeightConfig("pair", {DimensionId.SEMANTIC: 0.6, DimensionId.STRUCTURE: 0.4})
    report = audit(scored)
    overall = calibrate(report, scored, base=base, threshold=0.0, gate="pearson")
    assert DimensionId.STRUCTURE not in overall.removed
    taskwise = calibrate(report, scored, base=base, threshold=0.0, gate="taskwise_min")
    assert DimensionId.STRUCTURE in taskwise.removed
    assert taskwise.gate_stats[DimensionId.STRUCTURE] == -1.0


def test_calibrate_idempotent_on_calibrated_weights():
    scored = planted_batch()
    report = audit(scored)
    first = calibrate(report, scored, threshold=0.0)
    second = calibrate(report, scored, base=first.calibrated, threshold=0.0)
    assert second.removed == frozenset()
    assert second.calibrated.weights == pytest.approx(first.calibrated.weights)


def test_calibrate_per_task_splits_independently():
    rng = np.random.default_rng(12)
    pairs = []
    for i in range(40):
        g = float(rng.uniform(0, 1))
        task = "qa" if i % 2 == 0 else "summarization"
        structure = g if task == "qa" else 1.0 - g
        dims = {"semantic": g, "structure": structure}
        pairs.append(scored_sample(i, task=task, gt=g, dims=dims))
    scored = batch(pairs)
    base = WeightConfig("pair", {DimensionId.SEMANTIC: 0.6, DimensionId.STRUCTURE: 0.4})
    per_task = calibrate_per_task(audit(scored), scored, base=base, threshold=0.0)
    assert set(per_task) == {"qa", "summarization"}
    assert DimensionId.STRUCTURE not in per_task["qa"].removed
    assert DimensionId.STRUCTURE in per_task["summarization"].removed


# ------------------------------------------------- producer breakdown

def test_dimension_means_by_producer():
    rows = dimension_means_by_producer(batch([
        scored_sample(0, gt=0.5, dims={"semantic": 0.2, "structure": 0.4}, producer="m-b"),
        scored_sample(1, gt=0.5, dims={"semantic": 0.4, "structure": 0.6}, producer="m-b"),
        scored_sample(2, gt=0.5, dims={"semantic": 0.9}, producer="m-a"),
    ]))
    # sorted by producer, dimensions in canonical order within producer
    assert rows[0] == ("m-a", "semantic", pytest.approx(0.9), 1)
    assert rows[1] == ("m-b", "structure", pytest.approx(0.5), 2)
    assert rows[2] == ("m-b", "semantic", pytest.approx(0.3), 2)


def test_dimension_means_skips_unscored():
    rows = dimension_means_by_producer(Batch([make_sample(sample_id="s0")]))
    assert rows == []


# ------------------------------------------------ column-path oracle
#
# The audit layer's previous per-sample implementation, kept as the reference:
# every row, float and error of the column path must match it. It reads each
# sample's scores as a {dimension: score} map made from its row of dims.


def _ref_scores(dims):
    """Each row of dims as a {dimension: score} map, None for an all-NaN row."""
    rows = [{d: v for d, v in zip(CANONICAL_DIMENSIONS, row) if v == v} for row in dims.tolist()]
    return [row or None for row in rows]


def _ref_weighted_sum(scores, weights):
    return min(1.0, max(0.0, math.fsum(w * scores[d] for d, w in weights.weights.items())))


def _ref_compose_batch(samples, dims, weights):
    out = []
    wanted = weights.dimensions()
    for sample, scores in zip(samples, _ref_scores(dims)):
        if scores is None:
            raise SchemaError(f"sample {sample.sample_id!r} has no dimension scores; run score first")
        if not scores.keys() >= wanted:
            raise DimensionMismatch(scores.keys(), wanted)
        out.append(_ref_weighted_sum(scores, weights))
    return out


def _ref_correlation_row(kind, name, xs, samples):
    if len(xs) < 2:
        return CorrelationRow(kind=kind, name=name, pearson=None, spearman=None, n=len(xs))
    ys = [s.reference_score for s in samples]
    return CorrelationRow(
        kind=kind, name=name, pearson=pearson(xs, ys), spearman=spearman(xs, ys), n=len(xs)
    )


def _ref_referenced(samples, dims, what):
    keep = [s.reference_score is not None for s in samples]
    referenced = [s for s, kept in zip(samples, keep) if kept]
    if len(referenced) < 2:
        raise TooFewReferencedSamples(
            f"{what} needs >= 2 samples with a reference score, got {len(referenced)}"
        )
    return referenced, dims[keep]


def _ref_normalized_by_id(samples):
    """{sample_id: {evaluator: score}}, each evaluator's scores min-max
    normalized over the samples it scores, as the dict-keyed code did."""
    columns = {}
    for s in samples:
        for evaluator, score in s.evaluator_scores.items():
            columns.setdefault(evaluator, {})[s.sample_id] = score
    normalized = {s.sample_id: {} for s in samples}
    for evaluator, column in columns.items():
        lo, hi = min(column.values()), max(column.values())
        for sample_id, score in column.items():
            z = 0.5 if hi == lo else (score / 2 - lo / 2) / (hi / 2 - lo / 2)
            normalized[sample_id][evaluator] = z
    return normalized


def _ref_consensus_baselines(samples):
    normalized = _ref_normalized_by_id(samples)
    out = {}
    for s in samples:
        values = list(normalized[s.sample_id].values())
        if not values:
            raise NoEvaluators(s.sample_id)
        out[s.sample_id] = {
            "mean": math.fsum(values) / len(values),
            "median": float(statistics.median(values)),
        }
    return out


def _ref_agreement(samples):
    normalized = _ref_normalized_by_id(samples)
    out = []
    for s in samples:
        values = list(normalized[s.sample_id].values())
        if len(values) < 2:
            raise TooFewEvaluators(s.sample_id, len(values))
        mean = math.fsum(values) / len(values)
        sd = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))
        out.append(min(1.0, max(0.0, 1.0 - sd / 0.5)))
    return out


def _ref_block(label, samples, dims, baselines):
    rows = []

    for dim in CANONICAL_DIMENSIONS:
        pairs = [
            (s, v) for s, v in zip(samples, _ref_scores(dims)) if v is not None and dim in v
        ]
        if pairs:
            xs = [v[dim] for _, v in pairs]
            rows.append(_ref_correlation_row("dimension", dim.value, xs, [s for s, _ in pairs]))

    for evaluator in sorted({e for s in samples for e in s.evaluator_scores}):
        scored = [s for s in samples if evaluator in s.evaluator_scores]
        xs = [s.evaluator_scores[evaluator] for s in scored]
        rows.append(_ref_correlation_row("evaluator", evaluator, xs, scored))

    with_scores = [s for s in samples if s.evaluator_scores]
    for stat in ("mean", "median"):
        xs = [baselines[s.sample_id][stat] for s in with_scores]
        rows.append(_ref_correlation_row("baseline", stat, xs, with_scores))

    return AuditBlock(label=label, rows=tuple(rows))


def _ref_audit(samples, dims):
    all_samples = list(samples)
    referenced, rows = _ref_referenced(all_samples, dims, "audit")
    baselines = _ref_consensus_baselines([s for s in all_samples if s.evaluator_scores])

    overall = _ref_block("overall", referenced, rows, baselines)

    first_seen = dict.fromkeys(s.task for s in referenced)
    task_order = sorted(first_seen, key=lambda t: {"qa": 0, "summarization": 1}.get(t, 2))
    by_task = {}
    for label in task_order:
        in_task = [s.task == label for s in referenced]
        subset = [s for s, kept in zip(referenced, in_task) if kept]
        by_task[label] = _ref_block(label, subset, rows[in_task], baselines)
    return AuditReport(overall=overall, by_task=by_task, n_referenced=len(referenced))


def _ref_with_composites(report, samples, dims, composites):
    scores = _ref_scores(dims)
    referenced = [i for i, s in enumerate(samples) if s.reference_score is not None]
    overall = list(report.overall.rows)
    by_task = {label: list(block.rows) for label, block in report.by_task.items()}
    for name, weights in composites.items():
        wanted = weights.dimensions()
        kept = [i for i in referenced if scores[i] is not None and scores[i].keys() >= wanted]
        scorable = [samples[i] for i in kept]
        column = _ref_compose_batch(scorable, dims[kept], weights)
        overall.append(_ref_correlation_row("composite", name, column, scorable))
        for label, rows in by_task.items():
            in_task = [i for i, s in enumerate(scorable) if s.task == label]
            rows.append(
                _ref_correlation_row(
                    "composite", name, [column[i] for i in in_task], [scorable[i] for i in in_task]
                )
            )
    return AuditReport(
        AuditBlock(report.overall.label, tuple(overall)),
        {label: AuditBlock(label, tuple(rows)) for label, rows in by_task.items()},
        report.n_referenced,
    )


def _ref_ablation_grid(samples, dims, names, base=DEFAULT_WEIGHTS):
    referenced, rows = _ref_referenced(samples, dims, "ablation")
    return [
        _ref_correlation_row(
            "composite", name, _ref_compose_batch(referenced, rows, variant(base, name)), referenced
        )
        for name in names
    ]


def _ref_gate_stats(report, dims, gate):
    stats = {}
    for dim in dims:
        if gate == "taskwise_min":
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


def _ref_calibrate(report, samples, dims, base=DEFAULT_WEIGHTS, threshold=0.0, gate="pearson"):
    if gate not in GATE_CHOICES:
        raise ValueError(f"gate must be one of {GATE_CHOICES}, got {gate!r}")
    weighted = [d for d in CANONICAL_DIMENSIONS if d in base.dimensions()]
    stats = _ref_gate_stats(report, weighted, gate)
    removed = frozenset(
        d for d in weighted if stats[d] is None or stats[d] < threshold
    )
    if removed == frozenset(weighted):
        raise AllDimensionsRemoved(
            f"threshold {threshold} removes every dimension under gate {gate!r}"
        )
    calibrated = WeightConfig("calibrated", {d: base[d] for d in weighted if d not in removed})

    referenced, rows = _ref_referenced(samples, dims, "calibration")
    before, after = (
        _ref_correlation_row(
            "composite", w.name, _ref_compose_batch(referenced, rows, w), referenced
        )
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


def _ref_calibrate_per_task(
    report, samples, dims, base=DEFAULT_WEIGHTS, threshold=0.0, gate="pearson"
):
    keep = [s.reference_score is not None for s in samples]
    referenced = [s for s, kept in zip(samples, keep) if kept]
    dims = dims[keep]
    labels = list(report.by_task)
    out = {}
    for label in labels:
        in_task = [s.task == label for s in referenced]
        subset, rows = _ref_referenced(
            [s for s, kept in zip(referenced, in_task) if kept],
            dims[in_task],
            f"task {label!r}: calibration",
        )
        block = report.by_task[label]
        task_report = AuditReport(block, {label: block}, len(subset))
        out[label] = _ref_calibrate(
            task_report, subset, rows, base=base, threshold=threshold, gate=gate
        )
    return out


def _ref_dimension_means_by_producer(samples, dims):
    sums = {}
    for s, scores in zip(samples, _ref_scores(dims)):
        if scores is None:
            continue
        for dim, value in scores.items():
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


def _outcome(fn, *args, **kwargs):
    """repr of the result (dataclass and container reprs spell every float
    with repr, and show row and key order), or the error's type and text."""
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:  # compared with the reference's, not hidden
        return f"{type(exc).__name__}: {exc}"


_SCORE_GRID = (0.0, -0.0, 1.0, 0.5, 0.25, 0.1, 0.7)

# normalized, these weights fsum to 1.0000000000000002: an all-ones row needs the clip
_ABOVE_ONE_WEIGHTS = (
    0.49326104275013793, 0.8626489777797094, 0.15417959616284405,
    0.5014295859466933, 0.794983493746024, 0.0771069862639161,
)
_ABOVE_ONE = WeightConfig("above_one", dict(zip(CANONICAL_DIMENSIONS, _ABOVE_ONE_WEIGHTS)))


def _oracle_batch(rng) -> Batch:
    """A seeded batch mixing what the audit layer has to handle: samples
    with every, some or no dimensions, with and without evaluator scores or
    a reference, three tasks plus an occasional one-sample task, and
    constant or signed-zero columns."""
    n = int(rng.integers(0, 28))
    full = rng.random() < 0.5  # every sample carries every dimension
    constant = {d: float(rng.choice(_SCORE_GRID)) for d in CANONICAL_DIMENSIONS}
    constant = {d: v for d, v in constant.items() if rng.random() < 0.2}
    if rng.random() < 0.1:
        constant = dict.fromkeys(CANONICAL_DIMENSIONS, 1.0)
    evaluators = [e for e in ("e1", "e2", "e3") if rng.random() < 0.7]
    tasks = ["qa", "summarization", "translation"][: int(rng.integers(1, 4))]
    pairs = []
    for i in range(n):
        dims = None
        if full or rng.random() < 0.85:
            dims = {}
            for d in CANONICAL_DIMENSIONS:
                if full or rng.random() < 0.8:
                    grid = rng.random() < 0.3
                    value = float(rng.choice(_SCORE_GRID)) if grid else float(rng.random())
                    dims[d.value] = constant.get(d, value)
            dims = dims or None
        task = "rare" if i == n - 1 and rng.random() < 0.3 else str(rng.choice(tasks))
        sample = make_sample(
            sample_id=f"s{i:03d}",
            task=task,
            producer_id=f"m{int(rng.integers(0, 3))}",
            evaluator_scores={
                e: float(rng.normal(0.0, 3.0)) for e in evaluators if rng.random() < 0.8
            },
            reference_score=float(rng.random()) if rng.random() < 0.8 else None,
        )
        pairs.append((sample, dims))
    return batch(pairs)


def _evaluator_batch(rng) -> list:
    """A seeded batch whose evaluators first appear in reverse-sorted order,
    where some samples carry one evaluator or none, and whose scores tie and
    hold both signed zeros."""
    evaluators = ["e4", "e3", "e2", "e1", "e0"][: int(rng.integers(1, 6))]
    pool = (0.0, -0.0, 1.0, -1.0, 2.5)
    samples = []
    for i in range(int(rng.integers(2, 16))):
        carried = evaluators if i == 0 else [e for e in evaluators if rng.random() < 0.7]
        if i and rng.random() < 0.3:
            carried = carried[: int(rng.integers(0, 2))]
        scores = {
            e: float(rng.choice(pool)) if rng.random() < 0.5 else float(rng.normal(0.0, 3.0))
            for e in carried
        }
        samples.append(
            make_sample(
                sample_id=f"s{i:03d}",
                task=str(rng.choice(["qa", "summarization"])),
                evaluator_scores=scores,
                reference_score=float(rng.random()) if rng.random() < 0.8 else None,
            )
        )
    return samples


def _assert_evaluator_statistics_match(samples):
    """Agreement and both consensus baselines, bit for bit, against the
    dict-keyed reference."""
    scored = [s for s in samples if s.evaluator_scores]
    got, want = consensus_baselines(Batch(scored)), _ref_consensus_baselines(scored)
    for stat in ("mean", "median"):
        assert [v.hex() for v in got[stat]] == [want[s.sample_id][stat].hex() for s in scored]
    pairs = [s for s in samples if len(s.evaluator_scores) >= 2]
    got = _raw_column(DimensionId.AGREEMENT, Batch(pairs), ScoringConfig())
    assert [v.hex() for v in got] == [v.hex() for v in _ref_agreement(pairs)]


def _oracle_weights(rng) -> WeightConfig:
    if rng.random() < 0.4:
        return DEFAULT_WEIGHTS
    dims = [d for d in CANONICAL_DIMENSIONS if rng.random() < 0.6] or [DimensionId.SEMANTIC]
    return WeightConfig("picked", {d: float(rng.integers(1, 5)) for d in dims})


@pytest.mark.parametrize("seed", range(6))
def test_column_path_matches_per_sample_reference(seed):
    assert math.fsum(_ABOVE_ONE.weights.values()) > 1.0
    rng = np.random.default_rng([seed, 15])
    evaluator_rng = np.random.default_rng([seed, 25])
    for _ in range(20):
        samples = _evaluator_batch(evaluator_rng)
        dims = dim_matrix([None] * len(samples))
        _assert_evaluator_statistics_match(samples)
        assert _outcome(audit, Batch(samples, dims)) == _outcome(_ref_audit, samples, dims)
    for _ in range(40):
        scored = _oracle_batch(rng)
        samples, dims = scored.samples, scored.dims
        _assert_evaluator_statistics_match(samples)
        base = _oracle_weights(rng)
        for weights in (base, DEFAULT_WEIGHTS, variant(DEFAULT_WEIGHTS, "no_priors"), _ABOVE_ONE):
            assert _outcome(compose_batch, scored, weights) == _outcome(
                _ref_compose_batch, samples, dims, weights
            )
        for scores in _ref_scores(dims):
            if scores is not None and scores.keys() == DEFAULT_WEIGHTS.dimensions():
                for weights in (DEFAULT_WEIGHTS, _ABOVE_ONE):
                    expected = _ref_weighted_sum(scores, weights)
                    assert repr(compose(scores, weights)) == repr(expected)
        assert _outcome(dimension_means_by_producer, scored) == _outcome(
            _ref_dimension_means_by_producer, samples, dims
        )
        assert _outcome(ablation_grid, scored, VARIANTS, base) == _outcome(
            _ref_ablation_grid, samples, dims, VARIANTS, base
        )
        assert _outcome(audit, scored) == _outcome(_ref_audit, samples, dims)
        try:
            report = audit(scored)
        except MdqsError:
            continue
        composites = {
            "base": base,
            "above_one": _ABOVE_ONE,
            "semantic": variant(DEFAULT_WEIGHTS, "semantic_only"),
        }
        assert _outcome(with_composites, report, scored, composites) == _outcome(
            _ref_with_composites, report, samples, dims, composites
        )
        for gate in GATE_CHOICES:
            threshold = float(rng.choice([-1.0, 0.0, 0.3]))
            pairs = ((calibrate, _ref_calibrate), (calibrate_per_task, _ref_calibrate_per_task))
            for new, ref in pairs:
                assert _outcome(new, report, scored, base, threshold, gate) == _outcome(
                    ref, report, samples, dims, base, threshold, gate
                )
