"""Core value objects: dimensions, weights, samples, dataset validation."""

import math

import pytest

from conftest import make_sample
from mdqs.model import (
    CANONICAL_DIMENSIONS,
    DEFAULT_WEIGHTS,
    DimensionId,
    DimensionVector,
    EvaluatorProfile,
    TaskFamily,
    WeightConfig,
    parse_dimension,
    validate_dataset,
)


def test_canonical_dimension_order():
    assert [d.value for d in CANONICAL_DIMENSIONS] == [
        "model_prior",
        "cost_prior",
        "structure",
        "semantic",
        "alignment",
        "agreement",
    ]


def test_parse_dimension():
    assert parse_dimension("semantic") is DimensionId.SEMANTIC
    with pytest.raises(ValueError):
        parse_dimension("vibes")


def test_task_family_normalizes_label():
    assert TaskFamily(" QA ") == TaskFamily.QA
    assert TaskFamily("qa").is_qa
    assert TaskFamily("Summarization").is_summarization
    other = TaskFamily("translation")
    assert not other.is_qa and not other.is_summarization
    with pytest.raises(ValueError):
        TaskFamily("  ")


def test_dimension_vector_rejects_out_of_range_and_orders():
    for value in (1.7, -0.2):
        with pytest.raises(ValueError, match="semantic"):
            DimensionVector({DimensionId.STRUCTURE: 0.5, DimensionId.SEMANTIC: value})
    v = DimensionVector({DimensionId.SEMANTIC: 1.0, DimensionId.STRUCTURE: 0.0})
    assert v[DimensionId.SEMANTIC] == 1.0
    assert v[DimensionId.STRUCTURE] == 0.0
    # storage order is canonical regardless of construction order
    assert list(v.as_dict()) == [DimensionId.STRUCTURE, DimensionId.SEMANTIC]
    assert DimensionId.SEMANTIC in v
    assert DimensionId.ALIGNMENT not in v


def test_dimension_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        DimensionVector({DimensionId.SEMANTIC: float("nan")})
    with pytest.raises(ValueError):
        DimensionVector({DimensionId.SEMANTIC: float("inf")})
    with pytest.raises(ValueError):
        DimensionVector({})


def test_default_weights_values():
    w = DEFAULT_WEIGHTS.weights
    assert w[DimensionId.MODEL_PRIOR] == pytest.approx(0.15)
    assert w[DimensionId.COST_PRIOR] == pytest.approx(0.10)
    assert w[DimensionId.STRUCTURE] == pytest.approx(0.20)
    assert w[DimensionId.SEMANTIC] == pytest.approx(0.25)
    assert w[DimensionId.ALIGNMENT] == pytest.approx(0.15)
    assert w[DimensionId.AGREEMENT] == pytest.approx(0.15)
    assert math.fsum(w.values()) == pytest.approx(1.0, abs=1e-12)


def test_weight_config_normalizes():
    w = WeightConfig("lopsided", {DimensionId.SEMANTIC: 3.0, DimensionId.STRUCTURE: 1.0})
    assert w.weights[DimensionId.SEMANTIC] == pytest.approx(0.75)
    assert w.weights[DimensionId.STRUCTURE] == pytest.approx(0.25)
    assert math.fsum(w.weights.values()) == pytest.approx(1.0, abs=1e-12)
    assert w.dimensions() == frozenset({DimensionId.SEMANTIC, DimensionId.STRUCTURE})
    assert w[DimensionId.SEMANTIC] == pytest.approx(0.75)


def test_weight_config_rejects_bad_inputs():
    with pytest.raises(ValueError):
        WeightConfig("neg", {DimensionId.SEMANTIC: -1.0, DimensionId.STRUCTURE: 2.0})
    with pytest.raises(ValueError):
        WeightConfig("zero", {DimensionId.SEMANTIC: 0.0})
    with pytest.raises(ValueError):
        WeightConfig("nan", {DimensionId.SEMANTIC: float("nan")})
    with pytest.raises(ValueError):
        WeightConfig("empty", {})


def test_evaluator_profile_defaults_and_validation():
    p = EvaluatorProfile(evaluator_id="e1")
    assert p.cost == 1.0
    with pytest.raises(ValueError):
        EvaluatorProfile(evaluator_id="")
    with pytest.raises(ValueError):
        EvaluatorProfile(evaluator_id="e1", cost=-2.0)


def test_validate_dataset_clean():
    samples = [make_sample(sample_id=f"s{i}") for i in range(3)]
    report = validate_dataset(samples)
    assert report.ok
    assert report.valid_count == 3
    assert report.invalid_count == 0
    assert report.total == 3
    assert report.issues == ()


def test_validate_dataset_duplicate_ids():
    samples = [make_sample(sample_id="dup"), make_sample(sample_id="dup")]
    report = validate_dataset(samples)
    assert not report.ok
    assert any("duplicate" in issue.message.lower() for issue in report.issues)


def test_validate_dataset_non_finite_scores():
    bad = make_sample(sample_id="s0", evaluator_scores={"judge": float("nan")})
    report = validate_dataset([bad])
    assert not report.ok
    assert report.invalid_count == 1
    assert any(issue.fieldname.startswith("evaluator_scores") for issue in report.issues)


def test_validate_dataset_empty_identity_fields():
    assert not validate_dataset([make_sample(sample_id="")]).ok
    assert not validate_dataset([make_sample(sample_id="s0", producer_id=" ")]).ok


def test_validate_dataset_reports_every_issue():
    samples = [
        make_sample(sample_id="a", evaluator_scores={"j": float("inf")}),
        make_sample(sample_id="a"),
        make_sample(sample_id="c", reference_score=float("nan")),
    ]
    report = validate_dataset(samples)
    assert report.invalid_count == 3
    assert report.valid_count == 0
    assert len(report.issues) == 3


def test_sample_with_dimensions():
    s = make_sample(sample_id="s0")
    v = DimensionVector({DimensionId.SEMANTIC: 0.4})
    s2 = s.with_dimensions(v)
    assert s.dimension_scores is None
    assert s2.dimension_scores is v
    assert s2.sample_id == s.sample_id
