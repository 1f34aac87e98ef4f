"""Core value objects: dimensions, weights, samples, dataset validation."""

import math
import random

import numpy as np
import pytest

from conftest import make_sample
from mdqs.composite import dimension_matrix
from mdqs.model import (
    CANONICAL_DIMENSIONS,
    DEFAULT_WEIGHTS,
    DimensionId,
    DimensionVector,
    EvaluatorProfile,
    TaskFamily,
    WeightConfig,
    parse_dimension,
)
from mdqs.scoring import ScoringConfig, validate_dataset


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
    assert TaskFamily(" QA ") == TaskFamily("qa")
    assert TaskFamily(" QA ").label == "qa"
    assert TaskFamily("Summarization").label == "summarization"
    other = TaskFamily("translation")
    assert other.label == "translation" and other != TaskFamily("qa")
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
    assert list(v.values) == [DimensionId.STRUCTURE, DimensionId.SEMANTIC]
    assert v.row == (None, None, 0.0, 1.0, None, None)
    assert DimensionId.SEMANTIC in v
    assert DimensionId.ALIGNMENT not in v
    assert "semantic" not in v
    with pytest.raises(KeyError):
        v[DimensionId.ALIGNMENT]


@pytest.mark.parametrize("seed", range(4))
def test_dimension_vector_from_a_mapping_equals_its_canonical_row(seed):
    rng = random.Random(seed)
    for _ in range(200):
        present = [d for d in CANONICAL_DIMENSIONS if rng.random() < 0.6] or [DimensionId.SEMANTIC]
        scores = {d: rng.choice([0.0, 1.0, 5e-324, rng.random()]) for d in present}
        row = tuple(scores.get(d) for d in CANONICAL_DIMENSIONS)
        shuffled = list(scores.items())
        rng.shuffle(shuffled)
        from_mapping = DimensionVector(dict(shuffled))
        from_row = DimensionVector(row)
        assert from_mapping == from_row
        assert hash(from_mapping) == hash(from_row)
        assert from_mapping.row == row
        assert list(from_mapping.values) == present
        assert list(from_mapping.values.values()) == [scores[d] for d in present]
        assert from_mapping.keys() == frozenset(present)


def test_dimension_vector_rejects_bad_input():
    for bad in (float("nan"), float("inf"), float("-inf"), 1.5, -0.1):
        with pytest.raises(ValueError, match="semantic"):
            DimensionVector({DimensionId.SEMANTIC: bad})
        with pytest.raises(ValueError, match="semantic"):
            DimensionVector((None, None, None, bad, None, None))
    for empty in ({}, (None,) * 6, (), (0.5,) * 5, (0.5,) * 7):
        with pytest.raises(ValueError, match="6 entries, not all None"):
            DimensionVector(empty)
    with pytest.raises(ValueError, match="DimensionId"):
        DimensionVector({"semantic": 0.5})
    with pytest.raises(ValueError, match="DimensionId"):
        DimensionVector({DimensionId.SEMANTIC: 0.5, 3: 0.5})


def _ref_dimension_matrix(vectors) -> np.ndarray:
    """The dict.get loop dimension_matrix replaced."""
    flat = []
    for vector in vectors:
        values = {} if vector is None else vector.values
        flat.extend([values.get(d, math.nan) for d in CANONICAL_DIMENSIONS])
    return np.array(flat, dtype=np.float64).reshape(-1, len(CANONICAL_DIMENSIONS))


def _cells(matrix: np.ndarray) -> list[list[str]]:
    return [["nan" if math.isnan(x) else float.hex(x) for x in row] for row in matrix.tolist()]


@pytest.mark.parametrize("seed", range(4))
def test_dimension_matrix_matches_the_dict_lookup_reference(seed):
    rng = random.Random(seed)
    vectors = []
    for _ in range(300):
        if rng.random() < 0.1:
            vectors.append(None)
            continue
        present = [d for d in CANONICAL_DIMENSIONS if rng.random() < 0.7] or [DimensionId.AGREEMENT]
        vectors.append(
            DimensionVector({d: rng.choice([0.0, 1.0, 5e-324, rng.random()]) for d in present})
        )
    matrix = dimension_matrix(vectors)
    assert matrix.shape == (300, 6) and matrix.dtype == np.float64
    assert _cells(matrix) == _cells(_ref_dimension_matrix(vectors))
    assert dimension_matrix([]).shape == (0, 6)


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


def test_sample_rejects_non_finite_scores():
    with pytest.raises(ValueError, match="evaluator_scores.judge"):
        make_sample(sample_id="s0", evaluator_scores={"judge": float("nan")})
    with pytest.raises(ValueError, match="evaluator_scores.j must be finite"):
        make_sample(sample_id="a", evaluator_scores={"j": float("inf")})
    with pytest.raises(ValueError, match="reference_score"):
        make_sample(sample_id="c", reference_score=float("nan"))


def test_sample_rejects_blank_identity_fields():
    with pytest.raises(ValueError, match="sample_id"):
        make_sample(sample_id="")
    with pytest.raises(ValueError, match="producer_id"):
        make_sample(sample_id="s0", producer_id=" ")
    with pytest.raises(ValueError, match="output"):
        make_sample(sample_id="s0", output=None)


def test_validate_dataset_reports_every_issue():
    samples = [
        make_sample(sample_id="a", reference_text="r", evaluator_scores={"j": 0.5}),
        make_sample(sample_id="a", reference_text="r", evaluator_scores={"j": 0.5, "k": 0.1}),
        make_sample(sample_id="c", evaluator_scores={"j": 0.5, "k": 0.1}),
    ]
    weights = WeightConfig("w", {DimensionId.SEMANTIC: 1.0, DimensionId.AGREEMENT: 1.0})
    report = validate_dataset(samples, ScoringConfig(weights=weights))
    assert report.invalid_count == 3
    assert report.valid_count == 0
    assert len(report.issues) == 3
    assert [i.fieldname for i in report.issues] == [
        "evaluator_scores", "sample_id", "reference_text"
    ]


def test_sample_with_dimensions():
    s = make_sample(sample_id="s0")
    v = DimensionVector({DimensionId.SEMANTIC: 0.4})
    s2 = s.with_dimensions(v)
    assert s.dimension_scores is None
    assert s2.dimension_scores is v
    assert s2.sample_id == s.sample_id
