"""Weighted composite and the ablation variant catalog."""

import math

import numpy as np
import pytest

from conftest import make_sample
from mdqs.composite import VARIANTS, compose, compose_batch, variant
from mdqs.errors import AllDimensionsRemoved, DimensionMismatch, SchemaError
from mdqs.model import (
    CANONICAL_DIMENSIONS,
    DEFAULT_WEIGHTS,
    DimensionId,
    DimensionVector,
    WeightConfig,
)


def unit_vector(dim):
    return DimensionVector({d: (1.0 if d is dim else 0.0) for d in CANONICAL_DIMENSIONS})


def test_unit_vectors_recover_default_weights():
    expected = {
        DimensionId.MODEL_PRIOR: 0.15,
        DimensionId.COST_PRIOR: 0.10,
        DimensionId.STRUCTURE: 0.20,
        DimensionId.SEMANTIC: 0.25,
        DimensionId.ALIGNMENT: 0.15,
        DimensionId.AGREEMENT: 0.15,
    }
    for d in CANONICAL_DIMENSIONS:
        assert compose(unit_vector(d), DEFAULT_WEIGHTS) == pytest.approx(expected[d], abs=1e-12)


def test_compose_matches_fsum_oracle():
    rng = np.random.default_rng(17)
    for _ in range(200):
        vals = {d: float(rng.uniform(0, 1)) for d in CANONICAL_DIMENSIONS}
        expected = math.fsum(
            DEFAULT_WEIGHTS.weights[d] * vals[d] for d in CANONICAL_DIMENSIONS
        )
        expected = min(1.0, max(0.0, expected))
        assert compose(DimensionVector(vals), DEFAULT_WEIGHTS) == expected


def test_compose_is_monotone_in_each_dimension():
    rng = np.random.default_rng(18)
    for _ in range(100):
        vals = {d: float(rng.uniform(0.1, 0.8)) for d in CANONICAL_DIMENSIONS}
        base = compose(DimensionVector(vals), DEFAULT_WEIGHTS)
        for d in CANONICAL_DIMENSIONS:
            bumped = dict(vals)
            bumped[d] = vals[d] + 0.1
            assert compose(DimensionVector(bumped), DEFAULT_WEIGHTS) >= base


def test_compose_stays_between_min_and_max_score():
    rng = np.random.default_rng(19)
    for _ in range(100):
        vals = {d: float(rng.uniform(0, 1)) for d in CANONICAL_DIMENSIONS}
        s = compose(DimensionVector(vals), DEFAULT_WEIGHTS)
        assert min(vals.values()) - 1e-12 <= s <= max(vals.values()) + 1e-12


def test_compose_requires_exact_key_match():
    partial = DimensionVector({DimensionId.SEMANTIC: 0.5})
    with pytest.raises(DimensionMismatch):
        compose(partial, DEFAULT_WEIGHTS)
    smaller = variant(DEFAULT_WEIGHTS, "no_agreement")
    full = DimensionVector({d: 0.5 for d in CANONICAL_DIMENSIONS})
    with pytest.raises(DimensionMismatch):
        compose(full, smaller)


def test_compose_batch_restricts_to_active_weights():
    samples = [
        make_sample(sample_id="s0").with_dimensions(
            DimensionVector({d: 0.5 for d in CANONICAL_DIMENSIONS})
        )
    ]
    weights = variant(DEFAULT_WEIGHTS, "no_agreement")
    assert compose_batch(samples, weights) == [pytest.approx(0.5)]


def test_compose_batch_unscored_sample_raises():
    with pytest.raises(SchemaError):
        compose_batch([make_sample(sample_id="s0")], DEFAULT_WEIGHTS)


def test_compose_batch_missing_dimension_raises():
    samples = [
        make_sample(sample_id="s0").with_dimensions(
            DimensionVector({DimensionId.SEMANTIC: 0.5})
        )
    ]
    with pytest.raises(DimensionMismatch):
        compose_batch(samples, DEFAULT_WEIGHTS)


def test_remove_variant_renormalizes():
    w = variant(DEFAULT_WEIGHTS, "calibrated").weights
    # remaining raw weights .15/.10/.20/.25 over a total of .70
    assert w[DimensionId.MODEL_PRIOR] == pytest.approx(0.15 / 0.70, abs=1e-4)
    assert w[DimensionId.COST_PRIOR] == pytest.approx(0.10 / 0.70, abs=1e-4)
    assert w[DimensionId.STRUCTURE] == pytest.approx(0.20 / 0.70, abs=1e-4)
    assert w[DimensionId.SEMANTIC] == pytest.approx(0.25 / 0.70, abs=1e-4)
    assert DimensionId.ALIGNMENT not in w
    assert math.fsum(w.values()) == pytest.approx(1.0, abs=1e-12)


def test_equal_weights_variant():
    w = variant(DEFAULT_WEIGHTS, "equal_weights").weights
    for d in CANONICAL_DIMENSIONS:
        assert w[d] == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_no_priors_variant():
    w = variant(DEFAULT_WEIGHTS, "no_priors").weights
    assert DimensionId.MODEL_PRIOR not in w
    assert DimensionId.COST_PRIOR not in w
    # .20/.25/.15/.15 renormalized over .75
    assert w[DimensionId.SEMANTIC] == pytest.approx(0.25 / 0.75, abs=1e-12)


def test_prior_heavy_variant():
    w = variant(DEFAULT_WEIGHTS, "prior_heavy").weights
    # priors doubled then renormalized: total is .30 + .20 + .75 = 1.25
    assert w[DimensionId.MODEL_PRIOR] == pytest.approx(0.30 / 1.25, abs=1e-12)
    assert w[DimensionId.COST_PRIOR] == pytest.approx(0.20 / 1.25, abs=1e-12)
    assert w[DimensionId.SEMANTIC] == pytest.approx(0.25 / 1.25, abs=1e-12)


def test_semantic_only_variant():
    w = variant(DEFAULT_WEIGHTS, "semantic_only").weights
    assert list(w) == [DimensionId.SEMANTIC]
    assert w[DimensionId.SEMANTIC] == 1.0


def test_default_variant_is_identity():
    w = variant(DEFAULT_WEIGHTS, "default")
    assert w.weights == DEFAULT_WEIGHTS.weights
    assert w == DEFAULT_WEIGHTS


def test_remove_everything_rejected():
    priors_only = WeightConfig(
        "priors", {DimensionId.MODEL_PRIOR: 1.0, DimensionId.COST_PRIOR: 1.0}
    )
    with pytest.raises(AllDimensionsRemoved, match="'no_priors'"):
        variant(priors_only, "no_priors")
    with pytest.raises(AllDimensionsRemoved, match="'semantic_only'"):
        variant(priors_only, "semantic_only")
    alignment_agreement = WeightConfig(
        "pair", {DimensionId.ALIGNMENT: 1.0, DimensionId.AGREEMENT: 1.0}
    )
    with pytest.raises(AllDimensionsRemoved, match="'calibrated'"):
        variant(alignment_agreement, "calibrated")


def test_paper_preset_order_and_names():
    assert list(VARIANTS) == [
        "default",
        "equal_weights",
        "no_priors",
        "prior_heavy",
        "semantic_only",
        "no_structure",
        "no_alignment",
        "no_agreement",
        "calibrated",
    ]
    for name in VARIANTS:
        assert variant(DEFAULT_WEIGHTS, name).name == name
    dropped = {DimensionId.ALIGNMENT, DimensionId.AGREEMENT}
    kept = DEFAULT_WEIGHTS.dimensions() - dropped
    assert variant(DEFAULT_WEIGHTS, "calibrated").dimensions() == kept
    heavy = variant(DEFAULT_WEIGHTS, "prior_heavy")
    assert heavy[DimensionId.MODEL_PRIOR] / heavy[DimensionId.SEMANTIC] == pytest.approx(
        2.0 * 0.15 / 0.25, abs=1e-12
    )


def test_preset_variants_subset_lookup():
    picked = [variant(DEFAULT_WEIGHTS, name) for name in ("calibrated", "default")]
    assert [w.name for w in picked] == ["calibrated", "default"]
    with pytest.raises(SchemaError, match="unknown weights variant 'nonexistent'"):
        variant(DEFAULT_WEIGHTS, "nonexistent")
