"""Weighted composite and the ablation variant catalog."""

import math
import re

import numpy as np
import pytest

from conftest import dim_matrix, make_sample, sim_config
from mdqs.audit import ablation_grid, audit, dimension_means_by_producer
from mdqs.composite import VARIANTS, compose, compose_batch, variant
from mdqs.errors import AllDimensionsRemoved, DimensionMismatch, SchemaError
from mdqs.io import emit_reports, write_jsonl
from mdqs.model import (
    CANONICAL_DIMENSIONS,
    DEFAULT_WEIGHTS,
    Batch,
    DimensionId,
    EvaluatorProfile,
    WeightConfig,
)
from mdqs.poq import CompositeSignal, Mean, iter_experiment
from mdqs.scoring import ScoringConfig, score_all


def unit_vector(dim):
    return {d: (1.0 if d is dim else 0.0) for d in CANONICAL_DIMENSIONS}


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
        assert compose(vals, DEFAULT_WEIGHTS) == expected
        # the mapping's order does not matter: compose reads the canonical row
        assert compose(dict(reversed(vals.items())), DEFAULT_WEIGHTS) == expected


def test_compose_is_monotone_in_each_dimension():
    rng = np.random.default_rng(18)
    for _ in range(100):
        vals = {d: float(rng.uniform(0.1, 0.8)) for d in CANONICAL_DIMENSIONS}
        base = compose(vals, DEFAULT_WEIGHTS)
        for d in CANONICAL_DIMENSIONS:
            bumped = dict(vals)
            bumped[d] = vals[d] + 0.1
            assert compose(bumped, DEFAULT_WEIGHTS) >= base


def test_compose_stays_between_min_and_max_score():
    rng = np.random.default_rng(19)
    for _ in range(100):
        vals = {d: float(rng.uniform(0, 1)) for d in CANONICAL_DIMENSIONS}
        s = compose(vals, DEFAULT_WEIGHTS)
        assert min(vals.values()) - 1e-12 <= s <= max(vals.values()) + 1e-12


def test_compose_requires_exact_key_match():
    for partial in ({DimensionId.SEMANTIC: 0.5}, {}):
        with pytest.raises(DimensionMismatch):
            compose(partial, DEFAULT_WEIGHTS)
    smaller = variant(DEFAULT_WEIGHTS, "no_agreement")
    full = {d: 0.5 for d in CANONICAL_DIMENSIONS}
    with pytest.raises(DimensionMismatch):
        compose(full, smaller)


def test_compose_rejects_out_of_range_scores():
    full = {d: 0.5 for d in CANONICAL_DIMENSIONS}
    for bad in (1.7, -0.2, 1.5, -0.1, float("nan"), float("inf"), float("-inf")):
        message = rf"^dimension semantic has score {re.escape(repr(bad))} outside \[0, 1\]$"
        # refused before the key sets are compared, so a partial mapping
        # gets the same message as a full one
        for scores in (full, {DimensionId.STRUCTURE: 0.5}):
            with pytest.raises(ValueError, match=message):
                compose(scores | {DimensionId.SEMANTIC: bad}, DEFAULT_WEIGHTS)
    # the first bad score in canonical order is named, whatever the mapping's order
    scores = {DimensionId.AGREEMENT: 2.0, DimensionId.SEMANTIC: -1.0, DimensionId.STRUCTURE: 0.0}
    with pytest.raises(ValueError, match=r"^dimension semantic has score -1\.0 outside"):
        compose(scores, DEFAULT_WEIGHTS)


def test_compose_rejects_keys_that_are_not_dimension_ids():
    for scores in ({"semantic": 0.5}, {DimensionId.SEMANTIC: 0.5, 3: 0.5}):
        message = rf"^dimension keys must be DimensionIds, got {re.escape(repr(list(scores)))}$"
        with pytest.raises(ValueError, match=message):
            compose(scores, DEFAULT_WEIGHTS)


def test_compose_batch_restricts_to_active_weights():
    samples = [make_sample(sample_id="s0")]
    dims = dim_matrix([{d.value: 0.5 for d in CANONICAL_DIMENSIONS}])
    weights = variant(DEFAULT_WEIGHTS, "no_agreement")
    assert compose_batch(Batch(samples, dims), weights) == [pytest.approx(0.5)]


def test_compose_batch_unscored_sample_raises():
    with pytest.raises(SchemaError, match="has no dimension scores; run score first"):
        compose_batch(Batch([make_sample(sample_id="s0")]), DEFAULT_WEIGHTS)


def test_compose_batch_missing_dimension_raises():
    samples = [make_sample(sample_id="s0")]
    with pytest.raises(DimensionMismatch):
        compose_batch(Batch(samples, dim_matrix([{"semantic": 0.5}])), DEFAULT_WEIGHTS)


# ------------------------------------------------------- the batch's checks
#
# Every stage that reads samples together takes a Batch, and the Batch
# constructor refuses bad dims and a repeated sample_id. So each consumer
# below is run on a Batch built from its samples and dims, and the refusal
# comes from building it, before the consumer can read or write anything.


def _boundary_batch():
    """Four referenced samples with one evaluator, one query each, and
    their dims: every dimension 0.25 * i."""
    samples = [
        make_sample(
            sample_id=f"s{i}", query=f"q{i}", reference_score=i / 3, evaluator_scores={"j": i / 3}
        )
        for i in range(4)
    ]
    return samples, dim_matrix([{d.value: i / 4 for d in CANONICAL_DIMENSIONS} for i in range(4)])


def _replay(batch):
    config = sim_config(
        config_id="c",
        evaluators=(EvaluatorProfile("e0"), EvaluatorProfile("e1")),
        defense=Mean(),
        rounds=2,
        quality_signal=CompositeSignal("default"),
    )
    return list(iter_experiment([config], batch))


CONSUMERS = {
    "audit": audit,
    "ablation_grid": lambda batch: ablation_grid(batch, ["default"]),
    "compose_batch": lambda batch: compose_batch(batch, DEFAULT_WEIGHTS),
    "iter_experiment": _replay,
}


def _bad_dims(dims):
    """(bad dims, what the ValueError must say) for each way dims can be wrong."""
    high, low = dims.copy(), dims.copy()
    high[2, 3], low[1, 4] = 1.5, -math.inf
    return [
        (dims[:3], r"\(3, 6\), not \(4, 6\): no cell for sample 's3', dimension model_prior"),
        (dims[:, :5], r"\(4, 5\), not \(4, 6\): no cell for sample 's0', dimension agreement"),
        (high, r"^sample 's2': dimension semantic has score 1.5 outside \[0, 1\]$"),
        (low, r"^sample 's1': dimension alignment has score -inf outside \[0, 1\]$"),
    ]


@pytest.mark.parametrize("consumer", CONSUMERS)
def test_every_consumer_refuses_bad_dims_naming_the_sample_and_dimension(consumer):
    samples, dims = _boundary_batch()
    run = CONSUMERS[consumer]
    assert run(Batch(samples, dims))  # the good matrix passes
    for bad, message in _bad_dims(dims):
        with pytest.raises(ValueError, match=message):
            run(Batch(samples, bad))


@pytest.mark.parametrize("consumer", CONSUMERS)
def test_a_nan_cell_is_absent_not_an_error(consumer):
    # model_prior is weighted by default, so only s1's composite lacks it
    samples, dims = _boundary_batch()
    dims[1, 0] = math.nan
    batch = Batch(samples, dims)
    if consumer == "audit":
        assert audit(batch).overall.row("dimension", "model_prior").n == 3
    elif consumer == "iter_experiment":
        [outcome] = _replay(batch)
        assert outcome.error_type == "DimensionMismatch"
    else:
        with pytest.raises(DimensionMismatch, match=r"missing=\['model_prior'\]"):
            CONSUMERS[consumer](batch)


# Each takes (a batch, an output directory); a writer writes into it.
BATCH_CONSUMERS = {
    **{name: lambda batch, _, run=run: run(batch) for name, run in CONSUMERS.items()},
    "dimension_means_by_producer": lambda batch, _: dimension_means_by_producer(batch),
    "score_all": lambda batch, _: score_all(
        batch, ScoringConfig(weights=WeightConfig("s", {DimensionId.STRUCTURE: 1.0}))
    ),
    "write_jsonl": lambda batch, out: write_jsonl(out / "data.jsonl", batch),
    "write_jsonl_without_dims": lambda batch, out: write_jsonl(
        out / "data.jsonl", Batch(batch.samples)
    ),
    "emit_reports": lambda batch, out: emit_reports(out, scored_samples=batch),
}


@pytest.mark.parametrize("consumer", BATCH_CONSUMERS)
def test_every_batch_consumer_refuses_a_repeated_sample_id(consumer, tmp_path):
    # without evaluator scores, which the refusal does not need
    samples, dims = _boundary_batch()
    samples = [s._replace(evaluator_scores={}) for s in samples]
    repeated = samples[:3] + [samples[3]._replace(sample_id="s0")]
    run = BATCH_CONSUMERS[consumer]
    run(Batch(samples, dims), tmp_path)  # distinct ids pass, and a writer writes its files
    before = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
    with pytest.raises(SchemaError, match=r"^duplicate sample_id 's0'$"):
        run(Batch(repeated, dims), tmp_path)
    # the old files, and no temporary one
    assert {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())} == before


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
