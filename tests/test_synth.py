"""Synthetic dataset generator: planted correlations and determinism."""

import numpy as np
import pytest

from mdqs.errors import InvalidSpec
from mdqs.model import CANONICAL_DIMENSIONS, DIMENSION_COLUMN, DimensionId
from mdqs.scoring import validate_dataset
from mdqs.stats import spearman
from mdqs.synth import (
    DEFAULT_CORRELATIONS,
    DEFAULT_EVALUATOR_NOISE,
    SyntheticSpec,
    generate_synthetic,
)


def spec(**overrides):
    base = dict(
        n=400,
        correlations={
            "qa": {DimensionId.SEMANTIC: 0.8, DimensionId.ALIGNMENT: -0.5},
            "summarization": {DimensionId.SEMANTIC: 0.4, DimensionId.ALIGNMENT: 0.1},
        },
        evaluator_noise={"judge": 0.5},
        qa_fraction=0.5,
        rng_seed=7,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


def column(dims, dim):
    return dims[:, DIMENSION_COLUMN[dim]].tolist()


def refs(samples):
    return [s.reference_score for s in samples]


def test_generation_is_deterministic():
    a, b = generate_synthetic(spec()), generate_synthetic(spec())
    assert a.samples == b.samples
    assert a.dims.tobytes() == b.dims.tobytes()


def test_seed_changes_data():
    a = generate_synthetic(spec()).samples
    b = generate_synthetic(spec(rng_seed=8)).samples
    assert refs(a) != refs(b)


def test_sample_shape():
    batch = generate_synthetic(spec(n=50))
    samples, dims = batch.samples, batch.dims
    assert len(samples) == 50 and dims.shape == (50, len(CANONICAL_DIMENSIONS))
    assert [s.sample_id for s in samples] == [f"s{i:05d}" for i in range(50)]
    for s in samples:
        assert 0.0 <= s.reference_score <= 1.0
        assert set(s.evaluator_scores) == {"judge"}
        assert s.reference_text
        assert s.output
    for row in dims.tolist():
        assert {d for d, v in zip(CANONICAL_DIMENSIONS, row) if v == v} == {
            DimensionId.SEMANTIC, DimensionId.ALIGNMENT
        }


def test_validates_clean():
    report = validate_dataset(generate_synthetic(spec(n=100)))
    assert report.ok


def test_perfect_correlation_is_exact():
    s = spec(
        correlations={
            "qa": {DimensionId.SEMANTIC: 1.0, DimensionId.STRUCTURE: -1.0},
        },
        qa_fraction=1.0,
        n=200,
    )
    batch = generate_synthetic(s)
    samples, dims = batch.samples, batch.dims
    # rho 1 makes the column an affine copy of the latent; ranks coincide
    assert spearman(column(dims, DimensionId.SEMANTIC), refs(samples)) == 1.0
    assert spearman(column(dims, DimensionId.STRUCTURE), refs(samples)) == -1.0


def test_planted_correlations_recovered_loosely():
    batch = generate_synthetic(spec(n=2000))
    samples, dims = batch.samples, batch.dims
    is_qa = np.array([s.task == "qa" for s in samples])
    qa = [s for s in samples if s.task == "qa"]
    summ = [s for s in samples if s.task == "summarization"]
    got_qa = spearman(column(dims[is_qa], DimensionId.SEMANTIC), refs(qa))
    got_summ = spearman(column(dims[~is_qa], DimensionId.SEMANTIC), refs(summ))
    assert got_qa == pytest.approx(0.8, abs=0.08)
    assert got_summ == pytest.approx(0.4, abs=0.08)
    got_align = spearman(column(dims[is_qa], DimensionId.ALIGNMENT), refs(qa))
    assert got_align == pytest.approx(-0.5, abs=0.08)


def test_task_split_follows_fraction():
    samples = generate_synthetic(spec(n=1000, qa_fraction=0.6)).samples
    n_qa = sum(1 for s in samples if s.task == "qa")
    assert n_qa == 600
    samples = generate_synthetic(spec(n=100, qa_fraction=1.0)).samples
    assert all(s.task == "qa" for s in samples)


def test_groups_share_query_and_cycle_producers():
    s = spec(
        n=12,
        producers=("m1", "m2", "m3"),
        producers_per_query=3,
    )
    samples = generate_synthetic(s).samples
    for i in range(0, 12, 3):
        group = samples[i : i + 3]
        assert len({g.query for g in group}) == 1
        assert [g.producer_id for g in group] == ["m1", "m2", "m3"]
    assert len({s.query for s in samples}) == 4


def test_reference_score_is_rank_uniform():
    samples = generate_synthetic(spec(n=101)).samples
    values = sorted(refs(samples))
    assert values[0] == 0.0
    assert values[-1] == 1.0
    # ranks of a continuous latent: evenly spaced grid
    assert values == pytest.approx([i / 100 for i in range(101)])


def test_low_quality_outputs_degrade():
    samples = generate_synthetic(spec(n=300)).samples
    low = [s for s in samples if s.reference_score < 0.1]
    high = [s for s in samples if s.reference_score > 0.9]
    assert low and high
    mean_low = np.mean([len(s.output.split()) for s in low])
    mean_high = np.mean([len(s.output.split()) for s in high])
    assert mean_low < mean_high
    assert all("again again" in s.output for s in low)


def test_reference_text_drifts_with_quality():
    samples = generate_synthetic(spec(n=300)).samples

    def overlap(s):
        a = set(s.output.split())
        b = set(s.reference_text.split())
        return len(a & b) / max(1, len(a | b))

    high = [overlap(s) for s in samples if s.reference_score > 0.8]
    low = [overlap(s) for s in samples if s.reference_score < 0.2]
    assert np.mean(high) > np.mean(low)


def test_evaluator_noise_orders_reliability():
    s = spec(
        n=1500,
        evaluator_noise={"sharp": 0.1, "fuzzy": 2.0},
    )
    samples = generate_synthetic(s).samples
    sharp = spearman([x.evaluator_scores["sharp"] for x in samples], refs(samples))
    fuzzy = spearman([x.evaluator_scores["fuzzy"] for x in samples], refs(samples))
    assert sharp > 0.9
    assert 0.0 < fuzzy < sharp


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        spec(n=0)
    with pytest.raises(InvalidSpec):
        spec(qa_fraction=1.5)
    with pytest.raises(InvalidSpec):
        spec(producers=())
    with pytest.raises(InvalidSpec):
        spec(producers_per_query=4)  # only 3 producers
    with pytest.raises(InvalidSpec):
        spec(correlations={})
    with pytest.raises(InvalidSpec):
        spec(correlations={"qa": {DimensionId.SEMANTIC: 1.5}})
    with pytest.raises(InvalidSpec):
        spec(evaluator_noise={"judge": -0.1})
    # a producer id becomes each sample's producer_id, which must be non-blank
    for blank in ("", " ", None, 7):
        message = f"^producers must be non-blank strings, got {blank!r}$"
        with pytest.raises(InvalidSpec, match=message):
            spec(producers=("model-a", blank))
    # each of a query's producers is a different one
    with pytest.raises(InvalidSpec, match="^producers must be distinct, got 'a' twice$"):
        spec(producers=("a", "b", "a"))


def test_spec_numbers_are_read_as_numbers():
    # the config's reader, so a quoted number or a bool is refused, naming the entry
    sem = DimensionId.SEMANTIC
    cases = [
        ({"correlations": {"qa": {sem: "0.5"}}}, "correlation for qa/semantic", "str '0.5'"),
        ({"correlations": {"QA ": {sem: True}}}, "correlation for qa/semantic", "bool"),
        ({"evaluator_noise": {"j": "0.5"}}, "noise sd for 'j'", "str '0.5'"),
        ({"evaluator_noise": {"j": False}}, "noise sd for 'j'", "bool"),
    ]
    for fields, where, got in cases:
        with pytest.raises(InvalidSpec) as caught:
            spec(**fields)
        assert str(caught.value) == f"{where} must be a number, got {got}"
    with pytest.raises(InvalidSpec, match="^noise sd for 'j' must be finite, got nan$"):
        spec(evaluator_noise={"j": float("nan")})


def test_missing_task_correlations_rejected():
    s = spec(correlations={"qa": {DimensionId.SEMANTIC: 0.8}}, qa_fraction=0.5)
    with pytest.raises(InvalidSpec):
        generate_synthetic(s)


def test_default_tables_cover_both_tasks():
    assert set(DEFAULT_CORRELATIONS) == {"qa", "summarization"}
    for dims in DEFAULT_CORRELATIONS.values():
        assert set(dims) == set(DimensionId)
    assert set(DEFAULT_EVALUATOR_NOISE) == {
        "sts_paraphrase",
        "lexical_overlap",
        "judge_heldout",
    }
    batch = generate_synthetic(
        SyntheticSpec(
            n=60,
            correlations=DEFAULT_CORRELATIONS,
            evaluator_noise=DEFAULT_EVALUATOR_NOISE,
        )
    )
    assert validate_dataset(batch).ok


def test_spec_dimensions_canonical_order():
    s = spec(
        correlations={
            "qa": {DimensionId.AGREEMENT: 0.1, DimensionId.MODEL_PRIOR: 0.2},
            "summarization": {DimensionId.STRUCTURE: 0.3},
        }
    )
    assert s.dimensions() == [
        DimensionId.MODEL_PRIOR,
        DimensionId.STRUCTURE,
        DimensionId.AGREEMENT,
    ]
