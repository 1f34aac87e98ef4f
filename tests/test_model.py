"""Core value objects: dimensions, weights, samples, dataset validation,
and the Record base they are built on."""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import mdqs

from conftest import dim_matrix, make_sample
from mdqs.io import ingest, write_jsonl
from mdqs.model import (
    CANONICAL_DIMENSIONS,
    DEFAULT_WEIGHTS,
    Batch,
    DimensionId,
    EvaluatorProfile,
    LoggedSample,
    WeightConfig,
    parse_dimension,
    task_label,
)
from mdqs.poq import Collude, Deflate, Inflate, Mean, Median
from mdqs.scoring import PriorTable, ScoringConfig, validate_dataset


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
    assert task_label(" QA ") == "qa"
    assert task_label("Summarization") == "summarization"
    assert make_sample(task=" QA ").task == "qa"
    assert make_sample(task="Translation").task == "translation"
    for bad in ("  ", "", None, 3):
        with pytest.raises(ValueError, match=f"^task must be a non-blank string, got {bad!r}$"):
            make_sample(task=bad)


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


def test_library_records_refuse_what_the_config_refuses():
    # the config's readers, as a ValueError naming the field
    sem, structure, rating = DimensionId.SEMANTIC, DimensionId.STRUCTURE, "prior table 't': rating"

    def refused(message, make, *args, **kwargs):
        with pytest.raises(ValueError) as caught:
            make(*args, **kwargs)
        assert type(caught.value) is ValueError
        assert str(caught.value) == message

    number, huge = "must be a number, got", 10**400
    refused(f"weights.semantic {number} str '0.5'", WeightConfig, "w", {sem: "0.5"})
    refused(f"weights.semantic {number} bool", WeightConfig, "w", {sem: True})
    refused("weights.semantic must be finite, got inf", WeightConfig, "w", {sem: huge})
    refused("weights must have a finite sum", WeightConfig, "w", {sem: 1e308, structure: 1e308})
    refused(f"{rating} for 'a' {number} str '1200'", PriorTable, "t", {"a": "1200"})
    refused(f"{rating} for 'b' {number} bool", PriorTable, "t", {"a": 1, "b": True})
    refused(f"cost {number} str '1'", EvaluatorProfile, "e", cost="1")
    # the YAML advice is for a config only
    refused(f"reference_score {number} str '0.5'", make_sample, reference_score="0.5")
    refused("evaluator_scores.j must be finite, got inf", make_sample, evaluator_scores={"j": huge})
    refused("reference_score must be finite, got inf", make_sample, reference_score=huge)
    assert WeightConfig("w", {sem: 10**300}).weights == {sem: 1.0}
    assert EvaluatorProfile("e", cost=2).cost == 2.0


def test_evaluator_profile_defaults_and_validation():
    p = EvaluatorProfile(evaluator_id="e1")
    assert p.cost == 1.0
    for blank in ("", "  ", None, 7):
        with pytest.raises(ValueError, match=f"must be a non-blank string, got {blank!r}"):
            EvaluatorProfile(evaluator_id=blank)
    with pytest.raises(ValueError):
        EvaluatorProfile(evaluator_id="e1", cost=-2.0)


def test_validate_dataset_clean():
    samples = [make_sample(sample_id=f"s{i}") for i in range(3)]
    report = validate_dataset(Batch(samples))
    assert report.ok
    assert report.valid_count == 3
    assert report.invalid_count == 0
    assert report.total == 3
    assert report.issues == ()


def test_sample_rejects_non_finite_scores():
    with pytest.raises(ValueError, match="evaluator_scores.judge"):
        make_sample(sample_id="s0", evaluator_scores={"judge": float("nan")})
    with pytest.raises(ValueError, match="evaluator_scores.j must be finite"):
        make_sample(sample_id="a", evaluator_scores={"j": float("inf")})
    with pytest.raises(ValueError, match="reference_score"):
        make_sample(sample_id="c", reference_score=float("nan"))
    # what ingest would refuse in a written line: a bool or a string score, a non-string text
    for bad in (True, "0.5", None):
        with pytest.raises(ValueError, match="^evaluator_scores.j must be a number, got "):
            make_sample(sample_id="d", evaluator_scores={"j": bad})
    with pytest.raises(ValueError, match="^reference_score must be a number, got bool$"):
        make_sample(sample_id="e", reference_score=True)
    with pytest.raises(ValueError, match="^query must be a string, got int$"):
        make_sample(sample_id="f", query=3)
    with pytest.raises(ValueError, match="^reference_text must be a string, got list$"):
        make_sample(sample_id="g", reference_text=["r"])


def test_sample_scores_are_floats_and_survive_a_round_trip(tmp_path):
    sample = make_sample(sample_id="s", evaluator_scores={"j": 1}, reference_score=0)
    assert type(sample.evaluator_scores["j"]) is type(sample.reference_score) is float
    write_jsonl(tmp_path / "s.jsonl", Batch([sample]))
    assert list(ingest(tmp_path / "s.jsonl").samples.samples) == [sample]


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
        make_sample(sample_id="b", reference_text="r", evaluator_scores={"j": 0.5, "k": 0.1}),
        make_sample(sample_id="c", evaluator_scores={"j": 0.5, "k": 0.1}),
    ]
    weights = WeightConfig("w", {DimensionId.SEMANTIC: 1.0, DimensionId.AGREEMENT: 1.0})
    report = validate_dataset(Batch(samples), ScoringConfig(weights=weights))
    assert report.invalid_count == 2
    assert report.valid_count == 1
    assert [(i.sample_id, i.fieldname) for i in report.issues] == [
        ("a", "evaluator_scores"), ("c", "reference_text")
    ]


# ---------------------------------------------------------------- records


def test_no_class_in_the_package_but_sim_outcome_is_a_dataclass():
    # a dataclass writes its methods as source and execs them at import;
    # SimOutcome stays one because callers may rely on dataclasses APIs
    found = []
    for info in pkgutil.iter_modules(mdqs.__path__, "mdqs."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == info.name:
                if dataclasses.is_dataclass(obj):
                    found.append(f"{info.name}.{name}")
    assert found == ["mdqs.model.SimOutcome"], f"dataclasses besides SimOutcome: {found}"


def test_record_construction_matches_a_frozen_dataclass():
    mirror = dataclasses.make_dataclass(
        "Collude", [("target_producer", str), ("delta", float, 0.2)], frozen=True
    )
    calls = (
        (("a",), {}), (("a", 0.3), {}), (("a",), {"delta": 0.3}), ((), {"target_producer": "b"})
    )
    for args, kwargs in calls:
        record, reference = Collude(*args, **kwargs), mirror(*args, **kwargs)
        assert repr(record) == repr(reference)
        assert hash(record) == hash(reference) == hash((record.target_producer, record.delta))
    assert Collude._fields == {"target_producer": "str", "delta": "float"}  # type is a ClassVar
    assert Collude._required == {"target_producer"} and Collude.type == "collude"
    # missing, too many, repeated and unknown arguments
    bad = (((), {}), (("a", 0.3, 1), {}), (("a",), {"target_producer": "b"}), (("a",), {"x": 1}))
    for args, kwargs in bad:
        with pytest.raises(TypeError):
            Collude(*args, **kwargs)
        with pytest.raises(TypeError):
            mirror(*args, **kwargs)


def test_record_defaults_equality_and_repr():
    sample = LoggedSample("s1", " QA ", "m", "q", "o")
    assert sample == LoggedSample(sample_id="s1", task="qa", producer_id="m", query="q", output="o")
    assert sample.evaluator_scores == {} and sample.extra == {} and sample.reference_score is None
    assert sample.extra is not LoggedSample("s2", "qa", "m", "q", "o").extra  # copied, not shared
    assert repr(sample) == (
        "LoggedSample(sample_id='s1', task='qa', producer_id='m', query='q', output='o', "
        "evaluator_scores={}, reference_score=None, reference_text=None, extra={})"
    )
    assert Mean() == Mean() and hash(Mean()) == hash(()) and repr(Mean()) == "Mean()"
    assert Mean() != Median() and Inflate(0.2) != Deflate(0.2)  # equal fields, other class
    assert Collude("a") != ("a", 0.2)
    weights = WeightConfig("w", {DimensionId.SEMANTIC: 2.0})
    assert repr(weights) == "WeightConfig(name='w', weights={DimensionId.SEMANTIC: 1.0})"
    with pytest.raises(TypeError, match="unhashable"):
        hash(weights)  # a dict field, as in a frozen dataclass


def test_record_refuses_assignment_and_replace_checks_again():
    attack = Collude("a", 0.3)
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'delta'"):
        attack.delta = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'delta'"):
        del attack.delta
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'other'"):
        attack.other = 1
    assert attack._replace(delta=0.5) == Collude("a", 0.5) and attack.delta == 0.3
    with pytest.raises(ValueError, match="delta must be finite"):
        attack._replace(delta=-1.0)
    with pytest.raises(TypeError):
        attack._replace(x=1)


# ---------------------------------------------------------------- batches


def test_a_batch_derives_subsets_and_new_dims_from_its_checked_parts():
    samples = [make_sample(sample_id=f"s{i}", evaluator_scores={"j": float(i)}) for i in range(3)]
    batch = Batch(samples, dim_matrix([{"semantic": 0.5}] * 3))
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'dims'"):
        batch.dims = None
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'dims'"):
        del batch.dims
    # a row subset keeps the evaluator ids and normalizes over its own rows
    subset = batch.rows(np.array([True, False, True]))
    assert [s.sample_id for s in subset.samples] == ["s0", "s2"] and subset.evaluator_ids == ["j"]
    assert subset.dims[:, 3].tolist() == [0.5, 0.5]
    assert subset.evaluator_scores[:, 0].tolist() == [0.0, 2.0]
    assert subset.normalized_scores()[:, 0].tolist() == [0.0, 1.0]
    # new dims are checked; the samples and the one normalized table are shared
    table = batch.normalized_scores()
    assert table[:, 0].tolist() == [0.0, 0.5, 1.0] and batch.normalized_scores() is table
    scored = batch.with_dims(dim_matrix([{"structure": 1.0}] * 3))
    assert scored.samples is batch.samples and scored.normalized_scores() is table
    assert np.isnan(scored.dims[:, 3]).all() and batch.dims[:, 3].tolist() == [0.5] * 3
    with pytest.raises(ValueError, match=r"^sample 's0': dimension model_prior has score 2\.0"):
        batch.with_dims(np.full((3, 6), 2.0))
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0
