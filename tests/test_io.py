"""Serialization, config parsing, grid expansion, and report emission."""

import gc
import io
import json
import math
import random
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

import mdqs.io
from conftest import batch, make_sample, scored_sample, sim_config, split_settings
from mdqs.audit import (
    ablation_grid,
    audit,
    calibrate,
    dimension_means_by_producer,
    with_composites,
)
from mdqs.cli import main
from mdqs.composite import VARIANTS, variant
from mdqs.errors import (
    MdqsError,
    SchemaError,
    SimConfigError,
)
from mdqs.io import (
    _FIELD_READERS,
    IngestIssue,
    RunConfig,
    SimGridSpec,
    build_grid,
    build_scoring_config,
    emit_reports,
    from_record,
    ingest,
    load_config,
    load_frozen_stats,
    parse_attack,
    parse_defense,
    parse_signal,
    resolve_weights,
    sanitize_label,
    synthetic_spec,
    to_record,
    write_jsonl,
)
from mdqs.model import (
    CANONICAL_DIMENSIONS,
    DEFAULT_WEIGHTS,
    DIMENSION_COLUMN,
    Batch,
    DimensionId,
    EvaluatorProfile,
    LoggedSample,
    WeightConfig,
)
from mdqs.poq import (
    ATTACKS,
    DEFENSES,
    SIGNALS,
    AdaptiveTrust,
    Collude,
    Inflate,
    Median,
    Mean,
    RandomNoise,
    SimSettings,
    SingleEvaluator,
    TrimmedMean,
    attack_label,
    run_experiment,
    run_single,
    signal_label,
)
from mdqs.scoring import ScoringConfig, StructurePolicy, score_all, validate_dataset


# ------------------------------------------------------------ records

def full_record():
    return {
        "schema": 1,
        "sample_id": "s1",
        "task": "qa",
        "producer_id": "m1",
        "query": "why is the sky blue",
        "output": "Rayleigh scattering favors short wavelengths.",
        "evaluator_scores": {"b_judge": 0.7, "a_judge": 0.4},
        "gt": 0.8,
        "reference_text": "shorter wavelengths scatter more",
        "dims": {"semantic": 0.9, "structure": 0.6},
        "run_tag": "batch-7",
        "latency_ms": 412,
    }


def test_record_round_trip_preserves_everything():
    sample, row = from_record(full_record())
    assert sample.sample_id == "s1"
    assert sample.task == "qa"
    assert sample.reference_score == 0.8
    assert row[DIMENSION_COLUMN[DimensionId.SEMANTIC]] == 0.9
    assert sample.extra == {"run_tag": "batch-7", "latency_ms": 412}
    rec = to_record(sample, row)
    assert rec == full_record() | {
        "evaluator_scores": {"a_judge": 0.4, "b_judge": 0.7}
    }
    # key order is fixed: the record's keys in one order, extras last
    assert list(rec) == [
        "schema", "sample_id", "task", "producer_id", "query", "output", "evaluator_scores",
        "gt", "reference_text", "dims", "run_tag", "latency_ms",
    ]
    assert list(rec["evaluator_scores"]) == ["a_judge", "b_judge"]
    # partial dims given out of order come back in canonical order, absent ones omitted
    assert [repr(v) for v in row] == ["nan", "nan", "0.6", "0.9", "nan", "nan"]
    assert list(rec["dims"]) == ["structure", "semantic"]
    scrambled = full_record() | {"dims": {"agreement": 0.25, "model_prior": 1, "semantic": 0.0}}
    dims = to_record(*from_record(scrambled))["dims"]
    assert list(dims.items()) == [("model_prior", 1.0), ("semantic", 0.0), ("agreement", 0.25)]


def test_record_minimal():
    rec = {
        "sample_id": "s2",
        "task": "summarization",
        "producer_id": "m",
        "query": "q",
        "output": "o",
    }
    sample, row = from_record(rec)
    assert sample.evaluator_scores == {}
    assert sample.reference_score is None
    assert all(v != v for v in row)  # every dimension absent
    for dims in (row, None):
        out = to_record(sample, dims)
        assert list(out) == [
            "schema", "sample_id", "task", "producer_id", "query", "output", "evaluator_scores",
        ]
    assert out["schema"] == 1


def test_a_record_and_a_sample_refuse_a_value_in_the_same_words():
    # one rule per value: ingest and the constructor read it with the same
    # reader, so only the name of gt (reference_score) differs
    record = full_record()
    fields = dict(
        sample_id="s1", task="qa", producer_id="m1", query=record["query"],
        output=record["output"], evaluator_scores=record["evaluator_scores"],
        reference_score=record["gt"], reference_text=record["reference_text"],
    )
    ids = ("sample_id", "task", "producer_id")
    cases = [(key, key, bad) for key in ids for bad in (None, 7, "  ")]
    cases += [("query", "query", 3), ("reference_text", "reference_text", 4)]
    for bad in (True, "0.5", 10**400, math.nan):
        cases += [("evaluator_scores", "evaluator_scores", {"j": bad})]
        cases += [("gt", "reference_score", bad)]
    for key, name, bad in cases:
        with pytest.raises(ValueError) as library:
            LoggedSample(**fields | {name: bad})
        assert type(library.value) is ValueError
        with pytest.raises(SchemaError) as ingested:
            from_record(record | {key: bad})
        assert str(ingested.value) == str(library.value).replace("reference_score", "gt")
    for key in ids:  # a missing id or task reads as null
        with pytest.raises(SchemaError, match=f"^{key} must be a non-blank string, got None$"):
            from_record({k: v for k, v in record.items() if k != key})


def test_from_record_schema_errors():
    with pytest.raises(SchemaError):
        from_record(["not", "a", "dict"])
    with pytest.raises(SchemaError):
        from_record(full_record() | {"schema": 2})
    with pytest.raises(SchemaError):
        from_record(full_record() | {"sample_id": 7})
    with pytest.raises(SchemaError):
        from_record(full_record() | {"evaluator_scores": [1, 2]})
    with pytest.raises(SchemaError):
        from_record(full_record() | {"evaluator_scores": {"j": "high"}})
    with pytest.raises(SchemaError):
        from_record(full_record() | {"evaluator_scores": {"j": True}})
    with pytest.raises(SchemaError):
        from_record(full_record() | {"dims": {"vibes": 0.5}})
    with pytest.raises(SchemaError):
        from_record(full_record() | {"reference_text": 4})
    with pytest.raises(SchemaError):
        from_record(full_record() | {"gt": "high"})
    for bad in (
        {"task": "  "},
        {"sample_id": ""},
        {"sample_id": "  "},
        {"producer_id": ""},
        {"producer_id": " \t"},
        {"evaluator_scores": {"j": float("nan")}},
        {"gt": float("inf")},
        {"gt": 10**400},
        {"dims": {"semantic": float("-inf")}},
        {"dims": [0.5]},
    ):
        with pytest.raises(SchemaError):
            from_record(full_record() | bad)


def test_dims_fill_the_canonical_row_by_name():
    # the row filled through the name table is the canonical row of the
    # named scores, NaN where absent, for any subset of names in any order
    rng = random.Random(18)
    names = [d.value for d in CANONICAL_DIMENSIONS]
    for _ in range(300):
        chosen = rng.sample(names, rng.randint(1, len(names)))
        dims = {name: rng.choice([0.0, -0.0, 1, 1.0, rng.random()]) for name in chosen}
        expected = [float(dims.get(name, math.nan)) for name in names]
        _, got = from_record(full_record() | {"dims": dims})
        assert [repr(v) for v in got] == [repr(v) for v in expected]
    for empty in ({}, None):
        _, row = from_record(full_record() | {"dims": empty})
        assert all(v != v for v in row)
    known = ", ".join(names)
    with pytest.raises(SchemaError, match=rf"^unknown dimension 'vibes' \(known: {known}\)$"):
        from_record(full_record() | {"dims": {"semantic": 0.5, "vibes": 0.5}})
    with pytest.raises(SchemaError, match=r"^dims\.semantic must be in \[0, 1\], got 1\.5$"):
        from_record(full_record() | {"dims": {"semantic": 1.5, "vibes": 0.5}})


def test_ingest_collects_issues(tmp_path):
    path = tmp_path / "data.jsonl"
    lines = [
        json.dumps(full_record()).encode(),
        b"",
        b"{broken json",
        json.dumps({"sample_id": "x"}).encode(),  # missing required fields
        b'{"sample_id": "\xff"}',  # not UTF-8
        json.dumps(full_record() | {"sample_id": "s9"}).encode(),
        "\ufeff".encode() + json.dumps(full_record() | {"sample_id": "s10"}).encode(),  # a BOM
    ]
    path.write_bytes(b"\n".join(lines) + b"\n")
    result = ingest(path)
    assert [s.sample_id for s in result.samples.samples] == ["s1", "s9"]
    assert [i.line_no for i in result.issues] == [3, 4, 5, 7]
    assert "BOM" in result.issues[-1].message
    path.write_bytes(b"\n".join([lines[0], lines[-1]]) + b"\n")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}:2: .*BOM"):
        ingest(path, strict=True)


def test_ingest_strict_raises_with_location(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(full_record()) + "\n{bad\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        ingest(path, strict=True)
    assert f"{path}:2:" in str(err.value)


def test_a_repeated_key_is_refused_not_read_last_wins(tmp_path, capsys):
    good = json.dumps(full_record())
    first = good.replace('"sample_id": "s1"', '"sample_id": "first", "sample_id": "s2"')
    judge = good.replace('"b_judge": 0.7', '"b_judge": 0.7, "b_judge": 0.1')
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join([good, first, judge]) + "\n", encoding="utf-8")
    result = ingest(path)
    assert [s.sample_id for s in result.samples.samples] == ["s1"]
    assert [(i.line_no, i.message) for i in result.issues] == [
        (2, "repeated key 'sample_id'"),
        (3, "repeated key 'b_judge'"),
    ]
    with pytest.raises(SchemaError, match=f"{path}:2: repeated key 'sample_id'"):
        ingest(path, strict=True)
    assert main(["validate", "--input", str(path), "--out", str(tmp_path / "r")]) == 1
    assert "1 valid" in capsys.readouterr().out
    stats = tmp_path / "stats.json"
    stats.write_text('{"semantic": [0.1, 0.9], "semantic": [0.0, 1.0]}', encoding="utf-8")
    with pytest.raises(SchemaError, match="repeated key 'semantic'"):
        load_frozen_stats(stats)


LONE = chr(0xD800)


@pytest.mark.parametrize(
    "bad, where",
    [
        ({"output": "ok " + LONE}, "output: lone surrogate U+D800"),
        ({"reference_text": chr(0xDFFF)}, "reference_text: lone surrogate U+DFFF"),
        ({"evaluator_scores": {"judge" + LONE: 0.5}}, "a key in evaluator_scores"),
        ({"meta": {"tags": ["fine", {"k": "x" + LONE}]}}, "meta.tags[1].k: lone surrogate"),
        ({"meta": [{chr(0xDC00): 1}]}, "a key in meta[0]: lone surrogate U+DC00"),
    ],
)
def test_ingest_refuses_a_lone_surrogate_anywhere_in_a_record(tmp_path, bad, where):
    path = tmp_path / "data.jsonl"
    good = full_record() | {"sample_id": "s2", "output": "smile \U0001F600", "x": "\\ud800"}
    lines = [json.dumps(full_record() | bad), json.dumps(good)]  # ASCII, so \u escapes
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = ingest(path)
    assert [s.sample_id for s in result.samples.samples] == ["s2"]
    assert result.samples.samples[0].output == "smile \U0001F600"  # an escaped pair still loads
    assert [(i.line_no, i.message) for i in result.issues] == [(1, result.issues[0].message)]
    assert where in result.issues[0].message
    result.issues[0].message.encode("utf-8")  # the message itself is writable
    with pytest.raises(SchemaError, match=f"{path}:1: .*lone surrogate"):
        ingest(path, strict=True)


def test_ingest_checks_for_lone_surrogates_only_on_lines_with_an_escape(tmp_path, monkeypatch):
    checked = []
    monkeypatch.setattr(mdqs.io, "_refuse_unwritable", lambda record, where: checked.append(1))
    path = tmp_path / "data.jsonl"
    plain = full_record() | {"output": "caf\u00e9 \U0001F600"}
    lines = [json.dumps(plain, ensure_ascii=False), json.dumps(plain | {"sample_id": "s2"})]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert len(ingest(path).samples) == 2
    assert checked == [1]  # only the second line, written with \u escapes


@pytest.mark.parametrize(
    "bad, where",
    [
        ({"note": "x" + LONE}, "note: lone surrogate U+D800"),
        ({"output": "ok " + LONE}, "output: lone surrogate U+D800"),
        ({"sample_id": chr(0xDC00)}, "sample_id: lone surrogate U+DC00"),
        ({"evaluator_scores": {"judge" + LONE: 0.5}}, "a key in evaluator_scores: lone"),
        ({"meta": {"tags": ["fine", {"k": "x" + LONE}]}}, "meta.tags[1].k: lone surrogate"),
    ],
)
def test_from_record_refuses_a_lone_surrogate_as_ingest_does(tmp_path, bad, where):
    with pytest.raises(SchemaError) as refused:
        from_record(full_record() | bad)
    assert str(refused.value).startswith(where)
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(full_record() | bad) + "\n", encoding="utf-8")
    assert [i.message for i in ingest(path).issues] == [str(refused.value)]
    # a code point beyond the BMP, which JSON escapes as a pair, loads
    smile, _ = from_record(json.loads(json.dumps(full_record() | {"note": "smile \U0001F600"})))
    assert smile.extra["note"] == "smile \U0001F600"


def test_a_failed_write_jsonl_leaves_the_old_file(tmp_path):
    path = tmp_path / "out.jsonl"
    sample, _ = from_record(full_record())
    write_jsonl(path, Batch([sample]))
    before = snapshot(tmp_path)
    unwritable = sample._replace(sample_id="s2", output="x" + LONE)
    for samples in ([unwritable], [sample, unwritable]):
        with pytest.raises(UnicodeEncodeError):
            write_jsonl(path, Batch(samples))
        assert snapshot(tmp_path) == before  # the old bytes, and no temporary file
    with pytest.raises(UnicodeEncodeError):
        write_jsonl(tmp_path / "new.jsonl", Batch([unwritable]))
    assert snapshot(tmp_path) == before


def test_jsonl_file_round_trip(tmp_path):
    (a, a_row), (b, b_row) = (
        from_record(full_record()), from_record(full_record() | {"sample_id": "s2"})
    )
    path = tmp_path / "out.jsonl"
    write_jsonl(path, Batch([a, b], np.array([a_row, b_row])))
    again = ingest(path)
    assert again.issues == []
    assert again.samples.samples == [a, b]
    assert again.samples.dims.tobytes() == np.array([a_row, b_row]).tobytes()
    first = path.read_bytes()
    write_jsonl(path, again.samples)
    assert path.read_bytes() == first



def test_score_all_dims_survive_scored_jsonl_bit_for_bit(tmp_path):
    # the alignment column holds 0.0 before -0.0, so its min is 0.0 and the
    # third sample normalizes to -0.0, a sign the trip must keep
    align = [0.5, 0.0, -0.0, 1.0, 0.25]
    samples = [
        make_sample(
            sample_id=f"s{i}",
            output=" ".join(f"w{j}" for j in range(i, i + 12)),
            reference_text=" ".join(f"w{j}" for j in range(12)),
            extra={"align": a},
        )
        for i, a in enumerate(align)
    ]
    weights = WeightConfig(
        "three", {DimensionId.STRUCTURE: 1, DimensionId.SEMANTIC: 1, DimensionId.ALIGNMENT: 1}
    )
    scored, _ = score_all(Batch(samples), ScoringConfig(weights=weights, alignment_column="align"))
    dims = scored.dims
    assert dims[2, DIMENSION_COLUMN[DimensionId.ALIGNMENT]].hex() == "-0x0.0p+0"
    emit_reports(tmp_path, scored_samples=scored)
    again = ingest(tmp_path / "scored.jsonl")
    assert again.issues == [] and again.samples.samples == samples

    def cells(matrix):
        return [["nan" if v != v else float.hex(v) for v in row] for row in matrix.tolist()]

    assert cells(again.samples.dims) == cells(dims)
    assert {v for row in cells(dims) for v in row} >= {"nan", "-0x0.0p+0"}


# ---------------------------------------------------------------- grid

def test_sanitize_label():
    assert sanitize_label("inflate(0.4)") == "inflate_0.4"
    assert sanitize_label("collude(p-b,0.3)") == "collude_p-b_0.3"
    assert sanitize_label("composite:default") == "composite_default"
    assert sanitize_label("a b") == "a_b"


def grid_spec(**overrides):
    base = dict(
        mode="synthetic",
        rounds=5,
        evaluators=tuple(
            EvaluatorProfile(evaluator_id=f"e{i}", cost=1.0) for i in range(4)
        ),
        producers={"pa": 0.4, "pb": 0.6},
        attacks=(None, Inflate(0.3)),
        ratios=(0.0, 0.5),
        defenses=(Median(), TrimmedMean(0.2)),
    )
    base.update(overrides)
    settings, rest = split_settings(base)
    return SimGridSpec(settings, **rest)


def test_build_grid_full_product():
    spec = grid_spec()
    grid = build_grid(spec, master_seed=7)
    assert len(grid) == 2 * 2 * 2
    ids = [c.config_id for c in grid]
    assert len(set(ids)) == len(ids)
    assert ids[0] == "none-r0-median"
    assert "inflate_0.3-r0.5-trimmed_mean_0.2" in ids
    for config in grid:
        assert config.rng_seed == 7
        assert config.settings is spec.settings
        assert config.settings.rounds == 5


def test_build_grid_synthetic_ignores_signals():
    grid = build_grid(grid_spec(signals=(SingleEvaluator("j"),)), master_seed=0)
    assert all(c.quality_signal is None for c in grid)
    assert len(grid) == 8


def test_build_grid_replay_appends_signal_part():
    spec = grid_spec(
        mode="replay",
        producers=None,
        attacks=(None,),
        ratios=(0.25,),
        defenses=(Median(),),
        signals=(SingleEvaluator("j"),),
    )
    grid = build_grid(spec, master_seed=0)
    assert [c.config_id for c in grid] == ["none-r0.25-median-evaluator_j"]


def test_grid_spec_validation():
    with pytest.raises(SchemaError):
        grid_spec(mode="live")
    with pytest.raises(SimConfigError):
        grid_spec(evaluators=())
    # what a mode needs, and a trust floor above 1/n, fail before any cell runs
    with pytest.raises(SchemaError, match="sim.signals"):
        grid_spec(mode="replay", producers=None)
    with pytest.raises(SchemaError, match="sim.producers"):
        grid_spec(producers=None)
    with pytest.raises(SchemaError, match="sim.defenses.1.: trust floor 0.5 exceeds 1/4"):
        grid_spec(defenses=(Median(), AdaptiveTrust(floor=0.5)))


# -------------------------------------------------------------- config

FULL_YAML = """\
schema: 1
input: data.jsonl
out: reports
seed: 11
weights:
  semantic: 2
  structure: 1
structure:
  min_tokens: 5
  max_tokens: 500
providers:
  semantic: builtin
  alignment: "column:judge"
priors:
  model_rating:
    m1: 1000
    m2: 1200
  cost_efficiency:
    m1: 0.5
    m2: 1.5
normalization:
  mode: batch
audit:
  gate: spearman
  threshold: 0.05
  per_task: true
  variants: [default, calibrated]
synthetic:
  n: 50
  qa_fraction: 0.4
  correlations:
    semantic: 0.8
    structure: 0.5
  evaluators:
    judge: 0.3
  seed: 99
sim:
  mode: synthetic
  rounds: 10
  reward_budget: 2.0
  honest_noise_sd: 0.05
  evaluators:
    - {id: e1, cost: 1, tier: low}
    - {id: e2, cost: 2, tier: high}
  producers:
    pa: 0.4
    pb: 0.6
  attacks:
    - {type: none}
    - {type: inflate, delta: 0.3}
  ratios: [0.0, 0.5]
  defenses:
    - median
    - {type: trimmed_mean, trim_fraction: 0.2}
"""


def test_load_config_full(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(FULL_YAML, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.input_path == "data.jsonl"
    assert cfg.out_dir == "reports"
    assert cfg.seed == 11
    assert cfg.scoring.weights == WeightConfig(
        "custom", {DimensionId.SEMANTIC: 2.0, DimensionId.STRUCTURE: 1.0}
    )
    assert cfg.scoring.structure.min_tokens == 5
    assert cfg.scoring.structure.max_tokens == 500
    assert cfg.scoring.semantic_column is None
    assert cfg.scoring.alignment_column == "judge"
    assert cfg.scoring.model_priors.ratings == {"m1": 1000.0, "m2": 1200.0}
    assert cfg.scoring.cost_priors.ratings == {"m1": 0.5, "m2": 1.5}
    assert cfg.scoring.frozen_stats is None  # batch normalization
    assert cfg.gate == "spearman"
    assert cfg.threshold == 0.05
    assert cfg.per_task is True
    assert cfg.variant_names == ("default", "calibrated")
    # flat correlation map expands to both standard tasks
    synthetic = synthetic_spec(cfg.synthetic)
    assert synthetic.n == 50
    assert synthetic.correlations["qa"][DimensionId.SEMANTIC] == 0.8
    assert synthetic.correlations["summarization"][DimensionId.STRUCTURE] == 0.5
    assert synthetic.evaluator_noise == {"judge": 0.3}
    assert synthetic.rng_seed == 99
    assert cfg.sim.settings.rounds == 10
    assert cfg.sim.settings.reward_budget == 2.0
    assert [p.evaluator_id for p in cfg.sim.settings.evaluators] == ["e1", "e2"]
    assert cfg.sim.settings.producers == {"pa": 0.4, "pb": 0.6}
    assert cfg.sim.attacks == (None, Inflate(0.3))
    assert cfg.sim.ratios == (0.0, 0.5)
    assert cfg.sim.defenses == (Median(), TrimmedMean(0.2))
    assert cfg.sim.signals == (None,)


def test_load_config_defaults_and_none(tmp_path):
    cfg = load_config(None)
    assert cfg == RunConfig()
    assert cfg.scoring.frozen_stats is None  # batch normalization
    # "paper" is the only preset: accepted for old configs, then ignored
    path = tmp_path / "run.yaml"
    path.write_text("audit: {preset: paper}\n", encoding="utf-8")
    assert load_config(path) == RunConfig()


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("schema: 1\nmystery: 3\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_config(path)
    path.write_text("audit:\n  cutoff: 0.5\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_config(path)
    path.write_text("schema: 3\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_config(path)
    path.write_text("seed: true\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_config(path)


def test_a_number_that_yaml_reads_as_text_is_refused_with_its_text(tmp_path, capsys):
    # PyYAML follows YAML 1.1: an exponent without a dot or without a sign
    # loads as a string, so these are refused, quoting what was read
    config = tmp_path / "run.yaml"
    sim = "sim:\n  evaluators: [{id: e1}]\n  producers: {a: 0.5}\n  defenses:\n"
    hint = "write it unquoted, and in YAML give an exponent a dot and a sign (1.0e-3)"
    rate = "sim.defenses[0].learning_rate"
    cases = [
        (sim + f"    - {{type: adaptive_trust, learning_rate: {text}}}\n", rate, text.strip("'\""))
        for text in ("1e-3", "1.0e3", "1E+3", "' 2.5 '", '"0.5"')
    ]
    # a weight or a cost keeps the reader's words, with no "weights: " prefix
    cases += [('weights: {semantic: "0.5"}\n', "weights.semantic", "0.5")]
    cases += [(sim.replace("{id: e1}", '{id: e1, cost: "1"}'), "sim.evaluators[0].cost", "1")]
    for text, where, read in cases:
        config.write_text(text)
        expected = f"{where} must be a number, got str {read!r}; {hint}"
        with pytest.raises(SchemaError) as caught:
            load_config(config)
        assert str(caught.value) == expected
        assert main(["validate", "--config", str(config), "--out", str(tmp_path / "r")]) == 1
        assert expected in capsys.readouterr().err
    # text that is not a finite number gets no hint, and long text is cut
    for text, read in (("nan", "'nan'"), ("'-inf'", "'-inf'"), ("x" * 50, repr("x" * 40) + "...")):
        config.write_text(sim + f"    - {{type: adaptive_trust, learning_rate: {text}}}\n")
        with pytest.raises(SchemaError) as caught:
            load_config(config)
        message = str(caught.value)
        assert message == f"sim.defenses[0].learning_rate must be a number, got str {read}"
    # a dot and a signed exponent load as a float, as before
    config.write_text(sim + "    - {type: adaptive_trust, learning_rate: 1.0e-3}\n")
    (defense,) = load_config(config).sim.defenses
    assert defense.learning_rate == 0.001


def test_load_config_per_task_synthetic(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "synthetic:\n"
        "  n: 20\n"
        "  correlations:\n"
        "    qa: {semantic: 0.9}\n"
        "    summarization: {semantic: 0.3}\n",
        encoding="utf-8",
    )
    correlations = synthetic_spec(load_config(path).synthetic).correlations
    assert correlations["qa"][DimensionId.SEMANTIC] == 0.9
    assert correlations["summarization"][DimensionId.SEMANTIC] == 0.3


def test_frozen_normalization_requires_stats(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("normalization:\n  mode: frozen\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_config(path)


# README and benchmark forms, with the config-id fragment each must keep
ATTACK_FORMS = [
    ({"type": "none"}, "none"),
    ({"type": "inflate", "delta": 0.3}, "inflate_0.3"),
    ({"type": "deflate", "delta": 0.3}, "deflate_0.3"),
    ({"type": "random_noise"}, "random_noise"),
    ({"type": "collude", "target": "model-a", "delta": 0.3}, "collude_model-a_0.3"),
    ({"type": "camouflage", "honest_rounds": 20, "then_delta": 0.3}, "camouflage_20_0.3"),
    ({"type": "inflate"}, "inflate_0.2"),
    ({"type": "camouflage"}, "camouflage_0_0.2"),
]
DEFENSE_FORMS = [
    ("median", "median"),
    ({"type": "mean"}, "mean"),
    ({"type": "median"}, "median"),
    ({"type": "trimmed_mean", "trim_fraction": 0.2}, "trimmed_mean_0.2"),
    ({"type": "adaptive_trust", "learning_rate": 1.0}, "adaptive_trust_lr_1"),
]
SIGNAL_FORMS = [
    ({"type": "composite", "variant": "default"}, "composite_default"),
    ({"type": "baseline", "stat": "median"}, "baseline_median"),
    ({"type": "evaluator", "id": "sts_paraphrase"}, "evaluator_sts_paraphrase"),
]


def test_parse_attack_forms():
    assert parse_attack(None) is None
    assert parse_attack("none") is None
    assert parse_attack({"type": "none"}) is None
    assert parse_attack({"type": "inflate", "delta": 0.4}) == Inflate(0.4)
    assert parse_attack({"type": "random_noise"}) == RandomNoise()
    assert parse_attack({"type": "collude", "target": "p", "delta": 0.1}) == Collude("p", 0.1)
    parsed = [parse_attack(entry) for entry, _ in ATTACK_FORMS]
    assert [sanitize_label(attack_label(a)) for a in parsed] == [f for _, f in ATTACK_FORMS]
    assert {type(a) for a in parsed if a is not None} == set(ATTACKS.values())
    for bad in (
        {"type": "jam"},
        {"type": "inflate", "delta": -1},
        "inflate",
        {"type": "inflate", "delt": 0.5},
        {"type": "inflate", "delta": None},
        {"type": "collude", "target_producer": "p"},
        {"type": "collude", "delta": 0.1},
        {"type": "camouflage", "honest_rounds": 2.7},
        {"type": ["inflate"]},
    ):
        with pytest.raises(SchemaError):
            parse_attack(bad)


def test_parse_defense_forms():
    assert parse_defense("mean") == Mean()
    assert parse_defense({"type": "median"}) == Median()
    assert parse_defense({"type": "adaptive_trust", "learning_rate": 2.0}) == AdaptiveTrust(2.0)
    assert parse_defense({"type": "adaptive_trust", "floor": 0.02}) == AdaptiveTrust(1.0, 0.02)
    assert parse_defense({"type": "adaptive_trust", "floor": None}) == AdaptiveTrust()
    parsed = [parse_defense(entry) for entry, _ in DEFENSE_FORMS]
    assert [sanitize_label(d.label()) for d in parsed] == [f for _, f in DEFENSE_FORMS]
    assert {type(d) for d in parsed} == set(DEFENSES.values())
    for bad in (
        {"type": "firewall"},
        {"type": "trimmed_mean", "trim_fraction": 0.7},
        {"type": "median", "trim_fraction": 0.2},
        {"type": "adaptive_trust", "floor": float("nan")},
    ):
        with pytest.raises(SchemaError):
            parse_defense(bad)


def test_parse_signal_forms():
    assert parse_signal({"type": "evaluator", "id": "e3"}) == SingleEvaluator("e3")
    assert parse_signal({"type": "baseline"}).stat == "median"
    assert parse_signal({"type": "composite", "variant": "calibrated"}).variant == "calibrated"
    parsed = [parse_signal(entry) for entry, _ in SIGNAL_FORMS]
    assert [sanitize_label(signal_label(s)) for s in parsed] == [f for _, f in SIGNAL_FORMS]
    assert {type(s) for s in parsed} == set(SIGNALS.values())
    for bad in (
        {"type": "oracle"},
        {"type": "evaluator"},
        {"type": "composite", "varient": "calibrated"},
        {"type": "composite", "variant": "mystery"},
        {"type": "baseline", "stat": "mode"},
        {"type": "evaluator", "id": 3},
    ):
        with pytest.raises(SchemaError):
            parse_signal(bad)


def test_every_field_read_from_a_config_entry_has_a_reader():
    # _from_fields looks each field's reader up by its annotation, so a missing
    # reader would be a KeyError (exit 2) on the first config that sets the key
    built = [StructurePolicy, EvaluatorProfile, SimSettings]
    for cls in (*built, *ATTACKS.values(), *DEFENSES.values(), *SIGNALS.values()):
        for name, annotation in cls._fields.items():
            assert annotation in _FIELD_READERS, f"{cls.__name__}.{name}: {annotation}"


def test_resolve_weights_precedence(tmp_path):
    assert resolve_weights(RunConfig()) is DEFAULT_WEIGHTS
    inline = RunConfig(
        scoring=ScoringConfig(weights=WeightConfig("custom", {DimensionId.SEMANTIC: 1.0}))
    )
    assert resolve_weights(inline).dimensions() == frozenset({DimensionId.SEMANTIC})
    path = tmp_path / "named.yaml"
    path.write_text("weights: no_priors\n", encoding="utf-8")
    named = load_config(path)
    assert named.scoring.weights.name == "no_priors"
    assert DimensionId.MODEL_PRIOR not in resolve_weights(named).dimensions()
    # CLI flag beats everything in the file
    assert resolve_weights(inline, override_name="equal_weights").weights[
        DimensionId.AGREEMENT
    ] == pytest.approx(1 / 6)
    with pytest.raises(SchemaError):
        resolve_weights(RunConfig(), override_name="mystery")
    path.write_text("weights: mystery\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="^weights must be one of"):
        load_config(path)


def test_readme_config_block_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    path = tmp_path / "run.yaml"
    path.write_text(readme.split("```yaml\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    config = load_config(path)
    assert resolve_weights(config) == DEFAULT_WEIGHTS
    assert len(build_grid(config.sim, config.seed)) == 8


def test_frozen_stats_round_trip(tmp_path):
    path = tmp_path / "stats.json"
    path.write_text(json.dumps({"semantic": [0.1, 0.9], "structure": [0.0, 1.0]}))
    stats = load_frozen_stats(path)
    assert stats == {
        DimensionId.SEMANTIC: (0.1, 0.9),
        DimensionId.STRUCTURE: (0.0, 1.0),
    }
    # a zero-range pair, as score_all writes for a constant column, is accepted
    path.write_text(json.dumps({"structure": [0.4, 0.4]}))
    assert load_frozen_stats(path) == {DimensionId.STRUCTURE: (0.4, 0.4)}
    path.write_text(json.dumps({"semantic": [0.1, 0.9], "structure": [0.9, 0.1]}))
    with pytest.raises(SchemaError, match=r"stats\.structure .*min <= max"):
        load_frozen_stats(path)
    path.write_text(json.dumps({"semantic": [0.1]}))
    with pytest.raises(SchemaError):
        load_frozen_stats(path)
    path.write_text(json.dumps({"vibes": [0, 1]}))
    with pytest.raises(SchemaError):
        load_frozen_stats(path)
    path.write_text('{"semantic": ' + "[" * 10_000)
    with pytest.raises(SchemaError):
        load_frozen_stats(path)


def test_build_scoring_config_wires_providers(tmp_path):
    stats_path = tmp_path / "stats.json"
    stats_path.write_text(json.dumps({"semantic": [0.0, 1.0]}))
    path = tmp_path / "run.yaml"
    path.write_text(
        "providers: {semantic: 'column:sts', alignment: 'column:judge'}\n"
        f"normalization: {{mode: frozen, stats: '{stats_path}'}}\n",
        encoding="utf-8",
    )
    weights = variant(DEFAULT_WEIGHTS, "no_priors")
    scoring = build_scoring_config(load_config(path), weights)
    assert scoring.weights is weights
    assert scoring.semantic_column == "sts"
    assert scoring.alignment_column == "judge"
    assert scoring.frozen_stats == {DimensionId.SEMANTIC: (0.0, 1.0)}
    plain = build_scoring_config(RunConfig(), DEFAULT_WEIGHTS)
    assert plain.semantic_column is None  # the built-in semantic scorer
    assert plain.alignment_column is None


# ------------------------------------------------------------ emission

def snapshot(directory):
    """{file name: bytes} of everything in `directory`, hidden files included."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_emit_reports_csv_format(tmp_path):
    emit_reports(tmp_path, dimension_means=[("x", "d", 0.25, None), ("y", "d", 2, 0.1)])
    path = tmp_path / "dimension_means_by_producer.csv"
    assert path.read_text(encoding="utf-8") == "producer,dimension,mean,n\nx,d,0.25,\ny,d,2,0.1\n"
    # the dialect has no quoting, so text cells are flattened
    emit_reports(tmp_path, dimension_means=[('needs,"quoting"\nhere', "d", 3, 1)])
    assert path.read_text(encoding="utf-8").splitlines()[1] == "needs;'quoting' here,d,3,1"


def test_emit_reports_json_format(tmp_path):
    emit_reports(
        tmp_path,
        normalization_stats={DimensionId.SEMANTIC: (0.25, 1.0)},
        ingest_issues=[IngestIssue(line_no=3, message="naïve, \"quoted\"")],
    )
    stats = (tmp_path / "normalization_stats.json").read_text(encoding="utf-8")
    assert stats == '{\n  "semantic": [\n    0.25,\n    1.0\n  ]\n}\n'
    issues = (tmp_path / "ingest_errors.jsonl").read_text(encoding="utf-8")
    assert issues == '{"line":3,"error":"naïve, \\"quoted\\""}\n'
    before = snapshot(tmp_path)
    with pytest.raises(ValueError):
        emit_reports(tmp_path, normalization_stats={DimensionId.SEMANTIC: (float("nan"), 1.0)})
    assert snapshot(tmp_path) == before


def test_emit_reports_merges_and_sorts_the_manifest(tmp_path):
    (tmp_path / "manifest.json").write_text(
        json.dumps({"schema": 1, "files": [{"path": "ablation_grid.csv", "series": "old"}]})
    )
    emit_reports(tmp_path, dimension_means=[])
    emit_reports(tmp_path, ablation=[], ingest_issues=[IngestIssue(line_no=1, message="x")])
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest == {
        "schema": 1,
        "files": [
            {"path": "ablation_grid.csv", "series": "ablation_grid"},
            {"path": "dimension_means_by_producer.csv", "series": "dimension_means_by_producer"},
            {"path": "ingest_errors.jsonl", "series": "ingest_errors"},
        ],
    }
    before = (tmp_path / "manifest.json").read_bytes()
    emit_reports(tmp_path, ablation=[])
    assert (tmp_path / "manifest.json").read_bytes() == before


def report_inputs():
    pairs = []
    for i in range(12):
        g = i / 11.0
        dims = {
            "model_prior": 0.4 + 0.2 * g,
            "cost_prior": 0.45 + 0.1 * g,
            "structure": g,
            "semantic": g,
            "alignment": 1.0 - g,
            "agreement": 1.0 - g,
        }
        pairs.append(
            scored_sample(i, task="qa" if i % 2 == 0 else "summarization", gt=g, dims=dims)
        )
    scored = batch(pairs)
    report = audit(scored)
    calibration = calibrate(report, scored, threshold=0.0)
    report = with_composites(report, scored, {"default": DEFAULT_WEIGHTS})
    grid_rows = ablation_grid(scored, VARIANTS)
    cell = sim_config(
        config_id="none-r0-median",
        evaluators=tuple(EvaluatorProfile(evaluator_id=f"e{i}") for i in range(3)),
        defense=Median(),
        rounds=3,
        producers={"pa": 0.4, "pb": 0.6},
        rng_seed=5,
    )
    sim_result = run_single(cell)
    return {
        "validation": validate_dataset(scored),
        "ingest_issues": [IngestIssue(line_no=4, message="bad json")],
        "scored_samples": scored,
        "normalization_stats": {DimensionId.SEMANTIC: (0.0, 1.0)},
        "audit_report": report,
        "ablation": grid_rows,
        "calibration": calibration,
        "sim_results": [(cell, sim_result)],
        "dimension_means": dimension_means_by_producer(scored),
    }


def test_emit_reports_writes_expected_files(tmp_path):
    entries = emit_reports(tmp_path, **report_inputs())
    emitted = {e.path for e in entries}
    assert emitted == {
        "validation.json",
        "ingest_errors.jsonl",
        "scored.jsonl",
        "normalization_stats.json",
        "correlation_summary.csv",
        "dimension_correlations.csv",
        "taskwise_correlations.csv",
        "audit.json",
        "ablation_grid.csv",
        "calibration.json",
        "defense_comparison.csv",
        "sim_none-r0-median.json",
        "dimension_means_by_producer.csv",
    }
    for e in entries:
        assert (tmp_path / e.path).exists()
    assert (tmp_path / "manifest.json").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert [f["path"] for f in manifest["files"]] == sorted(emitted)
    # one row per dimension plus the header
    dim_csv = (tmp_path / "dimension_correlations.csv").read_text(encoding="utf-8")
    lines = dim_csv.strip().split("\n")
    assert lines[0] == "name,pearson,spearman,n"
    assert len(lines) == 1 + 6
    comparison = (tmp_path / "defense_comparison.csv").read_text(encoding="utf-8")
    assert comparison.splitlines()[1].startswith("none-r0-median,ok,none,")


def test_emit_reports_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    emit_reports(a, **report_inputs())
    emit_reports(b, **report_inputs())
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_emit_reports_sim_error_entry(tmp_path):
    from mdqs.model import SimError

    config = sim_config(
        config_id="broken",
        evaluators=(EvaluatorProfile(evaluator_id="e0"),),
        defense=Median(),
        rounds=2,
        producers={"p": 0.5},
    )
    error = SimError(config_id="broken", error_type="MissingColumn", message="column 'x'")
    emit_reports(tmp_path, sim_results=[(config, error)])
    comparison = (tmp_path / "defense_comparison.csv").read_text(encoding="utf-8")
    row = comparison.splitlines()[1]
    assert row.startswith("broken,error,")
    assert "column 'x'" in row
    entry = json.loads((tmp_path / "sim_broken.json").read_text(encoding="utf-8"))
    assert entry["status"] == "error"
    assert entry["error_type"] == "MissingColumn"


def test_emit_reports_nothing_means_no_files(tmp_path):
    entries = emit_reports(tmp_path)
    assert entries == []
    assert json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))["files"] == []
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_emit_reports_rejects_an_unknown_result_before_writing(tmp_path):
    with pytest.raises(TypeError):
        emit_reports(tmp_path / "r", scored=[])
    assert not (tmp_path / "r").exists()


def second_sim():
    config = sim_config(
        config_id="inflate-r0.5-median",
        evaluators=tuple(EvaluatorProfile(evaluator_id=f"e{i}") for i in range(4)),
        defense=Median(),
        rounds=3,
        producers={"pa": 0.4, "pb": 0.6},
        attack=Inflate(delta=0.3),
        attack_ratio=0.5,
        rng_seed=6,
    )
    return config, run_single(config)


@pytest.mark.parametrize(
    "failing", ["validation.json", "audit.json", "sim_inflate-r0.5-median.json", "manifest.json"]
)
def test_a_failed_emit_leaves_the_directory_as_it_was(tmp_path, monkeypatch, failing):
    emit_reports(tmp_path, **report_inputs())
    before = snapshot(tmp_path)
    real_open = open

    def open_that_fails(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        if Path(path).name == f".{failing}.tmp":
            fh.write("half a file")
            fh.close()
            raise OSError(28, "No space left on device")
        return fh

    # a second run with different results: one more sim config, another ingest issue
    inputs = report_inputs()
    inputs["sim_results"].append(second_sim())
    inputs["ingest_issues"] = [IngestIssue(line_no=9, message="truncated")]
    monkeypatch.setattr("builtins.open", open_that_fails)
    with pytest.raises(MdqsError, match=str(tmp_path)):
        emit_reports(tmp_path, **inputs)
    monkeypatch.undo()
    assert snapshot(tmp_path) == before
    # and the same results written without the fault do change the directory
    emit_reports(tmp_path, **inputs)
    after = snapshot(tmp_path)
    assert set(after) == set(before) | {"sim_inflate-r0.5-median.json"}
    assert after["manifest.json"] != before["manifest.json"]


def small_grid(n=4):
    return [
        sim_config(
            config_id=f"cell{i}",
            evaluators=tuple(EvaluatorProfile(evaluator_id=f"e{j}") for j in range(3)),
            defense=Median(),
            rounds=40,
            producers={"pa": 0.4, "pb": 0.6},
            rng_seed=i,
        )
        for i in range(n)
    ]


def test_emit_reports_writes_a_stream_of_cells_as_it_writes_a_list(tmp_path):
    grid = small_grid()
    entries = emit_reports(tmp_path / "list", sim_results=list(zip(grid, run_experiment(grid))))
    streamed = emit_reports(
        tmp_path / "stream", sim_results=((config, run_single(config)) for config in grid)
    )
    assert streamed == entries
    written = snapshot(tmp_path / "stream")
    assert written == snapshot(tmp_path / "list")
    assert set(written) == {
        "defense_comparison.csv", "manifest.json", *(f"sim_cell{i}.json" for i in range(4))
    }
    rows = written["defense_comparison.csv"].decode().splitlines()
    assert [row.split(",")[0] for row in rows] == ["config_id", "cell0", "cell1", "cell2", "cell3"]


def test_emit_reports_holds_one_cell_at_a_time(tmp_path):
    grid = small_grid()
    earlier_alive = []  # per pair drawn: whether an earlier outcome is still reachable

    def pairs():
        refs = []
        for config in grid:
            gc.collect()
            earlier_alive.append(any(ref() is not None for ref in refs))
            outcome = run_single(config)
            refs.append(weakref.ref(outcome))
            yield config, outcome
            del outcome

    emit_reports(tmp_path, sim_results=pairs())
    assert earlier_alive == [False] * len(grid)
    assert {p.name for p in tmp_path.iterdir()} >= {f"sim_cell{i}.json" for i in range(4)}


# ------------------------------------------------------------ the indented JSON writer

_SCALARS = (
    None, True, False, 0, 1, -1, 2**70, -(10**40), 0.0, -0.0, 5e-324, 1e16, 0.1, -2.5e-7,
    "", "plain", "naïve", "日本語", "😀", "  ", "\x00\x1f\x7f", 'q"\\/\n\t',
)
_KEYS = ("", "k", "ключ", " ", "\x01\x1b", 'a"b\\', 2, -3, 2**65, 1.5, -0.0, 1e16, True,
         False, None)


def _random_json(rng, depth):
    """A random JSON value: containers down to depth 5, then scalars."""
    roll = rng.random()
    if depth >= 5 or roll < 0.3:
        pick = rng.random()
        if pick < 0.15:
            return rng.random() * 10.0 ** rng.randint(-30, 30)
        if pick < 0.2:
            return rng.getrandbits(rng.randint(1, 200)) - 2**100
        return rng.choice(_SCALARS)
    n = rng.choice((0, 1, 1, 2, 3, 5))
    if roll < 0.6:
        return {rng.choice(_KEYS): _random_json(rng, depth + 1) for _ in range(n)}
    items = [_random_json(rng, depth + 1) for _ in range(n)]
    return tuple(items) if roll < 0.7 else items


def _random_document(rng):
    """A random tree, and beside it one sub-object reached at two depths and
    one flat dict repeated in a list (as rounds share a trust snapshot)."""
    shared = {"s": [True, 1, 1.0, "x"], "t": _random_json(rng, 3)}
    flat = {key: rng.choice(_SCALARS) for key in rng.sample(_KEYS, 4)}
    return {
        "tree": _random_json(rng, 0),
        "shared": [shared, {"again": (shared,)}],
        "rounds": [flat] * rng.randint(1, 4),
        "mixed": [True, 1, False, 0, None, (), {}, []],
    }


def written(obj) -> str:
    out = io.StringIO()
    mdqs.io._json(obj)(out)
    return out.getvalue()


def test_json_writer_matches_json_dumps_indent_2():
    rng = random.Random(20261018)
    for i in range(3000):
        doc = _random_document(rng) if i % 2 else _random_json(rng, 0)
        expected = json.dumps(doc, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
        assert written(doc) == expected, doc


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_json_writer_refuses_nan_and_infinity_like_json(bad):
    for doc in (bad, [bad], {"a": [1, bad]}, {"a": {"b": bad}}, {bad: 1}, {"a": {bad: [1]}}):
        with pytest.raises(ValueError):
            json.dumps(doc, indent=2, allow_nan=False)
        with pytest.raises(ValueError):
            written(doc)


def test_json_writer_refuses_a_non_json_value_like_json():
    for doc in (object(), {"a": {1, 2}}, [{"a": [object()]}], {"a": {(1, 2): [1]}}, {(1,): 1}):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, allow_nan=False)
        with pytest.raises(TypeError):
            written(doc)


def test_jsonl_writer_matches_compact_json_dumps(tmp_path):
    """One shared encoder writes every record as json.dumps would."""
    def dumps(record):
        return json.dumps(record, ensure_ascii=False, allow_nan=False, separators=(",", ":"))

    rng = random.Random(20261020)
    records = [_random_document(rng) if i % 2 else _random_json(rng, 0) for i in range(1000)]
    out = io.StringIO()
    mdqs.io._jsonl(records)(out)
    assert out.getvalue() == "".join(dumps(r) + "\n" for r in records)
    # a sample's record: non-ASCII text, escapes, -0.0, a huge integer, nested extras
    sample, row = from_record(
        full_record()
        | {"output": 'naïve 日本語 😀 q"\\/\n\t\x00\x1f\x7f', "gt": -0.0, "big": 2**70}
        | {"nested": {"ключ": [None, True, -(10**40), {"e": 5e-324}]}}
    )
    write_jsonl(tmp_path / "data.jsonl", Batch([sample], np.array([row])))
    written_line = (tmp_path / "data.jsonl").read_text(encoding="utf-8")
    assert written_line == dumps(to_record(sample, row)) + "\n"
    assert '"gt":-0.0' in written_line and "😀" in written_line
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            mdqs.io._jsonl([{"a": [1, {"b": bad}]}])(io.StringIO())


def test_writing_a_sim_report_leaves_no_reference_cycle(tmp_path):
    config = sim_config(
        config_id="none-r0-mean",
        evaluators=tuple(EvaluatorProfile(evaluator_id=f"e{i}") for i in range(4)),
        defense=Mean(),
        rounds=200,
        producers={"pa": 0.4, "pb": 0.6},
        rng_seed=3,
    )
    result = run_single(config)
    assert len(result.trust_trajectory) == 200
    gc.collect()
    gc.disable()
    try:
        emit_reports(tmp_path, sim_results=[(config, result)])
        assert gc.collect() == 0
    finally:
        gc.enable()
