"""Serialization, config parsing, grid expansion, and report emission."""

import json

import pytest

from conftest import make_sample, scored_sample
from mdqs.audit import audit, calibrate, dimension_means_by_producer, ablation_grid
from mdqs.composite import PAPER_PRESET
from mdqs.errors import MissingColumn, MissingReferenceText, SchemaError
from mdqs.io import (
    EmittedFile,
    IngestIssue,
    RunConfig,
    SimGridSpec,
    build_grid,
    build_scoring_config,
    check_required_columns,
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
    to_record,
    update_manifest,
    write_csv,
    write_json,
    write_jsonl,
)
from mdqs.model import (
    DEFAULT_WEIGHTS,
    DimensionId,
    EvaluatorProfile,
    validate_dataset,
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
    SimConfig,
    SingleEvaluator,
    TrimmedMean,
    attack_label,
    defense_label,
    run_single,
    signal_label,
)
from mdqs.scoring import CharNgramSemanticProvider, ColumnProvider


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
    sample = from_record(full_record())
    assert sample.sample_id == "s1"
    assert sample.task.is_qa
    assert sample.reference_score == 0.8
    assert sample.dimension_scores[DimensionId.SEMANTIC] == 0.9
    assert sample.extra == {"run_tag": "batch-7", "latency_ms": 412}
    rec = to_record(sample)
    assert rec == full_record() | {
        "evaluator_scores": {"a_judge": 0.4, "b_judge": 0.7}
    }
    # key order is fixed: schema first, extras last
    keys = list(rec)
    assert keys[0] == "schema"
    assert keys[-2:] == ["run_tag", "latency_ms"]
    assert list(rec["evaluator_scores"]) == ["a_judge", "b_judge"]


def test_record_minimal():
    rec = {
        "sample_id": "s2",
        "task": "summarization",
        "producer_id": "m",
        "query": "q",
        "output": "o",
    }
    sample = from_record(rec)
    assert sample.evaluator_scores == {}
    assert sample.reference_score is None
    assert sample.dimension_scores is None
    out = to_record(sample)
    assert "gt" not in out
    assert "dims" not in out
    assert out["schema"] == 1


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
        {"evaluator_scores": {"j": float("nan")}},
        {"gt": float("inf")},
        {"gt": 10**400},
        {"dims": {"semantic": float("-inf")}},
        {"dims": [0.5]},
    ):
        with pytest.raises(SchemaError):
            from_record(full_record() | bad)


def test_ingest_collects_issues(tmp_path):
    path = tmp_path / "data.jsonl"
    lines = [
        json.dumps(full_record()).encode(),
        b"",
        b"{broken json",
        json.dumps({"sample_id": "x"}).encode(),  # missing required fields
        b'{"sample_id": "\xff"}',  # not UTF-8
        json.dumps(full_record() | {"sample_id": "s9"}).encode(),
    ]
    path.write_bytes(b"\n".join(lines) + b"\n")
    result = ingest(path)
    assert [s.sample_id for s in result.samples] == ["s1", "s9"]
    assert [i.line_no for i in result.issues] == [3, 4, 5]


def test_ingest_strict_raises_with_location(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(full_record()) + "\n{bad\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        ingest(path, strict=True)
    assert f"{path}:2:" in str(err.value)


def test_jsonl_file_round_trip(tmp_path):
    samples = [from_record(full_record()), from_record(full_record() | {"sample_id": "s2"})]
    path = tmp_path / "out.jsonl"
    write_jsonl(path, samples)
    again = ingest(path)
    assert again.issues == []
    assert again.samples == samples
    first = path.read_bytes()
    write_jsonl(path, again.samples)
    assert path.read_bytes() == first


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
    return SimGridSpec(**base)


def test_build_grid_full_product():
    grid = build_grid(grid_spec(), master_seed=7)
    assert len(grid) == 2 * 2 * 2
    ids = [c.config_id for c in grid]
    assert len(set(ids)) == len(ids)
    assert ids[0] == "none-r0-median"
    assert "inflate_0.3-r0.5-trimmed_mean_0.2" in ids
    for config in grid:
        assert config.rng_seed == 7
        assert config.rounds == 5


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
    with pytest.raises(SchemaError):
        grid_spec(evaluators=())


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
    assert cfg.weights_name is None
    assert cfg.weights_inline == {DimensionId.SEMANTIC: 2.0, DimensionId.STRUCTURE: 1.0}
    assert cfg.structure.min_tokens == 5
    assert cfg.structure.max_tokens == 500
    assert cfg.semantic_spec == "builtin"
    assert cfg.alignment_column == "judge"
    assert cfg.model_priors.ratings == {"m1": 1000.0, "m2": 1200.0}
    assert cfg.cost_priors.ratings == {"m1": 0.5, "m2": 1.5}
    assert cfg.normalization_mode == "batch"
    assert cfg.gate == "spearman"
    assert cfg.threshold == 0.05
    assert cfg.per_task is True
    assert cfg.variant_names == ("default", "calibrated")
    # flat correlation map expands to both standard tasks
    assert cfg.synthetic.n == 50
    assert cfg.synthetic.correlations["qa"][DimensionId.SEMANTIC] == 0.8
    assert cfg.synthetic.correlations["summarization"][DimensionId.STRUCTURE] == 0.5
    assert cfg.synthetic.evaluator_noise == {"judge": 0.3}
    assert cfg.synthetic.rng_seed == 99
    assert cfg.sim.rounds == 10
    assert cfg.sim.reward_budget == 2.0
    assert [p.evaluator_id for p in cfg.sim.evaluators] == ["e1", "e2"]
    assert cfg.sim.producers == {"pa": 0.4, "pb": 0.6}
    assert cfg.sim.attacks == (None, Inflate(0.3))
    assert cfg.sim.ratios == (0.0, 0.5)
    assert cfg.sim.defenses == (Median(), TrimmedMean(0.2))
    assert cfg.sim.signals == (None,)


def test_load_config_defaults_and_none():
    cfg = load_config(None)
    assert cfg == RunConfig()
    assert cfg.normalization_mode == "batch"
    assert cfg.preset == "paper"


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
    cfg = load_config(path)
    assert cfg.synthetic.correlations["qa"][DimensionId.SEMANTIC] == 0.9
    assert cfg.synthetic.correlations["summarization"][DimensionId.SEMANTIC] == 0.3


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
    assert [sanitize_label(defense_label(d)) for d in parsed] == [f for _, f in DEFENSE_FORMS]
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


def test_resolve_weights_precedence():
    assert resolve_weights(RunConfig()) is DEFAULT_WEIGHTS
    inline = RunConfig(weights_inline={DimensionId.SEMANTIC: 1.0})
    assert resolve_weights(inline).dimensions() == frozenset({DimensionId.SEMANTIC})
    named = RunConfig(weights_name="no_priors")
    assert DimensionId.MODEL_PRIOR not in resolve_weights(named).dimensions()
    # CLI flag beats everything in the file
    both = RunConfig(weights_name="no_priors", weights_inline={DimensionId.SEMANTIC: 1.0})
    assert resolve_weights(both, override_name="equal_weights").weights[
        DimensionId.AGREEMENT
    ] == pytest.approx(1 / 6)
    with pytest.raises(SchemaError):
        resolve_weights(RunConfig(weights_name="mystery"))


def test_frozen_stats_round_trip(tmp_path):
    path = tmp_path / "stats.json"
    write_json(path, {"semantic": [0.1, 0.9], "structure": [0.0, 1.0]})
    stats = load_frozen_stats(path)
    assert stats == {
        DimensionId.SEMANTIC: (0.1, 0.9),
        DimensionId.STRUCTURE: (0.0, 1.0),
    }
    write_json(path, {"semantic": [0.1]})
    with pytest.raises(SchemaError):
        load_frozen_stats(path)
    write_json(path, {"vibes": [0, 1]})
    with pytest.raises(SchemaError):
        load_frozen_stats(path)


def test_build_scoring_config_wires_providers(tmp_path):
    stats_path = tmp_path / "stats.json"
    write_json(stats_path, {"semantic": [0.0, 1.0]})
    cfg = RunConfig(
        semantic_spec="column:sts",
        alignment_column="judge",
        normalization_mode="frozen",
        normalization_stats_path=str(stats_path),
    )
    scoring = build_scoring_config(cfg, DEFAULT_WEIGHTS)
    assert isinstance(scoring.semantic_provider, ColumnProvider)
    assert scoring.semantic_provider.column == "sts"
    assert scoring.alignment_provider.column == "judge"
    assert scoring.frozen_stats == {DimensionId.SEMANTIC: (0.0, 1.0)}
    plain = build_scoring_config(RunConfig(), DEFAULT_WEIGHTS)
    assert isinstance(plain.semantic_provider, CharNgramSemanticProvider)
    assert plain.alignment_provider is None


def test_check_required_columns_fails_fast():
    scoring = build_scoring_config(RunConfig(alignment_column="judge"), DEFAULT_WEIGHTS)
    good = make_sample(
        sample_id="ok", reference_text="ref", evaluator_scores={"judge": 0.5}
    )
    check_required_columns([good], scoring)
    no_ref = make_sample(sample_id="bad", evaluator_scores={"judge": 0.5})
    with pytest.raises(MissingReferenceText):
        check_required_columns([no_ref], scoring)
    no_col = make_sample(sample_id="bad2", reference_text="ref")
    with pytest.raises(MissingColumn):
        check_required_columns([no_col], scoring)


# ------------------------------------------------------------ emission

def test_write_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], [("x", 0.25, None), ("y", 2, 0.1)])
    assert path.read_text(encoding="utf-8") == "a,b,c\nx,0.25,\ny,2,0.1\n"
    with pytest.raises(ValueError):
        write_csv(path, ["a"], [("needs,quoting",)])


def test_write_json_format(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"b": 1, "a": [1.5, None]})
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text) == {"b": 1, "a": [1.5, None]}
    with pytest.raises(ValueError):
        write_json(path, {"x": float("nan")})


def test_update_manifest_merges_and_sorts(tmp_path):
    update_manifest(tmp_path, [EmittedFile("b.csv", "beta")])
    update_manifest(tmp_path, [EmittedFile("a.json", "alpha"), EmittedFile("b.csv", "beta2")])
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest == {
        "schema": 1,
        "files": [
            {"path": "a.json", "series": "alpha"},
            {"path": "b.csv", "series": "beta2"},
        ],
    }
    before = (tmp_path / "manifest.json").read_bytes()
    update_manifest(tmp_path, [EmittedFile("a.json", "alpha")])
    assert (tmp_path / "manifest.json").read_bytes() == before


def report_inputs():
    samples = []
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
        samples.append(
            scored_sample(i, task="qa" if i % 2 == 0 else "summarization", gt=g, dims=dims)
        )
    report = audit(samples, composites={"default": DEFAULT_WEIGHTS})
    grid_rows = ablation_grid(samples, PAPER_PRESET)
    calibration = calibrate(samples, threshold=0.0)
    sim_config = SimConfig(
        config_id="none-r0-median",
        evaluators=tuple(EvaluatorProfile(evaluator_id=f"e{i}") for i in range(3)),
        defense=Median(),
        rounds=3,
        producers={"pa": 0.4, "pb": 0.6},
        rng_seed=5,
    )
    sim_result = run_single(sim_config)
    return {
        "validation": validate_dataset(samples),
        "ingest_issues": [IngestIssue(line_no=4, message="bad json")],
        "scored_samples": samples,
        "normalization_stats": {DimensionId.SEMANTIC: (0.0, 1.0)},
        "audit_report": report,
        "ablation": grid_rows,
        "calibration": calibration,
        "sim_results": [(sim_config, sim_result)],
        "dimension_means": dimension_means_by_producer(samples),
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

    config = SimConfig(
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
