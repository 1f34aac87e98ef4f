"""End-to-end command line behavior, run in process through main()."""

import json
from pathlib import Path

import pytest

from conftest import FIXTURES, scored_sample
from mdqs.cli import main
from mdqs.errors import SchemaError
from mdqs.io import ingest, load_config, to_record, write_jsonl


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("MDQS_SEED", raising=False)


def planted_path(tmp_path, n=24):
    samples = []
    for i in range(n):
        g = i / (n - 1)
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
    path = tmp_path / "planted.jsonl"
    write_jsonl(path, samples)
    return path


# ------------------------------------------------------------- exit codes

def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "command" in capsys.readouterr().out


def test_no_command_is_usage_error(capsys):
    assert main([]) == 64
    assert "usage error" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 64


def test_missing_input_is_usage_error(tmp_path, capsys):
    assert main(["score", "--out", str(tmp_path / "r")]) == 64
    assert "input" in capsys.readouterr().err


def test_nonexistent_input_is_usage_error(tmp_path):
    assert main(
        ["score", "--input", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "r")]
    ) == 64


def test_missing_out_is_usage_error(tmp_path):
    data = planted_path(tmp_path)
    assert main(["validate", "--input", str(data)]) == 64


def test_domain_error_exits_one(tmp_path, capsys):
    # audit needs at least two referenced samples; this dataset has none
    path = tmp_path / "bare.jsonl"
    path.write_text(
        json.dumps(
            {"sample_id": "s1", "task": "qa", "producer_id": "m", "query": "q", "output": "o"}
        )
        + "\n",
        encoding="utf-8",
    )
    assert main(["audit", "--input", str(path), "--out", str(tmp_path / "r")]) == 1
    assert "error:" in capsys.readouterr().err


def test_strict_malformed_line_exits_one(tmp_path):
    data = planted_path(tmp_path)
    data.write_text(data.read_text(encoding="utf-8") + "{oops\n", encoding="utf-8")
    out = tmp_path / "r"
    assert main(["validate", "--input", str(data), "--out", str(out), "--strict"]) == 1


# --------------------------------------------------------------- validate

def test_validate_clean_dataset(tmp_path, capsys):
    data = planted_path(tmp_path)
    out = tmp_path / "r"
    assert main(["validate", "--input", str(data), "--out", str(out)]) == 0
    assert "24 valid" in capsys.readouterr().out
    report = json.loads((out / "validation.json").read_text(encoding="utf-8"))
    assert report["invalid"] == 0


def test_validate_flags_duplicates(tmp_path):
    data = planted_path(tmp_path)
    first = ingest(data).samples[0]
    data.write_text(
        data.read_text(encoding="utf-8") + json.dumps(to_record(first)) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "r"
    assert main(["validate", "--input", str(data), "--out", str(out)]) == 1
    report = json.loads((out / "validation.json").read_text(encoding="utf-8"))
    assert report["invalid"] == 1


def test_validate_counts_malformed_lines(tmp_path):
    data = planted_path(tmp_path)
    data.write_text(data.read_text(encoding="utf-8") + "not json\n", encoding="utf-8")
    out = tmp_path / "r"
    assert main(["validate", "--input", str(data), "--out", str(out)]) == 1
    issues = (out / "ingest_errors.jsonl").read_text(encoding="utf-8").strip().split("\n")
    assert len(issues) == 1


SIM = "sim:\n  evaluators: [{id: e1}]\n  producers: {a: 0.5}\n"


BAD_CONFIGS = [
    (SIM + "  attacks: [{type: inflate, delt: 0.5}]\n", "delt"),
    (SIM + "  signals: [{type: composite, varient: calibrated}]\n", "varient"),
    (SIM + "  defenses: [{type: median, trim_fraction: 0.2}]\n", "trim_fraction"),
    ("sim:\n  evaluators: [{id: e1, costt: 2}]\n", "costt"),
    ("sim:\n  evaluators: [{id: e1, tier: ultra}]\n", "tier"),
    ("audit: {per_task: 'false'}\n", "per_task"),
    ("audit: {gate: pearsn}\n", "gate"),
    ("audit: {variants: [defualt]}\n", "variants"),
    ("audit: {preset: giant}\n", "preset"),
    (SIM + "  signals: [{type: composite, variant: mystery}]\n", "variant"),
    ("audit: {threshold: .nan}\n", "threshold"),
    (SIM + "  attacks: [{type: camouflage, honest_rounds: 2.7}]\n", "honest_rounds"),
    ("synthetic: {n: 5, seed: abc}\n", "seed"),
    ("sim:\n  evaluators: [{id: e1, cost: .nan}]\n", "cost"),
    ("input: 3\n", "input"),
    ("out: [a]\n", "out"),
    ("structure: {min_tokens: 2.5}\n", "min_tokens"),
    ("normalization: {mode: batch, stat: s.json}\n", "stat"),
    ("providers: {semantic: 'column:'}\n", "semantic"),
    ("schema: [1\n", "config"),
]


@pytest.mark.parametrize("text, key", BAD_CONFIGS, ids=[key for _, key in BAD_CONFIGS])
def test_bad_config_value_exits_one_naming_the_key(tmp_path, capsys, text, key):
    config = tmp_path / "bad.yaml"
    config.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError, match=key):
        load_config(config)
    assert main(["validate", "--config", str(config), "--out", str(tmp_path / "r")]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad",
    [
        {"task": "  "},
        {"evaluator_scores": {"sts_paraphrase": float("nan")}},
        {"gt": float("inf")},
    ],
)
def test_bad_record_value_lands_in_ingest_errors(tmp_path, bad):
    lines = (Path(FIXTURES) / "replay_200.jsonl").read_text(encoding="utf-8").splitlines()[:20]
    lines[5] = json.dumps(json.loads(lines[5]) | bad)  # writes NaN and Infinity literals
    data = tmp_path / "data.jsonl"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = f"{FIXTURES}/replay_config.yaml"
    for command in ("score", "audit"):
        out = tmp_path / command
        code = main([command, "--config", config, "--input", str(data), "--out", str(out)])
        assert code in (0, 1)
        issues = (out / "ingest_errors.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["line"] for line in issues] == [6]


# ------------------------------------------------------------------ synth

def test_synth_writes_dataset(tmp_path):
    out = tmp_path / "r"
    assert main(["synth", "--out", str(out), "--n", "30", "--seed", "9"]) == 0
    samples = ingest(out / "synthetic.jsonl").samples
    assert len(samples) == 30
    assert all(s.reference_score is not None for s in samples)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert {"path": "synthetic.jsonl", "series": "synthetic_dataset"} in manifest["files"]


def test_synth_needs_count_or_config(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "r")]) == 64


def test_seed_precedence(tmp_path, monkeypatch):
    def synth_bytes(name, *argv):
        out = tmp_path / name
        assert main(["synth", "--out", str(out), "--n", "12", *argv]) == 0
        return (out / "synthetic.jsonl").read_bytes()

    flag = synth_bytes("a", "--seed", "9")
    assert synth_bytes("b", "--seed", "9") == flag
    config = tmp_path / "seeded.yaml"
    config.write_text("schema: 1\nseed: 9\n", encoding="utf-8")
    assert synth_bytes("c", "--config", str(config)) == flag
    monkeypatch.setenv("MDQS_SEED", "123")
    env = synth_bytes("d")
    assert env != flag
    # the explicit flag still beats the environment
    assert synth_bytes("e", "--seed", "9") == flag
    monkeypatch.setenv("MDQS_SEED", "not-a-number")
    assert main(["synth", "--out", str(tmp_path / "f"), "--n", "12"]) == 64


# ------------------------------------------------------------------ score

def scoring_config(tmp_path):
    path = tmp_path / "scoring.yaml"
    path.write_text(
        "schema: 1\n"
        "priors:\n"
        "  model_rating: {model-a: 1100, model-b: 1220, model-c: 1300}\n"
        "  cost_efficiency: {model-a: 1.0, model-b: 0.8, model-c: 0.6}\n"
        "providers:\n"
        "  semantic: builtin\n"
        '  alignment: "column:judge_heldout"\n',
        encoding="utf-8",
    )
    return path


def synth_dataset(tmp_path, n=24):
    out = tmp_path / "gen"
    assert main(["synth", "--out", str(out), "--n", str(n), "--seed", "4"]) == 0
    return out / "synthetic.jsonl"


def test_score_attaches_all_dimensions(tmp_path):
    data = synth_dataset(tmp_path)
    out = tmp_path / "r"
    code = main(
        ["score", "--config", str(scoring_config(tmp_path)), "--input", str(data), "--out", str(out)]
    )
    assert code == 0
    scored = ingest(out / "scored.jsonl").samples
    assert len(scored) == 24
    for s in scored:
        assert len(s.dimension_scores.keys()) == 6
        assert all(0.0 <= v <= 1.0 for v in s.dimension_scores.as_dict().values())
    stats = json.loads((out / "normalization_stats.json").read_text(encoding="utf-8"))
    assert set(stats) == {d for d in stats}  # parsed fine
    assert len(stats) == 6


def test_score_weights_override_limits_dimensions(tmp_path):
    data = synth_dataset(tmp_path)
    out = tmp_path / "r"
    code = main(
        [
            "score",
            "--config", str(scoring_config(tmp_path)),
            "--input", str(data),
            "--out", str(out),
            "--weights", "semantic_only",
        ]
    )
    assert code == 0
    scored = ingest(out / "scored.jsonl").samples
    assert all({d.value for d in s.dimension_scores.keys()} == {"semantic"} for s in scored)


def test_score_without_priors_is_domain_error(tmp_path, capsys):
    data = synth_dataset(tmp_path)
    assert main(["score", "--input", str(data), "--out", str(tmp_path / "r")]) == 1
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------- audit, ablate, calibrate

def test_audit_cli(tmp_path):
    data = planted_path(tmp_path)
    out = tmp_path / "r"
    assert main(["audit", "--input", str(data), "--out", str(out)]) == 0
    report = json.loads((out / "audit.json").read_text(encoding="utf-8"))
    rows = {r["name"]: r for r in report["overall"]["rows"] if r["kind"] == "dimension"}
    assert rows["semantic"]["pearson"] == pytest.approx(1.0)
    assert rows["alignment"]["pearson"] == pytest.approx(-1.0)
    summary = (out / "correlation_summary.csv").read_text(encoding="utf-8")
    assert summary.startswith("kind,name,pearson,spearman,n\n")


def test_ablate_cli_emits_nine_variants(tmp_path):
    data = planted_path(tmp_path)
    out = tmp_path / "r"
    assert main(["ablate", "--input", str(data), "--out", str(out)]) == 0
    lines = (out / "ablation_grid.csv").read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "variant,pearson,spearman,n"
    assert len(lines) == 1 + 9
    assert lines[1].startswith("default,")


def test_ablate_rejects_unknown_preset(tmp_path):
    data = planted_path(tmp_path)
    code = main(
        ["ablate", "--input", str(data), "--out", str(tmp_path / "r"), "--preset", "giant"]
    )
    assert code == 64


def test_calibrate_cli_removes_planted_negatives(tmp_path, capsys):
    data = planted_path(tmp_path)
    out = tmp_path / "r"
    assert main(["calibrate", "--input", str(data), "--out", str(out)]) == 0
    assert "removed alignment, agreement" in capsys.readouterr().out
    cal = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
    assert cal["removed"] == ["alignment", "agreement"]
    assert cal["gate"] == "pearson"
    assert cal["after"]["pearson"] >= cal["before"]["pearson"]


def test_calibrate_cli_flags(tmp_path):
    data = planted_path(tmp_path)
    out = tmp_path / "r"
    code = main(
        [
            "calibrate",
            "--input", str(data),
            "--out", str(out),
            "--gate", "spearman",
            "--threshold", "0.1",
            "--per-task",
        ]
    )
    assert code == 0
    cal = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
    assert cal["gate"] == "spearman"
    assert cal["threshold"] == 0.1
    assert set(cal["by_task"]) == {"qa", "summarization"}


# --------------------------------------------------------------- simulate

def test_simulate_requires_sim_section(tmp_path):
    config = tmp_path / "empty.yaml"
    config.write_text("schema: 1\n", encoding="utf-8")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "r")]) == 64


def test_simulate_synthetic_grid(tmp_path):
    config = tmp_path / "sim.yaml"
    config.write_text(
        "schema: 1\n"
        "sim:\n"
        "  mode: synthetic\n"
        "  rounds: 5\n"
        "  evaluators:\n"
        "    - {id: e1}\n"
        "    - {id: e2}\n"
        "    - {id: e3}\n"
        "    - {id: e4}\n"
        "  producers: {pa: 0.4, pb: 0.6}\n"
        "  attacks: [{type: none}, {type: inflate, delta: 0.3}]\n"
        "  ratios: [0.0, 0.5]\n"
        "  defenses: [median]\n",
        encoding="utf-8",
    )
    out = tmp_path / "r"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--seed", "3"]) == 0
    lines = (out / "defense_comparison.csv").read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 1 + 4
    assert all(",ok," in line for line in lines[1:])
    entry = json.loads((out / "sim_none-r0-median.json").read_text(encoding="utf-8"))
    assert entry["rng_seed"] == 3
    assert len(entry["trust_trajectory"]) == 5


def test_simulate_replay_with_composite_signal(tmp_path):
    data = planted_path(tmp_path)
    config = tmp_path / "sim.yaml"
    config.write_text(
        "schema: 1\n"
        "sim:\n"
        "  mode: replay\n"
        "  rounds: 6\n"
        "  evaluators:\n"
        "    - {id: e1}\n"
        "    - {id: e2}\n"
        "    - {id: e3}\n"
        "  defenses: [median]\n"
        "  signals: [{type: composite, variant: default}]\n",
        encoding="utf-8",
    )
    out = tmp_path / "r"
    code = main(
        ["simulate", "--config", str(config), "--input", str(data), "--out", str(out)]
    )
    assert code == 0
    entry = json.loads(
        (out / "sim_none-r0-median-composite_default.json").read_text(encoding="utf-8")
    )
    assert entry["status"] == "ok"
    assert entry["consensus_error"] is not None


# ----------------------------------------------------------------- report

def test_report_full_pipeline(tmp_path):
    out = tmp_path / "r"
    code = main(
        [
            "report",
            "--config", f"{FIXTURES}/replay_config.yaml",
            "--input", f"{FIXTURES}/replay_200.jsonl",
            "--out", str(out),
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    paths = {f["path"] for f in manifest["files"]}
    assert {
        "scored.jsonl",
        "audit.json",
        "ablation_grid.csv",
        "calibration.json",
        "defense_comparison.csv",
        "dimension_means_by_producer.csv",
        "sim_none-r0.25-median-composite_default.json",
        "sim_inflate_0.3-r0.25-median-composite_default.json",
    } <= paths
    # the full pipeline is deterministic end to end
    again = tmp_path / "r2"
    assert main(
        [
            "report",
            "--config", f"{FIXTURES}/replay_config.yaml",
            "--input", f"{FIXTURES}/replay_200.jsonl",
            "--out", str(again),
        ]
    ) == 0
    for f in manifest["files"]:
        assert (out / f["path"]).read_bytes() == (again / f["path"]).read_bytes(), f["path"]
