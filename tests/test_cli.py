"""End-to-end command line behavior, run in process through main()."""

import argparse
import copy
import importlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import mdqs
import mdqs.cli
import mdqs.scoring
from conftest import FIXTURES, scored_sample
from mdqs.cli import main
from mdqs.errors import SchemaError
from mdqs.io import ingest, load_config, to_record, write_jsonl
from mdqs.model import CANONICAL_DIMENSIONS, DimensionId


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


@pytest.mark.parametrize("flag", ["--input", "--out"])
def test_unusable_path_exits_one_naming_it(tmp_path, capsys, flag):
    # a directory where a dataset should be, a file where a directory should be
    taken = tmp_path / "taken"
    if flag == "--input":
        taken.mkdir()
        argv = ["--input", str(taken), "--out", str(tmp_path / "r")]
    else:
        taken.write_text("not a directory\n", encoding="utf-8")
        argv = ["--input", str(planted_path(tmp_path)), "--out", str(taken)]
    assert main(["validate", *argv]) == 1
    assert str(taken) in capsys.readouterr().err


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
    issues = (out / "ingest_errors.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in issues] == [
        {"line": 25, "error": f"duplicate sample_id {first.sample_id!r} (first on line 1)"}
    ]
    assert main(["validate", "--input", str(data), "--out", str(out), "--strict"]) == 1


def test_validate_counts_malformed_lines(tmp_path):
    data = planted_path(tmp_path)
    data.write_text(data.read_text(encoding="utf-8") + "not json\n", encoding="utf-8")
    out = tmp_path / "r"
    assert main(["validate", "--input", str(data), "--out", str(out)]) == 1
    issues = (out / "ingest_errors.jsonl").read_text(encoding="utf-8").strip().split("\n")
    assert len(issues) == 1


def test_validate_counts_a_line_nested_past_the_recursion_limit(tmp_path):
    data = planted_path(tmp_path)
    data.write_text(data.read_text(encoding="utf-8") + "[" * 10_000 + "\n", encoding="utf-8")
    out = tmp_path / "r"
    assert main(["validate", "--input", str(data), "--out", str(out)]) == 1
    issues = (out / "ingest_errors.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["line"] for line in issues] == [25]


def test_validate_flags_what_score_would_reject(tmp_path, capsys):
    lines = (Path(FIXTURES) / "replay_200.jsonl").read_text(encoding="utf-8").splitlines()[:10]
    records = [json.loads(line) for line in lines]
    del records[3]["reference_text"]
    records[5]["evaluator_scores"] = {"alignment_judge": 0.5}  # agreement needs two
    data = tmp_path / "data.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    argv = ["--config", f"{FIXTURES}/replay_config.yaml", "--input", str(data)]
    out = tmp_path / "r"
    assert main(["validate", *argv, "--out", str(out)]) == 1
    assert "8 valid, 2 invalid" in capsys.readouterr().out
    report = json.loads((out / "validation.json").read_text(encoding="utf-8"))
    assert [(i["sample_id"], i["field"], i["message"]) for i in report["issues"]] == [
        ("s00003", "reference_text", "sample 's00003' has no reference_text"),
        (
            "s00005",
            "evaluator_scores",
            "sample 's00005' has 1 evaluator score(s); agreement needs >= 2",
        ),
    ]
    assert main(["score", *argv, "--out", str(tmp_path / "s")]) == 1
    assert "sample 's00003' has no reference_text" in capsys.readouterr().err


def replay_config_edited(tmp_path, edit) -> str:
    raw = yaml.safe_load((Path(FIXTURES) / "replay_config.yaml").read_text(encoding="utf-8"))
    edit(raw)
    path = tmp_path / "edited.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "judge", ["1e400", "NaN", "1" + "0" * 400], ids=["inf", "nan", "int-past-float-range"]
)
def test_extra_score_column_must_hold_a_finite_number(tmp_path, capsys, judge):
    lines = (Path(FIXTURES) / "replay_200.jsonl").read_text(encoding="utf-8").splitlines()[:6]
    # json reads 1e400 as inf, NaN as nan and the 401-digit integer as an int
    lines = [line[:-1] + f', "judge": {judge if i == 2 else 0.5}}}' for i, line in enumerate(lines)]
    data = tmp_path / "data.jsonl"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = replay_config_edited(
        tmp_path, lambda raw: raw["providers"].update(alignment="column:judge")
    )
    argv = ["--config", config, "--input", str(data)]
    if judge in ("1e400", "NaN"):
        # not JSON a report could write, so ingest refuses the line itself
        assert main(["score", *argv, "--strict", "--out", str(tmp_path / "s")]) == 1
        assert f"{data}:3: judge must be finite" in capsys.readouterr().err
        assert not (tmp_path / "s" / "scored.jsonl").exists()
        assert main(["validate", *argv, "--out", str(tmp_path / "v")]) == 1
        errors = (tmp_path / "v" / "ingest_errors.jsonl").read_text(encoding="utf-8")
        assert [json.loads(line)["line"] for line in errors.splitlines()] == [3]
        return
    assert main(["score", *argv, "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert "column 'judge'" in err and "s00002" in err
    assert not (tmp_path / "s" / "scored.jsonl").exists()
    assert main(["validate", *argv, "--out", str(tmp_path / "v")]) == 1
    report = json.loads((tmp_path / "v" / "validation.json").read_text(encoding="utf-8"))
    assert [(i["sample_id"], i["field"]) for i in report["issues"]] == [("s00002", "judge")]


@pytest.mark.parametrize(
    "ratings, expected",
    [
        ({"model-a": -1.0e308, "model-b": 1.0e308, "model-c": 0}, {0.0, 0.5, 1.0}),
        # no replay producer is in the table, so each reads the median
        ({"model-x": 1.0e308, "model-y": 1.5e308}, {0.5}),
    ],
    ids=["range-past-float-limit", "median-sum-past-float-limit"],
)
def test_prior_ratings_of_any_finite_size_score(tmp_path, ratings, expected):
    config = replay_config_edited(tmp_path, lambda raw: raw["priors"].update(model_rating=ratings))
    argv = ["--config", config, "--input", f"{FIXTURES}/replay_200.jsonl"]
    assert main(["score", *argv, "--out", str(tmp_path / "s")]) == 0
    scored = ingest(tmp_path / "s" / "scored.jsonl").samples
    assert {s.dimension_scores[DimensionId.MODEL_PRIOR] for s in scored} == expected


UNMET_NEEDS = [
    (lambda raw: raw.pop("priors"), "priors.model_rating"),
    (lambda raw: raw["priors"].update(model_rating={}), "priors.model_rating"),
    (lambda raw: raw["providers"].pop("alignment"), "providers.alignment"),
]


@pytest.mark.parametrize(
    "edit, key", UNMET_NEEDS, ids=["no-priors", "empty-model-rating", "no-alignment"]
)
def test_config_no_sample_can_satisfy_exits_one_before_ingest(
    tmp_path, capsys, monkeypatch, edit, key
):
    config = replay_config_edited(tmp_path, edit)

    def no_ingest(*args, **kwargs):
        raise AssertionError("the dataset was read")

    monkeypatch.setattr(mdqs.cli, "ingest", no_ingest)
    for command in ("validate", "score", "report"):
        argv = ["--config", config, "--input", f"{FIXTURES}/replay_200.jsonl"]
        assert main([command, *argv, "--out", str(tmp_path / command)]) == 1
        assert key in capsys.readouterr().err


SIM = "sim:\n  evaluators: [{id: e1}]\n  producers: {a: 0.5}\n"


# 10**7 paths to one "x" through seven aliased lists: checked once per list
ALIAS_BOMB = "a: &a [x, x, x, x, x, x, x, x, x, x]\n" + "".join(
    f"{b}: &{b} [{', '.join([f'*{a}'] * 10)}]\n" for a, b in zip("abcdef", "bcdefg")
)


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
    ("weights: {semantic: 0}\n", "weights"),
    ("weights: {semantic: -1, structure: 3}\n", "weights.semantic"),
    ('synthetic: {n: 10, correlations: {" ": {semantic: 0.5}}}\n', "synthetic.correlations"),
    ("seed: 18446744073709551616\n", "seed must be in"),
    ("synthetic: {n: 5, seed: -1}\n", "synthetic.seed"),
    ("[" * 1_000 + "\n", "cannot load config"),  # nested past the recursion limit
    ("weights: bogus\n", "weights must be one of"),
    (SIM + "  rounds: 0\n", "sim: rounds must be in"),
    (SIM + "  beta_concentration: -1\n", "sim: beta_concentration"),
    ("sim:\n  evaluators: [{id: e1}, {id: e1}]\n  producers: {a: 0.5}\n", "sim: duplicate"),
    ("sim:\n  evaluators: [{id: e1}]\n  producers: {a: 1.5}\n", "sim: producer 'a'"),
    (SIM + "  ratios: [1.5]\n", "sim.ratios"),
    ("sim:\n  mode: replay\n  evaluators: [{id: e1}]\n", "sim.signals"),
    ("sim:\n  evaluators: [{id: e1}]\n", "sim.producers"),
    (
        "sim:\n  evaluators: [{id: e1}, {id: e2}, {id: e3}]\n  producers: {a: 0.5}\n"
        "  defenses: [median, {type: adaptive_trust, floor: 0.5}]\n",
        "sim.defenses",
    ),
    ("weights: {structure: 1, agreement: 1}\n", "audit.variants"),  # semantic_only is empty
    ("normalization: {stats: narrow.json}\n", "normalization.mode"),
    ("synthetic: {n: 10, producers_per_query: 5}\n", "synthetic: producers_per_query"),
    ("synthetic: {n: 10, qa_fraction: 2}\n", "synthetic: qa_fraction"),
    ("structure: {repetition_ngram: 0}\n", "structure: repetition_ngram must be >= 1"),
    ("structure: {degeneration_ngram: -2}\n", "structure: degeneration_ngram must be >= 1"),
    ("structure: {degeneration_min_count: 0}\n", "structure: degeneration_min_count must be"),
    ('sim:\n  evaluators: [{id: "e1\\ud800"}]\n', "id: lone surrogate U"),
    ('"se\\udfffed": 1\n', "a key in the run config: lone"),
    (ALIAS_BOMB, "unknown run config key"),
    ("sim: &s\n  evaluators: [*s]\n", ": evaluators"),  # refers to itself
]


@pytest.mark.parametrize("text, key", BAD_CONFIGS, ids=[key for _, key in BAD_CONFIGS])
def test_bad_config_value_exits_one_naming_the_key(tmp_path, capsys, text, key):
    config = tmp_path / "bad.yaml"
    config.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError, match=key):
        load_config(config)
    assert main(["validate", "--config", str(config), "--out", str(tmp_path / "r")]) == 1
    assert key in capsys.readouterr().err


def _without_semantic(raw, signal=None):
    raw["weights"] = {"structure": 1, "agreement": 1}
    if signal is not None:
        raw["audit"]["variants"] = ["default"]
        raw["sim"]["signals"] = [{"type": "composite", "variant": signal}]


@pytest.mark.parametrize(
    "edit, key",
    [
        (_without_semantic, "audit.variants[4]: variant 'semantic_only' leaves no dimensions"),
        (
            lambda raw: _without_semantic(raw, signal="semantic_only"),
            "sim.signals[0].variant: variant 'semantic_only' leaves no dimensions",
        ),
    ],
    ids=["audit-variant", "composite-signal"],
)
def test_variant_left_empty_by_the_weights_exits_one_at_load(tmp_path, capsys, edit, key):
    config = replay_config_edited(tmp_path, edit)
    for command in ("validate", "simulate", "report"):
        argv = ["--config", config, "--input", f"{FIXTURES}/replay_200.jsonl"]
        assert main([command, *argv, "--out", str(tmp_path / command)]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / command).exists()


def test_frozen_stats_must_cover_every_weighted_dimension(tmp_path, capsys, monkeypatch):
    data = ["--input", f"{FIXTURES}/replay_200.jsonl"]
    replay = f"{FIXTURES}/replay_config.yaml"
    assert main(["score", "--config", replay, *data, "--out", str(tmp_path / "batch")]) == 0
    partial = tmp_path / "semantic_only.json"
    partial.write_text(json.dumps({"semantic": [0.0, 1.0]}), encoding="utf-8")

    def frozen(stats):
        def edit(raw):
            raw["normalization"] = {"mode": "frozen", "stats": str(stats)}

        return replay_config_edited(tmp_path, edit)

    # the stats a batch run writes cover every weighted dimension
    config = frozen(tmp_path / "batch" / "normalization_stats.json")
    assert main(["score", "--config", config, *data, "--out", str(tmp_path / "full")]) == 0

    def no_ingest(*args, **kwargs):
        raise AssertionError("the dataset was read")

    monkeypatch.setattr(mdqs.cli, "ingest", no_ingest)
    config = frozen(partial)
    capsys.readouterr()
    for command in ("validate", "score", "report"):
        assert main([command, "--config", config, *data, "--out", str(tmp_path / command)]) == 1
        assert (
            "normalization.stats has no [min, max] for weighted "
            "agreement, alignment, cost_prior, model_prior, structure"
        ) in capsys.readouterr().err


def test_blank_identity_is_a_malformed_line_for_every_command(tmp_path):
    lines = (Path(FIXTURES) / "replay_200.jsonl").read_text(encoding="utf-8").splitlines()
    lines[3] = json.dumps(json.loads(lines[3]) | {"producer_id": ""})
    lines[7] = json.dumps(json.loads(lines[7]) | {"sample_id": "  "})
    data = tmp_path / "data.jsonl"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = f"{FIXTURES}/replay_config.yaml"
    for command in ("validate", "score", "report"):
        out = tmp_path / command
        code = main([command, "--config", config, "--input", str(data), "--out", str(out)])
        assert code == (1 if command == "validate" else 0)
        issues = [
            json.loads(line)
            for line in (out / "ingest_errors.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert [(i["line"], i["error"].split()[0]) for i in issues] == [
            (4, "producer_id"),
            (8, "sample_id"),
        ]
        if command == "validate":
            assert json.loads((out / "validation.json").read_text())["total"] == 198
            continue
        scored = ingest(out / "scored.jsonl").samples
        assert len(scored) == 198
        assert all(s.producer_id.strip() and s.sample_id.strip() for s in scored)
    means = (tmp_path / "report" / "dimension_means_by_producer.csv").read_text(encoding="utf-8")
    assert "\n," not in means


def test_lone_surrogate_is_a_malformed_line_for_every_command(tmp_path):
    lines = (Path(FIXTURES) / "replay_200.jsonl").read_text(encoding="utf-8").splitlines()[:40]
    lone = chr(0xD800)
    edits = {
        3: {"output": "fine words " + lone},
        8: {"meta": {"tags": [{"k" + chr(0xDC00): 1}]}},
        11: {"note": ["ok", "x" + chr(0xDFFF)]},
        14: {"output": "a smile \U0001F600 " * 3},  # an escaped pair, which loads
    }
    for index, edit in edits.items():
        lines[index] = json.dumps(json.loads(lines[index]) | edit)  # ASCII: \u escapes
    data = tmp_path / "data.jsonl"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = f"{FIXTURES}/replay_config.yaml"
    for command in ("validate", "score", "audit", "report"):
        out = tmp_path / command
        code = main([command, "--config", config, "--input", str(data), "--out", str(out)])
        assert code == (1 if command == "validate" else 0)
        issues = [
            json.loads(line)
            for line in (out / "ingest_errors.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert [(i["line"], i["error"]) for i in issues] == [
            (4, "output: lone surrogate U+D800"),
            (9, "a key in meta.tags[0]: lone surrogate U+DC00"),
            (12, "note[1]: lone surrogate U+DFFF"),
        ]
    assert json.loads((tmp_path / "validate" / "validation.json").read_text())["total"] == 37
    scored = {s.sample_id: s for s in ingest(tmp_path / "report" / "scored.jsonl").samples}
    assert len(scored) == 37
    assert scored["s00014"].output.startswith("a smile \U0001F600")


@pytest.mark.parametrize(
    "bad",
    [
        {"task": "  "},
        {"evaluator_scores": {"sts_paraphrase": float("nan")}},
        {"gt": float("inf")},
        {"dims": {"semantic": 7.5}},
        {"sample_id": "s00000"},  # the first line's id
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


def test_non_finite_unknown_field_is_a_malformed_line(tmp_path):
    lines = (Path(FIXTURES) / "replay_200.jsonl").read_text(encoding="utf-8").splitlines()[:12]
    edits = {2: '"note": NaN', 5: '"drift": -Infinity', 8: '"meta": {"tags": [1, {"big": 1e999}]}'}
    for index, field in edits.items():
        lines[index] = lines[index][:-1] + ", " + field + "}"
    data = tmp_path / "data.jsonl"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = f"{FIXTURES}/replay_config.yaml"
    for command in ("validate", "score"):
        out = tmp_path / command
        code = main([command, "--config", config, "--input", str(data), "--out", str(out)])
        assert code == (1 if command == "validate" else 0)
        issues = [
            json.loads(line)
            for line in (out / "ingest_errors.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert [(i["line"], i["error"]) for i in issues] == [
            (3, "note must be finite, got nan"),
            (6, "drift must be finite, got -inf"),
            (9, "meta.tags[1].big must be finite, got inf"),
        ]

    def refuse(constant):
        raise AssertionError(f"{constant} written to scored.jsonl")

    scored = (tmp_path / "score" / "scored.jsonl").read_text(encoding="utf-8").splitlines()
    assert len([json.loads(line, parse_constant=refuse) for line in scored]) == 9


# ------------------------------------------------------------------ synth

def test_synth_writes_dataset(tmp_path):
    out = tmp_path / "r"
    assert main(["synth", "--out", str(out), "--n", "30", "--seed", "9"]) == 0
    samples = ingest(out / "synthetic.jsonl").samples
    assert len(samples) == 30
    assert all(s.reference_score is not None for s in samples)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert {"path": "synthetic.jsonl", "series": "synthetic_dataset"} in manifest["files"]


@pytest.mark.parametrize(
    "manifest",
    [
        b"[]",
        b"\xff\xfe\x00\x81",
        b'{"files": 3}',
        b'{"files": [{"path": 1, "series": "x"}]}',
        b'{"files": [{"path": "a"}]}',
        b"{oops",
        b"[" * 10_000,
    ],
    ids=["list", "not-utf8", "files-number", "path-number", "no-series", "not-json", "deep"],
)
def test_corrupt_manifest_exits_one_and_changes_nothing(tmp_path, capsys, manifest):
    out = tmp_path / "r"
    assert main(["synth", "--out", str(out), "--n", "50", "--seed", "1"]) == 0
    (out / "manifest.json").write_bytes(manifest)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["synth", "--out", str(out), "--n", "50", "--seed", "2"]) == 1
    assert "corrupt manifest" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_synth_needs_count_or_config(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "r")]) == 64


@pytest.mark.parametrize("section", [None, "synthetic: {n: 5}\n"], ids=["no-config", "config"])
def test_synth_zero_count_exits_one_naming_the_flag(tmp_path, capsys, section):
    argv = ["synth", "--out", str(tmp_path / "r"), "--n", "0"]
    if section is not None:
        config = tmp_path / "synth.yaml"
        config.write_text(section, encoding="utf-8")
        argv += ["--config", str(config)]
    assert main(argv) == 1
    assert "--n must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_synth_count_from_the_flag_when_the_section_has_none(tmp_path, capsys):
    config = tmp_path / "synth.yaml"
    config.write_text("synthetic: {qa_fraction: 0.3}\n", encoding="utf-8")
    load_config(config)  # a section without n loads; synth --n supplies it
    argv = ["synth", "--config", str(config), "--out"]
    assert main([*argv, str(tmp_path / "flag"), "--n", "5", "--seed", "3"]) == 0
    assert len(ingest(tmp_path / "flag" / "synthetic.jsonl").samples) == 5
    # neither the section nor the command line gives n
    capsys.readouterr()
    assert main([*argv, str(tmp_path / "none")]) == 1
    assert "synthetic needs 'n'" in capsys.readouterr().err
    assert not (tmp_path / "none").exists()


def test_synth_section_defaults_match_a_bare_count(tmp_path):
    def synth(name, *argv):
        out = tmp_path / name
        assert main(["synth", "--out", str(out), *argv]) == 0
        return (out / "synthetic.jsonl").read_bytes()

    def config(name, text):
        path = tmp_path / f"{name}.yaml"
        path.write_text(text, encoding="utf-8")
        return str(path)

    # correlations and evaluators default on SyntheticSpec, not in the CLI
    bare = synth("bare", "--n", "12", "--seed", "9")
    assert synth("section", "--config", config("section", "synthetic: {n: 12, seed: 9}\n")) == bare
    columns = {"sts_paraphrase", "lexical_overlap", "judge_heldout"}
    assert set(ingest(tmp_path / "section" / "synthetic.jsonl").samples[0].evaluator_scores) == columns
    # an evaluators map, even an empty one, replaces the default columns
    text = "synthetic: {n: 12, seed: 9, evaluators: {}}\n"
    synth("none", "--config", config("none", text))
    assert all(not s.evaluator_scores for s in ingest(tmp_path / "none" / "synthetic.jsonl").samples)


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


def test_seed_outside_64_bits_is_usage_error(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "r")
    for seed in (str(2**64 + 1), "-1"):
        assert main(["synth", "--out", out, "--n", "12", "--seed", seed]) == 64
        assert "--seed must be in [0, 2**64)" in capsys.readouterr().err
    assert main(["synth", "--out", out, "--n", "12", "--seed", str(2**64 - 1)]) == 0
    monkeypatch.setenv("MDQS_SEED", str(2**64))
    assert main(["synth", "--out", out, "--n", "12"]) == 64
    assert "MDQS_SEED must be in [0, 2**64)" in capsys.readouterr().err


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
        assert all(0.0 <= v <= 1.0 for v in s.dimension_scores.values.values())
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


def test_unknown_weights_variant_exits_one(tmp_path, capsys):
    config = tmp_path / "bogus.yaml"
    config.write_text("weights: bogus\nsynthetic: {n: 5}\n", encoding="utf-8")
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "s")]) == 1
    assert "weights" in capsys.readouterr().err
    data = synth_dataset(tmp_path)
    argv = ["--config", str(scoring_config(tmp_path)), "--input", str(data)]
    assert main(["score", *argv, "--out", str(tmp_path / "r"), "--weights", "bogus"]) == 1
    assert "unknown weights variant 'bogus'" in capsys.readouterr().err


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


def test_calibrate_per_task_needs_two_referenced_samples_per_task(tmp_path, capsys):
    data = planted_path(tmp_path, n=3)  # qa, summarization, qa
    out = tmp_path / "r"
    assert main(["calibrate", "--per-task", "--input", str(data), "--out", str(out)]) == 1
    assert "needs >= 2 samples with a reference score, got 1" in capsys.readouterr().err
    assert not (out / "calibration.json").exists()


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


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "-1e400", "abc"])
def test_calibrate_threshold_must_be_finite(tmp_path, capsys, threshold):
    data = planted_path(tmp_path)
    out = tmp_path / "r"
    code = main(
        ["calibrate", "--input", str(data), "--out", str(out), f"--threshold={threshold}"]
    )
    assert code == 64
    assert "--threshold must be a finite number" in capsys.readouterr().err
    assert not (out / "calibration.json").exists()


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


def test_simulate_refuses_input_for_a_synthetic_grid(tmp_path, capsys):
    out = tmp_path / "r"
    config = f"{FIXTURES}/synthetic_grid.yaml"
    argv = ["simulate", "--config", config, "--input", "/nonexistent", "--out", str(out)]
    assert main(argv) == 64
    assert "sim.mode 'replay', not 'synthetic'" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_strict_for_a_synthetic_grid(tmp_path, capsys):
    out = tmp_path / "r"
    config = f"{FIXTURES}/synthetic_grid.yaml"
    argv = ["simulate", "--config", config, "--strict", "--out", str(out)]
    assert main(argv) == 64
    assert "--strict needs sim.mode 'replay', not 'synthetic'" in capsys.readouterr().err
    assert not out.exists()


def test_synth_has_no_strict_flag(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["synth", "--n", "5", "--strict", "--out", str(out)]) == 64
    assert "--strict" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "score", "audit", "ablate", "calibrate"])
def test_seed_is_offered_only_where_a_run_draws(tmp_path, capsys, command):
    data = Path(FIXTURES, "replay_200.jsonl")
    out = tmp_path / "r"
    assert main([command, "--input", str(data), "--out", str(out), "--seed", "1"]) == 64
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


class _Recording(argparse.Namespace):
    """Parsed arguments that note each name a command reads, once `reads`
    is set."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


# every flag a command accepts, each given a value that a run can use
EVERY_FLAG = {
    "validate": ["--strict"],
    "score": ["--strict", "--weights", "default"],
    "audit": ["--strict", "--weights", "default"],
    "ablate": ["--strict", "--preset", "paper"],
    "calibrate": [
        "--strict", "--weights", "default", "--threshold", "0", "--gate", "spearman", "--per-task"
    ],
    "simulate": ["--strict", "--seed", "3"],
    "report": ["--strict", "--weights", "default", "--seed", "3"],
}


@pytest.mark.parametrize("command", [*EVERY_FLAG, "synth"])
def test_every_flag_a_command_accepts_is_read(tmp_path, capsys, command):
    config = Path(FIXTURES, "replay_config.yaml")
    if command == "synth":
        argv = ["synth", "--config", str(config), "--n", "5", "--seed", "3"]
    else:
        data = Path(FIXTURES, "replay_200.jsonl")
        argv = [command, "--config", str(config), "--input", str(data), *EVERY_FLAG[command]]
    args = mdqs.cli.build_parser().parse_args(
        [*argv, "--out", str(tmp_path / "r")], namespace=_Recording()
    )
    accepted = set(vars(args)) - {"command", "func"}
    args.reads = set()
    assert args.func(args) == 0, capsys.readouterr().err
    # ablate --preset paper names the only grid there is: accepted, ignored
    ignored = {"preset"} if command == "ablate" else set()
    assert accepted - args.reads == ignored


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


def test_duplicate_grid_config_id_is_named(tmp_path, capsys):
    config = replay_config_edited(tmp_path, lambda raw: raw["sim"].update(ratios=[0.25, 0.25]))
    argv = ["--config", config, "--input", f"{FIXTURES}/replay_200.jsonl"]
    assert main(["simulate", *argv, "--out", str(tmp_path / "r")]) == 1
    assert "duplicate config_id 'none-r0.25-median-composite_default'" in capsys.readouterr().err


def test_simulate_refuses_a_lone_surrogate_in_an_evaluator_id(tmp_path, capsys):
    text = (Path(FIXTURES) / "replay_config.yaml").read_text(encoding="utf-8")
    config = tmp_path / "surrogate.yaml"
    config.write_text(text.replace("{id: e08,", '{id: "e08\\ud800",'), encoding="utf-8")
    out = tmp_path / "r"
    argv = ["--config", str(config), "--input", f"{FIXTURES}/replay_200.jsonl", "--out", str(out)]
    assert main(["simulate", *argv]) == 1
    assert "sim.evaluators[7].id: lone surrogate U+D800" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_replay_reports_malformed_lines(tmp_path):
    data = planted_path(tmp_path)
    data.write_text(data.read_text(encoding="utf-8") + "not json\n", encoding="utf-8")
    config = tmp_path / "sim.yaml"
    config.write_text(
        "sim:\n  mode: replay\n  rounds: 3\n  evaluators: [{id: e1}, {id: e2}]\n"
        "  signals: [{type: baseline, stat: median}]\n",
        encoding="utf-8",
    )
    out = tmp_path / "r"
    argv = ["simulate", "--config", str(config), "--input", str(data), "--out", str(out)]
    assert main(argv) == 0
    issues = (out / "ingest_errors.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["line"] for line in issues] == [25]


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


def _per_task_replay_config(tmp_path) -> str:
    config = yaml.safe_load(Path(FIXTURES, "replay_config.yaml").read_text(encoding="utf-8"))
    config["audit"]["per_task"] = True
    path = tmp_path / "per_task.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return str(path)


def test_report_audits_once_and_builds_each_raw_column_once(tmp_path, monkeypatch):
    # the package exports the function `audit`, which hides the module of that name
    audit_module = importlib.import_module("mdqs.audit")
    audits, columns = [], []
    real_audit, real_column = audit_module.audit, mdqs.scoring._raw_column

    def counted_audit(*args, **kwargs):
        audits.append(1)
        return real_audit(*args, **kwargs)

    def counted_column(dim, *args, **kwargs):
        columns.append(dim)
        return real_column(dim, *args, **kwargs)

    monkeypatch.setattr(mdqs.cli, "audit", counted_audit)
    monkeypatch.setattr(audit_module, "audit", counted_audit)
    monkeypatch.setattr(mdqs.scoring, "_raw_column", counted_column)
    argv = [
        "report",
        "--config", _per_task_replay_config(tmp_path),
        "--input", f"{FIXTURES}/replay_200.jsonl",
        "--out", str(tmp_path / "r"),
    ]
    assert main(argv) == 0
    assert len(audits) == 1
    assert columns == list(CANONICAL_DIMENSIONS)


def test_report_flattens_a_comma_in_a_label(tmp_path):
    raw = Path(FIXTURES, "replay_200.jsonl").read_text(encoding="utf-8")
    data = tmp_path / "data.jsonl"
    data.write_text(raw.replace('"model-a"', '"model,a"'), encoding="utf-8")
    out = tmp_path / "r"
    argv = ["report", "--config", _per_task_replay_config(tmp_path), "--input", str(data)]
    assert main([*argv, "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    means = (out / "dimension_means_by_producer.csv").read_text(encoding="utf-8")
    assert "\nmodel;a,semantic," in means
    assert all(line.count(",") == 3 for line in means.splitlines())
    assert {s.producer_id for s in ingest(out / "scored.jsonl").samples} >= {"model,a"}
    sim = json.loads((out / "sim_none-r0.25-median-composite_default.json").read_text())
    assert "model,a" in sim["rewards"]


# ------------------------------------------------------- seeded mutations

# values that a record or a config can hold but should not
HOSTILE = (
    None, "", " ", "é\x00", -1, 0, -0.5, 1e308, -1e308, 2**70, float("nan"), float("inf"),
    True, [], {}, [1, "a"], {"a": None}, "model-a", "column:", "median",
)


def _paths(node, prefix=()):
    """Every (key or index, ...) path into a parsed JSON or YAML tree."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, child in items:
        yield (*prefix, key)
        yield from _paths(child, (*prefix, key))


def _mutate(tree, rng: random.Random):
    """A copy of `tree` with one key renamed or deleted, or one value replaced."""
    tree = copy.deepcopy(tree)
    *parents, key = rng.choice(list(_paths(tree)))
    node = tree
    for step in parents:
        node = node[step]
    action = rng.choice(("replace", "replace", "replace", "delete", "rename"))
    if action == "rename" and isinstance(node, dict):
        node[f"{key}x"] = node.pop(key)
    elif action == "delete":
        del node[key]
    else:
        node[key] = rng.choice(HOSTILE)
    return tree


MUTATED_COMMANDS = ("validate", "score", "audit", "calibrate", "simulate", "report")


def _build_once(monkeypatch):
    """Make mdqs.cli build its parser once, and load each config text once:
    a later command gets the same RunConfig, or the same error raised again.
    Both are functions of their input alone, and building them is most of a
    small run's time."""
    parser = mdqs.cli.build_parser()
    monkeypatch.setattr(mdqs.cli, "build_parser", lambda: parser)
    loaded = {}

    def load(path):
        text = Path(path).read_bytes()
        if text not in loaded:
            try:
                loaded[text] = load_config(path)
            except Exception as exc:
                loaded[text] = exc
        if isinstance(loaded[text], Exception):
            raise loaded[text]
        return loaded[text]

    monkeypatch.setattr(mdqs.cli, "load_config", load)


def test_seeded_mutations_never_exit_two(tmp_path, capsys, monkeypatch):
    """Every command on a mutated record or config key exits 0 or 1, never 2.
    `validate --config` fails whatever `score` fails on, and a run that fails
    with an error writes nothing; validate's own verdict (exit 1 without an
    error) still writes its report."""
    _build_once(monkeypatch)
    lines = Path(FIXTURES, "replay_200.jsonl").read_text(encoding="utf-8").splitlines()[:24]
    records = [json.loads(line) for line in lines]
    config = yaml.safe_load(Path(FIXTURES, "replay_config.yaml").read_text(encoding="utf-8"))
    config["sim"]["rounds"] = 5
    rng = random.Random(20240601)
    faults = []
    for case in range(150):
        data, run_config = list(records), config
        if case == 0:
            pass  # the unmutated inputs, which must succeed
        elif case % 2:
            i = rng.randrange(len(data))
            data[i] = _mutate(data[i], rng)
        else:
            run_config = _mutate(config, rng)
        data_path, config_path = tmp_path / f"{case}.jsonl", tmp_path / f"{case}.yaml"
        data_path.write_text("".join(json.dumps(r) + "\n" for r in data), encoding="utf-8")
        config_path.write_text(yaml.safe_dump(run_config), encoding="utf-8")
        codes = {}
        for command in MUTATED_COMMANDS:
            out = tmp_path / f"{command}{case}"
            argv = [command, "--config", str(config_path), "--input", str(data_path)]
            code = codes[command] = main([*argv, "--out", str(out)])
            err = capsys.readouterr().err
            if code not in (0, 1) or (case == 0 and code):
                faults.append((case, command, code, err))
            elif code == 1 and "error:" in err and out.exists() and any(out.iterdir()):
                faults.append((case, command, "wrote files", err))
        if codes["score"] == 1 and codes["validate"] != 1:
            faults.append((case, "validate passed what score failed", codes))
    assert faults == []


# ---------------------------------------------- BLAS threads and lazy root

SRC = Path(mdqs.cli.__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")
PEARSON_20001 = """
import numpy as np
import mdqs.stats
rng = np.random.default_rng(3)
x = rng.random(20001)
y = x + rng.normal(0, 0.5, 20001)
print(mdqs.stats.pearson(x, y).hex())
"""


def _child(code, **env):
    """stdout words of code run in a fresh interpreter; of the thread
    variables, only those in env are set (this process may carry one)."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    base["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env={**base, **env}, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_cli_import_runs_numpy_on_one_blas_thread():
    code = """
import os, sys
import mdqs.cli
assert "numpy" in sys.modules
threads = len(os.listdir("/proc/self/task")) if sys.platform.startswith("linux") else 1
print(os.environ["OPENBLAS_NUM_THREADS"], threads)
"""
    assert _child(code) == ["1", "1"]
    assert _child(code, OPENBLAS_NUM_THREADS="3")[0] == "3"


def test_bare_import_loads_no_numpy_and_leaves_the_environment():
    code = """
import os, sys
import mdqs
print(mdqs.__version__, "numpy" in sys.modules, os.environ.get("OPENBLAS_NUM_THREADS"))
print(mdqs.stats.pearson is mdqs.pearson)
"""
    assert _child(code) == ["0.1.0", "False", "None", "True"]


def test_cli_pearson_bits_do_not_follow_the_core_count():
    """np.dot splits 20,001 elements across BLAS threads; the CLI runs one."""
    cli = _child("import mdqs.cli\n" + PEARSON_20001)
    assert cli == _child(PEARSON_20001, OPENBLAS_NUM_THREADS="1")


ROOT_EXPORTS = {
    "mdqs.audit": (
        "AuditBlock", "AuditReport", "CalibrationResult", "CorrelationRow", "ablation_grid",
        "audit", "calibrate", "calibrate_per_task", "with_composites",
    ),
    "mdqs.composite": ("VARIANTS", "compose", "compose_batch", "variant"),
    "mdqs.model": (
        "CANONICAL_DIMENSIONS", "DEFAULT_WEIGHTS", "DimensionId", "DimensionVector",
        "EvaluatorProfile", "LoggedSample", "SimError", "SimOutcome", "TaskFamily",
        "ValidationReport", "WeightConfig",
    ),
    "mdqs.poq": (
        "AdaptiveTrust", "AttackStrategy", "Camouflage", "Collude", "CompositeSignal",
        "ConsensusBaseline", "DefenseConfig", "Deflate", "Honest", "Inflate", "Mean", "Median",
        "RandomNoise", "SimConfig", "SimSettings", "SingleEvaluator", "TrimmedMean",
        "run_experiment", "run_single", "sample_evaluators", "weighted_median",
    ),
    "mdqs.scoring": (
        "PriorTable", "ScoringConfig", "StructureFeatures", "StructurePolicy", "column_value",
        "consensus_baselines", "normalize_batch", "score_agreement", "score_all",
        "score_semantic", "score_structure", "structure_features", "validate_dataset",
    ),
    "mdqs.stats": ("average_ranks", "pearson", "rank_normalize", "spearman"),
    "mdqs.synth": ("SyntheticSpec", "generate_synthetic"),
}


def test_lazy_root_exports_the_same_objects():
    names = sorted(name for group in ROOT_EXPORTS.values() for name in group)
    assert len(names) == 64
    assert sorted(mdqs.__all__) == names
    for module, group in ROOT_EXPORTS.items():
        for name in group:
            # the submodule mdqs.audit is loaded by now, yet mdqs.audit is the function
            assert getattr(mdqs, name) is getattr(sys.modules[module], name), name
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^from mdqs import \((.*?)\)", readme, re.MULTILINE | re.DOTALL).group(1)
    assert set(re.findall(r"\w+", block)) <= set(mdqs.__all__)
    assert set(mdqs.__all__) <= set(dir(mdqs))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        mdqs.no_such_name
