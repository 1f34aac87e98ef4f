"""Dataset serialization, run configuration, and deterministic report files.

Datasets are line-delimited JSON, one sample per line, schema version 1.
Unknown record fields survive a read/write round trip untouched. Run
configuration is one YAML file; every CLI flag that matters has a config
counterpart so runs can be committed and replayed.

Report emission rules that keep reruns byte-identical: no timestamps, fixed
key and column orders, floats written with their shortest round-trip repr,
and a manifest.json that is merged on write with entries sorted by path.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import yaml

from mdqs.audit import AblationRow, AuditBlock, AuditReport, CalibrationResult
from mdqs.composite import PAPER_PRESET
from mdqs.errors import (
    MissingColumn,
    MissingReferenceText,
    SchemaError,
)
from mdqs.model import (
    CANONICAL_DIMENSIONS,
    CostTier,
    DimensionId,
    DimensionVector,
    EvaluatorProfile,
    LoggedSample,
    SimError,
    SimOutcome,
    TaskFamily,
    ValidationReport,
    WeightConfig,
    parse_dimension,
)
from mdqs.poq import (
    AdaptiveTrust,
    AttackStrategy,
    Camouflage,
    Collude,
    CompositeSignal,
    ConsensusBaseline,
    Deflate,
    DefenseConfig,
    Inflate,
    Mean,
    Median,
    QualitySignal,
    RandomNoise,
    SimConfig,
    SingleEvaluator,
    TrimmedMean,
    attack_label,
    defense_label,
    signal_label,
)
from mdqs.scoring import (
    CharNgramSemanticProvider,
    ColumnProvider,
    PriorTable,
    ScoringConfig,
    StructurePolicy,
)
from mdqs.synth import SyntheticSpec

RECORD_SCHEMA = 1

_KNOWN_RECORD_FIELDS = frozenset(
    {
        "schema",
        "sample_id",
        "task",
        "producer_id",
        "query",
        "output",
        "evaluator_scores",
        "gt",
        "reference_text",
        "dims",
    }
)


# ---------------------------------------------------------------------------
# record <-> sample


def _require_str(obj: Mapping, key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise SchemaError(f"field {key!r} must be a string, got {type(value).__name__}")
    return value


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where} must be a number, got {type(value).__name__}")
    return float(value)


def from_record(obj: object) -> LoggedSample:
    """Parse one JSONL record; SchemaError names the offending field."""
    if not isinstance(obj, dict):
        raise SchemaError(f"record must be an object, got {type(obj).__name__}")
    schema = obj.get("schema", RECORD_SCHEMA)
    if schema != RECORD_SCHEMA:
        raise SchemaError(f"unsupported record schema {schema!r}")
    sample_id = _require_str(obj, "sample_id")
    task = TaskFamily(_require_str(obj, "task"))
    producer_id = _require_str(obj, "producer_id")
    query = _require_str(obj, "query")
    output = _require_str(obj, "output")

    scores_raw = obj.get("evaluator_scores", {})
    if not isinstance(scores_raw, dict):
        raise SchemaError("field 'evaluator_scores' must be an object")
    evaluator_scores = {
        str(k): _as_number(v, f"evaluator_scores.{k}") for k, v in scores_raw.items()
    }

    reference_score = None
    if obj.get("gt") is not None:
        reference_score = _as_number(obj["gt"], "gt")

    reference_text = obj.get("reference_text")
    if reference_text is not None and not isinstance(reference_text, str):
        raise SchemaError("field 'reference_text' must be a string")

    dims = None
    dims_raw = obj.get("dims")
    if dims_raw is not None:
        if not isinstance(dims_raw, dict):
            raise SchemaError("field 'dims' must be an object")
        parsed = {}
        for name, value in dims_raw.items():
            try:
                dim = parse_dimension(str(name))
            except ValueError as exc:
                raise SchemaError(str(exc)) from None
            parsed[dim] = _as_number(value, f"dims.{name}")
        if parsed:
            try:
                dims = DimensionVector(parsed)
            except ValueError as exc:
                raise SchemaError(str(exc)) from None

    extra = {k: v for k, v in obj.items() if k not in _KNOWN_RECORD_FIELDS}
    return LoggedSample(
        sample_id=sample_id,
        task=task,
        producer_id=producer_id,
        query=query,
        output=output,
        evaluator_scores=evaluator_scores,
        reference_score=reference_score,
        reference_text=reference_text,
        dimension_scores=dims,
        extra=extra,
    )


def to_record(sample: LoggedSample) -> dict:
    """Inverse of from_record; key order is fixed, extras ride at the end."""
    rec: dict = {
        "schema": RECORD_SCHEMA,
        "sample_id": sample.sample_id,
        "task": sample.task.label,
        "producer_id": sample.producer_id,
        "query": sample.query,
        "output": sample.output,
        "evaluator_scores": {k: sample.evaluator_scores[k] for k in sorted(sample.evaluator_scores)},
    }
    if sample.reference_score is not None:
        rec["gt"] = sample.reference_score
    if sample.reference_text is not None:
        rec["reference_text"] = sample.reference_text
    if sample.dimension_scores is not None:
        rec["dims"] = {
            d.value: sample.dimension_scores[d]
            for d in CANONICAL_DIMENSIONS
            if d in sample.dimension_scores
        }
    for key, value in sample.extra.items():
        if key not in _KNOWN_RECORD_FIELDS:
            rec[key] = value
    return rec


@dataclass(frozen=True)
class IngestIssue:
    line_no: int
    message: str


@dataclass(frozen=True)
class IngestResult:
    samples: list[LoggedSample]
    issues: list[IngestIssue]


def ingest(path: str | Path, strict: bool = False) -> IngestResult:
    """Read a JSONL dataset.

    Malformed lines are collected as issues and skipped; with strict=True
    the first one aborts the read instead.
    """
    samples: list[LoggedSample] = []
    issues: list[IngestIssue] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                samples.append(from_record(obj))
            except (json.JSONDecodeError, SchemaError) as exc:
                if strict:
                    raise SchemaError(f"{path}:{line_no}: {exc}") from None
                issues.append(IngestIssue(line_no=line_no, message=str(exc)))
    return IngestResult(samples=samples, issues=issues)


def write_jsonl(path: str | Path, samples: Sequence[LoggedSample]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(json.dumps(to_record(sample), ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")


# ---------------------------------------------------------------------------
# run configuration


_TIERS = {t.value: t for t in CostTier}


@dataclass(frozen=True)
class SimGridSpec:
    """Cartesian sweep: attacks x ratios x defenses x signals."""

    mode: str = "synthetic"
    rounds: int = 200
    reward_budget: float = 1.0
    budget: float | None = None
    honest_noise_sd: float = 0.0
    beta_concentration: float = 10.0
    evaluators: tuple[EvaluatorProfile, ...] = ()
    producers: Mapping[str, float] | None = None
    attacks: tuple[AttackStrategy | None, ...] = (None,)
    ratios: tuple[float, ...] = (0.0,)
    defenses: tuple[DefenseConfig, ...] = (Median(),)
    signals: tuple[QualitySignal | None, ...] = (None,)

    def __post_init__(self):
        if self.mode not in ("synthetic", "replay"):
            raise SchemaError(f"sim.mode must be 'synthetic' or 'replay', got {self.mode!r}")
        if not self.evaluators:
            raise SchemaError("sim.evaluators must list at least one evaluator")


def sanitize_label(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", label).strip("_")


def build_grid(spec: SimGridSpec, master_seed: int) -> list[SimConfig]:
    """Expand the sweep into concrete configs with stable ids."""
    signals = spec.signals if spec.mode == "replay" else (None,)
    grid: list[SimConfig] = []
    for attack in spec.attacks:
        for ratio in spec.ratios:
            for defense in spec.defenses:
                for signal in signals:
                    parts = [
                        sanitize_label(attack_label(attack)),
                        f"r{ratio:g}",
                        sanitize_label(defense_label(defense)),
                    ]
                    if signal is not None:
                        parts.append(sanitize_label(signal_label(signal)))
                    config_id = "-".join(parts)
                    grid.append(
                        SimConfig(
                            config_id=config_id,
                            evaluators=spec.evaluators,
                            defense=defense,
                            rounds=spec.rounds,
                            reward_budget=spec.reward_budget,
                            attack=attack,
                            attack_ratio=ratio,
                            budget=spec.budget,
                            rng_seed=master_seed,
                            quality_signal=signal,
                            honest_noise_sd=spec.honest_noise_sd,
                            producers=spec.producers,
                            beta_concentration=spec.beta_concentration,
                        )
                    )
    return grid


@dataclass(frozen=True)
class RunConfig:
    """Parsed YAML run configuration with defaults filled in."""

    input_path: str | None = None
    out_dir: str | None = None
    seed: int | None = None
    weights_name: str | None = None
    weights_inline: Mapping[DimensionId, float] | None = None
    structure: StructurePolicy = field(default_factory=StructurePolicy)
    semantic_spec: str = "builtin"
    alignment_column: str | None = None
    model_priors: PriorTable | None = None
    cost_priors: PriorTable | None = None
    normalization_mode: str = "batch"
    normalization_stats_path: str | None = None
    gate: str = "pearson"
    threshold: float = 0.0
    per_task: bool = False
    preset: str = "paper"
    variant_names: tuple[str, ...] | None = None
    synthetic: SyntheticSpec | None = None
    sim: SimGridSpec | None = None


_KNOWN_CONFIG_KEYS = frozenset(
    {
        "schema",
        "input",
        "out",
        "seed",
        "weights",
        "structure",
        "providers",
        "priors",
        "normalization",
        "audit",
        "synthetic",
        "sim",
    }
)


def _config_float(section: Mapping, key: str, default: float, where: str) -> float:
    value = section.get(key, default)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}.{key} must be a number")
    return float(value)


def _config_int(section: Mapping, key: str, default: int, where: str) -> int:
    value = section.get(key, default)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}.{key} must be an integer")
    return value


def _parse_weights(value) -> tuple[str | None, dict[DimensionId, float] | None]:
    if value is None:
        return None, None
    if isinstance(value, str):
        return value, None
    if isinstance(value, dict):
        inline = {}
        for name, w in value.items():
            try:
                dim = parse_dimension(str(name))
            except ValueError as exc:
                raise SchemaError(str(exc)) from None
            inline[dim] = _as_number(w, f"weights.{name}")
        return None, inline
    raise SchemaError("weights must be a variant name or a {dimension: weight} map")


def _parse_structure(section) -> StructurePolicy:
    if section is None:
        return StructurePolicy()
    if not isinstance(section, dict):
        raise SchemaError("structure section must be a map")
    allowed = {
        "min_tokens",
        "max_tokens",
        "length_weight",
        "repetition_weight",
        "format_weight",
        "degeneration_weight",
        "repetition_ngram",
        "degeneration_ngram",
        "degeneration_min_count",
    }
    unknown = set(section) - allowed
    if unknown:
        raise SchemaError(f"unknown structure option(s): {', '.join(sorted(unknown))}")
    try:
        return StructurePolicy(**section)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad structure section: {exc}") from None


def _parse_priors(section) -> tuple[PriorTable | None, PriorTable | None]:
    if section is None:
        return None, None
    if not isinstance(section, dict):
        raise SchemaError("priors section must be a map")
    unknown = set(section) - {"model_rating", "cost_efficiency"}
    if unknown:
        raise SchemaError(f"unknown priors key(s): {', '.join(sorted(unknown))}")

    def table(key: str) -> PriorTable | None:
        entry = section.get(key)
        if entry is None:
            return None
        if not isinstance(entry, dict):
            raise SchemaError(f"priors.{key} must be a {{producer: rating}} map")
        return PriorTable(key, {str(k): _as_number(v, f"priors.{key}.{k}") for k, v in entry.items()})

    return table("model_rating"), table("cost_efficiency")


def _parse_providers(section) -> tuple[str, str | None]:
    if section is None:
        return "builtin", None
    if not isinstance(section, dict):
        raise SchemaError("providers section must be a map")
    unknown = set(section) - {"semantic", "alignment"}
    if unknown:
        raise SchemaError(f"unknown providers key(s): {', '.join(sorted(unknown))}")
    semantic = section.get("semantic", "builtin") or "builtin"
    if not isinstance(semantic, str) or (
        semantic != "builtin" and not semantic.startswith("column:")
    ):
        raise SchemaError("providers.semantic must be 'builtin' or 'column:<name>'")
    alignment = section.get("alignment")
    alignment_column = None
    if alignment is not None:
        if not isinstance(alignment, str) or not alignment.startswith("column:"):
            raise SchemaError("providers.alignment must be 'column:<name>'")
        alignment_column = alignment.split(":", 1)[1]
        if not alignment_column:
            raise SchemaError("providers.alignment column name is empty")
    return semantic, alignment_column


def _parse_normalization(section) -> tuple[str, str | None]:
    if section is None:
        return "batch", None
    if not isinstance(section, dict):
        raise SchemaError("normalization section must be a map")
    mode = section.get("mode", "batch")
    if mode not in ("batch", "frozen"):
        raise SchemaError("normalization.mode must be 'batch' or 'frozen'")
    stats = section.get("stats")
    if mode == "frozen" and not isinstance(stats, str):
        raise SchemaError("normalization.stats must point to a stats JSON file")
    return mode, stats


def _parse_audit(section) -> tuple[str, float, bool, str, tuple[str, ...] | None]:
    gate, threshold, per_task, preset, variants = "pearson", 0.0, False, "paper", None
    if section is None:
        return gate, threshold, per_task, preset, variants
    if not isinstance(section, dict):
        raise SchemaError("audit section must be a map")
    unknown = set(section) - {"gate", "threshold", "per_task", "preset", "variants"}
    if unknown:
        raise SchemaError(f"unknown audit key(s): {', '.join(sorted(unknown))}")
    gate = section.get("gate", gate)
    threshold = _config_float(section, "threshold", threshold, "audit")
    per_task = bool(section.get("per_task", per_task))
    preset = section.get("preset", preset)
    variants_raw = section.get("variants")
    if variants_raw is not None:
        if not isinstance(variants_raw, list):
            raise SchemaError("audit.variants must be a list of variant names")
        variants = tuple(str(v) for v in variants_raw)
    return gate, threshold, per_task, preset, variants


def _parse_synthetic(section, default_seed: int | None) -> SyntheticSpec | None:
    if section is None:
        return None
    if not isinstance(section, dict):
        raise SchemaError("synthetic section must be a map")
    allowed = {
        "n",
        "qa_fraction",
        "correlations",
        "evaluators",
        "producers",
        "producers_per_query",
        "seed",
    }
    unknown = set(section) - allowed
    if unknown:
        raise SchemaError(f"unknown synthetic key(s): {', '.join(sorted(unknown))}")
    n = _config_int(section, "n", 0, "synthetic")
    correlations_raw = section.get("correlations") or {}
    if not isinstance(correlations_raw, dict):
        raise SchemaError("synthetic.correlations must be a map")

    def dim_map(entry, where: str) -> dict[DimensionId, float]:
        if not isinstance(entry, dict):
            raise SchemaError(f"{where} must be a {{dimension: rho}} map")
        out = {}
        for name, rho in entry.items():
            try:
                dim = parse_dimension(str(name))
            except ValueError as exc:
                raise SchemaError(str(exc)) from None
            out[dim] = _as_number(rho, f"{where}.{name}")
        return out

    # flat {dimension: rho} applies to both standard tasks
    if correlations_raw and all(not isinstance(v, dict) for v in correlations_raw.values()):
        shared = dim_map(correlations_raw, "synthetic.correlations")
        correlations = {"qa": shared, "summarization": dict(shared)}
    else:
        correlations = {
            str(task): dim_map(entry, f"synthetic.correlations.{task}")
            for task, entry in correlations_raw.items()
        }

    evaluators_raw = section.get("evaluators") or {}
    if not isinstance(evaluators_raw, dict):
        raise SchemaError("synthetic.evaluators must be a {evaluator: noise_sd} map")
    noise = {
        str(k): _as_number(v, f"synthetic.evaluators.{k}") for k, v in evaluators_raw.items()
    }

    producers = section.get("producers") or ("model-a", "model-b", "model-c")
    if not isinstance(producers, (list, tuple)):
        raise SchemaError("synthetic.producers must be a list")
    seed = section.get("seed", default_seed)
    return SyntheticSpec(
        n=n,
        correlations=correlations,
        evaluator_noise=noise,
        qa_fraction=_config_float(section, "qa_fraction", 0.5, "synthetic"),
        producers=tuple(str(p) for p in producers),
        producers_per_query=_config_int(section, "producers_per_query", 1, "synthetic"),
        rng_seed=int(seed) if seed is not None else 0,
    )


def parse_attack(entry) -> AttackStrategy | None:
    if entry is None or entry == "none" or entry == {"type": "none"}:
        return None
    if not isinstance(entry, dict) or "type" not in entry:
        raise SchemaError("attack entries must be maps with a 'type' key")
    kind = entry["type"]
    try:
        if kind == "inflate":
            return Inflate(delta=_as_number(entry.get("delta", 0.2), "attack.delta"))
        if kind == "deflate":
            return Deflate(delta=_as_number(entry.get("delta", 0.2), "attack.delta"))
        if kind == "random_noise":
            return RandomNoise()
        if kind == "collude":
            return Collude(
                target_producer=str(entry.get("target", "")),
                delta=_as_number(entry.get("delta", 0.2), "attack.delta"),
            )
        if kind == "camouflage":
            return Camouflage(
                honest_rounds=int(entry.get("honest_rounds", 0)),
                then_delta=_as_number(entry.get("then_delta", 0.2), "attack.then_delta"),
            )
    except ValueError as exc:
        raise SchemaError(f"bad attack spec: {exc}") from None
    raise SchemaError(f"unknown attack type {kind!r}")


def parse_defense(entry) -> DefenseConfig:
    if isinstance(entry, str):
        entry = {"type": entry}
    if not isinstance(entry, dict) or "type" not in entry:
        raise SchemaError("defense entries must be maps with a 'type' key")
    kind = entry["type"]
    try:
        if kind == "mean":
            return Mean()
        if kind == "median":
            return Median()
        if kind == "trimmed_mean":
            return TrimmedMean(
                trim_fraction=_as_number(entry.get("trim_fraction", 0.2), "defense.trim_fraction")
            )
        if kind == "adaptive_trust":
            floor = entry.get("floor")
            return AdaptiveTrust(
                learning_rate=_as_number(
                    entry.get("learning_rate", 1.0), "defense.learning_rate"
                ),
                floor=None if floor is None else _as_number(floor, "defense.floor"),
            )
    except ValueError as exc:
        raise SchemaError(f"bad defense spec: {exc}") from None
    raise SchemaError(f"unknown defense type {kind!r}")


def parse_signal(entry) -> QualitySignal:
    if not isinstance(entry, dict) or "type" not in entry:
        raise SchemaError("signal entries must be maps with a 'type' key")
    kind = entry["type"]
    try:
        if kind == "evaluator":
            return SingleEvaluator(evaluator_id=str(entry["id"]))
        if kind == "baseline":
            return ConsensusBaseline(stat=str(entry.get("stat", "median")))
        if kind == "composite":
            return CompositeSignal(variant=str(entry.get("variant", "default")))
    except KeyError as exc:
        raise SchemaError(f"signal spec missing key {exc}") from None
    except ValueError as exc:
        raise SchemaError(f"bad signal spec: {exc}") from None
    raise SchemaError(f"unknown signal type {kind!r}")


def _parse_sim(section) -> SimGridSpec | None:
    if section is None:
        return None
    if not isinstance(section, dict):
        raise SchemaError("sim section must be a map")
    allowed = {
        "mode",
        "rounds",
        "reward_budget",
        "budget",
        "honest_noise_sd",
        "beta_concentration",
        "evaluators",
        "producers",
        "attacks",
        "ratios",
        "defenses",
        "signals",
    }
    unknown = set(section) - allowed
    if unknown:
        raise SchemaError(f"unknown sim key(s): {', '.join(sorted(unknown))}")

    evaluators_raw = section.get("evaluators") or []
    if not isinstance(evaluators_raw, list):
        raise SchemaError("sim.evaluators must be a list")
    profiles = []
    for i, entry in enumerate(evaluators_raw):
        if not isinstance(entry, dict) or "id" not in entry:
            raise SchemaError(f"sim.evaluators[{i}] must be a map with an 'id'")
        tier = entry.get("tier", "medium")
        if tier not in _TIERS:
            raise SchemaError(f"sim.evaluators[{i}].tier must be one of {sorted(_TIERS)}")
        profiles.append(
            EvaluatorProfile(
                evaluator_id=str(entry["id"]),
                cost=_as_number(entry.get("cost", 1.0), f"sim.evaluators[{i}].cost"),
                cost_tier=_TIERS[tier],
            )
        )

    producers_raw = section.get("producers")
    producers = None
    if producers_raw is not None:
        if not isinstance(producers_raw, dict):
            raise SchemaError("sim.producers must be a {producer: mean_quality} map")
        producers = {
            str(k): _as_number(v, f"sim.producers.{k}") for k, v in producers_raw.items()
        }

    attacks_raw = section.get("attacks", [None])
    if not isinstance(attacks_raw, list) or not attacks_raw:
        raise SchemaError("sim.attacks must be a non-empty list")
    ratios_raw = section.get("ratios", [0.0])
    if not isinstance(ratios_raw, list) or not ratios_raw:
        raise SchemaError("sim.ratios must be a non-empty list")
    defenses_raw = section.get("defenses", [{"type": "median"}])
    if not isinstance(defenses_raw, list) or not defenses_raw:
        raise SchemaError("sim.defenses must be a non-empty list")
    signals_raw = section.get("signals")
    if signals_raw is None:
        signals: tuple[QualitySignal | None, ...] = (None,)
    else:
        if not isinstance(signals_raw, list) or not signals_raw:
            raise SchemaError("sim.signals must be a non-empty list")
        signals = tuple(parse_signal(s) for s in signals_raw)

    budget = section.get("budget")
    return SimGridSpec(
        mode=str(section.get("mode", "synthetic")),
        rounds=_config_int(section, "rounds", 200, "sim"),
        reward_budget=_config_float(section, "reward_budget", 1.0, "sim"),
        budget=None if budget is None else _as_number(budget, "sim.budget"),
        honest_noise_sd=_config_float(section, "honest_noise_sd", 0.0, "sim"),
        beta_concentration=_config_float(section, "beta_concentration", 10.0, "sim"),
        evaluators=tuple(profiles),
        producers=producers,
        attacks=tuple(parse_attack(a) for a in attacks_raw),
        ratios=tuple(_as_number(r, "sim.ratios[]") for r in ratios_raw),
        defenses=tuple(parse_defense(d) for d in defenses_raw),
        signals=signals,
    )


def load_config(path: str | Path | None) -> RunConfig:
    """Load and validate one YAML run config; None gives all defaults."""
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise SchemaError("run config must be a YAML map")
    unknown = set(raw) - _KNOWN_CONFIG_KEYS
    if unknown:
        raise SchemaError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    schema = raw.get("schema", 1)
    if schema != 1:
        raise SchemaError(f"unsupported config schema {schema!r}")

    seed = raw.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise SchemaError("seed must be an integer")

    weights_name, weights_inline = _parse_weights(raw.get("weights"))
    semantic_spec, alignment_column = _parse_providers(raw.get("providers"))
    model_priors, cost_priors = _parse_priors(raw.get("priors"))
    normalization_mode, stats_path = _parse_normalization(raw.get("normalization"))
    gate, threshold, per_task, preset, variants = _parse_audit(raw.get("audit"))

    return RunConfig(
        input_path=raw.get("input"),
        out_dir=raw.get("out"),
        seed=seed,
        weights_name=weights_name,
        weights_inline=weights_inline,
        structure=_parse_structure(raw.get("structure")),
        semantic_spec=semantic_spec,
        alignment_column=alignment_column,
        model_priors=model_priors,
        cost_priors=cost_priors,
        normalization_mode=normalization_mode,
        normalization_stats_path=stats_path,
        gate=gate,
        threshold=threshold,
        per_task=per_task,
        preset=preset,
        variant_names=variants,
        synthetic=_parse_synthetic(raw.get("synthetic"), seed),
        sim=_parse_sim(raw.get("sim")),
    )


def resolve_weights(config: RunConfig, override_name: str | None = None) -> WeightConfig:
    """Pick the run's weight config: flag override, inline map, named variant."""
    from mdqs.composite import make_variant
    from mdqs.model import DEFAULT_WEIGHTS

    name = override_name or config.weights_name
    if name is None and config.weights_inline is not None:
        return WeightConfig("custom", config.weights_inline)
    if name is None or name == "default":
        return DEFAULT_WEIGHTS
    known = dict(PAPER_PRESET)
    if name not in known:
        raise SchemaError(f"unknown weights variant {name!r} (known: {', '.join(known)})")
    return make_variant(DEFAULT_WEIGHTS, known[name])


def load_frozen_stats(path: str | Path) -> dict[DimensionId, tuple[float, float]]:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise SchemaError("normalization stats file must be a JSON object")
    stats = {}
    for name, pair in raw.items():
        try:
            dim = parse_dimension(str(name))
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise SchemaError(f"stats for {name!r} must be a [min, max] pair")
        stats[dim] = (
            _as_number(pair[0], f"stats.{name}[0]"),
            _as_number(pair[1], f"stats.{name}[1]"),
        )
    return stats


def build_scoring_config(
    config: RunConfig, weights: WeightConfig
) -> ScoringConfig:
    if config.semantic_spec == "builtin":
        semantic = CharNgramSemanticProvider()
    else:
        semantic = ColumnProvider(config.semantic_spec.split(":", 1)[1], CostTier.MEDIUM)
    alignment = (
        ColumnProvider(config.alignment_column, CostTier.HIGH)
        if config.alignment_column
        else None
    )
    frozen = None
    if config.normalization_mode == "frozen":
        frozen = load_frozen_stats(config.normalization_stats_path)
    return ScoringConfig(
        weights=weights,
        structure=config.structure,
        model_priors=config.model_priors,
        cost_priors=config.cost_priors,
        semantic_provider=semantic,
        alignment_provider=alignment,
        frozen_stats=frozen,
    )


def check_required_columns(samples: Sequence[LoggedSample], scoring: ScoringConfig) -> None:
    """Fail fast, before any scoring work, if a referenced input is absent."""
    active = scoring.weights.dimensions()
    for sample in samples:
        if DimensionId.SEMANTIC in active and isinstance(
            scoring.semantic_provider, CharNgramSemanticProvider
        ):
            if sample.reference_text is None:
                raise MissingReferenceText(sample.sample_id)
        if DimensionId.SEMANTIC in active and isinstance(scoring.semantic_provider, ColumnProvider):
            _probe_column(sample, scoring.semantic_provider.column)
        if DimensionId.ALIGNMENT in active and isinstance(
            scoring.alignment_provider, ColumnProvider
        ):
            _probe_column(sample, scoring.alignment_provider.column)


def _probe_column(sample: LoggedSample, column: str) -> None:
    if column in sample.evaluator_scores:
        return
    value = sample.extra.get(column)
    if value is None or isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MissingColumn(column, sample.sample_id)


# ---------------------------------------------------------------------------
# report emission


@dataclass(frozen=True)
class EmittedFile:
    path: str  # relative to the output directory
    series: str


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_safe(text: str) -> str:
    """Flatten free-form text so it fits the no-quoting CSV dialect."""
    return text.replace('"', "'").replace(",", ";").replace("\n", " ")


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        cells = [_cell(v) for v in row]
        for c in cells:
            if "," in c or '"' in c or "\n" in c:
                raise ValueError(f"cell needs quoting, refusing for determinism: {c!r}")
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False) + "\n",
        encoding="utf-8",
    )


def update_manifest(out_dir: Path, entries: Sequence[EmittedFile]) -> Path:
    """Merge new entries into manifest.json, keyed and sorted by path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    existing: dict[str, str] = {}
    if manifest_path.exists():
        try:
            raw = json.loads(manifest_path.read_text(encoding="utf-8"))
            for entry in raw.get("files", []):
                existing[entry["path"]] = entry["series"]
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            raise SchemaError(f"corrupt manifest at {manifest_path}: {exc}") from None
    for entry in entries:
        existing[entry.path] = entry.series
    write_json(
        manifest_path,
        {
            "schema": 1,
            "files": [{"path": p, "series": existing[p]} for p in sorted(existing)],
        },
    )
    return manifest_path


def _audit_block_json(block: AuditBlock) -> dict:
    return {
        "label": block.label,
        "rows": [
            {
                "kind": r.kind,
                "name": r.name,
                "pearson": r.pearson,
                "spearman": r.spearman,
                "n": r.n,
            }
            for r in block.rows
        ],
    }


def _calibration_json(result: CalibrationResult) -> dict:
    return {
        "gate": result.gate,
        "threshold": result.threshold,
        "removed": list(result.removed_names),
        "gate_stats": {
            d.value: result.gate_stats[d]
            for d in CANONICAL_DIMENSIONS
            if d in result.gate_stats
        },
        "calibrated_weights": {
            d.value: result.calibrated[d]
            for d in CANONICAL_DIMENSIONS
            if d in result.calibrated.dimensions()
        },
        "before": {"pearson": result.before[0], "spearman": result.before[1]},
        "after": {"pearson": result.after[0], "spearman": result.after[1]},
    }


def _sim_entry_json(config: SimConfig, result: SimOutcome | SimError) -> dict:
    base = {
        "config_id": config.config_id,
        "attack": attack_label(config.attack),
        "attack_ratio": config.attack_ratio,
        "defense": defense_label(config.defense),
        "quality_signal": signal_label(config.quality_signal),
        "rounds": config.rounds,
        "reward_budget": config.reward_budget,
        "rng_seed": config.rng_seed,
    }
    if isinstance(result, SimError):
        base["status"] = "error"
        base["error_type"] = result.error_type
        base["message"] = result.message
        return base
    base["status"] = "ok"
    base["consensus_error"] = result.consensus_error
    base["skipped_rounds"] = result.skipped_rounds
    base["attackers"] = sorted(result.attacker_ids)
    base["rewards"] = {p: result.rewards[p] for p in sorted(result.rewards)}
    base["consensus_scores"] = dict(result.consensus_scores)
    base["trust_trajectory"] = [dict(step) for step in result.trust_trajectory]
    return base


def _top_producer(result: SimOutcome | SimError) -> str | None:
    if isinstance(result, SimError) or not result.rewards:
        return None
    best = max(result.rewards.values())
    return min(p for p, v in result.rewards.items() if v == best)


def emit_reports(
    out_dir: str | Path,
    *,
    validation: ValidationReport | None = None,
    ingest_issues: Sequence[IngestIssue] | None = None,
    scored_samples: Sequence[LoggedSample] | None = None,
    synthetic_samples: Sequence[LoggedSample] | None = None,
    normalization_stats: Mapping[DimensionId, tuple[float, float]] | None = None,
    audit_report: AuditReport | None = None,
    ablation: Sequence[AblationRow] | None = None,
    calibration: CalibrationResult | None = None,
    calibration_by_task: Mapping[str, CalibrationResult] | None = None,
    sim_results: Sequence[tuple[SimConfig, SimOutcome | SimError]] | None = None,
    dimension_means: Sequence[tuple[str, str, float, int]] | None = None,
) -> list[EmittedFile]:
    """Write whatever result objects are given, then merge the manifest.

    Each file is one plot-ready series; absent inputs mean absent files.
    Returns the emitted entries (manifest.json itself is not listed).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emitted: list[EmittedFile] = []

    def add(name: str, series: str):
        emitted.append(EmittedFile(path=name, series=series))

    if validation is not None:
        write_json(
            out / "validation.json",
            {
                "valid": validation.valid_count,
                "invalid": validation.invalid_count,
                "total": validation.total,
                "issues": [
                    {"sample_id": i.sample_id, "field": i.fieldname, "message": i.message}
                    for i in validation.issues
                ],
            },
        )
        add("validation.json", "validation")

    if ingest_issues:
        path = out / "ingest_errors.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for issue in ingest_issues:
                fh.write(
                    json.dumps(
                        {"line": issue.line_no, "error": issue.message},
                        ensure_ascii=False,
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")
        add("ingest_errors.jsonl", "ingest_errors")

    if scored_samples is not None:
        write_jsonl(out / "scored.jsonl", scored_samples)
        add("scored.jsonl", "scored_dataset")

    if synthetic_samples is not None:
        write_jsonl(out / "synthetic.jsonl", synthetic_samples)
        add("synthetic.jsonl", "synthetic_dataset")

    if normalization_stats is not None:
        write_json(
            out / "normalization_stats.json",
            {
                d.value: [normalization_stats[d][0], normalization_stats[d][1]]
                for d in CANONICAL_DIMENSIONS
                if d in normalization_stats
            },
        )
        add("normalization_stats.json", "normalization_stats")

    if audit_report is not None:
        header = ["kind", "name", "pearson", "spearman", "n"]
        write_csv(
            out / "correlation_summary.csv",
            header,
            [
                (r.kind, r.name, r.pearson, r.spearman, r.n)
                for r in audit_report.overall.rows
            ],
        )
        add("correlation_summary.csv", "correlation_summary")
        write_csv(
            out / "dimension_correlations.csv",
            ["name", "pearson", "spearman", "n"],
            [
                (r.name, r.pearson, r.spearman, r.n)
                for r in audit_report.overall.dimensions()
            ],
        )
        add("dimension_correlations.csv", "dimension_correlations")
        task_rows = []
        for label, block in audit_report.by_task.items():
            for r in block.rows:
                task_rows.append((label, r.kind, r.name, r.pearson, r.spearman, r.n))
        write_csv(
            out / "taskwise_correlations.csv",
            ["task", "kind", "name", "pearson", "spearman", "n"],
            task_rows,
        )
        add("taskwise_correlations.csv", "taskwise_correlations")
        write_json(
            out / "audit.json",
            {
                "n_referenced": audit_report.n_referenced,
                "overall": _audit_block_json(audit_report.overall),
                "by_task": {
                    label: _audit_block_json(block)
                    for label, block in audit_report.by_task.items()
                },
            },
        )
        add("audit.json", "audit")

    if ablation is not None:
        write_csv(
            out / "ablation_grid.csv",
            ["variant", "pearson", "spearman", "n"],
            [(r.name, r.pearson, r.spearman, r.n) for r in ablation],
        )
        add("ablation_grid.csv", "ablation_grid")

    if calibration is not None:
        payload = _calibration_json(calibration)
        if calibration_by_task:
            payload["by_task"] = {
                label: _calibration_json(result)
                for label, result in calibration_by_task.items()
            }
        write_json(out / "calibration.json", payload)
        add("calibration.json", "calibration")

    if sim_results is not None:
        # labels and messages may contain commas; the CSV carries flattened
        # forms and the per-config JSON keeps the exact ones
        rows = []
        for config, result in sim_results:
            ok = not isinstance(result, SimError)
            rows.append(
                (
                    config.config_id,
                    "ok" if ok else "error",
                    sanitize_label(attack_label(config.attack)),
                    config.attack_ratio,
                    sanitize_label(defense_label(config.defense)),
                    sanitize_label(signal_label(config.quality_signal)),
                    result.consensus_error if ok else None,
                    result.skipped_rounds if ok else None,
                    _top_producer(result),
                    None if ok else _csv_safe(result.message),
                )
            )
        write_csv(
            out / "defense_comparison.csv",
            [
                "config_id",
                "status",
                "attack",
                "attack_ratio",
                "defense",
                "quality_signal",
                "consensus_error",
                "skipped_rounds",
                "top_producer",
                "message",
            ],
            rows,
        )
        add("defense_comparison.csv", "defense_comparison")
        for config, result in sim_results:
            name = f"sim_{config.config_id}.json"
            write_json(out / name, _sim_entry_json(config, result))
            add(name, f"sim:{config.config_id}")

    if dimension_means is not None:
        write_csv(
            out / "dimension_means_by_producer.csv",
            ["producer", "dimension", "mean", "n"],
            dimension_means,
        )
        add("dimension_means_by_producer.csv", "dimension_means_by_producer")

    update_manifest(out, emitted)
    return emitted
