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

import dataclasses
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import yaml

from mdqs.audit import GATE_CHOICES, AblationRow, AuditBlock, AuditReport, CalibrationResult
from mdqs.composite import PAPER_PRESET
from mdqs.errors import (
    MissingColumn,
    MissingReferenceText,
    SchemaError,
    SimConfigError,
)
from mdqs.model import (
    CANONICAL_DIMENSIONS,
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
    ATTACKS,
    DEFENSES,
    SIGNALS,
    AttackStrategy,
    DefenseConfig,
    Median,
    QualitySignal,
    SimConfig,
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
# value readers
#
# Every untrusted value, in a record or in the run config, passes through one
# of these. Each raises SchemaError naming where the value sits, such as
# "evaluator_scores.judge" or "sim.attacks[1].delta".


def _number(value, where: str) -> float:
    """A finite number from a record or a config; bools are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where} must be a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{where} must be finite, got {number!r}")
    return number


def _section(raw, where: str, keys: Sequence[str] | None = None) -> dict:
    """A map ({} when absent); with `keys`, any other key is an error."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise SchemaError(f"{where} must be a map")
    unknown = set(raw) - set(keys) if keys is not None else ()
    if unknown:
        raise SchemaError(f"unknown {where} key(s): {', '.join(sorted(map(str, unknown)))}")
    return raw


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where} must be an integer, got {type(value).__name__}")
    return value


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{where} must be a string, got {type(value).__name__}")
    return value


def _flag(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{where} must be true or false, got {type(value).__name__}")
    return value


def _one_of(*choices: str):
    """A reader that accepts only the given strings."""

    def read(value, where: str) -> str:
        if _text(value, where) not in choices:
            raise SchemaError(f"{where} must be one of {', '.join(choices)}; got {value!r}")
        return value

    return read


def _opt(section: Mapping, key: str, read, where: str, default=None):
    """section[key] passed through `read`; `default` when absent or null."""
    value = section.get(key)
    return default if value is None else read(value, f"{where}.{key}" if where else key)


def _dimension_map(raw, where: str, read=_number) -> dict:
    """A {dimension name: value} map keyed by DimensionId."""
    out = {}
    for name, value in _section(raw, where).items():
        try:
            dim = parse_dimension(str(name))
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
        out[dim] = read(value, f"{where}.{name}")
    return out


# ---------------------------------------------------------------------------
# record <-> sample


def from_record(obj: object) -> LoggedSample:
    """Parse one JSONL record; SchemaError names the offending field."""
    if not isinstance(obj, dict):
        raise SchemaError(f"record must be an object, got {type(obj).__name__}")
    schema = obj.get("schema", RECORD_SCHEMA)
    if schema != RECORD_SCHEMA:
        raise SchemaError(f"unsupported record schema {schema!r}")
    try:
        task = TaskFamily(_text(obj.get("task"), "task"))
    except ValueError as exc:
        raise SchemaError(f"task: {exc}") from None
    scores = _section(obj.get("evaluator_scores"), "evaluator_scores")
    dims = _dimension_map(obj.get("dims"), "dims")
    return LoggedSample(
        sample_id=_text(obj.get("sample_id"), "sample_id"),
        task=task,
        producer_id=_text(obj.get("producer_id"), "producer_id"),
        query=_text(obj.get("query"), "query"),
        output=_text(obj.get("output"), "output"),
        evaluator_scores={str(k): _number(v, f"evaluator_scores.{k}") for k, v in scores.items()},
        reference_score=_opt(obj, "gt", _number, ""),
        reference_text=_opt(obj, "reference_text", _text, ""),
        dimension_scores=DimensionVector(dims) if dims else None,
        extra={k: v for k, v in obj.items() if k not in _KNOWN_RECORD_FIELDS},
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
    with open(path, "rb") as fh:  # decoded per line, so one bad byte costs one line
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                samples.append(from_record(json.loads(line.decode("utf-8"))))
            except (UnicodeDecodeError, json.JSONDecodeError, SchemaError) as exc:
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


# In a config section, a key set to null means its default. In an entry built
# from a dataclass (structure, attacks, defenses, signals) null is accepted
# only by a field that takes None.

_TOP_KEYS = (
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
)


def _column(value, where: str) -> str:
    name = _text(value, where).partition("column:")[2]
    if not value.startswith("column:") or not name:
        raise SchemaError(f"{where} must be 'column:<name>'")
    return name


# field annotation -> reader, for entries built from a dataclass's fields
_FIELD_READERS = {
    "int": _integer,
    "float": _number,
    "str": _text,
    "float | None": lambda value, where: None if value is None else _number(value, where),
}
# the config keys that differ from the field they set
_FIELD_KEYS = {"target_producer": "target", "evaluator_id": "id"}


def _from_fields(cls, raw, where: str, extra_keys: Sequence[str] = ()):
    """Build dataclass `cls` from a config map keyed by its field names."""
    fields = {_FIELD_KEYS.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    entry = _section(raw, where, (*fields, *extra_keys))
    kwargs = {}
    for key, f in fields.items():
        if key in entry:
            kwargs[f.name] = _FIELD_READERS[f.type](entry[key], f"{where}.{key}")
        elif f.default is dataclasses.MISSING:
            raise SchemaError(f"{where} needs '{key}'")
    try:
        return cls(**kwargs)
    except (ValueError, SimConfigError) as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _strategy(registry: Mapping[str, type], raw, where: str):
    """One attack, defense or signal entry: {type: <registry key>, <fields>...}."""
    if not isinstance(raw, dict) or "type" not in raw:
        raise SchemaError(f"{where} must be a map with a 'type' key")
    kind = raw["type"]
    if not isinstance(kind, str) or kind not in registry:
        raise SchemaError(f"{where}.type must be one of {', '.join(registry)}; got {kind!r}")
    return _from_fields(registry[kind], raw, where, extra_keys=("type",))


def parse_attack(entry, where: str = "attack") -> AttackStrategy | None:
    return None if entry in (None, "none", {"type": "none"}) else _strategy(ATTACKS, entry, where)


def parse_defense(entry, where: str = "defense") -> DefenseConfig:
    return _strategy(DEFENSES, {"type": entry} if isinstance(entry, str) else entry, where)


def parse_signal(entry, where: str = "signal") -> QualitySignal:
    return _strategy(SIGNALS, entry, where)


def _weights(value) -> tuple[str | None, dict[DimensionId, float] | None]:
    if value is None or isinstance(value, str):
        return value, None
    if not isinstance(value, dict):
        raise SchemaError("weights must be a variant name or a {dimension: weight} map")
    return None, _dimension_map(value, "weights")


def _prior_table(priors: Mapping, key: str) -> PriorTable | None:
    if priors.get(key) is None:
        return None
    table = _section(priors[key], f"priors.{key}")
    return PriorTable(key, {str(k): _number(v, f"priors.{key}.{k}") for k, v in table.items()})


def _synthetic(raw, default_seed: int | None) -> SyntheticSpec | None:
    if raw is None:
        return None
    section = _section(
        raw,
        "synthetic",
        ("n", "qa_fraction", "correlations", "evaluators", "producers", "producers_per_query",
         "seed"),
    )
    correlations = _section(section.get("correlations"), "synthetic.correlations")
    # flat {dimension: rho} applies to both standard tasks
    if correlations and all(not isinstance(v, dict) for v in correlations.values()):
        shared = _dimension_map(correlations, "synthetic.correlations")
        by_task = {"qa": shared, "summarization": dict(shared)}
    else:
        by_task = {
            str(task): _dimension_map(entry, f"synthetic.correlations.{task}")
            for task, entry in correlations.items()
        }
    noise = {
        str(k): _number(v, f"synthetic.evaluators.{k}")
        for k, v in _section(section.get("evaluators"), "synthetic.evaluators").items()
    }
    producers = section.get("producers") or ("model-a", "model-b", "model-c")
    if not isinstance(producers, (list, tuple)):
        raise SchemaError("synthetic.producers must be a list")
    return SyntheticSpec(
        n=_opt(section, "n", _integer, "synthetic", 0),
        correlations=by_task,
        evaluator_noise=noise,
        qa_fraction=_opt(section, "qa_fraction", _number, "synthetic", 0.5),
        producers=tuple(_text(p, f"synthetic.producers[{i}]") for i, p in enumerate(producers)),
        producers_per_query=_opt(section, "producers_per_query", _integer, "synthetic", 1),
        rng_seed=_opt(section, "seed", _integer, "synthetic", default_seed or 0),
    )


_tier = _one_of("low", "medium", "high")  # accepted for old configs, then ignored


def _evaluator(raw, where: str) -> EvaluatorProfile:
    entry = _section(raw, where, ("id", "cost", "tier"))
    if "tier" in entry:
        _tier(entry["tier"], f"{where}.tier")
    if "id" not in entry:
        raise SchemaError(f"{where} needs an 'id'")
    try:
        return EvaluatorProfile(
            evaluator_id=_text(entry["id"], f"{where}.id"),
            cost=_opt(entry, "cost", _number, where, 1.0),
        )
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _sim(raw) -> SimGridSpec | None:
    if raw is None:
        return None
    section = _section(raw, "sim", [f.name for f in dataclasses.fields(SimGridSpec)])
    evaluators = section.get("evaluators") or []
    if not isinstance(evaluators, list):
        raise SchemaError("sim.evaluators must be a list")
    producers = section.get("producers")
    if producers is not None:
        producers = {
            str(k): _number(v, f"sim.producers.{k}")
            for k, v in _section(producers, "sim.producers").items()
        }

    def each(key: str, parse, default: list) -> tuple:
        entries = section.get(key)
        entries = default if entries is None else entries
        if not isinstance(entries, list) or not entries:
            raise SchemaError(f"sim.{key} must be a non-empty list")
        return tuple(parse(e, f"sim.{key}[{i}]") for i, e in enumerate(entries))

    return SimGridSpec(
        mode=_opt(section, "mode", _text, "sim", "synthetic"),
        rounds=_opt(section, "rounds", _integer, "sim", 200),
        reward_budget=_opt(section, "reward_budget", _number, "sim", 1.0),
        budget=_opt(section, "budget", _number, "sim"),
        honest_noise_sd=_opt(section, "honest_noise_sd", _number, "sim", 0.0),
        beta_concentration=_opt(section, "beta_concentration", _number, "sim", 10.0),
        evaluators=tuple(_evaluator(e, f"sim.evaluators[{i}]") for i, e in enumerate(evaluators)),
        producers=producers,
        attacks=each("attacks", parse_attack, [None]),
        ratios=each("ratios", _number, [0.0]),
        defenses=each("defenses", parse_defense, ["median"]),
        signals=(None,) if section.get("signals") is None else each("signals", parse_signal, []),
    )


def load_config(path: str | Path | None) -> RunConfig:
    """Load and validate one YAML run config; None gives all defaults."""
    if path is None:
        return RunConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise SchemaError(f"cannot load config {path}: {exc}") from None
    raw = _section(raw, "run config", _TOP_KEYS)
    schema = raw.get("schema", 1)
    if schema != 1:
        raise SchemaError(f"unsupported config schema {schema!r}")
    seed = _opt(raw, "seed", _integer, "")
    weights_name, weights_inline = _weights(raw.get("weights"))

    providers = _section(raw.get("providers"), "providers", ("semantic", "alignment"))
    semantic = _opt(providers, "semantic", _text, "providers", "builtin")
    if semantic != "builtin":
        semantic = "column:" + _column(semantic, "providers.semantic")

    priors = _section(raw.get("priors"), "priors", ("model_rating", "cost_efficiency"))

    normalization = _section(raw.get("normalization"), "normalization", ("mode", "stats"))
    mode = _opt(normalization, "mode", _one_of("batch", "frozen"), "normalization", "batch")
    stats = _opt(normalization, "stats", _text, "normalization")
    if mode == "frozen" and stats is None:
        raise SchemaError("normalization.stats must point to a stats JSON file")

    audit_keys = ("gate", "threshold", "per_task", "preset", "variants")
    audit_section = _section(raw.get("audit"), "audit", audit_keys)
    variants = audit_section.get("variants")
    if variants is not None:
        if not isinstance(variants, list):
            raise SchemaError("audit.variants must be a list of variant names")
        variant = _one_of(*(name for name, _ in PAPER_PRESET))
        variants = tuple(variant(v, f"audit.variants[{i}]") for i, v in enumerate(variants))

    return RunConfig(
        input_path=_opt(raw, "input", _text, ""),
        out_dir=_opt(raw, "out", _text, ""),
        seed=seed,
        weights_name=weights_name,
        weights_inline=weights_inline,
        structure=_from_fields(StructurePolicy, raw.get("structure"), "structure"),
        semantic_spec=semantic,
        alignment_column=_opt(providers, "alignment", _column, "providers"),
        model_priors=_prior_table(priors, "model_rating"),
        cost_priors=_prior_table(priors, "cost_efficiency"),
        normalization_mode=mode,
        normalization_stats_path=stats,
        gate=_opt(audit_section, "gate", _one_of(*GATE_CHOICES), "audit", "pearson"),
        threshold=_opt(audit_section, "threshold", _number, "audit", 0.0),
        per_task=_opt(audit_section, "per_task", _flag, "audit", False),
        preset=_opt(audit_section, "preset", _one_of("paper"), "audit", "paper"),
        variant_names=variants,
        synthetic=_synthetic(raw.get("synthetic"), seed),
        sim=_sim(raw.get("sim")),
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


def _min_max(pair, where: str) -> tuple[float, float]:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise SchemaError(f"{where} must be a [min, max] pair")
    return _number(pair[0], f"{where}[0]"), _number(pair[1], f"{where}[1]")


def load_frozen_stats(path: str | Path) -> dict[DimensionId, tuple[float, float]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot load normalization stats {path}: {exc}") from None
    return _dimension_map(raw, "stats", _min_max)


def build_scoring_config(
    config: RunConfig, weights: WeightConfig
) -> ScoringConfig:
    if config.semantic_spec == "builtin":
        semantic = CharNgramSemanticProvider()
    else:
        semantic = ColumnProvider(config.semantic_spec.split(":", 1)[1])
    alignment = ColumnProvider(config.alignment_column) if config.alignment_column else None
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
