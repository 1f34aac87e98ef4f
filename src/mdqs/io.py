"""Dataset serialization, run configuration, and deterministic report files.

Datasets are line-delimited JSON, one sample per line, schema version 1. A
record's `dims` is its sample's row of the (n x 6) dims matrix of the Batch
that ingest returns and the writers take. Unknown record fields
survive a read/write round trip untouched. Run configuration is one YAML
file; every CLI flag that matters has a config counterpart so runs can be
committed and replayed.

Report emission rules that keep reruns byte-identical: no timestamps, fixed
key and column orders, floats written with their shortest round-trip repr,
and a manifest.json that is merged on write with entries sorted by path.
One table, _reports, names each file, its series and its writer. A run's
files, then its manifest, go to hidden temporary files and replace the old
ones only once all are written: a failed run leaves the directory as it was.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import re
from json import JSONDecodeError
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence, TextIO

import numpy as np
import yaml

from mdqs.audit import GATE_CHOICES, AuditBlock, AuditReport, CalibrationResult, CorrelationRow
from mdqs.composite import VARIANTS, variant
from mdqs.errors import AllDimensionsRemoved, InvalidSpec, MdqsError, SchemaError, SimConfigError
from mdqs.model import (
    CANONICAL_DIMENSIONS,
    DEFAULT_WEIGHTS,
    Batch,
    DimensionId,
    EvaluatorProfile,
    LoggedSample,
    Record,
    SimError,
    SimOutcome,
    ValidationReport,
    WeightConfig,
    _COLUMN_BY_NAME,
    _number,
    _text,
    parse_dimension,
)
from mdqs.poq import (
    ATTACKS,
    DEFENSES,
    SIGNALS,
    AttackStrategy,
    CompositeSignal,
    DefenseConfig,
    Median,
    QualitySignal,
    SimConfig,
    SimSettings,
    attack_label,
    signal_label,
)
from mdqs.rng import SEED_LIMIT
from mdqs.scoring import PriorTable, ScoringConfig, StructurePolicy
from mdqs.synth import SyntheticSpec

RECORD_SCHEMA = 1

# a record's keys, in the order to_record writes them, each with the
# LoggedSample field it holds (None: the record's own); any other key rides
# along in the sample's extra
_RECORD_KEYS = {
    "schema": None, "sample_id": "sample_id", "task": "task", "producer_id": "producer_id",
    "query": "query", "output": "output", "evaluator_scores": "evaluator_scores",
    "gt": "reference_score", "reference_text": "reference_text", "dims": None,
}


# ---------------------------------------------------------------------------
# value readers, with mdqs.model's _number and _text: each raises SchemaError
# naming where the value sits, such as "sim.attacks[1].delta"


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


def _seed(value, where: str) -> int:
    seed = _integer(value, where)
    if not 0 <= seed < SEED_LIMIT:
        raise SchemaError(f"{where} must be in [0, 2**64), got {seed}")
    return seed


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


def _unit(value, where: str) -> float:
    if not 0.0 <= _number(value, where) <= 1.0:
        raise SchemaError(f"{where} must be in [0, 1], got {value!r}")
    return float(value)


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


def _dims(raw) -> list[float]:
    """A record's `dims` as one canonical row, filled by name so that no
    DimensionId is hashed; NaN for each dimension it does not name."""
    row = [math.nan] * len(CANONICAL_DIMENSIONS)
    for name, value in _section(raw, "dims").items():
        col = _COLUMN_BY_NAME.get(str(name))
        if col is None:  # parse_dimension's words
            known = ", ".join(_COLUMN_BY_NAME)
            raise SchemaError(f"unknown dimension {str(name)!r} (known: {known})")
        row[col] = _unit(value, f"dims.{name}")
    return row


# ---------------------------------------------------------------------------
# record <-> sample


def from_record(obj: object) -> tuple[LoggedSample, list[float]]:
    """Parse one JSONL record into its sample and its row of dims, NaN where
    absent; SchemaError names the offending field. Like ingest, it refuses a
    lone surrogate or a non-finite number anywhere in the record, so every
    sample it returns can be written back."""
    return _from_record(obj, any_string=True)


def _from_record(obj: object, any_string: bool) -> tuple[LoggedSample, list[float]]:
    """from_record. any_string=False, for a line read without a surrogate
    escape, walks only the unknown fields' containers and numbers."""
    if not isinstance(obj, dict):
        raise SchemaError(f"record must be an object, got {type(obj).__name__}")
    if any_string:
        _refuse_unwritable(obj, "")
    schema = obj.get("schema", RECORD_SCHEMA)
    if schema != RECORD_SCHEMA:
        raise SchemaError(f"unsupported record schema {schema!r}")
    # LoggedSample reads the other fields; gt is read here so that its messages say gt
    fields = {name: obj.get(key) for key, name in _RECORD_KEYS.items() if name}
    fields["evaluator_scores"] = _section(fields["evaluator_scores"], "evaluator_scores")
    fields["reference_score"] = _opt(obj, "gt", _number, "")
    fields["extra"] = {k: v for k, v in obj.items() if k not in _RECORD_KEYS}
    dims = _dims(obj.get("dims"))
    if not any_string:  # then no string holds a surrogate, but a number may be NaN
        for key, value in fields["extra"].items():
            if isinstance(value, (float, dict, list)):
                _refuse_unwritable(value, key)
    try:
        return LoggedSample(**fields), dims
    except ValueError as exc:  # a field LoggedSample refuses, such as a blank sample_id
        raise SchemaError(str(exc)) from None


def to_record(sample: LoggedSample, row: Sequence[float] | None = None) -> dict:
    """Inverse of from_record, given the sample's row of dims (NaN, or no row:
    absent): the keys in _RECORD_KEYS order, each left out when it holds
    None, then the extras."""
    scores = {k: sample.evaluator_scores[k] for k in sorted(sample.evaluator_scores)}
    dims = {} if row is None else {d: v for d, v in zip(_COLUMN_BY_NAME, row) if v == v}
    own = {"schema": RECORD_SCHEMA, "evaluator_scores": scores, "dims": dims or None}
    rec: dict = {}
    for key, name in _RECORD_KEYS.items():
        value = own[key] if key in own else getattr(sample, name)
        if value is not None:
            rec[key] = value
    for key, value in sample.extra.items():
        if key not in _RECORD_KEYS:
            rec[key] = value
    return rec


# Only a \u escape of U+D800-U+DFFF can put a lone surrogate into a decoded
# line (raw UTF-8 bytes of one fail to decode), so only a line holding such
# an escape gets the full check.
_SURROGATE_ESCAPE = re.compile(rb"\\u[dD][89a-fA-F]")


def _refuse_unwritable(value, where: str, root: str = "record", seen: set | None = None) -> None:
    """SchemaError naming the first key, string or float, at any depth, that
    no report could write: a string holding a lone surrogate is not UTF-8,
    and NaN or an infinity is not JSON. A valid escaped pair decodes to one
    code point and passes. `root` names the whole value.

    Each container is checked once, so a YAML alias, even one that refers to
    its own parent, costs nothing more."""
    if isinstance(value, str):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            code = ord(value[exc.start])
            raise SchemaError(f"{where or root}: lone surrogate U+{code:04X}") from None
        return
    if isinstance(value, float) and not math.isfinite(value):
        raise SchemaError(f"{where or root} must be finite, got {value!r}")
    if not isinstance(value, (dict, list)):
        return
    seen = set() if seen is None else seen
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, dict):
        for key, item in value.items():
            _refuse_unwritable(key, f"a key in {where or 'the ' + root}", root, seen)
            _refuse_unwritable(item, f"{where}.{key}" if where else f"{key}", root, seen)
    else:
        for i, item in enumerate(value):
            _refuse_unwritable(item, f"{where}[{i}]", root, seen)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json's object_pairs_hook: a JSON object as a dict, refusing a key that
    appears twice, which json would otherwise read as its last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"repeated key {key!r}")
            seen.add(key)
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)
# json.dumps(record, ensure_ascii=False, allow_nan=False, separators=(",", ":")),
# without building an encoder per record
_ENCODER = json.JSONEncoder(ensure_ascii=False, allow_nan=False, separators=(",", ":"))


def _loads(text: str):
    """json.loads(text, object_pairs_hook=_unique_keys), without building a
    decoder per line."""
    if text.startswith("\ufeff"):  # json.loads' own refusal
        raise JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    return _DECODER.decode(text)


class IngestIssue(Record):
    line_no: int
    message: str


class IngestResult(NamedTuple):
    samples: Batch  # the samples read, with the dims their records carry
    issues: list[IngestIssue]


def ingest(path: str | Path, strict: bool = False) -> IngestResult:
    """Read a JSONL dataset.

    Malformed lines (a lone surrogate or a non-finite number anywhere in a
    record among them), and a line repeating an earlier line's sample_id,
    are collected as issues and skipped; with strict=True the first one
    aborts the read instead.
    """
    samples: list[LoggedSample] = []
    cells: list[float] = []  # the rows of dims, end to end
    issues: list[IngestIssue] = []
    first_line: dict[str, int] = {}  # sample_id -> line it was first read on
    try:
        with open(path, "rb") as fh:  # decoded per line, so one bad byte costs one line
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = _loads(line.decode("utf-8"))
                    sample, row = _from_record(record, bool(_SURROGATE_ESCAPE.search(line)))
                    first = first_line.setdefault(sample.sample_id, line_no)
                    if first != line_no:
                        raise SchemaError(
                            f"duplicate sample_id {sample.sample_id!r} (first on line {first})"
                        )
                    samples.append(sample)
                    cells.extend(row)
                except (UnicodeDecodeError, JSONDecodeError, RecursionError, SchemaError) as exc:
                    if strict:
                        raise SchemaError(f"{path}:{line_no}: {exc}") from None
                    issues.append(IngestIssue(line_no=line_no, message=str(exc)))
    except OSError as exc:
        raise SchemaError(f"cannot read dataset {path}: {exc}") from None
    dims = np.array(cells, dtype=np.float64).reshape(len(samples), len(CANONICAL_DIMENSIONS))
    return IngestResult(samples=Batch(samples, dims), issues=issues)


def _records(batch: Batch):
    """Each sample's record with its row of dims."""
    return map(to_record, batch.samples, batch.dims.tolist())


def write_jsonl(path: str | Path, batch: Batch) -> None:
    """Write the batch one record per line, each with its row of dims. The
    lines go to a hidden temporary file that replaces `path` once all are
    written, so a failed write leaves the old file, or none, in place."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            _jsonl(_records(batch))(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# run configuration


class SimGridSpec(Record):
    """Cartesian sweep: attacks x ratios x defenses x signals, every cell
    sharing one SimSettings."""

    settings: SimSettings
    mode: str = "synthetic"
    attacks: tuple[AttackStrategy | None, ...] = (None,)
    ratios: tuple[float, ...] = (0.0,)
    defenses: tuple[DefenseConfig, ...] = (Median(),)
    signals: tuple[QualitySignal | None, ...] = (None,)

    def __post_init__(self):
        if self.mode not in ("synthetic", "replay"):
            raise SchemaError(f"sim.mode must be 'synthetic' or 'replay', got {self.mode!r}")
        if self.mode == "replay" and None in self.signals:
            raise SchemaError("sim.signals must list a quality signal in replay mode")
        if self.mode == "synthetic" and not self.settings.producers:
            raise SchemaError("sim.producers: synthetic mode needs producer mean qualities")
        for i, defense in enumerate(self.defenses):
            try:
                defense.consensus_step(len(self.settings.evaluators), f"sim.defenses[{i}]")
            except SimConfigError as exc:
                raise SchemaError(str(exc)) from None


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
                        sanitize_label(defense.label()),
                    ]
                    if signal is not None:
                        parts.append(sanitize_label(signal_label(signal)))
                    config_id = "-".join(parts)
                    grid.append(
                        SimConfig(
                            config_id,
                            spec.settings,
                            defense,
                            attack=attack,
                            attack_ratio=ratio,
                            quality_signal=signal,
                            rng_seed=master_seed,
                        )
                    )
    return grid


def synthetic_spec(fields: Mapping[str, object]) -> SyntheticSpec:
    """The SyntheticSpec of the synthetic section's fields: RunConfig.synthetic,
    which holds rng_seed only when the section sets seed, with synth's --n and
    seed laid over them, or at load with n = 1 to check the other fields."""
    if "n" not in fields:
        raise SchemaError("synthetic needs 'n' in the config or synth --n")
    try:
        return SyntheticSpec(**fields)
    except InvalidSpec as exc:
        raise SchemaError(f"synthetic: {exc}") from None


class RunConfig(Record):
    """Parsed YAML run configuration with defaults filled in."""

    input_path: str | None = None
    out_dir: str | None = None
    seed: int | None = None
    scoring: ScoringConfig = ScoringConfig()
    gate: str = "pearson"
    threshold: float = 0.0
    per_task: bool = False
    variant_names: tuple[str, ...] = tuple(VARIANTS)
    synthetic: Mapping[str, object] | None = None  # checked SyntheticSpec kwargs
    sim: SimGridSpec | None = None


# In a config section, a key set to null means its default. In an entry built
# from a record's fields (structure, evaluators, attacks, defenses, signals) null is
# accepted only by a field that takes None.

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


def _semantic_column(value, where: str) -> str | None:
    return None if value == "builtin" else _column(value, where)


def _list_of(read):
    """A reader of a non-empty list, each entry passed through `read`."""

    def read_list(value, where: str) -> tuple:
        if not isinstance(value, list) or not value:
            raise SchemaError(f"{where} must be a non-empty list")
        return tuple(read(entry, f"{where}[{i}]") for i, entry in enumerate(value))

    return read_list


_tier = _one_of("low", "medium", "high")  # accepted for old configs, then ignored


def _evaluator(raw, where: str) -> EvaluatorProfile:
    if isinstance(raw, dict) and "tier" in raw:
        _tier(raw["tier"], f"{where}.tier")
    return _from_fields(EvaluatorProfile, raw, where, extra_keys=("tier",))


def _number_map(raw, where: str) -> dict[str, float]:
    return {str(k): _number(v, f"{where}.{k}") for k, v in _section(raw, where).items()}


# field annotation -> reader, for entries built from a record's fields
_FIELD_READERS = {
    "int": _integer,
    "float": _number,
    "str": _text,
    "float | None": lambda value, where: None if value is None else _number(value, where),
    "tuple[EvaluatorProfile, ...]": _list_of(_evaluator),
    "Mapping[str, float] | None": _number_map,
}
# the config keys that differ from the field they set
_FIELD_KEYS = {"target_producer": "target", "evaluator_id": "id"}


def _from_fields(cls, raw, where: str, extra_keys: Sequence[str] = ()):
    """Build record `cls` from a config map keyed by its field names."""
    fields = {_FIELD_KEYS.get(name, name): name for name in cls._fields}
    entry = _section(raw, where, (*fields, *extra_keys))
    kwargs = {}
    for key, name in fields.items():
        if key in entry:
            kwargs[name] = _FIELD_READERS[cls._fields[name]](entry[key], f"{where}.{key}")
        elif name in cls._required:
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


_variant_name = _one_of(*VARIANTS)


def _weights(value) -> WeightConfig:
    if value is None:
        return DEFAULT_WEIGHTS
    if isinstance(value, str):
        return variant(DEFAULT_WEIGHTS, _variant_name(value, "weights"))
    if not isinstance(value, dict):
        raise SchemaError("weights must be a variant name or a {dimension: weight} map")
    try:
        return WeightConfig("custom", _dimension_map(value, "weights", _weight))
    except ValueError as exc:  # an empty map, a zero or huge sum
        raise SchemaError(f"weights: {exc}") from None


def _weight(value, where: str) -> float:
    weight = _number(value, where)
    if weight < 0:
        raise SchemaError(f"{where} must be >= 0, got {value!r}")
    return weight


def _prior_table(priors: Mapping, key: str) -> PriorTable | None:
    if priors.get(key) is None:
        return None
    return PriorTable(key, _number_map(priors[key], f"priors.{key}"))


def _correlations(raw, where: str) -> dict[str, dict[DimensionId, float]]:
    correlations = _section(raw, where)
    # flat {dimension: rho} applies to both standard tasks
    if correlations and all(not isinstance(v, dict) for v in correlations.values()):
        shared = _dimension_map(correlations, where)
        return {"qa": shared, "summarization": dict(shared)}
    by_task = {}
    for task, entry in correlations.items():
        if not str(task).strip():
            raise SchemaError(f"{where}: task label must be non-empty")
        by_task[str(task)] = _dimension_map(entry, f"{where}.{task}")
    return by_task


def _synthetic(raw) -> dict[str, object] | None:
    if raw is None:
        return None
    readers = {
        "n": _integer,
        "correlations": _correlations,
        "qa_fraction": _number,
        "producers": _list_of(_text),
        "producers_per_query": _integer,
    }
    keys = ("evaluators", "seed", *readers)
    section = {k: v for k, v in _section(raw, "synthetic", keys).items() if v is not None}
    # only the keys given, so each default is written once, on SyntheticSpec
    given = {k: read(section[k], f"synthetic.{k}") for k, read in readers.items() if k in section}
    if "evaluators" in section:
        given["evaluator_noise"] = _number_map(section["evaluators"], "synthetic.evaluators")
    if "seed" in section:
        given["rng_seed"] = _seed(section["seed"], "synthetic.seed")
    synthetic_spec({"n": 1, **given})  # checks the other fields now, whether or not n is set
    return given


def _sim(raw) -> SimGridSpec | None:
    if raw is None:
        return None
    grid_readers = {
        "mode": _text,
        "attacks": _list_of(parse_attack),
        "ratios": _list_of(_unit),
        "defenses": _list_of(parse_defense),
        "signals": _list_of(parse_signal),
    }
    section = {k: v for k, v in _section(raw, "sim").items() if v is not None}
    settings = _from_fields(SimSettings, section, "sim", extra_keys=tuple(grid_readers))
    grid = {k: read(section[k], f"sim.{k}") for k, read in grid_readers.items() if k in section}
    return SimGridSpec(settings, **grid)


def load_config(path: str | Path | None) -> RunConfig:
    """Load and validate one YAML run config; None gives all defaults."""
    if path is None:
        return RunConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
        _refuse_unwritable(raw, "", "run config")  # an id or label may reach a report
    except (OSError, yaml.YAMLError, RecursionError) as exc:
        raise SchemaError(f"cannot load config {path}: {exc}") from None
    raw = _section(raw, "run config", _TOP_KEYS)
    schema = raw.get("schema", 1)
    if schema != 1:
        raise SchemaError(f"unsupported config schema {schema!r}")
    seed = _opt(raw, "seed", _seed, "")
    weights = _weights(raw.get("weights"))

    def nonempty_variant(value, where: str) -> str:
        try:
            variant(weights, _variant_name(value, where))
        except AllDimensionsRemoved as exc:
            raise SchemaError(f"{where}: {exc}") from None
        return value

    providers = _section(raw.get("providers"), "providers", ("semantic", "alignment"))
    priors = _section(raw.get("priors"), "priors", ("model_rating", "cost_efficiency"))

    normalization = _section(raw.get("normalization"), "normalization", ("mode", "stats"))
    mode = _opt(normalization, "mode", _one_of("batch", "frozen"), "normalization", "batch")
    stats = _opt(normalization, "stats", _text, "normalization")
    if mode == "frozen" and stats is None:
        raise SchemaError("normalization.stats must point to a stats JSON file")
    if mode != "frozen" and stats is not None:
        raise SchemaError("normalization.mode must be 'frozen' to use normalization.stats")

    audit_keys = ("gate", "threshold", "per_task", "preset", "variants")
    audit_section = _section(raw.get("audit"), "audit", audit_keys)
    _opt(audit_section, "preset", _one_of("paper"), "audit")  # the only preset; accepted, ignored
    variants = audit_section.get("variants")
    variants = list(VARIANTS) if variants is None else variants
    if not isinstance(variants, list):
        raise SchemaError("audit.variants must be a list of variant names")
    variants = tuple(nonempty_variant(v, f"audit.variants[{i}]") for i, v in enumerate(variants))

    sim = _sim(raw.get("sim"))
    for i, signal in enumerate(sim.signals if sim else ()):
        if isinstance(signal, CompositeSignal):
            nonempty_variant(signal.variant, f"sim.signals[{i}].variant")

    scoring = ScoringConfig(
        weights=weights,
        structure=_from_fields(StructurePolicy, raw.get("structure"), "structure"),
        model_priors=_prior_table(priors, "model_rating"),
        cost_priors=_prior_table(priors, "cost_efficiency"),
        semantic_column=_opt(providers, "semantic", _semantic_column, "providers"),
        alignment_column=_opt(providers, "alignment", _column, "providers"),
        frozen_stats=load_frozen_stats(stats) if mode == "frozen" else None,
    )
    return RunConfig(
        input_path=_opt(raw, "input", _text, ""),
        out_dir=_opt(raw, "out", _text, ""),
        seed=seed,
        scoring=scoring,
        gate=_opt(audit_section, "gate", _one_of(*GATE_CHOICES), "audit", "pearson"),
        threshold=_opt(audit_section, "threshold", _number, "audit", 0.0),
        per_task=_opt(audit_section, "per_task", _flag, "audit", False),
        variant_names=variants,
        synthetic=_synthetic(raw.get("synthetic")),
        sim=sim,
    )


def resolve_weights(config: RunConfig, override_name: str | None = None) -> WeightConfig:
    """The run's weight config: the --weights variant if given, else the config's."""
    return variant(DEFAULT_WEIGHTS, override_name) if override_name else config.scoring.weights


def _min_max(pair, where: str) -> tuple[float, float]:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise SchemaError(f"{where} must be a [min, max] pair")
    low, high = _number(pair[0], f"{where}[0]"), _number(pair[1], f"{where}[1]")
    if low > high:
        raise SchemaError(f"{where} must be a [min, max] pair with min <= max, got {pair!r}")
    return low, high


def load_frozen_stats(path: str | Path) -> dict[DimensionId, tuple[float, float]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError, SchemaError) as exc:
        raise SchemaError(f"cannot load normalization stats {path}: {exc}") from None
    return _dimension_map(raw, "stats", _min_max)


def build_scoring_config(config: RunConfig, weights: WeightConfig) -> ScoringConfig:
    """The config's scoring settings under `weights`."""
    return config.scoring._replace(weights=weights)


# ---------------------------------------------------------------------------
# report emission


class EmittedFile(Record):
    path: str  # relative to the output directory
    series: str


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return _csv_safe(str(value))


def _csv_safe(text: str) -> str:
    """Flatten free-form text so it fits the no-quoting CSV dialect."""
    return text.replace('"', "'").replace(",", ";").replace("\n", " ")


def _csv(header: Sequence[str], rows: Iterable[Sequence]):
    """A writer of a CSV with no quoting; text cells are flattened by _csv_safe."""

    def write(fh: TextIO) -> None:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")

    return write


def _json(obj):
    """A writer of one indented JSON document; NaN and infinities are refused.

    The bytes are json.dumps(obj, indent=2, ensure_ascii=False,
    allow_nan=False) plus a newline, but each container that holds no
    container is encoded in one call to json's C encoder, which `indent`
    would switch off.
    """

    def write(fh: TextIO) -> None:
        fh.write(_indented(obj, 0, {}) + "\n")

    return write


_CONTAINERS = (dict, list, tuple)


@functools.lru_cache(maxsize=None)
def _flat(depth: int) -> json.JSONEncoder:
    """The encoder of a scalar, or of a container of scalars laid out at
    `depth` less its first and last line breaks. With no indent it is json's
    C encoder where the _json accelerator exists."""
    return json.JSONEncoder(
        ensure_ascii=False, allow_nan=False, check_circular=False,
        separators=(",\n" + "  " * (depth + 1), ": "),
    )


def _indented(obj, depth: int, memo: dict) -> str:
    """obj as indent=2 JSON text, nested depth levels deep.

    memo maps (id, depth) of each container already written to its text, so
    a container reached twice, such as one trust snapshot shared by many
    rounds, is encoded once. Every object stays reachable from the root for
    the whole document, so no id is reused within it.
    """
    if not isinstance(obj, _CONTAINERS):
        return _flat(depth).encode(obj)
    text = memo.get((id(obj), depth))
    if text is not None:
        return text
    is_dict = isinstance(obj, dict)
    values = obj.values() if is_dict else obj
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if not obj:
        text = "{}" if is_dict else "[]"
    elif not any(isinstance(v, _CONTAINERS) for v in values):
        body = _flat(depth).encode(obj)
        text = body[0] + inner + body[1:-1] + outer + body[-1]
    elif is_dict:
        items = [_key(k) + ": " + _indented(v, depth + 1, memo) for k, v in obj.items()]
        text = "{" + inner + ("," + inner).join(items) + outer + "}"
    else:
        items = [_indented(v, depth + 1, memo) for v in obj]
        text = "[" + inner + ("," + inner).join(items) + outer + "]"
    memo[(id(obj), depth)] = text
    return text


def _key(key) -> str:
    """A dict key as json writes it: a number, bool or None as its JSON text,
    quoted."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}"
            )
        key = json.dumps(key, allow_nan=False)
    return encode_basestring(key)


def _jsonl(records: Iterable[dict]):
    """A writer of one compact JSON object per line."""

    def write(fh: TextIO) -> None:
        for record in records:
            fh.write(_ENCODER.encode(record) + "\n")

    return write


def _read_manifest(path: Path) -> dict[str, str]:
    """{path: series} from an existing manifest.json; {} when there is none."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON or nested too deep
        raise SchemaError(f"corrupt manifest at {path}: {exc}") from None
    files = raw.get("files", []) if isinstance(raw, dict) else None
    if not isinstance(files, list) or not all(
        isinstance(e, dict) and isinstance(e.get("path"), str) and isinstance(e.get("series"), str)
        for e in files
    ):
        raise SchemaError(f"corrupt manifest at {path}: 'files' must list {{path, series}} strings")
    return {e["path"]: e["series"] for e in files}


def _audit_block_json(block: AuditBlock) -> dict:
    # a row's keys are CorrelationRow's fields: kind, name, pearson, spearman, n
    return {"label": block.label, "rows": [dict(zip(r._fields, r._values())) for r in block.rows]}


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
        "defense": config.defense.label(),
        "quality_signal": signal_label(config.quality_signal),
        "rounds": config.settings.rounds,
        "reward_budget": config.settings.reward_budget,
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
    base["consensus_scores"] = result.consensus_scores
    base["trust_trajectory"] = result.trust_trajectory  # shared snapshots are written once
    return base


_SIM_COLUMNS = (
    "config_id", "status", "attack", "attack_ratio", "defense", "quality_signal",
    "consensus_error", "skipped_rounds", "top_producer", "message",
)


def _sim_row(config: SimConfig, result: SimOutcome | SimError) -> tuple:
    """One defense_comparison.csv row, in _SIM_COLUMNS order.

    The CSV carries flattened labels and messages; sim_<id>.json keeps the
    exact ones. top_producer is the best paid, the first by name on a tie.
    """
    ok = not isinstance(result, SimError)
    rewards = result.rewards if ok else {}
    return (
        config.config_id,
        "ok" if ok else "error",
        sanitize_label(attack_label(config.attack)),
        config.attack_ratio,
        sanitize_label(config.defense.label()),
        sanitize_label(signal_label(config.quality_signal)),
        result.consensus_error if ok else None,
        result.skipped_rounds if ok else None,
        min(rewards, key=lambda p: (-rewards[p], p)) if rewards else None,
        None if ok else result.message,
    )


def _reports(
    *,
    validation: ValidationReport | None = None,
    ingest_issues: Sequence[IngestIssue] | None = None,
    scored_samples: Batch | None = None,
    synthetic_samples: Batch | None = None,
    normalization_stats: Mapping[DimensionId, tuple[float, float]] | None = None,
    audit_report: AuditReport | None = None,
    ablation: Sequence[CorrelationRow] | None = None,
    calibration: CalibrationResult | None = None,
    calibration_by_task: Mapping[str, CalibrationResult] | None = None,
    sim_results: Iterable[tuple[SimConfig, SimOutcome | SimError]] | None = None,
    dimension_means: Sequence[tuple[str, str, float, int]] | None = None,
):
    """Yield (file name, series, writer) for each file the given results make.

    sim_results is read once, as the files are written: each cell's
    sim_<id>.json follows its pair, and defense_comparison.csv the last one.
    Given iter_experiment's outcomes, each cell runs when its file is due."""
    if validation is not None:
        yield "validation.json", "validation", _json(
            {
                "valid": validation.valid_count,
                "invalid": validation.invalid_count,
                "total": validation.total,
                "issues": [
                    {"sample_id": i.sample_id, "field": i.fieldname, "message": i.message}
                    for i in validation.issues
                ],
            }
        )
    if ingest_issues:
        yield "ingest_errors.jsonl", "ingest_errors", _jsonl(
            {"line": issue.line_no, "error": issue.message} for issue in ingest_issues
        )
    if scored_samples is not None:
        yield "scored.jsonl", "scored_dataset", _jsonl(_records(scored_samples))
    if synthetic_samples is not None:
        yield "synthetic.jsonl", "synthetic_dataset", _jsonl(_records(synthetic_samples))
    if normalization_stats is not None:
        yield "normalization_stats.json", "normalization_stats", _json(
            {
                d.value: [normalization_stats[d][0], normalization_stats[d][1]]
                for d in CANONICAL_DIMENSIONS
                if d in normalization_stats
            }
        )
    if audit_report is not None:
        overall = audit_report.overall
        yield "correlation_summary.csv", "correlation_summary", _csv(
            ["kind", "name", "pearson", "spearman", "n"],
            [(r.kind, r.name, r.pearson, r.spearman, r.n) for r in overall.rows],
        )
        yield "dimension_correlations.csv", "dimension_correlations", _csv(
            ["name", "pearson", "spearman", "n"],
            [(r.name, r.pearson, r.spearman, r.n) for r in overall.dimensions()],
        )
        yield "taskwise_correlations.csv", "taskwise_correlations", _csv(
            ["task", "kind", "name", "pearson", "spearman", "n"],
            [
                (label, r.kind, r.name, r.pearson, r.spearman, r.n)
                for label, block in audit_report.by_task.items()
                for r in block.rows
            ],
        )
        yield "audit.json", "audit", _json(
            {
                "n_referenced": audit_report.n_referenced,
                "overall": _audit_block_json(overall),
                "by_task": {
                    label: _audit_block_json(block)
                    for label, block in audit_report.by_task.items()
                },
            }
        )
    if ablation is not None:
        yield "ablation_grid.csv", "ablation_grid", _csv(
            ["variant", "pearson", "spearman", "n"],
            [(r.name, r.pearson, r.spearman, r.n) for r in ablation],
        )
    if calibration is not None:
        payload = _calibration_json(calibration)
        if calibration_by_task:
            payload["by_task"] = {
                label: _calibration_json(result)
                for label, result in calibration_by_task.items()
            }
        yield "calibration.json", "calibration", _json(payload)
    if sim_results is not None:
        rows = []  # defense_comparison.csv's: all that is kept of a cell once written
        for config, result in sim_results:
            rows.append(_sim_row(config, result))
            yield f"sim_{config.config_id}.json", f"sim:{config.config_id}", _json(
                _sim_entry_json(config, result)
            )
            del result  # so the next cell runs without this one's outcome
        yield "defense_comparison.csv", "defense_comparison", _csv(_SIM_COLUMNS, rows)
    if dimension_means is not None:
        yield "dimension_means_by_producer.csv", "dimension_means_by_producer", _csv(
            ["producer", "dimension", "mean", "n"], dimension_means
        )


def emit_reports(out_dir: str | Path, **results) -> list[EmittedFile]:
    """Write a file for each result given, then merge the manifest.

    Takes the keyword arguments of _reports; absent inputs mean absent files.
    No old file is replaced until every new one, manifest.json last, is
    written, and an OSError in writing is raised as MdqsError. Any other
    failure, such as one raised by a simulation cell that sim_results runs
    on the way, passes through as it is. A failed run leaves the directory
    as it was: no file replaced, no temporary file, and no directory that it
    made. Returns the emitted entries (manifest.json itself is not listed).
    """
    out = Path(out_dir)
    reports = _reports(**results)  # an unknown name is a TypeError before any write
    made = [d for d in (out, *out.parents) if not d.exists()]  # innermost first
    staged: dict[str, Path] = {}  # final name -> its temporary file, in write order

    def stage(name: str, series: str, write) -> EmittedFile:
        staged[name] = out / f".{name}.tmp"
        with _writing(out), open(staged[name], "w", encoding="utf-8") as fh:
            write(fh)
        return EmittedFile(path=name, series=series)

    try:
        with _writing(out):
            out.mkdir(parents=True, exist_ok=True)
            manifest = _read_manifest(out / "manifest.json")
        # starmap keeps no written file's contents while the next is made
        emitted = list(itertools.starmap(stage, reports))
        manifest.update((e.path, e.series) for e in emitted)
        files = [{"path": p, "series": manifest[p]} for p in sorted(manifest)]
        stage("manifest.json", "", _json({"schema": 1, "files": files}))
        with _writing(out):
            for name, tmp in staged.items():
                os.replace(tmp, out / name)
    except BaseException:
        # an OSError here, such as a name too long to unlink, would hide the failure
        for remove in [tmp.unlink for tmp in staged.values()] + [d.rmdir for d in made]:
            with contextlib.suppress(OSError):
                remove()
        raise
    return emitted


@contextlib.contextmanager
def _writing(out: Path):
    """Raise an OSError from the block as MdqsError naming out."""
    try:
        yield
    except OSError as exc:
        raise MdqsError(f"cannot write reports to {out}: {exc}") from None
