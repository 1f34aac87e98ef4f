"""Domain types shared by every layer: samples, dimensions, weights, outcomes.

A LoggedSample is one producer output for one query, with whatever evaluator
scores were logged alongside it. A DimensionVector keeps its scores as one
row in DIMENSION_COLUMN order and rejects a value outside [0, 1], so
downstream code never re-checks ranges. WeightConfig normalizes on
construction and is the only way weights enter the composite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping


class DimensionId(Enum):
    """The six quality dimensions, in canonical report order."""

    MODEL_PRIOR = "model_prior"
    COST_PRIOR = "cost_prior"
    STRUCTURE = "structure"
    SEMANTIC = "semantic"
    ALIGNMENT = "alignment"
    AGREEMENT = "agreement"

    def __repr__(self) -> str:  # terse in test output
        return f"DimensionId.{self.name}"


CANONICAL_DIMENSIONS: tuple[DimensionId, ...] = tuple(DimensionId)

DIMENSION_COLUMN: dict[DimensionId, int] = {d: i for i, d in enumerate(CANONICAL_DIMENSIONS)}
# the same columns by name, so a reader of names hashes no DimensionId
_COLUMN_BY_NAME = {d.value: i for d, i in DIMENSION_COLUMN.items()}


def parse_dimension(name: str) -> DimensionId:
    if name not in _COLUMN_BY_NAME:
        raise ValueError(f"unknown dimension {name!r} (known: {', '.join(_COLUMN_BY_NAME)})")
    return CANONICAL_DIMENSIONS[_COLUMN_BY_NAME[name]]


@dataclass(frozen=True)
class TaskFamily:
    """Task grouping used for per-family reporting, keyed by its trimmed
    lowercase label. Reports list "qa" and "summarization" first, then any
    other family in order of first appearance.
    """

    label: str

    def __post_init__(self):
        if not self.label or not self.label.strip():
            raise ValueError("task label must be non-empty")
        object.__setattr__(self, "label", self.label.strip().lower())


@dataclass(frozen=True)
class DimensionVector:
    """Per-dimension scores as one row in canonical order, None where a
    dimension is absent (None, not NaN, so equal vectors compare and hash
    equal). Built from a {DimensionId: score} mapping in any order or from a
    canonical row; either way each score is checked to lie in [0, 1].
    """

    row: tuple[float | None, ...]

    def __post_init__(self):
        row = self.row
        if isinstance(row, Mapping):
            if not row.keys() <= DIMENSION_COLUMN.keys():
                raise ValueError(f"dimension keys must be DimensionIds, got {list(row)!r}")
            row = [row.get(d) for d in CANONICAL_DIMENSIONS]
        row = tuple([None if v is None else float(v) for v in row])
        if len(row) != len(CANONICAL_DIMENSIONS) or row.count(None) == len(row):
            raise ValueError(f"dimension row needs 6 entries, not all None; got {row!r}")
        for dim, v in zip(CANONICAL_DIMENSIONS, row):
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"dimension {dim.value} has score {v!r} outside [0, 1]")
        object.__setattr__(self, "row", row)

    @property
    def values(self) -> dict[DimensionId, float]:
        return {d: v for d, v in zip(CANONICAL_DIMENSIONS, self.row) if v is not None}

    def __getitem__(self, dim: DimensionId) -> float:
        return self.values[dim]

    def __contains__(self, dim: DimensionId) -> bool:
        return dim in self.values

    def keys(self) -> frozenset[DimensionId]:
        return frozenset(self.values)


@dataclass(frozen=True)
class WeightConfig:
    """Named non-negative dimension weights, normalized to sum to 1."""

    name: str
    weights: Mapping[DimensionId, float]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("weight config must have at least one dimension")
        total = math.fsum(float(w) for w in self.weights.values())
        if not math.isfinite(total):
            raise ValueError("weights must be finite")
        if total <= 0.0:
            raise ValueError("weights must have a positive sum")
        normalized: dict[DimensionId, float] = {}
        for dim in sorted(self.weights, key=DIMENSION_COLUMN.__getitem__):
            w = float(self.weights[dim])
            if not math.isfinite(w) or w < 0.0:
                raise ValueError(f"weight for {dim.value} must be finite and >= 0, got {w!r}")
            normalized[dim] = w / total
        object.__setattr__(self, "weights", normalized)
        assert abs(math.fsum(normalized.values()) - 1.0) <= 1e-9

    def dimensions(self) -> frozenset[DimensionId]:
        return frozenset(self.weights)

    def __getitem__(self, dim: DimensionId) -> float:
        return self.weights[dim]


DEFAULT_WEIGHTS = WeightConfig(
    "default",
    {
        DimensionId.MODEL_PRIOR: 0.15,
        DimensionId.COST_PRIOR: 0.10,
        DimensionId.STRUCTURE: 0.20,
        DimensionId.SEMANTIC: 0.25,
        DimensionId.ALIGNMENT: 0.15,
        DimensionId.AGREEMENT: 0.15,
    },
)


@dataclass(frozen=True)
class LoggedSample:
    """One logged producer output with its evaluator scores.

    reference_score is the trusted quality signal used for audits; it is
    optional because production logs rarely have one. reference_text feeds
    the builtin semantic baseline. Unknown fields from ingestion ride along
    in `extra` and are written back out unchanged. Construction refuses a
    blank sample_id or producer_id, a non-string output and a non-finite
    score, so no later stage re-checks them.
    """

    sample_id: str
    task: TaskFamily
    producer_id: str
    query: str
    output: str
    evaluator_scores: Mapping[str, float] = field(default_factory=dict)
    reference_score: float | None = None
    reference_text: str | None = None
    dimension_scores: DimensionVector | None = None
    extra: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("sample_id", "producer_id"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value.strip():
                raise ValueError(f"{name} must be a non-blank string, got {value!r}")
        if not isinstance(self.output, str):
            raise ValueError(f"output must be a string, got {type(self.output).__name__}")
        scores = {str(k): float(v) for k, v in self.evaluator_scores.items()}
        for name, score in scores.items():
            if not math.isfinite(score):
                raise ValueError(f"evaluator_scores.{name} must be finite, got {score!r}")
        if self.reference_score is not None and not math.isfinite(self.reference_score):
            raise ValueError(f"reference_score must be finite, got {self.reference_score!r}")
        object.__setattr__(self, "evaluator_scores", scores)
        object.__setattr__(self, "extra", dict(self.extra))

    def with_dimensions(self, dims: DimensionVector) -> "LoggedSample":
        return replace(self, dimension_scores=dims)


@dataclass(frozen=True)
class EvaluatorProfile:
    """A consensus participant: identity and query cost. Its behavior in a
    simulation comes from the cell's attack (mdqs.poq.SimConfig)."""

    evaluator_id: str
    cost: float = 1.0

    def __post_init__(self):
        if not self.evaluator_id:
            raise ValueError("evaluator_id must be non-empty")
        if not math.isfinite(self.cost) or self.cost < 0.0:
            raise ValueError(f"cost must be finite and >= 0, got {self.cost!r}")


@dataclass(frozen=True)
class ValidationIssue:
    sample_id: str
    fieldname: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    valid_count: int
    invalid_count: int
    issues: tuple[ValidationIssue, ...]

    @property
    def total(self) -> int:
        return self.valid_count + self.invalid_count

    @property
    def ok(self) -> bool:
        return self.invalid_count == 0


@dataclass(frozen=True)
class SimOutcome:
    """Result of one simulated consensus run.

    consensus_scores maps an output key (sample id, or round:producer in
    synthetic mode) to its aggregated score. trust_trajectory has one entry
    per round with the post-update trust of every evaluator. Its snapshots
    are read-only: rounds whose trust did not change may share one mapping.
    consensus_error is the mean absolute gap between aggregate and oracle
    quality, None when no output had an oracle value.
    """

    config_id: str
    consensus_scores: Mapping[str, float]
    rewards: Mapping[str, float]
    trust_trajectory: tuple[Mapping[str, float], ...]
    consensus_error: float | None
    skipped_rounds: int = 0
    attacker_ids: frozenset[str] = frozenset()

    def final_trust(self) -> Mapping[str, float]:
        if not self.trust_trajectory:
            return {}
        return self.trust_trajectory[-1]


@dataclass(frozen=True)
class SimError:
    """A grid entry that failed; run_experiment records it and moves on."""

    config_id: str
    error_type: str
    message: str
