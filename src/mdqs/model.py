"""Domain types shared by every layer: samples, dimensions, weights, outcomes.

A LoggedSample is one producer output for one query, with whatever evaluator
scores were logged alongside it. Dimension scores are kept in a
DimensionVector whose values are clipped to [0, 1] at construction, so
downstream code never re-checks ranges. WeightConfig normalizes on
construction and is the only way weights enter the composite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # behaviors live in mdqs.poq; avoid a runtime import cycle
    from mdqs.poq import EvaluatorBehavior


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

_DIM_ORDER = {d: i for i, d in enumerate(CANONICAL_DIMENSIONS)}


def parse_dimension(name: str) -> DimensionId:
    try:
        return DimensionId(name)
    except ValueError:
        known = ", ".join(d.value for d in CANONICAL_DIMENSIONS)
        raise ValueError(f"unknown dimension {name!r} (known: {known})") from None


@dataclass(frozen=True)
class TaskFamily:
    """Task grouping used for per-family reporting.

    Anything other than "qa" and "summarization" is an open family keyed by
    its own lowercase label.
    """

    label: str

    QA: "TaskFamily" = None  # type: ignore[assignment]
    SUMMARIZATION: "TaskFamily" = None  # type: ignore[assignment]

    def __post_init__(self):
        if not self.label or not self.label.strip():
            raise ValueError("task label must be non-empty")
        object.__setattr__(self, "label", self.label.strip().lower())

    @property
    def is_qa(self) -> bool:
        return self.label == "qa"

    @property
    def is_summarization(self) -> bool:
        return self.label == "summarization"


TaskFamily.QA = TaskFamily("qa")
TaskFamily.SUMMARIZATION = TaskFamily("summarization")


@dataclass(frozen=True)
class DimensionVector:
    """Per-dimension scores, each clipped to [0, 1] at construction.

    Iteration order is canonical dimension order regardless of the order the
    mapping was built in, so emitted reports are stable.
    """

    values: Mapping[DimensionId, float]

    def __post_init__(self):
        if not self.values:
            raise ValueError("dimension vector must not be empty")
        clipped: dict[DimensionId, float] = {}
        for dim in sorted(self.values, key=_DIM_ORDER.__getitem__):
            v = float(self.values[dim])
            if not math.isfinite(v):
                raise ValueError(f"dimension {dim.value} has non-finite score {v!r}")
            clipped[dim] = min(1.0, max(0.0, v))
        object.__setattr__(self, "values", clipped)

    def __getitem__(self, dim: DimensionId) -> float:
        return self.values[dim]

    def __contains__(self, dim: DimensionId) -> bool:
        return dim in self.values

    def keys(self) -> frozenset[DimensionId]:
        return frozenset(self.values)

    def as_dict(self) -> dict[DimensionId, float]:
        return dict(self.values)

    def restrict(self, dims: Iterable[DimensionId]) -> "DimensionVector":
        """Sub-vector over the given dimensions; KeyError if one is absent."""
        wanted = set(dims)
        return DimensionVector({d: self.values[d] for d in wanted})


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
        for dim in sorted(self.weights, key=_DIM_ORDER.__getitem__):
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
    in `extra` and are written back out unchanged.
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
        object.__setattr__(
            self, "evaluator_scores", {str(k): float(v) for k, v in self.evaluator_scores.items()}
        )
        object.__setattr__(self, "extra", dict(self.extra))

    def with_dimensions(self, dims: DimensionVector) -> "LoggedSample":
        return replace(self, dimension_scores=dims)


@dataclass(frozen=True)
class EvaluatorProfile:
    """A consensus participant: identity, query cost, and (in simulation)
    its behavior. behavior None means honest and noiseless."""

    evaluator_id: str
    cost: float = 1.0
    behavior: "EvaluatorBehavior | None" = None

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


def _check_sample(sample: LoggedSample) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    sid = sample.sample_id

    def bad(fieldname: str, message: str):
        issues.append(ValidationIssue(sample_id=sid, fieldname=fieldname, message=message))

    if not sid or not sid.strip():
        bad("sample_id", "must be non-empty")
    if not sample.producer_id or not sample.producer_id.strip():
        bad("producer_id", "must be non-empty")
    if not isinstance(sample.output, str):
        bad("output", "must be a string")
    for name, score in sample.evaluator_scores.items():
        if not math.isfinite(score):
            bad(f"evaluator_scores.{name}", f"non-finite score {score!r}")
    if sample.reference_score is not None and not math.isfinite(sample.reference_score):
        bad("reference_score", f"non-finite value {sample.reference_score!r}")
    if sample.dimension_scores is not None:
        for dim, v in sample.dimension_scores.as_dict().items():
            if not (0.0 <= v <= 1.0):
                bad(f"dims.{dim.value}", f"out of [0, 1]: {v!r}")
    return issues


def validate_dataset(samples: Iterable[LoggedSample]) -> ValidationReport:
    """Check structural invariants over a whole dataset.

    Flags duplicate sample ids, non-finite scores, and empty identity
    fields. Every violation is reported, not just the first.
    """
    issues: list[ValidationIssue] = []
    seen: set[str] = set()
    valid = 0
    invalid = 0
    for sample in samples:
        sample_issues = _check_sample(sample)
        if sample.sample_id in seen:
            sample_issues.append(
                ValidationIssue(
                    sample_id=sample.sample_id,
                    fieldname="sample_id",
                    message=f"duplicate sample_id {sample.sample_id!r}",
                )
            )
        seen.add(sample.sample_id)
        if sample_issues:
            invalid += 1
            issues.extend(sample_issues)
        else:
            valid += 1
    return ValidationReport(valid_count=valid, invalid_count=invalid, issues=tuple(issues))


@dataclass(frozen=True)
class SimOutcome:
    """Result of one simulated consensus run.

    consensus_scores maps an output key (sample id, or round:producer in
    synthetic mode) to its aggregated score. trust_trajectory has one entry
    per round with the post-update trust of every evaluator. consensus_error
    is the mean absolute gap between aggregate and oracle quality, None when
    no output had an oracle value.
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
