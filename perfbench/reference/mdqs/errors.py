"""Exception types raised by the scoring, audit, and simulation layers.

Every error carries enough context (sample ids, column names, dimension
names) to locate the offending record without a debugger. CLI entry points
map MdqsError to exit code 1; anything else is an internal error (exit 2).
"""

from __future__ import annotations


class MdqsError(Exception):
    """Base class for all expected failures."""


class SchemaError(MdqsError):
    """A record or config file does not match the documented schema."""


class MissingColumn(MdqsError):
    """A configured evaluator/score column is absent from the dataset."""

    def __init__(self, column: str, sample_id: str | None = None):
        self.column = column
        self.sample_id = sample_id
        where = f" (sample {sample_id})" if sample_id is not None else ""
        super().__init__(f"column {column!r} not found{where}")


class MissingReferenceText(MdqsError):
    """The builtin semantic baseline needs a reference text and none exists."""

    def __init__(self, sample_id: str):
        self.sample_id = sample_id
        super().__init__(f"sample {sample_id!r} has no reference_text")


class EmptyPriorTable(MdqsError):
    """A prior lookup was attempted against a table with no entries."""


class TooFewEvaluators(MdqsError):
    """Agreement needs at least two evaluator scores on the sample."""

    def __init__(self, sample_id: str, count: int):
        self.sample_id = sample_id
        self.count = count
        super().__init__(
            f"sample {sample_id!r} has {count} evaluator score(s); agreement needs >= 2"
        )


class NoEvaluators(MdqsError):
    """Consensus baselines need at least one evaluator score per sample."""

    def __init__(self, sample_id: str):
        self.sample_id = sample_id
        super().__init__(f"sample {sample_id!r} has no evaluator scores")


class DimensionMismatch(MdqsError):
    """Composite inputs where the score keys differ from the weight keys."""

    def __init__(self, score_keys, weight_keys):
        self.score_keys = frozenset(score_keys)
        self.weight_keys = frozenset(weight_keys)
        missing = sorted(k.value for k in self.weight_keys - self.score_keys)
        extra = sorted(k.value for k in self.score_keys - self.weight_keys)
        super().__init__(
            f"dimension keys do not match weights (missing={missing}, extra={extra})"
        )


class LengthMismatch(MdqsError):
    """Paired vectors of different lengths."""

    def __init__(self, n_x: int, n_y: int):
        super().__init__(f"paired vectors differ in length ({n_x} vs {n_y})")


class TooFewSamples(MdqsError):
    """An operation needs more data points than were provided."""


class TooFewReferencedSamples(TooFewSamples):
    """The audit needs at least two samples carrying a reference score."""


class AllDimensionsRemoved(MdqsError):
    """Calibration would strip every dimension from the composite."""


class InvalidSpec(MdqsError):
    """A synthetic-data or simulation spec fails its own invariants."""


class EmptyAfterTrim(MdqsError):
    """Trimming removed every emitted score."""

    def __init__(self, n_scores: int, trim_each_side: int):
        super().__init__(
            f"trimming {trim_each_side} per side leaves nothing from {n_scores} score(s)"
        )


class SimConfigError(MdqsError):
    """A simulation config is internally inconsistent."""


class UsageError(MdqsError):
    """Bad command-line arguments (maps to exit code 64)."""
