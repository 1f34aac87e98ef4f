"""Domain types shared by every layer: samples, dimensions, weights, outcomes.

A LoggedSample is one producer output for one query, with its task label
and whatever evaluator scores were logged alongside it. A Batch is the
checked unit every batch stage takes: its samples, their dimension scores
as one matrix and their evaluator scores as one table. WeightConfig
normalizes on construction and is the only way weights enter the composite.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from mdqs.errors import SchemaError
from mdqs.stats import normalize_batch

_REQUIRED = object()  # the default of a field that has none
_setattr = object.__setattr__


class Record:
    """Base of the package's immutable records: what a frozen dataclass gives, read from
    per-class tables instead of generated source. A field is a class-body annotation other
    than a ClassVar; its class attribute, if any, is its default, shared by every instance
    (so __post_init__ copies a mutable one). A subclass's fields follow its base's."""

    _fields: dict[str, str] = {}  # field name -> annotation text, in field order
    _defaults: dict[str, object] = {}  # field name -> default, or _REQUIRED
    _required: frozenset[str] = frozenset()

    def __init_subclass__(cls):
        own = cls.__dict__.get("__annotations__", {}).items()
        own = {name: text for name, text in own if not text.startswith("ClassVar")}
        cls._fields = cls._fields | own
        cls._defaults = cls._defaults | {name: cls.__dict__.get(name, _REQUIRED) for name in own}
        cls._required = frozenset(n for n, d in cls._defaults.items() if d is _REQUIRED)

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args)) | kwargs if args else kwargs
        values = self._defaults | given  # every field, in field order
        # too many or repeated arguments shorten given, an unknown one lengthens
        # values, and with every field given none can be missing
        missing = len(given) < len(values) and not given.keys() >= self._required
        if missing or len(given) < len(args) + len(kwargs) or len(values) > len(self._defaults):
            raise TypeError(f"{type(self).__name__} takes {list(self._fields)}")
        for name, value in values.items():  # not through __dict__, which would build one
            _setattr(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Check or convert the fields, through object.__setattr__."""

    def _replace(self, **changes):
        """A new record with `changes`, built and checked like any other."""
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# value readers, for a record, the run config and the record types here: each
# raises SchemaError naming where the value sits ("evaluator_scores.judge",
# "sim.attacks[1].delta"), which _read gives a library caller as a ValueError


def _number(value, where: str) -> float:
    """A finite number from a record or a config; bools are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        got = type(value).__name__
        if isinstance(value, str):
            got += f" {value[:40]!r}{'...' if len(value) > 40 else ''}"
            if _finite_text(value):
                got += "; write it unquoted, and in YAML give an exponent a dot and a sign (1.0e-3)"
        raise SchemaError(f"{where} must be a number, got {got}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{where} must be finite, got {number!r}")
    return number


def _finite_text(text: str) -> bool:
    """Whether float() reads the text as a finite number. PyYAML follows
    YAML 1.1, which loads 1e-3, 1.0e3 and 1E+3 as strings: only a dot and a
    signed exponent (1.0e-3) load as a float."""
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{where} must be a string, got {type(value).__name__}")
    return value


def _read(reader, value, where: str):
    """reader(value, where), with its SchemaError as a ValueError in the same words."""
    try:
        return reader(value, where)
    except SchemaError as exc:
        raise ValueError(str(exc)) from None


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


def task_label(task: str) -> str:
    """A task family's label: the text trimmed and lowercased. Reports list
    "qa" and "summarization" first, then any other family in order of first
    appearance."""
    if not isinstance(task, str) or not task.strip():
        raise ValueError(f"task must be a non-blank string, got {task!r}")
    return task.strip().lower()


class WeightConfig(Record):
    """Named non-negative dimension weights, normalized to sum to 1."""

    name: str
    weights: Mapping[DimensionId, float]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("weight config must have at least one dimension")
        weights: dict[DimensionId, float] = {}
        for dim in sorted(self.weights, key=DIMENSION_COLUMN.__getitem__):
            w = weights[dim] = _read(_number, self.weights[dim], f"weights.{dim.value}")
            if w < 0.0:
                raise ValueError(f"weights.{dim.value} must be >= 0, got {w!r}")
        try:
            total = math.fsum(weights.values())
        except OverflowError:  # finite weights whose sum is past float range
            raise ValueError("weights must have a finite sum") from None
        if total <= 0.0:
            raise ValueError("weights must have a positive sum")
        normalized = {dim: w / total for dim, w in weights.items()}
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


class LoggedSample(Record):
    """One logged producer output with its evaluator scores.

    reference_score is the trusted quality signal used for audits; it is
    optional because production logs rarely have one. reference_text feeds
    the builtin semantic baseline. Unknown fields from ingestion ride along
    in `extra` and are written back out unchanged. task is kept as its
    task_label. Construction refuses a blank sample_id, task or producer_id,
    and reads the texts and scores with ingest's readers: a ValueError in
    ingest's words for what ingest would refuse, and every score a float.
    """

    sample_id: str
    task: str
    producer_id: str
    query: str
    output: str
    evaluator_scores: Mapping[str, float] = {}
    reference_score: float | None = None
    reference_text: str | None = None
    extra: Mapping[str, object] = {}

    def __post_init__(self):
        for name in ("sample_id", "producer_id"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value.strip():
                raise ValueError(f"{name} must be a non-blank string, got {value!r}")
        _setattr(self, "task", task_label(self.task))
        for name in ("query", "output", "reference_text"):
            if name != "reference_text" or self.reference_text is not None:
                _read(_text, getattr(self, name), name)
        raw = self.evaluator_scores
        scores = {str(k): _read(_number, v, f"evaluator_scores.{k}") for k, v in raw.items()}
        if self.reference_score is not None:
            reference = _read(_number, self.reference_score, "reference_score")
            _setattr(self, "reference_score", reference)
        _setattr(self, "evaluator_scores", scores)
        _setattr(self, "extra", dict(self.extra))


def _checked_dims(samples: list[LoggedSample], dims) -> np.ndarray:
    """dims as the samples' float64 matrix, all NaN for None. ValueError,
    naming the first sample and dimension at fault, for a shape other than
    (len(samples), 6) and for a value outside [0, 1] (infinities included)
    that is not NaN."""
    n, width = len(samples), len(CANONICAL_DIMENSIONS)
    dims = np.full((n, width), math.nan) if dims is None else np.asarray(dims, dtype=np.float64)
    if dims.shape != (n, width):
        rows, cols = dims.shape if dims.ndim == 2 else (0, 0)
        i = rows if cols >= width else 0  # the first sample without a full row
        dim = CANONICAL_DIMENSIONS[0 if i >= rows else cols].value
        cell = f": no cell for sample {samples[i].sample_id!r}, dimension {dim}" if i < n else ""
        raise ValueError(f"dims has shape {dims.shape}, not ({n}, {width}){cell}")
    for k in np.flatnonzero(~np.isnan(dims) & ~((dims >= 0.0) & (dims <= 1.0)))[:1]:
        i, j = divmod(int(k), width)
        raise ValueError(
            f"sample {samples[i].sample_id!r}: dimension {CANONICAL_DIMENSIONS[j].value}"
            f" has score {dims[i, j].item()!r} outside [0, 1]"
        )
    return dims


class Batch:
    """Samples checked once for every stage that reads them together.

    samples: the samples, in order. dims: their (n x 6) float64 dimension
    scores, row i samples[i]'s in DIMENSION_COLUMN order, NaN where absent.
    evaluator_ids: every evaluator that scores a sample, sorted.
    evaluator_scores: the raw (n x evaluators) table, NaN where a sample
    has no score.

    The constructor refuses a repeated sample_id with a SchemaError naming
    it (a map keyed by sample_id would merge those samples) and dims that
    _checked_dims refuses. rows() and with_dims() derive batches from a
    checked one, so neither checks what it did not change. What every stage
    reads of a batch, normalized_scores() and referenced(), is built once,
    on first use.
    """

    __slots__ = (
        "samples", "dims", "evaluator_ids", "evaluator_scores", "_normalized", "_referenced"
    )

    def __init__(self, samples: Iterable[LoggedSample], dims=None):
        samples = list(samples)
        seen: set[str] = set()
        for sample in samples:
            if sample.sample_id in seen:
                raise SchemaError(f"duplicate sample_id {sample.sample_id!r}")
            seen.add(sample.sample_id)
        ids = sorted({e for s in samples for e in s.evaluator_scores})
        rows = [[s.evaluator_scores.get(e, math.nan) for e in ids] for s in samples]
        table = np.array(rows, dtype=np.float64).reshape(len(samples), len(ids))
        self._fill(samples, _checked_dims(samples, dims), ids, table, [], [])

    def _fill(self, *values) -> Batch:
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)
        return self

    def rows(self, keep: np.ndarray) -> Batch:
        """The samples where the boolean mask `keep` holds, in order, with
        their rows of dims and of the evaluator table."""
        samples = [s for s, kept in zip(self.samples, keep.tolist()) if kept]
        ids, table = self.evaluator_ids, self.evaluator_scores[keep]
        return Batch.__new__(Batch)._fill(samples, self.dims[keep], ids, table, [], [])

    def with_dims(self, dims) -> Batch:
        """These samples with new dims, checked as the constructor checks
        them; the evaluator table and its normalized form are shared."""
        dims = _checked_dims(self.samples, dims)
        ids, table = self.evaluator_ids, self.evaluator_scores
        return Batch.__new__(Batch)._fill(self.samples, dims, ids, table, self._normalized, [])

    def normalized_scores(self) -> np.ndarray:
        """The evaluator table with each column min-max normalized over the
        samples it scores, NaN elsewhere: raw evaluator scales are arbitrary
        (logprobs, Likert, percentages), so each is mapped onto [0, 1] on its
        own before any cross-evaluator arithmetic. Built on first use."""
        if not self._normalized:  # a list shared with every with_dims batch
            table = self.evaluator_scores.copy()
            for column in table.T:
                present = ~np.isnan(column)
                column[present] = normalize_batch(column[present].tolist())
            table.flags.writeable = False  # every reader gets this one array
            self._normalized.append(table)
        return self._normalized[0]

    def referenced(self) -> tuple[np.ndarray, Batch, np.ndarray, np.ndarray]:
        """Which samples carry a reference score, as a boolean mask, their
        rows of this batch, and their reference scores (float64) and task
        labels (object). Built on first use, read-only, for every audit
        stage that reads this batch."""
        if not self._referenced:  # not shared: with_dims batches have other rows
            self._referenced.append(_referenced_rows(self))
        return self._referenced[0]

    def __len__(self) -> int:
        return len(self.samples)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _referenced_rows(batch: Batch) -> tuple[np.ndarray, Batch, np.ndarray, np.ndarray]:
    """Batch.referenced's answer, from one pass over the samples."""
    keep = np.array([s.reference_score is not None for s in batch.samples], dtype=bool)
    rows = batch.rows(keep)
    ys = np.array([s.reference_score for s in rows.samples], dtype=np.float64)
    labels = np.array([s.task for s in rows.samples], dtype=object)
    for array in (keep, ys, labels):
        array.flags.writeable = False
    return keep, rows, ys, labels


class EvaluatorProfile(Record):
    """A consensus participant: identity and query cost. Its behavior in a
    simulation comes from the cell's attack (mdqs.poq.SimConfig)."""

    evaluator_id: str
    cost: float = 1.0

    def __post_init__(self):
        if not isinstance(self.evaluator_id, str) or not self.evaluator_id.strip():
            raise ValueError(f"evaluator_id must be a non-blank string, got {self.evaluator_id!r}")
        cost = _read(_number, self.cost, "cost")
        if cost < 0.0:
            raise ValueError(f"cost must be finite and >= 0, got {self.cost!r}")
        _setattr(self, "cost", cost)


class ValidationIssue(Record):
    sample_id: str
    fieldname: str
    message: str


class ValidationReport(Record):
    valid_count: int
    invalid_count: int
    issues: tuple[ValidationIssue, ...]

    @property
    def total(self) -> int:
        return self.valid_count + self.invalid_count

    @property
    def ok(self) -> bool:
        return self.invalid_count == 0


@dataclass(frozen=True)  # the one dataclass left: callers may use dataclasses APIs on it
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


class SimError(Record):
    """A grid entry that failed; iter_experiment yields it and moves on."""

    config_id: str
    error_type: str
    message: str
