"""Composite scoring: weighted sum of dimension scores, and weight variants.

The composite is a pure post-processing layer over dimension outputs, so
re-weighting experiments (ablations, calibration) never re-run scorers.
A batch's scores are one (n x 6) dims array beside its samples, which every
consumer passes through check_dims (which also refuses a repeated
sample_id), and compose_rows is the one composite formula, applied to
every row of it. VARIANTS is the one table of named
weight variants; config keys, the --weights flag, the ablation grid and the
composite quality signal all look names up in it through variant().
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from mdqs.errors import AllDimensionsRemoved, DimensionMismatch, SchemaError
from mdqs.model import (
    CANONICAL_DIMENSIONS,
    DIMENSION_COLUMN,
    DimensionId,
    DimensionVector,
    LoggedSample,
    WeightConfig,
)
from mdqs.stats import fsum_rows


def refuse_repeated_ids(samples: Sequence[LoggedSample]) -> None:
    """Raise SchemaError naming the first sample_id that repeats: a map keyed
    by sample_id would silently merge those samples."""
    seen: set[str] = set()
    for sample in samples:
        if sample.sample_id in seen:
            raise SchemaError(f"duplicate sample_id {sample.sample_id!r}")
        seen.add(sample.sample_id)


def check_dims(samples: Sequence[LoggedSample], dims) -> np.ndarray:
    """dims as the samples' float64 matrix: row i is samples[i]'s scores in
    DIMENSION_COLUMN order, NaN where absent. SchemaError for a repeated
    sample_id (refuse_repeated_ids); ValueError, naming the first sample and
    dimension at fault, for a shape other than (len(samples), 6) and for a
    value outside [0, 1] (infinities included) that is not NaN."""
    refuse_repeated_ids(samples)
    dims = np.asarray(dims, dtype=np.float64)
    n, width = len(samples), len(CANONICAL_DIMENSIONS)
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


def compose_rows(matrix: np.ndarray, weights: WeightConfig) -> np.ndarray:
    """Each row's fsum of weight times score over the weighted dimensions,
    clipped to [0, 1]; NaN where the row lacks a weighted dimension, as fsum
    and np.clip pass NaN through. numpy's products are the IEEE products
    Python forms and fsum is correctly rounded (never -0.0), so every value
    is the scalar formula's to the bit."""
    columns = [DIMENSION_COLUMN[d] for d in weights.weights]
    terms = matrix[:, columns] * list(weights.weights.values())
    return np.clip(fsum_rows(terms), 0.0, 1.0)


def refuse_absent(
    samples: Sequence[LoggedSample], dims: np.ndarray, column: np.ndarray, weights: WeightConfig
):
    """Raise for the first sample whose composite in `column` is NaN: its
    row of dims is all NaN (no dimension scores), or lacks a weighted one."""
    for i in np.flatnonzero(np.isnan(column))[:1]:
        present = [d for d, v in zip(CANONICAL_DIMENSIONS, dims[i].tolist()) if v == v]
        if not present:
            sample_id = samples[i].sample_id
            raise SchemaError(f"sample {sample_id!r} has no dimension scores; run score first")
        raise DimensionMismatch(present, weights.dimensions())


def compose(scores: DimensionVector, weights: WeightConfig) -> float:
    """Weighted sum clipped to [0, 1].

    The score and weight key sets must match exactly; a silent partial sum
    would hide configuration drift.
    """
    if scores.keys() != weights.dimensions():
        raise DimensionMismatch(scores.keys(), weights.dimensions())
    return float(compose_rows(np.array([scores.row], dtype=np.float64), weights)[0])


def compose_batch(
    samples: Sequence[LoggedSample], dims: np.ndarray, weights: WeightConfig
) -> list[float]:
    """Composite for every sample over the weighted dimensions.

    Each sample's row of dims must cover every weighted dimension; extra
    dimensions are ignored, which is what lets ablation variants reuse one
    scoring pass.
    """
    dims = check_dims(samples, dims)
    column = compose_rows(dims, weights)
    refuse_absent(samples, dims, column, weights)
    return column.tolist()


_PRIORS = (DimensionId.MODEL_PRIOR, DimensionId.COST_PRIOR)


def _without(*dims: DimensionId) -> Callable[[Mapping[DimensionId, float]], dict]:
    return lambda weights: {d: w for d, w in weights.items() if d not in dims}


# The ablation grid's weight variants, in grid order: each maps the base
# weights to the variant's weights, which WeightConfig then renormalizes.
VARIANTS: dict[str, Callable[[Mapping[DimensionId, float]], dict]] = {
    "default": dict,
    "equal_weights": lambda weights: dict.fromkeys(weights, 1.0),
    "no_priors": _without(*_PRIORS),
    "prior_heavy": lambda weights: {
        d: w * 2.0 if d in _PRIORS else w for d, w in weights.items()
    },
    "semantic_only": lambda weights: {d: 1.0 for d in weights if d is DimensionId.SEMANTIC},
    "no_structure": _without(DimensionId.STRUCTURE),
    "no_alignment": _without(DimensionId.ALIGNMENT),
    "no_agreement": _without(DimensionId.AGREEMENT),
    "calibrated": _without(DimensionId.ALIGNMENT, DimensionId.AGREEMENT),
}


def variant(base: WeightConfig, name: str) -> WeightConfig:
    """The weight variant `name` of `base`, named after the variant."""
    if name not in VARIANTS:
        raise SchemaError(f"unknown weights variant {name!r} (known: {', '.join(VARIANTS)})")
    weights = VARIANTS[name](base.weights)
    if not weights:
        raise AllDimensionsRemoved(f"variant {name!r} leaves no dimensions")
    return WeightConfig(name, weights)
