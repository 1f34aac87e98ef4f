"""Composite scoring: weighted sum of dimension scores, and weight variants.

The composite is a pure post-processing layer over dimension outputs, so
re-weighting experiments (ablations, calibration) never re-run scorers.
A batch's scores are one (n x 6) matrix, Batch.dims, and compose_rows is
the one composite formula, applied to every row of it; the single-sample
compose builds that row from a {DimensionId: score} mapping. VARIANTS is
the one table of named weight variants; config keys, the --weights flag,
the ablation grid and the composite quality signal all look names up in it
through variant().
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np

from mdqs.errors import AllDimensionsRemoved, DimensionMismatch, SchemaError
from mdqs.model import (
    CANONICAL_DIMENSIONS,
    DIMENSION_COLUMN,
    Batch,
    DimensionId,
    WeightConfig,
)
from mdqs.stats import fsum_rows


def compose_rows(matrix: np.ndarray, weights: WeightConfig) -> np.ndarray:
    """Each row's fsum of weight times score over the weighted dimensions,
    clipped to [0, 1]; NaN where the row lacks a weighted dimension, as fsum
    and np.clip pass NaN through. numpy's products are the IEEE products
    Python forms and fsum is correctly rounded (never -0.0), so every value
    is the scalar formula's to the bit."""
    columns = [DIMENSION_COLUMN[d] for d in weights.weights]
    terms = matrix[:, columns] * list(weights.weights.values())
    return np.clip(fsum_rows(terms), 0.0, 1.0)


def refuse_absent(batch: Batch, column: np.ndarray, weights: WeightConfig):
    """Raise for the first sample whose composite in `column` is NaN: its
    row of dims is all NaN (no dimension scores), or lacks a weighted one."""
    for i in np.flatnonzero(np.isnan(column))[:1]:
        present = [d for d, v in zip(CANONICAL_DIMENSIONS, batch.dims[i].tolist()) if v == v]
        if not present:
            sample_id = batch.samples[i].sample_id
            raise SchemaError(f"sample {sample_id!r} has no dimension scores; run score first")
        raise DimensionMismatch(present, weights.dimensions())


def compose(scores: Mapping[DimensionId, float], weights: WeightConfig) -> float:
    """Weighted sum of a {DimensionId: score} mapping, clipped to [0, 1].

    ValueError for a key that is not a DimensionId or a score outside
    [0, 1] (NaN and infinities included). The score and weight key sets
    must match exactly; a silent partial sum would hide configuration
    drift. The scores form one canonical row, NaN where absent, so the
    result is compose_rows' to the bit.
    """
    if not scores.keys() <= DIMENSION_COLUMN.keys():
        raise ValueError(f"dimension keys must be DimensionIds, got {list(scores)!r}")
    row = [float(scores.get(dim, math.nan)) for dim in CANONICAL_DIMENSIONS]
    for dim, score in zip(CANONICAL_DIMENSIONS, row):
        if dim in scores and not 0.0 <= score <= 1.0:
            raise ValueError(f"dimension {dim.value} has score {score!r} outside [0, 1]")
    if scores.keys() != weights.dimensions():
        raise DimensionMismatch(scores.keys(), weights.dimensions())
    return float(compose_rows(np.array([row]), weights)[0])


def compose_batch(batch: Batch, weights: WeightConfig) -> list[float]:
    """Composite for every sample over the weighted dimensions.

    Each sample's row of dims must cover every weighted dimension; extra
    dimensions are ignored, which is what lets ablation variants reuse one
    scoring pass.
    """
    column = compose_rows(batch.dims, weights)
    refuse_absent(batch, column, weights)
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
