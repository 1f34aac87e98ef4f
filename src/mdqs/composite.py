"""Composite scoring: weighted sum of dimension scores, and weight variants.

The composite is a pure post-processing layer over dimension outputs, so
re-weighting experiments (ablations, calibration) never re-run scorers.
Scores are read as columns: dimension_matrix stacks a batch's canonical
rows into one n x 6 array, and compose_rows is the one composite formula,
applied to every row of it. VARIANTS is the one table of named
weight variants; config keys, the --weights flag, the ablation grid and the
composite quality signal all look names up in it through variant().
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

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

_ABSENT = (None,) * len(CANONICAL_DIMENSIONS)


def dimension_matrix(vectors: Iterable[DimensionVector | None]) -> np.ndarray:
    """An n x 6 float64 array of the vectors' rows, NaN where a vector has no
    score for a dimension (numpy reads None as NaN) or is None itself. A
    vector never holds NaN, so NaN can only mean absent."""
    rows = [_ABSENT if vector is None else vector.row for vector in vectors]
    return np.array(rows, dtype=np.float64).reshape(-1, len(CANONICAL_DIMENSIONS))


def compose_rows(matrix: np.ndarray, weights: WeightConfig) -> np.ndarray:
    """Each row's fsum of weight times score over the weighted dimensions,
    clipped to [0, 1]; NaN where the row lacks a weighted dimension, as fsum
    and np.clip pass NaN through. numpy's products are the IEEE products
    Python forms and fsum is correctly rounded (never -0.0), so every value
    is the scalar formula's to the bit."""
    columns = [DIMENSION_COLUMN[d] for d in weights.weights]
    terms = matrix[:, columns] * list(weights.weights.values())
    return np.clip(fsum_rows(terms), 0.0, 1.0)


def refuse_absent(samples: Sequence[LoggedSample], column: np.ndarray, weights: WeightConfig):
    """Raise for the first sample whose composite in `column` is NaN: it has
    no dimension scores, or lacks a weighted dimension."""
    for i in np.flatnonzero(np.isnan(column))[:1]:
        vector, sample_id = samples[i].dimension_scores, samples[i].sample_id
        if vector is None:
            raise SchemaError(f"sample {sample_id!r} has no dimension scores; run score first")
        raise DimensionMismatch(vector.keys(), weights.dimensions())


def compose(scores: DimensionVector, weights: WeightConfig) -> float:
    """Weighted sum clipped to [0, 1].

    The score and weight key sets must match exactly; a silent partial sum
    would hide configuration drift.
    """
    if scores.keys() != weights.dimensions():
        raise DimensionMismatch(scores.keys(), weights.dimensions())
    return float(compose_rows(dimension_matrix([scores]), weights)[0])


def compose_batch(samples: Sequence[LoggedSample], weights: WeightConfig) -> list[float]:
    """Composite for every sample over the weighted dimensions.

    Samples must already carry dimension scores covering every weighted
    dimension; extra dimensions on the sample are ignored, which is what
    lets ablation variants reuse one scoring pass.
    """
    column = compose_rows(dimension_matrix(s.dimension_scores for s in samples), weights)
    refuse_absent(samples, column, weights)
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
