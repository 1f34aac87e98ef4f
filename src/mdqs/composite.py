"""Composite scoring: weighted sum of dimension scores, and weight variants.

The composite is a pure post-processing layer over dimension outputs, so
re-weighting experiments (ablations, calibration) never re-run scorers.
VARIANTS is the one table of named weight variants; config keys, the
--weights flag, the ablation grid and the composite quality signal all look
names up in it through variant().
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

from mdqs.errors import AllDimensionsRemoved, DimensionMismatch, SchemaError
from mdqs.model import (
    DimensionId,
    DimensionVector,
    LoggedSample,
    WeightConfig,
)


def _weighted_sum(scores: Mapping[DimensionId, float], weights: WeightConfig) -> float:
    """fsum of weight times score over the weighted dimensions, clipped to
    [0, 1]. fsum is correctly rounded, so the term order does not matter."""
    return min(1.0, max(0.0, math.fsum(w * scores[d] for d, w in weights.weights.items())))


def compose(scores: DimensionVector, weights: WeightConfig) -> float:
    """Weighted sum clipped to [0, 1].

    The score and weight key sets must match exactly; a silent partial sum
    would hide configuration drift.
    """
    if scores.keys() != weights.dimensions():
        raise DimensionMismatch(scores.keys(), weights.dimensions())
    return _weighted_sum(scores.values, weights)


def compose_batch(samples: Sequence[LoggedSample], weights: WeightConfig) -> list[float]:
    """Composite for every sample over the weighted dimensions.

    Samples must already carry dimension scores covering every weighted
    dimension; extra dimensions on the sample are ignored, which is what
    lets ablation variants reuse one scoring pass.
    """
    out: list[float] = []
    wanted = weights.dimensions()
    for sample in samples:
        vec = sample.dimension_scores
        if vec is None:
            raise SchemaError(f"sample {sample.sample_id!r} has no dimension scores; run score first")
        if not vec.values.keys() >= wanted:
            raise DimensionMismatch(vec.keys(), wanted)
        out.append(_weighted_sum(vec.values, weights))
    return out


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
