"""Composite scoring: weighted sum of dimension scores, and weight variants.

The composite is a pure post-processing layer over dimension outputs, so
re-weighting experiments (ablations, calibration) never re-run scorers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from mdqs.errors import AllDimensionsRemoved, DimensionMismatch, SchemaError
from mdqs.model import (
    DimensionId,
    DimensionVector,
    LoggedSample,
    WeightConfig,
)


def compose(scores: DimensionVector, weights: WeightConfig) -> float:
    """Weighted sum clipped to [0, 1].

    The score and weight key sets must match exactly; a silent partial sum
    would hide configuration drift.
    """
    if scores.keys() != weights.dimensions():
        raise DimensionMismatch(scores.keys(), weights.dimensions())
    total = math.fsum(weights[d] * scores[d] for d in scores.values)
    return min(1.0, max(0.0, total))


def compose_batch(samples: Sequence[LoggedSample], weights: WeightConfig) -> list[float]:
    """Composite for every sample, restricting vectors to the active set.

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
        missing = wanted - vec.keys()
        if missing:
            raise DimensionMismatch(vec.keys(), wanted)
        out.append(compose(vec.restrict(wanted), weights))
    return out


_PRIOR_DIMS = frozenset({DimensionId.MODEL_PRIOR, DimensionId.COST_PRIOR})

_KINDS = ("default", "equal_weights", "no_priors", "prior_heavy", "semantic_only", "remove")


@dataclass(frozen=True)
class VariantSpec:
    """A recipe for deriving a weight variant from a base config."""

    kind: str
    remove: frozenset[DimensionId] = frozenset()
    factor: float = 2.0
    name: str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if self.kind == "prior_heavy" and (not math.isfinite(self.factor) or self.factor <= 0):
            raise ValueError("prior_heavy factor must be finite and > 0")
        object.__setattr__(self, "remove", frozenset(self.remove))

    @classmethod
    def default(cls) -> "VariantSpec":
        return cls("default")

    @classmethod
    def equal_weights(cls) -> "VariantSpec":
        return cls("equal_weights")

    @classmethod
    def no_priors(cls) -> "VariantSpec":
        return cls("no_priors")

    @classmethod
    def prior_heavy(cls, factor: float = 2.0) -> "VariantSpec":
        return cls("prior_heavy", factor=factor)

    @classmethod
    def semantic_only(cls) -> "VariantSpec":
        return cls("semantic_only")

    @classmethod
    def removing(cls, dims: Iterable[DimensionId], name: str | None = None) -> "VariantSpec":
        return cls("remove", remove=frozenset(dims), name=name)

    def display_name(self) -> str:
        if self.name:
            return self.name
        if self.kind == "remove":
            dropped = "+".join(sorted(d.value for d in self.remove))
            return f"remove_{dropped}" if dropped else "remove_nothing"
        return self.kind


def make_variant(base: WeightConfig, spec: VariantSpec) -> WeightConfig:
    """Derive a weight variant; WeightConfig renormalizes on construction."""
    name = spec.display_name()
    dims = base.dimensions()
    if spec.kind == "default":
        return WeightConfig(name, dict(base.weights))
    if spec.kind == "equal_weights":
        return WeightConfig(name, {d: 1.0 for d in dims})
    if spec.kind == "no_priors":
        kept = {d: base[d] for d in dims if d not in _PRIOR_DIMS}
        if not kept:
            raise AllDimensionsRemoved("variant no_priors leaves no dimensions")
        return WeightConfig(name, kept)
    if spec.kind == "prior_heavy":
        scaled = {
            d: base[d] * (spec.factor if d in _PRIOR_DIMS else 1.0) for d in dims
        }
        return WeightConfig(name, scaled)
    if spec.kind == "semantic_only":
        if DimensionId.SEMANTIC not in dims:
            raise AllDimensionsRemoved("base config has no semantic dimension")
        return WeightConfig(name, {DimensionId.SEMANTIC: 1.0})
    if spec.kind == "remove":
        kept = {d: base[d] for d in dims if d not in spec.remove}
        if not kept:
            raise AllDimensionsRemoved("removal set covers every dimension")
        return WeightConfig(name, kept)
    raise ValueError(f"unknown variant kind {spec.kind!r}")


# The standard nine-variant ablation grid.
PAPER_PRESET: tuple[tuple[str, VariantSpec], ...] = (
    ("default", VariantSpec.default()),
    ("equal_weights", VariantSpec.equal_weights()),
    ("no_priors", VariantSpec.no_priors()),
    ("prior_heavy", VariantSpec.prior_heavy(2.0)),
    ("semantic_only", VariantSpec.semantic_only()),
    ("no_structure", VariantSpec.removing({DimensionId.STRUCTURE}, name="no_structure")),
    ("no_alignment", VariantSpec.removing({DimensionId.ALIGNMENT}, name="no_alignment")),
    ("no_agreement", VariantSpec.removing({DimensionId.AGREEMENT}, name="no_agreement")),
    (
        "calibrated",
        VariantSpec.removing(
            {DimensionId.ALIGNMENT, DimensionId.AGREEMENT}, name="calibrated"
        ),
    ),
)


def preset_variants(names: Sequence[str] | None = None) -> list[tuple[str, VariantSpec]]:
    """The named subset of the standard grid, in grid order."""
    if names is None:
        return list(PAPER_PRESET)
    known = dict(PAPER_PRESET)
    out = []
    for name in names:
        if name not in known:
            raise ValueError(f"unknown variant {name!r} (known: {', '.join(known)})")
        out.append((name, known[name]))
    return out
