"""Synthetic dataset generation with planted per-task correlations.

The generator plants a known Spearman structure: one latent quality factor
per dataset, per-dimension columns built as rho * gt + sqrt(1 - rho^2) * eps
with the rho chosen per task family, then rank-normalized onto [0, 1] into
the columns of the dataset's dims matrix (NaN for a dimension not planted).
Rank normalization is monotone, so the planted rank correlations survive it,
within sampling noise. Evaluator columns are gt plus Gaussian noise, same
treatment. The reference score is the rank-normalized latent itself.

Sample texts are filler with two deliberate properties: outputs degrade
(shorter, repetitive) as latent quality drops, and the reference text drifts
away from the output, so text-derived scorers stay positively correlated
with the reference when the dataset is re-scored from scratch.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from mdqs.errors import InvalidSpec
from mdqs.model import (
    CANONICAL_DIMENSIONS,
    DIMENSION_COLUMN,
    Batch,
    DimensionId,
    LoggedSample,
    Record,
    _number,
    _read,
    task_label,
)
from mdqs.rng import rng_for
from mdqs.stats import rank_normalize

_VOCAB = (
    "the analysis shows a consistent pattern across held out cases and the "
    "model explains each step before giving its final answer with citations "
    "to the source passage while keeping terminology uniform and avoiding "
    "unsupported claims about causality or magnitude in the reported data"
).split()

# A sign pattern typical of real logs: semantic carries most of the signal,
# alignment and agreement anti-correlate on qa but stay mildly positive on
# summarization. Used when no explicit correlations are configured.
DEFAULT_CORRELATIONS: dict[str, dict[DimensionId, float]] = {
    "qa": {
        DimensionId.MODEL_PRIOR: 0.30,
        DimensionId.COST_PRIOR: 0.25,
        DimensionId.STRUCTURE: 0.45,
        DimensionId.SEMANTIC: 0.85,
        DimensionId.ALIGNMENT: -0.55,
        DimensionId.AGREEMENT: -0.50,
    },
    "summarization": {
        DimensionId.MODEL_PRIOR: 0.25,
        DimensionId.COST_PRIOR: 0.20,
        DimensionId.STRUCTURE: 0.55,
        DimensionId.SEMANTIC: 0.45,
        DimensionId.ALIGNMENT: 0.10,
        DimensionId.AGREEMENT: 0.20,
    },
}

DEFAULT_EVALUATOR_NOISE: dict[str, float] = {
    "sts_paraphrase": 0.35,
    "lexical_overlap": 1.2,
    "judge_heldout": 0.8,
}


class SyntheticSpec(Record):
    """Recipe for one synthetic dataset.

    correlations maps task label -> {dimension -> rho}; every task produced
    by qa_fraction must have an entry. evaluator_noise maps evaluator id ->
    Gaussian sd added to the latent before rank normalization. Both default
    to DEFAULT_CORRELATIONS and DEFAULT_EVALUATOR_NOISE.
    """

    n: int
    correlations: Mapping[str, Mapping[DimensionId, float]] = DEFAULT_CORRELATIONS
    evaluator_noise: Mapping[str, float] = DEFAULT_EVALUATOR_NOISE
    qa_fraction: float = 0.5
    producers: tuple[str, ...] = ("model-a", "model-b", "model-c")
    producers_per_query: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSpec(f"n must be >= 1, got {self.n}")
        if not (0.0 <= self.qa_fraction <= 1.0):
            raise InvalidSpec(f"qa_fraction must be in [0, 1], got {self.qa_fraction}")
        if not self.producers:
            raise InvalidSpec("producers must be non-empty")
        for producer in self.producers:
            if not isinstance(producer, str) or not producer.strip():
                raise InvalidSpec(f"producers must be non-blank strings, got {producer!r}")
        if len(set(self.producers)) != len(self.producers):
            repeated = next(p for i, p in enumerate(self.producers) if p in self.producers[:i])
            raise InvalidSpec(f"producers must be distinct, got {repeated!r} twice")
        if self.producers_per_query < 1:
            raise InvalidSpec("producers_per_query must be >= 1")
        if self.producers_per_query > len(self.producers):
            raise InvalidSpec("producers_per_query cannot exceed the producer count")
        if not self.correlations:
            raise InvalidSpec("correlations must cover at least one task")
        frozen: dict[str, dict[DimensionId, float]] = {}
        for task, dims in self.correlations.items():
            label = task_label(task)
            frozen[label] = {}
            for dim, rho in dims.items():
                where = f"correlation for {label}/{dim.value}"
                r = _read(_number, rho, where, InvalidSpec)
                if abs(r) > 1.0:
                    raise InvalidSpec(f"{where} must be in [-1, 1], got {rho!r}")
                frozen[label][dim] = r
        object.__setattr__(self, "correlations", frozen)
        noise: dict[str, float] = {}
        for evaluator, sd in self.evaluator_noise.items():
            s = _read(_number, sd, f"noise sd for {evaluator!r}", InvalidSpec)
            if s < 0:
                raise InvalidSpec(f"noise sd for {evaluator!r} must be finite and >= 0")
            noise[str(evaluator)] = s
        object.__setattr__(self, "evaluator_noise", noise)
        object.__setattr__(self, "producers", tuple(self.producers))

    def dimensions(self) -> list[DimensionId]:
        present = {d for dims in self.correlations.values() for d in dims}
        return [d for d in CANONICAL_DIMENSIONS if d in present]


def _task_labels(spec: SyntheticSpec, n_groups: int) -> list[str]:
    n_qa = round(spec.qa_fraction * n_groups)
    return ["qa"] * n_qa + ["summarization"] * (n_groups - n_qa)


def _degrade(words: list[str], quality: float) -> list[str]:
    """Low quality shortens the text and injects a degenerate loop."""
    if quality >= 0.2:
        return words
    keep = max(4, int(len(words) * 0.25))
    stub = words[:keep]
    stub.extend(["again"] * 8)
    return stub


def _mutate(words: list[str], quality: float, rng: np.random.Generator) -> list[str]:
    """Reference text: resample a fraction of words, more when quality is low."""
    flip = (1.0 - quality) * 0.5
    out = []
    for w in words:
        if rng.random() < flip:
            out.append(_VOCAB[int(rng.integers(0, len(_VOCAB)))])
        else:
            out.append(w)
    return out


def generate_synthetic(spec: SyntheticSpec) -> Batch:
    """The dataset's samples and dims; same spec, same bytes, every time."""
    rng = rng_for(spec.rng_seed, "synthetic")
    n = spec.n
    group_size = spec.producers_per_query
    n_groups = math.ceil(n / group_size)
    group_tasks = _task_labels(spec, n_groups)

    tasks: list[str] = []
    queries: list[str] = []
    producers: list[str] = []
    for i in range(n):
        group = i // group_size
        tasks.append(group_tasks[group])
        queries.append(f"q{group:05d}: summarize the findings for case {group:05d}")
        producers.append(spec.producers[i % len(spec.producers)])

    for label in set(tasks):
        if label not in spec.correlations:
            raise InvalidSpec(f"no planted correlations for task {label!r}")

    gt = rng.standard_normal(n)

    dims = np.full((n, len(CANONICAL_DIMENSIONS)), math.nan)
    for dim in spec.dimensions():
        eps = rng.standard_normal(n)
        rho = np.array([spec.correlations[t].get(dim, 0.0) for t in tasks])
        dims[:, DIMENSION_COLUMN[dim]] = rank_normalize(rho * gt + np.sqrt(1.0 - rho * rho) * eps)

    evaluator_columns: dict[str, np.ndarray] = {}
    for evaluator in sorted(spec.evaluator_noise):
        sd = spec.evaluator_noise[evaluator]
        eps = rng.standard_normal(n)
        evaluator_columns[evaluator] = rank_normalize(gt + sd * eps)

    reference = rank_normalize(gt)

    samples: list[LoggedSample] = []
    for i in range(n):
        u = float(reference[i])
        length = 20 + int(u * 60)
        word_idx = rng.integers(0, len(_VOCAB), size=length)
        words = [_VOCAB[int(j)] for j in word_idx]
        out_words = _degrade(words, u)
        ref_words = _mutate(words, u, rng)
        samples.append(
            LoggedSample(
                sample_id=f"s{i:05d}",
                task=tasks[i],
                producer_id=producers[i],
                query=queries[i],
                output=" ".join(out_words),
                evaluator_scores={e: float(col[i]) for e, col in evaluator_columns.items()},
                reference_score=float(reference[i]),
                reference_text=" ".join(ref_words),
            )
        )
    return Batch(samples, dims)
