"""Shared builders for tests; keyword-only so call sites stay readable."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mdqs.model import (
    CANONICAL_DIMENSIONS,
    Batch,
    DimensionId,
    LoggedSample,
)
from mdqs.poq import SimConfig, SimSettings

FIXTURES = "tests/fixtures"


def make_sample(
    *,
    sample_id: str = "s1",
    task: str = "qa",
    producer_id: str = "model-a",
    query: str = "what is the boiling point of water at sea level",
    output: str = "Water boils at 100 degrees Celsius at standard sea level pressure.",
    evaluator_scores: dict | None = None,
    reference_score: float | None = None,
    reference_text: str | None = None,
    extra: dict | None = None,
) -> LoggedSample:
    return LoggedSample(
        sample_id=sample_id,
        task=task,
        producer_id=producer_id,
        query=query,
        output=output,
        evaluator_scores=evaluator_scores or {},
        reference_score=reference_score,
        reference_text=reference_text,
        extra=extra or {},
    )


def dim_matrix(maps) -> np.ndarray:
    """The (n x 6) dims of {dimension name: score} maps, one per sample, NaN
    where a map (or None) has no score."""
    rows = [[(m or {}).get(d.value, math.nan) for d in CANONICAL_DIMENSIONS] for m in maps]
    return np.array(rows, dtype=np.float64).reshape(len(rows), len(CANONICAL_DIMENSIONS))


def batch(pairs) -> Batch:
    """The Batch of (sample, dims map) pairs, such as scored_sample's."""
    pairs = list(pairs)
    return Batch([s for s, _ in pairs], dim_matrix([m for _, m in pairs]))


def scored_sample(i: int, *, task: str = "qa", gt: float, dims: dict, producer: str = "model-a"):
    """A pre-scored sample keyed by index, for audit and composite tests, and
    its dims map; batch() turns a list of them into a Batch."""
    sample = make_sample(
        sample_id=f"s{i:04d}",
        task=task,
        producer_id=producer,
        query=f"q{i:04d}",
        reference_score=gt,
        evaluator_scores={"judge": gt, "anti": 1.0 - gt},
    )
    return sample, dims


def split_settings(fields: dict) -> tuple[SimSettings, dict]:
    """SimSettings from the keys of `fields` that it has, and the other keys."""
    shared = SimSettings._fields.keys()
    settings = SimSettings(**{k: v for k, v in fields.items() if k in shared})
    return settings, {k: v for k, v in fields.items() if k not in shared}


def sim_config(**fields) -> SimConfig:
    """A SimConfig from the fields of SimSettings and of SimConfig, given flat."""
    settings, rest = split_settings(fields)
    return SimConfig(settings=settings, **rest)


@pytest.fixture
def all_dims():
    return {d.value: 0.5 for d in DimensionId}


# One line per acceptance criterion, echoed after the run so the verdicts
# survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
