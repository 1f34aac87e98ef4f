"""Shared builders for tests; keyword-only so call sites stay readable."""

from __future__ import annotations

import dataclasses

import pytest

from mdqs.model import (
    DimensionId,
    DimensionVector,
    LoggedSample,
    TaskFamily,
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
    dims: dict | None = None,
    extra: dict | None = None,
) -> LoggedSample:
    vector = None
    if dims is not None:
        vector = DimensionVector({DimensionId(k): v for k, v in dims.items()})
    return LoggedSample(
        sample_id=sample_id,
        task=TaskFamily(task),
        producer_id=producer_id,
        query=query,
        output=output,
        evaluator_scores=evaluator_scores or {},
        reference_score=reference_score,
        reference_text=reference_text,
        dimension_scores=vector,
        extra=extra or {},
    )


def scored_sample(i: int, *, task: str = "qa", gt: float, dims: dict, producer: str = "model-a"):
    """A pre-scored sample keyed by index, for audit and composite tests."""
    return make_sample(
        sample_id=f"s{i:04d}",
        task=task,
        producer_id=producer,
        query=f"q{i:04d}",
        reference_score=gt,
        evaluator_scores={"judge": gt, "anti": 1.0 - gt},
        dims=dims,
    )


def split_settings(fields: dict) -> tuple[SimSettings, dict]:
    """SimSettings from the keys of `fields` that it has, and the other keys."""
    shared = {f.name for f in dataclasses.fields(SimSettings)}
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
