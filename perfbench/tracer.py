"""Traced run: `mdqs.cli.main` in this process, with timing wrappers.

    python3 perfbench/tracer.py PLAN.json

PLAN.json holds {"mode", "run_id", "src", "spans_out", ...}. In "pipeline"
mode the wrappers below are installed and each CLI argv in "commands" runs
through `mdqs.cli.main` inside a `cli.main` span. In "attribution" mode
`score_all` is timed once per active dimension with a one-dimension weight
config. Either way the result is written to "spans_out" once, at the end.

A wrapper replaces a name at the place its caller looks it up, so a call
from inside the program (the audit inside calibrate, run_single inside
run_experiment) becomes a child span of the caller's span. A name that a
later version of the program no longer has is listed as absent; the run
goes on without that span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (module, attribute looked up by the caller, span name, what to record)
WRAPS = (
    ("mdqs.cli", "load_config", "io.load_config", None),
    ("mdqs.cli", "ingest", "io.ingest", "path"),
    ("mdqs.cli", "emit_reports", "io.emit_reports", None),
    ("mdqs.cli", "score_all", "scoring.score_all", None),
    ("mdqs.cli", "column_stats", "scoring.column_stats", None),
    ("mdqs.cli", "calibrate", "audit.calibrate", None),
    ("mdqs.cli", "calibrate_per_task", "audit.calibrate_per_task", None),
    ("mdqs.cli", "audit", "audit.audit", None),
    ("mdqs.cli", "ablation_grid", "audit.ablation_grid", None),
    ("mdqs.cli", "run_experiment", "poq.run_experiment", None),
    ("mdqs.audit", "audit", "audit.audit", None),
    ("mdqs.audit", "calibrate", "audit.calibrate", None),
    ("mdqs.audit", "compose_batch", "composite.compose_batch", "len"),
    ("mdqs.audit", "pearson", "stats.pearson", None),
    ("mdqs.audit", "spearman", "stats.spearman", None),
    ("mdqs.audit", "consensus_baselines", "audit.consensus_baselines", None),
    ("mdqs.poq", "run_single", "poq.run_single", None),
    ("mdqs.poq", "compose_batch", "composite.compose_batch", "len"),
    ("mdqs.poq", "normalize_evaluator_scores", "scoring.normalize_evaluator_scores", None),
)


class Recorder:
    """Spans in memory: [name, parent index, start, end, attribute]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.absent: list[str] = []

    def span(self, name: str, fn, record: str | None = None):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attr = None
            if record == "len" and args:
                try:
                    attr = len(args[0])
                except TypeError:
                    attr = None
            elif record == "path" and args:
                attr = str(args[0])
            index = len(spans)
            spans.append([name, stack[-1] if stack else None, 0.0, 0.0, attr])
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][2] = start
                spans[index][3] = end

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, record in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.span(name, fn, record))

    def dump(self, path: Path, **extra) -> None:
        payload = {
            "run_id": self.run_id,
            "spans": [
                {"run": self.run_id, "name": n, "parent": p, "start": s, "end": e, "attr": a}
                for n, p, s, e, a in self.spans
            ],
            "absent": self.absent,
            **extra,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


def run_pipeline(plan: dict) -> None:
    import mdqs.cli

    recorder = Recorder(plan["run_id"])
    recorder.install()
    main = recorder.span("cli.main", mdqs.cli.main)
    codes = [main(list(argv)) for argv in plan["commands"]]
    recorder.dump(Path(plan["spans_out"]), exit_codes=codes)


def run_attribution(plan: dict) -> None:
    """Seconds of score_all per active dimension, each on its own."""
    from mdqs.io import build_scoring_config, ingest, load_config, resolve_weights
    from mdqs.model import CANONICAL_DIMENSIONS, WeightConfig
    from mdqs.scoring import score_all

    config = load_config(plan["config"])
    samples = ingest(plan["input"]).samples
    active = resolve_weights(config).dimensions()
    seconds = {}
    for dim in CANONICAL_DIMENSIONS:
        if dim not in active:
            continue
        scoring = build_scoring_config(config, WeightConfig(dim.value, {dim: 1.0}))
        start = time.perf_counter()
        score_all(samples, scoring)
        seconds[dim.value] = time.perf_counter() - start
    Path(plan["spans_out"]).write_text(
        json.dumps({"run_id": plan["run_id"], "dim_s": seconds}), encoding="utf-8"
    )


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    if plan["mode"] == "pipeline":
        run_pipeline(plan)
    else:
        run_attribution(plan)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
