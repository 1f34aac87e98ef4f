"""Smoke test of the benchmark itself: every workload once at the tiny size.

    python3 -m pytest perfbench/test_smoke.py

Checks that each run passes its own output checks and prints every metric
named in BENCHMARK.json, with its unit, both as a summary line and in the
final JSON line, and that the output check catches tampered reports.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    summary, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.strip().startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in summary), name
    assert any(line.strip().startswith("error_rate = 0 ") for line in summary)
    if trace:
        digests = [line.split()[-1] for line in summary if "output digest" in line]
        traced = [line.split()[3] for line in summary if "traced output digest" in line]
        assert traced and traced[0] == digests[0]


def test_design_table_covers_every_per_layer_metric():
    design = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
    tabled = {m for row in design["layers"] for m in row["metrics"]}
    assert tabled == {m["name"] for m in SPEC["per_layer"]}


def test_output_check_reports_tampering(tmp_path):
    sys.path[:0] = [str(HERE / "reference"), str(HERE)]
    import run
    import workloads

    out = tmp_path / "out"
    wl = workloads.make_inputs("sim_grid", "smoke", 3, tmp_path, out)
    subprocess.run([sys.executable, "-m", "mdqs.cli", *wl.commands[0]], env=run._child_env(run.SRC),
                   check=True, capture_output=True, timeout=170)
    assert run.check_outputs(out, wl).problems == []

    cell = sorted(out.glob("sim_*.json"))[0]
    report = json.loads(cell.read_text())
    producer = sorted(report["rewards"])[0]
    report["rewards"][producer] += 0.5
    cell.write_text(json.dumps(report))
    problems = run.check_outputs(out, wl).problems
    assert any(p.startswith(f"{cell.name}: rewards sum to") for p in problems), problems

    (out / "defense_comparison.csv").unlink()
    problems = run.check_outputs(out, wl).problems
    assert any("defense_comparison.csv" in p for p in problems), problems


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
