"""Report bytes pinned by sha256.

Three runs through the CLI, each into its own directory:

  replay         score, audit, calibrate, simulate on the replay fixture
                 (the criterion-8 pipeline);
  strategy_grid  score, then simulate every attack x defense x signal in
                 replay mode (72 cells);
  synthetic_grid simulate every attack x defense in synthetic mode.

Every file each run leaves, manifest.json included, must match
fixtures/golden_digests.txt byte for byte. A change that alters report bytes
on purpose regenerates the list with `python tests/test_golden.py` and says
why the new bytes are more correct.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"
DIGESTS = FIXTURES / "golden_digests.txt"
RAW = str(FIXTURES / "replay_200.jsonl")


def _commands(case: str, out: Path) -> list[list[str]]:
    scored = str(out / "scored.jsonl")
    common = ["--out", str(out)]
    if case == "replay":
        config = ["--config", str(FIXTURES / "replay_config.yaml")]
        return [
            ["score", *config, "--input", RAW, *common],
            ["audit", *config, "--input", scored, *common],
            ["calibrate", *config, "--input", scored, *common],
            ["simulate", *config, "--input", scored, *common],
        ]
    if case == "strategy_grid":
        config = ["--config", str(FIXTURES / "strategy_grid.yaml")]
        return [
            ["score", *config, "--input", RAW, *common],
            ["simulate", *config, "--input", scored, *common],
        ]
    return [["simulate", "--config", str(FIXTURES / "synthetic_grid.yaml"), *common]]


CASES = ("replay", "strategy_grid", "synthetic_grid")


def run_cases(root: Path) -> dict[str, str]:
    """Run every case under `root`; map "case/file" to its sha256."""
    from mdqs.cli import main

    digests = {}
    for case in CASES:
        out = root / case
        for argv in _commands(case, out):
            assert main(argv) == 0, argv
        for path in sorted(out.iterdir()):
            digests[f"{case}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _read_digests() -> dict[str, str]:
    pinned = {}
    for line in DIGESTS.read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        pinned[name] = digest
    return pinned


def test_report_bytes_match_golden_digests(tmp_path):
    produced = run_cases(tmp_path)
    pinned = _read_digests()
    assert sorted(produced) == sorted(pinned)
    changed = [name for name in pinned if produced[name] != pinned[name]]
    assert changed == []
    assert len([n for n in pinned if n.startswith("strategy_grid/sim_")]) == 72


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = run_cases(Path(tmp))
    DIGESTS.write_text(
        "".join(f"{digests[name]}  {name}\n" for name in sorted(digests)), encoding="utf-8"
    )
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
