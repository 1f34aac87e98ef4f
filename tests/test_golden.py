"""Report bytes pinned by sha256.

Runs through the CLI, each into its own directory:

  replay         score, audit, calibrate, simulate on the replay fixture
                 (the criterion-8 pipeline);
  strategy_grid  score, then simulate every attack x defense x signal in
                 replay mode (72 cells);
  strategy_grid-reversed
                 simulate that grid on strategy_grid's scored.jsonl with the
                 evaluators listed in reverse id order (trust snapshots follow
                 the listed order; emitters and value ties follow id order);
  strategy_grid-cycling
                 simulate that grid on strategy_grid's scored.jsonl for 230
                 rounds, past the fixture's 100 query groups, so output keys
                 repeat (a repeated key keeps its first place and last value);
  wide_groups    simulate that grid on the fixture with every five consecutive
                 records sharing one query (40 groups of five) for 1,030
                 rounds, past the 1,024 rounds of one block, so contests of
                 five outputs are settled block by block;
  synthetic_grid simulate every attack x defense in synthetic mode;
  unicode        score the fixture's first records with non-ASCII output and
                 reference texts (dotted capital I, sharp s, combining marks,
                 CJK, emoji, U+10FFFF, tabs and newlines), every pair with a
                 trigram on at least one side;
  report-<gate>[-reversed]
                 the full report with per-task calibration under each gate,
                 on the fixture in its own order and with its lines reversed
                 (so summarization comes first);
  calibrate-<gate>[-reversed]
                 per-task calibration of that report's scored.jsonl;
  validate       validate the replay fixture under its config.

Every file each run leaves, manifest.json included, must match
fixtures/golden_digests.txt byte for byte. A change that alters report bytes
on purpose regenerates the list with `python tests/test_golden.py` and says
why the new bytes are more correct.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import yaml

FIXTURES = Path(__file__).parent / "fixtures"
DIGESTS = FIXTURES / "golden_digests.txt"
RAW = str(FIXTURES / "replay_200.jsonl")


def _per_task_config(root: Path, gate: str) -> str:
    """replay_config.yaml with per-task calibration under `gate`."""
    config = yaml.safe_load((FIXTURES / "replay_config.yaml").read_text(encoding="utf-8"))
    config["audit"] = {"gate": gate, "threshold": 0.0, "per_task": True}
    path = root / f"per_task_{gate}.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    return str(path)


def _reversed_fixture(root: Path) -> str:
    lines = Path(RAW).read_text(encoding="utf-8").splitlines(keepends=True)
    path = root / "replay_200_reversed.jsonl"
    path.write_text("".join(reversed(lines)), encoding="utf-8")
    return str(path)


# (output, reference_text) for each of the fixture's first records
UNICODE_TEXTS = (
    ("İstanbul'da ÇAĞRI merkezi açık", "istanbul'da çağrı merkezi açık"),
    ("Die Straße ist groß und weiß", "DIE STRASSE IST GROSS UND WEISS"),
    ("cafe\u0301 au lait, s'il vous plaît", "café au lait s'il vous plait"),
    ("東京都の天気は晴れです。", "東京の天気は曇りです。"),
    ("🙂 ok 🙂 ok 🙂 ok 🙂 ok", "🙂 ok"),
    ("tab\tseparated\nlines  here", "  TAB separated lines\there\n"),
    ("abab", "baba"),
    ("Ωμέγα και άλφα (και βήτα", "ΑΛΦΑ ΚΑΙ ΩΜΈΓΑ ΚΑΙ ΒΉΤΑ"),
    ("ок", "Привет, мир! Привет, мир!"),
    ("\U0010ffff\U0010ffff\U0010ffff x \U0010ffff", "\U0010ffff\U0010ffff x"),
    ("नमस्ते दुनिया नमस्ते दुनिया नमस्ते दुनिया", "नमस्ते दुनिया"),
    ("👩\u200d💻 writes ```code``` and \"quotes", "👩\u200d💻 writes code"),
)


def _unicode_fixture(root: Path) -> str:
    lines = Path(RAW).read_text(encoding="utf-8").splitlines()
    records = []
    for line, (output, reference) in zip(lines, UNICODE_TEXTS):
        record = json.loads(line)
        record["output"], record["reference_text"] = output, reference
        records.append(json.dumps(record, ensure_ascii=False) + "\n")
    path = root / "unicode.jsonl"
    path.write_text("".join(records), encoding="utf-8")
    return str(path)


def _wide_groups_fixture(root: Path) -> str:
    """The fixture with each run of five records on the first one's query."""
    records = [json.loads(line) for line in Path(RAW).read_text(encoding="utf-8").splitlines()]
    for i, record in enumerate(records):
        record["query"] = records[i - i % 5]["query"]
    path = root / "wide_groups.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


def _strategy_grid_variant(root: Path, variant: str) -> str:
    """strategy_grid.yaml with its evaluator list reversed ("reversed"), or
    its rounds raised past the fixture's query groups ("cycling") or past
    one block of rounds ("wide")."""
    config = yaml.safe_load((FIXTURES / "strategy_grid.yaml").read_text(encoding="utf-8"))
    if variant == "reversed":
        config["sim"]["evaluators"].reverse()
    else:
        config["sim"]["rounds"] = 1030 if variant == "wide" else 230
    path = root / f"strategy_grid_{variant}.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    return str(path)


def _commands(case: str, root: Path) -> list[list[str]]:
    out = root / case
    scored = str(out / "scored.jsonl")
    common = ["--out", str(out)]
    command, _, variant = case.partition("-")
    if command in ("report", "calibrate"):
        gate, _, order = variant.partition("-")
        config = ["--config", _per_task_config(root, gate)]
        if command == "report":
            raw = _reversed_fixture(root) if order else RAW
            return [["report", *config, "--input", raw, *common]]
        report_scored = str(root / f"report-{variant}" / "scored.jsonl")
        return [["calibrate", *config, "--input", report_scored, *common]]
    if case == "replay":
        config = ["--config", str(FIXTURES / "replay_config.yaml")]
        return [
            ["score", *config, "--input", RAW, *common],
            ["audit", *config, "--input", scored, *common],
            ["calibrate", *config, "--input", scored, *common],
            ["simulate", *config, "--input", scored, *common],
        ]
    if command == "strategy_grid" and variant:
        config = ["--config", _strategy_grid_variant(root, variant)]
        grid_scored = str(root / "strategy_grid" / "scored.jsonl")
        return [["simulate", *config, "--input", grid_scored, *common]]
    if case == "strategy_grid":
        config = ["--config", str(FIXTURES / "strategy_grid.yaml")]
        return [
            ["score", *config, "--input", RAW, *common],
            ["simulate", *config, "--input", scored, *common],
        ]
    if case == "wide_groups":
        config = ["--config", _strategy_grid_variant(root, "wide")]
        return [["simulate", *config, "--input", _wide_groups_fixture(root), *common]]
    if case == "unicode":
        config = ["--config", str(FIXTURES / "replay_config.yaml")]
        return [["score", *config, "--input", _unicode_fixture(root), *common]]
    if case == "validate":
        config = ["--config", str(FIXTURES / "replay_config.yaml")]
        return [["validate", *config, "--input", RAW, *common]]
    return [["simulate", "--config", str(FIXTURES / "synthetic_grid.yaml"), *common]]


GATES = ("pearson", "spearman", "taskwise_min")
PER_TASK = tuple(f"{gate}{order}" for gate in GATES for order in ("", "-reversed"))
# each calibrate case reads the scored.jsonl of the report case before it, and
# the strategy_grid variants read strategy_grid's
CASES = (
    "replay",
    "strategy_grid",
    "strategy_grid-reversed",
    "strategy_grid-cycling",
    "wide_groups",
    "synthetic_grid",
    *(f"report-{variant}" for variant in PER_TASK),
    *(f"calibrate-{variant}" for variant in PER_TASK),
    "unicode",
    "validate",
)


def run_cases(root: Path) -> dict[str, str]:
    """Run every case under `root`; map "case/file" to its sha256."""
    from mdqs.cli import main

    digests = {}
    for case in CASES:
        out = root / case
        for argv in _commands(case, root):
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
