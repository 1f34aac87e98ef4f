"""The runtime needs numpy and PyYAML and nothing else: every import in
src/mdqs names the standard library, numpy, yaml or mdqs itself, and
pyproject.toml declares exactly numpy and PyYAML."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNTIME_MODULES = {"numpy", "yaml", "mdqs"}


def _top_level_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_src_imports_only_the_standard_library_numpy_and_yaml():
    modules = sorted((ROOT / "src" / "mdqs").rglob("*.py"))
    assert modules
    foreign = [
        (path.name, name)
        for path in modules
        for name in _top_level_imports(path)
        if name not in sys.stdlib_module_names and name not in RUNTIME_MODULES
    ]
    assert foreign == []


def test_pyproject_declares_exactly_numpy_and_pyyaml():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    # a regex, not tomllib, because tomllib is missing on Python 3.10
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.MULTILINE | re.DOTALL).group(1)
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in re.findall(r'"([^"]+)"', block)}
    assert names == {"numpy", "PyYAML"}
