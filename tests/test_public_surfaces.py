"""The package's two outside readers: the README's examples and the benchmark.

Each runs in its own job, so a name either of them needs could be deleted
with every library test still passing.  These tests read them here: every
fenced ``python`` block of the README runs, its ``verify --format text``
transcript shows lines of the real run, and every ``morsepoly`` name
that a file under ``bench/`` imports resolves, to the object the package
gives for a public name, so the benchmark keeps running after a name
changes modules (the files are only parsed, never run).
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

import morsepoly
from morsepoly.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def test_readme_has_python_examples():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS, ids=lambda b: b.splitlines()[0][:40])
def test_readme_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})


def test_readme_verify_transcript_is_the_run(tmp_path, monkeypatch, capsys):
    """The README writes triangle.json and shows `verify --format text` on
    it: each line it shows is a line of the run, in order, and each `...`
    stands for the lines it leaves out."""
    document, argv, shown = re.search(
        r"^\$ echo '(.*)' > triangle\.json\n\$ morsepoly (.*)\n((?:.*\n)*?)```", README, re.M
    ).groups()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "triangle.json").write_text(document + "\n", encoding="utf-8")
    assert main(argv.split()) == 0
    pattern = "".join(r"(?:.*\n)*" if line.strip() == "..." else re.escape(line) + "\n"
                      for line in shown.splitlines())
    assert re.fullmatch(pattern, capsys.readouterr().out)


def bench_imports():
    """(file, module, name) for each morsepoly import in bench/*.py; name is
    None for a plain ``import morsepoly...``."""
    found = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            module = getattr(node, "module", None) or ""
            if isinstance(node, ast.ImportFrom) and module.split(".")[0] == "morsepoly":
                found += [(path.name, module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "morsepoly"]
    return found


def test_bench_imports_found():
    assert {file for file, _, _ in bench_imports()} >= {"layers.py", "workloads.py"}


@pytest.mark.parametrize(
    "file, module, name", bench_imports(), ids=lambda v: v if isinstance(v, str) else None
)
def test_bench_import_resolves(file, module, name):
    # As ``from module import name`` does: an attribute, else a submodule.
    home = importlib.import_module(module)
    if name is not None and not hasattr(home, name):
        importlib.import_module(f"{module}.{name}")
    if name in morsepoly.__all__:
        assert getattr(home, name) is getattr(morsepoly, name)
