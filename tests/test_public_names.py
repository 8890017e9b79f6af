"""The package names that the benchmark and the demos use must exist.

Tier-1 runs neither ``bench/`` nor ``demos/``, so a removed or renamed
public name would break them without failing a test.  These tests read
their source and resolve every name they take from ``behaviorcloak``,
and run the README's library example.
"""

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import numpy as np
import pytest

import behaviorcloak

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted((ROOT / "bench").glob("*.py"))
DEMO_FILES = sorted((ROOT / "demos").glob("0*.py"))


def imported_names(path):
    """(module, name) pairs of every ``from behaviorcloak... import name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "behaviorcloak"
        for alias in node.names
    ]


def test_sources_are_present():
    assert (ROOT / "bench" / "workloads.py") in BENCH_FILES
    assert len(DEMO_FILES) >= 6


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_package_attributes_resolve(path):
    # The bench passes the imported package around as ``bc``.
    names = set(re.findall(r"\bbc\.(\w+)", path.read_text(encoding="utf-8")))
    missing = sorted(name for name in names if not hasattr(behaviorcloak, name))
    assert not missing, f"{path.name} uses bc.{missing}"


@pytest.mark.parametrize("path", DEMO_FILES, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    pairs = imported_names(path)
    assert pairs, f"{path.name} imports nothing from behaviorcloak"
    missing = [
        f"{module}.{name}"
        for module, name in pairs
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name} imports {missing}"


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, namespace)
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["1", "2"]
    original, cloaked = re.findall(r"\[[^]]*\]", lines[2])
    assert original == cloaked
    spec = namespace["spec"]
    np.testing.assert_allclose(
        spec.utility(namespace["cloaked"].Ybar.reshape(-1)),
        spec.utility(namespace["drive"].stacked_outputs()),
        rtol=1e-12,
    )
