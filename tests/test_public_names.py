"""The package names that the benchmark and the demos use must exist, the
package root holds no other names but the README's, the acceptance tests'
and the exceptions those raise, and only ``modes`` names the block kernel
and reads or writes JSON documents.

Tier-1 does not run ``bench/``, so a removed or renamed public name would
break it without failing a test.  These tests read the bench's and the
demos' source and resolve every name they take from ``behaviorcloak``, run
each demo in a fresh process, run the README's library example, and check
the README's table of tolerances against the constants of the package.  The
block kernel and the caches it keeps on a mode belong to ``modes``; the
other modules reach them only through ``LiftedOperators`` and
``simulate_mode``.  The CLI runs the pipeline only through
``distort.design`` and ``distort.cloak``.
"""

import ast
import contextlib
import importlib
import inspect
import io
import re
from pathlib import Path

import numpy as np
import pytest

import behaviorcloak
import support

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted((ROOT / "bench").glob("*.py"))
DEMO_FILES = sorted((ROOT / "demos").glob("0*.py"))
PACKAGE_FILES = sorted(Path(behaviorcloak.__file__).parent.glob("*.py"))

# The names of the block kernel and of its caches on a mode.
KERNEL_NAMES = {
    "_BLOCK", "_GROUP", "_scan", "_power_rows", "_pad_blocks", "_block_response",
    "_block_toeplitz", "_state_blocks", "_block_powers", "_step_powers",
    "_GroupPowers",
}
KERNEL_PREFIXES = ("_output_blocks", "_parity", "_group_")

# Package-root names that no demo, README line, bench call or acceptance test
# takes from the root, kept there because names that are used raise them.
ROOT_EXCEPTIONS = {
    "HorizonExhaustedError",  # DistortionEngine.step
    "InconsistentDataError",  # reconstruct_state, DistortionEngine.step
}


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


def root_imports(path):
    """Names ``path`` takes from the package root."""
    return {name for module, name in imported_names(path) if module == "behaviorcloak"}


def test_sources_are_present():
    assert (ROOT / "bench" / "workloads.py") in BENCH_FILES
    assert len(DEMO_FILES) >= 6


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_package_attributes_resolve(path):
    # The bench passes the imported package around as ``bc``.
    names = set(re.findall(r"\bbc\.(\w+)", path.read_text(encoding="utf-8")))
    missing = sorted(name for name in names if not hasattr(behaviorcloak, name))
    assert not missing, f"{path.name} uses bc.{missing}"


def test_traced_targets_resolve():
    # The tracer skips a target it cannot find, so its per-layer metrics
    # would read zero after a move without failing the benchmark.
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    )
    assert traced
    missing = []
    for module, attr in traced:
        owner = importlib.import_module(f"behaviorcloak.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attr}")
    assert not missing, f"bench/tracer.py traces {missing}"


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE_FILES if p.name != "modes.py"], ids=lambda p: p.name
)
def test_only_modes_names_the_block_kernel(path):
    named = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.asname or node.name)
            named.add(node.name)
    kernel = sorted(
        name for name in named if name in KERNEL_NAMES or name.startswith(KERNEL_PREFIXES)
    )
    assert not kernel, f"{path.name} names {kernel}"


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE_FILES if p.name != "linalg.py"], ids=lambda p: p.name
)
def test_only_linalg_calls_np_dot(path):
    # Every product np.dot would make is linalg.product, which keeps an outer
    # product off BLAS.
    calls = [
        f"line {number}"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "np.dot(" in line
    ]
    assert not calls, f"{path.name} calls np.dot at {calls}"


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_only_modes_reads_and_writes_documents(path):
    # Every JSON document goes through ``modes._read_document`` and
    # ``_write_document``; the CLI imports json only to print its report.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    called = {
        f"{node.func.value.id}.{node.func.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
    }
    if path.name != "modes.py":
        reads_or_writes = called & {"json.load", "json.loads", "json.dump"}
        assert not reads_or_writes, f"{path.name} calls {sorted(reads_or_writes)}"
        if path.name != "cli.py":
            assert "json" not in imported, f"{path.name} imports json"


def test_cli_runs_the_pipeline_only_through_design_and_cloak():
    # The CLI parses arguments, reads and writes files and maps errors; the layers
    # below ``distort.design`` and ``distort.cloak`` are theirs to call.
    cli = Path(behaviorcloak.__file__).parent / "cli.py"
    tree = ast.parse(cli.read_text(encoding="utf-8"))
    called = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    layers = {
        "solve_regulator_equations", "solve_utility_invariance",
        "build_lifted_operators", "run_offline",
    }
    assert not called & layers, f"cli.py calls {sorted(called & layers)}"


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


@pytest.mark.parametrize("path", DEMO_FILES, ids=lambda p: p.name)
def test_demo_exits_zero(path):
    run = support.run_python(path)
    assert run.returncode == 0, run.stderr


def tolerance_rows():
    """``{"module.NAME": value}`` of the README's table of tolerances."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| bound | value | bounds | relative to | when it fails |")
    rows = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        bound, value = [cell.strip() for cell in line.split("|")[1:3]]
        rows[re.match(r"`(\w+\.\w+)`", bound).group(1)] = value.strip("`")
    return rows


def test_readme_tolerance_table_matches_the_package():
    # Every row names a constant of the listed value, and every float constant whose
    # name ends in _TOL, _RTOL, _RATIO or _MARGIN has a row.
    rows = tolerance_rows()
    for row, value in rows.items():
        module, name = row.split(".")
        bound = getattr(importlib.import_module(f"behaviorcloak.{module}"), name, None)
        if value == "max(shape) · eps":  # the one bound that is a function of the matrix
            assert bound(np.zeros((2, 3))) == 3 * np.finfo(float).eps
        else:
            assert bound == float(value), f"README lists {row} = {value}, the package {bound}"
    defined = {
        f"{path.stem}.{target.id}"
        for path in PACKAGE_FILES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, float)
        for target in node.targets
        if isinstance(target, ast.Name) and re.search(r"_(TOL|RTOL|RATIO|MARGIN)$", target.id)
    }
    assert len(defined) >= 7
    assert not defined - set(rows), f"the README has no row for {sorted(defined - set(rows))}"


def test_package_root_holds_only_used_names():
    # The root re-exports what the demos, the README, the bench (as ``bc.<name>``)
    # and the acceptance tests use; every other name imports from its own module.
    root = {
        name
        for name, value in vars(behaviorcloak).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    used = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    used |= root_imports(ROOT / "tests" / "test_acceptance.py")
    for path in DEMO_FILES:
        used |= root_imports(path)
    for path in BENCH_FILES:
        used |= set(re.findall(r"\bbc\.(\w+)", path.read_text(encoding="utf-8")))
    assert ROOT_EXCEPTIONS <= root
    unused = sorted(root - used - ROOT_EXCEPTIONS)
    assert not unused, f"the package root re-exports unused {unused}"


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
