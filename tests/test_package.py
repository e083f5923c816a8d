"""Package-wide rules: module boundaries, runtime dependencies, kernel signatures and the benchmark tracer's names."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import mirroragg
from mirroragg.aggregation import Schedule, erm_totals, lma_weights, ma_weights

SOURCE = Path(mirroragg.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_no_private_name_is_imported_across_modules():
    offenders = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                ]
    assert offenders == []


def test_only_oracles_validates_a_distribution_for_a_loss():
    """Every other module takes its labelled table from ``oracles.atom_design``."""
    offenders = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "oracles.py":
            continue
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "validate_for"
        ]
    assert offenders == []


@pytest.mark.parametrize(
    "kernel, parameters",
    [
        (lma_weights, ["idx", "losses", "beta", "checkpoints"]),
        (ma_weights, ["idx", "design", "ys", "kind", "betas", "checkpoints"]),
        (erm_totals, ["idx", "losses", "checkpoints"]),
        (Schedule, ["beta_at"]),
    ],
    ids=["lma_weights", "ma_weights", "erm_totals", "Schedule"],
)
def test_the_batch_kernels_take_no_tuning_parameter(kernel, parameters):
    """Block sizes, re-anchor periods and layouts come from the inputs, never from a knob.

    MA takes unit steps, so its schedule holds temperatures only.  The
    checkpoints change what a kernel returns, not how it folds.
    """
    assert list(inspect.signature(kernel).parameters) == parameters


def test_importing_the_cli_loads_no_scipy():
    code = "import mirroragg.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_name_the_benchmark_tracer_wraps_exists(monkeypatch):
    """``perfbench/run.py --trace 1`` fails on any wrapped name that is renamed away."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    child = importlib.import_module("child")

    class Lookup:
        def __init__(self):
            self.found, self.missing = [], []

        def wrap(self, owner, attr, name, **options):
            (self.found if hasattr(owner, attr) else self.missing).append(f"{owner.__name__}.{attr}")

    lookup = Lookup()
    child.install(mirroragg, lookup)
    assert lookup.missing == []
    assert len(lookup.found) == 22
