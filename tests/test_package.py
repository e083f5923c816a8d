"""Package-wide rules: exports, module boundaries, runtime dependencies, kernel signatures and the benchmark tracer's names."""

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
MODULES = [
    importlib.import_module(f"mirroragg.{name}")
    for name in ("aggregation", "conditions", "experiments", "losses", "oracles", "simplex")
]


def test_no_two_modules_export_one_name():
    """The package star-imports every module, so a shared name would shadow another."""
    owners: dict = {}
    for module in MODULES:
        for name in module.__all__:
            owners.setdefault(name, []).append(module.__name__)
    assert {name: where for name, where in owners.items() if len(where) > 1} == {}


def test_the_package_exports_exactly_its_modules_exports():
    union = {name for module in MODULES for name in module.__all__}
    assert len(mirroragg.__all__) == len(set(mirroragg.__all__))
    assert set(mirroragg.__all__) == union | {"__version__"}
    public = {
        name
        for name in dir(mirroragg)
        if not name.startswith("_") and not inspect.ismodule(getattr(mirroragg, name))
    }
    assert public == union


def test_each_exported_function_or_class_is_defined_where_it_is_listed():
    misplaced = [
        f"{module.__name__}.{name} from {getattr(module, name).__module__}"
        for module in MODULES
        for name in module.__all__
        if (inspect.isfunction(getattr(module, name)) or inspect.isclass(getattr(module, name)))
        and getattr(module, name).__module__ != module.__name__
    ]
    assert misplaced == []


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
