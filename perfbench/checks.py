"""Correctness checks on what the benchmarked program produced.

Every check holds for any workload seed: none compares against a stored
number.  An operation is a grid cell for the ``run`` workloads and a
public call for ``library_calls``; an operation fails when any check on
its output fails.  Pure standard library, so the runner and the
self-test use it without importing numpy.
"""

from __future__ import annotations

import math

from workloads import LIBRARY, cells, library_calls_per_session

# c_oracle certifies its value to within tol = 1e-8 of the infimum over
# the simplex, so it may sit that far above the selection oracle when the
# best mixture is a vertex.
C_ORACLE_TOL = 1e-8
MA_EXCESS_FLOOR = -1e-8
SIMPLEX_TOL = 1e-9
# The tabular and callable dictionaries hold the same numbers.
SAME_TABLE_TOL = 1e-12

HEADER = "n,M,algorithm,loss,oracle_kind,mean_excess,stderr,oracle_value,bound_value,bound_pass,seed"


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def cell_rows(text: str) -> dict:
    """Row lines of a ``results.csv`` grouped by ``(n, M)``; malformed lines under ``None``."""
    grouped: dict = {}
    for line in text.splitlines()[2:]:
        fields = line.split(",")
        try:
            key = (int(fields[0]), int(fields[1]))
        except (ValueError, IndexError):
            key = None
        grouped.setdefault(key, []).append(line)
    return grouped


def _row_problems(fields: list, grid: dict, seed: int) -> list:
    if len(fields) != 11:
        return [f"{len(fields)} fields instead of 11"]
    _, _, algorithm, loss, okind, excess, stderr, oracle, bound, bound_pass, row_seed = fields
    problems = []
    numbers = [excess, stderr, oracle] + ([bound] if algorithm != "ERM" else [])
    if not all(_finite(x) for x in numbers):
        problems.append(f"{algorithm}: non-finite field")
        return problems
    if loss != grid["loss"] or row_seed != str(seed):
        problems.append(f"{algorithm}: loss {loss!r} or seed {row_seed!r} differs from the config")
    if float(stderr) < 0.0:
        problems.append(f"{algorithm}: negative stderr")
    expected_kind = "C" if algorithm == "MA" else "MS"
    if okind != expected_kind:
        problems.append(f"{algorithm}: oracle kind {okind!r}, expected {expected_kind!r}")
    if algorithm != "ERM" and bound_pass != "true":
        problems.append(f"{algorithm}: bound_pass={bound_pass!r}")
    if algorithm == "ERM" and float(excess) < 0.0:
        problems.append(f"ERM: mean_excess {excess} < 0")
    if algorithm == "MA" and float(excess) < MA_EXCESS_FLOOR:
        problems.append(f"MA: mean_excess {excess} < {MA_EXCESS_FLOOR}")
    return problems


def check_cell(lines: list, grid: dict, seed: int) -> list:
    """Problems found in the rows of one cell; empty when the cell passes."""
    if not lines:
        return ["cell missing"]
    rows = [line.split(",") for line in lines]
    problems = []
    for fields in rows:
        problems += _row_problems(fields, grid, seed)
    labels = [fields[2] for fields in rows if len(fields) == 11]
    lma = [label for label in labels if label.split("@")[0] == "LMA"]
    if labels.count("MA") != 1 or labels.count("ERM") != 1 or len(lma) != grid["lma_rows"]:
        problems.append(f"rows {labels}, expected MA, {grid['lma_rows']} LMA and ERM")
    if problems:
        return problems
    c_values = [float(f[7]) for f in rows if f[4] == "C"]
    ms_values = [float(f[7]) for f in rows if f[4] == "MS"]
    if max(c_values) > min(ms_values) + C_ORACLE_TOL:
        problems.append(f"C oracle {max(c_values)!r} above MS oracle {min(ms_values)!r}")
    return problems


def check_run(text: str | None, exit_code: int, grid: dict, seed: int) -> tuple:
    """``(failed cells, problems)`` for one ``mirroragg run`` output."""
    expected = cells(grid)
    if exit_code != 0 or text is None:
        return set(expected), [f"exit code {exit_code}"]
    problems = []
    failed = set()
    if text.splitlines()[1:2] != [HEADER]:
        problems.append("results.csv header differs from the pinned one")
        failed = set(expected)
    grouped = cell_rows(text)
    for key in expected:
        found = check_cell(grouped.get(key, []), grid, seed)
        if found:
            failed.add(key)
            problems += [f"cell n={key[0]} M={key[1]}: {p}" for p in found]
    extra = sorted(k for k in grouped if k not in expected and k is not None)
    if None in grouped or extra:
        problems.append(f"rows outside the grid: {extra or grouped[None][:1]}")
        failed = set(expected)
    return failed, problems


def differing_cells(text: str, reference: str, grid: dict) -> list:
    """Cells whose rows differ from the reference output; every cell if only the rest differs."""
    if text == reference:
        return []
    ours, theirs = cell_rows(text), cell_rows(reference)
    found = [key for key in cells(grid) if ours.get(key) != theirs.get(key)]
    return found or cells(grid)


def _on_simplex(weights) -> bool:
    return (
        isinstance(weights, list)
        and len(weights) == LIBRARY["m"]
        and all(_finite(str(w)) and w >= 0.0 for w in weights)
        and abs(math.fsum(weights) - 1.0) <= SIMPLEX_TOL
    )


def check_library(report: dict | None, exit_code: int) -> tuple:
    """``(attempted, indices of failed calls, problems)`` for one library session report."""
    expected = library_calls_per_session()
    if exit_code != 0 or report is None:
        return expected, set(range(expected)), [f"exit code {exit_code}"]
    calls = report.get("calls", [])
    attempted = max(expected, len(calls))
    ms, c = report.get("ms_oracle"), report.get("c_oracle")
    if not (_finite(str(ms)) and _finite(str(c)) and c <= ms + C_ORACLE_TOL):
        return attempted, set(range(attempted)), [f"oracles MS={ms!r} C={c!r}"]
    if len(calls) != expected:
        return attempted, set(range(attempted)), [f"{len(calls)} public calls reported, expected {expected}"]
    weights = {}
    for call in calls:
        if call["name"] in ("ma_run", "lma_run"):
            weights[(call["name"], call["dict"], call["sample"])] = call["result"]
    failed, problems = set(), []
    for index, call in enumerate(calls):
        found = _call_problems(call, ms, c, weights)
        if found:
            failed.add(index)
            problems.append(f"{call['name']} {call.get('dict', '')} {found}")
    return attempted, failed, problems


def _call_problems(call: dict, ms: float, c: float, weights: dict) -> str:
    name, result = call["name"], call["result"]
    if name in ("ma_run", "lma_run"):
        if not _on_simplex(result):
            return "weights off the simplex"
        twin = weights.get((name, "tabular", call["sample"]))
        if twin is None or max(abs(a - b) for a, b in zip(result, twin)) > SAME_TABLE_TOL:
            return "tabular and callable dictionaries disagree"
        return ""
    if name == "erm_select":
        ok = isinstance(result, int) and 0 <= result < LIBRARY["m"]
        return "" if ok else f"index {result!r}"
    if name == "exact_risk":
        floor = ms if call["of"] == "erm_select" else c
        tol = 0.0 if call["of"] == "erm_select" else C_ORACLE_TOL
        ok = _finite(str(result)) and result >= floor - tol
        return "" if ok else f"risk {result!r} below oracle {floor!r}"
    if name == "check_exp_map_concavity":
        judged = call["beta"] in LIBRARY["checked_betas"]
        ok = result in ("satisfied", "violated", "inconclusive") and (result == "satisfied" or not judged)
        return "" if ok else f"beta={call['beta']:.6g}: {result!r}"
    if name == "check_nice_loss":
        judged = call["beta"] in LIBRARY["checked_betas"]
        ok = result in ("satisfied", "violated", "inconclusive") and (result != "violated" or not judged)
        return "" if ok else f"beta={call['beta']:.6g}: {result!r}"
    if name == "nice_beta_report":
        return "" if result is True else f"agrees={result!r}"
    return "unknown call"

