"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Makes a real ``results.csv`` from a small grid with ``mirroragg run`` and a
real library-session report, checks that both pass, then corrupts one row
or one call at a time and checks that exactly the corrupted operation is
counted as failed.  It also launches children whose ``mirroragg run``
exits with code 2 (``--jobs 0``) next to a good ``results.csv`` left from
before, and checks that the runner fails every cell.  Exits 1 if any case
is not detected.
"""

from __future__ import annotations

import copy
import math
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
from checks import check_library, check_run, differing_cells  # noqa: E402
from workloads import DEFAULT_SEED, GRID, THREAD_VARS, cells, run_config_text  # noqa: E402

# set before main() imports numpy
for var in THREAD_VARS:
    os.environ[var] = "1"

SMALL = dict(GRID, n_grid=(32, 128), m_grid=(2, 8), replications=20)
TARGET = (32, 2)


def edit_row(text: str, algorithm: str, column: int, value: str) -> str:
    lines = text.splitlines()
    for index, line in enumerate(lines):
        fields = line.split(",")
        if fields[:3] == [str(TARGET[0]), str(TARGET[1]), algorithm]:
            fields[column] = value
            lines[index] = ",".join(fields)
            return "\n".join(lines) + "\n"
    raise KeyError(algorithm)


def drop_rows(text: str, algorithm: str | None) -> str:
    prefix = f"{TARGET[0]},{TARGET[1]},"
    kept = [
        line for line in text.splitlines()
        if not (line.startswith(prefix) and (algorithm is None or line.split(",")[2] == algorithm))
    ]
    return "\n".join(kept) + "\n"


def run_cases(text: str) -> list:
    prefix = f"{TARGET[0]},{TARGET[1]},"
    rows = {line.split(",")[2]: line.split(",") for line in text.splitlines() if line.startswith(prefix)}
    ms = rows["LMA"][7]
    return [
        ("LMA bound_pass=false", edit_row(text, "LMA", 9, "false")),
        ("MA mean_excess not finite", edit_row(text, "MA", 5, "nan")),
        ("ERM mean_excess below 0", edit_row(text, "ERM", 5, "-0.5")),
        ("MA mean_excess below -1e-8", edit_row(text, "MA", 5, "-1e-6")),
        ("C oracle above MS oracle", edit_row(text, "MA", 7, repr(float(ms) + 1e-3))),
        ("ERM row missing", drop_rows(text, "ERM")),
        ("cell missing", drop_rows(text, None)),
    ]


def library_cases(report: dict) -> list:
    def corrupt(predicate, change):
        bad = copy.deepcopy(report)
        call = next(c for c in bad["calls"] if predicate(c))
        call["result"] = change(call["result"])
        return bad

    def first(name, **match):
        return lambda c: c["name"] == name and all(c.get(k) == v for k, v in match.items())

    c, ms = report["c_oracle"], report["ms_oracle"]
    return [
        ("ma_run weights off the simplex", corrupt(first("ma_run", dict="callable"), lambda w: [2 * w[0]] + w[1:])),
        ("negative weight summing to one", corrupt(first("lma_run", dict="callable"), lambda w: [-w[0], w[1] + 2 * w[0]] + w[2:])),
        ("callable weights differ from tabular", corrupt(first("lma_run", dict="callable"), lambda w: w[::-1])),
        ("erm index out of range", corrupt(first("erm_select"), lambda j: 10**6)),
        ("mixture risk below C oracle", corrupt(first("exact_risk", of="lma_run"), lambda r: c - 1e-3)),
        ("vertex risk below MS oracle", corrupt(first("exact_risk", of="erm_select"), lambda r: ms - 1e-12)),
        ("concavity violated at beta=e", corrupt(first("check_exp_map_concavity", beta=math.e), lambda v: "violated")),
        ("moment check violated at beta=4", corrupt(first("check_nice_loss", beta=4.0), lambda v: "violated")),
        ("nice_beta_report disagrees", corrupt(first("nice_beta_report"), lambda v: False)),
    ]


def failing_child_cases(text: str, out: Path) -> list:
    """A child reports exit code 2 while a good ``results.csv`` of an earlier run lies in its directory."""
    workload = {"kind": "run", "grid": SMALL, "jobs": 1}
    stale = out / "stale"
    argv = [sys.executable, str(HERE / "child.py"), "--workload", "grid_serial", "--seed", str(DEFAULT_SEED)]
    outcomes = []

    shutil.rmtree(stale, ignore_errors=True)
    stale.mkdir(parents=True)
    (stale / "results.csv").write_text(text)
    outcome = run.launch(argv + ["--out", str(stale), "--jobs", "0"], time.monotonic() + 120)
    failed = run.outputs_of(workload, DEFAULT_SEED, outcome).failed
    outcomes.append(("reported exit code 2 fails every cell", outcome.exit == 0 and failed == set(cells(SMALL))))

    (stale / "results.csv").write_text(text)
    outcome = run.run_child("grid_serial", DEFAULT_SEED, stale, time.monotonic() + 120, "--jobs", "0")
    failed = run.outputs_of(workload, DEFAULT_SEED, outcome).failed
    gone = not (stale / "results.csv").exists()
    outcomes.append(("runner clears an earlier results.csv", gone and failed == set(cells(SMALL))))
    return outcomes


def main() -> int:
    out = HERE / "out" / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    config = out / "config.ini"
    config.write_text(run_config_text(SMALL, DEFAULT_SEED))
    code, _ = child.run_once(config, out, 1)
    text = (out / "results.csv").read_text()
    report = child.library_session(child.import_mirroragg(), DEFAULT_SEED)

    outcomes = []
    failed, problems = check_run(text, code, SMALL, DEFAULT_SEED)
    outcomes.append(("clean results.csv passes", not failed and not problems))
    failed, _ = check_run(text, 1, SMALL, DEFAULT_SEED)
    outcomes.append(("nonzero exit fails every cell", failed == set(cells(SMALL))))
    print("two children below are expected to report a config error for --jobs 0", flush=True)
    outcomes += failing_child_cases(text, out)
    for label, bad in run_cases(text):
        failed, _ = check_run(bad, 0, SMALL, DEFAULT_SEED)
        outcomes.append((f"results.csv: {label}", failed == {TARGET}))
    changed = edit_row(text, "MA", 6, "0.5")
    outcomes.append(("parallel output differs from serial", differing_cells(changed, text, SMALL) == [TARGET]))

    _, failed, problems = check_library(report, 0)
    outcomes.append(("clean library report passes", not failed and not problems))
    for label, bad in library_cases(report):
        _, failed, _ = check_library(bad, 0)
        outcomes.append((f"library: {label}", len(failed) == 1))

    for label, ok in outcomes:
        print(f"{'PASS' if ok else 'FAIL'}: {label}")
    return 0 if all(ok for _, ok in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
