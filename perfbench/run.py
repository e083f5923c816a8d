"""Benchmark runner for mirroragg, measured from outside the program.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from anywhere inside a source checkout; the program is imported from
``src/`` of the checkout this file sits in.  Each workload is a closed
loop with one client: the next iteration starts only after the previous
child process has exited.  ``--trace 0`` reports the end-to-end metrics
(medians over the iterations); ``--trace 1`` makes one traced run and
reports the per-layer metrics.  Every output is checked; the last stdout
line is one JSON object and the exit code is 1 when a check failed.
``--workload all`` prints one table over every workload.  Records, the
results of the last iteration and trace files go to ``perfbench/out/``.
See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

from checks import check_library, check_run, differing_cells
from workloads import DEFAULT_SEED, THREAD_VARS, WORKLOADS, cells

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Every run ends within 180 s; iterations stop starting well before that.
HARD_LIMIT_S = 150.0
MIN_ITERATIONS = 3
IMPORT_SAMPLES = 5


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def launch(argv: list, deadline: float) -> SimpleNamespace:
    """Run one child to completion; its rusage covers the workers it reaped."""
    log = OUT / "child.stdout"
    with open(log, "w") as sink:
        launched = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=sink, start_new_session=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = log.read_text().splitlines()
    data = None
    if proc.returncode == 0 and lines:
        try:
            data = json.loads(lines[-1])
        except json.JSONDecodeError:
            data = None
    return SimpleNamespace(
        exit=proc.returncode if data is not None else (proc.returncode or 1),
        data=data,
        elapsed=time.monotonic() - launched,
        setup_s=None if data is None or "ready" not in data else data["ready"] - launched,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def run_child(name: str, seed: int, out_dir: Path, deadline: float, *extra) -> SimpleNamespace:
    """One child writing into an emptied ``out_dir``, so no earlier output can stand in for its own."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", str(seed), "--out", str(out_dir)]
    return launch(argv + list(extra), deadline)


def outputs_of(workload: dict, seed: int, outcome) -> SimpleNamespace:
    """Checks one iteration's outputs: failed operations, attempted ones, problems.

    The child exits 0 whenever it could report; the exit code of the
    program it ran is the ``exit`` field of that report.
    """
    exit_code = outcome.exit if outcome.data is None else outcome.data.get("exit", 1)
    if workload["kind"] == "library":
        report = None if outcome.data is None else outcome.data.get("report")
        attempted, failed, problems = check_library(report, exit_code)
        return SimpleNamespace(attempted=attempted, failed=failed, problems=problems, text=None)
    path = None if outcome.data is None else Path(outcome.data["results"])
    text = path.read_text() if path is not None and path.is_file() else None
    failed, problems = check_run(text, exit_code, workload["grid"], seed)
    return SimpleNamespace(attempted=len(cells(workload["grid"])), failed=failed, problems=problems, text=text)


def compare_to_serial(checked_runs: list, reference: str | None, grid: dict) -> None:
    """The parallel output must be byte-identical to a ``--jobs 1`` run of the same config."""
    for checked in checked_runs:
        if reference is None or checked.text is None:
            checked.failed |= set(cells(grid))
            checked.problems.append("no serial reference output" if checked.text else "no output")
            continue
        for key in differing_cells(checked.text, reference, grid):
            checked.failed.add(key)
            checked.problems.append(f"cell n={key[0]} M={key[1]}: differs from the --jobs 1 output")


def import_times(deadline: float) -> dict:
    """Medians of ``import mirroragg.cli`` and of scipy's share, from ``python -X importtime``.

    The child imports ``mirroragg.cli`` during set-up too: the package
    itself does not import it.
    """
    samples = {"setup.import_mirroragg_s": [], "setup.import_scipy_s": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mirroragg.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import mirroragg.cli failed: {proc.stderr.strip()[-400:]}")
        parsed = parse_importtime(proc.stderr)
        for key in samples:
            samples[key].append(parsed[key])
    return {key: statistics.median(values) for key, values in samples.items()}


def parse_importtime(text: str) -> dict:
    """Cumulative seconds of the top-level ``mirroragg`` imports and of every outermost scipy import."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name_field = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        name = name_field.strip()
        depth = len(name_field) - len(name_field.lstrip())
        entries.append((depth, name, int(cumulative) / 1e6))
    # lines come in post-order; reversed, every parent precedes its children
    mirroragg_s, scipy_s, ancestors = 0.0, 0.0, []
    for depth, name, seconds in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a[2] for a in ancestors):
            scipy_s += seconds
        if (name == "mirroragg" or name.startswith("mirroragg.")) and not ancestors:
            mirroragg_s += seconds
        ancestors.append((depth, name, is_scipy))
    return {"setup.import_mirroragg_s": mirroragg_s, "setup.import_scipy_s": scipy_s}


def git_commit() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py"))


def spread(values: list) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values), "n": len(values)}


def measure(name: str, seed: int, seconds: int, start: float) -> SimpleNamespace:
    """Closed loop of fresh children until the run length is used; medians per metric."""
    workload = WORKLOADS[name]
    deadline = start + HARD_LIMIT_S
    out_dir = OUT / name
    samples = {"wall_s": [], "setup_s": [], "cpu_s": [], "peak_rss_mb": []}
    attempted, failed, problems, checked_runs, durations = 0, 0, [], [], []
    loop_start = time.monotonic()
    while True:
        outcome = run_child(name, seed, out_dir / "iteration", deadline)
        checked = outputs_of(workload, seed, outcome)
        durations.append(outcome.elapsed)
        if outcome.data is not None and outcome.setup_s is not None:
            samples["wall_s"].append(outcome.data["body_s"])
            samples["setup_s"].append(outcome.setup_s)
            samples["cpu_s"].append(outcome.cpu_s)
            samples["peak_rss_mb"].append(outcome.peak_rss_mb)
        checked_runs.append(checked)
        elapsed = time.monotonic() - loop_start
        typical = statistics.median(durations)
        if len(durations) >= MIN_ITERATIONS and elapsed + typical > seconds:
            break
        if time.monotonic() + 2 * typical > deadline:
            break
    if workload["kind"] == "run" and workload["jobs"] > 1:
        reference = run_child(name, seed, out_dir / "serial", deadline, "--jobs", "1")
        compare_to_serial(checked_runs, outputs_of(workload, seed, reference).text, workload["grid"])
    hashes = []
    for checked in checked_runs:
        attempted += checked.attempted
        failed += len(checked.failed)
        problems += checked.problems
        if checked.text is not None:
            hashes.append(hashlib.sha256(checked.text.encode()).hexdigest())
    return SimpleNamespace(
        samples={key: values for key, values in samples.items() if values},
        attempted=attempted,
        failed=failed,
        problems=problems,
        iterations=len(durations),
        results_sha256=sorted(set(hashes)),
        jobs=workload.get("jobs"),
        base="grid cells" if workload["kind"] == "run" else "public calls",
    )


def traced(name: str, seed: int, start: float) -> SimpleNamespace:
    """One traced child plus the import breakdown; per-layer metrics."""
    workload = WORKLOADS[name]
    deadline = start + HARD_LIMIT_S
    trace_file = OUT / f"trace-{name}.json"
    metrics = {
        key: {"value": value, "unit": "s"} for key, value in import_times(deadline).items()
    }
    trace_file.unlink(missing_ok=True)
    outcome = run_child(name, seed, OUT / name / "traced", deadline, "--trace", str(trace_file))
    checked = outputs_of(workload, seed, outcome)
    if outcome.data is not None:
        metrics.update(outcome.data["metrics"])
        if "serial_results" in outcome.data:
            serial = Path(outcome.data["serial_results"])
            reference = serial.read_text() if serial.is_file() else None
            compare_to_serial([checked], reference, workload["grid"])
    hashes = [hashlib.sha256(checked.text.encode()).hexdigest()] if checked.text else []
    return SimpleNamespace(
        metrics=metrics,
        attempted=checked.attempted,
        failed=len(checked.failed),
        problems=checked.problems,
        results_sha256=hashes,
        jobs=workload.get("jobs"),
        trace_file=str(trace_file.relative_to(ROOT)),
    )


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def record(name: str, seed: int, seconds: int, trace: int, result, environment: dict) -> dict:
    entry = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "jobs": result.jobs,
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "environment": environment,
        "results_sha256": result.results_sha256,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": result.problems,
    }
    if trace:
        entry["metrics"] = result.metrics
        entry["trace_file"] = result.trace_file
    else:
        entry["iterations"] = result.iterations
        entry["samples"] = result.samples
    (OUT / f"record-{name}-{seed}-trace{trace}.json").write_text(json.dumps(entry, indent=2) + "\n")
    return entry


def probe(name: str, seed: int, start: float) -> dict:
    """Environment of a child; also warms the file cache before anything is timed."""
    outcome = run_child(name, seed, OUT / name / "probe", start + HARD_LIMIT_S, "--probe")
    if outcome.data is None:
        raise RuntimeError(f"environment probe failed with exit code {outcome.exit}")
    return outcome.data


def run_workload(name: str, seed: int, seconds: int, trace: int) -> SimpleNamespace:
    start = time.monotonic()
    environment = probe(name, seed, start)
    result = traced(name, seed, start) if trace else measure(name, seed, seconds, start)
    entry = record(name, seed, seconds, trace, result, environment)
    env = entry["environment"]
    print(
        f"[{name}] seed {seed}, jobs {entry['jobs']}, python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, {env['blas']} with {env['blas_threads']} thread(s), "
        f"cpu_count {env['cpu_count']}, start method {env['start_method']}, "
        f"commit {entry['git_commit'] or 'unknown (not a git checkout)'}, src/ {entry['src_lines']} lines"
    )
    for sha in result.results_sha256:
        print(f"[{name}] results.csv sha256 {sha}")
    for problem in result.problems[:20]:
        print(f"[{name}] CHECK FAILED: {problem}")
    return result


def print_end_to_end(name: str, result, spec: dict) -> dict:
    metrics = {}
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    for key, unit in units.items():
        if key not in result.samples:
            continue
        stats = spread(result.samples[key])
        metrics[key] = {"value": stats["median"], "unit": unit}
        print(
            f"[{name}] {key:<12} median {stats['median']:.6g} {unit}  "
            f"(min {stats['min']:.6g}, max {stats['max']:.6g}, n={stats['n']})"
        )
    print(
        f"[{name}] failed_frac  {result.failed}/{result.attempted} {result.base} = "
        f"{result.failed / max(result.attempted, 1):.6g}  ({result.iterations} iterations)"
    )
    return metrics


def print_per_layer(name: str, result, spec: dict) -> dict:
    for key in sorted(result.metrics):
        entry = result.metrics[key]
        value = "absent" if entry.get("absent") else f"{entry['value']:.6g}"
        print(f"[{name}] {key:<46} {value} {entry['unit']}")
    print(f"[{name}] spans and per-name totals in {result.trace_file}")
    # The result line carries every per-layer metric of BENCHMARK.json on
    # every workload.  Each is reached by all four workloads today; should a
    # later change stop calling a wrapped name, its metric reads 0 there.
    kept = {}
    for metric in spec["per_layer"]:
        entry = result.metrics.get(metric["name"])
        if entry is None or entry.get("absent"):
            print(f"[{name}] per-layer metric {metric['name']} is absent: no wrapper saw a call", file=sys.stderr)
            entry = {"value": 0}
        kept[metric["name"]] = {"value": entry["value"], "unit": metric["unit"]}
    return kept


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None, help="run length; default from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "mirroragg" / "__init__.py").is_file():
        print(f"no mirroragg sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    OUT.mkdir(exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            result = run_workload(name, args.seed, seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"[{name}] {exc}", file=sys.stderr)
            return 2
        shown = print_per_layer(name, result, spec) if args.trace else print_end_to_end(name, result, spec)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + key: value for key, value in shown.items()})
        correct = correct and result.failed == 0 and not result.problems
        attempted += result.attempted
        failed += result.failed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
