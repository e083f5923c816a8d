"""One benchmark iteration in a fresh interpreter.

``run.py`` launches this script once per iteration.  Set-up (interpreter
start, ``import mirroragg`` and the input build) ends when the child takes
its ``ready`` timestamp on the system-wide monotonic clock; the workload
body is timed on its own after that.  The last stdout line is one JSON
object.  Only public mirroragg names and the ``mirroragg run`` command
line are used.

    python3 perfbench/child.py --workload NAME --seed N --out DIR [--trace FILE | --probe]

``--probe`` prints the environment record.  ``--trace FILE`` runs the
traced passes and writes every span and per-layer metric to FILE.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer
from workloads import ALGORITHMS, LIBRARY, THREAD_VARS, WORKLOADS, cells, run_config_text

ROOT = Path(__file__).resolve().parent.parent


def import_mirroragg():
    """``mirroragg`` and its ``cli`` module, so that set-up covers both imports."""
    import mirroragg
    import mirroragg.cli  # noqa: F401 - not imported by the package itself

    source = (ROOT / "src").resolve()
    if Path(mirroragg.__file__).resolve().parent.parent != source:
        sys.exit(f"mirroragg was imported from {mirroragg.__file__}, not from {source}")
    return mirroragg


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "blas" in line.lower() and line.rstrip().endswith(".so")}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    import multiprocessing
    import platform

    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(),
    }


# ---------------------------------------------------------------- run workloads


def run_once(config_path: Path, out_dir: Path, jobs: int) -> tuple:
    """``mirroragg run`` through its public entry point; exit code and seconds."""
    from mirroragg import cli

    start = time.perf_counter()
    code = cli.main(["run", "--config", str(config_path), "--out", str(out_dir), "--jobs", str(jobs), "--quiet"])
    return code, time.perf_counter() - start


def algorithm_passes(mg, tracer, config_path: Path) -> None:
    """One ``run_cell`` pass per algorithm, through the public ``algorithms`` field."""
    from mirroragg import cli

    config, _ = cli.load_run_config(str(config_path))
    for algorithm in ALGORITHMS:
        single = dataclasses.replace(config, algorithms=(algorithm,))
        with tracer.span(f"pass.{algorithm}"):
            for n, m in cells({"n_grid": config.n_grid, "m_grid": config.m_grid}):
                mg.run_cell(single, n, m)


# ---------------------------------------------------------------- library session


def _lookup(row, x):
    return row[int(x)]


def library_inputs(mg, seed: int) -> SimpleNamespace:
    import numpy as np

    lib = LIBRARY
    loss = mg.LossSpec("squared", y_bound=1.0)
    spec = mg.GeneratorSpec("bounded_regression", grid_size=16, noise_level=0.25)
    dist, table = mg.generate_instance(spec, lib["m"], seed)
    as_callables = mg.CallableDictionary(
        [functools.partial(_lookup, row) for row in table.values], range_bound=table.range_bound
    )
    rng = np.random.default_rng(seed)
    qstar = mg.gradient_second_moment_bound(loss, table.range_bound)
    cond_spec = mg.GeneratorSpec("phi_classification", grid_size=lib["condition_grid"])
    cond_dist, cond_dict = mg.generate_instance(cond_spec, lib["condition_m"], seed)
    return SimpleNamespace(
        loss=loss,
        dist=dist,
        dictionaries=(("tabular", table), ("callable", as_callables)),
        samples=[dist.sample(rng, lib["n"]) for _ in range(lib["samples"])],
        schedule=mg.Schedule.sqrt_growth(math.sqrt(qstar / math.log(lib["m"]))),
        beta=mg.default_lma_betas(loss, table.range_bound)[0],
        cond_loss=mg.LossSpec("phi_exponential"),
        cond_dist=cond_dist,
        cond_dict=cond_dict,
    )


def library_body(mg, inputs: SimpleNamespace, seed: int) -> list:
    """The timed public calls; returns one record per call with its raw result."""
    lib = LIBRARY
    loss, dist = inputs.loss, inputs.dist
    calls = []
    for label, dictionary in inputs.dictionaries:
        for index, data in enumerate(inputs.samples):
            theta_ma, _ = mg.ma_run(data, loss, dictionary, inputs.schedule)
            theta_lma, _ = mg.lma_run(data, loss, dictionary, inputs.beta)
            selected, _ = mg.erm_select(data, loss, dictionary)
            for name, result in (("ma_run", theta_ma), ("lma_run", theta_lma), ("erm_select", selected)):
                risk = mg.exact_risk(result, dictionary, loss, dist)
                calls.append({"name": name, "dict": label, "sample": index, "result": result})
                calls.append({"name": "exact_risk", "of": name, "dict": label, "sample": index, "result": risk})
    for beta in lib["condition_betas"]:
        moment = mg.check_nice_loss(
            inputs.cond_loss, inputs.cond_dict, inputs.cond_dist, beta,
            n=lib["condition_n"], mc_outer=lib["mc_outer"], seed=seed,
        )
        concavity = mg.check_exp_map_concavity(
            inputs.cond_loss, inputs.cond_dict, inputs.cond_dist, beta, trials=lib["trials"], seed=seed
        )
        calls.append({"name": "check_nice_loss", "beta": beta, "result": moment.verdict})
        calls.append({"name": "check_exp_map_concavity", "beta": beta, "result": concavity.verdict})
    calls.append({"name": "nice_beta_report", "result": mg.nice_beta_report("phi_exponential").agrees})
    return calls


def library_report(mg, inputs: SimpleNamespace, calls: list) -> dict:
    """Calls made JSON-ready, plus both oracles of the instance for the checks."""
    table = inputs.dictionaries[0][1]
    for call in calls:
        result = call["result"]
        call["result"] = result.tolist() if hasattr(result, "tolist") else result
    return {
        "calls": calls,
        "ms_oracle": mg.ms_oracle(table, inputs.loss, inputs.dist).risk_value,
        "c_oracle": mg.c_oracle(table, inputs.loss, inputs.dist).risk_value,
    }


def library_session(mg, seed: int) -> dict:
    inputs = library_inputs(mg, seed)
    return library_report(mg, inputs, library_body(mg, inputs, seed))


# ---------------------------------------------------------------- tracing


def _per_dictionary(mg, name: str):
    """Span name of an aggregation call, split by the kind of dictionary it got."""

    def label(data, spec, dictionary, *rest):
        kind = "tabular" if isinstance(dictionary, mg.TabularDictionary) else "callable"
        return f"aggregation.{name}.{kind}"

    return label


def install(mg, tracer: Tracer) -> None:
    """Timing wrappers on the public names each caller looks up."""
    from mirroragg import aggregation, cli, experiments, oracles

    def record_gap(span, report):
        span["gap"] = report.gap_certificate

    for owner in (cli, mg):
        tracer.wrap(owner, "run_cell", "experiments.run_cell", cell=lambda config, n, m: (n, m))
    tracer.wrap(cli, "load_run_config", "cli.load_run_config")
    tracer.wrap(cli, "rows_to_csv", "cli.rows_to_csv")
    for owner in (experiments, mg):
        tracer.wrap(owner, "generate_instance", "experiments.generate_instance")
        tracer.wrap(owner, "ms_oracle", "oracles.ms_oracle")
        tracer.wrap(owner, "c_oracle", "oracles.c_oracle", on_result=record_gap)
    for owner in (oracles, mg):
        tracer.wrap(owner, "exact_risk", "oracles.exact_risk")
    tracer.wrap(mg.FiniteDistribution, "sample_indices", "oracles.sample_indices")
    for name in ("ma_run", "lma_run", "erm_select"):
        tracer.wrap(mg, name, _per_dictionary(mg, name))
    tracer.wrap(aggregation, "gibbs_map", "simplex.gibbs_map")
    tracer.wrap(aggregation, "loss_gradient_theta", "losses.loss_gradient_theta")
    tracer.wrap(aggregation, "linearized_loss_vector", "losses.linearized_loss_vector")
    for name in ("check_nice_loss", "check_exp_map_concavity", "nice_beta_report"):
        tracer.wrap(mg, name, f"conditions.{name}")


def layer_metrics(tracer: Tracer, workload: dict, walls: dict) -> dict:
    """Per-layer metrics of the traced passes; a layer no wrapper saw is absent, not zero."""
    main = tracer.totals("pass.main")
    metrics: dict = {}

    def put(name, value, unit):
        metrics[name] = {"absent": True, "unit": unit} if value is None else {"value": value, "unit": unit}

    def total(span_name):
        entry = main.get(span_name)
        return None if entry is None else entry["total_s"]

    def calls(span_name):
        entry = main.get(span_name)
        return None if entry is None else entry["calls"]

    spans = [
        "experiments.generate_instance",
        "oracles.ms_oracle",
        "oracles.c_oracle",
        "oracles.sample_indices",
        "oracles.exact_risk",
        "cli.load_run_config",
        "cli.rows_to_csv",
        "losses.loss_gradient_theta",
        "losses.linearized_loss_vector",
        "simplex.gibbs_map",
        "conditions.check_nice_loss",
        "conditions.check_exp_map_concavity",
        "conditions.nice_beta_report",
    ]
    spans += [
        f"aggregation.{name}.{kind}" for name in ("ma_run", "lma_run", "erm_select") for kind in ("tabular", "callable")
    ]
    for span_name in spans:
        put(f"{span_name}_s", total(span_name), "s")
        put(f"{span_name}_calls", calls(span_name), "count")

    gaps = [span["gap"] for span in tracer.under("pass.main", "oracles.c_oracle")]
    put("oracles.c_oracle_gap_max", max(gaps) if gaps else None, "risk")

    # Time of each algorithm's recursion, under one name on every workload:
    # run_cell self time of a single-algorithm pass on the run workloads,
    # the per-sample ma_run/lma_run/erm_select calls on library_calls.
    updates_total, algorithm_total = 0, 0.0
    if workload["kind"] == "run":
        grid = workload["grid"]
        cell_spans = tracer.under("pass.main", "experiments.run_cell")
        durations = [span["dur"] for span in cell_spans]
        cell_sum = sum(durations) if durations else None
        cell_max = max(durations) if durations else None
        put("experiments.cell_sum_s", cell_sum, "s")
        put("experiments.cell_max_s", cell_max, "s")
        ratio = None
        if cell_sum:
            ratio = walls["untraced"] / max(cell_sum / workload["jobs"], cell_max)
        put("cli.makespan_ratio", ratio, "ratio")
        for algorithm in ALGORITHMS:
            runs = grid["lma_rows"] if algorithm == "LMA" else 1
            self_s = tracer.totals(f"pass.{algorithm}").get("experiments.run_cell", {}).get("self_s")
            put(f"algorithms.{algorithm}_s", self_s, "s")
            if self_s is not None:
                updates_total += sum(grid["replications"] * n * m * runs for n, m in cells(grid))
                algorithm_total += self_s
    else:
        for algorithm, name in (("MA", "ma_run"), ("LMA", "lma_run"), ("ERM", "erm_select")):
            seen = [f"aggregation.{name}.{kind}" for kind in ("tabular", "callable")]
            seen = [span_name for span_name in seen if calls(span_name)]
            seconds = sum(total(span_name) for span_name in seen) if seen else None
            put(f"algorithms.{algorithm}_s", seconds, "s")
            if seconds is not None:
                updates_total += sum(calls(span_name) for span_name in seen) * LIBRARY["n"] * LIBRARY["m"]
                algorithm_total += seconds
        for name in ("experiments.cell_sum_s", "experiments.cell_max_s"):
            put(name, None, "s")
        put("cli.makespan_ratio", None, "ratio")
    put("algorithms.ns_per_update", 1e9 * algorithm_total / updates_total if updates_total else None, "ns")

    put("trace.untraced_wall_s", walls["untraced_serial"], "s")
    put("trace.traced_wall_s", walls["traced"], "s")
    put("trace.overhead_s", walls["traced"] - walls["untraced_serial"], "s")
    return metrics


def traced_run(mg, name: str, workload: dict, seed: int, out_dir: Path, trace_file: Path) -> dict:
    """Untraced passes for the checks and the overhead base, then the traced passes.

    The first untraced pass also warms the process, so the overhead base
    is a second, serial, untraced pass right before the traced one.
    """
    tracer = Tracer()
    walls = {}
    if workload["kind"] == "run":
        config_path = write_config(workload, seed, out_dir)
        codes = []
        code, walls["untraced"] = run_once(config_path, out_dir, workload["jobs"])
        codes.append(code)
        code, walls["untraced_serial"] = run_once(config_path, out_dir / "serial", 1)
        codes.append(code)
        install(mg, tracer)
        with tracer.span("pass.main"):
            code, walls["traced"] = run_once(config_path, out_dir / "traced", 1)
        codes.append(code)
        algorithm_passes(mg, tracer, config_path)
        # the first failing pass's code; a failed pass fails every cell
        result = {"exit": next((c for c in codes if c != 0), 0), "results": str(out_dir / "results.csv")}
        if workload["jobs"] > 1:
            result["serial_results"] = str(out_dir / "serial" / "results.csv")
    else:
        result = {"exit": 0, "report": library_session(mg, seed)}
        start = time.perf_counter()
        library_session(mg, seed)
        walls["untraced_serial"] = time.perf_counter() - start
        install(mg, tracer)
        start = time.perf_counter()
        with tracer.span("pass.main"):
            library_session(mg, seed)
        walls["traced"] = time.perf_counter() - start
    tracer.unwrap_all()
    metrics = layer_metrics(tracer, workload, walls)
    roots = ("pass.main",) + tuple(f"pass.{a}" for a in ALGORITHMS)
    with open(trace_file, "w") as handle:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "metrics": metrics,
                "totals": {root: tracer.totals(root) for root in roots},
                "spans": tracer.records(),
            },
            handle,
        )
    return dict(result, metrics=metrics)


# ---------------------------------------------------------------- entry


def write_config(workload: dict, seed: int, out_dir: Path) -> Path:
    path = out_dir / "config.ini"
    path.write_text(run_config_text(workload["grid"], seed))
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--jobs", type=int, default=None, help="override the workload's worker count")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", type=Path, default=None)
    mode.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    workload = dict(WORKLOADS[args.workload])
    if args.jobs is not None:
        workload["jobs"] = args.jobs
    args.out.mkdir(parents=True, exist_ok=True)

    mg = import_mirroragg()
    if args.probe:
        result = environment()
    elif args.trace is not None:
        result = traced_run(mg, args.workload, workload, args.seed, args.out, args.trace)
    elif workload["kind"] == "run":
        config_path = write_config(workload, args.seed, args.out)
        ready = time.monotonic()
        code, body = run_once(config_path, args.out, workload["jobs"])
        result = {"ready": ready, "body_s": body, "exit": code, "results": str(args.out / "results.csv")}
    else:
        inputs = library_inputs(mg, args.seed)
        ready = time.monotonic()
        start = time.perf_counter()
        calls = library_body(mg, inputs, args.seed)
        body = time.perf_counter() - start
        result = {"ready": ready, "body_s": body, "exit": 0, "report": library_report(mg, inputs, calls)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
