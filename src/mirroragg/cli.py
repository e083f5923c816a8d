"""Command-line front end: benchmark runs, condition checks, rate tables.

Subcommands:

* ``run``: execute the benchmark grid of a config file, writing
  ``results.csv`` and ``manifest.json`` to the output directory.
* ``check-conditions``: run the loss-condition checkers of a config file
  and print (optionally write) the verdict table.
* ``rates``: print or write the reference rate curves for given grids.

Configs are flat INI-style key-value files; unknown sections or keys are
hard errors.  Every output file embeds a digest of the fully resolved
configuration, and a manifest (digest, tool version, master seed,
timestamp, output paths) is written before any results, so reruns of the
same config produce byte-identical result files with only the manifest
timestamp differing.

Exit codes: 0 success, 1 runtime failure (partial results are kept),
2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .conditions import check_exp_map_concavity, check_nice_loss, nice_beta_report
from .experiments import (
    ExperimentConfig,
    GeneratorSpec,
    generate_instance,
    run_cell,
)
from .losses import LOSS_KINDS, PHI_EXPONENTIAL, PHI_LOGIT2, LossSpec
from .oracles import optimal_rate

__all__ = ["main", "ConfigError", "CSV_HEADER", "load_run_config", "config_digest", "rows_to_csv"]

CSV_HEADER = "n,M,algorithm,loss,oracle_kind,mean_excess,stderr,oracle_value,bound_value,bound_pass,seed"

_SCHEMA = {
    "generator": {"family", "grid_size", "noise_level", "margin_exponent", "tie_gap"},
    "experiment": {"n_grid", "m_grid", "replications", "algorithms", "loss", "y_bound", "seed"},
    "schedule": {"lma_beta", "ma_beta0", "ma_schedule"},
    "conditions": {"loss", "y_bound", "betas", "n", "m", "mc_outer", "trials", "seed"},
}

_REQUIRED = {
    "run": {"generator": {"family"}, "experiment": {"n_grid", "m_grid", "replications", "algorithms", "loss", "seed"}},
    "check-conditions": {"generator": {"family"}, "conditions": {"loss", "betas", "seed"}},
}


class ConfigError(Exception):
    """Configuration problem; maps to exit code 2."""


def _read_config(path: str) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read_string(file.read_text(), source=path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    resolved: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]; expected one of {sorted(_SCHEMA)}")
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]; "
                    f"supported: {sorted(_SCHEMA[section])}"
                )
            resolved[f"{section}.{key}"] = value.strip()
    return resolved


def _check_required(resolved: dict, command: str) -> None:
    for section, keys in _REQUIRED[command].items():
        for key in keys:
            if f"{section}.{key}" not in resolved:
                raise ConfigError(f"missing required key {key!r} in section [{section}]")


def config_digest(resolved: dict) -> str:
    """Stable hash of the fully resolved configuration."""
    canon = "\n".join(f"{key}={resolved[key]}" for key in sorted(resolved))
    return hashlib.sha256(canon.encode()).hexdigest()


def _get_int(resolved, key, default=None):
    if key not in resolved:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(resolved[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {resolved[key]!r}") from exc


def _get_float(resolved, key, default=None):
    if key not in resolved:
        return default
    try:
        return float(resolved[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {resolved[key]!r}") from exc


def _get_list(resolved, key, conv, default=None):
    if key not in resolved:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    parts = resolved[key].replace(",", " ").split()
    if not parts:
        raise ConfigError(f"{key} must be a nonempty list")
    try:
        return tuple(conv(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key}={resolved[key]!r}: {exc}") from exc


def _get_loss(resolved, section) -> LossSpec:
    kind = resolved.get(f"{section}.loss")
    if kind not in LOSS_KINDS:
        raise ConfigError(f"{section}.loss must be one of {LOSS_KINDS}, got {kind!r}")
    y_bound = _get_float(resolved, f"{section}.y_bound", 1.0)
    try:
        return LossSpec(kind=kind, y_bound=y_bound)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _get_generator(resolved: dict) -> GeneratorSpec:
    try:
        return GeneratorSpec(
            family=resolved.get("generator.family", ""),
            grid_size=_get_int(resolved, "generator.grid_size", 16),
            noise_level=_get_float(resolved, "generator.noise_level", 0.0),
            margin_exponent=_get_float(resolved, "generator.margin_exponent", 1.0),
            tie_gap=_get_float(resolved, "generator.tie_gap", 0.01),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_run_config(path: str, seed_override: int | None = None) -> tuple[ExperimentConfig, dict]:
    """Parse and validate a ``run`` config; returns it with the resolved map."""
    resolved = _read_config(path)
    if seed_override is not None:
        resolved["experiment.seed"] = str(seed_override)
    _check_required(resolved, "run")
    try:
        config = ExperimentConfig(
            generator=_get_generator(resolved),
            n_grid=_get_list(resolved, "experiment.n_grid", int),
            m_grid=_get_list(resolved, "experiment.m_grid", int),
            replications=_get_int(resolved, "experiment.replications"),
            algorithms=_get_list(resolved, "experiment.algorithms", str),
            loss=_get_loss(resolved, "experiment"),
            master_seed=_get_int(resolved, "experiment.seed"),
            lma_betas=_get_list(resolved, "schedule.lma_beta", float, default=()),
            ma_beta0=_get_float(resolved, "schedule.ma_beta0", None),
            ma_schedule=resolved.get("schedule.ma_schedule", "sqrt_growth"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config, resolved


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def rows_to_csv(rows, digest: str) -> str:
    """Serialize result rows with the pinned header and embedded digest."""
    lines = [f"# digest={digest}", CSV_HEADER]
    for row in rows:
        bound_value = "" if row.bound_value is None else _fmt(row.bound_value)
        bound_pass = "" if row.bound_pass is None else ("true" if row.bound_pass else "false")
        lines.append(
            ",".join(
                [
                    str(row.n),
                    str(row.m),
                    row.algorithm,
                    row.loss_kind,
                    row.oracle_kind,
                    _fmt(row.mean_excess),
                    _fmt(row.stderr),
                    _fmt(row.oracle_value),
                    bound_value,
                    bound_pass,
                    str(row.seed),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _write_manifest(out_dir: Path, digest: str, master_seed: int, outputs, failures=(), workers=1) -> None:
    manifest = {
        "digest": digest,
        "tool_version": __version__,
        "master_seed": master_seed,
        "created": datetime.now(timezone.utc).isoformat(),
        "outputs": [str(p) for p in outputs],
        "workers": workers,
        "failures": list(failures),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


# A replicate step costs about as much as this many arm updates on top of
# its M arms, so a cell's run time is roughly proportional to n * (M + 16).
_STEP_COST_IN_ARMS = 16


def _cell_cost(cell) -> int:
    _, n, m = cell
    return n * (m + _STEP_COST_IN_ARMS)


def _cell_worker(args):
    config, n, m = args
    try:
        return "ok", run_cell(config, n, m)
    except Exception as exc:  # noqa: BLE001 - cell failures become exit code 1
        return "err", f"cell (n={n}, M={m}) failed: {exc}"


def cmd_run(args) -> int:
    config, resolved = load_run_config(args.config, args.seed)
    digest = config_digest(resolved)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.csv"
    cells = [(config, n, m) for n in config.n_grid for m in config.m_grid]
    # more workers than cells or cores cannot help, and each one is a process
    workers = min(args.jobs, len(cells), os.cpu_count() or 1)
    _write_manifest(out_dir, digest, config.master_seed, [results_path], workers=workers)
    if workers > 1:
        # largest cells first, so that no long cell starts last; outcomes
        # are then read back in grid order
        largest_first = sorted(range(len(cells)), key=lambda i: -_cell_cost(cells[i]))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {i: pool.submit(_cell_worker, cells[i]) for i in largest_first}
            outcomes = [futures[i].result() for i in range(len(cells))]
    else:
        outcomes = [_cell_worker(cell) for cell in cells]

    rows = []
    failures = []
    for (_, n, m), (status, payload) in zip(cells, outcomes):
        if status == "ok":
            rows.extend(payload)
            if not args.quiet:
                print(f"cell n={n} M={m}: {len(payload)} rows")
        else:
            failures.append(payload)

    results_path.write_text(rows_to_csv(rows, digest))
    _write_manifest(out_dir, digest, config.master_seed, [results_path], failures, workers)
    if not args.quiet:
        print(f"wrote {results_path} ({len(rows)} rows)")
    if failures:
        for failure in failures:
            print(failure, file=sys.stderr)
        return 1
    return 0


def cmd_check_conditions(args) -> int:
    resolved = _read_config(args.config)
    if args.seed is not None:
        resolved["conditions.seed"] = str(args.seed)
    _check_required(resolved, "check-conditions")
    generator = _get_generator(resolved)
    spec = _get_loss(resolved, "conditions")
    betas = _get_list(resolved, "conditions.betas", float)
    n = _get_int(resolved, "conditions.n", 64)
    m = _get_int(resolved, "conditions.m", 8)
    mc_outer = _get_int(resolved, "conditions.mc_outer", 1000)
    trials = _get_int(resolved, "conditions.trials", 1000)
    seed = _get_int(resolved, "conditions.seed")
    digest = config_digest(resolved)

    try:
        dist, dictionary = generate_instance(generator, m, seed)
        dist.validate_for(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    records = []
    for beta in betas:
        moment = check_nice_loss(spec, dictionary, dist, beta, n=n, mc_outer=mc_outer, seed=seed)
        concavity = check_exp_map_concavity(spec, dictionary, dist, beta, trials=trials, seed=seed)
        records.append((beta, "exp_moment", moment))
        records.append((beta, "concavity", concavity))

    header = f"{'loss':<16} {'beta':>10} {'check':<11} {'estimate':>13} {'std_error':>11} {'verdict':<13} {'samples':>8}"
    print(header)
    for beta, name, verdict in records:
        print(
            f"{spec.kind:<16} {beta:>10.6g} {name:<11} {verdict.estimate:>13.4e} "
            f"{verdict.std_error:>11.3e} {verdict.verdict:<13} {verdict.samples_used:>8}"
        )
    if spec.kind in (PHI_EXPONENTIAL, PHI_LOGIT2):
        report = nice_beta_report(spec.kind)
        print(
            f"minimal nice temperature for {spec.kind}: computed {report.computed_beta:.9g}, "
            f"quoted {report.quoted_beta:.9g}, agrees: {report.agrees}"
        )
    else:
        print(f"minimal nice temperature: criterion inapplicable for {spec.kind}")

    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "conditions_report.csv"
        _write_manifest(out_dir, digest, seed, [report_path])
        lines = [f"# digest={digest}", "loss,beta,check,estimate,std_error,verdict,samples_used"]
        for beta, name, verdict in records:
            lines.append(
                ",".join(
                    [
                        spec.kind,
                        _fmt(beta),
                        name,
                        _fmt(verdict.estimate),
                        _fmt(verdict.std_error),
                        verdict.verdict,
                        str(verdict.samples_used),
                    ]
                )
            )
        report_path.write_text("\n".join(lines) + "\n")
        if not args.quiet:
            print(f"wrote {report_path}")
    return 0


def cmd_rates(args) -> int:
    resolved = {
        "rates.n": " ".join(str(n) for n in args.n),
        "rates.M": " ".join(str(m) for m in args.m),
        "rates.kinds": " ".join(args.kinds),
    }
    digest = config_digest(resolved)
    try:
        table = [
            (n, m, kind, optimal_rate(n, m, kind))
            for kind in args.kinds
            for m in args.m
            for n in args.n
        ]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"{'n':>8} {'M':>6} {'kind':<4} {'rate':>24}")
    for n, m, kind, rate in table:
        print(f"{n:>8} {m:>6} {kind:<4} {rate:>24.17g}")
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "reference_rates.csv"
        seed = 0
        _write_manifest(out_dir, digest, seed, [path])
        lines = [f"# digest={digest}", "n,M,kind,rate"]
        lines += [f"{n},{m},{kind},{_fmt(rate)}" for n, m, kind, rate in table]
        path.write_text("\n".join(lines) + "\n")
        if not args.quiet:
            print(f"wrote {path}")
    return 0


def _add_common(parser: argparse.ArgumentParser, config: bool) -> None:
    if config:
        parser.add_argument("--config", required=True, help="path to the INI-style config file")
        parser.add_argument("--seed", type=int, default=None, help="override the config's master seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirroragg",
        description="Mirror-averaging aggregation benchmarks, condition checks, and rate tables.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run the benchmark grid of a config file")
    _add_common(run_parser, config=True)
    run_parser.add_argument("--jobs", type=int, default=1, help="worker count, capped at cells and CPUs")
    run_parser.set_defaults(func=cmd_run)

    cond_parser = sub.add_parser("check-conditions", help="run the loss-condition checkers")
    _add_common(cond_parser, config=True)
    cond_parser.set_defaults(func=cmd_check_conditions)

    rates_parser = sub.add_parser("rates", help="print reference rate curves")
    rates_parser.add_argument("--n", type=int, nargs="+", required=True, help="sample sizes")
    rates_parser.add_argument("--m", "--M", type=int, nargs="+", required=True, dest="m", help="dictionary sizes")
    rates_parser.add_argument(
        "--kinds", nargs="+", default=["MS", "C"], choices=["MS", "C"], help="oracle kinds"
    )
    _add_common(rates_parser, config=False)
    rates_parser.set_defaults(func=cmd_rates)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = "." if args.command == "run" else None
    if args.command == "run" and args.jobs < 1:
        print("config error: --jobs must be at least 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit code 1
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
