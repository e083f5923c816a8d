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
import dataclasses
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .conditions import check_exp_map_concavity, check_nice_loss, nice_beta_report
# run_cell is unused here but stays a name of this module: perfbench's
# tracer wraps cli.run_cell
from .experiments import (  # noqa: F401
    ExperimentConfig,
    GeneratorSpec,
    generate_instance,
    run_cell,
    run_dictionary_size,
)
from .losses import PHI_EXPONENTIAL, PHI_LOGIT2, LossSpec
from .oracles import optimal_rate

__all__ = ["main", "ConfigError", "CSV_HEADER", "load_run_config", "config_digest", "rows_to_csv"]

CSV_HEADER = "n,M,algorithm,loss,oracle_kind,mean_excess,stderr,oracle_value,bound_value,bound_pass,seed"

_SCHEMA = {
    "generator": {"family", "grid_size", "noise_level", "margin_exponent", "tie_gap"},
    "experiment": {"n_grid", "m_grid", "replications", "algorithms", "loss", "y_bound", "seed"},
    "schedule": {"lma_beta", "ma_beta0", "ma_schedule"},
    "conditions": {"loss", "y_bound", "betas", "n", "m", "mc_outer", "trials", "seed"},
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


def config_digest(resolved: dict) -> str:
    """Stable hash of the fully resolved configuration."""
    canon = "\n".join(f"{key}={resolved[key]}" for key in sorted(resolved))
    return hashlib.sha256(canon.encode()).hexdigest()


_NO_DEFAULT = object()


def _get(resolved: dict, key: str, conv=str, default=_NO_DEFAULT):
    """``conv`` of the value of ``key``; a key without a default is required."""
    if key not in resolved:
        if default is _NO_DEFAULT:
            section, name = key.split(".", 1)
            raise ConfigError(f"missing required key {name!r} in section [{section}]")
        return default
    try:
        return conv(resolved[key])
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key}={resolved[key]!r}: {exc}") from exc


def _words(conv):
    """Parser of a nonempty list of ``conv`` values, separated by spaces or commas."""

    def parse(text: str) -> tuple:
        words = text.replace(",", " ").split()
        if not words:
            raise ValueError("expected a nonempty list")
        return tuple(conv(word) for word in words)

    return parse


def _get_present(resolved: dict, section: str, convs: dict) -> dict:
    """The keys of ``convs`` that ``section`` sets, parsed; the others keep their dataclass defaults."""
    return {key: _get(resolved, f"{section}.{key}", conv) for key, conv in convs.items() if f"{section}.{key}" in resolved}


def _get_loss(resolved, section) -> LossSpec:
    kind = _get(resolved, f"{section}.loss")
    options = _get_present(resolved, section, {"y_bound": float})
    try:
        return LossSpec(kind=kind, **options)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _get_generator(resolved: dict) -> GeneratorSpec:
    family = _get(resolved, "generator.family")
    options = _get_present(
        resolved, "generator", {"grid_size": int, "noise_level": float, "margin_exponent": float, "tie_gap": float}
    )
    try:
        return GeneratorSpec(family=family, **options)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_run_config(path: str, seed_override: int | None = None) -> tuple[ExperimentConfig, dict]:
    """Parse and validate a ``run`` config; returns it with the resolved map."""
    resolved = _read_config(path)
    if seed_override is not None:
        resolved["experiment.seed"] = str(seed_override)
    try:
        config = ExperimentConfig(
            generator=_get_generator(resolved),
            n_grid=_get(resolved, "experiment.n_grid", _words(int)),
            m_grid=_get(resolved, "experiment.m_grid", _words(int)),
            replications=_get(resolved, "experiment.replications", int),
            algorithms=_get(resolved, "experiment.algorithms", _words(str)),
            loss=_get_loss(resolved, "experiment"),
            master_seed=_get(resolved, "experiment.seed", int),
            lma_betas=_get(resolved, "schedule.lma_beta", _words(float), ()),
            ma_beta0=_get(resolved, "schedule.ma_beta0", float, None),
            ma_schedule=_get(resolved, "schedule.ma_schedule", str, "sqrt_growth"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config, resolved


def _field(value) -> str:
    """CSV text of one field: 17 significant digits, true/false, empty for None."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _csv_text(digest: str, header: str, records) -> str:
    """The digest line, ``header``, then one comma-joined line per record."""
    lines = [f"# digest={digest}", header]
    lines += [",".join(_field(value) for value in record) for record in records]
    return "\n".join(lines) + "\n"


def rows_to_csv(rows, digest: str) -> str:
    """Serialize result rows with the pinned header and embedded digest."""
    return _csv_text(digest, CSV_HEADER, (dataclasses.astuple(row) for row in rows))


def _write_manifest(out_dir: Path, digest: str, master_seed: int | None, outputs, failures=(), workers=1) -> None:
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


def _write_report(args, name: str, digest: str, seed, header: str, records) -> None:
    """Write the manifest, then the CSV ``name`` under ``--out``."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    _write_manifest(out_dir, digest, seed, [path])
    path.write_text(_csv_text(digest, header, records))
    if not args.quiet:
        print(f"wrote {path}")


def _size_worker(unit):
    config, m = unit
    try:
        return "ok", run_dictionary_size(config, m)
    except Exception as exc:  # noqa: BLE001 - failures become exit code 1
        return "err", str(exc)


def cmd_run(args) -> int:
    config, resolved = load_run_config(args.config, args.seed)
    digest = config_digest(resolved)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.csv"
    # one unit of work per dictionary size: it yields the rows of every n
    # more workers than units or cores cannot help, and each one is a process
    workers = min(args.jobs, len(config.m_grid), os.cpu_count() or 1)
    _write_manifest(out_dir, digest, config.master_seed, [results_path], workers=workers)
    if workers > 1:
        # every unit folds to the same largest n, so the largest M takes
        # longest: submit it first, then read outcomes back in grid order
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {m: pool.submit(_size_worker, (config, m)) for m in sorted(config.m_grid, reverse=True)}
            outcomes = [futures[m].result() for m in config.m_grid]
    else:
        outcomes = [_size_worker((config, m)) for m in config.m_grid]

    rows = []
    failures = []
    for n in config.n_grid:
        for m, (status, payload) in zip(config.m_grid, outcomes):
            if status == "ok":
                cell_rows = [row for row in payload if row.n == n]
                rows.extend(cell_rows)
                if not args.quiet:
                    print(f"cell n={n} M={m}: {len(cell_rows)} rows")
            else:
                failures.append(f"cell (n={n}, M={m}) failed: {payload}")

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
    generator = _get_generator(resolved)
    spec = _get_loss(resolved, "conditions")
    betas = _get(resolved, "conditions.betas", _words(float))
    n = _get(resolved, "conditions.n", int, 64)
    m = _get(resolved, "conditions.m", int, 8)
    mc_outer = _get(resolved, "conditions.mc_outer", int, 1000)
    trials = _get(resolved, "conditions.trials", int, 1000)
    seed = _get(resolved, "conditions.seed", int)
    if seed < 0:
        raise ConfigError(f"conditions.seed must be a nonnegative integer, got {seed}")
    digest = config_digest(resolved)

    records = []
    # the checkers reject out-of-range sizes, temperatures and labels, which come from the config
    try:
        dist, dictionary = generate_instance(generator, m, seed)
        for beta in betas:
            moment = check_nice_loss(spec, dictionary, dist, beta, n=n, mc_outer=mc_outer, seed=seed)
            concavity = check_exp_map_concavity(spec, dictionary, dist, beta, trials=trials, seed=seed)
            for name, v in (("exp_moment", moment), ("concavity", concavity)):
                records.append((spec.kind, beta, name, v.estimate, v.std_error, v.verdict, v.samples_used))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    print(f"{'loss':<16} {'beta':>10} {'check':<11} {'estimate':>13} {'std_error':>11} {'verdict':<13} {'samples':>8}")
    for kind, beta, name, estimate, std_error, verdict, samples in records:
        print(f"{kind:<16} {beta:>10.6g} {name:<11} {estimate:>13.4e} {std_error:>11.3e} {verdict:<13} {samples:>8}")
    if spec.kind in (PHI_EXPONENTIAL, PHI_LOGIT2):
        report = nice_beta_report(spec.kind)
        print(
            f"minimal nice temperature for {spec.kind}: computed {report.computed_beta:.9g}, "
            f"quoted {report.quoted_beta:.9g}, agrees: {report.agrees}"
        )
    else:
        print(f"minimal nice temperature: criterion inapplicable for {spec.kind}")

    if args.out is not None:
        header = "loss,beta,check,estimate,std_error,verdict,samples_used"
        _write_report(args, "conditions_report.csv", digest, seed, header, records)
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
        # no seed: the rates are closed forms
        _write_report(args, "reference_rates.csv", digest, None, "n,M,kind,rate", table)
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
    run_parser.add_argument("--jobs", type=int, default=1, help="worker count, capped at dictionary sizes and CPUs")
    run_parser.set_defaults(func=cmd_run, out=".")

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
