"""Command-line front end: benchmark runs, condition checks, rate tables.

Subcommands:

* ``run``: execute the benchmark grid of a config file, writing
  ``results.csv`` and ``manifest.json`` to the output directory.
* ``check-conditions``: run the loss-condition checkers of a config file
  and print (optionally write) the verdict table.
* ``rates``: print or write the reference rate curves for given grids.

Configs are flat INI-style key-value files.  ``_TABLE`` gives each key's
field, parser, default and readers; an unknown key, or one that the chosen
family, loss or algorithms do not read, is a hard error.  Every output file
embeds a digest of the canonical values of the keys its command reads, and a
manifest (digest, tool version, master seed, timestamp, output paths) is
written before any results, so reruns are byte-identical but for its timestamp.

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
import re
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

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
from .losses import PHI_EXPONENTIAL, PHI_LOGIT2, SQUARED, LossSpec
from .oracles import optimal_rate

__all__ = ["main", "ConfigError", "CSV_HEADER", "load_run_config", "config_digest", "rows_to_csv"]

CSV_HEADER = "n,M,algorithm,loss,oracle_kind,mean_excess,stderr,oracle_value,bound_value,bound_pass,seed"


class ConfigError(Exception):
    """Configuration problem; maps to exit code 2."""


def _words(conv):
    """Parser of a nonempty list of ``conv`` values, separated by spaces or commas."""

    def parse(text: str) -> tuple:
        words = text.replace(",", " ").split()
        if not words:
            raise ValueError("expected a nonempty list")
        return tuple(conv(word) for word in words)

    return parse


class _Key(NamedTuple):
    """A config key: the field it fills, its parser, when it is read, its default and its name in errors."""

    field: str
    parse: object = str
    read_by: tuple = ()  # (selector, values...): read only when the selector key takes one of the values
    default: object = dataclasses.MISSING  # required, unless ``field`` has a default in a spec dataclass
    says: str | None = None  # what the library's errors call the value, when not ``field``


_TABLE = {
    "generator.family": _Key("family"),
    "generator.grid_size": _Key("grid_size", int),
    "generator.noise_level": _Key("noise_level", float, ("generator.family", "bounded_regression", "near_tie")),
    "generator.tie_gap": _Key("tie_gap", float, ("generator.family", "near_tie")),
    "experiment.n_grid": _Key("n_grid", _words(int)),
    "experiment.m_grid": _Key("m_grid", _words(int)),
    "experiment.replications": _Key("replications", int),
    "experiment.algorithms": _Key("algorithms", _words(str)),
    "experiment.loss": _Key("kind", says="losses"),
    "experiment.y_bound": _Key("y_bound", float, ("experiment.loss", SQUARED)),
    "experiment.seed": _Key("master_seed", int),
    "schedule.lma_beta": _Key("lma_betas", _words(float), ("experiment.algorithms", "LMA")),
    "schedule.ma_beta0": _Key("ma_beta0", float, ("experiment.algorithms", "MA")),
    "schedule.ma_schedule": _Key("ma_schedule", str, ("experiment.algorithms", "MA")),
    "conditions.loss": _Key("kind", says="losses"),
    "conditions.y_bound": _Key("y_bound", float, ("conditions.loss", SQUARED)),
    "conditions.betas": _Key("betas", _words(float), says="beta"),
    "conditions.n": _Key("n", int, default=64, says="training size"),
    "conditions.m": _Key("m", int, default=8, says="dictionary size"),
    "conditions.mc_outer": _Key("mc_outer", int, default=1000),
    "conditions.trials": _Key("trials", int, default=1000),
    "conditions.seed": _Key("seed", int),
}
_DEFAULTS = {f.name: f.default for cls in (GeneratorSpec, LossSpec, ExperimentConfig) for f in dataclasses.fields(cls)}


def _label(name: str) -> str:
    """``[section] key`` of ``section.key``."""
    return "[{}] {}".format(*name.split(".", 1))


def _load(path: str, sections, seed_name: str, seed: int | None):
    """Values by field and canonical text by name of the keys ``sections`` read, ``seed`` given as ``seed_name``.

    Unknown names and unread keys are errors raised before any other value is parsed.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str
    try:
        if not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    known = sorted({name.split(".")[0] for name in _TABLE})
    unknown = [section for section in parser.sections() if section not in known]
    if unknown:
        raise ConfigError(f"unknown config section [{unknown[0]}]; expected one of {known}")
    given = {f"{section}.{key}": text.strip() for section in parser.sections() for key, text in parser.items(section)}
    unknown = [name for name in given if name not in _TABLE]
    if unknown:
        raise ConfigError(f"{_label(unknown[0])}: unknown key; supported: {sorted(_TABLE)}")
    if seed is not None:
        given[seed_name] = str(seed)

    def parse(name):
        entry = _TABLE[name]
        default = _DEFAULTS.get(entry.field, entry.default)
        if name not in given and default is dataclasses.MISSING:
            raise ConfigError(f"{_label(name)}: missing required key")
        try:
            return entry.parse(given[name]) if name in given else default
        except ValueError as exc:
            raise ConfigError(f"{_label(name)}: cannot parse {given[name]!r}: {exc}") from exc

    read = []
    for name in (name for name in _TABLE if name.split(".")[0] in sections):
        selector, *readers = _TABLE[name].read_by or (None,)
        if readers and set(readers).isdisjoint(_field(parse(selector)).split()):
            if name in given:
                raise ConfigError(
                    f"{_label(name)} is not read when {_label(selector)} = {given[selector]}; "
                    f"it is read only under {' or '.join(readers)}"
                )
            continue
        read.append(name)
    values = {_TABLE[name].field: parse(name) for name in read}
    return values, {name: _field(values[_TABLE[name].field]) for name in read}


def _named(exc: ValueError, names) -> ConfigError:
    """``exc`` as a ``ConfigError`` naming the ``[section] key`` of ``names`` that its message mentions first."""
    text = str(exc)
    words = [(name, word) for name in names for word in (name.split(".")[1], _TABLE[name].field, _TABLE[name].says)]
    found = sorted((m.start(), name, word) for name, word in words if word and (m := re.search(rf"\b{word}\b", text)))
    if not found:
        return ConfigError(text)
    start, name, word = found[0]
    return ConfigError(_label(name) + (text[len(word):] if start == 0 else f": {text}"))


def _build(cls, values: dict):
    """``cls`` from the fields of ``values`` that it has."""
    return cls(**{f.name: values[f.name] for f in dataclasses.fields(cls) if f.name in values})


def config_digest(resolved: dict) -> str:
    """sha256 of the ``key=value`` lines of ``resolved``, in key order."""
    return hashlib.sha256("\n".join(f"{key}={resolved[key]}" for key in sorted(resolved)).encode()).hexdigest()


def load_run_config(path: str, seed_override: int | None = None) -> tuple[ExperimentConfig, dict]:
    """Parse and validate a ``run`` config; returns it with the canonical values ``config_digest`` hashes."""
    values, canonical = _load(path, ("generator", "experiment", "schedule"), "experiment.seed", seed_override)
    try:
        values.update(generator=_build(GeneratorSpec, values), loss=_build(LossSpec, values))
        return _build(ExperimentConfig, values), canonical
    except ValueError as exc:
        raise _named(exc, canonical) from exc


def _field(value) -> str:
    """Text of a CSV field or config value: 17 significant digits, true/false, empty for None, items spaced."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(map(_field, value))
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _csv_text(digest: str, header: str, records) -> str:
    """The digest line, ``header``, then one comma-joined line per record."""
    return "\n".join([f"# digest={digest}", header, *(",".join(map(_field, record)) for record in records)]) + "\n"


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
    if args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    config, canonical = load_run_config(args.config, args.seed)
    digest = config_digest(canonical)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.csv"
    # one unit of work per dictionary size: it yields the rows of every n
    # more workers than units or cores cannot help, and each one is a process
    workers = min(args.jobs, len(config.m_grid), os.cpu_count() or 1)
    _write_manifest(out_dir, digest, config.master_seed, [results_path], workers=workers)
    if workers > 1:
        # imported here, so only a run that forks loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

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
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


def cmd_check_conditions(args) -> int:
    values, canonical = _load(args.config, ("generator", "conditions"), "conditions.seed", args.seed)
    seed = values["seed"]
    records = []
    # the checkers reject out-of-range sizes, temperatures and labels, which come from the config
    try:
        spec = _build(LossSpec, values)
        if seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seed}")
        dist, dictionary = generate_instance(_build(GeneratorSpec, values), values["m"], seed)
        for beta in values["betas"]:
            moment = check_nice_loss(
                spec, dictionary, dist, beta, n=values["n"], mc_outer=values["mc_outer"], seed=seed
            )
            concavity = check_exp_map_concavity(spec, dictionary, dist, beta, trials=values["trials"], seed=seed)
            for name, v in (("exp_moment", moment), ("concavity", concavity)):
                records.append((spec.kind, beta, name, v.estimate, v.std_error, v.verdict, v.samples_used))
    except ValueError as exc:
        raise _named(exc, canonical) from exc

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
        _write_report(args, "conditions_report.csv", config_digest(canonical), seed, header, records)
    return 0


def cmd_rates(args) -> int:
    flags = {"n": args.n, "M": args.m, "kinds": args.kinds}
    digest = config_digest({f"rates.{name}": _field(tuple(value)) for name, value in flags.items()})
    try:
        table = [(n, m, kind, optimal_rate(n, m, kind)) for kind in args.kinds for m in args.m for n in args.n]
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
    rates_parser.add_argument("--kinds", nargs="+", default=["MS", "C"], choices=["MS", "C"], help="oracle kinds")
    _add_common(rates_parser, config=False)
    rates_parser.set_defaults(func=cmd_rates)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
