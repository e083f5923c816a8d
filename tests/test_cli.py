import concurrent.futures
import json
import math
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from mirroragg import GeneratorSpec, generate_instance
from mirroragg import cli
from mirroragg.experiments import FAMILIES
from mirroragg.cli import CSV_HEADER

RUN_CONFIG = """\
[generator]
family = bounded_regression
grid_size = 8
noise_level = 0.25

[experiment]
n_grid = 4 8
m_grid = 2
replications = 5
algorithms = MA LMA ERM
loss = squared
seed = 11
"""

CONDITIONS_CONFIG = """\
[generator]
family = near_tie
grid_size = 4
noise_level = 0.5
tie_gap = 0.01

[conditions]
loss = squared
betas = 16 0.16
n = 16
m = 4
mc_outer = 150
trials = 1000
seed = 3
"""


# a phi_classification generator under a margin loss reads no optional [generator] or [experiment] key
MARGIN_CONFIG = """\
[generator]
family = phi_classification
grid_size = 8

[experiment]
n_grid = 16 64
m_grid = 4 8
replications = 20
algorithms = MA LMA ERM
loss = phi_logit2
seed = 11
"""

ACCEPTANCE_CONFIG = """\
[generator]
family = bounded_regression
grid_size = 16
noise_level = 0.25

[experiment]
n_grid = 32 128 512 2048
m_grid = 2 8 32
replications = 1000
algorithms = MA LMA ERM
loss = squared
seed = 424243
"""


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "mirroragg", *argv],
        capture_output=True,
        text=True,
    )


def write_config(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_digest(tmp_path, text, seed=None, name="config.ini"):
    """``config_digest`` of the canonical values of the ``run`` config ``text``."""
    return cli.config_digest(cli.load_run_config(write_config(tmp_path, text, name), seed)[1])


def record_pools(monkeypatch):
    """Replace the process pool by a recording stand-in that starts no process.

    Returns the list of requested pool sizes and the list of dictionary
    sizes in the order they were submitted; each size runs in-process
    when it is submitted.
    """
    pools, submitted = [], []

    class RecordingExecutor:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, unit):
            submitted.append(unit[1])
            future = Future()
            future.set_result(fn(unit))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    return pools, submitted


class TestRunCommand:
    def test_minimal_run_writes_results_and_manifest(self, tmp_path):
        config = write_config(tmp_path, RUN_CONFIG)
        out = tmp_path / "out"
        proc = run_cli("run", "--config", config, "--out", str(out), "--quiet")
        assert proc.returncode == 0, proc.stderr

        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0].startswith("# digest=")
        assert lines[1] == CSV_HEADER
        # two grid cells, one row per configured algorithm
        assert len(lines) == 2 + 2 * 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["digest"] == lines[0].removeprefix("# digest=")
        assert manifest["master_seed"] == 11
        assert manifest["failures"] == []
        assert str(out / "results.csv") in manifest["outputs"]

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path, RUN_CONFIG)
        first, second = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--config", config, "--out", str(first), "--quiet").returncode == 0
        assert run_cli("run", "--config", config, "--out", str(second), "--quiet").returncode == 0
        assert (first / "results.csv").read_bytes() == (second / "results.csv").read_bytes()

    def test_seed_override_changes_digest_and_rows(self, tmp_path):
        config = write_config(tmp_path, RUN_CONFIG)
        base, overridden = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--config", config, "--out", str(base), "--quiet").returncode == 0
        assert (
            run_cli("run", "--config", config, "--out", str(overridden), "--quiet", "--seed", "12").returncode
            == 0
        )
        base_lines = (base / "results.csv").read_text().splitlines()
        new_lines = (overridden / "results.csv").read_text().splitlines()
        assert base_lines[0] != new_lines[0]
        assert json.loads((overridden / "manifest.json").read_text())["master_seed"] == 12
        assert all(line.endswith(",12") for line in new_lines[2:])

    def test_infeasible_cell_keeps_partial_results_and_exits_1(self, tmp_path):
        # M = 40 makes the near-tie ladder leave the range bound, so that
        # cell fails while the M = 2 cell still produces rows.
        config = write_config(
            tmp_path,
            """\
[generator]
family = near_tie
grid_size = 4
noise_level = 0.5
tie_gap = 0.03

[experiment]
n_grid = 4
m_grid = 2 40
replications = 3
algorithms = LMA ERM
loss = squared
seed = 5
""",
        )
        out = tmp_path / "out"
        proc = run_cli("run", "--config", config, "--out", str(out), "--quiet")
        assert proc.returncode == 1
        assert "cell (n=4, M=40)" in proc.stderr
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 2 + 2
        assert all(",2," in line for line in lines[2:])
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["failures"]) == 1

    def test_a_failed_dictionary_size_reports_each_of_its_cells(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            """\
[generator]
family = near_tie
grid_size = 4
noise_level = 0.5
tie_gap = 0.03

[experiment]
n_grid = 4 6
m_grid = 40 2
replications = 3
algorithms = LMA ERM
loss = squared
seed = 5
""",
        )
        out = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out", str(out), "--quiet"]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert [failure.split(" failed: ")[0] for failure in manifest["failures"]] == [
            "cell (n=4, M=40)",
            "cell (n=6, M=40)",
        ]
        assert all("infeasible near-tie ladder" in failure for failure in manifest["failures"])
        assert capsys.readouterr().err.splitlines() == manifest["failures"]
        rows = (out / "results.csv").read_text().splitlines()[2:]
        assert [tuple(row.split(",")[:3]) for row in rows] == [
            ("4", "2", "LMA"), ("4", "2", "ERM"), ("6", "2", "LMA"), ("6", "2", "ERM"),
        ]

    def test_unknown_key_is_a_config_error(self, tmp_path):
        config = write_config(tmp_path, RUN_CONFIG + "typo_key = 3\n")
        proc = run_cli("run", "--config", config, "--quiet", "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "unknown key" in proc.stderr

    def test_missing_required_key_is_a_config_error(self, tmp_path):
        config = write_config(tmp_path, RUN_CONFIG.replace("seed = 11\n", ""))
        proc = run_cli("run", "--config", config, "--quiet", "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "missing required" in proc.stderr

    @pytest.mark.parametrize("grid", ["n_grid = 4 8 4", "m_grid = 2 2"])
    def test_a_repeated_grid_size_is_a_config_error(self, tmp_path, grid):
        key = grid.split(" =")[0]
        text = "\n".join(grid if line.startswith(key) else line for line in RUN_CONFIG.splitlines()) + "\n"
        config = write_config(tmp_path, text)
        proc = run_cli("run", "--config", config, "--quiet", "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert f"{key} repeats a size" in proc.stderr

    def test_unknown_loss_is_a_config_error(self, tmp_path):
        config = write_config(tmp_path, RUN_CONFIG.replace("loss = squared", "loss = cubic"))
        proc = run_cli("run", "--config", config, "--quiet", "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "config error: [experiment] loss: unknown loss kind 'cubic'" in proc.stderr

    @pytest.mark.parametrize(
        "jobs, cpus, expected",
        [("5000", 2, [2]), ("5000", 64, [3]), ("2", 64, [2]), ("5000", None, [])],
    )
    def test_worker_count_is_capped_by_dictionary_sizes_and_cpus(self, tmp_path, monkeypatch, jobs, cpus, expected):
        # one unit of work per dictionary size, whatever the number of sample sizes
        pools, _ = record_pools(monkeypatch)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        config = write_config(tmp_path, RUN_CONFIG.replace("m_grid = 2", "m_grid = 2 3 4"))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out", str(out), "--jobs", jobs, "--quiet"]) == 0
        assert pools == expected
        assert len((out / "results.csv").read_text().splitlines()) == 2 + 6 * 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["workers"] == (expected[0] if expected else 1)

    @pytest.mark.parametrize("n_grid", [(4, 8), (8, 4)], ids=["sorted", "unsorted"])
    def test_largest_dictionary_sizes_are_submitted_first_and_rows_keep_grid_order(
        self, tmp_path, monkeypatch, capsys, n_grid
    ):
        text = RUN_CONFIG.replace("m_grid = 2", "m_grid = 2 4 3").replace("n_grid = 4 8", "n_grid = %d %d" % n_grid)
        config = write_config(tmp_path, text)
        serial = tmp_path / "serial"
        assert cli.main(["run", "--config", config, "--out", str(serial)]) == 0
        serial_stdout = capsys.readouterr().out
        _, submitted = record_pools(monkeypatch)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        pooled = tmp_path / "pooled"
        assert cli.main(["run", "--config", config, "--out", str(pooled), "--jobs", "2"]) == 0
        pooled_stdout = capsys.readouterr().out
        assert submitted == [4, 3, 2]
        rows = (pooled / "results.csv").read_text().splitlines()[2:]
        cells = [tuple(int(v) for v in row.split(",")[:2]) for row in rows]
        grid = [(n, m) for n in n_grid for m in (2, 4, 3)]
        assert cells == [cell for cell in grid for _ in range(3)]
        assert (pooled / "results.csv").read_bytes() == (serial / "results.csv").read_bytes()
        progress = [line for line in pooled_stdout.splitlines() if line.startswith("cell ")]
        assert progress == [f"cell n={n} M={m}: 3 rows" for n, m in grid]
        assert pooled_stdout.replace(str(pooled), "") == serial_stdout.replace(str(serial), "")

    def test_jobs_must_be_positive(self, tmp_path):
        config = write_config(tmp_path, RUN_CONFIG)
        proc = run_cli("run", "--config", config, "--jobs", "0", "--out", str(tmp_path / "o"))
        assert proc.returncode == 2


class TestCheckConditionsCommand:
    def test_verdict_table_and_report_file(self, tmp_path):
        config = write_config(tmp_path, CONDITIONS_CONFIG)
        out = tmp_path / "out"
        proc = run_cli("check-conditions", "--config", config, "--out", str(out), "--quiet")
        assert proc.returncode == 0, proc.stderr
        stdout = proc.stdout
        assert "exp_moment" in stdout and "concavity" in stdout
        assert "criterion inapplicable for squared" in stdout

        lines = (out / "conditions_report.csv").read_text().splitlines()
        assert lines[0].startswith("# digest=")
        assert lines[1] == "loss,beta,check,estimate,std_error,verdict,samples_used"
        assert len(lines) == 2 + 2 * 2
        verdicts = {tuple(line.split(",")[1:3]): line.split(",")[5] for line in lines[2:]}
        assert verdicts[("16", "exp_moment")] == "satisfied"
        assert verdicts[("0.16", "exp_moment")] == "violated"

    def test_a_margin_exponent_is_an_unknown_key(self, tmp_path):
        text = (
            CONDITIONS_CONFIG.replace("family = near_tie", "family = margin_classification\nmargin_exponent = 2")
            .replace("noise_level = 0.5\ntie_gap = 0.01\n", "")
            .replace("loss = squared", "loss = phi_logit2")
        )
        out = tmp_path / "out"
        proc = run_cli("check-conditions", "--config", write_config(tmp_path, text), "--out", str(out), "--quiet")
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: [generator] margin_exponent: unknown key; supported: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, bad, message",
        [
            ("mc_outer = 150", "mc_outer = 50", "config error: [conditions] mc_outer must be at least 100, got 50"),
            ("trials = 1000", "trials = 10", "config error: [conditions] trials must be at least 1000, got 10"),
            ("betas = 16 0.16", "betas = -1", "config error: [conditions] betas must be positive and finite, got -1.0"),
            ("loss = squared", "loss = cubic", "config error: [conditions] loss: unknown loss kind 'cubic'"),
            ("n = 16", "n = 0", "config error: [conditions] n must be at least 1, got 0"),
            ("m = 4", "m = 1", "config error: [conditions] m must be at least 2, got 1"),
            ("loss = squared", "loss = phi_logit2", "config error: [conditions] loss: margin losses require labels"),
        ],
        ids=["mc_outer", "trials", "betas", "loss", "n", "m", "labels"],
    )
    def test_out_of_range_value_is_a_config_error(self, tmp_path, capsys, line, bad, message):
        config = write_config(tmp_path, CONDITIONS_CONFIG.replace(line, bad))
        assert cli.main(["check-conditions", "--config", config, "--quiet"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("override", [(), ("--seed", "-1")], ids=["config", "flag"])
    def test_negative_seed_is_a_config_error_naming_key_and_value(self, tmp_path, capsys, override):
        text = CONDITIONS_CONFIG.replace("seed = 3", "seed = -1") if not override else CONDITIONS_CONFIG
        config = write_config(tmp_path, text)
        assert cli.main(["check-conditions", "--config", config, "--quiet", *override]) == 2
        err = capsys.readouterr().err
        assert "config error: [conditions] seed must be a nonnegative integer, got -1" in err

    def test_margin_loss_prints_nice_beta_line(self, tmp_path):
        config = write_config(
            tmp_path,
            """\
[generator]
family = phi_classification
grid_size = 6

[conditions]
loss = phi_exponential
betas = 2.718281828459045
mc_outer = 120
n = 8
m = 3
seed = 2
""",
        )
        proc = run_cli("check-conditions", "--config", config)
        assert proc.returncode == 0, proc.stderr
        assert "minimal nice temperature for phi_exponential" in proc.stdout
        assert "agrees: True" in proc.stdout


@pytest.mark.parametrize(
    "command, config_text, name, seed",
    [
        ("run", RUN_CONFIG, "results.csv", 11),
        ("check-conditions", CONDITIONS_CONFIG, "conditions_report.csv", 3),
        ("rates", None, "reference_rates.csv", None),
    ],
    ids=["run", "check-conditions", "rates"],
)
def test_manifest_names_the_output_and_its_digest(tmp_path, command, config_text, name, seed):
    inputs = ["--config", write_config(tmp_path, config_text)] if config_text else ["--n", "10", "--m", "2"]
    out = tmp_path / "out"
    assert cli.main([command, *inputs, "--out", str(out), "--quiet"]) == 0
    digest_line = (out / name).read_text().splitlines()[0]
    manifest = json.loads((out / "manifest.json").read_text())
    assert digest_line == f"# digest={manifest['digest']}"
    assert manifest["outputs"] == [str(out / name)]
    assert manifest["master_seed"] == seed


POOL_MODULES_SCRIPT = """\
import sys
import mirroragg, mirroragg.cli as cli
run_config, conditions_config, out = sys.argv[1:]
assert cli.main(["run", "--config", run_config, "--out", out + "/run", "--jobs", "1", "--quiet"]) == 0
assert cli.main(["check-conditions", "--config", conditions_config, "--out", out + "/conditions", "--quiet"]) == 0
assert cli.main(["rates", "--n", "10", "--m", "2", "--out", out + "/rates", "--quiet"]) == 0
pool_modules = ("multiprocessing", "concurrent.futures.process")
print(*[name in sys.modules for name in pool_modules])
import concurrent.futures
concurrent.futures.ProcessPoolExecutor
print(*[name in sys.modules for name in pool_modules])
"""


def test_only_a_run_that_forks_loads_the_process_pool(tmp_path):
    """A ``--jobs 1`` run, ``check-conditions`` and ``rates`` in a fresh interpreter leave the pool unimported.

    The last line shows that looking the pool up does load both modules,
    so the check can see them.
    """
    argv = [write_config(tmp_path, RUN_CONFIG, "run.ini"), write_config(tmp_path, CONDITIONS_CONFIG, "conditions.ini")]
    proc = subprocess.run(
        [sys.executable, "-c", POOL_MODULES_SCRIPT, *argv, str(tmp_path / "out")], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["False False", "True True"]


class TestRatesCommand:
    def test_reference_values(self, tmp_path):
        out = tmp_path / "out"
        proc = run_cli(
            "rates", "--n", "100", "1", "--m", "2", "10", "11", "--kinds", "MS", "C",
            "--out", str(out), "--quiet",
        )
        assert proc.returncode == 0, proc.stderr
        table = {}
        for line in (out / "reference_rates.csv").read_text().splitlines()[2:]:
            n, m, kind, rate = line.split(",")
            table[(int(n), int(m), kind)] = float(rate)
        assert table[(100, 2, "MS")] == pytest.approx(math.log(2) / 100, rel=1e-15)
        assert table[(100, 10, "C")] == pytest.approx(0.1, rel=1e-15)
        assert table[(100, 11, "C")] == pytest.approx(0.0861357849403706, rel=1e-12)
        assert table[(1, 2, "C")] == pytest.approx(math.sqrt(math.log(3)), rel=1e-12)

    def test_version_flag(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip().startswith("mirroragg ")


class TestCanonicalConfig:
    @pytest.mark.parametrize(
        "old, new, error",
        [
            ("loss = phi_logit2", "loss = phi_logit2\ny_bound = 7", "[experiment] y_bound is not read when "),
            ("grid_size = 8", "grid_size = 8\nnoise_level = 0.25", "[generator] noise_level is not read when "),
            # no family reads the margin exponent, not even at its former default
            (
                "family = phi_classification",
                "family = margin_classification\nmargin_exponent = 1",
                "[generator] margin_exponent: unknown key; supported: ",
            ),
            ("grid_size = 8", "grid_size = 8\ntie_gap = 0.5", "[generator] tie_gap is not read when "),
            ("MA LMA ERM", "LMA ERM", None),
        ],
        ids=["y_bound", "noise_level", "margin_exponent", "tie_gap", "ma_beta0"],
    )
    def test_a_key_the_run_does_not_read_is_a_config_error(self, tmp_path, capsys, old, new, error):
        text = MARGIN_CONFIG.replace(old, new)
        if error is None:
            text, error = text + "\n[schedule]\nma_beta0 = 1\n", "[schedule] ma_beta0 is not read when "
        out = tmp_path / "out"
        assert cli.main(["run", "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {error}")
        assert not out.exists()

    @pytest.mark.parametrize("family", ["bounded_regression", "near_tie"])
    def test_a_margin_loss_on_a_regression_family_is_a_config_error(self, tmp_path, capsys, family):
        """Real-valued labels never fit a margin loss, so ``run`` exits 2 before any dictionary size runs."""
        out = tmp_path / "out"
        config = write_config(tmp_path, MARGIN_CONFIG.replace("phi_classification", family))
        assert cli.main(["run", "--config", config, "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "config error: [experiment] loss: margin losses require labels in {-1, +1}; "
            f"the {family} family draws real labels\n"
        )
        assert not out.exists()

    def test_an_unread_key_is_reported_before_a_value_error(self, tmp_path, capsys):
        text = MARGIN_CONFIG.replace("grid_size = 8", "grid_size = 0\ntie_gap = 0.5").replace("= 20", "= 0")
        assert cli.main(["run", "--config", write_config(tmp_path, text), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("config error: [generator] tie_gap is not read when ")

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (
                "seed = 11",
                "seed = 11\n\n[schedule]\nlma_beta = -1",
                "[schedule] lma_beta must be positive and finite, got -1.0",
            ),
            ("replications = 5", "replications = 0", "[experiment] replications must be at least 1, got 0"),
            ("seed = 11", "seed = -1", "[experiment] seed must be a nonnegative integer, got -1"),
            ("algorithms = MA LMA ERM", "algorithms = MA XX", "[experiment] algorithms: unknown algorithms ['XX']"),
        ],
        ids=["lma_beta", "replications", "seed", "algorithms"],
    )
    def test_an_experiment_value_error_names_its_section_and_key(self, tmp_path, capsys, old, new, message):
        config = write_config(tmp_path, RUN_CONFIG.replace(old, new))
        assert cli.main(["run", "--config", config, "--quiet", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize(
        "old, new",
        [
            ("loss = squared", "loss = squared\ny_bound = 1.0"),
            ("loss = squared", "loss = squared\ny_bound = 1"),
            ("grid_size = 16", ""),
            ("n_grid = 32 128 512 2048", "n_grid = 32, 128,512   2048"),
            ("seed = 424243", "seed = 424243\n\n[schedule]\nma_schedule = sqrt_growth"),
            ("seed = 424243", "seed = 424243\n\n[conditions]\nloss = phi_hinge\nbetas = 1\nseed = 3"),
        ],
        ids=["y_bound", "y_bound_int", "grid_size", "separators", "ma_schedule", "conditions_section"],
    )
    def test_one_configuration_has_one_digest(self, tmp_path, old, new):
        assert ACCEPTANCE_CONFIG.count(old) == 1
        base = run_digest(tmp_path, ACCEPTANCE_CONFIG)
        assert run_digest(tmp_path, ACCEPTANCE_CONFIG.replace(old, new), name="b.ini") == base

    @pytest.mark.parametrize(
        "old, new",
        [
            ("replications = 1000", "replications = 999"),
            ("seed = 424243", "seed = 424243\n\n[schedule]\nlma_beta = 16"),
            ("seed = 424243", "seed = 424243\n\n[schedule]\nma_beta0 = 2"),
        ],
        ids=["replications", "lma_beta", "ma_beta0"],
    )
    def test_a_value_that_is_not_the_default_moves_the_digest(self, tmp_path, old, new):
        """An explicit ``lma_beta = 16`` is another configuration, though squared loss defaults to 16 here."""
        base = run_digest(tmp_path, ACCEPTANCE_CONFIG)
        assert run_digest(tmp_path, ACCEPTANCE_CONFIG.replace(old, new), name="b.ini") != base

    def test_a_seed_override_is_hashed_as_the_seed(self, tmp_path):
        overridden = run_digest(tmp_path, RUN_CONFIG, seed=12)
        assert overridden == run_digest(tmp_path, RUN_CONFIG.replace("seed = 11", "seed = 12"), name="b.ini")
        assert overridden != run_digest(tmp_path, RUN_CONFIG)

    @pytest.mark.parametrize(
        "command, text, seed_line, name",
        [
            ("run", RUN_CONFIG, "seed = 11\n", "results.csv"),
            ("check-conditions", CONDITIONS_CONFIG, "seed = 3\n", "conditions_report.csv"),
        ],
        ids=["run", "check-conditions"],
    )
    def test_the_seed_flag_stands_in_for_a_missing_seed_key(self, tmp_path, command, text, seed_line, name):
        digests = []
        for label, config_text, flag in (
            ("a", text.replace(seed_line, ""), ["--seed", "7"]),
            ("b", text.replace(seed_line, "seed = 7\n"), []),
        ):
            out = tmp_path / label
            config = write_config(tmp_path, config_text, f"{label}.ini")
            assert cli.main([command, "--config", config, "--out", str(out), "--quiet", *flag]) == 0
            digests.append((out / name).read_text().splitlines()[0])
        assert digests[0] == digests[1]

    def test_a_section_check_conditions_does_not_read_leaves_its_digest(self, tmp_path):
        digests = []
        for name, text in (("a", CONDITIONS_CONFIG), ("b", CONDITIONS_CONFIG + "\n[experiment]\nseed = 5\n")):
            out = tmp_path / name
            config = write_config(tmp_path, text, f"{name}.ini")
            assert cli.main(["check-conditions", "--config", config, "--out", str(out), "--quiet"]) == 0
            digests.append((out / "conditions_report.csv").read_text().splitlines()[0])
        assert digests[0] == digests[1]

    def test_the_readme_run_config_hashes_its_written_default_as_omitted(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert block.count("y_bound = 1.0\n") == 1
        config, _ = cli.load_run_config(write_config(tmp_path, block))
        assert (config.generator.family, config.loss.kind) == ("bounded_regression", "squared")
        assert run_digest(tmp_path, block) == run_digest(tmp_path, block.replace("y_bound = 1.0\n", ""), name="b.ini")


# one value per [generator] key, each unlike its default
CHANGED = {"grid_size": 5, "noise_level": 0.25, "tie_gap": 0.02}


def instance_of(genspec):
    dist, dictionary = generate_instance(genspec, 4, 17)
    return dist.atoms, dictionary.values


@pytest.mark.parametrize("key", sorted(CHANGED))
@pytest.mark.parametrize("family", FAMILIES)
def test_a_generator_key_is_read_exactly_when_it_changes_the_instance(tmp_path, family, key):
    """The config accepts a key for a family if and only if ``generate_instance`` reads it there."""
    loss = "squared" if family in ("bounded_regression", "near_tie") else "phi_logit2"
    text = MARGIN_CONFIG.replace("phi_classification", family).replace("phi_logit2", loss)
    config_path = write_config(tmp_path, text.replace("grid_size = 8", f"{key} = {CHANGED[key]}"))
    try:
        config, _ = cli.load_run_config(config_path)
        read = True
    except cli.ConfigError as exc:
        assert str(exc).startswith(f"[generator] {key} is not read when [generator] family = {family}; ")
        read = False
    changed = GeneratorSpec(family, **{key: CHANGED[key]})
    assert not read or config.generator == changed
    (atoms, values), (base_atoms, base_values) = instance_of(changed), instance_of(GeneratorSpec(family))
    same = atoms == base_atoms and np.array_equal(values, base_values)
    assert same != read
