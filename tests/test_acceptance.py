"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the table.  The
first three criteria and the golden-result comparison share one benchmark
run (12 grid cells at 1000 replications); everything else builds its own
fixtures inline.
"""

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mirroragg import (
    ExperimentConfig,
    FiniteDistribution,
    GeneratorSpec,
    LabeledSample,
    LossSpec,
    Schedule,
    TabularDictionary,
    c_oracle,
    check_exp_map_concavity,
    check_nice_loss,
    erm_select,
    exact_risk,
    fit_rate_slope,
    generate_instance,
    gibbs_map,
    loss_gradient_theta,
    loss_value,
    minimal_nice_beta,
    mixture_value,
    ms_oracle,
    run_dictionary_size,
    verify_bound,
)
from mirroragg.cli import rows_to_csv
from mirroragg.losses import loss_values
from mirroragg.oracles import atom_design

SQUARED = LossSpec("squared", y_bound=1.0)
EXPONENTIAL = LossSpec("phi_exponential")
HINGE = LossSpec("phi_hinge")

BENCHMARK = ExperimentConfig(
    generator=GeneratorSpec(family="bounded_regression", grid_size=16, noise_level=0.25),
    n_grid=(32, 128, 512, 2048),
    m_grid=(2, 8, 32),
    replications=1000,
    algorithms=("MA", "LMA", "ERM"),
    loss=SQUARED,
    master_seed=424243,
)

GOLDEN_RESULTS = Path(__file__).parent / "data" / "acceptance_results.csv"
NUMERIC_FIELDS = ("mean_excess", "stderr", "oracle_value", "bound_value")

PARALLEL_CONFIG = """\
[generator]
family = bounded_regression
grid_size = 8
noise_level = 0.25

[experiment]
n_grid = 8 16
m_grid = 2 4
replications = 20
algorithms = MA LMA ERM
loss = squared
seed = 99
"""


def report(number, ok, detail):
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def benchmark_rows():
    # one pass per dictionary size, its rows put back in the grid order of results.csv
    per_size = {m: run_dictionary_size(BENCHMARK, m) for m in BENCHMARK.m_grid}
    return [row for n in BENCHMARK.n_grid for m in BENCHMARK.m_grid for row in per_size[m] if row.n == n]


def classification_instance(key, m, k, scale=1.0):
    rng = np.random.default_rng(key)
    values = rng.uniform(-scale, scale, (m, k))
    eta = rng.uniform(0.1, 0.9, k)
    atoms = []
    for x in range(k):
        atoms.append((LabeledSample(x, 1.0), float(eta[x]) / k))
        atoms.append((LabeledSample(x, -1.0), float(1.0 - eta[x]) / k))
    return FiniteDistribution(atoms), TabularDictionary(values)


def test_benchmark_rows_match_golden_results(benchmark_rows):
    """The benchmark grid reproduces the checked-in ``results.csv``.

    Numeric fields agree to a relative 1e-12 (libm and BLAS may move the
    last digits between machines); every other field agrees exactly.
    """
    golden = list(csv.DictReader(GOLDEN_RESULTS.read_text().splitlines()[1:]))
    produced = list(csv.DictReader(rows_to_csv(benchmark_rows, "").splitlines()[1:]))
    assert len(produced) == len(golden) == 36
    for got, want in zip(produced, golden):
        for field, expected in want.items():
            if field in NUMERIC_FIELDS and expected:
                assert math.isclose(float(got[field]), float(expected), rel_tol=1e-12, abs_tol=0.0), (field, got, want)
            else:
                assert got[field] == expected, (field, got, want)


def test_criterion_01_selection_bound_holds_in_every_cell(benchmark_rows):
    check = verify_bound(benchmark_rows, "lma")
    ok = check.checked == 12 and check.fraction_passed == 1.0
    report(1, ok, f"linearized excess within beta*lnM/(n+1) in {round(check.fraction_passed * check.checked)}/{check.checked} cells")


def test_criterion_02_convex_bound_holds_in_every_cell(benchmark_rows):
    check = verify_bound(benchmark_rows, "ma")
    ok = check.checked == 12 and check.fraction_passed == 1.0
    report(2, ok, f"gradient excess within 2*sqrt(Qstar*lnM/n) in {round(check.fraction_passed * check.checked)}/{check.checked} cells")


def test_criterion_03_rate_slopes_in_expected_windows(benchmark_rows):
    lma = fit_rate_slope([r for r in benchmark_rows if r.algorithm == "LMA" and r.m == 8])
    ma = fit_rate_slope([r for r in benchmark_rows if r.algorithm == "MA" and r.m == 32])
    ok = -1.2 <= lma.slope <= -0.8 and -0.7 <= ma.slope <= -0.3
    report(
        3,
        ok,
        f"LMA slope {lma.slope:+.3f} in [-1.2, -0.8], MA slope {ma.slope:+.3f} in [-0.7, -0.3]",
    )


def test_criterion_04_boosting_temperature_and_concavity():
    computed = minimal_nice_beta("phi_exponential")
    beta_ok = abs(computed - math.e) <= 1e-6

    violations = 0
    for i in range(50):
        spec = GeneratorSpec(family="phi_classification", grid_size=8)
        dist, dictionary = generate_instance(spec, m=6, seed=1000 + i)
        verdict = check_exp_map_concavity(EXPONENTIAL, dictionary, dist, beta=math.e, seed=i)
        if verdict.verdict != "satisfied":
            violations += 1

    control_dict = TabularDictionary(np.array([[1.0], [-1.0]]))
    control_dist = FiniteDistribution([(LabeledSample(0, 1.0), 1.0)])
    control = check_exp_map_concavity(EXPONENTIAL, control_dict, control_dist, beta=0.1, seed=0)
    control_ok = control.verdict == "violated" and control.witness is not None

    ok = beta_ok and violations == 0 and control_ok
    report(
        4,
        ok,
        f"minimal temperature {computed:.9f} (=e within 1e-6), {violations}/50 concavity "
        f"violations at beta=e, negative control at beta=0.1: {control.verdict}",
    )


def test_criterion_05_hinge_oracles_coincide():
    worst = 0.0
    for i in range(50):
        m = 2 + i % 5
        k = 3 + i % 3
        dist, dictionary = classification_instance([777, i], m, k)
        ms = ms_oracle(dictionary, HINGE, dist)
        convex = c_oracle(dictionary, HINGE, dist)
        worst = max(worst, abs(ms.risk_value - convex.risk_value))
    ok = worst <= 1e-8
    report(5, ok, f"max |R_MS - R_C| = {worst:.3e} over 50 instances (tolerance 1e-8)")


def _grid_weights(m, step=1000):
    if m == 2:
        t = np.linspace(0.0, 1.0, step + 1)
        return np.column_stack([t, 1.0 - t])
    ii, jj = np.meshgrid(np.arange(step + 1), np.arange(step + 1), indexing="ij")
    mask = ii + jj <= step
    a = ii[mask]
    b = jj[mask]
    return np.column_stack([a, b, step - a - b]) / step


def _grid_min_risk(spec, dictionary, dist, grid):
    design = atom_design(dictionary, spec, dist)
    best = np.inf
    for lo in range(0, len(grid), 100_000):
        block = grid[lo : lo + 100_000]
        losses = loss_values(spec.kind, dist.ys[None, :], block @ design.T)
        best = min(best, float((losses @ dist.ps).min()))
    return best


def _equivalence_instance(i):
    rng = np.random.default_rng([888, i])
    m = 2 if i % 2 == 0 else 3
    k = 3 + i % 2
    values = rng.uniform(-0.5, 0.5, (m, k))
    if i < 50:
        spec = SQUARED
        ys = rng.uniform(-0.5, 0.5, k)
        ps = rng.dirichlet(np.ones(k))
        atoms = [(LabeledSample(x, float(ys[x])), float(ps[x])) for x in range(k)]
        return spec, FiniteDistribution(atoms), TabularDictionary(values)
    spec = EXPONENTIAL if i < 75 else LossSpec("phi_logit2")
    eta = rng.uniform(0.1, 0.9, k)
    atoms = []
    for x in range(k):
        atoms.append((LabeledSample(x, 1.0), float(eta[x]) / k))
        atoms.append((LabeledSample(x, -1.0), float(1.0 - eta[x]) / k))
    return spec, FiniteDistribution(atoms), TabularDictionary(values)


def test_criterion_06_convex_oracle_matches_grid_search():
    grids = {2: _grid_weights(2), 3: _grid_weights(3)}
    worst = 0.0
    for i in range(100):
        spec, dist, dictionary = _equivalence_instance(i)
        convex = c_oracle(dictionary, spec, dist)
        grid_min = _grid_min_risk(spec, dictionary, dist, grids[dictionary.size])
        worst = max(worst, abs(convex.risk_value - grid_min))

        vertex = [exact_risk(j, dictionary, spec, dist) for j in range(dictionary.size)]
        ms = ms_oracle(dictionary, spec, dist)
        assert ms.risk_value == min(vertex)
        assert ms.minimizer == int(np.argmin(vertex))

        rng = np.random.default_rng([999, i])
        data = [dist.atoms[t][0] for t in dist.sample_indices(rng, 20)]
        selected, _ = erm_select(data, spec, dictionary)
        sums = [
            sum(loss_value(spec, z, dictionary.values_at(z.x)[j]) for z in data)
            for j in range(dictionary.size)
        ]
        assert selected == int(np.argmin(sums))
    ok = worst <= 1e-6
    report(6, ok, f"max |c_oracle - grid minimum| = {worst:.3e} over 100 instances (tolerance 1e-6)")


def test_criterion_07_numerical_core_properties():
    rng = np.random.default_rng(2024)
    worst_norm = 0.0
    worst_shift = 0.0
    scales = (1.0, 10.0, 1000.0)
    for i in range(100_000):
        z = rng.normal(0.0, scales[i % 3], 2 + i % 8)
        beta = float(np.exp(rng.uniform(-3.0, 3.0)))
        theta = gibbs_map(z, beta)
        worst_norm = max(worst_norm, abs(float(theta.sum()) - 1.0))
        assert theta.min() >= 0.0
        shift = float(rng.normal(0.0, 100.0))
        shifted = gibbs_map(z + shift, beta)
        worst_shift = max(worst_shift, float(np.max(np.abs(shifted - theta))))

    worst_fd = 0.0
    h = 1e-5
    for code, spec in enumerate((SQUARED, EXPONENTIAL, LossSpec("phi_logit2"))):
        for i in range(100):
            inst_rng = np.random.default_rng([999, code, i])
            m = 2 + i % 6
            dictionary = TabularDictionary(inst_rng.uniform(-1.0, 1.0, (m, 1)))
            y = float(inst_rng.uniform(-1.0, 1.0)) if spec.kind == "squared" else float(inst_rng.choice([-1.0, 1.0]))
            z = LabeledSample(0, y)
            theta = 0.8 * inst_rng.dirichlet(np.ones(m)) + 0.2 / m
            grad = loss_gradient_theta(spec, dictionary, z, theta)

            def q(weights):
                return loss_value(spec, z, mixture_value(weights, dictionary, 0))

            for j in range(m):
                for k in range(j + 1, m):
                    d = np.zeros(m)
                    d[j], d[k] = 1.0, -1.0
                    fd = (q(theta + h * d) - q(theta - h * d)) / (2.0 * h)
                    analytic = float(grad @ d)
                    worst_fd = max(worst_fd, abs(fd - analytic) / max(1.0, abs(analytic)))

    ok = worst_norm <= 1e-12 and worst_shift <= 1e-12 and worst_fd <= 1e-6
    report(
        7,
        ok,
        f"softmin normalization {worst_norm:.2e}, shift deviation {worst_shift:.2e} "
        f"(tolerance 1e-12); gradient vs finite differences {worst_fd:.2e} (tolerance 1e-6)",
    )


def test_criterion_08_parallel_run_is_byte_identical(tmp_path):
    config = tmp_path / "config.ini"
    config.write_text(PARALLEL_CONFIG)
    outputs = []
    for jobs in ("1", "8"):
        out = tmp_path / f"jobs{jobs}"
        proc = subprocess.run(
            [sys.executable, "-m", "mirroragg", "run", "--config", str(config),
             "--out", str(out), "--jobs", jobs, "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "results.csv").read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    report(8, ok, f"--jobs 1 and --jobs 8 result files identical ({len(outputs[0])} bytes)")


def test_criterion_09_moment_checker_discriminates():
    dist, dictionary = generate_instance(BENCHMARK.generator, 8, BENCHMARK.master_seed)
    good = check_nice_loss(SQUARED, dictionary, dist, beta=16.0, n=64, mc_outer=10_000, seed=424243)

    adversarial = GeneratorSpec(family="near_tie", grid_size=4, noise_level=0.5, tie_gap=0.01)
    tie_dist, tie_dict = generate_instance(adversarial, 8, BENCHMARK.master_seed)
    bad = check_nice_loss(SQUARED, tie_dict, tie_dist, beta=0.16, n=64, mc_outer=10_000, seed=424243)

    ok = good.verdict == "satisfied" and bad.verdict != "satisfied"
    report(
        9,
        ok,
        f"benchmark at beta=16: {good.verdict} ({good.estimate:+.2e}); "
        f"adversarial at beta=0.16: {bad.verdict} ({bad.estimate:+.2e})",
    )


def test_criterion_10_selector_mixture_table():
    config = ExperimentConfig(
        generator=GeneratorSpec(family="near_tie", grid_size=4, noise_level=0.5, tie_gap=0.01),
        n_grid=(32, 128, 512, 2048),
        m_grid=(8,),
        replications=400,
        algorithms=("LMA", "ERM"),
        loss=SQUARED,
        master_seed=424243,
    )
    rows = run_dictionary_size(config, 8)
    by_cell = {(r.n, r.algorithm): r for r in rows}

    print("near-tie ladder, M=8: selection-oracle excess by sample size (exploratory)")
    print(f"{'n':>6} {'LMA':>12} {'ERM':>12} {'ratio ERM/LMA':>14}")
    for n in config.n_grid:
        lma, erm = by_cell[(n, "LMA")], by_cell[(n, "ERM")]
        ratio = erm.mean_excess / lma.mean_excess if lma.mean_excess > 0 else float("nan")
        print(f"{n:>6} {lma.mean_excess:>12.3e} {erm.mean_excess:>12.3e} {ratio:>14.2f}")

    ok = len(rows) == 8 and all(math.isfinite(r.mean_excess) for r in rows)
    report(10, ok, "side-by-side selector/mixture excess table produced (no threshold attached)")
