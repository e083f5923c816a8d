"""The public runs fold their sample into one atom per distinct observation.

``ma_run``, ``lma_run`` and ``erm_select`` evaluate the dictionary once
per distinct observation and hand the kernels an index row into that
table.  These tests pin that the folded form gives the same weights, bit
for bit, as the kernels fed one table row per observation, and that the
runs reject every label a distribution would reject, and they pin the
bytes of the runs' outputs on fixed samples.
"""

import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from mirroragg import (
    CallableDictionary,
    LabeledSample,
    LossSpec,
    Schedule,
    TabularDictionary,
    erm_select,
    linearized_loss_vector,
    lma_run,
    loss_gradient_theta,
    loss_value,
    ma_run,
)
from mirroragg.aggregation import erm_totals, lma_weights, ma_weights
from mirroragg.losses import DIFFERENTIABLE_KINDS, LOSS_KINDS
from platform_key import platform_key

BETA = 0.7
SCHEDULE = Schedule.sqrt_growth(0.9)
PINS = Path(__file__).parent / "data" / "public_run_pins.json"


class CountingDictionary(CallableDictionary):
    """Callable dictionary over a table that counts its ``evaluate`` calls."""

    def __init__(self, table):
        super().__init__([lambda x, row=row: float(row[int(x)]) for row in table], range_bound=1.0)
        self.calls = 0

    def evaluate(self, j, x):
        self.calls += 1
        return super().evaluate(j, x)


def repeated_sample(rng, kind, k, n):
    """``n`` draws from at most ``2 k`` distinct observations, so most repeat."""
    xs = rng.integers(k, size=n)
    if kind == "squared":
        ys = rng.choice([-0.5, 0.25], size=n)
    else:
        ys = rng.choice([-1.0, 1.0], size=n)
    return [LabeledSample(int(x), float(y)) for x, y in zip(xs, ys)]


def per_observation_runs(data, spec, dictionary):
    """The kernels fed one table row per observation (``idx = arange(n)``)."""
    n = len(data)
    idx = np.arange(n)[None, :]
    losses = np.stack([linearized_loss_vector(spec, dictionary, z) for z in data])
    totals = erm_totals(idx, losses, (n,))[0][0]
    j = int(np.argmin(totals))
    runs = {"lma": lma_weights(idx, losses, BETA, (n,))[0][0], "erm": (j, float(totals[j] / n))}
    if spec.differentiable:
        design = np.stack([np.asarray(dictionary.values_at(z.x), dtype=float) for z in data])
        ys = np.array([z.y for z in data])
        runs["ma"] = ma_weights(idx, design, ys, spec.kind, SCHEDULE.betas(n), (n,))[0][0]
    return runs


def public_runs(data, spec, dictionary):
    runs = {"lma": lma_run(data, spec, dictionary, BETA)[0], "erm": erm_select(data, spec, dictionary)}
    if spec.differentiable:
        runs["ma"] = ma_run(data, spec, dictionary, SCHEDULE)[0]
    return runs


def assert_same_runs(got, want):
    assert got.keys() == want.keys()
    assert got["erm"] == want["erm"]
    for name in got.keys() - {"erm"}:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("kind", LOSS_KINDS)
@pytest.mark.parametrize("m", [2, 5, 64])
def test_public_runs_equal_the_per_observation_kernels_bit_for_bit(kind, m):
    rng = np.random.default_rng(m)
    table = rng.uniform(-1.0, 1.0, size=(m, 6))
    spec = LossSpec(kind)
    for seed in range(3):
        data = repeated_sample(np.random.default_rng([m, seed]), kind, 6, 200)
        for dictionary in (TabularDictionary(table), CountingDictionary(table)):
            assert_same_runs(public_runs(data, spec, dictionary), per_observation_runs(data, spec, dictionary))


@pytest.mark.parametrize(
    "run",
    [
        lambda data, spec, dic: ma_run(data, spec, dic, SCHEDULE),
        lambda data, spec, dic: lma_run(data, spec, dic, BETA),
        lambda data, spec, dic: erm_select(data, spec, dic),
    ],
    ids=["ma_run", "lma_run", "erm_select"],
)
def test_each_public_run_evaluates_the_dictionary_once_per_distinct_design_point(run):
    m, k = 7, 5
    table = np.random.default_rng(0).uniform(-1.0, 1.0, size=(m, k))
    # each design point carries one label, so distinct observations are distinct design points
    data = [LabeledSample(x, 1.0 if x % 2 else -1.0) for x in np.random.default_rng(1).integers(k, size=300).tolist()]
    distinct = len({z.x for z in data})
    assert distinct < len(data)
    dictionary = CountingDictionary(table)
    run(data, LossSpec("phi_logit2"), dictionary)
    assert dictionary.calls == m * distinct

    # one design point under both labels is two observations and one evaluation
    dictionary = CountingDictionary(table)
    run(data + [LabeledSample(0, 1.0), LabeledSample(0, -1.0)], LossSpec("phi_logit2"), dictionary)
    assert dictionary.calls == m * len({z.x for z in data} | {0})


def test_unhashable_design_points_run_and_give_the_same_weights():
    rng = np.random.default_rng(5)
    m, dim = 4, 3
    w = rng.uniform(-1.0, 1.0, size=(m, dim))
    points = rng.uniform(-1.0, 1.0, size=(6, dim))
    dictionary = CallableDictionary(
        [lambda x, wj=wj: math.tanh(float(np.dot(wj, x))) for wj in w], range_bound=1.0
    )
    draws = rng.integers(len(points), size=150)
    labels = rng.choice([-1.0, 1.0], size=150)
    arrays = [LabeledSample(points[i], float(y)) for i, y in zip(draws, labels)]
    tuples = [LabeledSample(tuple(points[i].tolist()), float(y)) for i, y in zip(draws, labels)]
    for kind in LOSS_KINDS:
        spec = LossSpec(kind)
        want = per_observation_runs(arrays, spec, dictionary)
        assert_same_runs(public_runs(arrays, spec, dictionary), want)
        assert_same_runs(public_runs(tuples, spec, dictionary), want)


@pytest.mark.parametrize("kind", ["phi_exponential", "phi_logit2", "phi_hinge"])
def test_a_bad_margin_label_still_raises(kind):
    data = [LabeledSample(0, 1.0), LabeledSample(1, 0.5), LabeledSample(0, 1.0)]
    dictionary = TabularDictionary(np.array([[0.5, -0.5], [0.25, 0.75]]))
    spec = LossSpec(kind)
    runs = [lambda: lma_run(data, spec, dictionary, BETA), lambda: erm_select(data, spec, dictionary)]
    if kind in DIFFERENTIABLE_KINDS:
        runs.append(lambda: ma_run(data, spec, dictionary, SCHEDULE))
    for run in runs:
        with pytest.raises(ValueError, match=r"labels in \{-1, \+1\}, got \[0\.5\]"):
            run()


def test_margin_values_outside_the_unit_range_warn_once_per_run():
    dictionary = TabularDictionary(np.array([[1.5, -0.5], [0.25, 0.75]]), range_bound=2.0)
    data = [LabeledSample(0, 1.0), LabeledSample(1, -1.0), LabeledSample(0, 1.0)]
    with pytest.warns(UserWarning, match=r"\|f\|=1\.5 > 1") as record:
        lma_run(data, LossSpec("phi_logit2"), dictionary, BETA)
    assert len(record) == 1


@pytest.mark.parametrize(
    "beta, message",
    [
        ([1.0, 1.0, -1.0, 1.0], r"beta_at\(3\) must be positive"),
        ([1.0, math.inf, 1.0, 1.0], r"beta_at\(2\) must be positive and finite, got np.float64\(inf\)"),
        ([1.0, 0.0, math.nan, -1.0], r"beta_at\(2\) must be positive and finite, got np.float64\(0.0\)"),
    ],
)
def test_schedule_betas_report_the_first_bad_step(beta, message):
    schedule = Schedule(beta_at=lambda i: beta[i - 1])
    with pytest.raises(ValueError, match=message):
        schedule.betas(4)


def test_schedule_betas_are_the_per_step_values():
    betas = Schedule.sqrt_growth(0.5).betas(5)
    assert betas.tolist() == [0.5 * math.sqrt(i) for i in range(1, 6)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.5])
def test_squared_labels_a_distribution_would_reject_raise(bad):
    spec = LossSpec("squared", y_bound=1.0)
    data = [LabeledSample(0, 0.5), LabeledSample(1, bad), LabeledSample(0, 0.5)]
    dictionary = TabularDictionary(np.array([[0.5, -0.5], [0.25, 0.75]]))
    runs = [
        lambda: ma_run(data, spec, dictionary, SCHEDULE),
        lambda: lma_run(data, spec, dictionary, BETA),
        lambda: erm_select(data, spec, dictionary),
        lambda: loss_value(spec, data[1], 0.5),
        lambda: loss_gradient_theta(spec, dictionary, data[1], [0.5, 0.5]),
        lambda: linearized_loss_vector(spec, dictionary, data[1]),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="labels exceed declared y_bound 1.0"):
            run()


def test_squared_labels_on_the_declared_bound_are_accepted():
    spec = LossSpec("squared", y_bound=2.0)
    data = [LabeledSample(0, 2.0), LabeledSample(1, -2.0)]
    dictionary = TabularDictionary(np.array([[0.5, -0.5], [0.25, 0.75]]))
    theta, _ = lma_run(data, spec, dictionary, BETA)
    assert np.isfinite(theta).all()
    assert loss_value(spec, data[0], 0.5) == 2.25


def numpy_platform() -> dict:
    """The numpy fields of the platform key: the public runs' bytes depend on no others."""
    key = platform_key()
    return {field: key[field] for field in ("numpy", "numpy_simd")}


def pinned_runs() -> dict:
    """Each public run's output on a fixed sample as a float64 array, keyed ``"run kind dictionary"``.

    The samples and the table come from ``Generator.random`` alone, so they
    are the same on every platform.  ERM's output is ``[index, value]``.
    """
    m, k, n = 12, 9, 300
    rng = np.random.default_rng(2701)
    table = 2.0 * rng.random((m, k)) - 1.0
    xs = (rng.random(n) * k).astype(int).tolist()
    coins = rng.random(n)
    outputs = {}
    for kind in LOSS_KINDS:
        ys = np.where(coins < 0.5, -0.5, 0.75) if kind == "squared" else np.where(coins < 0.5, -1.0, 1.0)
        data = [LabeledSample(x, float(y)) for x, y in zip(xs, ys)]
        spec = LossSpec(kind)
        for name, dictionary in (("tabular", TabularDictionary(table)), ("callable", CountingDictionary(table))):
            runs = public_runs(data, spec, dictionary)
            runs["erm"] = np.array(runs["erm"], dtype=float)
            for run, output in runs.items():
                outputs[f"{run} {kind} {name}"] = np.asarray(output, dtype="<f8")
    return outputs


def test_public_runs_match_their_pinned_bytes():
    """``ma_run``/``lma_run`` weights and ``erm_select``'s ``(index, value)`` on fixed samples.

    The runs make no BLAS call, so their platform is numpy's part of
    ``tests/platform_key.py``: its version and enabled SIMD targets.  On the
    platform the pins were written on each output hashes to its pinned
    sha256, whatever the OpenBLAS kernels.  Elsewhere numpy's SIMD loops
    may move last digits, so outputs agree with the pinned values to a
    relative 1e-12.
    """
    pins = json.loads(PINS.read_text())
    got = pinned_runs()
    assert got.keys() == pins["runs"].keys()
    here = numpy_platform()
    if here == pins["platform"]:
        for key, output in got.items():
            assert hashlib.sha256(output.tobytes()).hexdigest() == pins["runs"][key]["sha256"], key
        return
    warnings.warn(f"public-run pins written on {pins['platform']}, running on {here}: compared at relative 1e-12")
    for key, output in got.items():
        np.testing.assert_allclose(output, pins["runs"][key]["values"], rtol=1e-12, atol=0.0, err_msg=key)


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_public_runs.py rewrites the pins from the current code
    runs = {key: {"sha256": hashlib.sha256(out.tobytes()).hexdigest(), "values": out.tolist()} for key, out in pinned_runs().items()}
    PINS.write_text(json.dumps({"platform": numpy_platform(), "runs": runs}, indent=1) + "\n")
