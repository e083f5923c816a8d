"""Every random stream of a run and of a condition check is its own stream.

numpy's ``SeedSequence`` ignores trailing zero words, so ``[5, 1, 8]`` and
``[5, 1, 8, 0]`` seed the same generator, as do ``5`` and ``[5, 0]``.
Two keys that differ only so are one stream.  The tests record every key
passed to ``numpy.random.default_rng`` by a small ``run`` and a small
``check-conditions`` and compare the first draw of each stream.
"""

import ast
import inspect

import numpy as np
import pytest

from mirroragg import cli, experiments
from mirroragg import conditions as checkers

# n = 1 and n = 2 equal the family codes of bounded_regression and
# phi_classification, where a replicate key holding n met the instance key
RUN_CONFIG = """\
[generator]
family = bounded_regression
grid_size = 4
noise_level = 0.25

[experiment]
n_grid = 1 2 3 4
m_grid = 2 3
replications = 3
algorithms = MA LMA ERM
loss = squared
seed = 7
"""

# the same seed, family and dictionary size as one of the run's instances
CONDITIONS_CONFIG = """\
[generator]
family = bounded_regression
grid_size = 4
noise_level = 0.25

[conditions]
loss = squared
betas = 16
n = 4
m = 2
mc_outer = 100
trials = 1000
seed = 7
"""


def stream_keys(monkeypatch, tmp_path, command, text):
    """The distinct keys ``command`` seeds its generators with, in first-use order."""
    real = np.random.default_rng
    keys = []

    def recording(seed=None):
        key = tuple(int(word) for word in np.atleast_1d(seed))
        if key not in keys:
            keys.append(key)
        return real(seed)

    config = tmp_path / f"{command}.ini"
    config.write_text(text)
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording)
        assert cli.main([command, "--config", str(config), "--quiet"]) == 0
    return keys


def first_draw(key):
    return np.random.default_rng(list(key)).bit_generator.random_raw()


@pytest.fixture
def keys(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    run = stream_keys(monkeypatch, tmp_path, "run", RUN_CONFIG)
    conditions = stream_keys(monkeypatch, tmp_path, "check-conditions", CONDITIONS_CONFIG)
    return run, conditions


def test_every_stream_of_a_run_is_its_own_and_none_is_a_condition_check_stream(keys):
    run, conditions = keys
    draws = {key: first_draw(key) for key in run}
    assert len(set(draws.values())) == len(run)
    # two instances, and three replicate streams per dictionary size
    assert len(run) == 2 + 2 * 3
    shared = [
        (key, other)
        for key in run
        for other in conditions
        if key != other and draws[key] == first_draw(other)
    ]
    assert shared == []


def test_every_stream_of_a_condition_check_is_its_own(keys):
    _, conditions = keys
    draws = [first_draw(key) for key in conditions]
    assert len(set(draws)) == len(conditions)


def literal_constants(module):
    """The module-level names of ``module`` assigned a literal, with their values."""
    found = {}
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            try:
                found[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    return found


def test_the_purpose_words_are_fixed_literals_and_pairwise_distinct():
    """A family's code and the replicate tag are written out, not computed from the family list.

    Were they computed from it, a new family would re-key every replicate
    stream, and a fifth family would make the replicate tag 6, the moment
    stream's tag: replicate 0 of size M, ``[seed, 6, M, 0]``, and the
    moment stream's replicate M, ``[seed, 6, M]``, would seed one generator.
    """
    words, checks = literal_constants(experiments), literal_constants(checkers)
    codes = words["_FAMILY_CODES"]
    assert codes == {"bounded_regression": 1, "phi_classification": 2, "margin_classification": 3, "near_tie": 4}
    assert codes == experiments._FAMILY_CODES and tuple(codes) == experiments.FAMILIES
    tags = (words["_REPLICATE_TAG"], checks["_MOMENT_TAG"], checks["_CONCAVITY_TAG"])
    assert tags == (experiments._REPLICATE_TAG, checkers._MOMENT_TAG, checkers._CONCAVITY_TAG) == (5, 6, 7)
    assert len({*codes.values(), *tags}) == len(codes) + len(tags)
