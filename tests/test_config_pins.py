"""Result rows of small configs outside the golden acceptance grid, pinned per platform.

The golden rows pin bounded_regression under squared loss only.  Each
config here is a short ``run_dictionary_size`` pass whose ``results.csv``
lines are kept in ``tests/data/config_pins.json`` with the
``tests/platform_key.py`` key they were written under.  The
margin_classification run under phi_logit2 is there because a one-ulp move
of one of its dictionary values (arm 1 at grid point 0) changes MA and LMA
rows of that run and of no other pinned output.
"""

import json
from pathlib import Path

import pytest

from mirroragg import ExperimentConfig, GeneratorSpec, LossSpec, run_dictionary_size
from mirroragg.cli import rows_to_csv
from platform_key import assert_rows_match, platform_key

PINS = Path(__file__).parent / "data" / "config_pins.json"

CONFIGS = {
    "margin_classification phi_logit2": ExperimentConfig(
        generator=GeneratorSpec("margin_classification", grid_size=16),
        n_grid=(16, 64, 256),
        m_grid=(2, 8),
        replications=20,
        algorithms=("MA", "LMA", "ERM"),
        loss=LossSpec("phi_logit2"),
        master_seed=424243,
    ),
}


def result_lines(config: ExperimentConfig) -> list:
    """The header and rows of ``results.csv`` for ``config``: every line but the digest."""
    rows = [row for m in config.m_grid for row in run_dictionary_size(config, m)]
    return rows_to_csv(rows, "").splitlines()[1:]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_rows_match_their_pins(name):
    pins = json.loads(PINS.read_text())
    assert_rows_match(result_lines(CONFIGS[name]), pins["rows"][name], pins["platform"], f"{name} pins")


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_config_pins.py rewrites the pins from the current code
    rows = {name: result_lines(config) for name, config in sorted(CONFIGS.items())}
    PINS.write_text(json.dumps({"platform": platform_key(), "rows": rows}, indent=1) + "\n")
