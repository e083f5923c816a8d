"""Result rows of small configs outside the golden acceptance grid, pinned per platform.

The golden rows pin bounded_regression under squared loss only.  Each
config here is a short ``run_dictionary_size`` pass whose ``results.csv``
lines are kept in ``tests/data/config_pins.json`` with the
``tests/platform_key.py`` key they were written under.  Together they run
every other family under each loss it accepts, the hinge loss through LMA
at an explicit temperature and ERM, and MA under a constant schedule.
With R = 20 replicates, M = 2 and 8 fold on the arm-major kernel state
and M = 32 on the row-major one.  A one-ulp move of one of the
margin_classification phi_logit2 run's dictionary values (arm 1 at grid
point 0) changes MA and LMA rows of that run and of no other pinned
output.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from mirroragg import ExperimentConfig, GeneratorSpec, LossSpec, run_dictionary_size
from mirroragg.cli import rows_to_csv
from platform_key import assert_rows_match, platform_key

PINS = Path(__file__).parent / "data" / "config_pins.json"


def _config(family, kind, m_grid=(2, 8), algorithms=("MA", "LMA", "ERM"), **options):
    return ExperimentConfig(
        generator=GeneratorSpec(family, grid_size=16),
        n_grid=(16, 64, 256),
        m_grid=m_grid,
        replications=20,
        algorithms=algorithms,
        loss=LossSpec(kind),
        master_seed=424243,
        **options,
    )


HINGE = {"algorithms": ("LMA", "ERM"), "lma_betas": (0.5,)}

CONFIGS = {
    "margin_classification phi_logit2": _config("margin_classification", "phi_logit2"),
    "margin_classification phi_exponential": _config("margin_classification", "phi_exponential"),
    "margin_classification phi_hinge": _config("margin_classification", "phi_hinge", **HINGE),
    "phi_classification phi_exponential": _config("phi_classification", "phi_exponential", m_grid=(2, 8, 32)),
    "phi_classification phi_logit2": _config("phi_classification", "phi_logit2"),
    "phi_classification phi_hinge": _config("phi_classification", "phi_hinge", **HINGE),
    "near_tie squared": replace(
        _config("near_tie", "squared", ma_schedule="constant"),
        generator=GeneratorSpec("near_tie", grid_size=16, noise_level=0.5, tie_gap=1e-3),
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
