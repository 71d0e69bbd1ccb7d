"""Shared configuration for the paper-shape checks.

Every check regenerates one of the paper's tables or figures at a
scaled-down workload size (override with REPRO_BENCH_SCALE=2, 4, ... for
closer-to-paper populations) and asserts the DESIGN.md shape
expectations: who wins, in which direction, and roughly by how much.
"""

import os

import pytest

from repro.experiments.common import ExperimentConfig


@pytest.fixture(scope="session", autouse=True)
def results_dir(tmp_path_factory):
    """Artefacts land in a session temp directory unless
    ``REPRO_RESULTS_DIR`` names one: the committed ``results/`` are the
    goldens, and a shape check must not rewrite them."""
    if "REPRO_RESULTS_DIR" in os.environ:
        yield os.environ["REPRO_RESULTS_DIR"]
        return
    with pytest.MonkeyPatch.context() as patch:
        path = tmp_path_factory.mktemp("results")
        patch.setenv("REPRO_RESULTS_DIR", str(path))
        yield str(path)


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    return ExperimentConfig.scaled()

