"""Shared fixtures: small synthetic devices and a calibrated module.

Most tests use *synthetic* chips with low flip thresholds so command-level
ACmin searches finish in milliseconds; calibrated-module fixtures (which
run the Table 2 calibration solver) are session-scoped and reused.
"""

from __future__ import annotations

import pytest

from repro.core.experiment import CharacterizationConfig
from repro.core.runner import CharacterizationRunner
from repro.dram.rowselect import RowSelection
from repro.dram.topology import BankGeometry
from repro.system import build_module
from repro.testing import make_synthetic_chip, make_synthetic_model

__all__ = ["make_synthetic_chip", "make_synthetic_model"]


@pytest.fixture(scope="session", autouse=True)
def _no_leaked_fork_state():
    """Fail the session if any fork-state registration outlives its pool.

    The process executor discards its registration in a ``finally``; a
    token still live at teardown pins a whole runner's caches (modules,
    stacked dies, memoized measurements) in the parent process.
    """
    from repro.core.engine import live_fork_tokens

    yield
    leaked = live_fork_tokens()
    assert not leaked, (
        f"fork-state registrations leaked by the test session: {leaked}; "
        f"a process pool's cleanup did not run"
    )


@pytest.fixture
def synthetic_model() -> CalibratedDisturbanceModel:
    return make_synthetic_model()


@pytest.fixture
def synthetic_chip(synthetic_model) -> Chip:
    return make_synthetic_chip(model=synthetic_model)


@pytest.fixture(scope="session")
def fast_config() -> CharacterizationConfig:
    """A small but calibration-complete configuration."""
    return CharacterizationConfig(
        geometry=BankGeometry(rows=2048, cols_simulated=128),
        selection=RowSelection(locations_per_region=12, n_regions=3, stride=8),
        trials=1,
    )


@pytest.fixture(scope="session")
def s0_module(fast_config):
    """Calibrated Samsung S0 module (session-scoped; calibration cached)."""
    return build_module("S0", fast_config)


@pytest.fixture(scope="session")
def m4_module(fast_config):
    """Calibrated Micron M4 module (anti-cell-majority layout)."""
    return build_module("M4", fast_config)


@pytest.fixture(scope="session")
def m1_module(fast_config):
    """Calibrated Micron M1 module (press-immune: RowPress never flips)."""
    return build_module("M1", fast_config)


@pytest.fixture(scope="session")
def fast_runner(fast_config) -> CharacterizationRunner:
    return CharacterizationRunner(fast_config)
