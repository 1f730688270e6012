"""Cross-validation: the command-level path agrees with the closed form.

The closed-form fast path (repro.core.acmin) and the DRAM Bender
interpreter path (repro.core.honest) must measure the same ACmin -- the
only allowed slack is a few activations from boundary semantics (the very
first activation of a single-sided loop is not yet a same-row re-open,
and initialization writes deposit one stray kick on the outer-lo victim).
"""

import math

import numpy as np
import pytest

from repro.bender.softmc import SoftMCSession
from repro.core.acmin import analyze_die, pattern_footprint
from repro.core.honest import HonestLocationProbe, measure_location_honest
from repro.core.stacked import build_stacked_die
from repro.dram.datapattern import CHECKERBOARD, ROW_STRIPE
from repro.dram.profiles import MODULE_PROFILES
from repro.dram.rowselect import RowSelection
from repro.patterns import COMBINED, DOUBLE_SIDED, SINGLE_SIDED

from repro.system import build_module
from tests.conftest import make_synthetic_chip, make_synthetic_model

SEL = RowSelection(locations_per_region=1, n_regions=1, stride=8)


def closed_and_honest(pattern, t_on, data_pattern=CHECKERBOARD, theta=200.0):
    model = make_synthetic_model()
    chip = make_synthetic_chip(theta_scale=theta, model=model)
    stacked = build_stacked_die(chip, 0, SEL, data_pattern)
    closed = analyze_die(stacked, pattern, t_on, model).acmin()
    session = SoftMCSession(make_synthetic_chip(theta_scale=theta, model=model))
    honest = measure_location_honest(
        session,
        pattern,
        stacked.base_rows[0],
        t_on,
        data_pattern,
        max_budget_iterations=20_000,
    )
    return closed, honest


@pytest.mark.parametrize("pattern", [DOUBLE_SIDED, COMBINED])
@pytest.mark.parametrize("t_on", [36.0, 636.0, 7_800.0])
def test_two_sided_agreement_exact(pattern, t_on):
    closed, honest = closed_and_honest(pattern, t_on)
    assert honest.acmin == closed


@pytest.mark.parametrize("t_on", [36.0, 7_800.0])
def test_single_sided_agreement_close(t_on):
    # The very first activation of the honest single-sided loop is not a
    # same-row re-open, so it deposits a full (non-solo) kick worth up to
    # ~1/solo_hammer_factor solo activations: allow that slack.
    closed, honest = closed_and_honest(SINGLE_SIDED, t_on)
    assert honest.acmin is not None
    assert abs(honest.acmin - closed) <= 8


def test_agreement_on_other_data_pattern():
    closed, honest = closed_and_honest(DOUBLE_SIDED, 7_800.0, ROW_STRIPE)
    assert honest.acmin == closed


def test_honest_census_matches_closed_census():
    model = make_synthetic_model()
    chip = make_synthetic_chip(theta_scale=200.0, model=model)
    stacked = build_stacked_die(chip, 0, SEL, CHECKERBOARD)
    analysis = analyze_die(stacked, DOUBLE_SIDED, 7_800.0, model)
    closed_census = analysis.census(multiplier=1.0)
    session = SoftMCSession(make_synthetic_chip(theta_scale=200.0, model=model))
    honest = measure_location_honest(
        session,
        DOUBLE_SIDED,
        stacked.base_rows[0],
        7_800.0,
        CHECKERBOARD,
        max_budget_iterations=20_000,
    )
    # The honest flips at the exact minimum are a subset of the closed
    # census at multiplier 1 (same iteration count).
    assert honest.census.all_flips <= closed_census.all_flips
    assert honest.census.n_flips >= 1


def test_honest_no_bitflip_on_strong_chip():
    model = make_synthetic_model()
    session = SoftMCSession(make_synthetic_chip(theta_scale=1e9, model=model))
    honest = measure_location_honest(
        session, DOUBLE_SIDED, 10, 7_800.0, CHECKERBOARD, max_budget_iterations=200
    )
    assert honest.acmin is None
    assert honest.census.n_flips == 0


def test_honest_probe_counts_are_logarithmic():
    _closed, honest = closed_and_honest(DOUBLE_SIDED, 7_800.0)
    # Geometric ramp + bisection: ~2 log2(ACmin) probes.
    assert honest.probes <= 30


@pytest.mark.parametrize("t_on", [36.0, 7_800.0])
@pytest.mark.parametrize("pattern", [DOUBLE_SIDED, COMBINED], ids=lambda p: p.name)
@pytest.mark.parametrize("key", sorted(MODULE_PROFILES))
def test_calibrated_module_parity(key, pattern, t_on, fast_config, fast_runner):
    """Honest vs closed form on every calibrated module, at real thresholds.

    One location per die 0: the one whose closed-form iteration count is
    nearest the die median.  A closed form beyond the runtime budget
    means the honest search ends without a flip.  Otherwise honest is
    ``ceil(closed)`` or one less: the init writes deposit a stray kick on
    the victims before the hammer loop starts, which the closed form
    does not count; where it covers the fractional part of the weakest
    cell's count, honest flips one iteration early (H1 at 36 ns: closed
    18060.94, honest 18060).  The per-command path gives the same
    counts; the synthetic-chip tests above stay exact.
    """
    config = fast_config
    module = build_module(key, config)
    stacked = fast_runner.stacked_die(
        module, 0, pattern_footprint(pattern, config.timings)
    )
    closed = analyze_die(
        stacked, pattern, t_on, module.model,
        temperature_c=config.temperature_c, timings=config.timings,
        jitter_sigma=0.0,
    ).min_iters_per_location()
    median = float(np.median(closed[np.isfinite(closed)]))
    location = min(
        range(len(closed)), key=lambda i: (abs(float(closed[i]) - median), i)
    )
    base_row = int(stacked.base_rows[location])
    session = SoftMCSession(module.chip(0))
    honest = measure_location_honest(
        session, pattern, base_row, t_on, config.data_pattern,
        timings=config.timings, runtime_bound_ns=config.runtime_bound_ns,
    )
    budget = HonestLocationProbe(
        session, pattern, base_row, t_on, config.data_pattern, config.timings
    ).budget_iterations(config.runtime_bound_ns)
    expected = math.ceil(float(closed[location]))
    if expected - 1 > budget:
        assert honest.iterations is None
    else:
        assert expected <= budget, "closed form straddles the budget"
        assert expected - 1 <= honest.iterations <= expected
        assert honest.census.n_flips >= 1
