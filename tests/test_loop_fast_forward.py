"""The interpreter's loop fast-forward agrees with per-command stepping.

An observer-free hammer loop is stepped through a short warm-up, one
more iteration is recorded, and the remaining iterations are applied at
once (see :mod:`repro.bender.interpreter`).  Attaching a no-op observer
forces the per-command path on an otherwise identical session, so the
two can be compared:

* differential -- identical ``HonestMeasurement`` (iterations, census,
  probes), per-program ``activations``/``elapsed_ns``, interpreter time,
  timing-checker and bank time stamps; tracker accumulators equal
  within ``rtol=1e-12`` (``m * D`` instead of ``m`` repeated adds is a
  rounding difference only);
* counters -- with the fast path a probe's ``on_activation`` calls are
  bounded by the warm-up and do not depend on the iteration count;
* eligibility -- every loop the rules exclude runs command by command.
"""

import math

import numpy as np
import pytest

from repro.bender.interpreter import Interpreter
from repro.bender.isa import Opcode
from repro.bender.program import ProgramBuilder
from repro.bender.softmc import SoftMCSession
from repro.constants import DEFAULT_TIMINGS
from repro.core.acmin import pattern_footprint
from repro.core.honest import HonestLocationProbe, measure_location_honest
from repro.core.stacked import build_stacked_die
from repro.disturb.population import PopulationParams
from repro.dram.chip import Chip
from repro.dram.datapattern import CHECKERBOARD, ROW_STRIPE
from repro.dram.mapping import XorScrambleMapping
from repro.dram.retention import RetentionModel
from repro.dram.rowselect import RowSelection
from repro.dram.topology import BankGeometry
from repro.patterns import COMBINED, DOUBLE_SIDED, SINGLE_SIDED
from repro.patterns.dsl import (
    decoy_flood_spec,
    half_double_spec,
    hammer_press_hybrid_spec,
    n_sided_spec,
    retention_assisted_spec,
)
from tests.conftest import make_synthetic_chip, make_synthetic_model

SEL = RowSelection(locations_per_region=1, n_regions=1, stride=8)

#: Thresholds about a hundred iterations deep (several hundred for the
#: single-sided pattern), so the skipped stretch is long next to the
#: warm-up.
THETA = 500.0

PATTERNS = [
    SINGLE_SIDED,
    DOUBLE_SIDED,
    COMBINED,
    decoy_flood_spec(),
    hammer_press_hybrid_spec(),
    retention_assisted_spec(),
    n_sided_spec(4),
    n_sided_spec(4, combined=True),
    half_double_spec(),
]

#: Patterns with two adjacent aggressors: always stepped.
FALLBACK = {"half-double"}


def _noop_observer(event, bank, row, now):
    return None


def _count_activations(chip):
    """Wrap bank 0's tracker so it counts ``on_activation`` calls."""
    tracker = chip.bank(0).tracker
    calls = [0]
    inner = tracker.on_activation

    def counting(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    tracker.on_activation = counting
    return calls


def _session(stepped, theta=THETA):
    chip = make_synthetic_chip(theta_scale=theta, model=make_synthetic_model())
    session = SoftMCSession(chip)
    if stepped:
        session.add_observer(_noop_observer)
    results = []
    run = session.run

    def recording_run(program):
        result = run(program)
        results.append(result)
        return result

    session.run = recording_run
    return session, results


def _checker_state(session):
    state = dict(vars(session._interp._checker))
    del state["_t"]
    return state


def _bank_times(session):
    bank = session.chip.bank(0)
    return bank._open_since, dict(bank._last_restore), bank._last_activated


def _accumulators(session):
    tracker = session.chip.bank(0).tracker
    return tracker._gain, tracker._loss


def _base_row(pattern, data_pattern):
    stacked = build_stacked_die(
        make_synthetic_chip(theta_scale=THETA, model=make_synthetic_model()),
        0, SEL, data_pattern, offsets=pattern_footprint(pattern),
    )
    return stacked.base_rows[0]


#: Every pattern at every on-time on the checkerboard, and at 636 ns on
#: the row stripe.
DIFFERENTIAL_CASES = [
    (pattern, t_on, CHECKERBOARD)
    for pattern in PATTERNS
    for t_on in (36.0, 636.0, 7_800.0)
] + [(pattern, 636.0, ROW_STRIPE) for pattern in PATTERNS]


@pytest.mark.parametrize(
    "pattern,t_on,data_pattern",
    DIFFERENTIAL_CASES,
    ids=[f"{p.name}-{t:g}-{d.name}" for p, t, d in DIFFERENTIAL_CASES],
)
def test_fast_path_matches_stepped(pattern, t_on, data_pattern):
    base_row = _base_row(pattern, data_pattern)
    runs = {}
    for stepped in (False, True):
        session, results = _session(stepped)
        calls = _count_activations(session.chip)
        honest = measure_location_honest(
            session, pattern, base_row, t_on, data_pattern,
            max_budget_iterations=20_000,
        )
        runs[stepped] = session, results, honest, calls[0]
    fast, fast_results, fast_honest, fast_calls = runs[False]
    slow, slow_results, slow_honest, slow_calls = runs[True]

    assert fast_honest.iterations is not None
    assert fast_honest == slow_honest
    assert [(r.activations, r.elapsed_ns, r.refreshes) for r in fast_results] == [
        (r.activations, r.elapsed_ns, r.refreshes) for r in slow_results
    ]
    assert fast.now == slow.now
    assert _checker_state(fast) == _checker_state(slow)
    assert _bank_times(fast) == _bank_times(slow)
    for fast_acc, slow_acc in zip(_accumulators(fast), _accumulators(slow)):
        assert fast_acc.keys() == slow_acc.keys()
        for row in fast_acc:
            np.testing.assert_allclose(fast_acc[row], slow_acc[row], rtol=1e-12, atol=0)
    if pattern.name in FALLBACK:
        assert fast_calls == slow_calls
    else:
        assert fast_calls < slow_calls


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.name)
def test_probe_activation_calls_bounded_by_warmup(pattern):
    """A probe's tracker work is init + warm-up + readback, whatever the
    iteration count -- unless the pattern must fall back to stepping."""
    session, _ = _session(stepped=False)
    calls = _count_activations(session.chip)
    probe = HonestLocationProbe(
        session, pattern, _base_row(pattern, CHECKERBOARD), 636.0, CHECKERBOARD
    )
    placement = probe.placement
    acts = placement.acts_per_iteration
    written = len({row for row, _ in placement.aggressors} | set(placement.victims))
    bound = written + len(placement.victims) + (max(1, math.ceil(4 / acts)) + 1) * acts
    per_probe = {}
    for iterations in (50, 200, 1_000):
        before = calls[0]
        probe.probe(iterations)
        per_probe[iterations] = calls[0] - before
    if pattern.name in FALLBACK:
        assert per_probe[1_000] - per_probe[200] == 800 * acts
    else:
        assert len(set(per_probe.values())) == 1
        assert per_probe[50] <= bound


# ---------------------------------------------------------- eligibility


def _hammer(count, rows=(10, 12), body_extra=None, nested=False):
    """A bank-0 hammer loop over ``rows``, optionally with extra body
    commands or wrapped around an inner 3-iteration loop."""
    builder = ProgramBuilder()

    def body():
        for row in rows:
            builder.act(0, row).wait(636.0).pre(0).wait(DEFAULT_TIMINGS.tRP)
        if body_extra is not None:
            body_extra(builder)

    with builder.loop(count):
        if nested:
            with builder.loop(3):
                body()
        else:
            body()
    return builder.build()


def _refresh(builder):
    builder.ref().wait(DEFAULT_TIMINGS.tRP)


def _other_bank(builder):
    builder.act(1, 30).wait(36.0).pre(1).wait(DEFAULT_TIMINGS.tRP)


def _chip(case):
    if case == "retention":
        return Chip(
            module_key="SYNTH", die_index=0,
            geometry=BankGeometry(rows=64, cols_simulated=64),
            model=make_synthetic_model(),
            population=PopulationParams(theta_scale=1e9),
            retention=RetentionModel("SYNTH", 0, 64),
        )
    mapping = XorScrambleMapping(trigger_mask=0x8, xor_mask=0x6)
    return make_synthetic_chip(
        theta_scale=1e9, mapping=mapping if case == "scrambled-adjacent" else None
    )


@pytest.mark.parametrize(
    "case",
    [
        "eligible", "observer", "temperature", "retention", "refresh",
        "two-banks", "adjacent", "scrambled-adjacent", "short",
    ],
)
def test_ineligible_loops_are_stepped(case):
    chip = _chip(case)
    rows = (10, 12)
    if case == "adjacent":
        rows = (10, 11)
    elif case == "scrambled-adjacent":
        # Three rows apart on the command bus, adjacent in the array.
        rows = (10, chip.to_logical(chip.to_physical(10) - 1))
        assert abs(rows[1] - rows[0]) > 1
    interp = Interpreter(
        chip, temperature=(lambda: 50.0) if case == "temperature" else None
    )
    if case == "observer":
        interp.add_observer(_noop_observer)
    calls = _count_activations(chip)
    extra = {"refresh": _refresh, "two-banks": _other_bank}.get(case)
    count = 3 if case == "short" else 40
    program = _hammer(count, rows=rows, body_extra=extra)
    result = interp.run(program)
    assert result.activations == sum(
        1 for instr in program.flat() if instr.opcode is Opcode.ACT
    )
    if case == "eligible":
        assert calls[0] == (2 + 1) * 2  # warm-up, recorded iteration
    else:
        assert calls[0] == count * len(rows)  # every bank-0 activation


def test_nested_loops_fast_forward_inner_loops():
    fast_chip = make_synthetic_chip(theta_scale=1e9)
    fast = Interpreter(fast_chip)
    calls = _count_activations(fast_chip)
    stepped = Interpreter(make_synthetic_chip(theta_scale=1e9))
    stepped.add_observer(_noop_observer)
    # Inner loops of 3 iterations are too short to skip anything.
    program = _hammer(4, nested=True)
    a, b = fast.run(program), stepped.run(program)
    assert (a.activations, a.elapsed_ns) == (b.activations, b.elapsed_ns)
    assert a.activations == calls[0] == 4 * 3 * 2
    builder = ProgramBuilder()
    with builder.loop(2):
        with builder.loop(100):
            builder.act(0, 10).wait(636.0).pre(0).wait(DEFAULT_TIMINGS.tRP)
    program = builder.build()
    before = calls[0]
    a, b = fast.run(program), stepped.run(program)
    assert (a.activations, a.elapsed_ns) == (b.activations, b.elapsed_ns)
    assert a.activations == 200
    assert calls[0] - before == 2 * (4 + 1)
    assert fast.now == stepped.now
