"""Process-pool share modes, the fork-state registry, and the auto executor.

The process executor hands workers their state one of two ways, picked
from the platform: fork inheritance (a registry token crosses the pool)
or the pickled rebuild spec.  On top of the engine's bit-identity
guarantee that leaves two obligations:

* both share modes produce the serial campaign bit-for-bit, with and
  without a retry policy (one dispatch loop serves both);
* the auto executor never picks a pool that cannot pay for itself (one
  core, fully memoized plans, trivially small campaigns).

Leaked fork-state registrations are caught session-wide by the
``_no_leaked_fork_state`` fixture in ``conftest.py``.
"""

from __future__ import annotations

import os

import pytest

from repro.core import engine as engine_mod
from repro.core.engine import (
    AutoExecutor,
    ProcessExecutor,
    SerialExecutor,
    SweepEngine,
    discard_fork_state,
    fork_state,
    install_fork_state,
    live_fork_tokens,
    make_executor,
)
from repro.core.faults import RetryPolicy
from repro.errors import ExperimentError
from repro.patterns import ALL_PATTERNS

pytestmark = pytest.mark.executors

T_VALUES = [36.0, 7_800.0]


def _run(config, modules, executor, **kwargs):
    engine = SweepEngine(config, executor=executor)
    results = engine.run(modules, T_VALUES, ALL_PATTERNS, trials=2, **kwargs)
    return engine, results


@pytest.fixture(scope="module")
def serial_baseline(fast_config, s0_module):
    _, results = _run(fast_config, [s0_module], SerialExecutor())
    return results


# -------------------------------------------------------- fork registry


def test_fork_state_round_trip():
    payload = object()
    token = install_fork_state(payload)
    try:
        assert fork_state(token) is payload
        assert token in live_fork_tokens()
    finally:
        discard_fork_state(token)
    assert token not in live_fork_tokens()
    with pytest.raises(ExperimentError, match="fork-inherited"):
        fork_state(token)
    discard_fork_state(token)  # idempotent


# -------------------------------------------------- cross-mode identity


@pytest.mark.parametrize(
    "mode, policy",
    [
        ("fork", None),
        ("pickle", None),
        ("pickle", RetryPolicy(max_retries=1, backoff_base=0.0)),
        ("fork", RetryPolicy(max_retries=1, backoff_base=0.0)),
    ],
    ids=["fork", "pickle", "pickle-resilient", "fork-resilient"],
)
def test_pool_modes_bit_identical(
    fast_config, s0_module, serial_baseline, monkeypatch, mode, policy
):
    if mode == "fork" and not engine_mod.fork_sharing_available():
        pytest.skip("fork start method unavailable")
    if mode == "pickle":
        monkeypatch.setattr(engine_mod, "fork_sharing_available", lambda: False)
    modes = []
    original = ProcessExecutor._worker_state

    def spy(runner, obs):
        spec, cleanup, chosen = original(runner, obs)
        modes.append(chosen)
        return spec, cleanup, chosen

    monkeypatch.setattr(ProcessExecutor, "_worker_state", staticmethod(spy))
    _, results = _run(
        fast_config, [s0_module], ProcessExecutor(2), policy=policy
    )
    assert list(results) == list(serial_baseline)
    assert modes == [mode]
    assert live_fork_tokens() == ()


def test_memoized_plan_under_retry_policy_starts_no_pool(
    fast_config, s0_module, serial_baseline, monkeypatch
):
    """A retry policy selects no other algorithm: with every unit in the
    measurement cache the pool is never started, policy or not."""
    cache = {}
    SweepEngine(fast_config).run(
        [s0_module], T_VALUES, ALL_PATTERNS, trials=2,
        measurement_cache=cache,
    )

    def no_pool(runner, obs):
        raise AssertionError("a fully memoized plan must not start a pool")

    monkeypatch.setattr(
        ProcessExecutor, "_worker_state", staticmethod(no_pool)
    )
    _, results = _run(
        fast_config, [s0_module], ProcessExecutor(2),
        policy=RetryPolicy(), measurement_cache=cache,
    )
    assert list(results) == list(serial_baseline)


# ------------------------------------------------------- auto executor


def test_make_executor_accepts_auto():
    assert isinstance(make_executor("auto"), AutoExecutor)
    assert isinstance(make_executor("4"), ProcessExecutor)
    assert isinstance(make_executor("1"), SerialExecutor)
    with pytest.raises(ExperimentError):
        make_executor("several")


def test_auto_picks_serial_on_one_core(
    fast_config, s0_module, serial_baseline, monkeypatch
):
    monkeypatch.setattr(engine_mod.os, "cpu_count", lambda: 1)
    executor = AutoExecutor()
    engine, results = _run(fast_config, [s0_module], executor)
    assert list(results) == list(serial_baseline)
    decision = engine.last_report.auto_decision
    assert decision is not None and decision["chosen"] == "serial"
    assert executor.last_decision == decision


def test_auto_picks_pool_when_cores_and_work_abound(
    fast_config, s0_module, serial_baseline, monkeypatch
):
    monkeypatch.setattr(engine_mod.os, "cpu_count", lambda: 4)
    executor = AutoExecutor()
    # Make any estimated remaining work worth parallelizing.
    monkeypatch.setattr(executor, "min_parallel_seconds", 0.0)
    engine, results = _run(fast_config, [s0_module], executor)
    assert list(results) == list(serial_baseline)
    decision = engine.last_report.auto_decision
    assert decision is not None and decision["chosen"] in (
        "process",
        "thread",
    )
    assert live_fork_tokens() == ()


def test_auto_runs_fully_memoized_plan_serially(fast_config, s0_module):
    from repro.core.runner import CharacterizationRunner

    runner = CharacterizationRunner(fast_config)
    first = runner.characterize(
        [s0_module], T_VALUES, ALL_PATTERNS, trials=2, workers=0
    )
    executor = AutoExecutor(4)
    warm = runner.characterize(
        [s0_module], T_VALUES, ALL_PATTERNS, trials=2, executor=executor
    )
    assert list(warm) == list(first)
    assert executor.last_decision is not None
    assert executor.last_decision["chosen"] == "serial"


# ------------------------------------------------- oversubscription warning


def test_oversubscription_warns_and_lands_in_report(fast_config, s0_module):
    workers = (os.cpu_count() or 1) + 2
    with pytest.warns(UserWarning, match="oversubscribe"):
        engine, results = _run(
            fast_config, [s0_module], ProcessExecutor(workers)
        )
    report = engine.last_report
    assert any("oversubscribe" in w for w in report.warnings)
    assert "oversubscribe" in report.summary()


def test_auto_executor_never_warns_oversubscription(
    fast_config, s0_module, recwarn
):
    """The auto executor caps its pool at the core count (and may pick
    serial), so asking it for more workers than cores is no warning."""
    executor = AutoExecutor((os.cpu_count() or 1) + 2)
    engine, _ = _run(fast_config, [s0_module], executor)
    assert not [w for w in recwarn if "oversubscribe" in str(w.message)]
    assert not any("oversubscribe" in w for w in engine.last_report.warnings)
    assert executor.last_decision["workers"] <= (os.cpu_count() or 1)
