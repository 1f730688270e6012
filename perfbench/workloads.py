"""The benchmark's workloads: one cold user command each.

Every workload is a closed loop with one client: ``run.py`` starts the
next command only after the previous one exits.  A command drives the
public library API the way the ``repro-characterize`` CLI does, in a
fresh interpreter, and ends once its artifact is rendered and checked.

The seed never changes how much work a command does.  It permutes the
order of the modules, chips, mechanisms and patterns a command is
given, and on ``honest-anchor`` it picks one of a few locations whose
closed-form ACmin sits near the die median.  Results are digested in
canonical order, so the pinned digests hold for every seed.

Each workload has a full size (what the benchmark times) and a smoke
size (seconds, for the benchmark's own tests).  Executors are fixed,
never ``auto``: the auto probe picks serial or a pool by host speed,
so the work itself would vary.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

#: The Table 2 anchors the ``table2`` command measures (ns).
ANCHORS = (36.0, 7_800.0, 70_200.0)

#: The honest search's anchor: at 7.8 us the weakest cell flips well
#: inside the 60 ms budget, so the search always ends on a flip.
HONEST_T_ON = 7_800.0

#: ACTs one preflight mapping probe executes: 8 neighbor-row writes and
#: the aggressor write, 400 hammer iterations, 8 readbacks.
PREFLIGHT_PROBE_ACTS = 417

#: Candidate locations per module for ``honest-anchor`` (nearest the
#: die median of the closed-form ACmin).
HONEST_CANDIDATES = 4

ALL_MODULES = (
    "H0", "H1", "H2", "H3", "M0", "M1", "M2", "M3", "M4",
    "S0", "S1", "S2", "S3", "S4",
)
MITIGATIONS = ("para", "graphene", "para-press", "graphene-press")

#: Modules whose preflight is known to fail: S3's mapping probe is
#: under-powered (ROADMAP item 4a).  The workloads keep no operation
#: that fails by design, so this verdict is expected, not failed.
KNOWN_PREFLIGHT_FAILURES = frozenset({"S3"})


def permuted(items: Sequence, seed: int) -> list:
    """``items`` in a seed-determined order."""
    return random.Random(seed).sample(list(items), len(items))


def _preflight(cmd, modules, config) -> None:
    """Preflight every module through a preflight-enabled session.

    A module whose preflight fails is a failed operation, unless it is a
    known failure (:data:`KNOWN_PREFLIGHT_FAILURES`): that one is
    recorded, and printed by ``run.py``, as an expected outcome, and a
    later fix that makes it pass is fine too.  Either way the command
    goes on, and the campaign itself runs with preflight off, so its
    work does not depend on the verdicts.
    """
    from repro.backend import BackendSpec
    from repro.backend.base import build_session
    from repro.errors import PreflightError

    session = build_session(BackendSpec(kind="sim"))
    for module in modules:
        try:
            session.ensure_preflight(module, config)
        except PreflightError as exc:
            known = module.key in KNOWN_PREFLIGHT_FAILURES
            cmd.op("preflight", module.key, known,
                   ("known failure: " if known else "") + str(exc))
        else:
            cmd.op("preflight", module.key, True)
        cmd.acts += PREFLIGHT_PROBE_ACTS


def _campaign_backend():
    from repro.backend import BackendSpec

    return BackendSpec(kind="sim", preflight=False)


# ------------------------------------------------------------ table2-all


def run_table2(cmd, p: Dict, seed: int) -> None:
    from repro.analysis.tables import format_table, table2_rows
    from repro.core.experiment import CharacterizationConfig
    from repro.core.runner import CharacterizationRunner
    from repro.patterns import ALL_PATTERNS
    from repro.system import build_modules
    from repro.validate.invariants import results_digest

    config = CharacterizationConfig()
    modules = build_modules(permuted(p["modules"], seed), config)
    _preflight(cmd, modules, config)
    cmd.setup_done()

    runner = CharacterizationRunner(config, backend=_campaign_backend())
    results = runner.characterize(
        modules, list(ANCHORS), permuted(ALL_PATTERNS, seed),
        trials=1, workers=p["workers"],
    )
    cmd.artifact(format_table(table2_rows(results)))
    cmd.measurements = len(results)
    digest = results_digest(results)
    cmd.op("check", "results_digest", digest == p["pins"]["digest"], digest)


# ---------------------------------------------------------- sweep-export


def run_sweep_export(cmd, p: Dict, seed: int) -> None:
    from repro.analysis.ascii_plot import ascii_line_plot
    from repro.analysis.figures import fig4_series
    from repro.analysis.streaming import PopulationStats
    from repro.analysis.tables import format_table
    from repro.cli import sweep_points
    from repro.core.experiment import CharacterizationConfig
    from repro.core.flipdb import BitflipDatabase, FlipSink
    from repro.core.runner import CharacterizationRunner
    from repro.obs import MetricsRegistry
    from repro.patterns import ALL_PATTERNS
    from repro.system import build_modules
    from repro.validate.invariants import results_digest

    config = CharacterizationConfig()
    modules = build_modules(permuted(p["modules"], seed), config)
    _preflight(cmd, modules, config)
    cmd.setup_done()

    runner = CharacterizationRunner(config, backend=_campaign_backend())
    os.makedirs("export")
    store = "export/flips.sqlite"
    metrics = MetricsRegistry()
    with FlipSink(store, metrics=metrics) as sink:
        results = runner.characterize(
            modules, sweep_points(p["points"]), permuted(ALL_PATTERNS, seed),
            trials=p["trials"], workers=0, sink=sink,
            checkpoint="sweep.ckpt",
        )
        info = sink.db.export_shards("export", metrics=metrics)
    with BitflipDatabase(store) as db:
        stats = PopulationStats(group_by="module").consume(
            db.iter_measurements(with_census=False)
        )
    text = format_table(stats.rows())
    for metric, logy in (("time", False), ("acmin", True)):
        text += ascii_line_plot(
            fig4_series(results, metric=metric), logy=logy,
            title=f"Fig. 4: {metric} vs tAggON",
        )
    cmd.artifact(text)
    cmd.measurements = len(results)
    digest = results_digest(results)
    cmd.op("check", "manifest_digest", info.results_digest == digest,
           f"{info.results_digest} vs {digest}")
    cmd.op("check", "query_rows", stats.n_measurements == sink.n_rows > 0,
           f"{stats.n_measurements} vs {sink.n_rows}")


# -------------------------------------------------------------- mitigate


def run_mitigate(cmd, p: Dict, seed: int) -> None:
    from repro.analysis.ascii_plot import ascii_line_plot
    from repro.analysis.tables import (
        format_table,
        mitigation_strength_series,
        mitigation_table_rows,
    )
    from repro.backend import BackendSpec
    from repro.backend.base import build_session
    from repro.core.engine import make_executor
    from repro.errors import PreflightError
    from repro.mitigations.campaign import MitigationCampaign, build_eval_chip
    from repro.patterns.dsl import resolve_patterns
    from repro.validate.invariants import mitigation_results_digest

    chips = permuted(p["chips"], seed)
    mitigations = permuted(p["mitigations"], seed)
    patterns = resolve_patterns(permuted(p["patterns"], seed))
    session = build_session(BackendSpec(kind="sim"))
    for chip in chips:
        build_eval_chip(chip)
    try:
        session.ensure_device_protections()
    except PreflightError as exc:
        cmd.op("preflight", "protections", False, str(exc))
    else:
        cmd.op("preflight", "protections", True)
    cmd.setup_done()

    campaign = MitigationCampaign(executor=make_executor(0), backend=session)
    results = campaign.run(
        chips=chips, mitigations=mitigations, patterns=patterns,
        t_values=p["t_values"],
    )
    text = format_table(mitigation_table_rows(results))
    for mechanism in mitigations:
        series = mitigation_strength_series(results, mechanism)
        if any(y == y for s in series for y in s.means):
            text += ascii_line_plot(
                series, logy=mechanism.startswith("graphene"),
                title=f"Required {mechanism} strength vs tAggON",
            )
    cmd.artifact(text)
    cmd.measurements = len(results)
    cmd.acts += p["pins"]["acts"]
    digest = mitigation_results_digest(results)
    cmd.op("check", "mitigation_results_digest",
           digest == p["pins"]["digest"], digest)


# --------------------------------------------------------- honest-anchor


def honest_candidates(mins) -> list:
    """The locations whose closed-form ACmin is nearest the die median."""
    import numpy as np

    finite = mins[np.isfinite(mins)]
    median = float(np.median(finite))
    return sorted(
        range(len(mins)), key=lambda i: (abs(float(mins[i]) - median), i)
    )[:HONEST_CANDIDATES]


def run_honest(cmd, p: Dict, seed: int) -> None:
    from repro.bender.softmc import SoftMCSession
    from repro.core.acmin import analyze_die, pattern_footprint
    from repro.core.experiment import CharacterizationConfig
    from repro.core.honest import measure_location_honest
    from repro.core.runner import CharacterizationRunner
    from repro.patterns import DOUBLE_SIDED
    from repro.system import build_modules

    config = CharacterizationConfig()
    modules = build_modules(p["modules"], config)
    _preflight(cmd, modules, config)
    cmd.setup_done()

    runner = CharacterizationRunner(config)
    footprint = pattern_footprint(DOUBLE_SIDED, config.timings)
    lines = []
    for index, module in enumerate(modules):
        stacked = runner.stacked_die(module, 0, footprint)
        closed = analyze_die(
            stacked, DOUBLE_SIDED, HONEST_T_ON, module.model,
            temperature_c=config.temperature_c, timings=config.timings,
            jitter_sigma=0.0,
        ).min_iters_per_location()
        pick = (seed + index) % HONEST_CANDIDATES
        location = honest_candidates(closed)[pick]
        honest = measure_location_honest(
            SoftMCSession(module.chip(0)), DOUBLE_SIDED,
            int(stacked.base_rows[location]), HONEST_T_ON,
            config.data_pattern, timings=config.timings,
            runtime_bound_ns=config.runtime_bound_ns,
        )
        expected = math.ceil(float(closed[location]))
        lines.append(
            f"{module.key} die 0 location {location}: closed-form "
            f"{float(closed[location]):.3f} iterations, honest "
            f"{honest.iterations} in {honest.probes} probes\n"
        )
        cmd.op("check", f"honest {module.key}/{location}",
               honest.iterations == expected,
               f"{honest.iterations} vs ceil(closed) {expected}")
        cmd.acts += p["pins"]["acts"][module.key][pick]
        cmd.measurements += 1
    cmd.artifact("".join(lines))


# ---------------------------------------------------------------- table


@dataclass(frozen=True)
class Workload:
    """A named cold command: what it imports, runs, and at which size."""

    name: str
    run: Callable
    imports: Tuple[str, ...]
    full: Dict
    smoke: Dict


_CHARACTERIZE_IMPORTS = (
    "repro.system", "repro.core.runner", "repro.validate.invariants",
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "table2-all", run_table2, _CHARACTERIZE_IMPORTS,
            full={
                "modules": ALL_MODULES, "workers": 2,
                "pins": {"digest": "452311a1b464b168d07e2e38e56db40c"
                                   "f50c0bdef9ca60e5e239d41b07a12357"},
            },
            smoke={
                "modules": ("S0", "S3"), "workers": 2,
                "pins": {"digest": "cd6f0d48f02bfd7efb9104a54d1c93aa"
                                   "6e5321485e009a4275522c9637217daf"},
            },
        ),
        Workload(
            "sweep-export", run_sweep_export,
            _CHARACTERIZE_IMPORTS + ("repro.core.flipdb", "repro.analysis.streaming"),
            full={
                "modules": ("H0", "M0", "S0"), "points": 9, "trials": 3,
            },
            smoke={
                "modules": ("S0",), "points": 2, "trials": 1,
            },
        ),
        Workload(
            "mitigate", run_mitigate,
            ("repro.mitigations.campaign", "repro.validate.invariants"),
            full={
                "chips": ("E0", "E1"), "mitigations": MITIGATIONS,
                "patterns": ("single-sided", "double-sided", "combined"),
                "t_values": (36.0, 636.0, 7_800.0, 70_200.0),
                "pins": {
                    "digest": "639f92fb9af8dfdae10c30cd2be5bef9"
                              "3a4543bbea7c179f10f0b23691f6319d",
                    "acts": 125992,
                },
            },
            smoke={
                "chips": ("E0",), "mitigations": ("para", "graphene"),
                "patterns": ("double-sided",), "t_values": (36.0, 7_800.0),
                "pins": {
                    "digest": "c2fcb6ee3a5fdf34661e249f72bf47b5"
                              "e84a600967ae5a1282e7ace4eb1dd2b3",
                    "acts": 5448,
                },
            },
        ),
        Workload(
            "honest-anchor", run_honest,
            _CHARACTERIZE_IMPORTS + ("repro.core.honest",),
            full={
                "modules": ("S0", "H0"),
                "pins": {"acts": {
                    "S0": (64732, 64798, 64728, 64728),
                    "H0": (65680, 66300, 66688, 65120),
                }},
            },
            smoke={
                "modules": ("S0",),
                "pins": {"acts": {"S0": (64732, 64798, 64728, 64728)}},
            },
        ),
    )
}
